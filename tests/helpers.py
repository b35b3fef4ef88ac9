"""Shared random-instance generators and the reference certificate verifier
for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from bbranching import (
    CapacityVector,
    CertificateCheck,
    DemandVector,
    Digraph,
    PackingInstance,
    WeightVector,
)
from bbranching.matroids import indegree_profile, saturated_components


def random_digraph(rng: random.Random, max_vertices: int, max_arcs: int, loop_rate: float = 0.0) -> Digraph:
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_arcs)
    pairs = []
    for _ in range(m):
        tail = rng.randrange(n)
        head = tail if rng.random() < loop_rate else rng.randrange(n)
        pairs.append((tail, head))
    return Digraph.from_pairs(n, pairs)


def random_capacities(rng: random.Random, graph: Digraph, max_cap: int) -> CapacityVector:
    return CapacityVector([rng.randint(1, max_cap) for _ in graph.vertices])


def random_weights(rng: random.Random, graph: Digraph, low: int = 0, high: int = 10) -> list[int]:
    return [rng.randint(low, high) for _ in range(graph.arc_count)]


def random_packing_instance(
    rng: random.Random,
    max_vertices: int = 5,
    max_arcs: int = 10,
    max_cap: int = 2,
    max_parts: int = 2,
    loop_rate: float = 0.0,
) -> PackingInstance:
    """Random instance whose demand vectors respect the validity hypotheses."""
    graph = random_digraph(rng, max_vertices, max_arcs, loop_rate)
    n = graph.vertex_count
    capacities = CapacityVector([rng.randint(1, max_cap) for _ in range(n)])
    k = rng.randint(1, max_parts)
    demands = []
    for _ in range(k):
        values = [rng.randint(0, capacities[v]) for v in range(n)]
        if all(values[v] == capacities[v] for v in range(n)):
            values[rng.randrange(n)] -= 1
        demands.append(DemandVector(values))
    return PackingInstance(graph, capacities, tuple(demands))


def random_indegree_independent_set(rng: random.Random, graph: Digraph, capacities: CapacityVector) -> frozenset:
    """Random arc subset respecting every vertex capacity."""
    chosen: list[int] = []
    for v in graph.vertices:
        pool = list(graph.in_arc_ids(v))
        rng.shuffle(pool)
        take = rng.randint(0, min(capacities[v], len(pool)))
        chosen.extend(pool[:take])
    return frozenset(chosen)


def reference_verify(graph, capacities, weights, arcs, certificate) -> CertificateCheck:
    """Test-only oracle for `verify_certificate`: the same checks in the same
    order, summing every positive set potential for every arc in `Fraction`s
    (|A| * |p_sets| membership tests)."""
    capacities.check_domain(graph)
    wv = WeightVector.coerce(weights, graph.arc_count)
    subset = frozenset(arcs)

    if not subset <= graph.arc_id_set:
        return CertificateCheck(False, "unknown-arc-ids")
    profile = indegree_profile(graph, subset)
    if any(profile[v] > capacities[v] for v in graph.vertices):
        return CertificateCheck(False, "primal-indegree-violated")
    if saturated_components(graph, capacities, subset):
        return CertificateCheck(False, "primal-sparsity-violated")

    p_vertex = certificate.p_vertex
    if set(p_vertex) != set(graph.vertices):
        return CertificateCheck(False, "vertex-potential-domain")
    if any(p < 0 for p in p_vertex.values()):
        return CertificateCheck(False, "vertex-potential-negative")
    for members, potential in certificate.p_sets:
        if not members or not members <= graph.vertex_set:
            return CertificateCheck(False, "set-potential-domain")
        if potential < 0:
            return CertificateCheck(False, "set-potential-negative")
    if any(v < 0 for v in certificate.q.values()):
        return CertificateCheck(False, "arc-potential-negative")
    if not set(certificate.q) <= set(graph.arc_ids):
        return CertificateCheck(False, "arc-potential-domain")

    positive_sets = [(members, pot) for members, pot in certificate.p_sets if pot > 0]
    for a in graph.arc_ids:
        tail, head = graph.endpoints(a)
        lhs = p_vertex[head] + certificate.q.get(a, Fraction(0))
        for members, pot in positive_sets:
            if tail in members and head in members:
                lhs += pot
        w = wv[a]
        if lhs < w:
            return CertificateCheck(False, f"dual-constraint-violated:arc={a}")
        if a in subset and lhs != w:
            return CertificateCheck(False, f"selected-arc-slack:arc={a}")
        if certificate.q.get(a, Fraction(0)) > 0 and a not in subset:
            return CertificateCheck(False, f"q-support-outside-solution:arc={a}")

    for v in graph.vertices:
        if p_vertex[v] > 0 and profile[v] != capacities[v]:
            return CertificateCheck(False, f"vertex-potential-unsaturated:v={v}")
    for members, pot in positive_sets:
        count = sum(
            1 for a in subset if graph.tail(a) in members and graph.head(a) in members
        )
        if count != capacities.total(members) - 1:
            return CertificateCheck(False, "set-potential-not-tight")

    recomputed = (
        sum(capacities[v] * p_vertex[v] for v in graph.vertices)
        + sum((capacities.total(members) - 1) * pot for members, pot in certificate.p_sets)
        + sum(certificate.q.values())
    )
    if recomputed != certificate.objective:
        return CertificateCheck(False, "objective-mismatch")
    if wv.value(subset) != certificate.objective:
        return CertificateCheck(False, "duality-gap")
    return CertificateCheck(True)
