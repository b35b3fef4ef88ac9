"""The witnesses of the packing and cover checks, against the definitions.

Each check reports the first vertex that breaks its degree condition, else
the first nonempty vertex set of least value, scanning sets by size and then
lexicographically; a set is reported only when that least value is negative.
"""

import random
from itertools import combinations

from bbranching import (
    CapacityVector,
    DemandVector,
    Digraph,
    Feasibility,
    PackingInstance,
    check_cover_conditions,
    check_packing_conditions,
)

from helpers import random_packing_instance


def _scan(vertices, value) -> Feasibility:
    ordered = [
        frozenset(combo)
        for size in range(1, len(vertices) + 1)
        for combo in combinations(sorted(vertices), size)
    ]
    if not ordered:
        return Feasibility(True)
    witness = min(ordered, key=value)
    return Feasibility(False, subset=witness) if value(witness) < 0 else Feasibility(True)


def packing_by_definition(instance: PackingInstance) -> Feasibility:
    graph, b, demands = instance.graph, instance.capacities, instance.demands
    arcs = [graph.endpoints(a) for a in graph.arc_ids]
    for v in graph.vertices:
        if sum(1 for _, h in arcs if h == v) < sum(d[v] for d in demands):
            return Feasibility(False, vertex=v)

    def value(X):
        entering = sum(1 for t, h in arcs if h in X and t not in X)
        saturating = sum(1 for d in demands if sum(d[v] for v in X) == sum(b[v] for v in X))
        return entering - saturating

    return _scan(graph.vertices, value)


def cover_by_definition(graph: Digraph, b: CapacityVector, k: int) -> Feasibility:
    arcs = [graph.endpoints(a) for a in graph.arc_ids]
    for v in graph.vertices:
        if sum(1 for _, h in arcs if h == v) > k * b[v]:
            return Feasibility(False, vertex=v)

    def value(X):
        induced = sum(1 for t, h in arcs if t in X and h in X)
        return k * (sum(b[v] for v in X) - 1) - induced

    return _scan(graph.vertices, value)


def _plant_cut_violation(rng, instance: PackingInstance) -> PackingInstance:
    """Cut every arc entering a random set X from outside, add a demand
    saturating X, and give each member of X more arcs from the rest of X
    than there are demands (loops where X is a single vertex)."""
    graph, b = instance.graph, instance.capacities
    n = graph.vertex_count
    if n < 2:
        return instance
    X = rng.sample(range(n), rng.randint(1, n - 1))
    pairs = [(t, h) for t, h in map(graph.endpoints, graph.arc_ids) if h not in X or t in X]
    demands = instance.demands + (
        DemandVector([b[v] if v in X else 0 for v in range(n)]),
    )
    for v in X:
        others = [u for u in X if u != v] or [v]
        pairs += [(rng.choice(others), v) for _ in range(len(demands) + 1)]
    return PackingInstance(Digraph.from_pairs(n, pairs), b, demands)


def _plant_dense_set(rng, graph: Digraph, b: CapacityVector, k: int) -> Digraph:
    """Cut every arc entering a random set X from outside, then add arcs
    inside X, each into a member below k times its capacity, until X
    induces k(b(X) - 1) + 1 arcs."""
    n = graph.vertex_count
    X = rng.sample(range(n), rng.randint(min(n, 2), min(n, 4)))
    pairs = [(t, h) for t, h in map(graph.endpoints, graph.arc_ids) if h not in X or t in X]
    indegree = {v: sum(1 for _, h in pairs if h == v) for v in X}
    for _ in range(k * (sum(b[v] for v in X) - 1) + 1 - sum(indegree.values())):
        head = rng.choice([v for v in X if indegree[v] < k * b[v]])
        indegree[head] += 1
        pairs.append((rng.choice(X), head))
    return Digraph.from_pairs(n, pairs)


def test_witnesses_match_the_definitions():
    rng = random.Random(0x3177)
    seen = {"pack": [], "cover": []}
    for trial in range(300):
        instance = random_packing_instance(
            rng, max_vertices=6, max_arcs=20, max_cap=2, max_parts=3, loop_rate=0.1
        )
        if trial % 3 == 1:
            instance = _plant_cut_violation(rng, instance)
        got = check_packing_conditions(instance)
        assert got == packing_by_definition(instance), (trial, got)
        seen["pack"].append(got)

        graph, b = instance.graph, instance.capacities
        # Half the time k is raised until every degree condition holds.
        k = rng.randint(1, 3)
        if trial % 2:
            k = max([k] + [-(-len(graph.in_arc_ids(v)) // b[v]) for v in graph.vertices])
        if trial % 3 == 2:
            graph = _plant_dense_set(rng, graph, b, k)
        got = check_cover_conditions(graph, b, k)
        assert got == cover_by_definition(graph, b, k), (trial, got)
        seen["cover"].append(got)

    for check, results in seen.items():
        # Every kind of answer, and subset witnesses of several sizes.
        kinds = {"ok" if got else "vertex" if got.vertex is not None else "subset" for got in results}
        assert kinds == {"ok", "vertex", "subset"}, (check, kinds)
        sizes = {len(got.subset) for got in results if got.subset is not None}
        assert len(sizes) >= 3, (check, sizes)


def test_tied_witnesses_follow_the_scan_order():
    # {0, 3} and {1, 2} tie at the least value in both checks; {0, 3} comes
    # first in the order by size and then lexicographically.
    g = Digraph.from_pairs(4, [(0, 3), (3, 0), (1, 2), (2, 1)])
    b = CapacityVector([1, 1, 1, 1])
    tied = PackingInstance(g, b, (DemandVector([1, 0, 0, 1]), DemandVector([0, 1, 1, 0])))
    first = Feasibility(False, subset=frozenset({0, 3}))
    assert check_packing_conditions(tied) == packing_by_definition(tied) == first
    assert check_cover_conditions(g, b, 1) == cover_by_definition(g, b, 1) == first
