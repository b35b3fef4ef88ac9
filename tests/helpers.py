"""Shared random-instance generators and the test-only reference
implementations (the enumeration of every b-branching and the set-function
minimizer, sparsity scan and check, certificate verifier, vertex-set
contraction, phase engine, dual replay, and the subset-scan packing and
cover checks and construction)
for the test suite."""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping, Optional

from bbranching import (
    CapacityVector,
    CertificateCheck,
    DemandVector,
    Digraph,
    DualCertificate,
    Feasibility,
    InfeasiblePackingError,
    OracleInconsistencyError,
    PackingInstance,
    PackingResult,
    WeightVector,
    fundamental_circuit,
    is_b_branching,
    sparsity_violating_components,
)
from bbranching.digraph import _check_subset
from bbranching.matroids import indegree_profile
from bbranching.oracle import _check_arcs, _check_vertices
from bbranching.packing import _demand_count


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


def count_flows(monkeypatch, *modules) -> list:
    """A list of the sink set of every max flow run from now on through the
    `_augment` binding of any of `modules`, in call order."""
    sinks_seen = []
    for module in modules:

        def counted(net, source, sinks, limit, augment=module._augment):
            sinks_seen.append(frozenset(sinks))
            return augment(net, source, sinks, limit)

        monkeypatch.setattr(module, "_augment", counted)
    return sinks_seen


def planted_parts(rng: random.Random, n: int, k: int) -> tuple[CapacityVector, list, list]:
    """Unit capacities with n // 4 vertices of capacity 2, and k feasible
    parts, each acyclic along its own random vertex order: every vertex but
    the first receives b(v) arcs from earlier ones.  Returns (b, arc pairs
    of all parts in shuffled order, each part's indegrees)."""
    b = [1] * n
    for v in rng.sample(range(n), n // 4):
        b[v] = 2
    pairs, indegrees = [], []
    for _ in range(k):
        order = rng.sample(range(n), n)
        indegree = [0] * n
        for pos in range(1, n):
            head = order[pos]
            pairs += [(order[rng.randrange(pos)], head) for _ in range(b[head])]
            indegree[head] = b[head]
        indegrees.append(indegree)
    rng.shuffle(pairs)
    return CapacityVector(b), pairs, indegrees


def planted_packing_instance(rng: random.Random, n: int, k: int) -> PackingInstance:
    """k planted disjoint parts plus n // 2 noise arcs; the demands are the
    parts' indegrees, so the instance is feasible."""
    b, pairs, indegrees = planted_parts(rng, n, k)
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]
    rng.shuffle(pairs)
    demands = tuple(map(DemandVector, indegrees))
    return PackingInstance(Digraph.from_pairs(n, pairs), b, demands)


def random_indegree_independent_set(rng: random.Random, graph: Digraph, capacities: CapacityVector) -> frozenset:
    """Random arc subset respecting every vertex capacity."""
    chosen: list[int] = []
    for v in graph.vertices:
        pool = list(graph.in_arc_ids(v))
        rng.shuffle(pool)
        take = rng.randint(0, min(capacities[v], len(pool)))
        chosen.extend(pool[:take])
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# Exhaustive scans: every feasible arc set, the minimum of a set function
# over every vertex set, and sparsity by a scan of every vertex set.  The
# first two raise `SizeGateError` past the gates of `bbranching.oracle`.


def enumerate_b_branchings(graph: Digraph, capacities: CapacityVector) -> list[frozenset]:
    """Every feasible arc set, sorted by (size, sorted arc ids)."""
    _check_arcs(graph.arc_count)
    found: list[frozenset] = []
    arcs = graph.arc_ids

    def extend(idx: int, chosen: list[int], degrees: dict) -> None:
        if idx == len(arcs):
            subset = frozenset(chosen)
            if not sparsity_violating_components(graph, capacities, subset):
                found.append(subset)
            return
        extend(idx + 1, chosen, degrees)
        a = arcs[idx]
        head = graph.head(a)
        if degrees.get(head, 0) < capacities[head]:
            degrees[head] = degrees.get(head, 0) + 1
            chosen.append(a)
            extend(idx + 1, chosen, degrees)
            chosen.pop()
            degrees[head] -= 1

    extend(0, [], {})
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def brute_min_set_function(
    func: Callable[[frozenset], int],
    vertices: Iterable[int],
    constraint: Optional[Callable[[frozenset], bool]] = None,
) -> tuple[frozenset, int]:
    """Global minimum of a set function over the (constrained) subset lattice.

    Returns an inclusionwise-minimal minimizer: scanning by cardinality and
    then lexicographic vertex order means the reported set cannot contain a
    smaller minimizing subset.
    """
    verts = sorted(vertices)
    _check_vertices(len(verts))
    best_key = None
    best_set = None
    for size in range(len(verts) + 1):
        for combo in combinations(verts, size):
            subset = frozenset(combo)
            if constraint is not None and not constraint(subset):
                continue
            value = func(subset)
            key = (value, size, combo)
            if best_key is None or key < best_key:
                best_key = key
                best_set = subset
    if best_set is None:
        raise ValueError("no subset satisfies the constraints")
    return best_set, best_key[0]


def reference_sparsity(graph: Digraph, capacities, arcs: Iterable[int]) -> bool:
    """Whether |F[X]| <= b(X) - 1 for every nonempty vertex set X, by a scan
    of all 2^n - 1 of them (vertex sets as bitmasks) for any arc set F."""
    masks = [(1 << graph.tail(a)) | (1 << graph.head(a)) for a in arcs]
    for inside in range(1, 1 << graph.vertex_count):
        bound = sum(c for v, c in enumerate(capacities) if inside >> v & 1) - 1
        if sum(1 for mask in masks if mask & inside == mask) > bound:
            return False
    return True


# ---------------------------------------------------------------------------
# Reference sparsity check: strong components over the `tail`/`head`
# accessors, then the induced arc count of every component.  It reads a
# graph through `vertices`, `arc_ids`, `tail` and `head` only, so it also
# runs on `SparseGraph`.


def reference_strong_components(graph: Digraph, arcs: Iterable[int]) -> tuple[frozenset, ...]:
    """Strong components of (V, F) for the arc subset F.

    Returns a partition of the vertex set, sorted by minimum member id.
    Iterative Tarjan, so deep graphs do not hit the recursion limit.  Reads
    `graph` only through `vertices`, `arc_ids`, `tail` and `head`.
    """
    subset = _check_subset(graph, arcs)
    succ: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for a in subset:
        succ[graph.tail(a)].append(graph.head(a))

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[frozenset] = []
    counter = 0

    for root in graph.vertices:
        if root in index:
            continue
        # Explicit DFS stack of (vertex, iterator position).
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            children = succ[v]
            while pos < len(children):
                w = children[pos]
                pos += 1
                if w not in index:
                    work.append((v, pos))
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return tuple(sorted(components, key=min))


def reference_saturated_components(
    graph: Digraph, caps: Mapping[int, int], arcs: frozenset
) -> list[frozenset]:
    """Strong components X of (V, F) with |F[X]| = b(X), for `caps` indexable
    by vertex.  Unchecked: for indegree-independent F these are exactly the
    sparsity-violating components.  Sorted by minimum vertex id."""
    comps = reference_strong_components(graph, arcs)
    component_of: dict[int, int] = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            component_of[v] = idx
    induced_counts = [0] * len(comps)
    for a in arcs:
        ct = component_of[graph.tail(a)]
        if ct == component_of[graph.head(a)]:
            induced_counts[ct] += 1
    return [
        comp
        for idx, comp in enumerate(comps)
        if induced_counts[idx] == sum(caps[v] for v in comp)
    ]


def reference_verify(graph, capacities, weights, arcs, certificate) -> CertificateCheck:
    """Test-only oracle for `verify_certificate`: the same checks in the same
    order, summing every positive set potential for every arc in `Fraction`s
    (|A| * |p_sets| membership tests)."""
    capacities.check_domain(graph)
    wv = WeightVector.coerce(weights, graph.arc_count)
    subset = frozenset(arcs)

    if not subset.issubset(graph.arc_ids):
        return CertificateCheck(False, "unknown-arc-ids")
    profile = indegree_profile(graph, subset)
    if any(profile[v] > capacities[v] for v in graph.vertices):
        return CertificateCheck(False, "primal-indegree-violated")
    if reference_saturated_components(graph, capacities, subset):
        return CertificateCheck(False, "primal-sparsity-violated")

    p_vertex = certificate.p_vertex
    if set(p_vertex) != set(graph.vertices):
        return CertificateCheck(False, "vertex-potential-domain")
    if any(p < 0 for p in p_vertex.values()):
        return CertificateCheck(False, "vertex-potential-negative")
    for members, potential in certificate.p_sets:
        if not members or not members.issubset(graph.vertices):
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


# ---------------------------------------------------------------------------
# Reference greedy: the textbook phase loop, kept as the test oracle for the
# incremental engine and its dual replay.  Every phase reselects every vertex,
# runs strong components on the whole working graph and rebuilds it through
# `contract`; the replay re-ranks each head's pool at every contraction.


class SparseGraph:
    """`Digraph`'s read API over arbitrary distinct ids, for the reference.

    A `Digraph` owns exactly the vertex ids 0..n-1 and arc ids 0..m-1.  The
    reference's working graphs keep the original arc ids after dropping
    arcs, and each contraction adds a fresh vertex id, so they live here.
    """

    def __init__(self, vertices: Iterable[int], arcs: Iterable[tuple[int, int, int]]):
        self.vertices = tuple(sorted(set(vertices)))
        self._ends: dict[int, tuple[int, int]] = {}
        self._in: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a, tail, head in sorted(arcs):
            if a in self._ends or tail not in self._in or head not in self._in:
                raise ValueError(f"duplicate id or unknown endpoint in arc {a}=({tail},{head})")
            self._ends[a] = (tail, head)
            self._in[head].append(a)
        self.arc_ids = tuple(self._ends)

    def tail(self, a: int) -> int:
        return self._ends[a][0]

    def head(self, a: int) -> int:
        return self._ends[a][1]

    def endpoints(self, a: int) -> tuple[int, int]:
        return self._ends[a]

    def arcs(self):
        return ((a, tail, head) for a, (tail, head) in self._ends.items())

    def in_arc_ids(self, v: int) -> tuple[int, ...]:
        return tuple(self._in[v])


@dataclass(frozen=True)
class ContractionRecord:
    """Everything needed to undo one contraction.

    `entering` maps each surviving reattached arc (an arc whose head moved to
    the new vertex) to its pre-contraction (tail, head); since arc ids are
    stable this is the arc-provenance map, trivially injective.  `internal`
    is the selected-arc set induced by the merged vertices at contraction
    time, `cheapest_internal` its minimum-weight member, and `dropped` all
    arcs removed from the graph.
    """

    merged: frozenset
    new_vertex: int
    entering: Mapping[int, tuple[int, int]]
    internal: frozenset
    cheapest_internal: Optional[int]
    dropped: frozenset


def contract(
    graph,
    merge: Iterable[int],
    arcs: Iterable[int],
    weights: Mapping[int, object],
) -> tuple[SparseGraph, ContractionRecord]:
    """Contract the vertex set `merge` into one fresh vertex.

    Arcs inside the merged set are removed; arcs entering it are reattached to
    the new vertex and recorded in the provenance map; arcs leaving it keep
    their heads and get the new vertex as tail.  The fresh vertex id is the
    smallest integer above every existing id, so repeated contractions are
    reproducible.  `arcs` is the currently selected subset F: its induced part
    and minimum-weight member (ties to the smaller id) go into the record.
    """
    inside = frozenset(merge)
    if not inside:
        raise ValueError("cannot contract an empty vertex set")
    bad = inside.difference(graph.vertices)
    if bad:
        raise ValueError(f"unknown vertex ids: {sorted(bad)}")
    selected = _check_subset(graph, arcs)

    new_vertex = max(graph.vertices) + 1
    new_vertices = [v for v in graph.vertices if v not in inside]
    new_vertices.append(new_vertex)

    new_arcs: list[tuple[int, int, int]] = []
    entering: dict[int, tuple[int, int]] = {}
    dropped: list[int] = []
    for a, tail, head in graph.arcs():
        t_in = tail in inside
        h_in = head in inside
        if t_in and h_in:
            dropped.append(a)
        elif h_in:
            entering[a] = (tail, head)
            new_arcs.append((a, tail, new_vertex))
        elif t_in:
            new_arcs.append((a, new_vertex, head))
        else:
            new_arcs.append((a, tail, head))

    internal = selected & frozenset(dropped)
    cheapest = None
    if internal:
        cheapest = min(internal, key=lambda a: (weights[a], a))
    record = ContractionRecord(
        merged=inside,
        new_vertex=new_vertex,
        entering=entering,
        internal=internal,
        cheapest_internal=cheapest,
        dropped=frozenset(dropped),
    )
    return SparseGraph(new_vertices, new_arcs), record


def _reference_select(graph, caps, wnum, oracles) -> frozenset:
    """Per vertex, the matroid greedy over the positive entering arcs."""
    chosen = []
    for v in graph.vertices:
        cap = caps[v]
        cand = [a for a in graph.in_arc_ids(v) if wnum[a] > 0]
        oracle = oracles.get(v)
        if oracle is not None or len(cand) > cap:
            cand.sort(key=lambda a: (-wnum[a], a))
        if oracle is None:
            chosen.extend(cand[:cap])
            continue
        picked = []
        for a in cand:
            if len(picked) >= cap:
                break
            if oracle.is_independent((*picked, a)):
                picked.append(a)
        chosen.extend(picked)
    return frozenset(chosen)


def _reference_replacements(graph, selected, wnum, entering, oracles) -> dict:
    """Per arc entering a tight component, the cheapest selected arc into its
    head (capacity rule) or the cheapest other member of its fundamental
    circuit in the head's matroid; ties to the smaller id."""
    alpha = {}
    for a in entering:
        y = graph.head(a)
        oracle = oracles.get(y)
        base = [f for f in graph.in_arc_ids(y) if f in selected]
        if oracle is None:
            alpha[a] = min(base, key=lambda f: (wnum[f], f))
            continue
        circuit = fundamental_circuit(oracle, base, a)
        if circuit is None:
            raise OracleInconsistencyError(f"vertex {y} is saturated yet accepts another arc")
        pool = circuit - {a}
        if not pool:
            raise OracleInconsistencyError(f"arc {a} became a matroid loop after preprocessing")
        alpha[a] = min(pool, key=lambda f: (wnum[f], f))
    return alpha


def _reference_phases(graph, caps, wnum, oracles):
    """(solution, history): one list of (record, replacement, anchor weight)
    per phase, the last one empty.  `caps` and `wnum` are updated in place."""
    history = []
    while True:
        selected = _reference_select(graph, caps, wnum, oracles)
        tight = reference_saturated_components(graph, caps, selected)
        if not tight:
            history.append([])
            break
        steps = []
        for component in tight:
            current = selected.intersection(graph.arc_ids)
            entering = [
                a
                for v in sorted(component)
                for a in graph.in_arc_ids(v)
                if graph.tail(a) not in component
            ]
            alpha = _reference_replacements(graph, current, wnum, entering, oracles)
            graph, record = contract(graph, component, current, wnum)
            anchor_weight = wnum[record.cheapest_internal]
            for a in record.entering:
                wnum[a] = wnum[a] - wnum[alpha[a]] + anchor_weight
            for a in record.dropped:
                del wnum[a]
            for v in component:
                del caps[v]
            caps[record.new_vertex] = 1
            steps.append((record, alpha, anchor_weight))
        history.append(steps)

    final = set(selected)
    for steps in reversed(history):
        for record, alpha, _ in reversed(steps):
            incoming = [a for a in final if a in record.entering]
            if len(incoming) > 1:
                raise AssertionError("more than one selected arc enters a contracted vertex")
            if incoming:
                final |= record.internal - {alpha[incoming[0]]}
            else:
                final |= record.internal - {record.cheapest_internal}
    return frozenset(final), history


def _reference_dual(history, graph, capacities, wv) -> DualCertificate:
    """Running modified weights over the original arcs: every contracted
    component, expanded back to original vertices, charges its potential to
    all arcs it encloses, and each going rate re-ranks its head's pool."""
    den = wv.denominator
    charged = list(wv.numerators)
    pool = {v: [a for a in graph.in_arc_ids(v) if wv.numerators[a] >= 0] for v in graph.vertices}

    def kth_largest(values, k):
        if len(values) < k:
            return 0
        values.sort(reverse=True)
        return values[k - 1]

    expansion, enclosed, sets = {}, {}, []
    for steps in history:
        for record, _, anchor_weight in steps:
            members = frozenset()
            for u in record.merged:
                members |= expansion.get(u, frozenset((u,)))
            inside = set(record.dropped)
            for u in record.merged:
                inside |= enclosed.get(u, frozenset())
            going_rate = {}
            candidates = []
            for a in sorted(record.entering):
                y = graph.head(a)
                if y not in going_rate:
                    going_rate[y] = kth_largest([charged[e] for e in pool[y]], capacities[y])
                candidates.append(going_rate[y] - charged[a])
            candidates.append(anchor_weight)
            potential = min(candidates)
            if potential:
                for e in inside:
                    charged[e] -= potential
            expansion[record.new_vertex] = members
            enclosed[record.new_vertex] = frozenset(inside)
            if potential > 0:
                sets.append((members, potential, frozenset(inside)))

    p_vertex = {
        v: max(0, kth_largest([charged[e] for e in pool[v]], capacities[v])) for v in graph.vertices
    }
    charge = {}
    for _, potential, inside in sets:
        for e in inside:
            charge[e] = charge.get(e, 0) + potential
    q = {}
    for a in graph.arc_ids:
        slack = wv.numerators[a] - p_vertex[graph.head(a)] - charge.get(a, 0)
        if slack > 0:
            q[a] = slack
    objective = (
        sum(capacities[v] * p_vertex[v] for v in graph.vertices)
        + sum((capacities.total(members) - 1) * pot for members, pot, _ in sets)
        + sum(q.values())
    )
    return DualCertificate(
        p_vertex={v: Fraction(p_vertex[v], den) for v in graph.vertices},
        p_sets=tuple(
            (members, Fraction(pot, den))
            for members, pot, _ in sorted(
                sets, key=lambda item: (min(item[0]), len(item[0]), sorted(item[0]))
            )
        ),
        q={a: Fraction(n, den) for a, n in sorted(q.items())},
        objective=Fraction(objective, den),
    )


def reference_run(graph, capacities, weights, oracles=None):
    """`(arcs, history)` of the textbook phase loop, as `_reference_phases`
    returns them, after the optimizers' preprocessing: negative arcs, and
    with a vertex -> matroid oracle map the loops of each head's matroid,
    are dropped up front."""
    nums = WeightVector.coerce(weights, graph.arc_count).numerators
    kept = [
        (a, t, h)
        for a, t, h in graph.arcs()
        if nums[a] >= 0 and (oracles is None or oracles[h].is_independent((a,)))
    ]
    work = SparseGraph(graph.vertices, kept)
    wnum = {a: nums[a] for a, _, _ in kept}
    return _reference_phases(work, dict(enumerate(capacities)), wnum, oracles or {})


def reference_max_weight(graph, capacities, weights, oracles=None):
    """Test-only oracle for the optimizers, running the textbook phase loop.

    Without `oracles`: `(arcs, certificate)` as `max_weight_b_branching`
    computes them.  With a vertex -> matroid oracle map: the arc set of
    `mr_max_weight_b_branching`."""
    final, history = reference_run(graph, capacities, weights, oracles)
    if oracles is not None:
        return final
    wv = WeightVector.coerce(weights, graph.arc_count)
    return final, _reference_dual(history, graph, capacities, wv)


# ---------------------------------------------------------------------------
# The subset-scan packing and cover checks and packing construction: the
# library's flow code must report the same witnesses and build the same parts.


def _reference_shortfall(graph, capacities, alive, demands, subset) -> int:
    """Arcs of `alive` entering the vertex set from outside (loops excluded),
    minus the demands saturating it; the cut condition says it is never negative."""
    cut = 0
    for v in subset:
        for a in graph.in_arc_ids(v):
            if a in alive and graph.tail(a) not in subset:
                cut += 1
    return cut - _demand_count(capacities, demands, subset)


def reference_packing_conditions(graph, capacities, alive, demands) -> Feasibility:
    """Degree condition per vertex, then the cut condition via one subset scan."""
    for v in graph.vertices:
        if sum(1 for a in graph.in_arc_ids(v) if a in alive) < sum(d[v] for d in demands):
            return Feasibility(False, vertex=v)
    if graph.vertex_count == 0:
        return Feasibility(True)
    shortfall = functools.partial(_reference_shortfall, graph, capacities, alive, demands)
    witness, value = brute_min_set_function(shortfall, graph.vertices)
    if value < 0:
        return Feasibility(False, subset=witness)
    return Feasibility(True)


def reference_check_packing(instance: PackingInstance) -> Feasibility:
    graph = instance.graph
    demands = [dict(enumerate(d)) for d in instance.demands]
    return reference_packing_conditions(
        graph, instance.capacities, frozenset(graph.arc_ids), demands
    )


def reference_cover_conditions(graph, capacities, k: int) -> Feasibility:
    """`check_cover_conditions` by a scan of every nonempty vertex set."""
    if k < 1:
        raise ValueError("k must be at least 1")
    capacities.check_domain(graph)
    for v in graph.vertices:
        if len(graph.in_arc_ids(v)) > k * capacities[v]:
            return Feasibility(False, vertex=v)
    if graph.vertex_count == 0:
        return Feasibility(True)

    def slack(subset: frozenset) -> int:
        induced = sum(
            1
            for a in graph.arc_ids
            if graph.tail(a) in subset and graph.head(a) in subset
        )
        return k * (capacities.total(subset) - 1) - induced

    witness, value = brute_min_set_function(slack, graph.vertices, constraint=lambda s: bool(s))
    if value < 0:
        return Feasibility(False, subset=witness)
    return Feasibility(True)


def reference_disjoint_b_branchings(instance: PackingInstance) -> PackingResult:
    """`find_disjoint_b_branchings` with each tight set found by a subset scan
    and each commit re-checked by another."""
    feasibility = reference_check_packing(instance)
    if not feasibility:
        raise InfeasiblePackingError(feasibility)

    graph = instance.graph
    capacities = instance.capacities
    alive = set(graph.arc_ids)
    demands = [dict(enumerate(d)) for d in instance.demands]
    parts: list[set[int]] = [set() for _ in demands]
    pointer = 0
    k = len(demands)

    while True:
        active_index = None
        for offset in range(k):
            i = (pointer + offset) % k
            if any(demands[i].values()):
                active_index = i
                break
        if active_index is None:
            break
        pointer = (active_index + 1) % k
        active = demands[active_index]

        zero = frozenset(v for v in graph.vertices if active[v] == 0)
        full = frozenset(v for v in graph.vertices if active[v] == capacities[v])
        partial = frozenset(graph.vertices) - zero - full

        def frontier(subset: frozenset) -> bool:
            return bool(subset & (zero | partial)) and bool(subset - zero)

        shortfall = functools.partial(
            _reference_shortfall, graph, capacities, frozenset(alive), demands
        )
        tight, value = brute_min_set_function(shortfall, graph.vertices, constraint=frontier)
        if value != 0:
            raise AssertionError(
                "feasible instance must have a tight set (the whole vertex set qualifies)"
            )

        sources = tight & (zero | partial)
        targets = tight & (partial | full)
        arc = min(
            (
                a
                for a in alive
                if graph.tail(a) in sources and graph.head(a) in targets
            ),
            default=None,
        )
        if arc is None:
            raise AssertionError("a transferable arc must exist inside the tight set")

        parts[active_index].add(arc)
        alive.discard(arc)
        active[graph.head(arc)] -= 1
        if not reference_packing_conditions(graph, capacities, frozenset(alive), demands):
            raise AssertionError("committing an arc must preserve the packing conditions")

    branchings = tuple(frozenset(part) for part in parts)
    for demand, part in zip(instance.demands, branchings):
        profile = indegree_profile(graph, part)
        if any(profile[v] != demand[v] for v in graph.vertices):
            raise AssertionError("indegree mismatch")
        if not is_b_branching(graph, capacities, part):
            raise AssertionError("constructed part is not feasible")
    return PackingResult(branchings)
