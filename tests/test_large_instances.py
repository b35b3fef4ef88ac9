"""Packing, cover and decomposition past the reach of a subset scan.

The instances have 25 to 40 vertices.  A feasible answer is checked from its
parts and an infeasible one from its witness, each in about O(|A|), and the
max flows behind both checks are compared with `networkx` where it is
installed.
"""

import random
from collections import Counter

import pytest

from bbranching import (
    CapacityVector,
    DecompositionError,
    DemandVector,
    Digraph,
    PackingInstance,
    check_cover_conditions,
    check_packing_conditions,
    cover_by_b_branchings,
    find_disjoint_b_branchings,
    integer_decompose,
    strong_components,
)
from bbranching.digraph import _augment, _least_cut
from bbranching.packing import _packing_network


def _acyclic_part(rng, b):
    """(tail, head) pairs in which each vertex receives at most b(v) arcs,
    all from vertices earlier in a random order: a b-branching."""
    order = rng.sample(range(len(b)), len(b))
    pairs = []
    for pos in range(1, len(order)):
        head = order[pos]
        for tail in rng.sample(order[:pos], rng.randint(0, min(b[head], pos))):
            pairs.append((tail, head))
    return pairs


def _is_b_branching(graph, b, part) -> bool:
    """At most b(v) arcs of the part enter each v, and each strong component
    X of (V, part) induces at most b(X) - 1 of them; with the first bound,
    a set X breaking the second is found among the strong components."""
    if any(count > b[v] for v, count in Counter(graph.head(a) for a in part).items()):
        return False
    component = {v: i for i, comp in enumerate(strong_components(graph, part)) for v in comp}
    induced = Counter(
        component[graph.tail(a)] for a in part if component[graph.tail(a)] == component[graph.head(a)]
    )
    caps = Counter()
    for v, i in component.items():
        caps[i] += b[v]
    return all(induced[i] <= caps[i] - 1 for i in induced)


def _planted_pack(rng, n, k):
    b = [rng.randint(1, 2) for _ in range(n)]
    pairs, demands = [], []
    for _ in range(k):
        part = _acyclic_part(rng, b)
        pairs += part
        demand = [0] * n
        for _, head in part:
            demand[head] += 1
        demands.append(DemandVector(demand))
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]
    rng.shuffle(pairs)
    return PackingInstance(Digraph.from_pairs(n, pairs), CapacityVector(b), tuple(demands))


def _cut_off(rng, instance):
    """Cut a random set X off, ask one more part to saturate it, and feed its
    members from inside it until every degree condition holds."""
    graph, b, n = instance.graph, instance.capacities, instance.graph.vertex_count
    X = set(rng.sample(range(n), rng.randint(2, 5)))
    pairs = [(t, h) for _, t, h in graph.arcs() if h not in X or t in X]
    demands = instance.demands + (DemandVector([b[v] if v in X else 0 for v in range(n)]),)
    for v in X:
        need = sum(d[v] for d in demands) - sum(1 for _, h in pairs if h == v)
        pairs += [(rng.choice(sorted(X - {v})), v)] * max(0, need)
    return PackingInstance(Digraph.from_pairs(n, pairs), b, demands)


def _dense_pair(rng, graph, b):
    """(graph, k) where {u, v} at unit capacity receives only k copies of
    u -> v and of v -> u, 2k arcs inside it, k more than k (b(X) - 1) allows,
    and y at unit capacity only k copies of u -> y, so {u, v, y} ties with
    {u, v}.  k is the least at which every degree condition holds, or 2."""
    u, v, y = rng.sample([w for w in graph.vertices if b[w] == 1], 3)
    pairs = [(t, h) for _, t, h in graph.arcs() if h not in (u, v, y)]
    k = max([2] + [-(-len(graph.in_arc_ids(w)) // b[w]) for w in graph.vertices])
    return Digraph.from_pairs(graph.vertex_count, pairs + [(u, v), (v, u), (u, y)] * k), k


def _shortfall(instance, X) -> int:
    """Arcs entering X from outside, minus the demands saturating X."""
    graph, b = instance.graph, instance.capacities
    entering = sum(1 for _, t, h in graph.arcs() if h in X and t not in X)
    cap = sum(b[v] for v in X)
    return entering - sum(1 for d in instance.demands if sum(d[v] for v in X) == cap)


def _slack(graph, b, k, X) -> int:
    """k (b(X) - 1) minus the arcs inside X, loops included."""
    return k * (sum(b[v] for v in X) - 1) - sum(1 for _, t, h in graph.arcs() if t in X and h in X)


def test_planted_packing_at_40_vertices():
    rng = random.Random(0x40)
    instance = _planted_pack(rng, 40, 3)
    graph = instance.graph
    parts = find_disjoint_b_branchings(instance).branchings
    assert sum(len(p) for p in parts) == len(frozenset().union(*parts))
    for part, demand in zip(parts, instance.demands):
        received = Counter(graph.head(a) for a in part)
        assert all(received[v] == demand[v] for v in graph.vertices)
        assert _is_b_branching(graph, instance.capacities, part)


def test_planted_cover_at_30_vertices():
    rng = random.Random(0x30)
    n, k = 30, 3
    b = [rng.randint(1, 2) for _ in range(n)]
    pairs = [pair for _ in range(k) for pair in _acyclic_part(rng, b)]
    rng.shuffle(pairs)
    graph, caps = Digraph.from_pairs(n, pairs), CapacityVector(b)
    parts = [p.arcs for p in cover_by_b_branchings(graph, caps, k)]
    assert len(parts) == k
    assert sorted(a for part in parts for a in part) == list(graph.arc_ids)
    assert all(_is_b_branching(graph, caps, part) for part in parts)


def test_planted_decomposition_at_25_vertices():
    rng = random.Random(0x25)
    n, k = 25, 3
    b = [rng.randint(1, 2) for _ in range(n)]
    copies = Counter(pair for _ in range(k) for pair in _acyclic_part(rng, b))
    pairs = sorted(copies)
    graph, caps = Digraph.from_pairs(n, pairs), CapacityVector(b)
    x = [copies[pair] for pair in pairs]
    parts = integer_decompose(graph, caps, k, x)
    assert len(parts) == k
    assert Counter(a for part in parts for a in part) == Counter(
        {a: c for a, c in enumerate(x) if c}
    )
    assert all(_is_b_branching(graph, caps, part) for part in parts)


def test_infeasible_witnesses_violate_their_conditions():
    rng = random.Random(0x1F)
    for trial in range(6):
        n = 30 + trial
        instance = _planted_pack(rng, n, 2)
        graph, b = instance.graph, instance.capacities
        cut_off = _cut_off(rng, instance)
        got = check_packing_conditions(cut_off)
        assert got.vertex is None and _shortfall(cut_off, got.subset) < 0

        dense, k = _dense_pair(rng, graph, b)
        got = check_cover_conditions(dense, b, k)
        assert got.vertex is None and _slack(dense, b, k, got.subset) < 0
        with pytest.raises(DecompositionError) as info:
            integer_decompose(dense, b, k, [1] * dense.arc_count)
        assert info.value.witness == got.witness()


def _infinite(arcs) -> int:
    return sum(capacity for _, _, capacity in arcs) + 1


def _networkx_lambda(nx, arcs, sinks):
    """λ(s, sinks) on the network given as (tail, head, capacity) triples,
    parallel arcs adding up."""
    net = nx.DiGraph()
    for tail, head, capacity in arcs:
        if net.has_edge(tail, head):
            net[tail][head]["capacity"] += capacity
        else:
            net.add_edge(tail, head, capacity=capacity)
    for sink in sinks:
        net.add_edge(sink, "t", capacity=_infinite(arcs))
    return nx.maximum_flow_value(net, "s", "t") if "s" in net and "t" in net else 0


def _packing_arcs(instance):
    """The packing network from its definition: s feeds one node per demand
    with a unit, which feeds each vertex where the demand is below b."""
    graph, b, k = instance.graph, instance.capacities, instance.k
    arcs = [(t, h, 1) for _, t, h in graph.arcs() if t != h]
    for i, d in enumerate(instance.demands):
        arcs.append(("s", ("d", i), 1))
        arcs += [(("d", i), v, k + 1) for v in graph.vertices if d[v] < b[v]]
    return arcs


def _cover_arcs(graph, b, k):
    """The cover network: s feeds v with k b(v) - indeg(v), loops dropped."""
    arcs = [(t, h, 1) for _, t, h in graph.arcs() if t != h]
    return arcs + [("s", v, k * b[v] - len(graph.in_arc_ids(v))) for v in graph.vertices]


def _is_least(nx, arcs, v, X, lam) -> bool:
    """Whether moving any member of X but v to the source side raises
    λ(s, v) above `lam`: every minimum cut into v then holds X."""
    forced = [arcs + [("s", u, _infinite(arcs))] for u in X - {v}]
    return all(_networkx_lambda(nx, more, [v]) > lam for more in forced)


def _check_against_networkx(nx, arcs, vertices, k, got, value):
    """`got` is feasible iff k units reach every vertex; else its set has
    the least value, which is λ(s, v) - k for each member v, and it is the
    least minimum cut into each of them."""
    lam = {v: _networkx_lambda(nx, arcs, [v]) for v in vertices}
    if got:
        assert min(lam.values(), default=k) >= k
        return
    X = got.subset
    assert value(X) == min(lam.values()) - k
    assert all(lam[v] == min(lam.values()) and _is_least(nx, arcs, v, X, lam[v]) for v in X)


def test_flows_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(0x4E)
    verdicts = Counter()
    for trial in range(6):
        instance = _planted_pack(rng, 25, 2)
        if trial % 2:
            instance = _cut_off(rng, instance)
        graph, b, k = instance.graph, instance.capacities, instance.k
        arcs = _packing_arcs(instance)

        # λ(s, v) on the library's packing network, and on a few vertices
        # the least minimum cut that comes with it.
        net = _packing_network(graph, b, graph.arc_ids, instance.demands)
        sample = rng.sample(range(25), 4)
        for v in graph.vertices:
            flow, res = _augment(net, graph.vertex_count, {v}, _infinite(arcs))
            cut = _least_cut(res, graph.vertex_count, (v,))
            assert flow == _networkx_lambda(nx, arcs, [v])
            if v in sample:
                assert v in cut and _shortfall(instance, cut) + k == flow
                assert _is_least(nx, arcs, v, cut, flow)

        got = check_packing_conditions(instance)
        assert got.vertex is None
        _check_against_networkx(nx, arcs, graph.vertices, k, got, lambda X: _shortfall(instance, X))
        verdicts["pack", bool(got)] += 1

        # The least k that passes every degree condition, and one more; a
        # dense pair where the packing was cut off.
        k = max(-(-len(graph.in_arc_ids(v)) // b[v]) for v in graph.vertices) + 1
        if trial % 2:
            graph, k = _dense_pair(rng, graph, b)
        got = check_cover_conditions(graph, b, k)
        assert got.vertex is None
        _check_against_networkx(
            nx, _cover_arcs(graph, b, k), graph.vertices, k, got, lambda X: _slack(graph, b, k, X)
        )
        verdicts["cover", bool(got)] += 1
    assert len(verdicts) == 4, verdicts
