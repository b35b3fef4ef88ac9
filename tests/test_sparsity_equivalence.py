"""The library's sparsity checks against the references in helpers: the
peel-then-Tarjan check against the component scan (strong components over
the accessors, then the induced arc count of each component), and the
slack-cut check for any arc set against the scan of all vertex sets."""

import random

from bbranching import (
    CapacityVector,
    Digraph,
    digraph,
    matroids,
    sparsity_independent,
    strong_components,
)
from bbranching.matroids import saturated_components

from helpers import (
    random_capacities,
    random_digraph,
    random_indegree_independent_set,
    reference_saturated_components,
    reference_sparsity,
    reference_strong_components,
)


def _near_saturated_set(rng: random.Random, graph: Digraph, capacities) -> frozenset:
    """An indegree-independent set that mostly fills each vertex to its
    capacity, so that saturated components are common."""
    chosen: list[int] = []
    for v in graph.vertices:
        pool = list(graph.in_arc_ids(v))
        rng.shuffle(pool)
        full = min(capacities[v], len(pool))
        chosen.extend(pool[: full if rng.random() < 0.8 else rng.randint(0, full)])
    return frozenset(chosen)


def test_saturated_components_match_the_reference():
    rng = random.Random(0x5A7)
    nonempty = 0
    for _ in range(2400):
        graph = random_digraph(rng, 7, 16, loop_rate=rng.choice((0.0, 0.15)))
        capacities = random_capacities(rng, graph, 3)
        arcs = _near_saturated_set(rng, graph, capacities)
        expected = reference_saturated_components(graph, capacities, arcs)
        assert saturated_components(graph, capacities, arcs) == expected
        nonempty += bool(expected)
    # Both outcomes are well represented.
    assert 600 < nonempty < 1800


def test_strong_components_match_the_reference_on_arbitrary_subsets():
    rng = random.Random(0x5CC)
    for _ in range(1500):
        graph = random_digraph(rng, 9, 20, loop_rate=0.1)
        arcs = frozenset(a for a in graph.arc_ids if rng.random() < rng.random())
        assert strong_components(graph, arcs) == reference_strong_components(graph, arcs)


def _multigraph(rng: random.Random, n: int, m: int) -> Digraph:
    """m random arcs on n vertices, with loops and parallel arcs."""
    pairs: list[tuple[int, int]] = []
    for _ in range(m):
        if pairs and rng.random() < 0.2:
            pairs.append(rng.choice(pairs))
        else:
            tail = rng.randrange(n)
            pairs.append((tail, tail if rng.random() < 0.1 else rng.randrange(n)))
    return Digraph.from_pairs(n, pairs)


def _breaks_a_cap(graph: Digraph, capacities, arcs) -> bool:
    indeg = [0] * graph.vertex_count
    for a in arcs:
        indeg[graph.heads[a]] += 1
    return any(map(int.__gt__, indeg, capacities))


def test_sparsity_independent_matches_the_scan_on_arbitrary_sets():
    rng = random.Random(0x5C47)
    outcomes = {(over, sparse): 0 for over in (False, True) for sparse in (False, True)}
    trials = 3000
    for _ in range(trials):
        graph = _multigraph(rng, rng.randint(1, 7), rng.randint(0, 16))
        capacities = random_capacities(rng, graph, 3)
        density = rng.random()
        arcs = frozenset(a for a in graph.arc_ids if rng.random() < density)
        sparse = reference_sparsity(graph, capacities, arcs)
        assert sparsity_independent(graph, capacities, arcs) == sparse
        outcomes[_breaks_a_cap(graph, capacities, arcs), sparse] += 1
    # Both answers occur, also among sets that break a cap, and those sets
    # are at least a third of the whole.
    assert all(outcomes.values()), outcomes
    assert 3 * (outcomes[True, False] + outcomes[True, True]) >= trials, outcomes


def test_sparsity_independent_matches_the_components_at_scale():
    # |F[X]| does not see arc directions, so reversing some arcs of an
    # indegree-independent set keeps its answer while it breaks caps.
    rng = random.Random(0x5C48)
    outcomes = set()
    for _ in range(40):
        n = rng.randint(30, 200)
        graph = _multigraph(rng, n, rng.randint(n, 3 * n))
        capacities = random_capacities(rng, graph, 3)
        pick = rng.choice((_near_saturated_set, random_indegree_independent_set))
        arcs = pick(rng, graph, capacities)
        sparse = not saturated_components(graph, capacities, arcs)
        assert sparsity_independent(graph, capacities, arcs) == sparse
        rate = rng.random()
        flipped = Digraph.from_pairs(
            n, [(h, t) if rng.random() < rate else (t, h) for t, h in zip(graph.tails, graph.heads)]
        )
        assert sparsity_independent(flipped, capacities, arcs) == sparse
        outcomes.add((sparse, _breaks_a_cap(flipped, capacities, arcs)))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}, outcomes


def test_slack_cuts_route_the_drain_once(monkeypatch):
    # Three arcs enter vertex 1 under b = 1, so 2 units drain into the sink
    # t = n + 1.  They are routed once; each vertex then augments from that
    # residual, with only its own unit left to push.  The drain is matroids'
    # own flow, and the per-vertex flows run in digraph.
    calls = []
    augment = matroids._augment

    def counted(net, source, sinks, limit):
        flow, res = augment(net, source, sinks, limit)
        calls.append((frozenset(sinks), limit, flow))
        return flow, res

    monkeypatch.setattr(matroids, "_augment", counted)
    monkeypatch.setattr(digraph, "_augment", counted)
    graph = Digraph.from_pairs(4, [(0, 1), (2, 1), (3, 1)])
    capacities = CapacityVector([1, 1, 1, 1])
    assert sparsity_independent(graph, capacities, graph.arc_ids) is True
    assert reference_sparsity(graph, capacities, graph.arc_ids) is True
    sink = graph.vertex_count + 1
    assert calls[0] == (frozenset({sink}), 2, 2)
    assert calls[1:] == [(frozenset({v, sink}), 1, 1) for v in graph.vertices]
