import random

import pytest

from bbranching import Digraph, in_arcs, induced_arcs, strong_components

from helpers import contract, random_digraph


def test_in_arcs_single_arc():
    g = Digraph.from_pairs(2, [(0, 1)])
    assert in_arcs(g, {0}, 1) == {0}
    assert in_arcs(g, {0}, 0) == frozenset()


def test_in_arcs_parallel_and_loop():
    g = Digraph.from_pairs(2, [(0, 1), (0, 1), (1, 1)])
    assert in_arcs(g, {0, 1, 2}, 1) == {0, 1, 2}


def test_in_arcs_unknown_vertex():
    g = Digraph.from_pairs(2, [(0, 1)])
    with pytest.raises(ValueError):
        in_arcs(g, {0}, 7)


def test_induced_arcs_basic():
    g = Digraph.from_pairs(3, [(0, 1), (1, 2)])
    assert induced_arcs(g, {0, 1}, {0, 1}) == {0}
    assert induced_arcs(g, {0, 1}, set()) == frozenset()
    assert induced_arcs(g, {0, 1}, {0, 1, 2}) == {0, 1}


def test_strong_components_two_cycle():
    g = Digraph.from_pairs(3, [(0, 1), (1, 0)])
    assert strong_components(g, {0, 1}) == (frozenset({0, 1}), frozenset({2}))


def test_strong_components_empty_and_path():
    g = Digraph.from_pairs(3, [(0, 1), (1, 2)])
    assert strong_components(g, set()) == (frozenset({0}), frozenset({1}), frozenset({2}))
    assert strong_components(g, {0, 1}) == (frozenset({0}), frozenset({1}), frozenset({2}))


def _reachable(g: Digraph, arcs, start: int) -> set:
    adj = {v: [] for v in g.vertices}
    for a in arcs:
        adj[g.tail(a)].append(g.head(a))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_strong_components_against_reachability_closure():
    rng = random.Random(7)
    for _ in range(150):
        g = random_digraph(rng, 8, 16, loop_rate=0.1)
        arcs = frozenset(a for a in g.arc_ids if rng.random() < 0.6)
        comps = strong_components(g, arcs)
        reach = {v: _reachable(g, arcs, v) for v in g.vertices}
        for comp in comps:
            for u in comp:
                for v in g.vertices:
                    same = v in reach[u] and u in reach[v]
                    assert same == (v in comp)


def test_contract_path_example():
    g = Digraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    new, record = contract(g, {1, 2}, {1}, {0: 1, 1: 1, 2: 1})
    assert record.new_vertex == 4
    assert set(new.vertices) == {0, 3, 4}
    assert new.endpoints(0) == (0, 4)
    assert new.endpoints(2) == (4, 3)
    assert record.entering == {0: (0, 1)}
    assert record.internal == {1}
    assert record.cheapest_internal == 1
    assert record.dropped == {1}


def test_contract_singleton_is_isomorphic():
    g = Digraph.from_pairs(3, [(0, 1), (1, 2)])
    new, record = contract(g, {1}, set(), {})
    assert set(new.vertices) == {0, 2, 3}
    assert record.entering == {0: (0, 1)}
    assert new.endpoints(0) == (0, 3)
    assert new.endpoints(1) == (3, 2)
    assert record.internal == frozenset()
    assert record.cheapest_internal is None


def test_contract_two_components_reattaches_both_ends():
    # arc 2 runs between the two merged groups: after contracting both, its
    # endpoints are the two fresh vertices.
    g = Digraph.from_pairs(4, [(0, 1), (2, 3), (1, 2), (3, 0)])
    weights = {a: 1 for a in g.arc_ids}
    g1, rec1 = contract(g, {0, 1}, set(), weights)
    g2, rec2 = contract(g1, {2, 3}, set(), weights)
    assert g2.endpoints(2) == (rec1.new_vertex, rec2.new_vertex)
    assert g2.endpoints(3) == (rec2.new_vertex, rec1.new_vertex)
    assert rec2.entering[2] == (rec1.new_vertex, 2)


def test_contract_rejects_bad_input():
    g = Digraph.from_pairs(2, [(0, 1)])
    with pytest.raises(ValueError):
        contract(g, set(), {0}, {0: 1})
    with pytest.raises(ValueError):
        contract(g, {5}, {0}, {0: 1})


def test_degree_sum_and_cut_formula():
    rng = random.Random(21)
    for _ in range(100):
        g = random_digraph(rng, 7, 14, loop_rate=0.15)
        arcs = frozenset(a for a in g.arc_ids if rng.random() < 0.5)
        degrees = {v: len(in_arcs(g, arcs, v)) for v in g.vertices}
        assert sum(degrees.values()) == len(arcs)
        subset = frozenset(v for v in g.vertices if rng.random() < 0.5)
        cut = sum(
            1 for a in arcs if g.head(a) in subset and g.tail(a) not in subset
        )
        assert cut == sum(degrees[v] for v in subset) - len(induced_arcs(g, arcs, subset))


def test_provenance_round_trip():
    rng = random.Random(33)
    for _ in range(60):
        g = random_digraph(rng, 6, 12)
        original = {a: g.endpoints(a) for a in g.arc_ids}
        merge = frozenset(rng.sample(g.vertices, rng.randint(1, g.vertex_count)))
        weights = {a: rng.randint(0, 5) for a in g.arc_ids}
        new, record = contract(g, merge, frozenset(g.arc_ids), weights)
        for arc_id, (tail, head) in record.entering.items():
            assert original[arc_id] == (tail, head)
            assert head in record.merged
            assert new.head(arc_id) == record.new_vertex
        assert len(set(record.entering)) == len(record.entering)


def test_duplicate_arc_ids_rejected():
    with pytest.raises(ValueError):
        Digraph(range(2), [(0, 0, 1), (0, 1, 0)])


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError):
        Digraph(range(2), [(0, 0, 5)])


@pytest.mark.parametrize(
    "vertices, arcs, bad",
    [
        ([0, 3], [], "vertex id 3"),
        (range(2), [(0, 0, 1), (2, 1, 0)], "arc id 2"),
        ([0, 1, 1], [], "duplicate vertex id 1"),
        ([-1, 0], [], "vertex id -1"),
        (range(2), [(-1, 0, 1)], "arc id -1"),
        (["0", "1"], [], "vertex id '0'"),
        (range(1), [(0.0, 0, 0)], "arc id 0.0"),
        (range(2), [(True, 0, 1)], "arc id True"),
    ],
)
def test_ids_must_be_exactly_zero_to_count(vertices, arcs, bad):
    with pytest.raises(ValueError, match=bad):
        Digraph(vertices, arcs)


def test_arcs_in_any_order_keep_their_ids():
    g = Digraph([1, 0], [(1, 1, 0), (2, 1, 1), (0, 0, 1)])
    assert g.vertices == range(2) and g.arc_ids == range(3)
    assert list(g.arcs()) == [(0, 0, 1), (1, 1, 0), (2, 1, 1)]
    assert g.in_arc_ids(0) == (1,) and g.in_arc_ids(1) == (0, 2)


def test_endpoints_are_handed_out_as_read_only_tuples():
    g = Digraph([1, 0], [(1, 1, 0), (0, 0, 1), (2, 1, 1)])
    assert g.tails == (0, 1, 1) and type(g.tails) is tuple
    assert g.heads == (1, 0, 1) and type(g.heads) is tuple
    assert g.entering == ((1,), (0, 2)) and type(g.entering) is tuple
    assert g.entering[1] == g.in_arc_ids(1) and type(g.entering[1]) is tuple
    with pytest.raises(AttributeError):
        g.tails = (1, 1, 1)
    with pytest.raises(AttributeError):
        g.entering = ()


def test_out_of_range_ids_never_read_other_entries():
    # Flat storage would wrap -1 around to the last vertex or arc.
    g = Digraph.from_pairs(3, [(0, 1), (1, 2)])
    for access, bad in [
        (g.in_arc_ids, -1),
        (g.in_arc_ids, 3),
        (g.tail, -1),
        (g.head, 2),
        (g.endpoints, -1),
    ]:
        with pytest.raises(ValueError, match=f"unknown .* id {bad}"):
            access(bad)
