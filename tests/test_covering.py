import random
from collections import Counter

import pytest

from bbranching import (
    BBranching,
    CapacityVector,
    DecompositionError,
    Digraph,
    InfeasiblePackingError,
    check_cover_conditions,
    cover_by_b_branchings,
    find_disjoint_b_branchings,
    integer_decompose,
    is_b_branching,
    max_weight_b_branching,
)

from helpers import (
    enumerate_b_branchings,
    random_capacities,
    random_digraph,
    reference_saturated_components,
)


def test_cover_conditions_examples():
    empty = Digraph.from_pairs(2, [])
    assert check_cover_conditions(empty, CapacityVector([1, 1]), 1)

    cycle = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([1, 1])
    feasibility = check_cover_conditions(cycle, b, 1)
    assert not feasibility and feasibility.subset == {0, 1}
    assert check_cover_conditions(cycle, b, 2)


def test_cover_degree_witness():
    g = Digraph.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
    feasibility = check_cover_conditions(g, CapacityVector([1, 1]), 2)
    assert not feasibility and feasibility.vertex == 1


def test_cover_rejects_k_below_one():
    g = Digraph.from_pairs(1, [])
    b = CapacityVector([1])
    with pytest.raises(ValueError):
        check_cover_conditions(g, b, 0)
    with pytest.raises(ValueError):
        integer_decompose(g, b, 0, [])
    assert check_cover_conditions(g, b, 2)
    assert integer_decompose(g, b, 2, []) == [frozenset(), frozenset()]


def test_cover_single_part_when_already_feasible():
    g = Digraph.from_pairs(3, [(0, 1), (0, 2)])
    b = CapacityVector([1, 1, 1])
    parts = cover_by_b_branchings(g, b, 1)
    assert len(parts) == 1
    assert parts[0].arcs == {0, 1}


def test_cover_two_cycle_with_two_parts():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([1, 1])
    parts = cover_by_b_branchings(g, b, 2)
    assert sorted(sorted(p.arcs) for p in parts) == [[0], [1]]


def test_cover_requires_conditions():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    with pytest.raises(InfeasiblePackingError):
        cover_by_b_branchings(g, CapacityVector([1, 1]), 1)


def test_cover_partitions_random_instances():
    rng = random.Random(301)
    built = 0
    for _ in range(150):
        g = random_digraph(rng, 5, 9, loop_rate=0.1)
        b = random_capacities(rng, g, 2)
        k = rng.randint(1, 3)
        if not check_cover_conditions(g, b, k):
            continue
        parts = cover_by_b_branchings(g, b, k)
        assert len(parts) == k
        seen = Counter()
        for part in parts:
            seen.update(part.arcs)
        assert set(seen) == set(g.arc_ids)
        assert all(c == 1 for c in seen.values())
        assert sum(len(p.arcs) for p in parts) == g.arc_count
        built += 1
    assert built > 25


SMALL_COVERS = [([(0, 1)], [1, 1]), ([], [1, 2]), ([(0, 1), (1, 0), (0, 2), (2, 2)], [1, 1, 2])]


@pytest.mark.parametrize("pairs, caps", SMALL_COVERS)
def test_cover_packing_size_does_not_grow_with_k(monkeypatch, pairs, caps):
    g = Digraph.from_pairs(len(caps), pairs)
    b = CapacityVector(caps)
    built = []

    def counting(instance):
        built.append(len(instance.demands))
        return find_disjoint_b_branchings(instance)

    monkeypatch.setattr("bbranching.covering.find_disjoint_b_branchings", counting)
    parts = cover_by_b_branchings(g, b, 1000)
    assert built and all(count <= max(1, g.arc_count) for count in built)
    assert len(parts) == 1000
    seen = Counter()
    for part in parts:
        assert is_b_branching(g, b, part.arcs)
        seen.update(part.arcs)
    assert set(seen) == set(g.arc_ids) and all(c == 1 for c in seen.values())


@pytest.mark.parametrize("pairs, caps", SMALL_COVERS)
def test_cover_validates_the_empty_part_once(monkeypatch, pairs, caps):
    g = Digraph.from_pairs(len(caps), pairs)
    b = CapacityVector(caps)
    k = 10**4
    validate = BBranching.of.__func__
    calls = []

    def counting(cls, graph, capacities, arcs):
        calls.append(arcs)
        return validate(cls, graph, capacities, arcs)

    monkeypatch.setattr(BBranching, "of", classmethod(counting))
    parts = cover_by_b_branchings(g, b, k)
    assert len(calls) <= max(1, g.arc_count) + 1
    assert len(parts) == k and sum(len(part) for part in parts) == g.arc_count


def test_cover_parts_unchanged_up_to_the_arc_count():
    # k <= |A| builds the packing with k parts, so these are the parts the
    # uncapped construction gives; beyond |A| the padding comes last.
    g = Digraph.from_pairs(3, [(0, 1), (1, 0), (0, 2), (2, 1)])
    b = CapacityVector([1, 1, 1])
    for k, expected in (
        (2, [[0, 2], [1, 3]]),
        (3, [[0], [2, 3], [1]]),
        (4, [[0], [2, 3], [], [1]]),
        (6, [[0], [2, 3], [], [1], [], []]),
    ):
        assert [sorted(p.arcs) for p in cover_by_b_branchings(g, b, k)] == expected


def test_decompose_zero_vector():
    g = Digraph.from_pairs(2, [(0, 1)])
    parts = integer_decompose(g, CapacityVector([1, 1]), 3, [0])
    assert parts == [frozenset()] * 3


def test_decompose_identity():
    g = Digraph.from_pairs(3, [(0, 1), (1, 2)])
    b = CapacityVector([1, 1, 1])
    parts = integer_decompose(g, b, 1, [1, 1])
    assert parts == [frozenset({0, 1})]


def test_decompose_rejects_out_of_range():
    g = Digraph.from_pairs(2, [(0, 1)])
    with pytest.raises(DecompositionError) as info:
        integer_decompose(g, CapacityVector([1, 1]), 1, [2])
    assert info.value.witness == {"arc": 0}


def test_decompose_rejects_outside_polytope():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    with pytest.raises(DecompositionError) as info:
        integer_decompose(g, CapacityVector([1, 1]), 1, [1, 1])
    assert "X" in info.value.witness or "v" in info.value.witness


def test_decompose_decides_membership_before_copying(monkeypatch):
    # x = [k, k] on the unit 2-cycle puts 2k arcs inside X = {0, 1}, where
    # k parts hold at most k (b(X) - 1) = k.  The check reads x as arc
    # capacities, so it answers without building the 2k copies.
    import bbranching.covering as covering

    def refuse(graph, multiplicity):
        raise AssertionError(f"built {sum(multiplicity)} copies")

    monkeypatch.setattr(covering, "_multiplicity_graph", refuse)
    k = 10**6
    with pytest.raises(DecompositionError) as info:
        integer_decompose(Digraph.from_pairs(2, [(0, 1), (1, 0)]), CapacityVector([1, 1]), k, [k, k])
    assert info.value.witness == {"X": [0, 1]}


def test_decompose_repairs_duplicate_copies():
    # The multigraph cover can put both copies of one arc into the same part;
    # this pinned instance exercises the repair pass end to end.
    g = Digraph.from_pairs(
        4, [(3, 1), (3, 3), (1, 1), (2, 2), (3, 2), (2, 0), (2, 3), (3, 3), (3, 2)]
    )
    b = CapacityVector([2, 2, 2, 1])
    vector = [1, 0, 1, 1, 0, 1, 1, 0, 2]
    parts = integer_decompose(g, b, 2, vector)
    total = Counter()
    for part in parts:
        assert is_b_branching(g, b, part)
        total.update(part)
    assert all(total[a] == vector[a] for a in g.arc_ids)
    assert sum(1 for part in parts if 8 in part) == 2


@pytest.mark.parametrize("vector, most", [([1], 3), ([2], 4)])
def test_decompose_checks_do_not_grow_with_k(monkeypatch, vector, most):
    # Each packed part is checked once and the padding, all empty, once
    # more; a duplicate copy may first be tried in one other part.
    import bbranching.covering as covering

    calls = []

    def counting(graph, capacities, arcs):
        calls.append(arcs)
        return is_b_branching(graph, capacities, arcs)

    monkeypatch.setattr(covering, "is_b_branching", counting)
    k = 10**4
    parts = integer_decompose(Digraph.from_pairs(2, [(0, 1)]), CapacityVector([1, 1]), k, vector)
    assert len(calls) <= most
    assert parts == [frozenset({0})] * vector[0] + [frozenset()] * (k - vector[0])


def _assert_decomposes(g, b, k, vector, parts):
    """k parts summing to the vector, each a b-branching: indegree at most
    b, and then no strong component X inducing b(X) of its arcs (the sets
    that can break sparsity), by the reference components of helpers.py."""
    assert len(parts) == k
    assert Counter(a for part in parts for a in part) == Counter(
        {a: c for a, c in enumerate(vector) if c}
    )
    for part in parts:
        indegree = Counter(g.heads[a] for a in part)
        assert all(indegree[v] <= b[v] for v in indegree)
        assert not reference_saturated_components(g, b, frozenset(part))


def test_peel_fallback_decomposes():
    # The instance that once needed exhaustive peeling: the copy exchange
    # alone must split it, judged against the definitions, not the oracle.
    g = Digraph.from_pairs(
        4, [(3, 1), (3, 3), (1, 1), (2, 2), (3, 2), (2, 0), (2, 3), (3, 3), (3, 2)]
    )
    b = CapacityVector([2, 2, 2, 1])
    vector = [1, 0, 1, 1, 0, 1, 1, 0, 2]
    _assert_decomposes(g, b, 2, vector, integer_decompose(g, b, 2, vector))


def test_decompose_exchanges_copies_once(monkeypatch):
    # Judged as sets of original arcs, this cover's parts hide their second
    # copies; the exchange judges them on the multigraph and clears them.
    import bbranching.covering as covering

    calls = []
    exchange = covering._exchange_copies

    def counted(*args):
        calls.append(args)
        return exchange(*args)

    monkeypatch.setattr(covering, "_exchange_copies", counted)
    g = Digraph.from_pairs(2, [(0, 1), (1, 1), (1, 0), (1, 0), (1, 0), (1, 0), (1, 1)])
    b = CapacityVector([2, 3])
    vector = [3, 1, 1, 3, 1, 0, 3]
    parts = integer_decompose(g, b, 3, vector)
    assert len(calls) == 1
    _assert_decomposes(g, b, 3, vector, parts)


def test_decompose_pinned_draw_within_call_bound(monkeypatch):
    # The sum of four max-weight b-branchings drawn as in
    # test_decompose_sums_of_optima (random.Random(2), 12 to 20 vertices,
    # 2n to 4n arcs, draw 86).  Searching for a part by arc subsets did not
    # return on it within 600 s; the exchange makes 27 checks.
    import bbranching.covering as covering

    calls = []

    def bounded(*args):
        calls.append(args)
        if len(calls) > 200:
            raise RuntimeError("more than 200 feasibility checks")
        return is_b_branching(*args)

    monkeypatch.setattr(covering, "is_b_branching", bounded)
    pairs = [
        (0, 12), (11, 11), (13, 16), (3, 0), (16, 8), (18, 8), (15, 1), (3, 16), (1, 12),
        (19, 4), (3, 17), (8, 10), (0, 7), (19, 6), (1, 6), (3, 2), (2, 13), (1, 6),
        (7, 0), (18, 18), (6, 16), (7, 0), (9, 5), (17, 16), (18, 14), (12, 7), (12, 3),
        (3, 8), (14, 10), (3, 10), (11, 7), (16, 6), (7, 17), (10, 5), (7, 17), (10, 13),
        (3, 8), (10, 3), (2, 17), (13, 4), (15, 10), (15, 17), (7, 11), (7, 19), (19, 11),
        (8, 18), (12, 1), (18, 2), (6, 17), (14, 2), (5, 15), (10, 16), (0, 15), (17, 12),
        (0, 13), (14, 15), (4, 7), (18, 8), (13, 3), (4, 6), (11, 12), (17, 12),
    ]
    b = CapacityVector([2, 2, 3, 1, 2, 3, 3, 1, 3, 3, 2, 2, 2, 1, 3, 2, 3, 1, 2, 2])
    vector = [
        3, 4, 2, 3, 2, 4, 4, 3, 1, 4, 2, 2, 0, 3, 1, 3, 0, 3, 3, 3, 1, 1, 4, 3, 2, 2, 1, 3, 2,
        1, 2, 2, 1, 2, 0, 3, 1, 2, 1, 3, 3, 0, 0, 2, 4, 4, 1, 2, 0, 3, 3, 3, 0, 2, 1, 3, 0, 1,
        0, 2, 0, 2,
    ]
    g = Digraph.from_pairs(20, pairs)
    assert (g.arc_count, sum(vector)) == (62, 123)
    _assert_decomposes(g, b, 4, vector, integer_decompose(g, b, 4, vector))


def test_decompose_sums_of_optima(monkeypatch):
    # Sums of k max-weight b-branchings often make the multigraph cover put
    # two copies of one arc in a part, so the exchange has work to do.  It
    # takes at most sum(x) steps of at most max(b) + 2 checks each, and the
    # k parts plus the padding are checked once more; past that bound an
    # exchange that makes no progress fails instead of hanging.
    import bbranching.covering as covering

    duplicated, checks = [], []
    exchange = covering._exchange_copies

    def watched(copies, capacities, origin, parts):
        duplicated.append(any(len({origin[c] for c in part}) < len(part) for part in parts))
        return exchange(copies, capacities, origin, parts)

    def bounded(*args):
        checks.append(args)
        if len(checks) > bound:
            raise RuntimeError(f"more than {bound} feasibility checks")
        return is_b_branching(*args)

    monkeypatch.setattr(covering, "_exchange_copies", watched)
    monkeypatch.setattr(covering, "is_b_branching", bounded)
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(3, 7)
        m = rng.randint(n, 3 * n)
        g = Digraph.from_pairs(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        b = CapacityVector([rng.randint(1, 3) for _ in range(n)])
        k = rng.randint(2, 4)
        vector = [0] * m
        for _ in range(k):
            weights = [rng.randint(-3, 10) for _ in range(m)]
            for a in max_weight_b_branching(g, b, weights)[0].arcs:
                vector[a] += 1
        checks.clear()
        bound = sum(vector) * (max(b) + 2) + k + 1
        _assert_decomposes(g, b, k, vector, integer_decompose(g, b, k, vector))
    assert len(duplicated) == 300 and sum(duplicated) >= 50


def test_decompose_round_trip_random_sums():
    rng = random.Random(303)
    for _ in range(150):
        g = random_digraph(rng, 5, 9, loop_rate=0.1)
        if g.arc_count == 0:
            continue
        b = random_capacities(rng, g, 2)
        k = rng.randint(1, 3)
        feasible_sets = enumerate_b_branchings(g, b)
        chosen = [feasible_sets[rng.randrange(len(feasible_sets))] for _ in range(k)]
        vector = [sum(1 for c in chosen if a in c) for a in g.arc_ids]
        parts = integer_decompose(g, b, k, vector)
        assert len(parts) == k
        total = Counter()
        for part in parts:
            assert is_b_branching(g, b, part)
            total.update(part)
        assert all(total[a] == vector[a] for a in g.arc_ids)
