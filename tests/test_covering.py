import random
from collections import Counter

import pytest

from bbranching import (
    CapacityVector,
    DecompositionError,
    Digraph,
    InfeasiblePackingError,
    check_cover_conditions,
    cover_by_b_branchings,
    enumerate_b_branchings,
    integer_decompose,
    is_b_branching,
)

from helpers import random_capacities, random_digraph


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


def test_peel_fallback_decomposes():
    from bbranching.covering import _peel_decomposition
    from bbranching.packing import BruteForceSfm

    g = Digraph.from_pairs(
        4, [(3, 1), (3, 3), (1, 1), (2, 2), (3, 2), (2, 0), (2, 3), (3, 3), (3, 2)]
    )
    b = CapacityVector([2, 2, 2, 1])
    vector = [1, 0, 1, 1, 0, 1, 1, 0, 2]
    parts = _peel_decomposition(g, b, 2, vector, BruteForceSfm())
    total = Counter()
    for part in parts:
        assert is_b_branching(g, b, part)
        total.update(part)
    assert all(total[a] == vector[a] for a in g.arc_ids)


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
