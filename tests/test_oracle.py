import random
from fractions import Fraction
from itertools import combinations

import pytest

from bbranching import (
    CapacityVector,
    DemandVector,
    Digraph,
    PackingInstance,
    SizeGateError,
    brute_exists_packing,
    brute_max_weight,
)

from helpers import brute_min_set_function, enumerate_b_branchings, random_digraph


def test_enumerate_empty_graph():
    g = Digraph.from_pairs(1, [])
    assert enumerate_b_branchings(g, CapacityVector([1])) == [frozenset()]


def test_enumerate_two_cycle():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    assert enumerate_b_branchings(g, CapacityVector([1, 1])) == [
        frozenset(),
        frozenset({0}),
        frozenset({1}),
    ]


def test_enumerate_single_arc():
    g = Digraph.from_pairs(2, [(0, 1)])
    assert enumerate_b_branchings(g, CapacityVector([1, 1])) == [
        frozenset(),
        frozenset({0}),
    ]


def test_enumerate_gate():
    g = Digraph.from_pairs(2, [(0, 1)] * 23)
    with pytest.raises(SizeGateError, match="^23 arcs exceed the gate of 22$"):
        enumerate_b_branchings(g, CapacityVector([1, 23]))


def test_brute_min_cardinality():
    subset, value = brute_min_set_function(len, range(4), constraint=lambda s: bool(s))
    assert value == 1 and subset == {0}


def test_brute_min_zero_function_returns_minimal():
    subset, value = brute_min_set_function(lambda s: 0, range(4))
    assert value == 0 and subset == frozenset()
    constrained, _ = brute_min_set_function(
        lambda s: 0, range(4), constraint=lambda s: len(s) >= 2
    )
    assert constrained == {0, 1}


def test_brute_min_inclusion_minimality_and_second_scan():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 6)
        table = {}
        verts = list(range(n))
        for size in range(n + 1):
            for combo in combinations(verts, size):
                table[frozenset(combo)] = rng.randint(-3, 3)
        func = table.__getitem__
        subset, value = brute_min_set_function(func, verts)
        assert value == min(table.values())
        assert func(subset) == value
        # no minimizing proper subset
        for size in range(len(subset)):
            for combo in combinations(sorted(subset), size):
                assert func(frozenset(combo)) > value or frozenset(combo) == subset
        # independently coded reverse-order scan agrees on the minimum value
        reverse_min = None
        for mask in range((1 << n) - 1, -1, -1):
            members = frozenset(v for v in verts if mask >> v & 1)
            if reverse_min is None or func(members) < reverse_min:
                reverse_min = func(members)
        assert reverse_min == value


def test_brute_min_gate():
    with pytest.raises(SizeGateError, match="^21 vertices exceed the gate of 20$"):
        brute_min_set_function(len, range(21))


def test_brute_max_weight_examples():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([1, 1])
    assert brute_max_weight(g, b, [0, 0]) == 0
    assert brute_max_weight(g, b, [7, 2]) == Fraction(7)
    single = Digraph.from_pairs(2, [(0, 1)])
    assert brute_max_weight(single, CapacityVector([1, 1]), ["5/3"]) == Fraction(5, 3)


def test_brute_max_weight_gate():
    g = Digraph.from_pairs(2, [(0, 1)] * 23)
    with pytest.raises(SizeGateError):
        brute_max_weight(g, CapacityVector([1, 23]), [1] * 23)


def test_enumeration_members_are_valid_and_complete():
    from bbranching import is_b_branching

    rng = random.Random(43)
    for _ in range(40):
        g = random_digraph(rng, 5, 8, loop_rate=0.15)
        b = CapacityVector([rng.randint(1, 2) for _ in g.vertices])
        listed = enumerate_b_branchings(g, b)
        assert len(set(listed)) == len(listed)
        for subset in listed:
            assert is_b_branching(g, b, subset)
        # completeness against a direct scan of all arc subsets
        count = 0
        m = g.arc_count
        for mask in range(1 << m):
            subset = frozenset(a for a in range(m) if mask >> a & 1)
            if is_b_branching(g, b, subset):
                count += 1
        assert count == len(listed)


def test_brute_exists_packing_simple():
    g = Digraph.from_pairs(2, [(0, 1)])
    yes = PackingInstance(g, CapacityVector([1, 1]), (DemandVector([0, 1]),))
    assert brute_exists_packing(yes)
    no = PackingInstance(
        g, CapacityVector([1, 1]), (DemandVector([0, 1]), DemandVector([0, 1]))
    )
    assert not brute_exists_packing(no)
