import random
from itertools import combinations

import pytest

from bbranching import (
    BBranching,
    CapacityVector,
    DemandVector,
    Digraph,
    IndegreeDependenceError,
    fundamental_circuit,
    indegree_independent,
    is_b_branching,
    partition_oracle,
    sparsity_independent,
    sparsity_violating_components,
    strong_components,
    uniform_oracle,
)
from bbranching.matroids import CapacityError, indegree_profile

from helpers import (
    random_capacities,
    random_digraph,
    random_indegree_independent_set,
    reference_sparsity,
)


def test_capacity_vector_validation():
    with pytest.raises(CapacityError):
        CapacityVector([1, 0])
    # A sequence of Python ints over 0..n-1 only.  A Mapping would iterate
    # as its keys, and int() would round 1.9 down.
    for bad in ({5: 1}, {0: 1, 1: 1}, [1.9, 1], [1, "2"], "12", [True, 1], {1, 2}, iter([1])):
        with pytest.raises(CapacityError):
            CapacityVector(bad)
        with pytest.raises(CapacityError):
            DemandVector(bad)
    b = CapacityVector([2, 3])
    assert b.total({0, 1}) == 5
    assert b == (2, 3) and CapacityVector(range(1, 3)) == (1, 2)
    # Indexing alone would wrap -1 round to the last vertex.
    for bad_id in (-1, 2):
        with pytest.raises(CapacityError):
            b.total({0, bad_id})


def test_demand_vector_validation():
    b = CapacityVector([1, 1])
    with pytest.raises(CapacityError):
        DemandVector([1, 1]).validate_against(b)  # equal to capacities
    with pytest.raises(CapacityError):
        DemandVector([2, 0]).validate_against(b)  # exceeds
    DemandVector([1, 0]).validate_against(b)


def test_indegree_independent_examples():
    g = Digraph.from_pairs(2, [(0, 1), (0, 1)])
    assert indegree_independent(g, CapacityVector([1, 1]), set())
    assert not indegree_independent(g, CapacityVector([1, 1]), {0, 1})
    assert indegree_independent(g, CapacityVector([1, 2]), {0, 1})


def test_violating_components_two_cycle():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    assert sparsity_violating_components(g, CapacityVector([1, 1]), {0, 1}) == [
        frozenset({0, 1})
    ]


def test_violating_components_path_empty():
    g = Digraph.from_pairs(3, [(0, 1), (1, 2)])
    assert sparsity_violating_components(g, CapacityVector([1, 1, 1]), {0, 1}) == []


def test_violating_components_capacity_two_cycle_ok():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([2, 2])
    assert sparsity_violating_components(g, b, {0, 1}) == []
    # cross-check by scanning all three nonempty vertex sets
    assert reference_sparsity(g, b, {0, 1})


def test_violating_components_doubled_triangle():
    # capacities (1,1,2); the whole vertex set is strongly connected and
    # its induced count reaches the capacity sum exactly.
    g = Digraph.from_pairs(3, [(0, 1), (1, 2), (1, 2), (2, 0)])
    b = CapacityVector([1, 1, 2])
    arcs = {0, 1, 2, 3}
    assert indegree_independent(g, b, arcs)
    assert sparsity_violating_components(g, b, arcs) == [frozenset({0, 1, 2})]
    assert not reference_sparsity(g, b, arcs)


def test_violating_components_requires_indegree_independence():
    g = Digraph.from_pairs(2, [(0, 1), (0, 1)])
    with pytest.raises(IndegreeDependenceError):
        sparsity_violating_components(g, CapacityVector([1, 1]), {0, 1})


def test_sparsity_independent_examples():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([1, 1])
    assert sparsity_independent(g, b, set())
    assert not sparsity_independent(g, b, {0, 1})
    arb = Digraph.from_pairs(4, [(0, 1), (0, 2), (2, 3)])
    assert sparsity_independent(arb, CapacityVector([1] * 4), {0, 1, 2})


def test_sparsity_of_over_cap_sets_at_any_size():
    # parallel arcs exceeding the head capacity
    g = Digraph.from_pairs(2, [(0, 1), (0, 1)])
    assert not sparsity_independent(g, CapacityVector([1, 1]), {0, 1})
    # indegree-dependent yet sparse: three arcs into a capacity-2 head
    g3 = Digraph.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
    assert sparsity_independent(g3, CapacityVector([3, 2]), {0, 1, 2})
    # Past 20 vertices, where a subset scan would stop, the answer is the same.
    big = Digraph.from_pairs(21, [(0, 1), (0, 1)])
    assert not sparsity_independent(big, CapacityVector([1] * 21), {0, 1})
    assert sparsity_independent(big, CapacityVector([1] * 21), {0})


def test_is_b_branching_examples():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([1, 1])
    assert is_b_branching(g, b, set())
    assert not is_b_branching(g, b, {0, 1})


def test_unit_capacity_matches_classical_branching():
    rng = random.Random(11)
    for _ in range(200):
        g = random_digraph(rng, 6, 12, loop_rate=0.1)
        b = CapacityVector([1] * g.vertex_count)
        arcs = frozenset(a for a in g.arc_ids if rng.random() < 0.4)
        heads = [g.head(a) for a in arcs]
        indeg_ok = all(heads.count(v) <= 1 for v in g.vertices)
        from bbranching import strong_components

        acyclic = indeg_ok and all(
            len(c) == 1 for c in strong_components(g, arcs)
        ) and not any(g.tail(a) == g.head(a) for a in arcs)
        assert is_b_branching(g, b, arcs) == (indeg_ok and acyclic)


def test_component_detection_matches_direct_subset_scan():
    rng = random.Random(13)
    for _ in range(300):
        g = random_digraph(rng, 7, 14, loop_rate=0.1)
        b = random_capacities(rng, g, 3)
        arcs = random_indegree_independent_set(rng, g, b)
        tight = sparsity_violating_components(g, b, arcs)
        assert (not tight) == reference_sparsity(g, b, arcs)
        for comp in tight:
            inside = [
                a for a in arcs if g.tail(a) in comp and g.head(a) in comp
            ]
            assert len(inside) == b.total(comp)
            # circuits: dropping any one member restores independence
            assert not reference_sparsity(g, b, inside)
            for a in inside:
                assert reference_sparsity(g, b, set(inside) - {a})


def test_down_closure():
    rng = random.Random(17)
    for _ in range(100):
        g = random_digraph(rng, 6, 10)
        b = random_capacities(rng, g, 2)
        arcs = random_indegree_independent_set(rng, g, b)
        if not is_b_branching(g, b, arcs):
            continue
        sub = frozenset(a for a in arcs if rng.random() < 0.5)
        assert is_b_branching(g, b, sub)


def test_bbranching_factory_caches_profile():
    g = Digraph.from_pairs(3, [(0, 1), (0, 2)])
    b = CapacityVector([1, 1, 1])
    bb = BBranching.of(g, b, {0, 1})
    assert bb.indegrees == {0: 0, 1: 1, 2: 1}
    with pytest.raises(ValueError):
        BBranching.of(g, b, {0, 99})


@pytest.mark.parametrize(
    "check",
    [
        lambda g, b, arcs: is_b_branching(g, b, arcs),
        lambda g, b, arcs: sparsity_independent(g, b, arcs),
        lambda g, b, arcs: indegree_independent(g, b, arcs),
        lambda g, b, arcs: sparsity_violating_components(g, b, arcs),
        lambda g, b, arcs: indegree_profile(g, arcs),
        lambda g, b, arcs: strong_components(g, arcs),
    ],
    ids=[
        "is_b_branching",
        "sparsity_independent",
        "indegree_independent",
        "sparsity_violating_components",
        "indegree_profile",
        "strong_components",
    ],
)
def test_public_subset_checks_reject_out_of_range_arc_ids(check):
    # Arc -1 must not wrap round to the last arc, nor m run off the end.
    g = Digraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    b = CapacityVector([1, 1, 1])
    for bad in ([-1], [g.arc_count], [0, -1]):
        with pytest.raises(ValueError):
            check(g, b, bad)


@pytest.mark.parametrize(
    "make",
    [
        lambda ground: uniform_oracle(ground, 2),
        lambda ground: partition_oracle(ground, [[3, 5], [9]], [1, 1]),
    ],
    ids=["uniform", "partition"],
)
def test_oracles_reject_elements_outside_the_ground_set(make):
    oracle = make([3, 5, 9])
    for bad in ([4], [3, 4], [-1], [9, 10]):
        with pytest.raises(ValueError, match="not in the ground set"):
            oracle.is_independent(bad)


def test_uniform_oracle_extremes():
    ground = [3, 5, 9]
    zero = uniform_oracle(ground, 0)
    assert zero.is_independent(())
    assert not zero.is_independent((3,))
    free = uniform_oracle(ground, 3)
    assert free.is_independent(ground)


def test_partition_oracle_examples():
    ground = [0, 1, 2]
    free = partition_oracle(ground, [[0], [1], [2]], [1, 1, 1])
    assert free.is_independent(ground)
    capped = partition_oracle(ground, [[0, 1], [2]], [1, 1])
    assert capped.is_independent((0, 2))
    assert not capped.is_independent((0, 1))
    with pytest.raises(ValueError):
        partition_oracle(ground, [[0], [1]], [1, 1])  # not a partition
    with pytest.raises(ValueError):
        partition_oracle(ground, [[0, 1], [1, 2]], [1, 1])  # overlapping


def test_fundamental_circuit_examples():
    oracle = uniform_oracle([1, 2, 3], 2)
    assert fundamental_circuit(oracle, {1, 2}, 3) == {1, 2, 3}
    free = uniform_oracle([1, 2, 3], 3)
    assert fundamental_circuit(free, {1, 2}, 3) is None
    blocks = partition_oracle([1, 2, 3], [[1, 2], [3]], [1, 1])
    assert fundamental_circuit(blocks, {1}, 2) == {1, 2}
    with pytest.raises(ValueError):
        fundamental_circuit(uniform_oracle([1, 2], 1), {1, 2}, 1)


def test_oracles_satisfy_matroid_axioms():
    # empty set independent, down-closure, exchange; tiny ground sets only
    rng = random.Random(23)
    for _ in range(40):
        ground = list(range(rng.randint(0, 6)))
        if rng.random() < 0.5:
            oracle = uniform_oracle(ground, rng.randint(0, 4))
        else:
            pool = ground[:]
            rng.shuffle(pool)
            blocks = []
            while pool:
                size = rng.randint(1, len(pool))
                blocks.append(pool[:size])
                pool = pool[size:]
            caps = [rng.randint(0, len(block)) for block in blocks]
            oracle = partition_oracle(ground, blocks, caps)
        subsets = [
            frozenset(combo)
            for size in range(len(ground) + 1)
            for combo in combinations(ground, size)
        ]
        independents = [s for s in subsets if oracle.is_independent(s)]
        assert frozenset() in independents
        for s in independents:
            for e in s:
                assert oracle.is_independent(s - {e})
        for small in independents:
            for large in independents:
                if len(small) >= len(large):
                    continue
                assert any(
                    oracle.is_independent(small | {e}) for e in large - small
                )


def test_fundamental_circuit_properties():
    rng = random.Random(19)
    for _ in range(100):
        ground = list(range(rng.randint(2, 7)))
        blocks = []
        pool = ground[:]
        rng.shuffle(pool)
        while pool:
            size = rng.randint(1, len(pool))
            blocks.append(pool[:size])
            pool = pool[size:]
        caps = [rng.randint(0, len(blk)) for blk in blocks]
        oracle = partition_oracle(ground, blocks, caps)
        independent = []
        for e in ground:
            if oracle.is_independent(independent + [e]):
                independent.append(e)
        outside = [e for e in ground if e not in independent]
        if not outside:
            continue
        extra = rng.choice(outside)
        circuit = fundamental_circuit(oracle, independent, extra)
        if circuit is None:
            assert oracle.is_independent(independent + [extra])
            continue
        assert extra in circuit
        assert not oracle.is_independent(circuit)
        for e in circuit:
            assert oracle.is_independent(circuit - {e})
