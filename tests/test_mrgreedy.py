import random

import pytest

from bbranching import (
    CapacityVector,
    Digraph,
    MatroidAssignment,
    WeightVector,
    enumerate_b_branchings,
    max_weight_b_branching,
    mr_max_weight_b_branching,
    partition_oracle,
    sparsity_independent,
    uniform_oracle,
)
from bbranching.oracle import brute_max_weight_restricted

from helpers import random_digraph


def uniform_assignment(graph, capacities):
    return MatroidAssignment(
        {v: uniform_oracle(graph.in_arc_ids(v), capacities[v]) for v in graph.vertices}
    )


def random_partition_assignment(rng, graph):
    capacities = []
    oracles = {}
    for v in graph.vertices:
        ground = list(graph.in_arc_ids(v))
        if ground and rng.random() < 0.7:
            rng.shuffle(ground)
            blocks = []
            while ground:
                size = rng.randint(1, len(ground))
                blocks.append(ground[:size])
                ground = ground[size:]
            caps = [rng.randint(0, len(block)) for block in blocks]
            if sum(caps) == 0:
                caps[0] = 1
            oracles[v] = partition_oracle(graph.in_arc_ids(v), blocks, caps)
            capacities.append(sum(caps))
        else:
            rank = rng.randint(1, 3)
            oracles[v] = uniform_oracle(graph.in_arc_ids(v), rank)
            capacities.append(rank)
    return CapacityVector(capacities), MatroidAssignment(oracles)


def test_assignment_validation():
    g = Digraph.from_pairs(2, [(0, 1)])
    b = CapacityVector([1, 1])
    with pytest.raises(ValueError):
        MatroidAssignment({0: uniform_oracle((), 1)}).validate(g, b)
    with pytest.raises(ValueError):
        MatroidAssignment(
            {0: uniform_oracle((), 1), 1: uniform_oracle((0,), 2)}
        ).validate(g, b)  # rank mismatch
    with pytest.raises(ValueError):
        MatroidAssignment(
            {0: uniform_oracle((0,), 1), 1: uniform_oracle((0,), 1)}
        ).validate(g, b)  # wrong ground at vertex 0
    MatroidAssignment({0: uniform_oracle((), 1), 1: uniform_oracle((0,), 1)}).validate(g, b)


def test_uniform_oracles_match_plain_greedy():
    rng = random.Random(501)
    for _ in range(200):
        g = random_digraph(rng, 6, 12, loop_rate=0.1)
        b = CapacityVector([rng.randint(1, 3) for _ in g.vertices])
        w = [rng.randint(0, 10) for _ in range(g.arc_count)]
        restricted = mr_max_weight_b_branching(g, b, w, uniform_assignment(g, b))
        plain, _ = max_weight_b_branching(g, b, w)
        wv = WeightVector.from_values(w)
        assert wv.value(restricted) == wv.value(plain.arcs)


def test_partition_blocks_respected():
    # two blocks with caps (1, 1): never two arcs from the same block
    g = Digraph.from_pairs(2, [(0, 1), (0, 1), (0, 1), (0, 1)])
    b = CapacityVector([1, 2])
    oracles = {
        0: uniform_oracle((), 1),
        1: partition_oracle((0, 1, 2, 3), [(0, 1), (2, 3)], [1, 1]),
    }
    result = mr_max_weight_b_branching(g, b, [9, 8, 7, 6], MatroidAssignment(oracles))
    assert result == {0, 2}
    assert len(result & {0, 1}) <= 1 and len(result & {2, 3}) <= 1


def test_partition_oracles_match_brute_force():
    rng = random.Random(503)
    for _ in range(200):
        g = random_digraph(rng, 6, 12, loop_rate=0.1)
        b, assignment = random_partition_assignment(rng, g)
        w = [rng.randint(0, 8) for _ in range(g.arc_count)]
        result = mr_max_weight_b_branching(g, b, w, assignment)
        wv = WeightVector.from_values(w)
        assert wv.value(result) == brute_max_weight_restricted(
            g, b, w, assignment.oracles
        )
        for v in g.vertices:
            mine = [a for a in g.in_arc_ids(v) if a in result]
            assert assignment.oracles[v].is_independent(mine)
        assert sparsity_independent(g, b, result)


def test_restricted_brute_force_matches_definition():
    # The restricted search prunes; the definition filters every feasible set.
    rng = random.Random(509)
    for _ in range(150):
        g = random_digraph(rng, 6, 12, loop_rate=0.1)
        b, assignment = random_partition_assignment(rng, g)
        w = [rng.randint(-3, 8) for _ in range(g.arc_count)]
        wv = WeightVector.from_values(w)
        best = max(
            wv.value(arcs)
            for arcs in enumerate_b_branchings(g, b)
            if all(
                oracle.is_independent([a for a in g.in_arc_ids(v) if a in arcs])
                for v, oracle in assignment.oracles.items()
            )
        )
        assert brute_max_weight_restricted(g, b, w, assignment.oracles) == best


def test_matroid_loop_arcs_never_selected():
    # the only entering arc sits in a cap-zero block alongside a usable one
    g = Digraph.from_pairs(2, [(0, 1), (0, 1)])
    b = CapacityVector([1, 1])
    oracles = {
        0: uniform_oracle((), 1),
        1: partition_oracle((0, 1), [(0,), (1,)], [0, 1]),
    }
    result = mr_max_weight_b_branching(g, b, [100, 1], MatroidAssignment(oracles))
    assert result == {1}
