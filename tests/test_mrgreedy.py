import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bbranching
from bbranching import (
    CapacityVector,
    Digraph,
    MatroidAssignment,
    MatroidOracle,
    OracleInconsistencyError,
    WeightVector,
    max_weight_b_branching,
    mr_max_weight_b_branching,
    partition_oracle,
    sparsity_independent,
    uniform_oracle,
)
from bbranching import mrgreedy
from bbranching.oracle import brute_max_weight_restricted

from helpers import enumerate_b_branchings, random_digraph


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


class _EverythingIndependent(MatroidOracle):
    """Claims rank 1 yet calls every subset independent: no matroid does that."""

    def is_independent(self, subset):
        self._as_members(subset)
        return True


def test_inconsistent_oracle_raises_in_replacement_rule():
    # 0->1 and 1->0 form a tight 2-cycle; arc 2->0 then enters vertex 0,
    # whose oracle accepts it next to the selected arc 1->0.
    g = Digraph.from_pairs(3, [(0, 1), (1, 0), (2, 0)])
    b = CapacityVector([1, 1, 1])
    oracles = {
        0: _EverythingIndependent(g.in_arc_ids(0), 1),
        1: uniform_oracle(g.in_arc_ids(1), 1),
        2: uniform_oracle(g.in_arc_ids(2), 1),
    }
    with pytest.raises(OracleInconsistencyError, match="vertex 0 is saturated yet accepts"):
        mr_max_weight_b_branching(g, b, [5, 5, 1], MatroidAssignment(oracles))
    assert bbranching.OracleInconsistencyError is mrgreedy.OracleInconsistencyError


class _ForgetsArcTwo(MatroidOracle):
    """Rank 1, but arc 2 alone is independent only the first time it is
    asked about: preprocessing keeps it, and later it is a matroid loop."""

    asked = 0

    def is_independent(self, subset):
        members = self._as_members(subset)
        if members == {2}:
            self.asked += 1
            return self.asked == 1
        return len(members) <= 1


def test_inconsistent_oracle_turns_an_arc_into_a_loop():
    # The same tight 2-cycle: arc 2 -> 0 enters vertex 0 after arc 1 -> 0
    # was selected there, and its circuit holds nothing but itself.
    g = Digraph.from_pairs(3, [(0, 1), (1, 0), (2, 0)])
    b = CapacityVector([1, 1, 1])
    oracles = {
        0: _ForgetsArcTwo(g.in_arc_ids(0), 1),
        1: uniform_oracle(g.in_arc_ids(1), 1),
        2: uniform_oracle(g.in_arc_ids(2), 1),
    }
    with pytest.raises(OracleInconsistencyError, match="arc 2 became a matroid loop"):
        mr_max_weight_b_branching(g, b, [5, 5, 1], MatroidAssignment(oracles))


def test_inconsistent_oracles_raise_under_dash_O():
    # The engine raises instead of asserting, so `python -O`, which strips
    # assert statements, keeps these checks: both cases above, run there.
    tests = Path(__file__).parent
    path = [str(Path(bbranching.__file__).parents[1]), str(tests), os.environ.get("PYTHONPATH", "")]
    script = (
        "import sys, test_mrgreedy as t\n"
        "if __debug__: sys.exit('assert statements still run')\n"
        "t.test_inconsistent_oracle_raises_in_replacement_rule()\n"
        "t.test_inconsistent_oracle_turns_an_arc_into_a_loop()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        cwd=tests,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
