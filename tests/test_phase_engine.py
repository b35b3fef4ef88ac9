"""The incremental phase engine and its dual replay against the textbook
reference in helpers.py, plus deterministic counts of the work a run does."""

import random
from heapq import heappop

import pytest

from bbranching import (
    CapacityVector,
    Digraph,
    MatroidAssignment,
    max_weight_b_branching,
    mr_max_weight_b_branching,
    partition_oracle,
    uniform_oracle,
    verify_certificate,
)
from bbranching import mrgreedy, phases
from bbranching.greedy import WeightVector, _run_phases
from bbranching.matroids import PartitionOracle

from helpers import reference_max_weight


def random_instance(rng: random.Random):
    """Up to 12 vertices and 36 arcs, b in [1, 3], loops and parallel arcs,
    integral, narrow or "num/den" weights, negative ones included."""
    n = rng.randint(1, 12)
    pairs = []
    for _ in range(rng.randint(0, 36)):
        tail = rng.randrange(n)
        pairs.append((tail, tail if rng.random() < 0.1 else rng.randrange(n)))
    pairs += pairs[: rng.randint(0, 3)]
    graph = Digraph.from_pairs(n, pairs)
    capacities = CapacityVector([rng.randint(1, 3) for _ in range(n)])
    kind = rng.randrange(3)
    if kind == 0:
        weights = [rng.randint(-5, 20) for _ in pairs]
    elif kind == 1:
        weights = [rng.randint(1, 3) for _ in pairs]
    else:
        weights = [f"{rng.randint(-20, 60)}/{rng.choice((1, 2, 3, 4, 6, 7))}" for _ in pairs]
    return graph, capacities, weights


def contraction_chain(n: int = 60, noise: int = 300, seed: int = 60):
    """Unit capacities where every phase contracts exactly one 2-cycle: the
    spine i -> i+1 outweighs everything, and the back arcs k -> 0 outweigh
    every noise arc and fall with k, so phase j closes {blob, j}."""
    rng = random.Random(seed)
    pairs = [(i, i + 1) for i in range(n - 1)]
    weights = [10**6] * (n - 1)
    for k in range(1, n):
        pairs.append((k, 0))
        weights.append(2000 + 10 * (n - k))
    for _ in range(noise):
        pairs.append((rng.randrange(n), rng.randrange(n)))
        weights.append(rng.randint(0, 1000))
    return Digraph.from_pairs(n, pairs), CapacityVector([1] * n), weights


def assert_same_as_reference(graph, capacities, weights):
    solution, certificate = max_weight_b_branching(graph, capacities, weights)
    arcs, expected = reference_max_weight(graph, capacities, weights)
    assert solution.arcs == arcs
    assert certificate.p_vertex == expected.p_vertex
    assert certificate.p_sets == expected.p_sets
    assert certificate.q == expected.q
    assert certificate.objective == expected.objective
    check = verify_certificate(graph, capacities, weights, solution.arcs, certificate)
    assert check, check.reason


def test_solutions_and_certificates_match_reference():
    rng = random.Random(601)
    for _ in range(400):
        assert_same_as_reference(*random_instance(rng))


@pytest.mark.parametrize("n, noise", [(60, 300), (150, 600)])
def test_contraction_chain_matches_reference(n, noise):
    # 149 nested sets give the dual replay path bits longer than two words.
    assert_same_as_reference(*contraction_chain(n, noise))


def random_oracles(rng: random.Random, graph, capacities):
    """A partition oracle at about half of the vertices, uniform elsewhere."""
    oracles = {}
    for v in graph.vertices:
        ground = list(graph.in_arc_ids(v))
        if ground and rng.random() < 0.5:
            rng.shuffle(ground)
            count = rng.randint(1, min(3, len(ground)))
            cuts = sorted(rng.sample(range(1, len(ground)), count - 1))
            blocks = [ground[i:j] for i, j in zip([0, *cuts], [*cuts, len(ground)])]
            caps = [0] * count
            for _ in range(capacities[v]):
                caps[rng.randrange(count)] += 1
            oracles[v] = partition_oracle(ground, blocks, caps)
        else:
            oracles[v] = uniform_oracle(ground, capacities[v])
    return oracles


def test_matroid_restricted_matches_reference():
    rng = random.Random(602)
    for _ in range(300):
        graph, capacities, weights = random_instance(rng)
        oracles = random_oracles(rng, graph, capacities)
        arcs = mr_max_weight_b_branching(graph, capacities, weights, MatroidAssignment(oracles))
        assert arcs == reference_max_weight(graph, capacities, weights, oracles)


def run(graph, capacities, weights):
    wnum = {a: w for a, w in enumerate(WeightVector.from_values(weights).numerators) if w >= 0}
    return _run_phases(graph, capacities, wnum, {})


def test_phase_and_contraction_counts_are_bounded():
    # Every contraction of two or more vertices lowers the vertex count, so
    # there are fewer of them than vertices; a single vertex is contracted
    # only around its own selected loops, at most once.
    rng = random.Random(603)
    for _ in range(300):
        graph, capacities, weights = random_instance(rng)
        _, history = run(graph, capacities, weights)
        assert len(history) <= graph.vertex_count + graph.arc_count + 1
        assert all(history[:-1]) and history[-1] == ()
        steps = [step for phase in history for step in phase]
        looped = {t for _, t, h in graph.arcs() if t == h}
        singles = [step for step in steps if len(step.merged) == 1]
        assert len(steps) - len(singles) < graph.vertex_count
        assert {step.merged[0] for step in singles} <= looped
        assert len(singles) == len({step.merged[0] for step in singles})
        if not looped:
            assert len(steps) < max(graph.vertex_count, 1)


def history_ids(history) -> int:
    """Arc and vertex ids stored in a contraction history."""
    total = 0
    for phase in history:
        for step in phase:
            total += len(step.merged) + 1 + len(step.internal) + 1
            for rule in step.replacement.values():
                total += 1 + (1 if isinstance(rule, int) else 2 * len(rule))
    return total


def test_contraction_chain_contracts_once_per_phase_in_linear_history():
    graph, capacities, weights = contraction_chain()
    n, m = graph.vertex_count, graph.arc_count
    _, history = run(graph, capacities, weights)
    assert [len(phase) for phase in history] == [1] * (n - 1) + [0]
    for phase in history[:-1]:
        (step,) = phase
        assert len(step.merged) == 2 and len(step.internal) == 2
        assert step.cheapest_internal in step.internal
        assert set(step.replacement) == set(step.merged)
    # Each contraction of two vertices stores 10 ids (2 merged, the new
    # vertex, 2 internal arcs, the cheapest one, 2 member -> arc pairs), so
    # the history holds 10 (|V| - 1) ids, within c (|V| + |A|) for c = 2 on
    # this chain.  Recording every arc entering each contracted set instead,
    # as the reference run does, takes about 11 |A| ids here.
    assert history_ids(history) <= 2 * (n + m)


def test_heap_pops_at_most_one_per_contraction(monkeypatch):
    # A count, not a clock: arcs whose tail a contracted vertex absorbed are
    # popped as they surface, but the last contraction holds every vertex,
    # so its heap is cleared rather than popped entry by entry.
    pops = []

    def counted(heap):
        pops.append(heap[0])
        return heappop(heap)

    monkeypatch.setattr(phases, "heappop", counted)
    _, history = run(*contraction_chain(150, 600))
    contractions = sum(map(len, history))
    assert contractions == 149
    assert len(pops) <= contractions


def chain_oracles(rng: random.Random, graph, weights):
    """A partition oracle at about half of the vertices, uniform elsewhere.

    Each partition splits the noise arcs entering a vertex into up to three
    random blocks and adds the spine and back arcs, which outweigh all
    noise, to the first block, the only one with capacity: every vertex
    selects what it selects under the capacity rule, so the chain still
    contracts into one vertex, and the other blocks hold matroid loops."""
    oracles = {}
    for v in graph.vertices:
        ground = list(graph.in_arc_ids(v))
        noise = [a for a in ground if weights[a] <= 1000]
        if noise and rng.random() < 0.5:
            rng.shuffle(noise)
            count = rng.randint(1, min(3, len(noise)))
            cuts = sorted(rng.sample(range(1, len(noise)), count - 1))
            blocks = [noise[i:j] for i, j in zip([0, *cuts], [*cuts, len(noise)])]
            blocks[0] += [a for a in ground if weights[a] > 1000]
            oracles[v] = partition_oracle(ground, blocks, [1] + [0] * (count - 1))
        else:
            oracles[v] = uniform_oracle(ground, 1)
    return oracles


def test_matroid_restricted_chain_contracts_into_one_vertex(monkeypatch):
    # The last contraction holds every vertex, partition-oracle members
    # among them, so its heap is cleared after their arcs were adjusted by
    # their fundamental circuits.
    graph, capacities, weights = contraction_chain(60, 300)
    oracles = chain_oracles(random.Random(604), graph, weights)
    histories = []

    def recorded(*args):
        final, history = _run_phases(*args)
        histories.append(history)
        return final, history

    monkeypatch.setattr(mrgreedy, "_run_phases", recorded)
    arcs = mr_max_weight_b_branching(graph, capacities, weights, MatroidAssignment(oracles))
    assert arcs == reference_max_weight(graph, capacities, weights, oracles)

    (history,) = histories
    holds: dict[int, set] = {}
    for step in (step for phase in history for step in phase):
        holds[step.new_vertex] = set().union(*(holds.pop(y, {y}) for y in step.merged))
    assert list(holds.values()) == [set(graph.vertices)]
    partitioned = {v for v, oracle in oracles.items() if isinstance(oracle, PartitionOracle)}
    assert len(partitioned) > len(graph.vertices) // 4
