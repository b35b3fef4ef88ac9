"""The library's peel-then-Tarjan sparsity check against the reference
component scan in helpers (strong components over the accessors, then the
induced arc count of each component)."""

import random

from bbranching import Digraph, strong_components
from bbranching.matroids import saturated_components

from helpers import (
    random_capacities,
    random_digraph,
    reference_saturated_components,
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
