"""Exhaustive scans behind the CLI's `--oracle` flag.

`brute_max_weight`, `brute_max_weight_restricted` and `brute_exists_packing`
trade speed for being obviously correct from the definitions; the size
gates `MAX_VERTICES` and `MAX_ARCS` fail loudly with `SizeGateError`
instead of degrading.  The other exhaustive references live with the tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .digraph import Digraph
from .greedy import WeightVector
from .matroids import CapacityVector, UniformOracle, sparsity_violating_components


class SizeGateError(RuntimeError):
    """An instance exceeded the limits of a brute-force oracle."""


# `brute_exists_packing` takes at most MAX_VERTICES vertices, and the arc
# scans visit up to 2**MAX_ARCS arc sets.
MAX_VERTICES = 20
MAX_ARCS = 22


def _check_vertices(n: int) -> None:
    if n > MAX_VERTICES:
        raise SizeGateError(f"{n} vertices exceed the gate of {MAX_VERTICES}")


def _check_arcs(m: int) -> None:
    if m > MAX_ARCS:
        raise SizeGateError(f"{m} arcs exceed the gate of {MAX_ARCS}")


def _per_vertex_choices(
    graph: Digraph,
    available: frozenset,
    required: Sequence[int],
) -> Optional[list[list[tuple[int, ...]]]]:
    """For each vertex, all ways to pick exactly the required number of
    entering arcs from the available pool; None when some vertex cannot."""
    all_choices: list[list[tuple[int, ...]]] = []
    for entering, need in zip(graph.entering, required):
        pool = [a for a in entering if a in available]
        if len(pool) < need:
            return None
        all_choices.append(list(combinations(pool, need)))
    return all_choices


def brute_max_weight(graph: Digraph, capacities: CapacityVector, weights) -> Fraction:
    """Exact optimum by scanning all indegree-independent sets.

    The indegree cap b(v) is the rank-b(v) uniform matroid on the arcs
    entering v, so this is the restricted scan with those oracles.
    """
    capacities.check_domain(graph)
    oracles = {v: UniformOracle(graph.entering[v], capacities[v]) for v in graph.vertices}
    return brute_max_weight_restricted(graph, capacities, weights, oracles)


def brute_max_weight_restricted(
    graph: Digraph,
    capacities: CapacityVector,
    weights,
    oracles,
) -> Fraction:
    """Exact optimum over sets independent in every vertex oracle and sparse.

    Enumerates per-vertex choices of positive-weight entering arcs (at most
    the capacity each, independent in the vertex's oracle), pruning with an
    upper bound, and keeps the best sparsity-independent combination.
    """
    _check_arcs(graph.arc_count)
    capacities.check_domain(graph)
    wv = WeightVector.coerce(weights, graph.arc_count)
    nums = wv.numerators

    per_vertex: list[list[tuple[int, tuple[int, ...]]]] = []
    for v in graph.vertices:
        pool = [a for a in graph.entering[v] if nums[a] > 0]
        oracle = oracles[v]
        options = []
        for size in range(0, min(capacities[v], len(pool)) + 1):
            for combo in combinations(pool, size):
                if oracle.is_independent(combo):
                    options.append((sum(nums[a] for a in combo), combo))
        options.sort(key=lambda item: -item[0])
        per_vertex.append(options)

    suffix_best = [0] * (len(per_vertex) + 1)
    for i in range(len(per_vertex) - 1, -1, -1):
        top = per_vertex[i][0][0] if per_vertex[i] else 0
        suffix_best[i] = suffix_best[i + 1] + top

    best = 0  # the empty set is always feasible
    chosen: list[int] = []

    def search(i: int, acc: int) -> None:
        nonlocal best
        if acc + suffix_best[i] <= best:
            return
        if i == len(per_vertex):
            if not sparsity_violating_components(graph, capacities, frozenset(chosen)):
                best = acc
            return
        for value, combo in per_vertex[i]:
            if acc + value + suffix_best[i + 1] <= best:
                break
            chosen.extend(combo)
            search(i + 1, acc + value)
            del chosen[len(chosen) - len(combo):]

    search(0, 0)
    return Fraction(best, wv.denominator)


def brute_exists_packing(instance) -> bool:
    """Whether disjoint feasible sets with the prescribed indegrees exist.

    Recursively assigns, per demand vector, an exact-indegree candidate from
    the remaining arcs and checks sparsity, backtracking over all choices.
    """
    graph = instance.graph
    capacities = instance.capacities
    _check_arcs(graph.arc_count)
    _check_vertices(graph.vertex_count)
    demands = instance.demands

    def assign(idx: int, available: frozenset) -> bool:
        if idx == len(demands):
            return True
        choices = _per_vertex_choices(graph, available, demands[idx])
        if choices is None:
            return False
        def product(pos: int, picked: list[int]) -> bool:
            if pos == len(choices):
                subset = frozenset(picked)
                if sparsity_violating_components(graph, capacities, subset):
                    return False
                return assign(idx + 1, available - subset)
            for combo in choices[pos]:
                picked.extend(combo)
                if product(pos + 1, picked):
                    return True
                del picked[len(picked) - len(combo):]
            return False
        return product(0, [])

    return assign(0, frozenset(graph.arc_ids))
