"""Exhaustive reference implementations for desk-scale cross-checking.

Everything here trades speed for being obviously correct from the
definitions; size gates fail loudly instead of degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Optional

from .digraph import Digraph
from .greedy import WeightVector
from .matroids import CapacityVector, UniformOracle, sparsity_violating_components


class SizeGateError(RuntimeError):
    """An instance exceeded the limits of a brute-force oracle."""


@dataclass(frozen=True)
class SizeGate:
    """Hard limits for exhaustive scans."""

    max_vertices: int = 20
    max_arcs: int = 22

    def __post_init__(self):
        if self.max_vertices <= 0 or self.max_arcs <= 0:
            raise ValueError("gates must be positive")

    def check_vertices(self, n: int) -> None:
        if n > self.max_vertices:
            raise SizeGateError(f"{n} vertices exceed the gate of {self.max_vertices}")

    def check_arcs(self, m: int) -> None:
        if m > self.max_arcs:
            raise SizeGateError(f"{m} arcs exceed the gate of {self.max_arcs}")


DEFAULT_GATE = SizeGate()


def enumerate_b_branchings(
    graph: Digraph, capacities: CapacityVector, gate: SizeGate = DEFAULT_GATE
) -> list[frozenset]:
    """Every feasible arc set, sorted by (size, sorted arc ids)."""
    gate.check_arcs(graph.arc_count)
    found: list[frozenset] = []
    arcs = graph.arc_ids
    caps = capacities.as_dict()

    def extend(idx: int, chosen: list[int], degrees: dict) -> None:
        if idx == len(arcs):
            subset = frozenset(chosen)
            if not sparsity_violating_components(graph, capacities, subset):
                found.append(subset)
            return
        extend(idx + 1, chosen, degrees)
        a = arcs[idx]
        head = graph.head(a)
        if degrees.get(head, 0) < caps[head]:
            degrees[head] = degrees.get(head, 0) + 1
            chosen.append(a)
            extend(idx + 1, chosen, degrees)
            chosen.pop()
            degrees[head] -= 1

    extend(0, [], {})
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def brute_min_set_function(
    func: Callable[[frozenset], int],
    vertices: Iterable[int],
    constraint: Optional[Callable[[frozenset], bool]] = None,
    gate: SizeGate = DEFAULT_GATE,
) -> tuple[frozenset, int]:
    """Global minimum of a set function over the (constrained) subset lattice.

    Returns an inclusionwise-minimal minimizer: scanning by cardinality and
    then lexicographic vertex order means the reported set cannot contain a
    smaller minimizing subset.
    """
    verts = sorted(vertices)
    gate.check_vertices(len(verts))
    best_key = None
    best_set = None
    for size in range(len(verts) + 1):
        for combo in combinations(verts, size):
            subset = frozenset(combo)
            if constraint is not None and not constraint(subset):
                continue
            value = func(subset)
            key = (value, size, combo)
            if best_key is None or key < best_key:
                best_key = key
                best_set = subset
    if best_set is None:
        raise ValueError("no subset satisfies the constraints")
    return best_set, best_key[0]


def _per_vertex_choices(
    graph: Digraph,
    available: frozenset,
    required: dict,
) -> Optional[list[list[tuple[int, ...]]]]:
    """For each vertex, all ways to pick exactly the required number of
    entering arcs from the available pool; None when some vertex cannot."""
    all_choices: list[list[tuple[int, ...]]] = []
    for v in graph.vertices:
        pool = [a for a in graph.in_arc_ids(v) if a in available]
        need = required.get(v, 0)
        if len(pool) < need:
            return None
        all_choices.append(list(combinations(pool, need)))
    return all_choices


def brute_max_weight(
    graph: Digraph,
    capacities: CapacityVector,
    weights,
    gate: SizeGate = DEFAULT_GATE,
) -> Fraction:
    """Exact optimum by scanning all indegree-independent sets.

    The indegree cap b(v) is the rank-b(v) uniform matroid on the arcs
    entering v, so this is the restricted scan with those oracles.
    """
    oracles = {v: UniformOracle(graph.in_arc_ids(v), capacities[v]) for v in graph.vertices}
    return brute_max_weight_restricted(graph, capacities, weights, oracles, gate)


def brute_max_weight_restricted(
    graph: Digraph,
    capacities: CapacityVector,
    weights,
    oracles,
    gate: SizeGate = DEFAULT_GATE,
) -> Fraction:
    """Exact optimum over sets independent in every vertex oracle and sparse.

    Enumerates per-vertex choices of positive-weight entering arcs (at most
    the capacity each, independent in the vertex's oracle), pruning with an
    upper bound, and keeps the best sparsity-independent combination.
    """
    gate.check_arcs(graph.arc_count)
    wv = WeightVector.coerce(weights, graph.arc_count)
    nums = wv.numerators

    per_vertex: list[list[tuple[int, tuple[int, ...]]]] = []
    for v in graph.vertices:
        pool = [a for a in graph.in_arc_ids(v) if nums[a] > 0]
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


def brute_exists_packing(instance, gate: SizeGate = DEFAULT_GATE) -> bool:
    """Whether disjoint feasible sets with the prescribed indegrees exist.

    Recursively assigns, per demand vector, an exact-indegree candidate from
    the remaining arcs and checks sparsity, backtracking over all choices.
    """
    graph = instance.graph
    capacities = instance.capacities
    gate.check_arcs(graph.arc_count)
    gate.check_vertices(graph.vertex_count)
    demands = [d.as_dict() for d in instance.demands]

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

    return assign(0, graph.arc_id_set)
