"""Covering the arc set by k feasible parts, and integer decomposition.

The cover reduces to a packing problem on an augmented graph: a fresh root
supplies every vertex with exactly enough parallel arcs to make all parts
tight at capacity everywhere, after which the packing parts restricted to
the original arcs partition it.  The cover condition is a closure min cut:
k units of flow must reach every vertex from a source feeding each v with
k b(v) - indeg(v), the slack network that decides sparsity at k = 1.
Integer points of k times the feasible polytope
decompose by covering the multigraph that carries each arc with its
multiplicity.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Optional, Sequence

from .digraph import Digraph
from .matroids import BBranching, CapacityVector, DemandVector, _slack_cuts, is_b_branching
from .packing import (
    Feasibility,
    InfeasiblePackingError,
    PackingInstance,
    _cut_witness,
    find_disjoint_b_branchings,
)


class DecompositionError(ValueError):
    """Raised when a multiplicity vector lies outside k times the polytope."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness or {}


def check_cover_conditions(graph: Digraph, capacities: CapacityVector, k: int) -> Feasibility:
    """Per-vertex degree bound plus the induced-arc bound over all vertex sets."""
    if k < 1:
        raise ValueError("k must be at least 1")
    capacities.check_domain(graph)
    supply = [k * cap - len(entering) for cap, entering in zip(capacities, graph.entering)]
    for v, c in enumerate(supply):
        if c < 0:
            return Feasibility(False, vertex=v)
    return _cut_witness(_slack_cuts(graph, graph.arc_ids, supply, k), k)


def _augmented_cover_parts(graph: Digraph, capacities: CapacityVector, k: int) -> list[frozenset]:
    """Partition of the arc ids into min(k, max(1, |A|)) feasible parts via
    root augmentation: no more parts can be nonempty, and the cover
    conditions for k imply them for that many (b >= 1), so the work does not
    grow with k.  Callers pad to k with empty parts."""
    packed = min(k, max(1, graph.arc_count))
    root = graph.vertex_count
    pairs = [(t, h) for _, t, h in graph.arcs()]
    for v, (entering, cap) in enumerate(zip(graph.entering, capacities)):
        pairs += [(root, v)] * (packed * cap - len(entering))
    augmented = Digraph.from_pairs(root + 1, pairs)

    demand = DemandVector((*capacities, 0))
    instance = PackingInstance(
        augmented, CapacityVector((*capacities, 1)), tuple(demand for _ in range(packed))
    )
    try:
        result = find_disjoint_b_branchings(instance)
    except InfeasiblePackingError:
        raise AssertionError("the cover conditions must make the packing feasible") from None

    original = frozenset(graph.arc_ids)
    parts = [part & original for part in result.branchings]
    if sorted(a for part in parts for a in part) != list(graph.arc_ids):
        raise AssertionError("cover parts must partition the arc set")
    return parts


def cover_by_b_branchings(graph: Digraph, capacities: CapacityVector, k: int) -> list[BBranching]:
    """Partition the arc set into k feasible parts; conditions must hold."""
    feasibility = check_cover_conditions(graph, capacities, k)
    if not feasibility:
        raise InfeasiblePackingError(feasibility, "cover conditions violated")
    parts = _augmented_cover_parts(graph, capacities, k)
    # Up to k - 1 parts are empty: validate that one once and repeat it.
    empty = BBranching.of(graph, capacities, frozenset())
    cover = [BBranching.of(graph, capacities, part) if part else empty for part in parts]
    return cover + [empty] * (k - len(cover))


def _multiplicity_graph(graph: Digraph, multiplicity: Sequence[int]) -> tuple[Digraph, list[int]]:
    """Multigraph carrying `multiplicity[a]` copies of each arc, plus the
    copy-to-original map."""
    origin = [a for a in graph.arc_ids for _ in range(multiplicity[a])]
    tails, heads = graph.tails, graph.heads
    return Digraph.from_pairs(graph.vertex_count, [(tails[a], heads[a]) for a in origin]), origin


def _try_repair_duplicates(
    graph: Digraph,
    capacities: CapacityVector,
    counts: list[Counter],
) -> Optional[list[frozenset]]:
    """Shift duplicate copies between parts until every part is a plain set.

    A surplus copy moves to a part lacking that arc when the enlarged part
    stays feasible, otherwise a one-for-one exchange is attempted.  Every
    successful step strictly reduces the total surplus.
    """
    k = len(counts)
    while True:
        surplus = [
            (i, a)
            for i in range(k)
            for a in sorted(counts[i])
            if counts[i][a] >= 2
        ]
        if not surplus:
            # Decremented entries linger in a Counter with count zero.
            return [frozenset(e for e, c in counter.items() if c >= 1) for counter in counts]
        i, a = surplus[0]
        part_i = {e for e, c in counts[i].items() if c >= 1}
        receivers = [j for j in range(k) if j != i and counts[j][a] == 0]
        moved = False
        for j in receivers:
            part_j = {e for e, c in counts[j].items() if c >= 1}
            if is_b_branching(graph, capacities, part_j | {a}):
                counts[i][a] -= 1
                counts[j][a] += 1
                moved = True
                break
        if moved:
            continue
        for j in receivers:
            part_j = {e for e, c in counts[j].items() if c >= 1}
            swapped = False
            for e in sorted(part_j - part_i):
                if counts[j][e] != 1:
                    continue
                if is_b_branching(graph, capacities, (part_j - {e}) | {a}) and is_b_branching(
                    graph, capacities, part_i | {e}
                ):
                    counts[i][a] -= 1
                    counts[i][e] += 1
                    counts[j][e] -= 1
                    counts[j][a] += 1
                    swapped = True
                    break
            if swapped:
                moved = True
                break
        if not moved:
            return None


def _peel_decomposition(
    graph: Digraph,
    capacities: CapacityVector,
    k: int,
    multiplicity: Sequence[int],
) -> list[frozenset]:
    """Fallback: peel one feasible part at a time, re-checking that the
    remainder stays inside the shrunken polytope."""
    remaining = list(multiplicity)
    parts: list[frozenset] = []
    for level in range(k, 0, -1):
        if level == 1:
            last = frozenset(a for a in graph.arc_ids if remaining[a] > 0)
            if any(c > 1 for c in remaining):
                raise AssertionError("remainder must be a 0/1 vector")
            if not is_b_branching(graph, capacities, last):
                raise AssertionError("final remainder must be feasible")
            parts.append(last)
            break
        forced = [a for a in graph.arc_ids if remaining[a] == level]
        free = [a for a in graph.arc_ids if 0 < remaining[a] < level]
        found = None
        for size in range(len(free) + 1):
            for combo in combinations(free, size):
                candidate = frozenset(forced) | frozenset(combo)
                if not is_b_branching(graph, capacities, candidate):
                    continue
                rest = [
                    remaining[a] - (1 if a in candidate else 0) for a in graph.arc_ids
                ]
                rest_graph, _ = _multiplicity_graph(graph, rest)
                if check_cover_conditions(rest_graph, capacities, level - 1):
                    found = candidate
                    break
            if found is not None:
                break
        if found is None:
            raise AssertionError("decomposition must exist for a point of the scaled polytope")
        parts.append(found)
        for a in found:
            remaining[a] -= 1
    return parts


def integer_decompose(
    graph: Digraph,
    capacities: CapacityVector,
    k: int,
    multiplicity: Sequence[int],
) -> list[frozenset]:
    """Write an integer vector of k times the feasible polytope as a sum of
    k feasible 0/1 parts (returned as arc-id sets)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    capacities.check_domain(graph)
    values = [int(c) for c in multiplicity]
    if len(values) != graph.arc_count:
        raise ValueError("one multiplicity per arc required")
    for a, c in enumerate(values):
        if c < 0 or c > k:
            raise DecompositionError(
                f"multiplicity {c} at arc {a} outside [0, {k}]", witness={"arc": a}
            )

    expanded, origin = _multiplicity_graph(graph, values)
    feasibility = check_cover_conditions(expanded, capacities, k)
    if not feasibility:
        raise DecompositionError("vector lies outside k times the polytope", feasibility.witness())

    copy_parts = _augmented_cover_parts(expanded, capacities, k)
    counts = [Counter(origin[c] for c in part) for part in copy_parts]
    if all(count <= 1 for counter in counts for count in counter.values()):
        parts = [frozenset(counter) for counter in counts]
    else:
        # No padding needed: below k copies one part per copy was packed,
        # so at least as many are empty as there are surplus copies.
        repaired = _try_repair_duplicates(graph, capacities, counts)
        parts = (
            repaired
            if repaired is not None
            else _peel_decomposition(graph, capacities, k, values)
        )

    total = Counter()
    for part in parts:
        if not is_b_branching(graph, capacities, part):
            raise AssertionError("decomposed part is not feasible")
        total.update(part)
    if any(total[a] != values[a] for a in graph.arc_ids):
        raise AssertionError("parts must sum to the input vector")
    padding = k - len(parts)
    if padding and not is_b_branching(graph, capacities, frozenset()):
        raise AssertionError("decomposed part is not feasible")
    return parts + [frozenset()] * padding
