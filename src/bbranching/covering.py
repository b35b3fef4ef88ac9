"""Covering the arc set by k feasible parts, and integer decomposition.

The cover reduces to a packing problem on an augmented graph: a fresh root
supplies every vertex with exactly enough parallel arcs to make all parts
tight at capacity everywhere, after which the packing parts restricted to
the original arcs partition it.  Integer points of k times the feasible
polytope decompose by covering the multigraph that carries each arc with
its multiplicity.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Optional, Sequence

from .digraph import Digraph
from .matroids import BBranching, CapacityVector, DemandVector, is_b_branching
from .packing import (
    _DEFAULT_BACKEND,
    Feasibility,
    InfeasiblePackingError,
    PackingInstance,
    SfmBackend,
    find_disjoint_b_branchings,
)


class DecompositionError(ValueError):
    """Raised when a multiplicity vector lies outside k times the polytope."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness or {}


def check_cover_conditions(
    graph: Digraph,
    capacities: CapacityVector,
    k: int,
    backend: Optional[SfmBackend] = None,
) -> Feasibility:
    """Per-vertex degree bound plus the induced-arc bound over all vertex sets."""
    if k < 1:
        raise ValueError("k must be at least 1")
    capacities.check_domain(graph)
    backend = backend or _DEFAULT_BACKEND
    for v in graph.vertices:
        if len(graph.in_arc_ids(v)) > k * capacities[v]:
            return Feasibility(False, vertex=v)
    if graph.vertex_count == 0:
        return Feasibility(True)

    def slack(subset: frozenset) -> int:
        induced = sum(
            1
            for a in graph.arc_ids
            if graph.tail(a) in subset and graph.head(a) in subset
        )
        return k * (capacities.total(subset) - 1) - induced

    witness, value = backend.minimize(slack, graph.vertices, constraint=lambda s: bool(s))
    if value < 0:
        return Feasibility(False, subset=witness)
    return Feasibility(True)


def _augmented_cover_parts(
    graph: Digraph,
    capacities: CapacityVector,
    k: int,
    backend: SfmBackend,
) -> list[frozenset]:
    """Partition of the arc ids into k feasible parts via root augmentation."""
    root = max(graph.vertices) + 1 if graph.vertex_count else 0
    arcs = [(a, t, h) for a, t, h in graph.arcs()]
    next_id = graph.arc_count
    for v in graph.vertices:
        for _ in range(k * capacities[v] - len(graph.in_arc_ids(v))):
            arcs.append((next_id, root, v))
            next_id += 1
    augmented = Digraph(list(graph.vertices) + [root], arcs)

    caps = capacities.as_dict()
    caps[root] = 1
    demand_values = {v: capacities[v] for v in graph.vertices}
    demand_values[root] = 0
    demand = DemandVector(demand_values)
    instance = PackingInstance(
        augmented, CapacityVector(caps), tuple(demand for _ in range(k))
    )
    result = find_disjoint_b_branchings(instance, backend)

    original = graph.arc_id_set
    parts = [part & original for part in result.branchings]
    covered = Counter()
    for part in parts:
        covered.update(part)
    if sum(covered.values()) != graph.arc_count or set(covered) != set(original):
        raise AssertionError("cover parts must partition the arc set")
    return parts


def cover_by_b_branchings(
    graph: Digraph,
    capacities: CapacityVector,
    k: int,
    backend: Optional[SfmBackend] = None,
) -> list[BBranching]:
    """Partition the arc set into k feasible parts; conditions must hold."""
    backend = backend or _DEFAULT_BACKEND
    feasibility = check_cover_conditions(graph, capacities, k, backend)
    if not feasibility:
        raise InfeasiblePackingError(f"cover conditions violated: {feasibility}")
    parts = _augmented_cover_parts(graph, capacities, k, backend)
    return [BBranching.of(graph, capacities, part) for part in parts]


def _multiplicity_graph(graph: Digraph, multiplicity: Sequence[int]) -> tuple[Digraph, list[int]]:
    """Multigraph carrying `multiplicity[a]` copies of each arc, plus the
    copy-to-original map."""
    arcs = []
    origin: list[int] = []
    for a in graph.arc_ids:
        tail, head = graph.endpoints(a)
        for _ in range(multiplicity[a]):
            arcs.append((len(origin), tail, head))
            origin.append(a)
    return Digraph(graph.vertices, arcs), origin


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
    backend: SfmBackend,
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
                if check_cover_conditions(rest_graph, capacities, level - 1, backend):
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
    backend: Optional[SfmBackend] = None,
) -> list[frozenset]:
    """Write an integer vector of k times the feasible polytope as a sum of
    k feasible 0/1 parts (returned as arc-id sets)."""
    backend = backend or _DEFAULT_BACKEND
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
    feasibility = check_cover_conditions(expanded, capacities, k, backend)
    if not feasibility:
        witness: dict = {}
        if feasibility.vertex is not None:
            witness["v"] = feasibility.vertex
        if feasibility.subset is not None:
            witness["X"] = sorted(feasibility.subset)
        raise DecompositionError("vector lies outside k times the polytope", witness)

    copy_parts = _augmented_cover_parts(expanded, capacities, k, backend)
    counts = [Counter(origin[c] for c in part) for part in copy_parts]
    if all(count <= 1 for counter in counts for count in counter.values()):
        parts = [frozenset(counter) for counter in counts]
    else:
        repaired = _try_repair_duplicates(graph, capacities, counts)
        parts = (
            repaired
            if repaired is not None
            else _peel_decomposition(graph, capacities, k, values, backend)
        )

    total = Counter()
    for part in parts:
        if not is_b_branching(graph, capacities, part):
            raise AssertionError("decomposed part is not feasible")
        total.update(part)
    if any(total[a] != values[a] for a in graph.arc_ids):
        raise AssertionError("parts must sum to the input vector")
    return parts
