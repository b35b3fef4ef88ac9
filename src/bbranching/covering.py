"""Covering the arc set by k feasible parts, and integer decomposition.

The cover reduces to a packing problem on an augmented graph: a fresh root
supplies every vertex with exactly enough parallel arcs to make all parts
tight at capacity everywhere, after which the packing parts restricted to
the original arcs partition it.  The cover condition is a closure min cut:
k units of flow must reach every vertex from a source feeding each v with
k b(v) - indeg(v), the slack network that decides sparsity at k = 1.
An integer point x of k times the feasible polytope passes that check with
x as arc capacities, then decomposes by covering the multigraph carrying
x(a) copies of each arc a and exchanging copies until no part holds two.
"""

from __future__ import annotations

from collections import Counter
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
    return _cover_conditions(graph, capacities, k, [1] * graph.arc_count)


def _cover_conditions(
    graph: Digraph, capacities: CapacityVector, k: int, copies: Sequence[int]
) -> Feasibility:
    """`check_cover_conditions` of the multigraph carrying `copies[a]` copies
    of each arc a, decided on `graph` with arc capacities: the work does not
    grow with the copies."""
    if k < 1:
        raise ValueError("k must be at least 1")
    capacities.check_domain(graph)
    indegree = [sum(map(copies.__getitem__, entering)) for entering in graph.entering]
    supply = [k * cap - d for cap, d in zip(capacities, indegree)]
    for v, c in enumerate(supply):
        if c < 0:
            return Feasibility(False, vertex=v)
    return _cut_witness(_slack_cuts(graph, zip(graph.arc_ids, copies), supply, k), k)


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


def _exchange_copies(
    copies: Digraph,
    capacities: CapacityVector,
    origin: Sequence[int],
    parts: list[frozenset],
) -> list[frozenset]:
    """Turn a cover of the multiplicity multigraph into parts that hold at
    most one copy of each arc, as arc-id sets of the original graph.

    While some part i holds two copies of an arc (u, v), its smallest such
    copy c moves to the first part j holding no copy of that arc, or else
    swaps with the smallest copy e entering v that keeps part j feasible
    and does not add a duplicate to i without removing one from j.  Each
    step lowers the number of surplus copies; README.md gives the argument
    that one always exists.
    """
    parts = [set(part) for part in parts]
    heads = copies.heads
    while True:
        held = [Counter(origin[c] for c in part) for part in parts]
        i = next((i for i, count in enumerate(held) if max(count.values(), default=0) > 1), None)
        if i is None:
            return [frozenset(count) for count in held]
        c = min(c for c in parts[i] if held[i][origin[c]] > 1)
        a = origin[c]
        # x(a) <= k copies, and fewer than k parts were packed only when
        # there is one part per copy, so some part holds no copy of a.
        j = next(j for j, count in enumerate(held) if not count[a])
        if is_b_branching(copies, capacities, parts[j] | {c}):
            parts[i].remove(c)
            parts[j].add(c)
            continue
        e = next(
            (
                e
                for e in sorted(parts[j])
                if heads[e] == heads[c]
                and not (held[i][origin[e]] and held[j][origin[e]] == 1)
                and is_b_branching(copies, capacities, (parts[j] - {e}) | {c})
            ),
            None,
        )
        if e is None:
            raise AssertionError("some copy entering the head must make room")
        if not is_b_branching(copies, capacities, (parts[i] - {c}) | {e}):
            raise AssertionError("the other copy must keep the part feasible")
        parts[i] ^= {c, e}
        parts[j] ^= {c, e}


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

    feasibility = _cover_conditions(graph, capacities, k, values)
    if not feasibility:
        raise DecompositionError("vector lies outside k times the polytope", feasibility.witness())
    expanded, origin = _multiplicity_graph(graph, values)

    parts = _exchange_copies(
        expanded, capacities, origin, _augmented_cover_parts(expanded, capacities, k)
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
