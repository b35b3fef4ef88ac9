"""The two matroids behind degree-capped branchings, plus generic oracles.

An arc set F is feasible ("a b-branching") when it is independent in both
the indegree matroid (at most b(v) arcs entering each vertex v) and the
sparsity matroid (|F[X]| <= b(X) - 1 for every nonempty vertex set X).
For indegree-independent sets the sparsity test reduces to inspecting
strong components; any arc set is decided by max flows on the network that
decides the cover condition.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .digraph import Digraph, _add_arc, _augment, _check_subset, _component_labels, _vertex_flows


class IndegreeDependenceError(ValueError):
    """Raised when an operation requires an indegree-independent arc set."""


class CapacityError(ValueError):
    """Raised for malformed or mismatched capacity/demand vectors."""


class _VertexVector(tuple):
    """A Python int per vertex 0..n-1, as a tuple; subclasses bound the
    values from below."""

    __slots__ = ()
    _kind: str  # names an entry in error messages
    _least: int  # the smallest value allowed

    def __new__(cls, values: Sequence[int]):
        if not isinstance(values, Sequence):
            raise CapacityError(
                f"expected a sequence over vertices 0..n-1, got {type(values).__name__}"
            )
        for v, c in enumerate(values):
            if type(c) is not int:
                raise CapacityError(f"{cls._kind} at vertex {v} must be an integer, got {c!r}")
            if c < cls._least:
                raise CapacityError(f"{cls._kind} at vertex {v} must be >= {cls._least}, got {c}")
        return super().__new__(cls, values)

    def total(self, vertex_set: Iterable[int]) -> int:
        """Sum of entries over a vertex set; CapacityError for an id outside
        0..n-1 (indexing alone would wrap -1 round)."""
        ids = tuple(vertex_set)
        if ids and min(ids) < 0:
            raise CapacityError(f"no entry for vertex {min(ids)}")
        try:
            return sum(self[v] for v in ids)
        except IndexError:
            raise CapacityError(f"no entry for vertex {max(ids)}") from None

    def check_domain(self, graph: Digraph) -> None:
        if len(self) != graph.vertex_count:
            raise CapacityError("vector domain does not match the graph's vertex set")


class CapacityVector(_VertexVector):
    """Positive integer capacity per vertex."""

    __slots__ = ()
    _kind = "capacity"
    _least = 1


class DemandVector(_VertexVector):
    """Nonnegative prescribed indegree per vertex."""

    __slots__ = ()
    _kind = "demand"
    _least = 0

    def validate_against(self, capacities: CapacityVector) -> None:
        """Demands must stay below capacities somewhere: b' <= b and b' != b."""
        if len(self) != len(capacities):
            raise CapacityError("demand domain does not match the capacity domain")
        for v, (c, cap) in enumerate(zip(self, capacities)):
            if c > cap:
                raise CapacityError(f"demand {c} exceeds capacity {cap} at vertex {v}")
        if self == capacities:
            raise CapacityError("demand vector must differ from the capacity vector")


# ---------------------------------------------------------------------------
# Matroid oracles


class MatroidOracle(ABC):
    """Independence oracle over a ground set of arc ids.

    `rank` is the declared rank parameter (for vertex-attached oracles it must
    equal the vertex capacity; it may exceed the size of the ground set, in
    which case the achievable rank is of course smaller).
    """

    def __init__(self, ground: Iterable[int], rank: int):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        self.ground = frozenset(ground)
        self.rank = rank

    @abstractmethod
    def is_independent(self, subset: Iterable[int]) -> bool:
        """Whether the subset is independent; subset must lie in the ground set."""

    def _as_members(self, subset: Iterable[int]) -> frozenset:
        members = frozenset(subset)
        if not members <= self.ground:
            bad = sorted(members - self.ground)
            raise ValueError(f"elements not in the ground set: {bad}")
        return members


class UniformOracle(MatroidOracle):
    """Independent iff the subset has at most `rank` elements."""

    def is_independent(self, subset: Iterable[int]) -> bool:
        return len(self._as_members(subset)) <= self.rank


class PartitionOracle(MatroidOracle):
    """Independent iff each block contributes at most its cap."""

    def __init__(self, ground: Iterable[int], blocks: Sequence[Iterable[int]], caps: Sequence[int]):
        blocks = [frozenset(b) for b in blocks]
        caps = [int(c) for c in caps]
        if len(blocks) != len(caps):
            raise ValueError("one cap per block required")
        if any(c < 0 for c in caps):
            raise ValueError("caps must be nonnegative")
        ground = frozenset(ground)
        seen: set[int] = set()
        for block in blocks:
            if block & seen:
                raise ValueError("blocks must be disjoint")
            seen |= block
        if seen != ground:
            raise ValueError("blocks must partition the ground set")
        super().__init__(ground, sum(caps))
        self.blocks = tuple(blocks)
        self.caps = tuple(caps)
        self._block_of = {e: i for i, block in enumerate(blocks) for e in block}

    def is_independent(self, subset: Iterable[int]) -> bool:
        room = list(self.caps)
        for i in map(self._block_of.__getitem__, self._as_members(subset)):
            room[i] -= 1
            if room[i] < 0:
                return False
        return True


def uniform_oracle(ground: Iterable[int], rank: int) -> UniformOracle:
    return UniformOracle(ground, rank)


def partition_oracle(
    ground: Iterable[int], blocks: Sequence[Iterable[int]], caps: Sequence[int]
) -> PartitionOracle:
    return PartitionOracle(ground, blocks, caps)


def fundamental_circuit(
    oracle: MatroidOracle, independent: Iterable[int], element: int
) -> Optional[frozenset]:
    """Circuit created by adding `element` to an independent set, or None.

    Uses O(|I|) independence queries: e belongs to the circuit iff removing e
    from I + element restores independence (plus the added element itself).
    """
    base = frozenset(independent)
    if not oracle.is_independent(base):
        raise ValueError("the given set is not independent")
    extended = base | {element}
    if oracle.is_independent(extended):
        return None
    circuit = {element}
    for e in base:
        if oracle.is_independent(extended - {e}):
            circuit.add(e)
    return frozenset(circuit)


# ---------------------------------------------------------------------------
# Independence tests on digraphs


def _in_counts(graph: Digraph, arcs: Iterable[int]) -> list[int]:
    """Arcs entering each vertex, repeats counted; ids unchecked."""
    counts = [0] * graph.vertex_count
    heads = graph.heads
    for a in arcs:
        counts[heads[a]] += 1
    return counts


def _within(capacities: CapacityVector, counts: list[int]) -> bool:
    return all(map(int.__le__, counts, capacities))


def indegree_independent(graph: Digraph, capacities: CapacityVector, arcs: Iterable[int]) -> bool:
    """Whether every vertex receives at most its capacity in the arc set."""
    capacities.check_domain(graph)
    arcs = list(arcs)
    _check_subset(graph, arcs)
    return _within(capacities, _in_counts(graph, arcs))


def indegree_profile(graph: Digraph, arcs: Iterable[int]) -> dict[int, int]:
    """Number of arcs of the subset entering each vertex (loops included)."""
    arcs = list(arcs)
    _check_subset(graph, arcs)
    return dict(enumerate(_in_counts(graph, arcs)))


def saturated_components(
    graph: Digraph, caps: Sequence[int], arcs: frozenset
) -> list[frozenset]:
    """Strong components X of (V, F) with |F[X]| = b(X) for checked arc ids,
    sorted by minimum vertex id.  F must be indegree-independent (callers
    check): then such an X has indeg_F = b at each member and no arc from
    outside, so it survives the peel (each vertex below capacity, then all F
    reaches from one) as a component no other survivor enters, and each such
    component is saturated.  A feasible F leaves no survivor."""
    n = graph.vertex_count
    tails, heads = graph.tails, graph.heads
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for a in arcs:
        h = heads[a]
        indeg[h] += 1
        succ[tails[a]].append(h)
    gone = [d < caps[v] for v, d in enumerate(indeg)]
    stack = [v for v in range(n) if gone[v]]
    while stack:
        for w in succ[stack.pop()]:
            if not gone[w]:
                gone[w] = True
                stack.append(w)
    survivors = [v for v in range(n) if not gone[v]]
    if not survivors:
        return []
    for v in survivors:
        succ[v] = [w for w in succ[v] if not gone[w]]
    label = _component_labels(succ, survivors)
    entered = {label[w] for v in survivors for w in succ[v] if label[w] != label[v]}
    members: dict = {}  # ordered by least member
    for v in survivors:
        members.setdefault(label[v], []).append(v)
    return [frozenset(m) for c, m in members.items() if c not in entered]


def sparsity_violating_components(
    graph: Digraph, capacities: CapacityVector, arcs: Iterable[int]
) -> list[frozenset]:
    """Strong components X of (V, F) whose induced arc count reaches b(X).

    Requires F independent in the indegree matroid; the returned list is
    empty exactly when F is independent in the sparsity matroid, and each
    induced set F[X] is a circuit of it.  Sorted by minimum vertex id.
    """
    subset = frozenset(arcs)
    if not indegree_independent(graph, capacities, subset):
        raise IndegreeDependenceError(
            "component-based sparsity detection needs an indegree-independent set"
        )
    return saturated_components(graph, capacities, subset)


def _slack_cuts(graph: Digraph, copies: Iterable[tuple], supply: Sequence[int], k: int) -> Iterator:
    """`_vertex_flows` into {v, t} per vertex v, short (with the least
    minimizer as cut) iff min_{X holding v} supply(X) + rho_F(X) < k, for the
    multiset F of c copies of a per pair (a, c) of `copies`.  The source
    feeds each v with supply(v) > 0, each v with supply(v) < 0 drains into
    a sink t, and each non-loop arc a of F has capacity c, so a cut into
    {v, t} costs that minimum plus the total drain.  With supply = k b -
    indeg_F the minimum is k b(X) - |F[X]|: loops count in both but never
    cross a cut.  The drain is routed into t once; each vertex's flow
    augments from that residual, offset by the drain left unrouted."""
    n = graph.vertex_count
    source, sink = n, n + 1
    net: list[dict] = [{} for _ in range(n + 2)]
    drain = 0
    for v, c in enumerate(supply):
        if c > 0:
            _add_arc(net, source, v, c)
        elif c < 0:
            _add_arc(net, v, sink, -c)
            drain -= c
    tails, heads = graph.tails, graph.heads
    for a, count in copies:
        if count and tails[a] != heads[a]:
            _add_arc(net, tails[a], heads[a], count)
    drained, res = _augment(net, source, {sink}, drain)
    return _vertex_flows(res, source, range(n), k + drain - drained, (sink,))


def sparsity_independent(graph: Digraph, capacities: CapacityVector, arcs: Iterable[int]) -> bool:
    """Whether |F[X]| <= b(X) - 1 for every nonempty vertex set X, for any
    arc set F: one unit of slack reaches each vertex (`_slack_cuts`, k = 1)."""
    capacities.check_domain(graph)
    subset = _check_subset(graph, arcs)
    supply = [b - d for b, d in zip(capacities, _in_counts(graph, subset))]
    return all(cut is None for _, _, cut in _slack_cuts(graph, ((a, 1) for a in subset), supply, 1))


def is_b_branching(graph: Digraph, capacities: CapacityVector, arcs: Iterable[int]) -> bool:
    """Conjunction of the indegree and sparsity independence tests."""
    capacities.check_domain(graph)
    subset = _check_subset(graph, arcs)
    return _within(capacities, _in_counts(graph, subset)) and not saturated_components(
        graph, capacities, subset
    )


@dataclass(frozen=True)
class BBranching:
    """A validated feasible arc set with its cached indegree profile."""

    graph: Digraph
    capacities: CapacityVector
    arcs: frozenset
    indegrees: Mapping[int, int] = field(compare=False)

    @classmethod
    def of(cls, graph: Digraph, capacities: CapacityVector, arcs: Iterable[int]) -> "BBranching":
        subset = _check_subset(graph, arcs)
        capacities.check_domain(graph)
        counts = _in_counts(graph, subset)
        if not _within(capacities, counts) or saturated_components(graph, capacities, subset):
            raise ValueError("arc set violates the indegree or sparsity constraints")
        return cls(graph, capacities, subset, dict(enumerate(counts)))

    def __len__(self) -> int:
        return len(self.arcs)

    def __iter__(self):
        return iter(sorted(self.arcs))
