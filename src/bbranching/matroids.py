"""The two matroids behind degree-capped branchings, plus generic oracles.

An arc set F is feasible ("a b-branching") when it is independent in both
the indegree matroid (at most b(v) arcs entering each vertex v) and the
sparsity matroid (|F[X]| <= b(X) - 1 for every nonempty vertex set X).
For indegree-independent sets the sparsity test reduces to inspecting
strong components, which is what the detection routine here implements.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from .digraph import Digraph, strong_components

#: Largest vertex count accepted by the brute-force sparsity fallback.
SPARSITY_BRUTE_FORCE_LIMIT = 20


class IndegreeDependenceError(ValueError):
    """Raised when an operation requires an indegree-independent arc set."""


class CapacityError(ValueError):
    """Raised for malformed or mismatched capacity/demand vectors."""


class _VertexVector:
    """Shared plumbing for integer vectors indexed by vertex id."""

    __slots__ = ("_values",)

    def __init__(self, values: Union[Sequence[int], Mapping[int, int]]):
        if isinstance(values, Mapping):
            items = {int(v): int(c) for v, c in values.items()}
        else:
            items = {i: int(c) for i, c in enumerate(values)}
        self._values = items

    def __getitem__(self, v: int) -> int:
        try:
            return self._values[v]
        except KeyError:
            raise CapacityError(f"no entry for vertex {v}") from None

    def __contains__(self, v: int) -> bool:
        return v in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _VertexVector):
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._values))

    def as_dict(self) -> dict[int, int]:
        return dict(self._values)

    def total(self, vertex_set: Iterable[int]) -> int:
        """Sum of entries over a vertex set."""
        return sum(self._values[v] for v in vertex_set)

    def check_domain(self, graph: Digraph) -> None:
        if set(self._values) != set(graph.vertices):
            raise CapacityError("vector domain does not match the graph's vertex set")


class CapacityVector(_VertexVector):
    """Positive integer capacity per vertex."""

    def __init__(self, values: Union[Sequence[int], Mapping[int, int]]):
        super().__init__(values)
        for v, c in self._values.items():
            if c < 1:
                raise CapacityError(f"capacity at vertex {v} must be >= 1, got {c}")

    @classmethod
    def uniform(cls, graph: Digraph, value: int = 1) -> "CapacityVector":
        return cls({v: value for v in graph.vertices})

    def __repr__(self) -> str:
        return f"CapacityVector({self._values!r})"


class DemandVector(_VertexVector):
    """Nonnegative prescribed indegree per vertex."""

    def __init__(self, values: Union[Sequence[int], Mapping[int, int]]):
        super().__init__(values)
        for v, c in self._values.items():
            if c < 0:
                raise CapacityError(f"demand at vertex {v} must be >= 0, got {c}")

    def validate_against(self, capacities: CapacityVector) -> None:
        """Demands must stay below capacities somewhere: b' <= b and b' != b."""
        if set(self._values) != set(capacities.as_dict()):
            raise CapacityError("demand domain does not match the capacity domain")
        equal = True
        for v, c in self._values.items():
            cap = capacities[v]
            if c > cap:
                raise CapacityError(f"demand {c} exceeds capacity {cap} at vertex {v}")
            if c != cap:
                equal = False
        if equal:
            raise CapacityError("demand vector must differ from the capacity vector")

    def __repr__(self) -> str:
        return f"DemandVector({self._values!r})"


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

    def is_independent(self, subset: Iterable[int]) -> bool:
        members = self._as_members(subset)
        return all(len(members & block) <= cap for block, cap in zip(self.blocks, self.caps))


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


def indegree_independent(graph: Digraph, capacities: CapacityVector, arcs: Iterable[int]) -> bool:
    """Whether every vertex receives at most its capacity in the arc set."""
    capacities.check_domain(graph)
    counts: dict[int, int] = {}
    for a in arcs:
        h = graph.head(a)
        counts[h] = counts.get(h, 0) + 1
    return all(c <= capacities[v] for v, c in counts.items())


def indegree_profile(graph: Digraph, arcs: Iterable[int]) -> dict[int, int]:
    """Number of arcs of the subset entering each vertex (loops included)."""
    profile = {v: 0 for v in graph.vertices}
    for a in arcs:
        profile[graph.head(a)] += 1
    return profile


def saturated_components(
    graph: Digraph, caps: Mapping[int, int], arcs: frozenset
) -> list[frozenset]:
    """Strong components X of (V, F) with |F[X]| = b(X), for `caps` indexable
    by vertex.  Unchecked: for indegree-independent F these are exactly the
    sparsity-violating components.  Sorted by minimum vertex id."""
    comps = strong_components(graph, arcs)
    component_of: dict[int, int] = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            component_of[v] = idx
    induced_counts = [0] * len(comps)
    for a in arcs:
        ct = component_of[graph.tail(a)]
        if ct == component_of[graph.head(a)]:
            induced_counts[ct] += 1
    return [
        comp
        for idx, comp in enumerate(comps)
        if induced_counts[idx] == sum(caps[v] for v in comp)
    ]


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


def _sparsity_brute_force(graph: Digraph, capacities: CapacityVector, subset: frozenset) -> bool:
    n = graph.vertex_count
    if n > SPARSITY_BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute-force sparsity check limited to {SPARSITY_BRUTE_FORCE_LIMIT} vertices, got {n}"
        )
    verts = graph.vertices
    pos = {v: i for i, v in enumerate(verts)}
    arc_masks = [(1 << pos[graph.tail(a)]) | (1 << pos[graph.head(a)]) for a in subset]
    caps = [capacities[v] for v in verts]
    for mask in range(1, 1 << n):
        bound = sum(c for i, c in enumerate(caps) if mask >> i & 1) - 1
        count = 0
        for am in arc_masks:
            if am & mask == am:
                count += 1
                if count > bound:
                    return False
    return True


def sparsity_independent(graph: Digraph, capacities: CapacityVector, arcs: Iterable[int]) -> bool:
    """Whether |F[X]| <= b(X) - 1 for every nonempty vertex set X.

    Indegree-independent sets are decided through strong components in
    polynomial time; anything else falls back to a subset scan that is only
    allowed on small graphs.
    """
    subset = frozenset(arcs)
    try:
        return not sparsity_violating_components(graph, capacities, subset)
    except IndegreeDependenceError:
        return _sparsity_brute_force(graph, capacities, subset)


def is_b_branching(graph: Digraph, capacities: CapacityVector, arcs: Iterable[int]) -> bool:
    """Conjunction of the indegree and sparsity independence tests."""
    try:
        return not sparsity_violating_components(graph, capacities, arcs)
    except IndegreeDependenceError:
        return False


@dataclass(frozen=True)
class BBranching:
    """A validated feasible arc set with its cached indegree profile."""

    graph: Digraph
    capacities: CapacityVector
    arcs: frozenset
    indegrees: Mapping[int, int] = field(compare=False)

    @classmethod
    def of(cls, graph: Digraph, capacities: CapacityVector, arcs: Iterable[int]) -> "BBranching":
        subset = frozenset(arcs)
        if not subset <= graph.arc_id_set:
            bad = sorted(subset - graph.arc_id_set)
            raise ValueError(f"arc ids not in graph: {bad}")
        if not is_b_branching(graph, capacities, subset):
            raise ValueError("arc set violates the indegree or sparsity constraints")
        return cls(graph, capacities, subset, indegree_profile(graph, subset))

    def __len__(self) -> int:
        return len(self.arcs)

    def __iter__(self):
        return iter(sorted(self.arcs))
