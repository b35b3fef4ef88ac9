"""Directed multigraph with stable arc identities, arc-subset queries and
strong components.

Arc ids are stable and need not be contiguous, so an arc set keeps its
meaning in any graph built from the same arcs.  Parallel arcs and self-loops
are allowed everywhere.
"""

from __future__ import annotations

from typing import Iterable, Iterator

# Arc subsets are plain frozensets of arc ids; iterate with sorted() whenever
# the order matters.
ArcSubset = frozenset


class Digraph:
    """Immutable directed multigraph.

    Vertices are nonnegative integer ids (not necessarily contiguous, so that
    contracted graphs can allocate fresh ids).  Arcs are (id, tail, head)
    triples with distinct ids.  Instances never mutate after construction and
    are safe to share between threads.
    """

    __slots__ = ("_vertices", "_vset", "_tails", "_heads", "_ids", "_idset", "_in")

    def __init__(self, vertices: Iterable[int], arcs: Iterable[tuple[int, int, int]]):
        verts = sorted({int(v) for v in vertices})
        if verts and verts[0] < 0:
            raise ValueError("vertex ids must be nonnegative")
        vset = frozenset(verts)
        tails: dict[int, int] = {}
        heads: dict[int, int] = {}
        incoming: dict[int, list[int]] = {v: [] for v in verts}
        for arc_id, tail, head in arcs:
            if arc_id in tails:
                raise ValueError(f"duplicate arc id {arc_id}")
            if tail not in vset or head not in vset:
                raise ValueError(f"arc {arc_id}=({tail},{head}) has an unknown endpoint")
            tails[arc_id] = tail
            heads[arc_id] = head
            incoming[head].append(arc_id)
        self._vertices = tuple(verts)
        self._vset = vset
        self._tails = tails
        self._heads = heads
        self._ids = tuple(sorted(tails))
        self._idset = frozenset(tails)
        self._in = {v: tuple(sorted(ids)) for v, ids in incoming.items()}

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Digraph":
        """Build a graph on vertices 0..n-1; arc ids are positions in `pairs`."""
        return cls(range(n), [(i, t, h) for i, (t, h) in enumerate(pairs)])

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset:
        return self._vset

    @property
    def arc_ids(self) -> tuple[int, ...]:
        return self._ids

    @property
    def arc_id_set(self) -> frozenset:
        return self._idset

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def arc_count(self) -> int:
        return len(self._ids)

    def tail(self, arc_id: int) -> int:
        return self._tails[arc_id]

    def head(self, arc_id: int) -> int:
        return self._heads[arc_id]

    def endpoints(self, arc_id: int) -> tuple[int, int]:
        return self._tails[arc_id], self._heads[arc_id]

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Yield (id, tail, head) in ascending id order."""
        for a in self._ids:
            yield a, self._tails[a], self._heads[a]

    def in_arc_ids(self, v: int) -> tuple[int, ...]:
        """All arcs entering v (self-loops at v included), ascending ids."""
        try:
            return self._in[v]
        except KeyError:
            raise ValueError(f"unknown vertex id {v}") from None

    def __repr__(self) -> str:
        return f"Digraph(|V|={self.vertex_count}, |A|={self.arc_count})"


def _check_subset(graph: Digraph, arcs: Iterable[int]) -> frozenset:
    subset = frozenset(arcs)
    if not subset <= graph.arc_id_set:
        bad = sorted(subset - graph.arc_id_set)
        raise ValueError(f"arc ids not in graph: {bad}")
    return subset


def in_arcs(graph: Digraph, arcs: Iterable[int], v: int) -> frozenset:
    """Arcs of the given subset entering v (self-loops at v included)."""
    subset = _check_subset(graph, arcs)
    return frozenset(a for a in graph.in_arc_ids(v) if a in subset)


def induced_arcs(graph: Digraph, arcs: Iterable[int], vertex_set: Iterable[int]) -> frozenset:
    """Arcs of the given subset with both endpoints inside `vertex_set`."""
    subset = _check_subset(graph, arcs)
    inside = frozenset(vertex_set)
    if not inside <= graph.vertex_set:
        bad = sorted(inside - graph.vertex_set)
        raise ValueError(f"unknown vertex ids: {bad}")
    return frozenset(
        a for a in subset if graph.tail(a) in inside and graph.head(a) in inside
    )


def strong_components(graph: Digraph, arcs: Iterable[int]) -> tuple[frozenset, ...]:
    """Strong components of (V, F) for the arc subset F.

    Returns a partition of the vertex set, sorted by minimum member id.
    Iterative Tarjan, so deep graphs do not hit the recursion limit.
    """
    subset = _check_subset(graph, arcs)
    succ: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for a in subset:
        succ[graph.tail(a)].append(graph.head(a))

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[frozenset] = []
    counter = 0

    for root in graph.vertices:
        if root in index:
            continue
        # Explicit DFS stack of (vertex, iterator position).
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            children = succ[v]
            while pos < len(children):
                w = children[pos]
                pos += 1
                if w not in index:
                    work.append((v, pos))
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return tuple(sorted(components, key=min))
