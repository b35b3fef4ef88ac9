"""Directed multigraph on vertices 0..n-1 and arcs 0..m-1, arc-subset
queries, strong components and the max flow behind every cut check.

A problem instance is one fixed digraph: capacities, weights and every arc
set are indexed by its vertices 0..n-1 and its arcs 0..m-1.  `Digraph`
enforces that id rule, so no caller relabels or maps ids.  Parallel arcs
and self-loops are allowed everywhere.

`Digraph.tails`, `Digraph.heads` and `Digraph.entering` hand out the flat
tuples for hot loops to index; public functions check a caller's ids once
(-1 would wrap round) and internal callers pass checked ids.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


def _count_ids(ids: Iterable[int], kind: str) -> int:
    """How many ids there are; ValueError unless they are 0..n-1, each once."""
    ids = list(ids)
    n = len(ids)
    seen = [False] * n
    for i in ids:
        if type(i) is not int or not 0 <= i < n:
            raise ValueError(f"{kind} id {i!r} is not in 0..{n - 1}")
        if seen[i]:
            raise ValueError(f"duplicate {kind} id {i}")
        seen[i] = True
    return n


class Digraph:
    """Immutable directed multigraph.

    The vertices are exactly the ids 0..n-1 and the arcs are (id, tail, head)
    triples whose ids are exactly 0..m-1, each given once, in any order.  Any
    other id raises ValueError naming it; ids are never relabelled.  Tails,
    heads and the arcs entering each vertex are flat sequences indexed by id.
    Instances never mutate after construction and are safe to share between
    threads.
    """

    __slots__ = ("_tails", "_heads", "_in")

    def __init__(self, vertices: Iterable[int], arcs: Iterable[tuple[int, int, int]]):
        n = _count_ids(vertices, "vertex")
        arcs = list(arcs)
        m = _count_ids([arc[0] for arc in arcs], "arc")
        tails = [0] * m
        heads = [0] * m
        for arc_id, tail, head in arcs:
            if not (type(tail) is int and type(head) is int and 0 <= tail < n and 0 <= head < n):
                raise ValueError(f"arc {arc_id}=({tail!r},{head!r}) has an unknown endpoint")
            tails[arc_id] = tail
            heads[arc_id] = head
        incoming: list[list[int]] = [[] for _ in range(n)]
        for arc_id, head in enumerate(heads):
            incoming[head].append(arc_id)
        self._tails, self._heads = tuple(tails), tuple(heads)
        self._in = tuple(map(tuple, incoming))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Digraph":
        """Build a graph on vertices 0..n-1; arc ids are positions in `pairs`."""
        return cls(range(n), [(i, t, h) for i, (t, h) in enumerate(pairs)])

    @property
    def vertices(self) -> range:
        return range(len(self._in))

    @property
    def arc_ids(self) -> range:
        return range(len(self._tails))

    @property
    def tails(self) -> tuple[int, ...]:
        return self._tails

    @property
    def heads(self) -> tuple[int, ...]:
        return self._heads

    @property
    def entering(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the arcs entering it (self-loops included), ascending ids."""
        return self._in

    @property
    def vertex_count(self) -> int:
        return len(self._in)

    @property
    def arc_count(self) -> int:
        return len(self._tails)

    def tail(self, arc_id: int) -> int:
        if 0 <= arc_id < len(self._tails):
            return self._tails[arc_id]
        raise ValueError(f"unknown arc id {arc_id}")

    def head(self, arc_id: int) -> int:
        if 0 <= arc_id < len(self._heads):
            return self._heads[arc_id]
        raise ValueError(f"unknown arc id {arc_id}")

    def endpoints(self, arc_id: int) -> tuple[int, int]:
        return self.tail(arc_id), self.head(arc_id)

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """(id, tail, head) in ascending id order."""
        return zip(range(len(self._tails)), self._tails, self._heads)

    def in_arc_ids(self, v: int) -> tuple[int, ...]:
        """All arcs entering v (self-loops at v included), ascending ids."""
        if 0 <= v < len(self._in):
            return self._in[v]
        raise ValueError(f"unknown vertex id {v}")

    def __repr__(self) -> str:
        return f"Digraph(|V|={self.vertex_count}, |A|={self.arc_count})"


def _check_subset(graph: Digraph, arcs: Iterable[int]) -> frozenset:
    subset = frozenset(arcs)
    # One range lookup per arc: a small subset of a large graph stays cheap.
    if not all(map(graph.arc_ids.__contains__, subset)):
        raise ValueError(f"arc ids not in graph: {sorted(subset.difference(graph.arc_ids))}")
    return subset


def in_arcs(graph: Digraph, arcs: Iterable[int], v: int) -> frozenset:
    """Arcs of the given subset entering v (self-loops at v included)."""
    subset = _check_subset(graph, arcs)
    return frozenset(a for a in graph.in_arc_ids(v) if a in subset)


def induced_arcs(graph: Digraph, arcs: Iterable[int], vertex_set: Iterable[int]) -> frozenset:
    """Arcs of the given subset with both endpoints inside `vertex_set`."""
    subset = _check_subset(graph, arcs)
    inside = frozenset(vertex_set)
    bad = inside.difference(graph.vertices)
    if bad:
        raise ValueError(f"unknown vertex ids: {sorted(bad)}")
    return frozenset(
        a for a in subset if graph.tail(a) in inside and graph.head(a) in inside
    )


def _component_labels(succ: list, roots: Iterable[int]) -> list[int]:
    """Iterative Tarjan: each vertex's component root, -1 if unreached; the
    stack holds the visited, unlabelled vertices."""
    n = len(succ)
    index, low, label = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    counter = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, children = work[-1]
            for w in children:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = v
                        if w == v:
                            break
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return label


def _add_arc(net: list, tail: int, head: int, capacity: int) -> None:
    net[tail][head] = net[tail].get(head, 0) + capacity
    net[head].setdefault(tail, 0)


def _augment(net: list, source: int, sinks: set, limit: int) -> tuple[int, list]:
    """Push up to `limit` units from `source` into `sinks` along shortest
    augmenting paths in `net` (residual capacities net[u][w], left intact).
    Returns the flow and the residual network it leaves, a fresh copy, so a
    residual can be passed back in to augment from the flow it holds."""
    res = [dict(row) for row in net]
    flow = 0
    while flow < limit:
        parent = {source: source}
        queue = [source]
        end = None
        for u in queue:
            for w, c in res[u].items():
                if c > 0 and w not in parent:
                    parent[w] = u
                    if w in sinks:
                        end = w
                        break
                    queue.append(w)
            if end is not None:
                break
        if end is None:
            break
        path = []
        while end != source:
            path.append((parent[end], end))
            end = parent[end]
        push = min(limit - flow, min(res[u][w] for u, w in path))
        for u, w in path:
            res[u][w] -= push
            res[w][u] += push
        flow += push
    return flow, res


def _least_cut(
    res: list,
    source: int,
    sinks: Iterable[int],
    reached: frozenset = frozenset(),
    most: Optional[int] = None,
) -> Optional[frozenset]:
    """The nodes below `source` that reach a sink in the residual network
    `res`: the least minimum cut into `sinks` once the flow behind `res` is
    maximum.  `reached` may hold nodes below `source` known to reach a sink,
    together with every node below `source` that reaches them; they are not
    walked again.  None once the cut would hold more than `most` nodes."""
    reach = set(reached)
    stack = [w for w in sinks if w not in reach]
    reach.update(stack)
    size = len(reached) + sum(1 for w in stack if w < source)
    if most is not None and size > most:
        return None
    while stack:
        w = stack.pop()
        for u in res[w]:
            if u not in reach and res[u][w] > 0:
                reach.add(u)
                stack.append(u)
                if u < source:
                    size += 1
                    if most is not None and size > most:
                        return None
    return frozenset(u for u in reach if u < source)


def strong_components(graph: Digraph, arcs: Iterable[int]) -> tuple[frozenset, ...]:
    """Strong components of (V, F) for the arc subset F.

    Returns a partition of the vertex set, sorted by minimum member id.
    Iterative Tarjan, so deep graphs do not hit the recursion limit.
    """
    subset = _check_subset(graph, arcs)
    tails, heads = graph.tails, graph.heads
    succ: list[list[int]] = [[] for _ in graph.vertices]
    for a in subset:
        succ[tails[a]].append(heads[a])
    members: dict = {}  # ordered by least member
    for v, c in enumerate(_component_labels(succ, graph.vertices)):
        members.setdefault(c, []).append(v)
    return tuple(map(frozenset, members.values()))
