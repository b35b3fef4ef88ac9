"""The selection/contraction phase engine behind both greedy solvers.

Each phase picks, per vertex, the heaviest entering arcs within capacity.
Strong components whose induced selection saturates the capacity sum are
contracted into one vertex of capacity one, the arcs entering it get an
exchange adjustment, and the phases repeat.  Unwinding the contractions
yields the solution.  The contraction history also records each contracted
set's dual potential, its cheapest internal arc's working weight less that
of the arc selected into the new vertex, so the dual replay only charges it.

The engine is incremental, after Tarjan's efficient form of Edmonds'
branching algorithm.  A contraction changes only the arcs entering the new
vertex, so every other vertex keeps its selection and the new vertex alone
is reselected; a tight component of a later phase must pass through a new
vertex, so only the selected arcs behind the new vertices are searched.
A contracted vertex holds a group of original vertices: each original vertex
carries its group's label and each group names the vertex that holds it, so
an arc's current tail is two list reads.  A contraction relabels the smaller
member groups into the largest, O(|V| log |V|) relabels over a run.  The
arcs entering a contracted vertex sit in heaps merged smaller into larger,
with each member's exchange adjustment applied as one offset; arcs whose
tail the vertex has absorbed are skipped when they surface, and the heap of
a vertex that holds every vertex is cleared, as no arc can enter it.  No
graph is rebuilt.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .digraph import Digraph
from .matroids import fundamental_circuit, saturated_components


class OracleInconsistencyError(RuntimeError):
    """An attached oracle answered in a way no matroid can."""


class ContractionStep(NamedTuple):
    """One contraction, as much of it as unwinding and the dual replay read.

    `merged` holds the contracted vertices (their ids at the time, sorted)
    and `new_vertex` the fresh capacity-one vertex that replaced them;
    `internal` holds the selected arcs among them and `cheapest_internal`
    the lightest of those (ties to the smaller id).  `potential` is the
    set's dual potential, never negative: the working weight of
    `cheapest_internal` less that of the arc selected into the new vertex
    (0 when none is).  `replacement` maps each member to the arc that leaves
    the solution when the arc kept into the new vertex enters through that
    member: the member's cheapest selected arc under the capacity rule, or,
    for a member with a matroid oracle, a map from each arc entering it to
    the cheapest other arc of that arc's fundamental circuit.
    """

    merged: tuple[int, ...]
    new_vertex: int
    internal: frozenset
    cheapest_internal: int
    potential: int
    replacement: Mapping[int, Union[int, Mapping[int, int]]]


# `oracles` maps a vertex to its matroid over the entering arcs.  A vertex
# without one (every vertex of the plain problem, every contracted vertex)
# follows the capacity rule, i.e. a rank-caps[v] uniform matroid.


def _select_at(
    arcs: Iterable[int], cap: int, weights: Sequence[Optional[int]], oracle
) -> list[int]:
    """The matroid greedy over the positive arcs entering one vertex:
    heaviest first, ties to the smaller id, each kept while independent.

    `weights` is indexed by arc id, None for an arc outside the working
    graph; `arcs` come in ascending ids, so a stable sort breaks the ties.
    """
    cand = [a for a in arcs if weights[a] is not None and weights[a] > 0]
    if oracle is not None or len(cand) > cap:
        cand.sort(key=weights.__getitem__, reverse=True)
    if oracle is None:
        return cand[:cap]
    picked: list[int] = []
    for a in cand:
        if len(picked) >= cap:
            break
        if oracle.is_independent((*picked, a)):
            picked.append(a)
    return picked


def _run_phases(
    graph: Digraph, caps: Sequence[int], wnum: Mapping[int, int], oracles: Mapping
) -> tuple[frozenset, list[tuple[ContractionStep, ...]]]:
    """Run selection/contraction phases, then expand back to original arcs.

    The working graph is `graph` restricted to the arcs that `wnum` weighs.
    Returns the solution and the contraction history: one tuple of steps per
    phase, the last one empty.  `caps` and `wnum` are only read.
    """
    tails, heads, entering = graph.tails, graph.heads, graph.entering
    n = graph.vertex_count
    weight = list(map(wnum.get, range(graph.arc_count)))  # None off the working graph
    link: dict[int, int] = {}  # contracted vertex -> the vertex it became part of
    # Each original vertex's group, each group's original vertices and the
    # vertex holding it, and each vertex's group while it is current (vertex
    # ids are consecutive, so a new vertex appends its group).
    group = list(range(n))
    inside = [[v] for v in range(n)]
    holder = list(range(n))
    group_at = list(range(n))

    selected_at: dict[int, list[int]] = {}  # current vertex -> its selected arcs
    weight_of: dict[int, int] = {}  # selected arc -> working weight when selected
    # Per contracted vertex: a heap of (offset - working weight, arc) over
    # the arcs entering it, that offset, and how many arcs the heap has
    # received in all.  Arcs whose tail the vertex has since absorbed are
    # skipped when they surface.
    pools: dict[int, tuple[list, int, int]] = {}
    dead: set[int] = set()  # reachable from an unsaturated vertex, so never tight

    def saturated(v: int) -> bool:
        return len(selected_at[v]) == (1 if v in pools else caps[v])

    def merge(members: list[int], z: int) -> ContractionStep:
        internal = [a for y in members for a in selected_at[y]]
        if not internal:
            raise AssertionError("tight component with empty selection")
        cheapest = min(internal, key=lambda a: (weight_of[a], a))
        anchor = weight_of[cheapest]
        # Exchange adjustment of the arcs entering through each member:
        # one constant per member under the capacity rule.
        replacement: dict[int, Union[int, dict[int, int]]] = {}
        shift: dict[int, int] = {}
        for y in members:
            if oracles.get(y) is None:
                if not selected_at[y]:
                    raise AssertionError(f"saturated vertex {y} has no selected entering arc")
                alpha = min(selected_at[y], key=lambda a: (weight_of[a], a))
                replacement[y] = alpha
                shift[y] = anchor - weight_of[alpha]
        # The largest member group becomes the new vertex's group, and the
        # vertices of every other one are relabelled into it, so a vertex is
        # relabelled only into a group at least twice the size of its own.
        groups = [group_at[y] for y in members]
        gz = max(groups, key=lambda g: len(inside[g]))
        for g in groups:
            if g != gz:
                for v in inside[g]:
                    group[v] = gz
                inside[gz] += inside[g]
                inside[g] = []
        holder[gz] = z
        group_at.append(gz)
        for y in members:
            link[y] = z

        # The member heap that has received the most arcs becomes the new
        # vertex's heap in place and every other entering arc moves into
        # it, so a moved arc lands in a heap that has received at least
        # twice as many arcs as the one it left.
        base = max((y for y in members if y in pools), key=lambda y: pools[y][2], default=None)
        if base is None:
            heap, off, size = [], 0, 0
        else:
            heap, off, size = pools.pop(base)
            off += shift[base]
        added: list[tuple[int, int]] = []
        for y in members:
            if y == base:
                continue
            if y in pools:
                entries, y_off, _ = pools.pop(y)
                move = y_off + shift[y] - off
                added.extend((key - move, a) for key, a in entries)
            elif oracles.get(y) is None:
                move = shift[y] - off
                added.extend(
                    (-weight[a] - move, a)
                    for a in entering[y]
                    if weight[a] is not None and group[tails[a]] != gz
                )
            else:
                # A matroid member: each arc has its own fundamental circuit,
                # so each gets an explicit adjusted weight.
                oracle, chosen = oracles[y], selected_at[y]
                circuit_rule: dict[int, int] = {}
                for a in entering[y]:
                    if weight[a] is None or group[tails[a]] == gz:
                        continue
                    circuit = fundamental_circuit(oracle, chosen, a)
                    if circuit is None:
                        raise OracleInconsistencyError(
                            f"vertex {y} is saturated yet accepts another arc"
                        )
                    pool = circuit - {a}
                    if not pool:
                        raise OracleInconsistencyError(
                            f"arc {a} became a matroid loop after preprocessing"
                        )
                    alpha = circuit_rule[a] = min(pool, key=lambda f: (weight_of[f], f))
                    added.append((off - (weight[a] - weight_of[alpha] + anchor), a))
                replacement[y] = circuit_rule
        if len(added) > len(heap):
            heap += added
            heapify(heap)
        else:
            for item in added:
                heappush(heap, item)
        pools[z] = (heap, off, size + len(added))
        for y in members:
            del selected_at[y]

        # The capacity-one choice at the new vertex: its heaviest positive
        # entering arc.  That arc entered through a member that passed it
        # over, so its working weight is at most the anchor.  Once the new
        # vertex holds every vertex, no arc enters it from outside.
        if len(inside[gz]) == n:
            heap.clear()
        while heap and group[tails[heap[0][1]]] == gz:
            heappop(heap)
        selected_at[z] = []
        inflow = 0
        if heap and off - heap[0][0] > 0:
            key, a = heap[0]
            selected_at[z].append(a)
            inflow = weight_of[a] = off - key
        if inflow > anchor:
            raise AssertionError(f"negative potential {anchor - inflow} at contraction {z}")
        return ContractionStep(
            tuple(members), z, frozenset(internal), cheapest, anchor - inflow, replacement
        )

    def tight_through(fresh: list[int]) -> list[frozenset]:
        """Tight components containing a new vertex; a later phase has no
        others.  A tight component holding z is exactly the set of vertices
        behind z (selected arcs admit nothing from outside it), so walk the
        selected arcs backwards, give up at an unsaturated or dead vertex,
        and check that z reaches everything it found."""
        found: list[frozenset] = []
        claimed: set[int] = set()
        for z in fresh:
            if z in claimed:
                continue
            behind: dict[int, Optional[int]] = {z: None}  # vertex -> found from
            ahead: dict[int, list[int]] = {}
            stack = [z]
            blocked = None
            while stack:
                u = stack.pop()
                if u in dead or not saturated(u):
                    blocked = u
                    break
                for a in selected_at[u]:
                    t = holder[group[tails[a]]]
                    ahead.setdefault(t, []).append(u)
                    if t not in behind:
                        behind[t] = u
                        stack.append(t)
            if blocked is not None:
                # Everything on the path from the blocker to z is reachable
                # from an unsaturated vertex, now and in every later phase.
                while blocked is not None:
                    dead.add(blocked)
                    blocked = behind[blocked]
                continue
            reached, stack = {z}, [z]
            while stack:
                for w in ahead.get(stack.pop(), ()):
                    if w not in reached:
                        reached.add(w)
                        stack.append(w)
            if len(reached) == len(behind):
                found.append(frozenset(behind))
                claimed.update(behind)
        return sorted(found, key=min)

    for v in graph.vertices:
        chosen = _select_at(entering[v], caps[v], weight, oracles.get(v))
        selected_at[v] = chosen
        for a in chosen:
            weight_of[a] = weight[a]
    tight = saturated_components(graph, caps, frozenset(weight_of))

    history: list[tuple[ContractionStep, ...]] = []
    phase_limit = graph.vertex_count + len(wnum) + 1
    next_vertex = graph.vertex_count
    while tight:
        steps = []
        for component in tight:
            steps.append(merge(sorted(component), next_vertex))
            next_vertex += 1
        history.append(tuple(steps))
        if len(history) > phase_limit:
            raise AssertionError(
                "phase count exceeded its bound; contraction is not making progress"
            )
        tight = tight_through([step.new_vertex for step in steps])
    history.append(())

    # Unwind top-down.  The arc kept into a contracted vertex also enters
    # every contracted vertex between it and the arc's original head.
    final: set[int] = set()
    incoming: dict[int, tuple[int, int]] = {}  # contracted vertex -> (arc, member)

    def keep(a: int, stop: Optional[int]) -> None:
        final.add(a)
        u = heads[a]
        while (p := link.get(u)) != stop:
            if p in incoming:
                raise AssertionError("more than one selected arc enters a contracted vertex")
            incoming[p] = (a, u)
            u = p

    for chosen in selected_at.values():
        for a in chosen:
            keep(a, None)
    for steps in reversed(history):
        for step in reversed(steps):
            entry = incoming.get(step.new_vertex)
            if entry is None:
                drop = step.cheapest_internal
            else:
                a, member = entry
                rule = step.replacement[member]
                drop = rule if isinstance(rule, int) else rule[a]
            for a in step.internal:
                if a != drop:
                    keep(a, step.new_vertex)
    return frozenset(final), history
