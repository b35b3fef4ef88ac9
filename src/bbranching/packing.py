"""Packing arc-disjoint feasible sets with prescribed indegrees.

Feasibility reduces to one vertex-degree condition plus nonnegativity of a
cut-minus-demand function: Edmonds' branching condition, decided by k units
of flow reaching every vertex.  Construction repeatedly reads the least tight
vertex set meeting the active demand's frontier off least minimum cuts and
commits one arc entering its demanded region, until every demand is met.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Optional, Sequence

from .digraph import Digraph, _add_arc, _least_cut, _vertex_flows
from .matroids import (
    CapacityVector,
    DemandVector,
    indegree_profile,
    is_b_branching,
)


@dataclass(frozen=True)
class Feasibility:
    """Outcome of a feasibility check, with a violating witness on failure."""

    ok: bool
    vertex: Optional[int] = None
    subset: Optional[frozenset] = None

    def __bool__(self) -> bool:
        return self.ok

    def witness(self) -> dict:
        """The witness as JSON: {"v": vertex}, {"X": sorted subset}, or {}."""
        if self.vertex is not None:
            return {"v": self.vertex}
        if self.subset is not None:
            return {"X": sorted(self.subset)}
        return {}


class InfeasiblePackingError(ValueError):
    """Raised when a construction is attempted on an infeasible instance;
    `feasibility` holds the violated condition and its witness."""

    def __init__(self, feasibility: Feasibility, message: str = "instance is infeasible"):
        super().__init__(f"{message}: {feasibility}")
        self.feasibility = feasibility


@dataclass(frozen=True)
class PackingInstance:
    """A digraph with capacities and one demand vector per wanted part."""

    graph: Digraph
    capacities: CapacityVector
    demands: tuple[DemandVector, ...]

    def __post_init__(self):
        if len(self.demands) < 1:
            raise ValueError("at least one demand vector is required")
        self.capacities.check_domain(self.graph)
        for demand in self.demands:
            demand.validate_against(self.capacities)

    @property
    def k(self) -> int:
        return len(self.demands)


@dataclass(frozen=True)
class PackingResult:
    """The constructed pairwise-disjoint feasible arc sets."""

    branchings: tuple[frozenset, ...]


def _demand_count(
    capacities: CapacityVector, demands: Sequence[Sequence[int]], subset: frozenset
) -> int:
    if not subset:
        return 0
    total = capacities.total(subset)
    return sum(1 for d in demands if sum(d[v] for v in subset) == total)


def g_value(instance: PackingInstance, subset: Iterable[int]) -> int:
    """How many demand vectors saturate the capacity sum of the vertex set."""
    members = frozenset(subset)
    if not members.issubset(instance.graph.vertices):
        raise ValueError("unknown vertex ids")
    return _demand_count(instance.capacities, instance.demands, members)


def _cut_witness(flows: Iterable[tuple]) -> Feasibility:
    """Whether no flow into a vertex (`_vertex_flows`) is short, else the least
    short cut by (flow, size, sorted members): the least minimizer is the
    least cut into each of its members, as the cut function is submodular
    on sets sharing a vertex."""
    short = [(flow, len(cut), sorted(cut)) for flow, _, cut in flows if cut is not None]
    return Feasibility(False, subset=frozenset(min(short)[2])) if short else Feasibility(True)


def _packing_network(
    graph: Digraph,
    capacities: CapacityVector,
    alive: Iterable[int],
    demands: Sequence[Sequence[int]],
) -> list:
    """Source n, node n+1+i per demand i (fed by a unit arc, feeding each
    vertex where the demand is below b) and the non-loop alive arcs: the cut
    into X is rho(X) + k - g(X)."""
    n, k = graph.vertex_count, len(demands)
    net: list[dict] = [{} for _ in range(n + 1 + k)]
    for i, demand in enumerate(demands):
        _add_arc(net, n, n + 1 + i, 1)
        for r in graph.vertices:
            if demand[r] < capacities[r]:
                _add_arc(net, n + 1 + i, r, k + 1)
    tails, heads = graph.tails, graph.heads
    for a in alive:
        if tails[a] != heads[a]:
            _add_arc(net, tails[a], heads[a], 1)
    return net


def _packing_conditions(
    graph: Digraph,
    capacities: CapacityVector,
    alive: AbstractSet[int],
    demands: Sequence[Sequence[int]],
) -> tuple[Feasibility, Optional[list], Iterator]:
    """Degree condition per vertex, then the packing network and, lazily, its
    flows of up to k units into each vertex, whose `_cut_witness` decides the
    cut condition; a failed degree condition has no network and no flows."""
    for v, entering in enumerate(graph.entering):
        if sum(1 for a in entering if a in alive) < sum(d[v] for d in demands):
            return Feasibility(False, vertex=v), None, iter(())
    n = graph.vertex_count
    net = _packing_network(graph, capacities, alive, demands)
    return Feasibility(True), net, _vertex_flows(net, n, range(n), len(demands))


def check_packing_conditions(instance: PackingInstance) -> Feasibility:
    """Degree condition per vertex, cut condition via max flow."""
    degree, _, flows = _packing_conditions(
        instance.graph, instance.capacities, frozenset(instance.graph.arc_ids), instance.demands
    )
    return degree and _cut_witness(flows)


def find_disjoint_b_branchings(instance: PackingInstance) -> PackingResult:
    """Construct the disjoint parts for a feasible instance.

    Demands are served round-robin.  Each step finds the least vertex set, by
    size and then sorted members, that is tight for the cut condition and
    meets the active demand's frontier, then commits the smallest-id arc
    running within it from the unsaturated side into the demanded side.
    Every step preserves both feasibility conditions (checked), so the loop
    always completes.  The entry step is the packing check itself: on an
    infeasible instance it raises InfeasiblePackingError carrying
    `check_packing_conditions`'s verdict, else the first step starts from
    the check's flows.
    """
    graph = instance.graph
    capacities = instance.capacities
    alive = set(graph.arc_ids)
    demands = [list(d) for d in instance.demands]  # each commit lowers one entry
    # Per vertex v, the residual of a flow of value k into v, or None once a
    # commit broke it.  k is the source's whole out-capacity, so a kept flow
    # stays maximum and its residual gives the least cut into v.
    verdict, net, flows = _packing_conditions(graph, capacities, alive, demands)
    flows = list(flows)
    verdict = verdict and _cut_witness(flows)
    if not verdict:
        raise InfeasiblePackingError(verdict)
    residuals = [res for _, res, _ in flows]
    del flows  # so that a residual a commit breaks is freed
    parts: list[set[int]] = [set() for _ in demands]
    pointer = 0
    n, k = graph.vertex_count, len(demands)
    tails, heads = graph.tails, graph.heads

    while True:
        active_index = None
        for offset in range(k):
            i = (pointer + offset) % k
            if any(demands[i]):
                active_index = i
                break
        if active_index is None:
            break
        pointer = (active_index + 1) % k
        active = demands[active_index]

        zero = frozenset(v for v in graph.vertices if active[v] == 0)
        full = frozenset(v for v in graph.vertices if active[v] == capacities[v])
        partial = frozenset(graph.vertices) - zero - full

        # A commit lowers one alive indegree and demand together, so degrees
        # stay fine, and the flows it broke must still reach k.
        broken = [v for v in graph.vertices if residuals[v] is None]
        for v, (flow, res, _) in zip(broken, _vertex_flows(net, n, broken, k)):
            if flow < k:
                raise AssertionError("committing an arc must preserve the packing conditions")
            residuals[v] = res
        least = [_least_cut(res, n, (v,)) for v, res in enumerate(residuals)]
        # The least tight set meeting zero | partial and not inside zero (V is
        # one) is the least tight set holding one of its members, or else one
        # holding u in zero and w in full whose own stay inside zero and full.
        # The flow into u is a maximum flow into {u, w} as well, so the least
        # cut into the pair is what reaches it in u's residual.
        best = min(
            [(n, list(graph.vertices))]
            + [(len(c), sorted(c)) for c in least if c & (zero | partial) and c - zero]
        )
        for u in zero:
            if least[u] <= zero:
                for w in full:
                    if least[w] <= full and len(least[u] | least[w]) <= best[0]:
                        cut = _least_cut(residuals[u], n, (w,), least[u], best[0])
                        if cut is not None:
                            best = min(best, (len(cut), sorted(cut)))
        tight = frozenset(best[1])

        sources = tight & (zero | partial)
        targets = tight & (partial | full)
        arc = min(
            (a for a in alive if tails[a] in sources and heads[a] in targets), default=None
        )
        if arc is None:
            raise AssertionError("a transferable arc must exist inside the tight set")

        parts[active_index].add(arc)
        alive.discard(arc)
        # Edit the network and every kept residual in place.  The arc leaves
        # (loops are not in the network); where the demand at h drops below
        # b(h), its demand node starts to feed h.  A residual keeps its flow
        # while the arc has a unit to spare in it; the feed only adds room.
        tail, head = tails[arc], heads[arc]
        feed = active[head] == capacities[head]
        active[head] -= 1
        if tail != head:
            residuals = [res if res[tail][head] >= 1 else None for res in residuals]
        for res in [net] + [res for res in residuals if res is not None]:
            if tail != head:
                res[tail][head] -= 1
            if feed:
                _add_arc(res, n + 1 + active_index, head, k + 1)

    branchings = tuple(frozenset(part) for part in parts)
    for demand, part in zip(instance.demands, branchings):
        profile = indegree_profile(graph, part)
        if any(profile[v] != demand[v] for v in graph.vertices):
            raise AssertionError("indegree mismatch")
        if not is_b_branching(graph, capacities, part):
            raise AssertionError("constructed part is not feasible")
    return PackingResult(branchings)


def exists_b_branching_with_indegree(
    graph: Digraph,
    capacities: CapacityVector,
    demand: DemandVector,
) -> tuple[Feasibility, Optional[frozenset]]:
    """Single-part case: is there a feasible set with this exact indegree?

    The construction's own entry checks decide it, so the flows run once.
    """
    demand.validate_against(capacities)
    try:
        result = find_disjoint_b_branchings(PackingInstance(graph, capacities, (demand,)))
    except InfeasiblePackingError as error:
        return error.feasibility, None
    return Feasibility(True), result.branchings[0]
