"""Packing arc-disjoint feasible sets with prescribed indegrees.

Feasibility reduces to one vertex-degree condition plus nonnegativity of a
submodular cut-minus-demand function; construction repeatedly locates an
inclusionwise-minimal tight vertex set and commits one arc entering its
demanded region, shrinking the problem until every demand is met.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .digraph import Digraph
from .greedy import WeightVector
from .matroids import (
    CapacityVector,
    DemandVector,
    indegree_profile,
    is_b_branching,
)
from .oracle import DEFAULT_GATE, SizeGate, brute_min_set_function


class InfeasiblePackingError(ValueError):
    """Raised when a construction is attempted on an infeasible instance."""


@dataclass(frozen=True)
class Feasibility:
    """Outcome of a feasibility check, with a violating witness on failure."""

    ok: bool
    vertex: Optional[int] = None
    subset: Optional[frozenset] = None

    def __bool__(self) -> bool:
        return self.ok


class SfmBackend(ABC):
    """Minimizer for integer set functions given by an evaluation oracle."""

    @abstractmethod
    def minimize(
        self,
        func: Callable[[frozenset], int],
        vertices: Iterable[int],
        constraint: Optional[Callable[[frozenset], bool]] = None,
    ) -> tuple[frozenset, int]:
        """Return (minimizer, value); the minimizer is inclusionwise minimal,
        with ties broken by cardinality and then lexicographic vertex order."""


class BruteForceSfm(SfmBackend):
    """Default backend: exhaustive scan, gated to small vertex counts."""

    def __init__(self, gate: SizeGate = DEFAULT_GATE):
        self.gate = gate

    def minimize(self, func, vertices, constraint=None):
        return brute_min_set_function(func, vertices, constraint=constraint, gate=self.gate)


_DEFAULT_BACKEND = BruteForceSfm()


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
    capacities: CapacityVector, demands: Sequence[Mapping[int, int]], subset: frozenset
) -> int:
    if not subset:
        return 0
    total = capacities.total(subset)
    return sum(1 for d in demands if sum(d[v] for v in subset) == total)


def g_value(instance: PackingInstance, subset: Iterable[int]) -> int:
    """How many demand vectors saturate the capacity sum of the vertex set."""
    members = frozenset(subset)
    if not members <= instance.graph.vertex_set:
        raise ValueError("unknown vertex ids")
    return _demand_count(
        instance.capacities, [d.as_dict() for d in instance.demands], members
    )


def _shortfall(
    graph: Digraph,
    capacities: CapacityVector,
    alive: frozenset,
    demands: Sequence[Mapping[int, int]],
    subset: frozenset,
) -> int:
    """Arcs of `alive` entering the vertex set from outside (loops excluded),
    minus the demands saturating it; the cut condition says it is never negative."""
    cut = 0
    for v in subset:
        for a in graph.in_arc_ids(v):
            if a in alive and graph.tail(a) not in subset:
                cut += 1
    return cut - _demand_count(capacities, demands, subset)


def _packing_conditions(
    graph: Digraph,
    capacities: CapacityVector,
    alive: frozenset,
    demands: Sequence[Mapping[int, int]],
    backend: SfmBackend,
) -> Feasibility:
    """Degree condition per vertex, then the cut condition via one SFM call."""
    for v in graph.vertices:
        if sum(1 for a in graph.in_arc_ids(v) if a in alive) < sum(d[v] for d in demands):
            return Feasibility(False, vertex=v)
    if graph.vertex_count == 0:
        return Feasibility(True)
    shortfall = functools.partial(_shortfall, graph, capacities, alive, demands)
    witness, value = backend.minimize(shortfall, graph.vertices)
    if value < 0:
        return Feasibility(False, subset=witness)
    return Feasibility(True)


def check_packing_conditions(
    instance: PackingInstance, backend: Optional[SfmBackend] = None
) -> Feasibility:
    """Degree condition per vertex, cut condition via set-function minimization."""
    graph = instance.graph
    demands = [d.as_dict() for d in instance.demands]
    backend = backend or _DEFAULT_BACKEND
    return _packing_conditions(graph, instance.capacities, graph.arc_id_set, demands, backend)


def find_disjoint_b_branchings(
    instance: PackingInstance, backend: Optional[SfmBackend] = None
) -> PackingResult:
    """Construct the disjoint parts for a feasible instance.

    Demands are served round-robin.  Each step finds the inclusionwise-minimal
    vertex set that is tight for the cut condition and meets the active
    demand's frontier, then commits the smallest-id arc running within it from
    the unsaturated side into the demanded side.  Every step preserves both
    feasibility conditions (checked), so the loop always completes.
    """
    backend = backend or _DEFAULT_BACKEND
    feasibility = check_packing_conditions(instance, backend)
    if not feasibility:
        raise InfeasiblePackingError(f"instance is infeasible: {feasibility}")

    graph = instance.graph
    capacities = instance.capacities
    alive = set(graph.arc_id_set)
    demands = [d.as_dict() for d in instance.demands]
    parts: list[set[int]] = [set() for _ in demands]
    pointer = 0
    k = len(demands)

    while True:
        active_index = None
        for offset in range(k):
            i = (pointer + offset) % k
            if any(demands[i].values()):
                active_index = i
                break
        if active_index is None:
            break
        pointer = (active_index + 1) % k
        active = demands[active_index]

        zero = frozenset(v for v in graph.vertices if active[v] == 0)
        full = frozenset(v for v in graph.vertices if active[v] == capacities[v])
        partial = graph.vertex_set - zero - full

        def frontier(subset: frozenset) -> bool:
            return bool(subset & (zero | partial)) and bool(subset - zero)

        shortfall = functools.partial(_shortfall, graph, capacities, frozenset(alive), demands)
        tight, value = backend.minimize(shortfall, graph.vertices, constraint=frontier)
        if value != 0:
            raise AssertionError(
                "feasible instance must have a tight set (the whole vertex set qualifies)"
            )

        sources = tight & (zero | partial)
        targets = tight & (partial | full)
        arc = min(
            (
                a
                for a in alive
                if graph.tail(a) in sources and graph.head(a) in targets
            ),
            default=None,
        )
        if arc is None:
            raise AssertionError("a transferable arc must exist inside the tight set")

        parts[active_index].add(arc)
        alive.discard(arc)
        active[graph.head(arc)] -= 1
        if not _packing_conditions(graph, capacities, frozenset(alive), demands, backend):
            raise AssertionError("committing an arc must preserve the packing conditions")

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
    backend: Optional[SfmBackend] = None,
) -> tuple[Feasibility, Optional[frozenset]]:
    """Single-part case: is there a feasible set with this exact indegree?"""
    demand.validate_against(capacities)
    instance = PackingInstance(graph, capacities, (demand,))
    feasibility = check_packing_conditions(instance, backend)
    if not feasibility:
        return feasibility, None
    result = find_disjoint_b_branchings(instance, backend)
    return feasibility, result.branchings[0]


def min_weight_disjoint_b_branchings(
    instance: PackingInstance,
    weights: Union[WeightVector, Iterable],
    gate: SizeGate = DEFAULT_GATE,
    backend: Optional[SfmBackend] = None,
) -> PackingResult:
    """Minimum-total-weight packing by exhaustive search (test oracle only).

    Scans candidate unions with the exact combined indegrees, keeps the
    lightest one whose restricted instance stays feasible, then partitions it
    with the constructive procedure.  Deterministic: ties go to the earliest
    candidate in lexicographic arc order.
    """
    backend = backend or _DEFAULT_BACKEND
    graph = instance.graph
    gate.check_arcs(graph.arc_count)
    wv = WeightVector.coerce(weights, graph.arc_count)
    feasibility = check_packing_conditions(instance, backend)
    if not feasibility:
        raise InfeasiblePackingError(f"instance is infeasible: {feasibility}")

    demands = [d.as_dict() for d in instance.demands]
    needed = {v: sum(d[v] for d in demands) for v in graph.vertices}
    union_size = sum(needed.values())

    best: Optional[tuple[int, tuple[int, ...]]] = None
    for combo in combinations(graph.arc_ids, union_size):
        profile: dict[int, int] = {}
        for a in combo:
            h = graph.head(a)
            profile[h] = profile.get(h, 0) + 1
        if any(profile.get(v, 0) != needed[v] for v in graph.vertices):
            continue
        if not _packing_conditions(graph, instance.capacities, frozenset(combo), demands, backend):
            continue
        weight = sum(wv.numerators[a] for a in combo)
        if best is None or weight < best[0]:
            best = (weight, combo)
    if best is None:
        raise AssertionError("a feasible instance must admit at least one candidate union")

    sub = Digraph(
        graph.vertices, [(a, *graph.endpoints(a)) for a in best[1]]
    )
    restricted = PackingInstance(sub, instance.capacities, instance.demands)
    result = find_disjoint_b_branchings(restricted, backend)
    for part in result.branchings:
        if not is_b_branching(graph, instance.capacities, part):
            raise AssertionError("packed part is not feasible in the original graph")
    return result
