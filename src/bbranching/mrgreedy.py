"""Matroid-restricted variant: an arbitrary rank-b(v) matroid per vertex.

The plain solver's phase engine runs with the per-vertex oracles attached:
selection at an original vertex is the matroid greedy (heaviest first, keep
what stays independent), and the replacement arc for a reattached arc is the
cheapest other member of its fundamental circuit in the head's matroid.
Contracted vertices follow the capacity rule with capacity one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .digraph import Digraph
from .greedy import RationalLike, WeightVector
from .matroids import CapacityVector, MatroidOracle, _in_counts, _within, saturated_components
from .phases import OracleInconsistencyError, _run_phases


@dataclass(frozen=True)
class MatroidAssignment:
    """One independence oracle per vertex, over that vertex's entering arcs."""

    oracles: Mapping[int, MatroidOracle]

    def validate(self, graph: Digraph, capacities: CapacityVector) -> None:
        capacities.check_domain(graph)
        if set(self.oracles) != set(graph.vertices):
            raise ValueError("exactly one oracle per vertex is required")
        for v, entering in enumerate(graph.entering):
            oracle = self.oracles[v]
            if oracle.ground != frozenset(entering):
                raise ValueError(f"oracle ground set at vertex {v} is not its entering arcs")
            if oracle.rank != capacities[v]:
                raise ValueError(
                    f"oracle rank mismatch at vertex {v}: {oracle.rank} != {capacities[v]}"
                )


def mr_max_weight_b_branching(
    graph: Digraph,
    capacities: CapacityVector,
    weights: Union[WeightVector, Iterable[RationalLike]],
    assignment: MatroidAssignment,
) -> frozenset:
    """Maximum-weight arc set independent in every vertex oracle and sparse.

    Arcs with negative weight, and arcs dependent on their own (loops of the
    head's matroid), can never be used and are dropped up front.
    """
    assignment.validate(graph, capacities)
    wv = WeightVector.coerce(weights, graph.arc_count)
    nums = wv.numerators
    oracles = dict(assignment.oracles)

    wnum = {
        a: nums[a] for a, _, h in graph.arcs() if nums[a] >= 0 and oracles[h].is_independent((a,))
    }
    final, _ = _run_phases(graph, capacities, wnum, oracles)

    for v, entering in enumerate(graph.entering):
        mine = [a for a in entering if a in final]
        if not oracles[v].is_independent(mine):
            raise OracleInconsistencyError(f"output is dependent at vertex {v}")
    if not _within(capacities, _in_counts(graph, final)):
        raise OracleInconsistencyError("output exceeds a vertex capacity")
    if saturated_components(graph, capacities, final):
        raise AssertionError("output violates the sparsity constraints")
    return final
