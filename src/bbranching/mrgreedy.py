"""Matroid-restricted variant: an arbitrary rank-b(v) matroid per vertex.

Same phase structure as the plain solver; per-vertex selection becomes the
matroid greedy (heaviest first, keep what stays independent), and the
replacement arc for a reattached arc is the cheapest member of its
fundamental circuit in the head's matroid.  Contracted vertices carry
rank-one uniform matroids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .digraph import Digraph
from .greedy import (
    RationalLike,
    WeightVector,
    _run_phases,
    cheapest_selected_into,
)
from .matroids import (
    CapacityVector,
    IndegreeDependenceError,
    MatroidOracle,
    fundamental_circuit,
    sparsity_violating_components,
)


class OracleInconsistencyError(RuntimeError):
    """An attached oracle answered in a way no matroid can."""


@dataclass(frozen=True)
class MatroidAssignment:
    """One independence oracle per vertex, over that vertex's entering arcs."""

    oracles: Mapping[int, MatroidOracle]

    def validate(self, graph: Digraph, capacities: CapacityVector) -> None:
        if set(self.oracles) != set(graph.vertices):
            raise ValueError("exactly one oracle per vertex is required")
        for v in graph.vertices:
            oracle = self.oracles[v]
            if oracle.ground != frozenset(graph.in_arc_ids(v)):
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
    capacities.check_domain(graph)
    assignment.validate(graph, capacities)
    wv = WeightVector.coerce(weights, graph.arc_count)
    nums = wv.numerators
    oracles = dict(assignment.oracles)

    kept = [
        (a, t, h)
        for a, t, h in graph.arcs()
        if nums[a] >= 0 and oracles[h].is_independent((a,))
    ]
    work = Digraph(graph.vertices, kept)
    caps = capacities.as_dict()
    wnum = {a: nums[a] for a, _, _ in kept}

    def select(g: Digraph, current_caps, current_w) -> frozenset:
        chosen: list[int] = []
        for v in g.vertices:
            cap = current_caps[v]
            cand = [a for a in g.in_arc_ids(v) if current_w[a] > 0]
            cand.sort(key=lambda a: (-current_w[a], a))
            oracle = oracles.get(v)
            if oracle is None:
                chosen.extend(cand[:cap])
                continue
            picked: list[int] = []
            for a in cand:
                if len(picked) >= cap:
                    break
                if oracle.is_independent((*picked, a)):
                    picked.append(a)
            chosen.extend(picked)
        return frozenset(chosen)

    def alpha_rule(
        g: Digraph,
        selected: frozenset,
        current_w,
        component: frozenset,
        entering: Sequence[int],
    ) -> dict:
        alpha: dict[int, int] = {}
        per_head: dict[int, int] = {}
        for a in entering:
            y = g.head(a)
            oracle = oracles.get(y)
            if oracle is None:
                if y not in per_head:
                    per_head[y] = cheapest_selected_into(g, selected, current_w, y)
                alpha[a] = per_head[y]
                continue
            base = [f for f in g.in_arc_ids(y) if f in selected]
            circuit = fundamental_circuit(oracle, base, a)
            if circuit is None:
                raise OracleInconsistencyError(
                    f"vertex {y} is saturated yet accepts another arc"
                )
            pool = circuit - {a}
            if not pool:
                raise OracleInconsistencyError(
                    f"arc {a} became a matroid loop after preprocessing"
                )
            alpha[a] = min(pool, key=lambda f: (current_w[f], f))
        return alpha

    final, _ = _run_phases(work, caps, wnum, select, alpha_rule)

    for v in graph.vertices:
        mine = [a for a in graph.in_arc_ids(v) if a in final]
        if not oracles[v].is_independent(mine):
            raise OracleInconsistencyError(f"output is dependent at vertex {v}")
    try:
        violating = sparsity_violating_components(graph, capacities, final)
    except IndegreeDependenceError:
        raise OracleInconsistencyError("output exceeds a vertex capacity") from None
    if violating:
        raise AssertionError("output violates the sparsity constraints")
    return final
