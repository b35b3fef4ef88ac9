"""Multi-phase greedy solver for maximum-weight degree-capped branchings.

Each phase picks, per vertex, the heaviest entering arcs within capacity.
Strong components whose induced selection saturates the capacity sum are
contracted (weights of reattached arcs get an exchange adjustment), and the
phases repeat on the shrunken graph.  Unwinding the contractions yields an
optimal solution; replaying the contraction history also yields an exact
dual certificate, integral whenever the input weights are integral.

All arithmetic is exact: weights are normalized to integer numerators over
one common denominator, so certificate checks never see floating point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .digraph import ContractionRecord, Digraph, contract
from .matroids import (
    BBranching,
    CapacityVector,
    fundamental_circuit,
    indegree_profile,
    saturated_components,
)


class WeightError(ValueError):
    """Raised for malformed weight inputs (wrong size, inexact values)."""


RationalLike = Union[int, str, Fraction]


@dataclass(frozen=True)
class WeightVector:
    """Exact rational arc weights: integer numerators over one denominator."""

    numerators: tuple[int, ...]
    denominator: int = 1

    def __post_init__(self):
        if self.denominator <= 0:
            raise WeightError("denominator must be positive")

    @staticmethod
    def _parse(value: RationalLike) -> Fraction:
        if isinstance(value, bool):
            raise WeightError(f"not a rational weight: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise WeightError(f"cannot parse rational {value!r}") from exc
        raise WeightError(f"not an exact rational: {value!r} (floats are rejected)")

    @classmethod
    def from_values(cls, values: Iterable[RationalLike]) -> "WeightVector":
        values = list(values)
        if all(type(v) is int for v in values):
            return cls(tuple(values), 1)
        fracs = [cls._parse(v) for v in values]
        den = 1
        for f in fracs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        shrink = den
        for n in nums:
            shrink = math.gcd(shrink, n)
            if shrink == 1:
                break
        return cls(tuple(n // shrink for n in nums), den // shrink)

    @classmethod
    def coerce(
        cls, weights: Union["WeightVector", Iterable[RationalLike]], arc_count: int
    ) -> "WeightVector":
        wv = weights if isinstance(weights, WeightVector) else cls.from_values(weights)
        if len(wv.numerators) != arc_count:
            raise WeightError(f"expected {arc_count} weights, got {len(wv.numerators)}")
        return wv

    @property
    def is_integral(self) -> bool:
        return self.denominator == 1

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, arc_id: int) -> Fraction:
        return Fraction(self.numerators[arc_id], self.denominator)

    def value(self, arcs: Iterable[int]) -> Fraction:
        return Fraction(sum(self.numerators[a] for a in arcs), self.denominator)


class OracleInconsistencyError(RuntimeError):
    """An attached oracle answered in a way no matroid can."""


@dataclass(frozen=True)
class ContractionStep:
    """One contraction, the replacement arc chosen for each reattached arc, and
    the working weight of `record.cheapest_internal` when it was contracted."""

    record: ContractionRecord
    replacement: Mapping[int, int]
    anchor_weight: int


@dataclass(frozen=True)
class DualCertificate:
    """Optimality certificate: vertex potentials, set potentials, arc slacks.

    `p_sets` holds vertex sets of the original graph (one per contracted
    component, expanded back to original vertices) with strictly positive
    potential; the family is laminar.  `q` stores only nonzero entries.
    All values are Fractions, integral whenever the weights were integral.
    """

    p_vertex: Mapping[int, Fraction]
    p_sets: tuple[tuple[frozenset, Fraction], ...]
    q: Mapping[int, Fraction]
    objective: Fraction

    @property
    def is_integral(self) -> bool:
        return (
            all(p.denominator == 1 for p in self.p_vertex.values())
            and all(p.denominator == 1 for _, p in self.p_sets)
            and all(v.denominator == 1 for v in self.q.values())
            and self.objective.denominator == 1
        )


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of a certificate verification; falsy with a reason on failure."""

    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Phase engine (shared with the matroid-restricted variant)
#
# `oracles` maps a vertex to its matroid over the entering arcs.  A vertex
# without one (every vertex of the plain problem, every contracted vertex)
# follows the capacity rule, i.e. a rank-caps[v] uniform matroid.


def _select_heaviest(
    graph: Digraph, caps: Mapping[int, int], wnum: Mapping[int, int], oracles: Mapping
) -> frozenset:
    """Per vertex, the matroid greedy over the positive entering arcs."""
    chosen: list[int] = []
    for v in graph.vertices:
        cap = caps[v]
        cand = [a for a in graph.in_arc_ids(v) if wnum[a] > 0]
        oracle = oracles.get(v)
        if oracle is not None or len(cand) > cap:
            cand.sort(key=lambda a: (-wnum[a], a))
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


def _replacement_arcs(
    graph: Digraph, selected: frozenset, wnum: Mapping, entering: Sequence[int], oracles: Mapping
) -> dict:
    """Per arc entering a tight component, the cheapest selected arc into its
    head (capacity rule, cached per head) or the cheapest other member of its
    fundamental circuit in the head's matroid; ties to the smaller id."""
    alpha: dict[int, int] = {}
    per_head: dict[int, int] = {}
    for a in entering:
        y = graph.head(a)
        oracle = oracles.get(y)
        if oracle is None and y in per_head:
            alpha[a] = per_head[y]
            continue
        base = [f for f in graph.in_arc_ids(y) if f in selected]
        if oracle is None:
            if not base:
                raise AssertionError(f"saturated vertex {y} has no selected entering arc")
            alpha[a] = per_head[y] = min(base, key=lambda f: (wnum[f], f))
            continue
        circuit = fundamental_circuit(oracle, base, a)
        if circuit is None:
            raise OracleInconsistencyError(f"vertex {y} is saturated yet accepts another arc")
        pool = circuit - {a}
        if not pool:
            raise OracleInconsistencyError(f"arc {a} became a matroid loop after preprocessing")
        alpha[a] = min(pool, key=lambda f: (wnum[f], f))
    return alpha


def _run_phases(
    graph: Digraph, caps: dict, wnum: dict, oracles: Mapping
) -> tuple[frozenset, list[tuple[ContractionStep, ...]]]:
    """Run selection/contraction phases, then expand back to original arcs.

    Returns the solution and the contraction history: one tuple of steps per
    phase, the last one empty.  `caps` and `wnum` are updated in place.
    """
    history: list[tuple[ContractionStep, ...]] = []
    phase_limit = graph.vertex_count + graph.arc_count + 1
    while True:
        selected = _select_heaviest(graph, caps, wnum, oracles)
        tight = saturated_components(graph, caps, selected)
        if not tight:
            history.append(())
            break
        steps: list[ContractionStep] = []
        for component in tight:
            current = selected & graph.arc_id_set
            entering = [
                a
                for v in sorted(component)
                for a in graph.in_arc_ids(v)
                if graph.tail(a) not in component
            ]
            alpha = _replacement_arcs(graph, current, wnum, entering, oracles)
            graph, record = contract(graph, component, current, wnum)
            anchor = record.cheapest_internal
            if anchor is None:
                raise AssertionError("tight component with empty selection")
            anchor_weight = wnum[anchor]
            for a in record.entering:
                wnum[a] = wnum[a] - wnum[alpha[a]] + anchor_weight
            for a in record.dropped:
                del wnum[a]
            for v in component:
                del caps[v]
            caps[record.new_vertex] = 1
            steps.append(ContractionStep(record, alpha, anchor_weight))
        history.append(tuple(steps))
        if len(history) > phase_limit:
            raise AssertionError(
                "phase count exceeded its bound; contraction is not making progress"
            )

    final = set(selected)
    for steps in reversed(history):
        for step in reversed(steps):
            record = step.record
            incoming = [a for a in final if a in record.entering]
            if len(incoming) > 1:
                raise AssertionError("more than one selected arc enters a contracted vertex")
            if incoming:
                final |= record.internal - {step.replacement[incoming[0]]}
            else:
                final |= record.internal - {record.cheapest_internal}
    return frozenset(final), history


# ---------------------------------------------------------------------------
# Public operations


def _require_dense_arcs(graph: Digraph) -> None:
    if graph.arc_ids != tuple(range(graph.arc_count)):
        raise WeightError("weighted operations require dense arc ids 0..m-1")


def max_weight_indegree_set(
    graph: Digraph,
    capacities: Union[CapacityVector, Mapping[int, int]],
    weights: Union[WeightVector, Iterable[RationalLike]],
) -> frozenset:
    """Per vertex, the heaviest strictly-positive entering arcs within capacity.

    Ties go to the smaller arc id.  The result is a maximum-weight independent
    set of the indegree matroid.
    """
    _require_dense_arcs(graph)
    caps = capacities.as_dict() if isinstance(capacities, CapacityVector) else dict(capacities)
    wv = WeightVector.coerce(weights, graph.arc_count)
    wnum = {a: wv.numerators[a] for a in graph.arc_ids}
    return _select_heaviest(graph, caps, wnum, {})


def max_weight_b_branching(
    graph: Digraph,
    capacities: CapacityVector,
    weights: Union[WeightVector, Iterable[RationalLike]],
) -> tuple[BBranching, DualCertificate]:
    """Maximum-weight feasible arc set plus a verifiable dual certificate.

    Negative-weight arcs are dropped up front (the feasible family is closed
    under taking subsets, so they never help); zero-weight arcs stay in the
    working graph but are never selected.  Runs in O(|V| * |A|).
    """
    capacities.check_domain(graph)
    _require_dense_arcs(graph)
    wv = WeightVector.coerce(weights, graph.arc_count)
    nums = wv.numerators
    kept = [(a, t, h) for a, t, h in graph.arcs() if nums[a] >= 0]
    work = Digraph(graph.vertices, kept)
    caps = capacities.as_dict()
    wnum = {a: nums[a] for a, _, _ in kept}
    final, history = _run_phases(work, caps, wnum, {})
    certificate = dual_from_run(history, graph, capacities, wv)
    return BBranching.of(graph, capacities, final), certificate


def _kth_largest(values: list, k: int) -> int:
    """k-th largest value (1-indexed); 0 when fewer than k values exist."""
    if len(values) < k:
        return 0
    values.sort(reverse=True)
    return values[k - 1]


def dual_from_run(
    history: Sequence[tuple[ContractionStep, ...]],
    graph: Digraph,
    capacities: CapacityVector,
    weights: Union[WeightVector, Iterable[RationalLike]],
) -> DualCertificate:
    """Replay a completed run's contraction history into a dual certificate.

    Maintains running modified weights over the original arcs: arcs surviving
    a contraction mirror the algorithm's exchange adjustment, while every
    contracted component, expanded back to original vertices, charges its
    potential to all arcs it encloses.  Vertex potentials are read off the
    final modified weights (against each arc's original head); arc slacks
    absorb whatever remains.
    """
    wv = WeightVector.coerce(weights, graph.arc_count)
    den = wv.denominator
    # Original weights minus the charges of enclosing contracted sets;
    # only arcs swallowed by a contraction ever get charged.
    charged = list(wv.numerators)

    # The arcs the solver keeps: negative ones never enter its working graph.
    pool = {
        v: [a for a in graph.in_arc_ids(v) if wv.numerators[a] >= 0] for v in graph.vertices
    }

    expansion: dict[int, frozenset] = {}
    enclosed: dict[int, frozenset] = {}
    sets: list[tuple[frozenset, int, frozenset]] = []  # (vertex set, potential, arcs inside)

    for steps in history:
        for step in steps:
            record = step.record
            members = frozenset()
            for u in record.merged:
                members |= expansion.get(u, frozenset((u,)))
            inside = set(record.dropped)
            for u in record.merged:
                inside |= enclosed.get(u, frozenset())

            # The set potential is capped by two kinds of margins: how far
            # each entering arc sits below the going rate at its original
            # head, and the cheapest selected arc inside (at its working
            # weight when contracted, which carries earlier exchange
            # adjustments).
            going_rate: dict[int, int] = {}
            candidates: list[int] = []
            for a in sorted(record.entering):
                y = graph.head(a)  # original head: arc ids are stable
                rate = going_rate.get(y)
                if rate is None:
                    rate = _kth_largest([charged[e] for e in pool[y]], capacities[y])
                    going_rate[y] = rate
                candidates.append(rate - charged[a])
            candidates.append(step.anchor_weight)
            potential = min(candidates)

            if potential:
                for e in inside:
                    charged[e] -= potential
            expansion[record.new_vertex] = members
            enclosed[record.new_vertex] = frozenset(inside)
            if potential > 0:
                sets.append((members, potential, frozenset(inside)))

    p_vertex_num: dict[int, int] = {}
    for v in graph.vertices:
        ranked = [charged[e] for e in pool[v]]
        p_vertex_num[v] = max(0, _kth_largest(ranked, capacities[v]))

    charge: dict[int, int] = {}
    for _, potential, inside in sets:
        for e in inside:
            charge[e] = charge.get(e, 0) + potential

    q_num: dict[int, int] = {}
    for a in graph.arc_ids:
        slack = wv.numerators[a] - p_vertex_num[graph.head(a)] - charge.get(a, 0)
        if slack > 0:
            q_num[a] = slack

    objective_num = (
        sum(capacities[v] * p_vertex_num[v] for v in graph.vertices)
        + sum((capacities.total(members) - 1) * pot for members, pot, _ in sets)
        + sum(q_num.values())
    )

    p_sets = tuple(
        (members, Fraction(pot, den))
        for members, pot, _ in sorted(
            sets, key=lambda item: (min(item[0]), len(item[0]), sorted(item[0]))
        )
    )
    return DualCertificate(
        p_vertex={v: Fraction(p_vertex_num[v], den) for v in graph.vertices},
        p_sets=p_sets,
        q={a: Fraction(n, den) for a, n in sorted(q_num.items())},
        objective=Fraction(objective_num, den),
    )


def verify_certificate(
    graph: Digraph,
    capacities: CapacityVector,
    weights: Union[WeightVector, Iterable[RationalLike]],
    arcs: Iterable[int],
    certificate: DualCertificate,
) -> CertificateCheck:
    """Exact check of feasibility, dual feasibility, complementary slackness
    and the zero duality gap for a (solution, certificate) pair."""
    capacities.check_domain(graph)
    wv = WeightVector.coerce(weights, graph.arc_count)
    subset = frozenset(arcs)

    if not subset <= graph.arc_id_set:
        return CertificateCheck(False, "unknown-arc-ids")
    profile = indegree_profile(graph, subset)
    if any(profile[v] > capacities[v] for v in graph.vertices):
        return CertificateCheck(False, "primal-indegree-violated")
    if saturated_components(graph, capacities, subset):
        return CertificateCheck(False, "primal-sparsity-violated")

    p_vertex = certificate.p_vertex
    if set(p_vertex) != set(graph.vertices):
        return CertificateCheck(False, "vertex-potential-domain")
    if any(p < 0 for p in p_vertex.values()):
        return CertificateCheck(False, "vertex-potential-negative")
    for members, potential in certificate.p_sets:
        if not members or not members <= graph.vertex_set:
            return CertificateCheck(False, "set-potential-domain")
        if potential < 0:
            return CertificateCheck(False, "set-potential-negative")
    if any(v < 0 for v in certificate.q.values()):
        return CertificateCheck(False, "arc-potential-negative")
    if not set(certificate.q) <= set(graph.arc_ids):
        return CertificateCheck(False, "arc-potential-domain")

    # Every value is scaled by the weight denominator `den` once: an int when
    # its own denominator divides `den` (always so for the solver's certificates),
    # otherwise an exact Fraction, so a document with many denominators stays
    # linear-time.  Comparisons of scaled values match the unscaled ones.
    den = wv.denominator

    def scaled(value):
        if den % value.denominator:
            return value * den
        return value.numerator * (den // value.denominator)

    # One bit per positive set potential; mask[v] holds the bits of the sets
    # containing v, so the sets enclosing arc (t, h) are mask[t] & mask[h].
    # The enclosed sum is memoised per mask value: a laminar family has at
    # most |p_sets| + 1 of them, and any other family goes the same way.
    positive_sets = [(members, pot) for members, pot in certificate.p_sets if pot > 0]
    bit_potentials = [scaled(pot) for _, pot in positive_sets]
    mask = dict.fromkeys(graph.vertices, 0)
    for i, (members, _) in enumerate(positive_sets):
        bit = 1 << i
        for v in members:
            mask[v] |= bit

    def bits(m: int):
        """The bit indices of m in ascending order, as '0'/'1' characters."""
        return bin(m)[:1:-1]

    enclosed_sum = {0: 0}
    p_scaled = {v: scaled(p) for v, p in p_vertex.items()}
    q_scaled = {a: scaled(value) for a, value in certificate.q.items()}
    nums = wv.numerators
    for a, tail, head in graph.arcs():
        m = mask[tail] & mask[head]
        inside = enclosed_sum.get(m)
        if inside is None:
            inside = enclosed_sum[m] = sum(
                pot for pot, bit in zip(bit_potentials, bits(m)) if bit == "1"
            )
        q = q_scaled.get(a, 0)
        lhs = p_scaled[head] + q + inside
        w = nums[a]
        if lhs < w:
            return CertificateCheck(False, f"dual-constraint-violated:arc={a}")
        if a in subset and lhs != w:
            return CertificateCheck(False, f"selected-arc-slack:arc={a}")
        if q > 0 and a not in subset:
            return CertificateCheck(False, f"q-support-outside-solution:arc={a}")

    for v in graph.vertices:
        if p_scaled[v] > 0 and profile[v] != capacities[v]:
            return CertificateCheck(False, f"vertex-potential-unsaturated:v={v}")
    inside_counts = [0] * len(positive_sets)
    for m, count in Counter(mask[graph.tail(a)] & mask[graph.head(a)] for a in subset).items():
        for i, bit in enumerate(bits(m)):
            if bit == "1":
                inside_counts[i] += count
    for (members, _), count in zip(positive_sets, inside_counts):
        if count != capacities.total(members) - 1:
            return CertificateCheck(False, "set-potential-not-tight")

    objective = scaled(certificate.objective)
    recomputed = (
        sum(capacities[v] * p_scaled[v] for v in graph.vertices)
        + sum((capacities.total(members) - 1) * scaled(pot) for members, pot in certificate.p_sets)
        + sum(q_scaled.values())
    )
    if recomputed != objective:
        return CertificateCheck(False, "objective-mismatch")
    if sum(nums[a] for a in subset) != objective:
        return CertificateCheck(False, "duality-gap")
    return CertificateCheck(True)
