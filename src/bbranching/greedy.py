"""Multi-phase greedy solver for maximum-weight degree-capped branchings.

The phase engine (phases.py) contracts tight components until none is
left and unwinds the contractions into an optimal solution.  Replaying its
contraction history yields an exact dual certificate, integral whenever
the input weights are integral, and `verify_certificate` checks any
(solution, certificate) pair on its own.

All arithmetic is exact: weights are normalized to integer numerators over
one common denominator, so certificate checks never see floating point.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .digraph import Digraph
from .matroids import BBranching, CapacityVector, _in_counts, _within, saturated_components
from .phases import ContractionStep, _run_phases, _select_at


class WeightError(ValueError):
    """Raised for malformed weight inputs (wrong size, inexact values)."""


RationalLike = Union[int, str, Fraction]

# The rational grammar of the library and the CLI: an optional sign, ASCII
# digits, then optionally "/digits" or ".digits".  There are no exponents,
# so a short string cannot stand for a huge integer.
_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def parse_rational(text: str) -> tuple[int, int]:
    """Numerator and positive denominator of a rational string, unreduced.

    Raises WeightError for anything outside the grammar (exponent forms,
    spaces, underscores, a bare point, more digits than `int` converts) and
    for a zero denominator.
    """
    match = _RATIONAL.fullmatch(text)
    if match is None:
        if "e" in text.lower():
            raise WeightError(f"exponent forms are not accepted: {text!r}")
        raise WeightError(f"cannot parse rational {text!r}")
    sign, whole, over, point = match.groups()
    try:
        num = int(whole)
        if over is not None:
            den = int(over)
        elif point is not None:
            fraction = int(point)
            den = 10 ** len(point)
            num = num * den + fraction
        else:
            den = 1
    except ValueError:
        raise WeightError(f"cannot parse rational {text!r}") from None
    if not den:
        raise WeightError(f"cannot parse rational {text!r}")
    return (-num if sign == "-" else num), den


@dataclass(frozen=True)
class WeightVector:
    """Exact rational arc weights: integer numerators over one denominator."""

    numerators: tuple[int, ...]
    denominator: int = 1

    def __post_init__(self):
        if self.denominator <= 0:
            raise WeightError("denominator must be positive")

    @staticmethod
    def _parse(value: RationalLike) -> tuple[int, int]:
        if isinstance(value, bool):
            raise WeightError(f"not a rational weight: {value!r}")
        if isinstance(value, int):
            return int(value), 1
        if isinstance(value, Fraction):
            return value.numerator, value.denominator
        if isinstance(value, str):
            return parse_rational(value)
        raise WeightError(f"not an exact rational: {value!r} (floats are rejected)")

    @classmethod
    def from_values(cls, values: Iterable[RationalLike]) -> "WeightVector":
        values = list(values)
        if all(type(v) is int for v in values):
            return cls(tuple(values), 1)
        # One lcm over the (unreduced) denominators, then one gcd to reduce:
        # the result is the same as reducing every value first.
        pairs = [parse_rational(v) if type(v) is str else cls._parse(v) for v in values]
        den = math.lcm(*(d for _, d in pairs))
        nums = [n * (den // d) for n, d in pairs]
        shrink = math.gcd(den, *nums)
        if shrink > 1:
            nums = [n // shrink for n in nums]
            den //= shrink
        return cls(tuple(nums), den)

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



@dataclass(frozen=True)
class DualCertificate:
    """Optimality certificate: vertex potentials, set potentials, arc slacks.

    `p_sets` holds vertex sets of the original graph (one per contracted
    component, expanded back to original vertices) with strictly positive
    potential; the family is laminar.  `q` stores only nonzero entries.
    The solver's values are Fractions, integral whenever the weights were
    integral; values parsed by the CLI are `int` when integral.
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
# Public operations


def max_weight_indegree_set(
    graph: Digraph,
    capacities: CapacityVector,
    weights: Union[WeightVector, Iterable[RationalLike]],
) -> frozenset:
    """Per vertex, the heaviest strictly-positive entering arcs within capacity.

    Ties go to the smaller arc id.  The result is a maximum-weight independent
    set of the indegree matroid.
    """
    capacities.check_domain(graph)
    wv = WeightVector.coerce(weights, graph.arc_count)
    wnum = dict(enumerate(wv.numerators))
    return frozenset(
        a
        for entering, cap in zip(graph.entering, capacities)
        for a in _select_at(entering, cap, wnum, None)
    )


def max_weight_b_branching(
    graph: Digraph,
    capacities: CapacityVector,
    weights: Union[WeightVector, Iterable[RationalLike]],
) -> tuple[BBranching, DualCertificate]:
    """Maximum-weight feasible arc set plus a verifiable dual certificate.

    Negative-weight arcs are dropped up front (the feasible family is closed
    under taking subsets, so they never help); zero-weight arcs stay in the
    working graph but are never selected.  Each arc enters a heap once and
    only ever moves into a heap that has received at least twice as many
    arcs, so selection and merging take O(|A| log^2 |A|) over a run; each
    phase's search for tight components walks only the selected arcs
    behind its new vertices, at most O(|V| + |A|).  The engine records each
    contracted set's potential, so the dual replay costs O(C^2/w) word
    operations for the path bits of C contractions, one AND of C-bit
    integers per arc, the total set size to expand the sets, and one
    selection per vertex, a sort of its entering arcs' charged weights.
    """
    capacities.check_domain(graph)
    wv = WeightVector.coerce(weights, graph.arc_count)
    wnum = {a: w for a, w in enumerate(wv.numerators) if w >= 0}
    final, history = _run_phases(graph, capacities, wnum, {})
    certificate = dual_from_run(history, graph, capacities, wv)
    return BBranching.of(graph, capacities, final), certificate


def dual_from_run(
    history: Sequence[tuple[ContractionStep, ...]],
    graph: Digraph,
    capacities: CapacityVector,
    weights: Union[WeightVector, Iterable[RationalLike]],
) -> DualCertificate:
    """Replay a completed run's contraction history into a dual certificate.

    Each contracted component, expanded back to original vertices, takes the
    potential the phase engine recorded for it, and charges it to every arc
    it encloses.  The sets holding both ends of an arc are the path in the
    contraction forest from the first of them to the root, so one walk down
    the forest gives each contraction one bit and each vertex the bits of
    its path: O(C^2/w) word operations for C contractions.  An arc's charge
    is then read at the lowest common bit of its ends, one AND of C-bit
    integers, and expanding the sets costs their total size.  A vertex
    potential is one selection per vertex: the b(v)-th largest of
    weight less charge over the kept arcs entering it, or 0 when that is
    negative or there are fewer.  Arc slacks absorb the rest.
    """
    capacities.check_domain(graph)
    wv = WeightVector.coerce(weights, graph.arc_count)
    den, nums = wv.denominator, wv.numerators
    steps = [step for phase in history for step in phase]
    link = {m: step.new_vertex for step in steps for m in step.merged}

    # Each contracted set, expanded back to original vertices once.
    expansion: dict[int, list[int]] = {}
    sets: list[tuple[frozenset, int]] = []
    for step in steps:
        inside: list[int] = []
        for m in step.merged:
            if m in expansion:
                inside.extend(expansion.pop(m))
            else:
                inside.append(m)
        if step.potential:
            sets.append((frozenset(inside), step.potential))
        expansion[step.new_vertex] = inside

    # Contraction i owns bit i.  A parent comes after its children in the
    # history, so the reverse walk meets it first: above[z] holds the summed
    # potentials and the bits of z's contraction and every one above it.
    # The contractions holding both ends of an arc are the common bits of
    # its ends; the lowest is the first, whose charge covers the rest.  A
    # negative arc is charged too, which keeps it below every vertex potential.
    above: dict[int, tuple[int, int]] = {}
    for i in reversed(range(len(steps))):
        z = steps[i].new_vertex
        charge, bits = above.get(link.get(z), (0, 0))
        above[z] = (charge + steps[i].potential, bits | 1 << i)
    charges = [above[step.new_vertex][0] for step in steps]
    path = [above[link[v]][1] if v in link else 0 for v in graph.vertices]
    net = [
        w - charges[(both & -both).bit_length() - 1] if (both := path[t] & path[h]) else w
        for w, t, h in zip(nums, graph.tails, graph.heads)
    ]

    p_vertex_num: dict[int, int] = {}
    q_num: dict[int, int] = {}
    for v, (entering, cap) in enumerate(zip(graph.entering, capacities)):
        kept = sorted([net[a] for a in entering if nums[a] >= 0])
        p = p_vertex_num[v] = max(0, kept[-cap]) if len(kept) >= cap else 0
        for a in entering:
            if net[a] > p:
                q_num[a] = net[a] - p

    objective_num = (
        sum(cap * p_vertex_num[v] for v, cap in enumerate(capacities))
        + sum((capacities.total(members) - 1) * pot for members, pot in sets)
        + sum(q_num.values())
    )
    p_sets = tuple(
        (members, Fraction(pot, den))
        for members, pot in sorted(
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

    if not all(map(graph.arc_ids.__contains__, subset)):
        return CertificateCheck(False, "unknown-arc-ids")
    profile = _in_counts(graph, subset)
    if not _within(capacities, profile):
        return CertificateCheck(False, "primal-indegree-violated")
    if saturated_components(graph, capacities, subset):
        return CertificateCheck(False, "primal-sparsity-violated")

    p_vertex = certificate.p_vertex
    if set(p_vertex) != set(graph.vertices):
        return CertificateCheck(False, "vertex-potential-domain")
    if any(p < 0 for p in p_vertex.values()):
        return CertificateCheck(False, "vertex-potential-negative")
    for members, potential in certificate.p_sets:
        if not members or not members.issubset(graph.vertices):
            return CertificateCheck(False, "set-potential-domain")
        if potential < 0:
            return CertificateCheck(False, "set-potential-negative")
    if any(v < 0 for v in certificate.q.values()):
        return CertificateCheck(False, "arc-potential-negative")
    if not all(map(graph.arc_ids.__contains__, certificate.q)):
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
    mask = [0] * graph.vertex_count
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
    tails, heads = graph.tails, graph.heads
    for m, count in Counter(mask[tails[a]] & mask[heads[a]] for a in subset).items():
        for i, bit in enumerate(bits(m)):
            if bit == "1":
                inside_counts[i] += count
    set_bounds = [capacities.total(members) - 1 for members, _ in positive_sets]
    if inside_counts != set_bounds:
        return CertificateCheck(False, "set-potential-not-tight")

    # A set with potential 0 adds nothing to the objective.
    objective = scaled(certificate.objective)
    recomputed = (
        sum(capacities[v] * p_scaled[v] for v in graph.vertices)
        + sum(bound * pot for bound, pot in zip(set_bounds, bit_potentials))
        + sum(q_scaled.values())
    )
    if recomputed != objective:
        return CertificateCheck(False, "objective-mismatch")
    if sum(nums[a] for a in subset) != objective:
        return CertificateCheck(False, "duality-gap")
    return CertificateCheck(True)
