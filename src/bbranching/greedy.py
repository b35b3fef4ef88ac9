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
from dataclasses import dataclass
from fractions import Fraction
from operator import methodcaller, mul
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence, Union

from .digraph import Digraph
from .matroids import BBranching, CapacityVector, _in_counts, _within, saturated_components
from .phases import ContractionStep, _run_phases, _select_at


class WeightError(ValueError):
    """Raised for malformed weight inputs (wrong size, inexact values).
    `index` is the position of the bad value when a list was read."""

    index: Optional[int] = None


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


# A run of values, each followed by a newline, in the same grammar with its
# groups made non-capturing (a run is only accepted or not), matched a chunk
# at a time: one match over a whole long list would keep regex state for
# every repeat.
_RATIONAL_RUN = re.compile("(?:%s\n)*" % _RATIONAL.pattern.replace("(?:", "(").replace("(", "(?:"))
_CHUNK = 256
_SPLIT = methodcaller("partition", "/")


def parse_rationals(values: Sequence[RationalLike]) -> tuple[list[int], list[int]]:
    """Unreduced numerators and positive denominators of ints, Fractions and
    rational strings.

    A list of strings only is read in bulk: each chunk of a few hundred
    strings is joined and checked with one match, so no string costs a
    regex call of its own.  Then one `int` per numerator and one per
    distinct denominator string, through a dict, with no Python frame per
    value.  Any other list, a single value, or a list with a decimal or a
    value the bulk read rejects goes value by value, and the WeightError of
    the first bad value carries its position as `index`.
    """
    if len(values) > 1 and set(map(type, values)) == {str}:
        nums: list[int] = []
        dens: list[int] = []
        den_of: dict[str, int] = {}
        try:
            for start in range(0, len(values), _CHUNK):
                chunk = values[start : start + _CHUNK]
                joined = "\n".join(chunk) + "\n"
                # A newline inside a value would split it in two.
                if joined.count("\n") != len(chunk) or "." in joined or not _RATIONAL_RUN.fullmatch(joined):
                    break
                if joined.count("/") == len(chunk):
                    pieces = joined.replace("/", "\n").split("\n")
                    heads, tails = pieces[0:-1:2], pieces[1::2]
                else:
                    heads, _, tails = zip(*map(_SPLIT, chunk))
                nums += map(int, heads)
                for tail in set(tails).difference(den_of):
                    den_of[tail] = int(tail) if tail else 1
                dens += map(den_of.__getitem__, tails)
            else:
                if 0 not in den_of.values():
                    return nums, dens
        except ValueError:  # more digits than `int` converts
            pass
    nums, dens = [], []
    for i, value in enumerate(values):
        try:
            if isinstance(value, str):
                num, den = parse_rational(value)
            elif isinstance(value, bool):
                raise WeightError("booleans are not rationals")
            elif isinstance(value, (int, Fraction)):
                num, den = value.numerator, value.denominator
            else:
                raise WeightError(f"expected an integer or 'num/den' string, got {value!r}")
        except WeightError as exc:
            exc.index = i
            raise
        nums.append(num)
        dens.append(den)
    return nums, dens


@dataclass(frozen=True)
class WeightVector:
    """Exact rational arc weights: integer numerators over one denominator."""

    numerators: tuple[int, ...]
    denominator: int = 1

    def __post_init__(self):
        if set(map(type, self.numerators)) | {type(self.denominator)} != {int}:
            bad = next(v for v in (*self.numerators, self.denominator) if type(v) is not int)
            if isinstance(bad, bool):
                raise WeightError("booleans are not rationals")
            raise WeightError(f"expected an integer numerator or denominator, got {bad!r}")
        if self.denominator <= 0:
            raise WeightError("denominator must be positive")

    @classmethod
    def from_values(cls, values: Iterable[RationalLike]) -> "WeightVector":
        """The exact weight vector of ints, Fractions and rational strings.

        A list of ints is taken as it is, checked by the constructor alone;
        any other list is read by `parse_rationals`, whose WeightError names
        the first bad value.
        """
        values = list(values)
        if not values or type(values[0]) is int:
            try:
                return cls(tuple(values), 1)
            except WeightError:
                pass  # a later value is not an int
        nums, dens = parse_rationals(values)
        # One lcm over the (unreduced) denominators, then one gcd to reduce:
        # the result is the same as reducing every value first.
        distinct = set(dens)
        den = math.lcm(*distinct)
        if len(distinct) > 1:
            scale = {d: den // d for d in distinct}
            nums = list(map(mul, nums, map(scale.__getitem__, dens)))
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
    return frozenset(
        a
        for entering, cap in zip(graph.entering, capacities)
        for a in _select_at(entering, cap, wv.numerators, None)
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
    arcs, so selection and merging take O(|A| log^2 |A|) over a run.  A
    contracted vertex holds a group of original vertices, and a contraction
    relabels the smaller member groups into the largest, O(|V| log |V|)
    relabels over a run, so finding an arc's current tail is two list
    reads; the heap of the vertex that holds every vertex is cleared
    rather than popped, as no arc can enter it.  Each phase's search for
    tight components walks only the selected arcs behind its new vertices,
    at most O(|V| + |A|).  The engine records each contracted set's
    potential, so the dual replay costs O(C^2/w) word
    operations for the path bits of C contractions, one AND of C-bit
    integers per arc, the total set size to expand the sets, O(C log C) to
    order them, and one selection per vertex, a sort of its entering arcs'
    charged weights.  Pass a WeightVector to parse the weights once when
    they go to `verify_certificate` as well.
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
    integers, and expanding the sets costs their total size.  Each set's
    least member and capacity total are carried up the forest from the
    merged vertices, so the objective reads b(X) per set and the sets are
    sorted by (min, size) in O(C log C).  A vertex potential is one
    selection per vertex: the b(v)-th largest of weight less charge over
    the kept arcs entering it, or 0 when that is negative or there are
    fewer.  Arc slacks absorb the rest.
    """
    capacities.check_domain(graph)
    wv = WeightVector.coerce(weights, graph.arc_count)
    den, nums = wv.denominator, wv.numerators
    steps = [step for phase in history for step in phase]
    link = {m: step.new_vertex for step in steps for m in step.merged}

    # Each contracted set, expanded back to original vertices once, with its
    # least member and capacity total carried up from the merged vertices.
    expansion: dict[int, tuple[list[int], int, int]] = {}
    sets: list[tuple[int, int, frozenset, int, int]] = []
    for step in steps:
        inside: list[int] = []
        low, total = graph.vertex_count, 0
        for m in step.merged:
            if m in expansion:
                members, least, sub = expansion.pop(m)
                inside += members
            else:
                least, sub = m, capacities[m]
                inside.append(m)
            low = min(low, least)
            total += sub
        if step.potential:
            sets.append((low, len(inside), frozenset(inside), total, step.potential))
        expansion[step.new_vertex] = (inside, low, total)

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

    # In a laminar family two sets with the same least member and size are
    # the same set, so (min, len) orders the sets as (min, len, members) did.
    sets.sort(key=lambda item: item[:2])
    objective_num = (
        sum(cap * p_vertex_num[v] for v, cap in enumerate(capacities))
        + sum((total - 1) * pot for _, _, _, total, pot in sets)
        + sum(q_num.values())
    )
    p_sets = tuple((members, Fraction(pot, den)) for _, _, members, _, pot in sets)
    return DualCertificate(
        p_vertex={v: Fraction(p_vertex_num[v], den) for v in graph.vertices},
        p_sets=p_sets,
        q={a: Fraction(n, den) for a, n in sorted(q_num.items())},
        objective=Fraction(objective_num, den),
    )


def _set_masks(sets: Sequence[AbstractSet[int]], n: int) -> list[int]:
    """Per vertex below n, the bits of the sets holding it; set i owns bit i
    and the sets come largest first.

    Read as a laminar family, a set's parent is the innermost set so far
    holding one of its members, and a vertex's mask is the chain of parents
    above its innermost set: one store per member and one subset test per
    set.  When every set lies inside its parent, a mask carrying bit i
    belongs to a member of set i, so the masks are exact once they carry as
    many bits in all as the sets have members.  A crossing family fails one
    of the two tests, and each member ORs its bit in instead."""
    chain, inner = [0], [0] * n  # inner[v] - 1 is v's innermost set so far
    for i, members in enumerate(sets, 1):
        parent = inner[next(iter(members))]
        if parent and not members.issubset(sets[parent - 1]):
            break
        chain.append(chain[parent] | 1 << i - 1)
        for v in members:
            inner[v] = i
    else:
        masks = [chain[i] for i in inner]
        if sum(map(int.bit_count, masks)) == sum(map(len, sets)):
            return masks
    masks = [0] * n
    for i, members in enumerate(sets):
        bit = 1 << i
        for v in members:
            masks[v] |= bit
    return masks


def _per_bit(totals: Mapping[int, int], width: int) -> list[int]:
    """Per bit i below `width`, the sum of totals[m] over the masks m holding
    bit i.  Each mask's total goes to its highest bit and passes on to the
    mask without it, one popcount lower, so the masks are taken level by
    level in descending popcount.  For the parent chains of a laminar family
    whose sets own bits largest first, the highest bit is the innermost set
    and the rest is its parent's chain, so each distinct mask costs O(1)
    big-integer operations."""
    levels: list[dict[int, int]] = [{} for _ in range(1 + max(map(int.bit_count, totals), default=0))]
    for m, total in totals.items():
        levels[m.bit_count()][m] = total
    sums = [0] * width
    for size in range(len(levels) - 1, 0, -1):
        below = levels[size - 1]
        for m, total in levels[size].items():
            top = m.bit_length() - 1
            sums[top] += total
            rest = m ^ 1 << top
            below[rest] = below.get(rest, 0) + total
    return sums


def verify_certificate(
    graph: Digraph,
    capacities: CapacityVector,
    weights: Union[WeightVector, Iterable[RationalLike]],
    arcs: Iterable[int],
    certificate: DualCertificate,
) -> CertificateCheck:
    """Exact check of feasibility, dual feasibility, complementary slackness
    and the stated objective for a (solution, certificate) pair.

    The zero duality gap follows from the other checks: once they pass, the
    recomputed dual objective is exactly the solution's weight, so a wrong
    objective reads `objective-mismatch`.

    Each vertex, set and arc value is scaled by the weight denominator once,
    before the sign checks: an int when its own denominator divides it, else
    an exact Fraction, so the checks compare integers in the common case.
    String weights are parsed in bulk (see `WeightVector.from_values`).
    The dual check costs one pass over the arcs plus the total size of the
    set family.  On a laminar family of C positive sets each distinct
    vertex or arc mask then costs O(1) operations on C-bit integers,
    amortised, with no pass over the C sets per mask; a crossing family
    costs at most one such operation per set holding each vertex or arc.
    """
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

    # Every value is scaled by the weight denominator `den` once, before any
    # comparison: an int when its own denominator divides `den` (always so
    # for the solver's certificates), otherwise an exact Fraction, so a
    # document with many denominators stays linear-time.  The sign tests and
    # the sums then compare scaled values, in the same order as unscaled.
    den = wv.denominator

    def scaled(value):
        kind = type(value)
        if kind is int:
            return value * den
        num, d = value.as_integer_ratio() if kind is Fraction else (value.numerator, value.denominator)
        return value * den if den % d else num * (den // d)

    p_vertex = certificate.p_vertex
    if set(p_vertex) != set(graph.vertices):
        return CertificateCheck(False, "vertex-potential-domain")
    p_scaled = [scaled(p_vertex[v]) for v in graph.vertices]
    if min(p_scaled, default=0) < 0:
        return CertificateCheck(False, "vertex-potential-negative")
    set_scaled = [scaled(pot) for _, pot in certificate.p_sets]
    vertex_ids = frozenset(graph.vertices)
    for (members, _), potential in zip(certificate.p_sets, set_scaled):
        if not members or not members.issubset(vertex_ids):
            return CertificateCheck(False, "set-potential-domain")
        if potential < 0:
            return CertificateCheck(False, "set-potential-negative")
    q_scaled = {a: scaled(value) for a, value in certificate.q.items()}
    if min(q_scaled.values(), default=0) < 0:
        return CertificateCheck(False, "arc-potential-negative")
    if not all(map(graph.arc_ids.__contains__, certificate.q)):
        return CertificateCheck(False, "arc-potential-domain")

    # One bit per positive set potential, the largest set first, so a set's
    # bit lies above those of the sets enclosing it; mask[v] holds the bits
    # of the sets containing v, and the sets enclosing arc (t, h) are
    # mask[t] & mask[h].  The enclosed sum peels the highest bit,
    # inside(m) = pot[top(m)] + inside(m without top(m)), memoised per mask:
    # in a laminar family the sets enclosing an arc are a chain, and peeling
    # its innermost set leaves the chain above, so each distinct mask costs
    # O(1) big-integer operations amortised.  Any other family costs at
    # most one memo entry per bit of each distinct mask.
    positive_sets = [
        (members, pot) for (members, _), pot in zip(certificate.p_sets, set_scaled) if pot > 0
    ]
    positive_sets.sort(key=lambda item: -len(item[0]))
    bit_potentials = [pot for _, pot in positive_sets]
    mask = _set_masks([members for members, _ in positive_sets], graph.vertex_count)
    enclosed_sum = {0: 0}

    def enclosed(m: int) -> int:
        peeled = []
        while m not in enclosed_sum:
            peeled.append(m)
            m ^= 1 << m.bit_length() - 1
        total = enclosed_sum[m]
        for m in reversed(peeled):
            total += bit_potentials[m.bit_length() - 1]
            enclosed_sum[m] = total
        return total

    nums = wv.numerators
    # slack[m]: the solution arcs whose ends share exactly the sets of m,
    # less the capacity of the vertices whose mask is m (added below).
    enclosed_in_solution, slack = 0, {}
    for a, tail, head in graph.arcs():
        m = mask[tail] & mask[head]
        inside = enclosed_sum.get(m)
        if inside is None:
            inside = enclosed(m)
        q = q_scaled.get(a, 0)
        lhs = p_scaled[head] + q + inside
        w = nums[a]
        if lhs < w:
            return CertificateCheck(False, f"dual-constraint-violated:arc={a}")
        if a in subset:
            if lhs != w:
                return CertificateCheck(False, f"selected-arc-slack:arc={a}")
            enclosed_in_solution += inside
            slack[m] = slack.get(m, 0) + 1
        elif q > 0:
            return CertificateCheck(False, f"q-support-outside-solution:arc={a}")

    for v in graph.vertices:
        if p_scaled[v] > 0 and profile[v] != capacities[v]:
            return CertificateCheck(False, f"vertex-potential-unsaturated:v={v}")
    # A set X is tight when |F[X]| = b(X) - 1, so per bit the slack of the
    # masks holding it must come to -1.
    if positive_sets:
        for m, cap in zip(mask, capacities):
            slack[m] = slack.get(m, 0) - cap
        if any(total != -1 for total in _per_bit(slack, len(positive_sets))):
            return CertificateCheck(False, "set-potential-not-tight")

    # With every set tight, the sets' term sum((b(X) - 1) p(X)) is the
    # potential enclosing each solution arc, summed over the solution; a
    # set with potential 0 adds nothing.  The recomputed objective is then
    # the solution's weight: a vertex with p > 0 is saturated, so the vertex
    # term is p(head) summed over the solution; q lives on the solution; and
    # each solution arc is tight, w = p(head) + q + enclosed potential.  So
    # matching the stated objective also closes the duality gap.
    recomputed = (
        sum(map(mul, capacities, p_scaled))
        + enclosed_in_solution
        + sum(q_scaled.values())
    )
    if recomputed != scaled(certificate.objective):
        return CertificateCheck(False, "objective-mismatch")
    return CertificateCheck(True)
