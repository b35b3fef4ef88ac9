import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from bbranching import (
    CapacityVector,
    Digraph,
    DualCertificate,
    WeightVector,
    brute_max_weight,
    dual_from_run,
    greedy,
    max_weight_b_branching,
    max_weight_indegree_set,
    verify_certificate,
)
from bbranching.greedy import WeightError, parse_rational

from helpers import random_capacities, random_digraph, random_weights


def test_weight_vector_parsing():
    wv = WeightVector.from_values([3, "1/2", Fraction(5, 4)])
    assert wv.denominator == 4
    assert wv.numerators == (12, 2, 5)
    assert wv[1] == Fraction(1, 2)
    assert not wv.is_integral
    assert WeightVector.from_values([2, 4]).is_integral
    with pytest.raises(WeightError):
        WeightVector.from_values([0.5])
    with pytest.raises(WeightError):
        WeightVector.from_values(["nope"])


@pytest.mark.parametrize(
    "numerators, denominator, message",
    [
        ((1.5, 2.0), 1, "got 1.5"),
        ((1, 2), 2.0, "got 2.0"),
        ((True, 3), 1, "booleans are not rationals"),
        ((1, 2), True, "booleans are not rationals"),
    ],
)
def test_weight_vector_fields_are_ints(numerators, denominator, message):
    # Floats would reach the engine and fail later in Fraction; a boolean
    # would solve as 0 or 1.
    with pytest.raises(WeightError, match=message):
        WeightVector(numerators, denominator)


TOO_LONG = "7" * 4301  # one digit past the default limit of int(str)


@pytest.mark.parametrize(
    "text",
    [
        "1e200000", "1E5", "2.5e-3", " 1/2", "1_000", ".5", "3.", "1/0", "1/-2", "+-1", "１",
        # A newline joins the strings that are checked in bulk.
        "1\n2", "3/4\n", "\n", "1\n/2", "1\n2/3",
        # int() reads these digits and underscores; the grammar does not.
        "٣", "²", "1_0", "1/٣",
        pytest.param(TOO_LONG, id="4301-digit numerator"),
        pytest.param(f"1/{TOO_LONG}", id="4301-digit denominator"),
        "00/000",
    ],
)
def test_weight_strings_outside_the_rational_grammar_are_rejected(text):
    # An exponent string would otherwise expand into a huge integer:
    # Fraction("1e200000") has a 664 386-bit numerator.
    if TOO_LONG in text and not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("int() converts any number of digits on this interpreter")
    with pytest.raises(WeightError) as expected:
        parse_rational(text)
    # Mixed, alone, after a valid string, and among valid strings in a later
    # chunk of the bulk check: the same message, naming the same value.
    long = [f"{i}/{i % 5 + 1}" for i in range(600)]
    for values in ([text, 1], [text], ["1/2", text], long[:400] + [text] + long[400:]):
        with pytest.raises(WeightError) as raised:
            WeightVector.from_values(values)
        assert str(raised.value) == str(expected.value), values[:3]


def test_string_weights_are_parsed_in_bulk(monkeypatch):
    # A count, not a clock: a list of "num/den" strings reaches
    # `parse_rational` only to name a bad value.
    calls = []

    def counted(text):
        calls.append(text)
        return parse_rational(text)

    monkeypatch.setattr(greedy, "parse_rational", counted)
    rng = random.Random(25)
    values = [f"{rng.randint(-20, 100)}/{rng.choice((1, 2, 3, 4, 6))}" for _ in range(200)]
    assert WeightVector.from_values(values) == fraction_weight_vector(values)
    assert calls == []

    values[150] = "7/x"
    with pytest.raises(WeightError, match="cannot parse rational '7/x'"):
        WeightVector.from_values(values)
    assert calls[-1] == "7/x"


def fraction_weight_vector(values):
    """The weight vector built value by value through Fraction."""
    fracs = [Fraction(v) for v in values]
    den = 1
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
    return WeightVector(tuple(f.numerator * (den // f.denominator) for f in fracs), den)


def test_rational_strings_parse_to_the_reduced_weight_vector():
    rng = random.Random(113)
    fixed = [
        ["0/3", "-4/6", "2/4"], ["0/3", "0/6"], ["-4/6", 7, Fraction(1, 3)], ["-0.50", "1.25", "+3"],
        ["+007/010", "-0", "5"], ["1/3", "2/3"] * 200, [f"{i}/{i % 7 + 1}" for i in range(-300, 300)],
    ]
    drawn = [
        [f"{rng.randint(-20, 100)}/{rng.choice((1, 2, 3, 4, 6))}" for _ in range(rng.randint(1, 180))]
        for _ in range(300)
    ]
    for values in fixed + drawn:
        assert WeightVector.from_values(values) == fraction_weight_vector(values)


def test_max_weight_indegree_set_examples():
    g = Digraph.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
    b = CapacityVector([2, 2])
    assert max_weight_indegree_set(g, b, [0, 0, 0]) == frozenset()
    assert max_weight_indegree_set(g, b, [5, 3, 1]) == {0, 1}
    # tie between two weight-5 arcs with ids 7 and 2 at a unit-capacity head
    g2 = Digraph.from_pairs(
        3,
        [(0, 2), (0, 2), (0, 1), (0, 2), (0, 2), (0, 2), (0, 2), (0, 1)],
    )
    b2 = CapacityVector([1, 1, 6])
    w2 = [0, 0, 5, 0, 0, 0, 0, 5]
    assert max_weight_indegree_set(g2, b2, w2) == {2}


def test_entering_arcs_ascend_whatever_the_triple_order():
    # The per-vertex selection sorts stably by weight alone, so its ties go
    # to the smaller id only because `entering` lists ids in ascending order.
    rng = random.Random(29)
    n = 5
    triples = [(a, rng.randrange(n), rng.randrange(n)) for a in range(60)]
    rng.shuffle(triples)
    graph = Digraph(range(n), triples)
    weights = [rng.randint(1, 3) for _ in triples]
    capacities = CapacityVector([rng.randint(1, 4) for _ in range(n)])
    expected = set()
    for v in graph.vertices:
        mine = sorted(a for a, _, h in triples if h == v)
        assert list(graph.entering[v]) == mine
        expected.update(sorted(mine, key=lambda a: (-weights[a], a))[: capacities[v]])
    assert max_weight_indegree_set(graph, capacities, weights) == expected


def test_two_cycle_worked_example():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([1, 1])
    solution, certificate = max_weight_b_branching(g, b, [3, 2])
    assert solution.arcs == {0}
    assert certificate.p_sets == ((frozenset({0, 1}), Fraction(2)),)
    assert certificate.objective == Fraction(3)
    assert verify_certificate(g, b, [3, 2], solution.arcs, certificate)


def test_capacity_two_cycle_with_parallels():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0), (0, 1), (1, 0)])
    b = CapacityVector([2, 2])
    w = [3, 2, 1, 1]
    solution, certificate = max_weight_b_branching(g, b, w)
    assert WeightVector.from_values(w).value(solution.arcs) == Fraction(6)
    assert verify_certificate(g, b, w, solution.arcs, certificate)
    assert brute_max_weight(g, b, w) == Fraction(6)


def test_expansion_without_external_arc_drops_cheapest():
    # the tight two-cycle never receives an outside selected arc, so the
    # expansion keeps everything except its cheapest internal arc
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([1, 1])
    solution, _ = max_weight_b_branching(g, b, [3, 2])
    assert solution.arcs == {0}


def test_negative_arcs_dropped_zero_arcs_unselected():
    g = Digraph.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
    b = CapacityVector([1, 1])
    solution, certificate = max_weight_b_branching(g, b, [-5, 0, 4])
    assert solution.arcs == {2}
    assert verify_certificate(g, b, [-5, 0, 4], solution.arcs, certificate)


def test_dual_without_contractions_matches_formula():
    # star into vertex 1 with capacity 2: potential is the second-best weight
    g = Digraph.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
    b = CapacityVector([1, 2])
    w = [5, 3, 1]
    solution, certificate = max_weight_b_branching(g, b, w)
    assert solution.arcs == {0, 1}
    assert certificate.p_sets == ()
    assert certificate.p_vertex[1] == Fraction(3)
    assert certificate.p_vertex[0] == Fraction(0)
    assert certificate.q.get(0, Fraction(0)) == Fraction(2)
    assert certificate.q.get(1, Fraction(0)) == Fraction(0)
    assert certificate.objective == Fraction(8)


def test_dual_padding_when_indegree_deficient():
    g = Digraph.from_pairs(2, [(0, 1)])
    b = CapacityVector([1, 3])
    solution, certificate = max_weight_b_branching(g, b, [7])
    assert solution.arcs == {0}
    # fewer entering arcs than capacity: the threshold pads to zero
    assert certificate.p_vertex[1] == Fraction(0)
    assert certificate.q[0] == Fraction(7)
    assert verify_certificate(g, b, [7], solution.arcs, certificate)


def test_integral_weights_yield_integral_certificates():
    rng = random.Random(101)
    for _ in range(120):
        g = random_digraph(rng, 6, 12, loop_rate=0.1)
        b = random_capacities(rng, g, 3)
        w = random_weights(rng, g)
        _, certificate = max_weight_b_branching(g, b, w)
        assert certificate.is_integral


def test_rational_weights_stay_exact():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([1, 1])
    w = ["3/2", "2/3"]
    solution, certificate = max_weight_b_branching(g, b, w)
    assert WeightVector.from_values(w).value(solution.arcs) == Fraction(3, 2)
    assert verify_certificate(g, b, w, solution.arcs, certificate)


def test_weights_parsed_once_match_the_list():
    # README's quick start builds one WeightVector for both calls; a plain
    # list of "num/den" strings, parsed by each call, gives the same
    # solution, certificate and verdicts.
    rng = random.Random(0x51)
    for _ in range(200):
        g = random_digraph(rng, 7, 14, loop_rate=0.1)
        b = random_capacities(rng, g, 3)
        w = [f"{rng.randint(-6, 24)}/{rng.choice((1, 2, 3, 6))}" for _ in g.arc_ids]
        wv = WeightVector.from_values(w)
        solution, certificate = max_weight_b_branching(g, b, wv)
        assert max_weight_b_branching(g, b, w) == (solution, certificate)
        for tampered in (certificate, replace(certificate, objective=certificate.objective + 1)):
            check = verify_certificate(g, b, wv, solution.arcs, tampered)
            assert verify_certificate(g, b, w, solution.arcs, tampered) == check
            assert check.ok == (tampered is certificate)


def test_greedy_matches_brute_force():
    rng = random.Random(103)
    for _ in range(150):
        g = random_digraph(rng, 6, 12, loop_rate=0.1)
        b = random_capacities(rng, g, 3)
        w = random_weights(rng, g)
        solution, certificate = max_weight_b_branching(g, b, w)
        wv = WeightVector.from_values(w)
        assert wv.value(solution.arcs) == brute_max_weight(g, b, w)
        assert verify_certificate(g, b, w, solution.arcs, certificate)


def test_phase_count_bounded_and_monotone():
    from bbranching.greedy import _run_phases

    rng = random.Random(107)
    for _ in range(80):
        g = random_digraph(rng, 6, 14)
        b = random_capacities(rng, g, 2)
        w = {a: rng.randint(1, 3) for a in g.arc_ids}
        _, history = _run_phases(g, b, [w[a] for a in g.arc_ids], {})
        assert len(history) <= g.vertex_count + g.arc_count + 1
        assert all(history[:-1]) and history[-1] == ()
        for steps in history:
            for step in steps:
                assert step.cheapest_internal in step.internal
                assert set(step.replacement) == set(step.merged)


def test_certificate_laminarity():
    rng = random.Random(109)
    for _ in range(150):
        g = random_digraph(rng, 6, 14)
        b = CapacityVector([1] * g.vertex_count)
        w = [rng.randint(1, 3) for _ in range(g.arc_count)]
        _, certificate = max_weight_b_branching(g, b, w)
        sets = [members for members, _ in certificate.p_sets]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                a, c = sets[i], sets[j]
                assert not (a & c) or a <= c or c <= a


def test_deeply_nested_contractions_certified():
    # chain of tight cycles, each swallowing the previous blob: the
    # certificate must carry one set per level, all nested and verified
    depth = 30
    pairs = [(0, 1), (1, 0)]
    weights = [1000, 1000]
    prev = 1
    for level in range(depth):
        v = level + 2
        w = 999 - level
        pairs.append((v, 0 if level == 0 else prev))
        weights.append(w)
        pairs.append((prev, v))
        weights.append(w)
        prev = v
    g = Digraph.from_pairs(depth + 2, pairs)
    b = CapacityVector([1] * g.vertex_count)
    solution, certificate = max_weight_b_branching(g, b, weights)
    assert len(certificate.p_sets) == depth + 1
    sets = [members for members, _ in certificate.p_sets]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            assert sets[i] <= sets[j] or sets[j] <= sets[i] or not (sets[i] & sets[j])
    check = verify_certificate(g, b, weights, solution.arcs, certificate)
    assert check, check.reason


def test_medium_scale_contraction_heavy_run_is_certified():
    # narrow unit-capacity weights force many nested contractions; the
    # verified certificate proves optimality where brute force cannot reach
    rng = random.Random(2027)
    g = random_digraph(rng, 100, 2000, loop_rate=0.02)
    b = CapacityVector([1] * g.vertex_count)
    w = [rng.randint(1, 3) for _ in range(g.arc_count)]
    solution, certificate = max_weight_b_branching(g, b, w)
    assert len(certificate.p_sets) >= 1
    check = verify_certificate(g, b, w, solution.arcs, certificate)
    assert check, check.reason
    assert certificate.is_integral


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unit_capacities_match_networkx_maximum_branching(seed):
    # With b = 1 the problem is the classical maximum branching, so Edmonds'
    # algorithm in networkx is an independent oracle far beyond brute force.
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    n = 150
    pairs = []
    for _ in range(1500):
        tail = rng.randrange(n)
        pairs.append((tail, tail if rng.random() < 0.02 else rng.randrange(n)))
    pairs += pairs[:50]  # parallel arcs
    g = Digraph.from_pairs(n, pairs)
    b = CapacityVector([1] * n)
    w = [rng.randint(-5, 40) for _ in range(g.arc_count)]
    solution, certificate = max_weight_b_branching(g, b, w)
    check = verify_certificate(g, b, w, solution.arcs, certificate)
    assert check, check.reason

    multi = nx.MultiDiGraph()
    multi.add_nodes_from(range(n))
    for a, tail, head in g.arcs():
        if tail != head:
            multi.add_edge(tail, head, key=a, weight=w[a])
    branching = nx.maximum_branching(multi, attr="weight")
    expected = sum(weight for _, _, weight in branching.edges(data="weight"))
    assert WeightVector.from_values(w).value(solution.arcs) == expected


def test_verify_accepts_trivial_certificate():
    g = Digraph.from_pairs(2, [(0, 1)])
    b = CapacityVector([1, 1])
    cert = DualCertificate(
        p_vertex={0: Fraction(0), 1: Fraction(0)},
        p_sets=(),
        q={},
        objective=Fraction(0),
    )
    assert verify_certificate(g, b, [0], set(), cert)


def test_verify_rejects_tampered_certificates():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([1, 1])
    w = [3, 2]
    solution, certificate = max_weight_b_branching(g, b, w)

    negative_q = DualCertificate(
        certificate.p_vertex, certificate.p_sets, {1: Fraction(-1)}, certificate.objective
    )
    check = verify_certificate(g, b, w, solution.arcs, negative_q)
    assert not check and check.reason == "arc-potential-negative"

    wrong_objective = DualCertificate(
        certificate.p_vertex, certificate.p_sets, certificate.q, certificate.objective + 1
    )
    check = verify_certificate(g, b, w, solution.arcs, wrong_objective)
    assert not check and check.reason == "objective-mismatch"

    no_sets = DualCertificate(certificate.p_vertex, (), certificate.q, certificate.objective)
    assert not verify_certificate(g, b, w, solution.arcs, no_sets)

    infeasible_primal = verify_certificate(g, b, w, {0, 1}, certificate)
    assert not infeasible_primal and infeasible_primal.reason == "primal-sparsity-violated"


def test_dual_from_run_signature_uses_history():
    g = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    b = CapacityVector([1, 1])
    from bbranching.greedy import _run_phases

    work = Digraph(g.vertices, list(g.arcs()))
    final, history = _run_phases(work, b, [3, 2], {})
    certificate = dual_from_run(history, g, b, [3, 2])
    assert verify_certificate(g, b, [3, 2], final, certificate)


def test_empty_graph():
    g = Digraph.from_pairs(0, [])
    b = CapacityVector([])
    solution, certificate = max_weight_b_branching(g, b, [])
    assert solution.arcs == frozenset()
    assert certificate.objective == 0
    assert verify_certificate(g, b, [], solution.arcs, certificate)
