"""`verify_certificate` against the per-arc `Fraction` oracle `reference_verify`.

Both must return the same `(ok, reason)` on every certificate: the solver's
own, each with one value changed, and hand-built ones with crossing set
families or denominators that do not divide the weight denominator.
"""

import random
from dataclasses import replace
from fractions import Fraction

from bbranching import CapacityVector, Digraph, DualCertificate, max_weight_b_branching, verify_certificate

from helpers import random_capacities, random_digraph, reference_verify

DELTAS = (1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 7))
MUTATIONS = (
    "p_vertex", "p_set", "new_set", "q", "objective", "arc", "unknown_arc", "vertex_domain", "q_domain"
)

# The one verdict each of these mutations of an optimal pair can reach.
ONLY_REASON = {
    "objective": "objective-mismatch",
    "unknown_arc": "unknown-arc-ids",
    "vertex_domain": "vertex-potential-domain",
    "q_domain": "arc-potential-domain",
}


def assert_same_verdict(graph, caps, weights, arcs, certificate):
    fast = verify_certificate(graph, caps, weights, arcs, certificate)
    slow = reference_verify(graph, caps, weights, arcs, certificate)
    assert (fast.ok, fast.reason) == (slow.ok, slow.reason)
    return fast


def mutate(rng, graph, arcs, certificate, kind):
    """The solution and the certificate with exactly one thing changed."""
    delta = rng.choice(DELTAS)
    if kind == "arc" and graph.arc_count:
        return arcs ^ {rng.choice(graph.arc_ids)}, certificate
    if kind == "unknown_arc":
        return arcs | {graph.arc_count + rng.randrange(3)}, certificate
    if kind == "vertex_domain":
        p_vertex = dict(certificate.p_vertex)
        if rng.random() < 0.5:
            del p_vertex[rng.choice(graph.vertices)]
        else:
            p_vertex[rng.choice((-1, graph.vertex_count))] = abs(delta)
        return arcs, replace(certificate, p_vertex=p_vertex)
    if kind == "q_domain":
        outside = rng.choice((-1, graph.arc_count, graph.arc_count + 5))
        return arcs, replace(certificate, q={**certificate.q, outside: abs(delta)})
    if kind == "p_vertex":
        v = rng.choice(graph.vertices)
        p_vertex = dict(certificate.p_vertex)
        p_vertex[v] += delta
        return arcs, replace(certificate, p_vertex=p_vertex)
    if kind == "p_set" and certificate.p_sets:
        p_sets = list(certificate.p_sets)
        i = rng.randrange(len(p_sets))
        p_sets[i] = (p_sets[i][0], p_sets[i][1] + delta)
        return arcs, replace(certificate, p_sets=tuple(p_sets))
    if kind in ("p_set", "new_set"):
        members = frozenset(v for v in graph.vertices if rng.random() < 0.5)
        new = (members or frozenset(graph.vertices[:1]), abs(delta))
        return arcs, replace(certificate, p_sets=certificate.p_sets + (new,))
    if kind == "q" and graph.arc_count:
        a = rng.choice(graph.arc_ids)
        q = dict(certificate.q)
        q[a] = q.get(a, Fraction(0)) + delta
        return arcs, replace(certificate, q=q)
    return arcs, replace(certificate, objective=certificate.objective + delta)


def random_weights_mixed(rng, graph):
    if rng.random() < 0.5:
        return [rng.randint(-3, 12) for _ in graph.arc_ids]
    return [Fraction(rng.randint(-6, 24), rng.choice((1, 2, 3, 6))) for _ in graph.arc_ids]


def integral_as_int(weights):
    return [w.numerator if isinstance(w, Fraction) and w.denominator == 1 else w for w in weights]


def test_tampered_certificates_match_reference():
    # Each certificate is checked as built and with its integral weights and
    # values as ints.  `verify_certificate` has no duality-gap check: once
    # the earlier checks pass, the recomputed objective is the solution's
    # weight (README.md), so the reference, which keeps that check, never
    # reaches it, and a wrong objective alone reads `objective-mismatch`.
    rng = random.Random(0x5E1)
    reasons = set()
    for _ in range(2000):
        graph = random_digraph(rng, 7, 14, loop_rate=0.1)
        caps = random_capacities(rng, graph, 3)
        weights = random_weights_mixed(rng, graph)
        solution, certificate = max_weight_b_branching(graph, caps, weights)
        assert assert_same_verdict(graph, caps, weights, solution.arcs, certificate)
        cases = [(None, solution.arcs, certificate)]
        cases += [(kind, *mutate(rng, graph, solution.arcs, certificate, kind)) for kind in MUTATIONS]
        for kind, arcs, tampered in cases:
            for w, cert in ((weights, tampered), (integral_as_int(weights), cli_shaped(tampered))):
                check = assert_same_verdict(graph, caps, w, arcs, cert)
                assert check.reason != "duality-gap"
                if kind in ONLY_REASON:
                    assert check.reason == ONLY_REASON[kind], kind
                reasons.add((check.reason or "ok").split(":")[0])
    # The mutations reach every dual-side check, not only the first one.
    assert {
        "ok",
        "unknown-arc-ids",
        "primal-indegree-violated",
        "vertex-potential-domain",
        "vertex-potential-negative",
        "set-potential-negative",
        "arc-potential-negative",
        "arc-potential-domain",
        "dual-constraint-violated",
        "selected-arc-slack",
        "q-support-outside-solution",
        "vertex-potential-unsaturated",
        "set-potential-not-tight",
        "objective-mismatch",
    } <= reasons


def test_crossing_set_family():
    # Path 0 -> 1 -> 2 with unit caps: {0, 1} and {1, 2} cross, yet both are
    # tight for the solution {0, 1}, so the certificate is valid.
    graph = Digraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    caps = CapacityVector([1, 1, 1])
    weights = [3, 3, 0]
    certificate = DualCertificate(
        p_vertex={0: Fraction(0), 1: Fraction(0), 2: Fraction(0)},
        p_sets=((frozenset({0, 1}), Fraction(3)), (frozenset({1, 2}), Fraction(3))),
        q={},
        objective=Fraction(6),
    )
    assert assert_same_verdict(graph, caps, weights, {0, 1}, certificate)

    # A heavy arc 2 -> 1 lies inside {1, 2} only, so it is short by 3.
    heavy = Digraph.from_pairs(3, [(0, 1), (1, 2), (2, 0), (2, 1)])
    check = assert_same_verdict(heavy, caps, weights + [6], {0, 1}, certificate)
    assert check.reason == "dual-constraint-violated:arc=3"

    rng = random.Random(7)
    for _ in range(200):
        kind = rng.choice(MUTATIONS)
        arcs, tampered = mutate(rng, graph, frozenset({0, 1}), certificate, kind)
        assert_same_verdict(graph, caps, weights, arcs, tampered)


def test_denominators_that_do_not_divide_the_weight_denominator():
    # Integral weights, thirds in the certificate: scaling by the weight
    # denominator 1 leaves Fractions, which must still compare exactly.
    graph = Digraph.from_pairs(2, [(0, 1), (1, 0)])
    caps = CapacityVector([1, 1])
    certificate = DualCertificate(
        p_vertex={0: Fraction(0), 1: Fraction(1, 3)},
        p_sets=((frozenset({0, 1}), Fraction(8, 3)),),
        q={},
        objective=Fraction(3),
    )
    assert assert_same_verdict(graph, caps, [3, 2], {0}, certificate)
    # 1/3 + 5/3 = 2 falls short of the weight 3 of arc 0.
    short = replace(certificate, p_sets=((frozenset({0, 1}), Fraction(5, 3)),))
    assert assert_same_verdict(graph, caps, [3, 2], {0}, short).reason == (
        "dual-constraint-violated:arc=0"
    )

    # Halves in the weights, sevenths and thirds in the certificate.
    weights = [Fraction(7, 2), Fraction(1, 2)]
    sevenths = DualCertificate(
        p_vertex={0: Fraction(0), 1: Fraction(1, 7)},
        p_sets=((frozenset({0, 1}), Fraction(7, 2) - Fraction(1, 7)),),
        q={},
        objective=Fraction(7, 2),
    )
    assert assert_same_verdict(graph, caps, weights, {0}, sevenths)
    for objective in (Fraction(7, 2) + Fraction(1, 3), Fraction(10, 3)):
        assert_same_verdict(graph, caps, weights, {0}, replace(sevenths, objective=objective))

    rng = random.Random(11)
    for _ in range(200):
        kind = rng.choice(MUTATIONS)
        arcs, tampered = mutate(rng, graph, frozenset({0}), sevenths, kind)
        assert_same_verdict(graph, caps, weights, arcs, tampered)


def nested_chain(n: int = 200, noise: int = 400, seed: int = 0xC4):
    """Unit caps; every phase contracts one 2-cycle {blob, j}, so the
    certificate holds n - 1 nested sets."""
    rng = random.Random(seed)
    pairs = [(i, i + 1) for i in range(n - 1)] + [(k, 0) for k in range(1, n)]
    weights = [10**6] * (n - 1) + [2000 + 10 * (n - k) for k in range(1, n)]
    for _ in range(noise):
        pairs.append((rng.randrange(n), rng.randrange(n)))
        weights.append(rng.randint(0, 1000))
    return Digraph.from_pairs(n, pairs), CapacityVector([1] * n), weights


def test_nested_chain_matches_reference():
    graph, caps, weights = nested_chain()
    solution, certificate = max_weight_b_branching(graph, caps, weights)
    sizes = sorted(len(members) for members, _ in certificate.p_sets)
    assert sizes == list(range(2, graph.vertex_count + 1))
    assert assert_same_verdict(graph, caps, weights, solution.arcs, certificate)

    rng = random.Random(0xC4)
    for kind in MUTATIONS:
        arcs, tampered = mutate(rng, graph, solution.arcs, certificate, kind)
        assert_same_verdict(graph, caps, weights, arcs, tampered)


def mirrored_chain(n: int, noise: int, seed: int):
    """nested_chain with vertex v renamed n - 1 - v: the blob grows towards
    smaller ids, so each set's least member is below those of the sets
    inside it, and p_sets, sorted by (min, len), lists the outer set first."""
    graph, caps, weights = nested_chain(n, noise, seed)
    pairs = [(n - 1 - t, n - 1 - h) for _, t, h in graph.arcs()]
    return Digraph.from_pairs(n, pairs), caps, weights


def test_nested_family_listed_outside_in():
    graph, caps, weights = mirrored_chain(40, 80, 0xC5)
    solution, certificate = max_weight_b_branching(graph, caps, weights)
    sets = [members for members, _ in certificate.p_sets]
    assert [len(members) for members in sets] == list(range(graph.vertex_count, 1, -1))
    assert all(inner < outer for outer, inner in zip(sets, sets[1:]))
    assert assert_same_verdict(graph, caps, weights, solution.arcs, certificate)

    # The verdict does not depend on the order p_sets lists the family in.
    rng = random.Random(0xC5)
    shuffled = list(certificate.p_sets)
    for _ in range(5):
        rng.shuffle(shuffled)
        reordered = replace(certificate, p_sets=tuple(shuffled))
        assert assert_same_verdict(graph, caps, weights, solution.arcs, reordered)
        for kind in MUTATIONS:
            arcs, tampered = mutate(rng, graph, solution.arcs, reordered, kind)
            assert_same_verdict(graph, caps, weights, arcs, tampered)


def test_duplicate_sets_and_zero_potentials():
    # Splitting a set's potential over two copies of it, or adding a set of
    # potential 0, changes no enclosed sum and no objective term.
    rng = random.Random(0xD0)
    split = 0
    for _ in range(300):
        graph = random_digraph(rng, 7, 14, loop_rate=0.1)
        caps = random_capacities(rng, graph, 3)
        weights = random_weights_mixed(rng, graph)
        solution, certificate = max_weight_b_branching(graph, caps, weights)
        p_sets = list(certificate.p_sets)
        if p_sets:
            i = rng.randrange(len(p_sets))
            members, pot = p_sets[i]
            p_sets[i : i + 1] = [(members, pot / 3), (members, pot * 2 / 3)]
            split += 1
        zero = frozenset(v for v in graph.vertices if rng.random() < 0.5) or frozenset({0})
        p_sets.insert(rng.randrange(len(p_sets) + 1), (zero, Fraction(0)))
        padded = replace(certificate, p_sets=tuple(p_sets))
        assert assert_same_verdict(graph, caps, weights, solution.arcs, padded)
        for kind in MUTATIONS:
            arcs, tampered = mutate(rng, graph, solution.arcs, padded, kind)
            assert_same_verdict(graph, caps, weights, arcs, tampered)
    assert split >= 100


def test_crossing_family_inside_its_parent():
    # Read largest first, {0, 1, 2} lies inside {0, ..., 5}, the innermost
    # set so far of its least member, yet it crosses {2, 3, 4, 5}: the
    # family is not laminar though every set lies inside a larger one.  The
    # path 0 -> 1 -> ... -> 5 is tight for all three sets.
    graph = Digraph.from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 0)])
    caps = CapacityVector([1] * 6)
    weights = [3, 3, 4, 4, 4, 1, 2]
    certificate = DualCertificate(
        p_vertex={v: Fraction(0) for v in graph.vertices},
        p_sets=(
            (frozenset(range(6)), Fraction(1)),
            (frozenset({2, 3, 4, 5}), Fraction(3)),
            (frozenset({0, 1, 2}), Fraction(2)),
        ),
        q={},
        objective=Fraction(18),
    )
    arcs = frozenset(range(5))
    assert assert_same_verdict(graph, caps, weights, arcs, certificate)
    rng = random.Random(0xC6)
    for _ in range(200):
        tampered_arcs, tampered = mutate(rng, graph, arcs, certificate, rng.choice(MUTATIONS))
        assert_same_verdict(graph, caps, weights, tampered_arcs, tampered)


def test_deep_chain_matches_reference():
    graph, caps, weights = nested_chain(600, 300, 0x600)
    solution, certificate = max_weight_b_branching(graph, caps, weights)
    assert len(certificate.p_sets) == 599
    assert assert_same_verdict(graph, caps, weights, solution.arcs, certificate)
    rng = random.Random(0x600)
    for kind in MUTATIONS:
        arcs, tampered = mutate(rng, graph, solution.arcs, certificate, kind)
        assert_same_verdict(graph, caps, weights, arcs, tampered)


def cli_shaped(certificate):
    """The certificate with each integral value an `int`, as `cli._rational`
    returns the values of a document."""

    def value(x):
        return x.numerator if x.denominator == 1 else x

    return DualCertificate(
        p_vertex={v: value(p) for v, p in certificate.p_vertex.items()},
        p_sets=tuple((members, value(p)) for members, p in certificate.p_sets),
        q={a: value(x) for a, x in certificate.q.items()},
        objective=value(certificate.objective),
    )


def cli_shaped_mutant(rng, graph, arcs, certificate, kind):
    arcs, tampered = mutate(rng, graph, arcs, certificate, kind)
    return arcs, cli_shaped(tampered)


def test_cli_shaped_inputs_match_reference():
    # Weights as "num/den" strings and values as the CLI parses them; the
    # reference reads the weights through `Fraction` instead.
    rng = random.Random(0xC11)
    for _ in range(400):
        graph = random_digraph(rng, 7, 14, loop_rate=0.1)
        caps = random_capacities(rng, graph, 3)
        fractions = [Fraction(w) for w in random_weights_mixed(rng, graph)]
        strings = [f"{w.numerator}/{w.denominator}" for w in fractions]
        solution, certificate = max_weight_b_branching(graph, caps, strings)
        shaped = cli_shaped(certificate)
        assert verify_certificate(graph, caps, strings, solution.arcs, shaped)
        cases = [(solution.arcs, shaped)]
        cases += [cli_shaped_mutant(rng, graph, solution.arcs, shaped, kind) for kind in MUTATIONS]
        for arcs, tampered in cases:
            fast = verify_certificate(graph, caps, strings, arcs, tampered)
            slow = reference_verify(graph, caps, fractions, arcs, tampered)
            assert (fast.ok, fast.reason) == (slow.ok, slow.reason)


def test_negative_values_that_do_not_divide_the_weight_denominator():
    # -2/7 against integral weights scales to a Fraction; its sign still
    # decides, wherever it sits.
    rng = random.Random(0x27)
    minus = Fraction(-2, 7)
    seen = set()
    for _ in range(100):
        graph = random_digraph(rng, 6, 12, loop_rate=0.1)
        caps = random_capacities(rng, graph, 2)
        weights = [str(rng.randint(-3, 12)) for _ in graph.arc_ids]
        solution, certificate = max_weight_b_branching(graph, caps, weights)
        shaped = cli_shaped(certificate)
        v = rng.choice(graph.vertices)
        members = frozenset(rng.sample(graph.vertices, rng.randint(1, graph.vertex_count)))
        tampered = [
            replace(shaped, p_vertex={**shaped.p_vertex, v: minus}),
            replace(shaped, p_sets=shaped.p_sets + ((members, minus),)),
        ]
        if graph.arc_count:
            tampered.append(replace(shaped, q={**shaped.q, rng.choice(graph.arc_ids): minus}))
        for cert in tampered:
            check = assert_same_verdict(graph, caps, weights, solution.arcs, cert)
            seen.add(check.reason)
    assert seen == {"vertex-potential-negative", "set-potential-negative", "arc-potential-negative"}
