"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (rational arithmetic, zero tolerance).  Criterion 6
is implemented literally and is expected to fail: the unrestricted all-pairs
form of the modularity claims is provably false for disjoint vertex sets.
The companion tests below it pin the two-vertex counterexample and verify
the intersecting-pairs form that the packing construction actually uses.
"""

import random
import time
from itertools import combinations

import pytest

from bbranching import (
    CapacityVector,
    DemandVector,
    Digraph,
    MatroidAssignment,
    PackingInstance,
    WeightVector,
    brute_exists_packing,
    brute_max_weight,
    check_cover_conditions,
    check_packing_conditions,
    cover_by_b_branchings,
    find_disjoint_b_branchings,
    g_value,
    integer_decompose,
    is_b_branching,
    max_weight_b_branching,
    mr_max_weight_b_branching,
    partition_oracle,
    sparsity_violating_components,
    uniform_oracle,
    verify_certificate,
)
from bbranching.matroids import indegree_profile
from bbranching.oracle import brute_max_weight_restricted

from helpers import enumerate_b_branchings, random_indegree_independent_set, reference_sparsity


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}", flush=True)


def _criterion1_instances():
    rng = random.Random(0xB1)
    instances = []
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(0, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        graph = Digraph.from_pairs(n, pairs)
        capacities = CapacityVector([rng.randint(1, 3) for _ in range(n)])
        weights = [rng.randint(0, 10) for _ in range(m)]
        instances.append((graph, capacities, weights))
    return instances


INSTANCES_C1 = _criterion1_instances()
SOLUTIONS_C1 = [
    max_weight_b_branching(graph, capacities, weights)
    for graph, capacities, weights in INSTANCES_C1
]


def test_criterion_1_greedy_optimality():
    start = time.perf_counter()
    for graph, capacities, weights in INSTANCES_C1:
        solution, _ = max_weight_b_branching(graph, capacities, weights)
        wv = WeightVector.from_values(weights)
        assert wv.value(solution.arcs) == brute_max_weight(graph, capacities, weights)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report("1 greedy optimality", ok, f"200 instances, {elapsed:.2f} s")
    assert ok


def test_criterion_2_tdi_certificates():
    for (graph, capacities, weights), (solution, certificate) in zip(
        INSTANCES_C1, SOLUTIONS_C1
    ):
        assert certificate.is_integral
        check = verify_certificate(
            graph, capacities, weights, solution.arcs, certificate
        )
        assert check, check.reason
        wv = WeightVector.from_values(weights)
        assert certificate.objective == wv.value(solution.arcs)
    _report("2 TDI certificates", True, "200 certificates, exact")


def test_criterion_3_component_detection_equivalence():
    rng = random.Random(0xB3)
    circuits_seen = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        m = rng.randint(0, 14)
        pairs = []
        for _ in range(m):
            tail = rng.randrange(n)
            head = tail if rng.random() < 0.1 else rng.randrange(n)
            pairs.append((tail, head))
        graph = Digraph.from_pairs(n, pairs)
        capacities = CapacityVector([rng.randint(1, 3) for _ in range(n)])
        arcs = random_indegree_independent_set(rng, graph, capacities)
        tight = sparsity_violating_components(graph, capacities, arcs)
        assert (not tight) == reference_sparsity(graph, capacities, arcs)
        for component in tight:
            inside = frozenset(
                a
                for a in arcs
                if graph.tail(a) in component and graph.head(a) in component
            )
            assert len(inside) == capacities.total(component)
            assert not reference_sparsity(graph, capacities, inside)
            for a in inside:
                assert reference_sparsity(graph, capacities, inside - {a})
            circuits_seen += 1
    _report("3 component detection", True, f"500 sets, {circuits_seen} circuits checked")


def _classical_branching_optimum(graph, weights):
    """Independent oracle: scan all arc subsets, test indegree <= 1 and acyclicity."""
    arcs = graph.arc_ids
    best = 0
    for mask in range(1 << len(arcs)):
        subset = [arcs[i] for i in range(len(arcs)) if mask >> i & 1]
        heads = [graph.head(a) for a in subset]
        if len(set(heads)) != len(heads):
            continue
        parent = {graph.head(a): graph.tail(a) for a in subset}
        if any(graph.head(a) == graph.tail(a) for a in subset):
            continue
        cyclic = False
        for start in parent:
            seen = set()
            v = start
            while v in parent and v not in seen:
                seen.add(v)
                v = parent[v]
            if v in seen:
                cyclic = True
                break
        if cyclic:
            continue
        best = max(best, sum(weights[a] for a in subset))
    return best


def test_criterion_4_unit_capacity_regression():
    rng = random.Random(0xB4)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rng.randint(0, 10)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        graph = Digraph.from_pairs(n, pairs)
        capacities = CapacityVector([1] * n)
        weights = [rng.randint(0, 10) for _ in range(m)]
        solution, _ = max_weight_b_branching(graph, capacities, weights)
        got = sum(weights[a] for a in solution.arcs)
        assert got == _classical_branching_optimum(graph, weights)
    _report("4 unit-capacity regression", True, "100 digraphs")


def _criterion5_instances():
    rng = random.Random(0xB5)
    instances = []
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rng.randint(0, 10)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        graph = Digraph.from_pairs(n, pairs)
        capacities = CapacityVector([rng.randint(1, 2) for _ in range(n)])
        k = rng.randint(1, 2)
        demands = []
        for _ in range(k):
            values = [rng.randint(0, capacities[v]) for v in range(n)]
            if all(values[v] == capacities[v] for v in range(n)):
                values[rng.randrange(n)] -= 1
            demands.append(DemandVector(values))
        instances.append(PackingInstance(graph, capacities, tuple(demands)))
    return instances


INSTANCES_C5 = _criterion5_instances()


def test_criterion_5_packing_characterization():
    feasible = 0
    for instance in INSTANCES_C5:
        conditions = check_packing_conditions(instance)
        assert bool(conditions) == brute_exists_packing(instance)
        if not conditions:
            continue
        result = find_disjoint_b_branchings(instance)
        used = set()
        for demand, part in zip(instance.demands, result.branchings):
            profile = indegree_profile(instance.graph, part)
            assert all(profile[v] == demand[v] for v in instance.graph.vertices)
            assert is_b_branching(instance.graph, instance.capacities, part)
            assert not (part & used)
            used |= part
        feasible += 1
    _report("5 packing characterization", True, f"100 instances, {feasible} feasible")


def _all_subsets(vertices):
    verts = sorted(vertices)
    return [
        frozenset(combo)
        for size in range(len(verts) + 1)
        for combo in combinations(verts, size)
    ]


def _cut_indegree(graph, subset):
    return sum(
        1
        for v in subset
        for a in graph.in_arc_ids(v)
        if graph.tail(a) not in subset
    )


def test_criterion_6_modularity_all_pairs():
    # Literal reading: every pair of vertex sets.  This is known to be
    # unattainable; the first violating pair is reported.
    violation = None
    for index, instance in enumerate(INSTANCES_C5):
        subsets = _all_subsets(instance.graph.vertices)
        for x in subsets:
            for y in subsets:
                gx, gy = g_value(instance, x), g_value(instance, y)
                gu, gi = g_value(instance, x | y), g_value(instance, x & y)
                if gx + gy > gu + gi:
                    violation = (index, sorted(x), sorted(y), "supermodularity")
                    break
                hx = _cut_indegree(instance.graph, x) - gx
                hy = _cut_indegree(instance.graph, y) - gy
                hu = _cut_indegree(instance.graph, x | y) - gu
                hi = _cut_indegree(instance.graph, x & y) - gi
                if hx + hy < hu + hi:
                    violation = (index, sorted(x), sorted(y), "submodularity")
                    break
            if violation:
                break
        if violation:
            break
    ok = violation is None
    _report(
        "6 modularity (literal, all pairs)",
        ok,
        "known defect of the literal claim; fails on disjoint pairs"
        if not ok
        else "",
    )
    assert ok, (
        "all-pairs modularity is provably false for disjoint sets; "
        f"first violation: instance {violation[0]}, X={violation[1]}, "
        f"Y={violation[2]} ({violation[3]}); the intersecting-pair form "
        "is verified by test_criterion_6_modularity_intersecting_pairs"
    )


def test_criterion_6_modularity_intersecting_pairs():
    # The form the constructive proof actually uses: pairs with a common
    # vertex.  Verified exhaustively on the criterion-5 instances.
    pairs_checked = 0
    for instance in INSTANCES_C5:
        subsets = _all_subsets(instance.graph.vertices)
        for x in subsets:
            for y in subsets:
                if not (x & y):
                    continue
                gx, gy = g_value(instance, x), g_value(instance, y)
                gu, gi = g_value(instance, x | y), g_value(instance, x & y)
                assert gx + gy <= gu + gi
                hx = _cut_indegree(instance.graph, x) - gx
                hy = _cut_indegree(instance.graph, y) - gy
                hu = _cut_indegree(instance.graph, x | y) - gu
                hi = _cut_indegree(instance.graph, x & y) - gi
                assert hx + hy >= hu + hi
                pairs_checked += 1
    _report("6 modularity (intersecting pairs)", True, f"{pairs_checked} pairs")


def test_criterion_6_disjoint_counterexample_is_real():
    # Pin the defect: the smallest instance violating the literal claim.
    graph = Digraph.from_pairs(2, [(0, 1)])
    instance = PackingInstance(
        graph, CapacityVector([1, 1]), (DemandVector([1, 0]),)
    )
    x, y = frozenset({0}), frozenset({1})
    lhs = g_value(instance, x) + g_value(instance, y)
    rhs = g_value(instance, x | y) + g_value(instance, x & y)
    assert lhs == 1 and rhs == 0 and lhs > rhs


def test_criterion_7_cover_and_decomposition():
    rng = random.Random(0xB7)
    covered = 0
    attempts = 0
    while covered < 100 and attempts < 3000:
        attempts += 1
        n = rng.randint(1, 5)
        m = rng.randint(0, 9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        graph = Digraph.from_pairs(n, pairs)
        capacities = CapacityVector([rng.randint(1, 2) for _ in range(n)])
        k = rng.randint(1, 3)
        if not check_cover_conditions(graph, capacities, k):
            continue
        parts = cover_by_b_branchings(graph, capacities, k)
        assert len(parts) == k
        seen: dict[int, int] = {}
        for part in parts:
            for a in part.arcs:
                seen[a] = seen.get(a, 0) + 1
        assert set(seen) == set(graph.arc_ids)
        assert all(c == 1 for c in seen.values())

        feasible_sets = enumerate_b_branchings(graph, capacities)
        chosen = [feasible_sets[rng.randrange(len(feasible_sets))] for _ in range(k)]
        vector = [sum(1 for c in chosen if a in c) for a in graph.arc_ids]
        decomposition = integer_decompose(graph, capacities, k, vector)
        totals = [0] * graph.arc_count
        for part in decomposition:
            assert is_b_branching(graph, capacities, part)
            for a in part:
                totals[a] += 1
        assert totals == vector
        covered += 1
    assert covered >= 100
    _report("7 cover and decomposition", True, f"{covered} instances")


def test_criterion_8_matroid_restriction():
    # uniform oracles reproduce the plain optimum on the criterion-1 instances
    for (graph, capacities, weights), (solution, _) in zip(INSTANCES_C1, SOLUTIONS_C1):
        assignment = MatroidAssignment(
            {
                v: uniform_oracle(graph.in_arc_ids(v), capacities[v])
                for v in graph.vertices
            }
        )
        restricted = mr_max_weight_b_branching(graph, capacities, weights, assignment)
        wv = WeightVector.from_values(weights)
        assert wv.value(restricted) == wv.value(solution.arcs)

    # random partition oracles against the restricted brute force
    rng = random.Random(0xB8)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(0, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        graph = Digraph.from_pairs(n, pairs)
        capacities = []
        oracles = {}
        for v in range(n):
            ground = list(graph.in_arc_ids(v))
            if ground and rng.random() < 0.7:
                rng.shuffle(ground)
                blocks = []
                while ground:
                    size = rng.randint(1, len(ground))
                    blocks.append(ground[:size])
                    ground = ground[size:]
                caps = [rng.randint(0, len(block)) for block in blocks]
                if sum(caps) == 0:
                    caps[0] = 1
                oracles[v] = partition_oracle(graph.in_arc_ids(v), blocks, caps)
                capacities.append(sum(caps))
            else:
                rank = rng.randint(1, 3)
                oracles[v] = uniform_oracle(graph.in_arc_ids(v), rank)
                capacities.append(rank)
        b = CapacityVector(capacities)
        weights = [rng.randint(0, 8) for _ in range(m)]
        restricted = mr_max_weight_b_branching(
            graph, b, weights, MatroidAssignment(oracles)
        )
        wv = WeightVector.from_values(weights)
        assert wv.value(restricted) == brute_max_weight_restricted(
            graph, b, weights, oracles
        )
    _report("8 matroid restriction", True, "200 uniform + 100 partition instances")


def test_criterion_9_performance():
    rng = random.Random(0xB9)
    n, m = 1000, 100_000
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    graph = Digraph.from_pairs(n, pairs)
    capacities = CapacityVector([rng.randint(1, 5) for _ in range(n)])
    weights = [rng.randint(0, 1000) for _ in range(m)]

    start = time.perf_counter()
    solution, certificate = max_weight_b_branching(graph, capacities, weights)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _report("9 performance", ok, f"|V|=1000 |A|=100000 in {elapsed:.2f} s")
    assert ok
    assert verify_certificate(graph, capacities, weights, solution.arcs, certificate)
