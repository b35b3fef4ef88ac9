import random
import tracemalloc
from itertools import combinations

import pytest

from bbranching import (
    CapacityVector,
    DemandVector,
    Digraph,
    InfeasiblePackingError,
    PackingInstance,
    WeightVector,
    brute_exists_packing,
    check_packing_conditions,
    digraph,
    exists_b_branching_with_indegree,
    find_disjoint_b_branchings,
    g_value,
    is_b_branching,
    min_weight_disjoint_b_branchings,
    packing,
)
from bbranching.matroids import CapacityError, indegree_profile

from helpers import count_flows, planted_packing_instance, random_packing_instance


def test_g_value_examples():
    g = Digraph.from_pairs(2, [(0, 1)])
    instance = PackingInstance(g, CapacityVector([1, 1]), (DemandVector([1, 0]),))
    assert g_value(instance, set()) == 0
    assert g_value(instance, {0, 1}) == 0  # demands always differ from capacities
    assert g_value(instance, {0}) == 1


def test_check_conditions_zero_demands():
    g = Digraph.from_pairs(3, [])
    instance = PackingInstance(
        g, CapacityVector([1, 1, 1]), (DemandVector([0, 0, 0]), DemandVector([0, 0, 0]))
    )
    assert check_packing_conditions(instance)


def test_check_conditions_single_arc():
    g = Digraph.from_pairs(2, [(0, 1)])
    instance = PackingInstance(g, CapacityVector([1, 1]), (DemandVector([0, 1]),))
    assert check_packing_conditions(instance)
    assert brute_exists_packing(instance)


def test_check_conditions_missing_arc_witness():
    g = Digraph.from_pairs(2, [])
    instance = PackingInstance(g, CapacityVector([1, 1]), (DemandVector([0, 1]),))
    feasibility = check_packing_conditions(instance)
    assert not feasibility
    assert feasibility.vertex == 1


def test_cut_condition_witness():
    # both demands want the lone arc into vertex 1's region
    g = Digraph.from_pairs(2, [(0, 1), (0, 1)])
    instance = PackingInstance(
        g,
        CapacityVector([2, 1]),
        (DemandVector([0, 1]), DemandVector([1, 1])),
    )
    feasibility = check_packing_conditions(instance)
    # degree condition passes at both vertices, the set condition must fail
    if not feasibility:
        assert feasibility.subset is not None or feasibility.vertex is not None


def test_unique_arborescence_packing():
    g = Digraph.from_pairs(4, [(0, 1), (1, 2), (1, 3)])
    b = CapacityVector([1, 1, 1, 1])
    instance = PackingInstance(g, b, (DemandVector([0, 1, 1, 1]),))
    result = find_disjoint_b_branchings(instance)
    assert result.branchings == (frozenset({0, 1, 2}),)


def test_find_disjoint_requires_feasible():
    g = Digraph.from_pairs(2, [])
    instance = PackingInstance(g, CapacityVector([1, 1]), (DemandVector([0, 1]),))
    with pytest.raises(InfeasiblePackingError):
        find_disjoint_b_branchings(instance)


def _entry_flows(n):
    return [frozenset({v}) for v in range(n)]


def test_construction_raises_the_entry_check_witness(monkeypatch):
    # The construction's entry step is the check itself: its n flows decide
    # the cut condition, raise the check's witness, and on a feasible
    # instance are where the first step starts.
    rng = random.Random(0xE7)
    instances = [random_packing_instance(rng, 6, 10, 3, 3, loop_rate=0.1) for _ in range(300)]
    verdicts = [check_packing_conditions(instance) for instance in instances]
    flows = count_flows(monkeypatch, digraph)
    kinds = set()
    for instance, verdict in zip(instances, verdicts):
        n = instance.graph.vertex_count
        flows.clear()
        if verdict:
            find_disjoint_b_branchings(instance)
            assert flows[:n] == _entry_flows(n)
            continue
        kinds.add("vertex" if verdict.vertex is not None else "subset")
        with pytest.raises(InfeasiblePackingError) as raised:
            find_disjoint_b_branchings(instance)
        assert str(raised.value) == f"instance is infeasible: {verdict}"
        assert raised.value.feasibility == verdict
        assert flows == ([] if verdict.vertex is not None else _entry_flows(n))
    assert kinds == {"vertex", "subset"}


def test_check_holds_one_residual_at_a_time():
    # A check-only call drops each vertex's residual once its flow is read,
    # so its peak is a few networks, where keeping n residuals for the
    # construction takes tens of MB at n = 320.  The verdict is the one the
    # construction's entry step reaches with every flow kept.
    for n, limit in ((160, 1 << 20), (320, 2 << 20)):
        instance = planted_packing_instance(random.Random(n), n, 2)
        tracemalloc.start()
        try:
            verdict = check_packing_conditions(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (n, peak)
        degree, _, flows = packing._packing_conditions(
            instance.graph,
            instance.capacities,
            frozenset(instance.graph.arc_ids),
            instance.demands,
        )
        kept = list(flows)
        assert verdict == (degree and packing._cut_witness(kept)) and verdict
        assert len(kept) == n


def test_exists_returns_the_check_verdict_from_one_construction(monkeypatch):
    # The single-part question is decided by the construction's entry step
    # alone, so the packing flows run once: as many as the construction
    # makes, n on a cut failure.  The verdict and witness are the ones
    # check_packing_conditions reports.
    rng = random.Random(0xE8)
    instances = [random_packing_instance(rng, 6, 10, 3, 1, loop_rate=0.1) for _ in range(300)]
    flows = count_flows(monkeypatch, digraph)
    expected = []
    for instance in instances:
        verdict = check_packing_conditions(instance)
        flows.clear()
        part = find_disjoint_b_branchings(instance).branchings[0] if verdict else None
        expected.append((verdict, part, list(flows)))
    monkeypatch.setattr(packing, "check_packing_conditions", None)
    kinds = set()
    for instance, (verdict, part, construction_flows) in zip(instances, expected):
        n = instance.graph.vertex_count
        flows.clear()
        got = exists_b_branching_with_indegree(
            instance.graph, instance.capacities, instance.demands[0]
        )
        assert got == (verdict, part)
        if verdict:
            assert flows == construction_flows and flows[:n] == _entry_flows(n)
        else:
            assert flows == ([] if verdict.vertex is not None else _entry_flows(n))
        kinds.add("ok" if verdict else "vertex" if verdict.vertex is not None else "subset")
    assert kinds == {"ok", "vertex", "subset"}


def test_construction_keeps_its_flows_across_commits(monkeypatch):
    # The first step runs one fresh flow per vertex; later steps rerun only
    # the flows a commit broke, and pair cuts are read off kept residuals,
    # so no flow ever goes into two vertices.
    sinks_seen = count_flows(monkeypatch, digraph)
    n = 30
    instance = planted_packing_instance(random.Random(0x30), n, 2)
    steps = sum(map(sum, instance.demands))
    find_disjoint_b_branchings(instance)
    assert all(len(sinks) == 1 for sinks in sinks_seen)
    assert n <= len(sinks_seen) and 2 * (len(sinks_seen) - n) < n * steps, (len(sinks_seen), steps)

    # Demand (0, 1, 1) at unit capacities: the tight set {0, 1} is found
    # only as the least cut into the pair {0, 1}.
    sinks_seen.clear()
    g = Digraph.from_pairs(3, [(1, 2), (0, 2), (0, 1)])
    pair = PackingInstance(g, CapacityVector([1, 1, 1]), (DemandVector([0, 1, 1]),))
    assert find_disjoint_b_branchings(pair).branchings == (frozenset({0, 2}),)
    assert sinks_seen and all(len(sinks) == 1 for sinks in sinks_seen)


def test_classical_disjoint_branchings_special_case():
    # unit capacities with 0/1 demands: feasibility must match the classical
    # cut condition counting the demand sets containing each vertex set
    rng = random.Random(71)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rng.randint(0, 9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        g = Digraph.from_pairs(n, pairs)
        b = CapacityVector([1] * n)
        k = rng.randint(1, 2)
        demands = []
        for _ in range(k):
            values = [rng.randint(0, 1) for _ in range(n)]
            if all(values):
                values[rng.randrange(n)] = 0
            demands.append(DemandVector(values))
        instance = PackingInstance(g, b, tuple(demands))
        classical = True
        for size in range(1, n + 1):
            for combo in combinations(range(n), size):
                inside = set(combo)
                cut = sum(
                    1
                    for a in g.arc_ids
                    if g.head(a) in inside and g.tail(a) not in inside
                )
                wanting = sum(
                    1 for d in demands if all(d[v] == 1 for v in inside)
                )
                if cut < wanting:
                    classical = False
        degree_ok = all(
            len(g.in_arc_ids(v)) >= sum(d[v] for d in demands) for v in range(n)
        )
        assert bool(check_packing_conditions(instance)) == (classical and degree_ok)


def test_random_packings_validate():
    rng = random.Random(73)
    built = 0
    for _ in range(150):
        instance = random_packing_instance(rng, loop_rate=0.1)
        feasible = check_packing_conditions(instance)
        assert bool(feasible) == brute_exists_packing(instance)
        if not feasible:
            continue
        result = find_disjoint_b_branchings(instance)
        used = set()
        for demand, part in zip(instance.demands, result.branchings):
            profile = indegree_profile(instance.graph, part)
            assert all(
                profile[v] == demand[v] for v in instance.graph.vertices
            )
            assert is_b_branching(instance.graph, instance.capacities, part)
            assert not (part & used)
            used |= part
        built += 1
    assert built > 20


def test_exists_with_prescribed_indegree():
    g = Digraph.from_pairs(3, [(0, 1), (1, 2)])
    b = CapacityVector([1, 1, 1])
    feasibility, arcs = exists_b_branching_with_indegree(g, b, DemandVector([0, 1, 1]))
    assert feasibility and arcs == {0, 1}
    feasibility, arcs = exists_b_branching_with_indegree(g, b, DemandVector([0, 0, 0]))
    assert feasibility and arcs == frozenset()
    with pytest.raises(CapacityError):
        exists_b_branching_with_indegree(
            Digraph.from_pairs(2, [(0, 1)]), CapacityVector([1, 1]), DemandVector([1, 1])
        )


def test_root_arborescence_special_case():
    # demands of one everywhere except a root reduce to arborescence existence
    g = Digraph.from_pairs(3, [(0, 1), (1, 2), (2, 1)])
    b = CapacityVector([1, 1, 1])
    feasibility, arcs = exists_b_branching_with_indegree(g, b, DemandVector([0, 1, 1]))
    assert feasibility
    assert arcs == {0, 1}
    no_path = Digraph.from_pairs(3, [(1, 2)])
    feasibility, arcs = exists_b_branching_with_indegree(
        no_path, b, DemandVector([0, 1, 1])
    )
    assert not feasibility and arcs is None


def test_min_weight_unique_solution_ignores_weights():
    g = Digraph.from_pairs(4, [(0, 1), (1, 2), (1, 3)])
    b = CapacityVector([1, 1, 1, 1])
    instance = PackingInstance(g, b, (DemandVector([0, 1, 1, 1]),))
    result = min_weight_disjoint_b_branchings(instance, [9, 9, 9])
    assert result.branchings == (frozenset({0, 1, 2}),)


def test_min_weight_equal_weights_total():
    g = Digraph.from_pairs(2, [(0, 1), (0, 1), (1, 0)])
    b = CapacityVector([1, 2])
    demands = (DemandVector([0, 1]), DemandVector([1, 1]))
    instance = PackingInstance(g, b, demands)
    assert check_packing_conditions(instance)
    result = min_weight_disjoint_b_branchings(instance, [4, 4, 4])
    wanted = sum(sum(d[v] for v in range(2)) for d in demands)
    total = sum(len(part) for part in result.branchings)
    assert total == wanted
    wv = WeightVector.from_values([4, 4, 4])
    assert sum(wv.value(part) for part in result.branchings) == 4 * wanted


def test_min_weight_matches_reference():
    import itertools

    def reference(instance, wv):
        g = instance.graph
        k = instance.k
        n = g.vertex_count
        best = [None]

        def parts_for(demand, available):
            per_vertex = []
            for v in range(n):
                pool = [a for a in g.in_arc_ids(v) if a in available]
                if len(pool) < demand[v]:
                    return []
                per_vertex.append(list(itertools.combinations(pool, demand[v])))
            out = []
            for combo in itertools.product(*per_vertex):
                subset = frozenset(a for chunk in combo for a in chunk)
                if is_b_branching(g, instance.capacities, subset):
                    out.append(subset)
            return out

        def search(i, available, acc):
            if i == k:
                if best[0] is None or acc < best[0]:
                    best[0] = acc
                return
            for part in parts_for(instance.demands[i], available):
                search(i + 1, available - part, acc + sum(wv.numerators[a] for a in part))

        search(0, frozenset(g.arc_ids), 0)
        return best[0]

    rng = random.Random(79)
    checked = 0
    for _ in range(80):
        instance = random_packing_instance(rng, max_vertices=4, max_arcs=7)
        if not check_packing_conditions(instance):
            continue
        w = [rng.randint(0, 5) for _ in range(instance.graph.arc_count)]
        wv = WeightVector.from_values(w)
        result = min_weight_disjoint_b_branchings(instance, w)
        got = sum(sum(wv.numerators[a] for a in part) for part in result.branchings)
        assert got == reference(instance, wv)
        checked += 1
    assert checked > 15


def test_min_weight_keeps_the_first_lightest_union():
    # The search visits one choice of entering arcs per vertex, but ties
    # still go to the lexicographically first union of least weight, the
    # one a scan of every same-size arc set in `combinations` order keeps.
    # Here the choices at vertices 1 and 2 give (0, 3), a 2-cycle, then
    # (3, 5) before (0, 4), which is first in that order.
    g = Digraph.from_pairs(3, [(1, 2), (1, 0), (2, 0), (2, 1), (0, 1), (0, 2)])
    pinned = PackingInstance(g, CapacityVector([1, 1, 1]), (DemandVector([0, 1, 1]),))
    assert min_weight_disjoint_b_branchings(pinned, [1] * 6).branchings == (frozenset({0, 4}),)
    rng = random.Random(0x3E)
    tied = 0
    for _ in range(300):
        instance = random_packing_instance(rng, max_vertices=5, max_arcs=9, loop_rate=0.1)
        if not check_packing_conditions(instance):
            continue
        graph, b, demands = instance.graph, instance.capacities, instance.demands
        needed = {v: sum(d[v] for d in demands) for v in graph.vertices}
        w = [rng.randint(0, 1) for _ in graph.arc_ids]
        lightest = []
        for union in combinations(graph.arc_ids, sum(needed.values())):
            sub = Digraph.from_pairs(graph.vertex_count, [graph.endpoints(a) for a in union])
            profile = indegree_profile(graph, union)
            if all(profile[v] == needed[v] for v in graph.vertices) and check_packing_conditions(
                PackingInstance(sub, b, demands)
            ):
                lightest.append((sum(w[a] for a in union), union))
        weight, first = min(lightest)
        tied += sum(1 for other, _ in lightest if other == weight) > 1
        parts = min_weight_disjoint_b_branchings(instance, w).branchings
        assert sorted(frozenset().union(*parts)) == list(first)
    assert tied > 20


def test_self_loop_can_be_packed():
    # a loop counts toward the vertex indegree but not toward any cut, so it
    # is a legitimate committed arc when the capacity leaves room
    g = Digraph.from_pairs(1, [(0, 0)])
    b = CapacityVector([2])
    instance = PackingInstance(g, b, (DemandVector([1]),))
    assert check_packing_conditions(instance)
    result = find_disjoint_b_branchings(instance)
    assert result.branchings == (frozenset({0}),)


def test_instance_validation():
    g = Digraph.from_pairs(2, [(0, 1)])
    with pytest.raises(ValueError):
        PackingInstance(g, CapacityVector([1, 1]), ())
    with pytest.raises(CapacityError):
        PackingInstance(g, CapacityVector([1, 1]), (DemandVector([1, 1]),))
