"""The max-flow checks and construction against the subset scans they replace.

`tests/helpers.py` keeps the scan versions: the packing and cover checks
minimize their set functions over every vertex set, and the construction
finds each step's tight set by a scan.  On seeded random instances the flow
code must give the same `Feasibility`, witness included, and the same parts
from packing, cover and decomposition.
"""

import random

import pytest

from bbranching import (
    CapacityVector,
    DecompositionError,
    DemandVector,
    Digraph,
    PackingInstance,
    check_cover_conditions,
    check_packing_conditions,
    covering,
    cover_by_b_branchings,
    find_disjoint_b_branchings,
    integer_decompose,
    is_b_branching,
)

from helpers import (
    planted_packing_instance,
    planted_parts,
    reference_check_packing,
    reference_cover_conditions,
    reference_disjoint_b_branchings,
)


def _instance(rng: random.Random, planted: bool) -> PackingInstance:
    """Up to 7 vertices, 12 arcs (about one in ten a loop), b in [1, 2] and
    1 to 3 demands; planted demands are the indegrees of disjoint greedy
    b-branchings, so most planted instances are feasible, and the others
    mostly fail a degree condition."""
    n = rng.randint(1, 7)
    pairs = []
    for _ in range(rng.randint(0, 12)):
        tail = rng.randrange(n)
        pairs.append((tail, tail if rng.random() < 0.1 else rng.randrange(n)))
    graph = Digraph.from_pairs(n, pairs)
    b = CapacityVector([rng.randint(1, 2) for _ in range(n)])
    used: set[int] = set()
    demands = []
    for _ in range(rng.randint(1, 3)):
        if planted:
            part: list[int] = []
            for a in graph.arc_ids:
                if a not in used and rng.random() < 0.6 and is_b_branching(graph, b, part + [a]):
                    part.append(a)
            used.update(part)
            values = [0] * n
            for a in part:
                values[graph.head(a)] += 1
        else:
            values = [rng.randint(0, b[v]) for v in range(n)]
        if all(values[v] == b[v] for v in range(n)):
            values[rng.randrange(n)] -= 1
        demands.append(DemandVector(values))
    return PackingInstance(graph, b, tuple(demands))


def _cut_off(rng: random.Random, instance: PackingInstance) -> PackingInstance:
    """Drop the arcs entering a random proper vertex set X, add a demand
    saturating X, and feed each member of X from inside X (a loop where X is
    one vertex) until the degree conditions hold: the cut condition fails."""
    graph, b, demands = instance.graph, instance.capacities, instance.demands
    n = graph.vertex_count
    if n < 2:
        return instance
    X = rng.sample(range(n), rng.randint(1, n - 1))
    pairs = [graph.endpoints(a) for a in graph.arc_ids if graph.head(a) not in X or graph.tail(a) in X]
    demands += (DemandVector([b[v] if v in X else 0 for v in range(n)]),)
    for v in X:
        need = sum(d[v] for d in demands) - sum(1 for _, h in pairs if h == v)
        pairs += [(rng.choice([u for u in X if u != v] or [v]), v)] * max(0, need)
    return PackingInstance(Digraph.from_pairs(n, pairs), b, demands)


def _decomposition(k: int, multiplicity):
    """`integer_decompose`'s parts, or its error and witness."""

    def run(graph, b):
        try:
            return [sorted(part) for part in integer_decompose(graph, b, k, multiplicity)]
        except DecompositionError as error:
            return str(error), error.witness

    return run


def _scan_copies(graph, b, k, copies):
    """The cover-condition scan of the multigraph carrying `copies[a]`
    copies of each arc a."""
    pairs = [graph.endpoints(a) for a in graph.arc_ids for _ in range(copies[a])]
    return reference_cover_conditions(Digraph.from_pairs(graph.vertex_count, pairs), b, k)


def test_flow_matches_the_scan_on_seeded_instances(monkeypatch):
    rng = random.Random(0xF10)
    counts = {"pack parts": 0, "pack witness": 0, "cover parts": 0, "cover witness": 0}
    for trial in range(400):
        instance = _instance(rng, planted=trial % 3 != 2)
        if trial % 3 == 1:
            instance = _cut_off(rng, instance)
        graph, b = instance.graph, instance.capacities
        got = check_packing_conditions(instance)
        assert got == reference_check_packing(instance), trial
        if got:
            parts = find_disjoint_b_branchings(instance).branchings
            assert parts == reference_disjoint_b_branchings(instance).branchings, trial
            counts["pack parts"] += 1
        elif got.subset is not None:
            counts["pack witness"] += 1

        k = rng.randint(1, 3)
        if trial % 3:
            k = max([k] + [-(-len(graph.in_arc_ids(v)) // b[v]) for v in graph.vertices])
        multiplicity = [rng.randint(0, k) for _ in graph.arc_ids]
        decompose = _decomposition(k, multiplicity)
        got = check_cover_conditions(graph, b, k)
        cover = [sorted(p.arcs) for p in cover_by_b_branchings(graph, b, k)] if got else None
        parts = decompose(graph, b)
        with monkeypatch.context() as scan:
            # The module-level names cover and decomposition call: both
            # check through `_cover_conditions`, decompose with copies.
            scan.setattr(covering, "_cover_conditions", _scan_copies)
            scan.setattr(covering, "find_disjoint_b_branchings", reference_disjoint_b_branchings)
            assert got == reference_cover_conditions(graph, b, k), trial
            if got:
                assert cover == [sorted(p.arcs) for p in cover_by_b_branchings(graph, b, k)], trial
                counts["cover parts"] += 1
            elif got.subset is not None:
                counts["cover witness"] += 1
            assert parts == decompose(graph, b), trial

    # Every path ran often enough to mean something.
    assert min(counts.values()) >= 40, counts


def test_pair_of_least_cuts_decides_the_tight_set():
    # Demand (0, 1, 1) at unit capacities: zero = {0}, full = {1, 2}.  The
    # least tight sets are {0}, {1} and V (into 2), so V is the only one
    # meeting the frontier.  The least tight frontier set is {0, 1}, which
    # no arc enters: only the least cut into the pair {0, 1} finds it.  It
    # commits arc 2 (0 -> 1) first; V would have committed arc 1 (0 -> 2).
    g = Digraph.from_pairs(3, [(1, 2), (0, 2), (0, 1)])
    instance = PackingInstance(g, CapacityVector([1, 1, 1]), (DemandVector([0, 1, 1]),))
    expected = (frozenset({0, 2}),)
    assert reference_disjoint_b_branchings(instance).branchings == expected
    assert find_disjoint_b_branchings(instance).branchings == expected


@pytest.mark.parametrize("seed", range(10))
def test_construction_matches_the_scan_past_seven_vertices(seed, monkeypatch):
    # Kept flows live through many more commits on 8 to 10 vertices than on
    # the 7 above: one planted 2-part pack and one planted 2-part cover per
    # seed, each against the construction that scans for its tight sets.
    # The cover's augmented graph has a root more, so it stops at 9.
    rng = random.Random(0xB8 + seed)
    instance = planted_packing_instance(rng, rng.randint(8, 10), 2)
    expected = reference_disjoint_b_branchings(instance).branchings
    assert find_disjoint_b_branchings(instance).branchings == expected

    n = rng.randint(8, 9)
    b, pairs, _ = planted_parts(rng, n, 2)
    graph = Digraph.from_pairs(n, pairs)
    cover = [sorted(p.arcs) for p in cover_by_b_branchings(graph, b, 2)]
    monkeypatch.setattr(covering, "find_disjoint_b_branchings", reference_disjoint_b_branchings)
    assert cover == [sorted(p.arcs) for p in cover_by_b_branchings(graph, b, 2)]
