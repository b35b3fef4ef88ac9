"""`max_weight_b_branching` against a linear program, past the 22-arc gate
of the brute-force oracles.

The b-branchings are the common independent sets of two matroids: the
indegree caps and the sparsity matroid `|F[X]| <= b(X) - 1`.  So the LP with
`0 <= x <= 1`, the indegree rows `x(delta-(v)) <= b(v)` and the sparsity rows
`x(A[X]) <= b(X) - 1` has an integral optimum (Edmonds 1970), which is the
maximum weight of a b-branching.  The sparsity rows are added by separation
on the slack network at k = 1, over floats: the source feeds each vertex v
with `b(v) - x(delta-(v))` and each non-loop arc carries `x(a)`, so a cut into
a sink set X holding r costs `b(X) - x(A[X])`, and a flow below 1 into r names
a violated set.  Floats stay in this file; the library is exact.
"""

import random

import pytest

nx = pytest.importorskip("networkx")
linprog = pytest.importorskip("scipy.optimize").linprog

from bbranching import CapacityVector, Digraph, is_b_branching, max_weight_b_branching

# A cut below 1 - CUT_EPS is a violated sparsity row.
CUT_EPS = 1e-6
# The weights are integers, so two different objectives differ by at least
# 1; HiGHS meets its rows to about 1e-7, far inside this tolerance.
TOL = 1e-3


def violated_sets(graph, caps, arcs, x):
    """The sink sides of the cuts below 1 into each vertex, for the LP point
    `x` over `arcs`."""
    net = nx.DiGraph()
    indegree = [0.0] * graph.vertex_count
    for a, value in zip(arcs, x):
        tail, head = graph.tails[a], graph.heads[a]
        indegree[head] += value
        if tail != head:
            held = net.get_edge_data(tail, head, {"capacity": 0.0})["capacity"]
            net.add_edge(tail, head, capacity=held + value)
    for v in graph.vertices:
        net.add_edge("s", v, capacity=max(0.0, caps[v] - indegree[v]))
    found = set()
    for r in graph.vertices:
        value, (_, sink_side) = nx.minimum_cut(net, "s", r)
        if value < 1 - CUT_EPS:
            found.add(frozenset(sink_side))
    return found


def lp_max_weight(graph, caps, weights):
    """The LP optimum and the optimum with the indegree rows alone."""
    arcs = [a for a in graph.arc_ids if weights[a] > 0]
    rows = [[float(graph.heads[a] == v) for a in arcs] for v in graph.vertices]
    bounds = list(caps)
    first = None
    while True:
        result = linprog([-weights[a] for a in arcs], A_ub=rows, b_ub=bounds, bounds=(0, 1))
        assert result.status == 0, result.message
        first = -result.fun if first is None else first
        cuts = violated_sets(graph, caps, arcs, result.x)
        if not cuts:
            return -result.fun, first
        for members in cuts:
            rows.append([float(graph.tails[a] in members and graph.heads[a] in members) for a in arcs])
            bounds.append(caps.total(members) - 1)


@pytest.fixture(scope="module")
def solved():
    """Eight draws of 20-40 vertices and 120-200 arcs, b <= 3, with the
    solver's answer and the LP optimum of each."""
    rng = random.Random(0x17)
    cases = []
    for _ in range(8):
        n = rng.randint(20, 40)
        m = rng.randint(120, 200)
        graph = Digraph.from_pairs(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        caps = CapacityVector([rng.choice((1, 1, 2, 3)) for _ in range(n)])
        weights = [rng.randint(-5, 30) for _ in range(m)]
        solution, _ = max_weight_b_branching(graph, caps, weights)
        cases.append((graph, caps, weights, solution.arcs, *lp_max_weight(graph, caps, weights)))
    return cases


def test_lp_optimum_matches_max_weight(solved):
    needed_cuts = 0
    for graph, caps, weights, arcs, optimum, first in solved:
        assert graph.arc_count > 22
        assert is_b_branching(graph, caps, arcs)
        assert abs(sum(weights[a] for a in arcs) - optimum) <= TOL
        needed_cuts += first > optimum + TOL
    # The sparsity rows decide some of the draws: the indegree rows alone
    # allow more weight there.
    assert needed_cuts


def test_lp_catches_a_dropped_heaviest_arc(solved):
    for graph, caps, weights, arcs, optimum, _ in solved:
        heaviest = max(arcs, key=weights.__getitem__)
        mutant = arcs - {heaviest}
        assert is_b_branching(graph, caps, mutant)
        assert abs(sum(weights[a] for a in mutant) - optimum) > TOL
