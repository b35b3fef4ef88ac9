"""Generated instances with a planted solution: the parts that packing, cover
and decomposition return are checked against the definitions, not against
the library's own feasibility tests."""

import tempfile
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from bbranching import (  # noqa: E402
    CapacityVector,
    DemandVector,
    Digraph,
    PackingInstance,
    cover_by_b_branchings,
    find_disjoint_b_branchings,
    integer_decompose,
)

# Keep hypothesis's constant cache out of the source tree (see test_cli_fuzz.py).
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "bbranching-hypothesis")

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def indegrees(n, ends):
    profile = [0] * n
    for _, head in ends:
        profile[head] += 1
    return profile


def is_b_branching(n, caps, ends):
    """At most b(v) arcs enter each v, and |F[X]| <= b(X) - 1 for every
    nonempty X; `ends` lists the (tail, head) of each arc of F."""
    if any(d > caps[v] for v, d in enumerate(indegrees(n, ends))):
        return False
    for size in range(1, n + 1):
        for members in combinations(range(n), size):
            inside = set(members)
            induced = sum(1 for t, h in ends if t in inside and h in inside)
            if induced > sum(caps[v] for v in members) - 1:
                return False
    return True


@st.composite
def planted(draw, disjoint):
    """(n, caps, pairs, parts): up to 5 vertices and 8 arcs (loops and
    parallel arcs included), b in [1, 2], and 1 to 3 b-branchings over the
    arc ids, built greedily from drawn candidates; pairwise disjoint if
    asked."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    caps = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    used = set()
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        part = []
        picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        for a, pick in enumerate(picks):
            if pick and not (disjoint and a in used):
                if is_b_branching(n, caps, [pairs[e] for e in part + [a]]):
                    part.append(a)
        used.update(part)
        parts.append(part)
    return n, caps, pairs, parts


@PROPERTY
@given(planted(disjoint=True))
def test_packing_parts_are_disjoint_b_branchings_with_the_demanded_indegrees(case):
    n, caps, pairs, planted_parts = case
    graph = Digraph.from_pairs(n, pairs)
    # A b-branching has at most b(V) - 1 arcs, so each demand differs from b.
    demands = [indegrees(n, [pairs[a] for a in part]) for part in planted_parts]
    instance = PackingInstance(
        graph, CapacityVector(caps), tuple(DemandVector(d) for d in demands)
    )
    parts = find_disjoint_b_branchings(instance).branchings
    assert len(parts) == len(demands)
    seen = Counter(a for part in parts for a in part)
    assert set(seen) <= set(range(len(pairs))) and all(c == 1 for c in seen.values())
    for part, demand in zip(parts, demands):
        ends = [pairs[a] for a in part]
        assert indegrees(n, ends) == demand
        assert is_b_branching(n, caps, ends)


@PROPERTY
@given(planted(disjoint=True))
def test_cover_parts_partition_the_arcs(case):
    n, caps, pairs, planted_parts = case
    union = sorted(a for part in planted_parts for a in part)
    ends = [pairs[a] for a in union]
    k = len(planted_parts)
    parts = cover_by_b_branchings(Digraph.from_pairs(n, ends), CapacityVector(caps), k)
    assert len(parts) == k
    assert sorted(a for part in parts for a in part.arcs) == list(range(len(ends)))
    for part in parts:
        assert is_b_branching(n, caps, [ends[a] for a in part.arcs])


@PROPERTY
@given(planted(disjoint=False))
def test_decomposition_parts_sum_to_the_vector(case):
    n, caps, pairs, planted_parts = case
    x = [0] * len(pairs)
    for part in planted_parts:
        for a in part:
            x[a] += 1
    k = len(planted_parts)
    parts = integer_decompose(Digraph.from_pairs(n, pairs), CapacityVector(caps), k, x)
    assert len(parts) == k
    total = Counter(a for part in parts for a in part)
    assert [total[a] for a in range(len(pairs))] == x
    for part in parts:
        assert is_b_branching(n, caps, [pairs[a] for a in part])
