"""Generated instances: the solver agrees with the textbook reference, its
certificate verifies, and the set potentials the phase engine records are
exactly the certificate's."""

import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from bbranching import CapacityVector, Digraph, max_weight_b_branching, verify_certificate  # noqa: E402
from bbranching.greedy import WeightVector, _run_phases  # noqa: E402

from helpers import reference_max_weight  # noqa: E402

# Keep hypothesis's constant cache out of the source tree (see test_cli_fuzz.py).
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "bbranching-hypothesis")

WEIGHTS = st.integers(-5, 20) | st.builds(
    "{}/{}".format, st.integers(-20, 60), st.sampled_from([1, 2, 3, 4, 6, 7])
)


@st.composite
def instances(draw):
    """Up to 8 vertices and 24 arcs (loops and parallel arcs included),
    b in [1, 3], integer and "num/den" weights, negative ones included."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=24))
    caps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    weights = draw(st.lists(WEIGHTS, min_size=len(pairs), max_size=len(pairs)))
    return Digraph.from_pairs(n, pairs), CapacityVector(caps), weights


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(instances())
def test_recorded_potentials_make_a_verified_reference_certificate(instance):
    graph, capacities, weights = instance
    solution, certificate = max_weight_b_branching(graph, capacities, weights)
    arcs, expected = reference_max_weight(graph, capacities, weights)
    assert solution.arcs == arcs
    assert certificate == expected
    check = verify_certificate(graph, capacities, weights, solution.arcs, certificate)
    assert check, check.reason

    wv = WeightVector.from_values(weights)
    working = [w if w >= 0 else None for w in wv.numerators]
    _, history = _run_phases(graph, capacities, working, {})
    expansion: dict[int, frozenset] = {}
    recorded = []
    for step in (step for phase in history for step in phase):
        assert step.potential >= 0
        members = expansion[step.new_vertex] = frozenset().union(
            *(expansion.get(m, {m}) for m in step.merged)
        )
        if step.potential > 0:
            recorded.append((sorted(members), Fraction(step.potential, wv.denominator)))
    assert sorted(recorded) == sorted((sorted(m), p) for m, p in certificate.p_sets)
