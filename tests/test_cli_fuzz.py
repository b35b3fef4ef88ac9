"""Mutated instance documents never crash the CLI.

Each example takes a valid document for one command and makes one change:
a value (or the whole document) replaced by a random JSON value, a key or a
list entry dropped, or a list made longer or shorter.  Every run must end in
exit 0, 1 or 2; exit 1 must print exactly one `error: ` line and nothing on
standard output.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from bbranching.cli import COMMANDS, run  # noqa: E402

# Hypothesis caches the constants it reads from local source files under its
# home directory even with no example database (it does so while collecting);
# keep that cache out of the source tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "bbranching-hypothesis")

BASE = {
    "n": 2,
    "arcs": [[0, 1], [1, 0]],
    "b": [1, 1],
    "w": [3, "1/2"],
    "k": 2,
    "b_i": [[0, 1], [1, 0]],
    "b_prime": [0, 1],
    "x": [1, 1],
    "solution": [0],
    "certificate": {
        "p_vertex": [0, "5/2"],
        "p_sets": [{"X": [0, 1], "p": "1/2"}],
        "q": [0, 0],
        "objective": 3,
    },
    "matroids": [None, {"kind": "partition", "blocks": [[0]], "caps": [1]}],
}
GRAPH = ("n", "arcs", "b")
READS = {
    "max-weight": GRAPH + ("w",),
    "verify": GRAPH + ("w", "solution", "certificate"),
    "feasible-indegree": GRAPH + ("b_prime",),
    "pack": GRAPH + ("k", "b_i"),
    "pack-min-weight": GRAPH + ("k", "b_i", "w"),
    "cover": GRAPH + ("k",),
    "decompose": GRAPH + ("k", "x"),
    "mr-max-weight": GRAPH + ("w", "matroids"),
}

# Small integers keep every accepted document small enough to solve at once.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text("0123/-.ex", max_size=3)
    | st.sampled_from(["1/2", "-3", "2/0", "1e5", "0.5"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["X", "p", "kind", "n"]), inner, max_size=3),
    max_leaves=6,
)


def _slots(value):
    """(container, key) for every value nested in `value`."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield value, key
        yield from _slots(child)


def _mutate(doc: dict, data):
    """`doc` with one change drawn from `data`; may return a new document."""
    slots = list(_slots(doc))
    action = data.draw(st.sampled_from(["replace", "drop", "resize"]))
    if action == "resize":
        target = data.draw(st.sampled_from([c[k] for c, k in slots if isinstance(c[k], list)]))
        if target and data.draw(st.booleans()):
            del target[data.draw(st.integers(0, len(target) - 1)) :]
        else:
            target.extend(data.draw(st.lists(JSON_VALUES, min_size=1, max_size=2)))
    elif action == "drop":
        container, key = data.draw(st.sampled_from(slots))
        del container[key]
    else:
        slot = data.draw(st.sampled_from([None] + slots))
        value = data.draw(JSON_VALUES)
        if slot is None:
            return value
        container, key = slot
        container[key] = value
    return doc


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_mutated_documents_end_in_a_documented_exit(tmp_path_factory, data):
    command = data.draw(st.sampled_from(COMMANDS))
    doc = _mutate({key: copy.deepcopy(BASE[key]) for key in READS[command]}, data)
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command, "--input", str(path), "--quiet"])
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 2) and err.getvalue() == ""
        json.loads(out.getvalue())


def test_unmutated_documents_are_accepted(tmp_path, capsys):
    for command in COMMANDS:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({key: BASE[key] for key in READS[command]}))
        assert run([command, "--input", str(path), "--quiet"]) == 0, command
        json.loads(capsys.readouterr().out)
