import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from bbranching import (
    CapacityVector,
    DemandVector,
    Digraph,
    PackingInstance,
    check_packing_conditions,
    cli,
    cover_by_b_branchings,
    covering,
    digraph,
    find_disjoint_b_branchings,
    greedy,
    matroids,
    packing,
)
from bbranching.cli import InstanceDocument, run
from bbranching.greedy import WeightVector, parse_rational

from helpers import count_flows, planted_packing_instance, planted_parts

TWO_CYCLE = {"n": 2, "arcs": [[0, 1], [1, 0]], "b": [1, 1], "w": [3, 2]}


def write(tmp_path, payload, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def invoke(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_max_weight_two_cycle(tmp_path, capsys):
    path = write(tmp_path, TWO_CYCLE)
    code, out, _ = invoke(["max-weight", "--input", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == "3"
    assert payload["arcs"] == [0]
    cert = payload["certificate"]
    assert cert["p_sets"] == [{"X": [0, 1], "p": "2"}]
    assert cert["objective"] == "3"


def test_output_is_byte_identical(tmp_path, capsys):
    path = write(tmp_path, TWO_CYCLE)
    _, first, _ = invoke(["max-weight", "--input", path, "--quiet"], capsys)
    _, second, _ = invoke(["max-weight", "--input", path, "--quiet"], capsys)
    assert first == second


def test_verify_round_trip(tmp_path, capsys):
    path = write(tmp_path, TWO_CYCLE)
    code, out, _ = invoke(["max-weight", "--input", path], capsys)
    payload = json.loads(out)
    doc = dict(TWO_CYCLE)
    doc["solution"] = payload["arcs"]
    doc["certificate"] = payload["certificate"]
    verify_path = write(tmp_path, doc, "verify.json")
    code, out, _ = invoke(["verify", "--input", verify_path], capsys)
    assert code == 0 and json.loads(out) == {"ok": True}

    doc["certificate"] = dict(payload["certificate"])
    doc["certificate"]["objective"] = "99"
    bad_path = write(tmp_path, doc, "bad.json")
    code, out, _ = invoke(["verify", "--input", bad_path], capsys)
    assert code == 2
    result = json.loads(out)
    assert result["ok"] is False and "objective" in result["reason"]


def test_max_weight_with_oracle_flag(tmp_path, capsys):
    path = write(tmp_path, TWO_CYCLE)
    code, out, _ = invoke(["max-weight", "--input", path, "--oracle"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] == {"weight": "3", "agrees": True}


def test_feasible_indegree(tmp_path, capsys):
    doc = {"n": 2, "arcs": [[0, 1]], "b": [1, 1], "b_prime": [0, 1]}
    code, out, _ = invoke(["feasible-indegree", "--input", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"arcs": [0], "feasible": True}

    doc = {"n": 2, "arcs": [], "b": [1, 1], "b_prime": [0, 1]}
    code, out, _ = invoke(
        ["feasible-indegree", "--input", write(tmp_path, doc, "no.json")], capsys
    )
    assert code == 2
    assert json.loads(out) == {"feasible": False, "violated": {"v": 1}}


def test_feasible_indegree_oracle(tmp_path, capsys, monkeypatch):
    # The brute-force oracle agrees on a feasible and an infeasible demand
    # and leaves the output as it is; one that disagrees ends in exit 1.
    calls = []
    brute = cli.brute_exists_packing

    def counted(instance):
        calls.append(instance)
        return brute(instance)

    monkeypatch.setattr(cli, "brute_exists_packing", counted)
    for name, arcs, expected in (("yes.json", [[0, 1], [1, 0]], 0), ("no.json", [[1, 0]], 2)):
        path = write(tmp_path, {"n": 2, "arcs": arcs, "b": [1, 1], "b_prime": [0, 1]}, name)
        plain = invoke(["feasible-indegree", "--input", path], capsys)
        assert plain[0] == expected
        assert invoke(["feasible-indegree", "--input", path, "--oracle"], capsys) == plain
    assert len(calls) == 2

    monkeypatch.setattr(cli, "brute_exists_packing", lambda instance: not brute(instance))
    code, out, err = invoke(["feasible-indegree", "--input", path, "--oracle", "--quiet"], capsys)
    assert (code, out, err) == (1, "", "error: oracle disagreement on feasibility\n")


def test_pack_and_witness(tmp_path, capsys):
    doc = {
        "n": 2,
        "arcs": [[0, 1], [1, 0]],
        "b": [1, 1],
        "k": 2,
        "b_i": [[0, 1], [1, 0]],
    }
    code, out, _ = invoke(["pack", "--input", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"branchings": [[0], [1]]}

    infeasible = {
        "n": 2,
        "arcs": [[0, 1]],
        "b": [1, 1],
        "k": 2,
        "b_i": [[0, 1], [0, 1]],
    }
    code, out, _ = invoke(
        ["pack", "--input", write(tmp_path, infeasible, "inf.json"), "--oracle"], capsys
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert "violated" in payload


def test_pack_set_witness(tmp_path, capsys):
    # degree condition holds but the saturated two-cycle has no entering arc
    doc = {
        "n": 3,
        "arcs": [[1, 2], [2, 1]],
        "b": [1, 1, 1],
        "k": 1,
        "b_i": [[0, 1, 1]],
    }
    code, out, _ = invoke(["pack", "--input", write(tmp_path, doc)], capsys)
    assert code == 2
    assert json.loads(out)["violated"] == {"X": [1, 2]}


def test_pack_min_weight(tmp_path, capsys):
    doc = {
        "n": 2,
        "arcs": [[0, 1], [0, 1]],
        "b": [1, 1],
        "k": 1,
        "b_i": [[0, 1]],
        "w": [5, 2],
    }
    code, out, _ = invoke(["pack-min-weight", "--input", write(tmp_path, doc)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["total_weight"] == "2"
    assert payload["branchings"] == [[1]]


def test_cover(tmp_path, capsys):
    doc = {"n": 2, "arcs": [[0, 1], [1, 0]], "b": [1, 1], "k": 2}
    code, out, _ = invoke(["cover", "--input", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"branchings": [[0], [1]]}

    doc["k"] = 1
    code, out, _ = invoke(["cover", "--input", write(tmp_path, doc, "c1.json")], capsys)
    assert code == 2
    assert json.loads(out)["violated"] == {"X": [0, 1]}


def test_pack_min_weight_reports_infeasibility_past_the_arc_gate(tmp_path, capsys):
    # 23 arcs exceed the exhaustive search's gate of 22, but the builder
    # decides feasibility first, so the infeasible document still exits 2.
    doc = {"n": 3, "arcs": [[0, 1]] * 23, "b": [1, 1, 1], "k": 1, "b_i": [[0, 1, 1]]}
    doc["w"] = [1] * 23
    graph = Digraph.from_pairs(3, [(0, 1)] * 23)
    instance = PackingInstance(graph, CapacityVector([1, 1, 1]), (DemandVector([0, 1, 1]),))
    witness = check_packing_conditions(instance).witness()
    code, out, _ = invoke(["pack-min-weight", "--input", write(tmp_path, doc)], capsys)
    assert (code, json.loads(out)) == (2, {"feasible": False, "violated": witness})
    assert witness == {"v": 2}


def test_pack_and_cover_run_the_builders_flows_only(tmp_path, capsys, monkeypatch):
    # The builders decide feasibility themselves, so the CLI adds no flow of
    # its own to theirs.
    rng = random.Random(0xF1)
    instance = planted_packing_instance(rng, 10, 2)
    graph, b = instance.graph, instance.capacities
    pack = {
        "n": graph.vertex_count,
        "arcs": [[t, h] for _, t, h in graph.arcs()],
        "b": list(b),
        "k": instance.k,
        "b_i": [list(d) for d in instance.demands],
    }
    cover_b, pairs, _ = planted_parts(rng, 8, 3)
    cover = {"n": 8, "arcs": [list(pair) for pair in pairs], "b": list(cover_b), "k": 3}

    flows = count_flows(monkeypatch, digraph, packing, matroids)
    find_disjoint_b_branchings(instance)
    pack_flows = len(flows)
    flows.clear()
    cover_by_b_branchings(Digraph.from_pairs(8, pairs), cover_b, 3)
    cover_flows = len(flows)
    for command, doc, expected in (("pack", pack, pack_flows), ("cover", cover, cover_flows)):
        flows.clear()
        code, _, _ = invoke([command, "--input", write(tmp_path, doc), "--quiet"], capsys)
        assert (code, len(flows)) == (0, expected), command
    assert pack_flows >= 10 and cover_flows >= 8


def test_decompose_zero_vector(tmp_path, capsys):
    doc = {"n": 2, "arcs": [[0, 1]], "b": [1, 1], "k": 3, "x": [0]}
    code, out, _ = invoke(["decompose", "--input", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"parts": [[], [], []]}


def test_decompose_witness(tmp_path, capsys):
    doc = {"n": 2, "arcs": [[0, 1], [1, 0]], "b": [1, 1], "k": 1, "x": [1, 1]}
    code, out, _ = invoke(["decompose", "--input", write(tmp_path, doc)], capsys)
    assert code == 2
    assert json.loads(out)["feasible"] is False


def test_mr_max_weight(tmp_path, capsys):
    doc = {
        "n": 2,
        "arcs": [[0, 1], [0, 1], [0, 1], [0, 1]],
        "b": [1, 2],
        "w": [9, 8, 7, 6],
        "matroids": [
            None,
            {"kind": "partition", "blocks": [[0, 1], [2, 3]], "caps": [1, 1]},
        ],
    }
    code, out, _ = invoke(
        ["mr-max-weight", "--input", write(tmp_path, doc), "--oracle"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["arcs"] == [0, 2]
    assert payload["weight"] == "16"
    assert payload["oracle"]["agrees"] is True


def test_uniform_spec_matches_the_null_spec(tmp_path, capsys):
    doc = {"n": 3, "arcs": [[0, 1], [2, 1], [0, 1], [1, 2], [0, 2]], "b": [1, 2, 1]}
    doc["w"] = [4, 9, "7/2", 5, 6]
    runs = []
    for name, spec in (("null.json", None), ("uniform.json", {"kind": "uniform"})):
        path = write(tmp_path, dict(doc, matroids=[spec] * 3), name)
        runs.append(invoke(["mr-max-weight", "--input", path, "--oracle"], capsys))
    assert runs[0][0] == 0 and json.loads(runs[0][1])["oracle"]["agrees"] is True
    assert runs[1] == runs[0]


def test_mr_max_weight_rank_mismatch(tmp_path, capsys):
    doc = {
        "n": 2,
        "arcs": [[0, 1], [0, 1]],
        "b": [1, 2],
        "w": [1, 1],
        "matroids": [
            None,
            {"kind": "partition", "blocks": [[0], [1]], "caps": [1, 2]},
        ],
    }
    code, _, err = invoke(["mr-max-weight", "--input", write(tmp_path, doc)], capsys)
    assert code == 1 and "rank mismatch" in err


def test_malformed_inputs(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, _, err = invoke(["max-weight", "--input", str(bad_json)], capsys)
    assert code == 1

    code, _, err = invoke(
        ["max-weight", "--input", write(tmp_path, {"n": 2, "arcs": [[0, 5]], "b": [1, 1]})],
        capsys,
    )
    assert code == 1 and "$.arcs[0]" in err

    code, _, err = invoke(
        ["max-weight", "--input", write(tmp_path, {"n": 2, "arcs": [], "b": [1]}, "b.json")],
        capsys,
    )
    assert code == 1 and "$.b" in err

    doc = {"n": 2, "arcs": [[0, 1]], "b": [1, 1], "b_prime": [1, 1]}
    code, _, err = invoke(
        ["feasible-indegree", "--input", write(tmp_path, doc, "eq.json")], capsys
    )
    assert code == 1 and "$.b_prime" in err

    code, _, err = invoke(
        ["max-weight", "--input", str(tmp_path / "missing.json")], capsys
    )
    assert code == 1

    doc = dict(TWO_CYCLE, solution=[0])
    doc["certificate"] = {
        "p_vertex": [0, 0], "p_sets": [{"X": 5, "p": "2"}], "q": [0, 0], "objective": 0
    }
    code, _, err = invoke(["verify", "--input", write(tmp_path, doc, "x.json")], capsys)
    assert code == 1 and "$.certificate.p_sets[0].X" in err

    doc = dict(TWO_CYCLE, matroids=[None, {"kind": "partition", "blocks": [0], "caps": [1]}])
    code, _, err = invoke(
        ["mr-max-weight", "--input", write(tmp_path, doc, "blocks.json")], capsys
    )
    assert code == 1 and "$.matroids[1].blocks[0]" in err

    # Exponent forms would make Fraction build 10**999999999.
    doc = dict(TWO_CYCLE, w=["1e999999999", 2])
    code, _, err = invoke(["max-weight", "--input", write(tmp_path, doc, "exp.json")], capsys)
    assert code == 1 and "$.w[0]" in err and "exponent" in err

    doc = dict(TWO_CYCLE, solution=[0])
    doc["certificate"] = {"p_vertex": [0, 1], "p_sets": [], "q": [0, "2E999999999"], "objective": 3}
    code, _, err = invoke(["verify", "--input", write(tmp_path, doc, "qexp.json")], capsys)
    assert code == 1 and "$.certificate.q[1]" in err and "exponent" in err

    for bad in ("1_000", " 1/2", ".5", "3.", "1/0", "0x10"):
        doc = dict(TWO_CYCLE, w=[bad, 2])
        code, _, err = invoke(["max-weight", "--input", write(tmp_path, doc, "w.json")], capsys)
        assert code == 1 and "$.w[0]" in err, bad

    doc = dict(TWO_CYCLE, w=[3, True])
    code, _, err = invoke(["max-weight", "--input", write(tmp_path, doc, "bool.json")], capsys)
    assert code == 1 and "$.w[1]" in err and "booleans" in err

    # Each of these ended in a traceback: an unwritable DOT path, nesting
    # deeper than the JSON decoder recurses, and bytes that are not UTF-8.
    path = write(tmp_path, TWO_CYCLE)
    code, _, err = invoke(
        ["max-weight", "--input", path, "--dot", str(tmp_path / "no" / "such" / "x.dot")], capsys
    )
    assert code == 1 and err.startswith("error: cannot write") and err.count("\n") == 1

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    code, _, err = invoke(["max-weight", "--input", str(deep)], capsys)
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1

    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + json.dumps(TWO_CYCLE).encode("utf-16-le"))
    code, _, err = invoke(["max-weight", "--input", str(utf16)], capsys)
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1


def test_integer_weights_pass_through_unparsed():
    # The vector each document gave when every weight went through `Fraction`.
    for w in ([3, 2], [-7, 0], [3, "1/2"], ["3/2", "2/3"], ["-4/6", "0/3"], ["5", 10**30]):
        doc = InstanceDocument.parse(dict(TWO_CYCLE, w=w))
        expected = WeightVector.from_values([Fraction(*parse_rational(str(v))) for v in w])
        assert doc.weights() == expected, w
    numerators = InstanceDocument.parse(TWO_CYCLE).weights().numerators
    assert all(type(v) is int for v in numerators)


def test_certificate_strings_are_parsed_in_bulk(monkeypatch):
    # `verify` reads every certificate value the CLI wrote as a string; a
    # list of them reaches `parse_rational` only to name a bad value.
    calls = []

    def counted(text):
        calls.append(text)
        return parse_rational(text)

    monkeypatch.setattr(greedy, "parse_rational", counted)
    values = ["0"] * 1000 + ["3/6", "-4/2", "7"]
    parsed = cli._rationals(values, "$.certificate.q")
    assert parsed == [0] * 1000 + [Fraction(1, 2), -2, 7]
    assert [type(v) for v in parsed[-3:]] == [Fraction, int, int]
    assert cli._rationals(["0", "5"], "$.q") == [0, 5] and calls == []

    values[600] = "1/0"
    with pytest.raises(cli.InputError, match=r"\$\.certificate\.q\[600\]: cannot parse rational '1/0'"):
        cli._rationals(values, "$.certificate.q")
    assert calls and calls[-1] == "1/0"


def test_capacities_checked_before_the_graph_is_built(tmp_path, capsys, monkeypatch):
    def refuse(n, pairs):
        raise AssertionError(f"built a graph on {n} vertices")

    monkeypatch.setattr("bbranching.cli.Digraph.from_pairs", refuse)
    doc = {"n": 10**12, "arcs": [], "b": [1]}
    code, _, err = invoke(["max-weight", "--input", write(tmp_path, doc)], capsys)
    assert code == 1 and "$.b" in err


def test_rational_weights_round_trip(tmp_path, capsys):
    doc = {"n": 2, "arcs": [[0, 1], [1, 0]], "b": [1, 1], "w": ["3/2", "2/3"]}
    code, out, _ = invoke(["max-weight", "--input", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out)["weight"] == "3/2"


def test_dot_export(tmp_path, capsys):
    path = write(tmp_path, TWO_CYCLE)
    dot_path = tmp_path / "graph.dot"
    code, _, _ = invoke(
        ["max-weight", "--input", path, "--dot", str(dot_path)], capsys
    )
    assert code == 0
    text = dot_path.read_text()
    assert "digraph" in text and "0 -> 1" in text


def test_console_entry_point(tmp_path):
    path = write(tmp_path, TWO_CYCLE)
    proc = subprocess.run(
        [sys.executable, "-m", "bbranching", "max-weight", "--input", path, "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["weight"] == "3"


PACK = {"n": 2, "arcs": [[0, 1], [1, 0]], "b": [1, 1], "k": 2, "b_i": [[0, 1], [1, 0]]}
VERIFY = dict(
    TWO_CYCLE,
    solution=[0],
    certificate={"p_vertex": [0, 1], "p_sets": [{"X": [0, 1], "p": "2"}], "q": [0, 0], "objective": 3},
)
MATROIDS = dict(
    TWO_CYCLE,
    matroids=[None, {"kind": "partition", "blocks": [[0]], "caps": [1]}],
)


def _cert(**fields):
    return dict(VERIFY, certificate=dict(VERIFY["certificate"], **fields))


def _spec(**fields):
    return dict(MATROIDS, matroids=[None, dict(MATROIDS["matroids"][1], **fields)])


# One row per validation site: an accepted document with one field made
# malformed, and the whole error line it must give.
ERROR_LINES = [
    ("max-weight", [TWO_CYCLE], "$: instance document must be a JSON object"),
    ("max-weight", dict(TWO_CYCLE, n="2"), "$.n: expected an integer, got '2'"),
    ("max-weight", dict(TWO_CYCLE, n=-1), "$.n: vertex count must be nonnegative"),
    ("max-weight", dict(TWO_CYCLE, arcs={}), "$.arcs: expected a list of [tail, head] pairs"),
    ("max-weight", dict(TWO_CYCLE, arcs=[[0, 1], [1]]), "$.arcs[1]: expected a [tail, head] pair"),
    (
        "max-weight",
        dict(TWO_CYCLE, arcs=[[0, 1], [1, None]]),
        "$.arcs[1][1]: expected an integer, got None",
    ),
    ("max-weight", dict(TWO_CYCLE, arcs=[[0, 1], [2, 0]]), "$.arcs[1]: endpoint outside 0..1"),
    ("max-weight", dict(TWO_CYCLE, b=[1]), "$.b: expected a list of 2 capacities"),
    ("max-weight", dict(TWO_CYCLE, b=[1, 1.5]), "$.b[1]: expected an integer, got 1.5"),
    ("max-weight", dict(TWO_CYCLE, b=[1, 0]), "$.b: capacity at vertex 1 must be >= 1, got 0"),
    ("max-weight", dict(TWO_CYCLE, w=[3]), "$.w: expected a list of 2 weights"),
    (
        "max-weight",
        dict(TWO_CYCLE, w=[3, 2.5]),
        "$.w[1]: expected an integer or 'num/den' string, got 2.5",
    ),
    ("max-weight", dict(TWO_CYCLE, w=["1/2", "2/0"]), "$.w[1]: cannot parse rational '2/0'"),
    ("pack", dict(PACK, k="2"), "$.k: expected an integer, got '2'"),
    ("pack", dict(PACK, k=0), "$.k: k must be at least 1"),
    ("pack", dict(PACK, b_i=[[0, 1]]), "$.b_i: expected 2 demand vectors"),
    ("pack", dict(PACK, b_i=[[0, 1], [0]]), "$.b_i[1]: expected a list of 2 demands"),
    ("pack", dict(PACK, b_i=[[0, 1], [0, "1"]]), "$.b_i[1][1]: expected an integer, got '1'"),
    (
        "pack",
        dict(PACK, b_i=[[0, 1], [0, -1]]),
        "$.b_i[1]: demand at vertex 1 must be >= 0, got -1",
    ),
    ("decompose", dict(PACK, x=[1]), "$.x: expected a list of 2 multiplicities"),
    ("decompose", dict(PACK, x=[1, True]), "$.x[1]: expected an integer, got True"),
    ("verify", dict(VERIFY, solution=0), "$.solution: expected a list of arc ids"),
    ("verify", dict(VERIFY, solution=[0, "1"]), "$.solution[1]: expected an integer, got '1'"),
    ("verify", dict(VERIFY, solution=[0, 2]), "$.solution: unknown arc ids"),
    ("verify", dict(VERIFY, certificate=[]), "$.certificate: expected an object"),
    ("verify", _cert(p_vertex=[0]), "$.certificate.p_vertex: expected 2 values"),
    ("verify", _cert(p_vertex=[0, "x"]), "$.certificate.p_vertex[1]: cannot parse rational 'x'"),
    ("verify", _cert(q=[1, 0, 0]), "$.certificate.q: expected 2 values"),
    (
        "verify",
        _cert(q=[1, None]),
        "$.certificate.q[1]: expected an integer or 'num/den' string, got None",
    ),
    ("verify", _cert(p_sets={}), "$.certificate.p_sets: expected a list"),
    (
        "verify",
        _cert(p_sets=[{"X": [0, 1]}]),
        "$.certificate.p_sets[0]: expected an object with 'X' and 'p'",
    ),
    (
        "verify",
        _cert(p_sets=[{"X": 0, "p": 1}]),
        "$.certificate.p_sets[0].X: expected a list of vertex ids",
    ),
    (
        "verify",
        _cert(p_sets=[{"X": [0, "1"], "p": 1}]),
        "$.certificate.p_sets[0].X[1]: expected an integer, got '1'",
    ),
    (
        "verify",
        _cert(p_sets=[{"X": [0, 1], "p": True}]),
        "$.certificate.p_sets[0].p: booleans are not rationals",
    ),
    (
        "verify",
        _cert(objective="3e0"),
        "$.certificate.objective: exponent forms are not accepted: '3e0'",
    ),
    (
        "mr-max-weight",
        dict(MATROIDS, matroids=[None]),
        "$.matroids: expected a list of 2 oracle specs",
    ),
    (
        "mr-max-weight",
        dict(MATROIDS, matroids=[None, 1]),
        "$.matroids[1]: expected null or an object",
    ),
    ("mr-max-weight", _spec(kind="graphic"), "$.matroids[1]: unknown oracle kind 'graphic'"),
    (
        "mr-max-weight",
        _spec(caps=None),
        "$.matroids[1]: partition oracle needs 'blocks' and 'caps' lists",
    ),
    ("mr-max-weight", _spec(blocks=[0]), "$.matroids[1].blocks[0]: expected a list of arc ids"),
    (
        "mr-max-weight",
        _spec(blocks=[[1, "x"]]),
        "$.matroids[1].blocks[0][1]: expected an integer, got 'x'",
    ),
    ("mr-max-weight", _spec(caps=[True]), "$.matroids[1].caps[0]: expected an integer, got True"),
    ("mr-max-weight", _spec(caps=[1, 1]), "$.matroids[1]: one cap per block required"),
    ("mr-max-weight", _spec(caps=[0]), "$.matroids: oracle rank mismatch at vertex 1: 0 != 1"),
    # k parts cannot be listed when k does not fit in an index.
    ("cover", dict(PACK, k=10**30), "cover: the result does not fit in memory"),
    ("decompose", dict(PACK, k=10**30, x=[1, 0]), "decompose: the result does not fit in memory"),
]


@pytest.mark.parametrize(
    "command, doc, line", ERROR_LINES, ids=[line.split(":")[0] for _, _, line in ERROR_LINES]
)
def test_error_lines(tmp_path, capsys, command, doc, line):
    code, out, err = invoke([command, "--input", write(tmp_path, doc), "--quiet"], capsys)
    assert (code, out, err) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize("command", ["cover", "decompose"])
def test_parts_out_of_memory(tmp_path, capsys, monkeypatch, command):
    # Stands in for the list of 10**10 parts, which would not fit.
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(covering, "_augmented_cover_parts", out_of_memory)
    path = write(tmp_path, dict(PACK, k=10**10, x=[1, 0]))
    code, out, err = invoke([command, "--input", path, "--quiet"], capsys)
    assert (code, out, err) == (1, "", f"error: {command}: the result does not fit in memory\n")
