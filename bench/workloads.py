"""The four workloads: set-up, one measured pass, and the output checks.

A pass runs the workload's ops.  Each op is timed inside a tracer op span;
its output is checked afterwards, outside the span, and a failed check or an
exception counts the op as failed.  `Program` holds the freshly imported
package modules, so every call goes through the bindings the hooks wrap.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import generators as gen

# Largest arc count for which the matroid-restricted result is also compared
# with the exhaustive oracle.
MR_BRUTE_MAX_ARCS = 12


class SetupError(RuntimeError):
    """The generated inputs are not the ones the workload promises."""


@dataclass
class Program:
    bb: object
    cli: object
    oracle: object

    @classmethod
    def load(cls) -> "Program":
        """Import bbranching afresh, so set-up time includes the import."""
        for name in [m for m in sys.modules if m == "bbranching" or m.startswith("bbranching.")]:
            del sys.modules[name]
        return cls(
            importlib.import_module("bbranching"),
            importlib.import_module("bbranching.cli"),
            importlib.import_module("bbranching.oracle"),
        )


@dataclass
class PassResult:
    """One pass: timed op seconds per op kind, latencies and failures."""

    op_seconds: Counter = field(default_factory=Counter)
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0

    @property
    def run_s(self) -> float:
        return sum(self.op_seconds.values())

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def check(self, predicate, what: str) -> None:
        """Record the op as failed when predicate() is false or raises."""
        try:
            ok = bool(predicate())
        except Exception:
            traceback.print_exc()
            ok = False
        self.record(ok, what)


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _graph(bb, doc):
    return bb.Digraph.from_pairs(doc["n"], doc["arcs"]), bb.CapacityVector(doc["b"])


def _timed(tracer, result: PassResult, kind: str, func):
    """Run func inside an op span; returns (value, error text or None)."""
    with tracer.op_span(f"op.{kind}") as span:
        try:
            value, error = func(), None
        except Exception:
            value, error = None, traceback.format_exc()
    result.op_seconds[kind] += span[3] - span[2]
    return value, error


def _run_cli(prog: Program, tracer, result: PassResult, kind: str, argv: list):
    """In-process CLI call with stdout captured; returns (exit code, stdout)."""
    sink = io.StringIO()

    def call():
        with contextlib.redirect_stdout(sink):
            return prog.cli.run(argv)

    code, error = _timed(tracer, result, kind, call)
    if error:
        print(error, file=sys.stderr)
    out = sink.getvalue()
    result.output_bytes += len(out.encode("utf-8"))
    return code, out


# ---------------------------------------------------------------------------
# maxweight-large: the criterion-9 instance through the CLI


class MaxWeightLarge:
    name = "maxweight-large"
    default_seed = gen.CRITERION9_SEED

    def setup(self, prog: Program, seed: int, workdir: str) -> dict:
        doc = gen.maxweight_large(seed)
        n, m = gen.CRITERION9_SIZE
        if doc["n"] != n or len(doc["arcs"]) != m:
            raise SetupError(f"expected |V|={n} |A|={m}")
        if seed == gen.CRITERION9_SEED and gen.digest(doc) != gen.CRITERION9_DIGEST:
            raise SetupError("default seed no longer rebuilds the criterion-9 instance")
        path = os.path.join(workdir, "maxweight.json")
        _write(path, doc)
        return {"doc": doc, "path": path, "verify_path": os.path.join(workdir, "verify.json")}

    def run_pass(self, prog: Program, ctx: dict, tracer) -> PassResult:
        result = PassResult()
        doc = ctx["doc"]
        code, out = _run_cli(
            prog, tracer, result, "max-weight", ["max-weight", "--input", ctx["path"], "--quiet"]
        )
        try:
            payload = json.loads(out) if code == 0 else None
            verify_doc = dict(doc, solution=payload["arcs"], certificate=payload["certificate"])
        except (ValueError, TypeError, KeyError):
            result.record(False, f"max-weight exited {code} with output {out[:200]!r}")
            return result
        _write(ctx["verify_path"], verify_doc)
        code, out = _run_cli(
            prog, tracer, result, "verify", ["verify", "--input", ctx["verify_path"], "--quiet"]
        )

        def valid():
            weight = Fraction(payload["weight"])
            graph, caps = _graph(prog.bb, doc)
            return (
                code == 0
                and json.loads(out) == {"ok": True}
                and weight == Fraction(payload["certificate"]["objective"])
                and weight == sum(doc["w"][a] for a in payload["arcs"])
                and prog.bb.is_b_branching(graph, caps, payload["arcs"])
            )

        result.check(valid, f"max-weight/verify output (verify exit {code})")
        return result


# ---------------------------------------------------------------------------
# contraction-chain: the phase engine at depth, through the library


class ContractionChain:
    name = "contraction-chain"
    default_seed = 0xC4

    def setup(self, prog: Program, seed: int, workdir: str) -> dict:
        return {"doc": gen.contraction_chain(seed)}

    def run_pass(self, prog: Program, ctx: dict, tracer) -> PassResult:
        result = PassResult()
        bb, doc = prog.bb, ctx["doc"]

        def op():
            graph, caps = _graph(bb, doc)
            solution, certificate = bb.max_weight_b_branching(graph, caps, doc["w"])
            return bb.verify_certificate(graph, caps, doc["w"], solution.arcs, certificate)

        check, error = _timed(tracer, result, "solve-verify", op)
        result.record(error is None and bool(check), error or f"certificate: {check}")
        return result


# ---------------------------------------------------------------------------
# pack-cover: the SFM-backed commands through the CLI


def _indegrees(doc: dict, arcs) -> list[int]:
    counts = [0] * doc["n"]
    for a in arcs:
        counts[doc["arcs"][a][1]] += 1
    return counts


def _valid_witness(cmd: str, doc: dict, witness: dict) -> bool:
    """Whether the reported witness violates the condition it stands for."""
    n, b, arcs = doc["n"], doc["b"], doc["arcs"]
    copies = doc.get("x", [1] * len(arcs))
    k = doc["k"]
    if cmd == "decompose" and "arc" in witness:
        return not 0 <= copies[witness["arc"]] <= k
    if "v" in witness:
        v = witness["v"]
        received = sum(c for (_, h), c in zip(arcs, copies) if h == v)
        if cmd == "pack":
            return received < sum(d[v] for d in doc["b_i"])
        return received > k * b[v]
    inside = set(witness.get("X", ()))
    if not inside or not inside <= set(range(n)):
        return False
    cap = sum(b[v] for v in inside)
    if cmd == "pack":
        entering = sum(1 for t, h in arcs if h in inside and t not in inside)
        demanding = sum(1 for d in doc["b_i"] if sum(d[v] for v in inside) == cap)
        return entering < demanding
    induced = sum(c for (t, h), c in zip(arcs, copies) if t in inside and h in inside)
    return induced > k * (cap - 1)


def _valid_parts(bb, cmd: str, doc: dict, parts: list) -> bool:
    graph, caps = _graph(bb, doc)
    if len(parts) != doc["k"] or not all(bb.is_b_branching(graph, caps, p) for p in parts):
        return False
    used = Counter(a for part in parts for a in part)
    if any(len(set(p)) != len(p) for p in parts):
        return False
    if cmd == "pack":
        return max(used.values(), default=1) == 1 and all(
            _indegrees(doc, part) == demand for part, demand in zip(parts, doc["b_i"])
        )
    if cmd == "cover":
        return used == Counter(range(len(doc["arcs"])))
    return all(used[a] == c for a, c in enumerate(doc["x"])) and sum(used.values()) == sum(doc["x"])


class PackCover:
    name = "pack-cover"
    default_seed = 0x9C

    def setup(self, prog: Program, seed: int, workdir: str) -> dict:
        ops = []
        for i, (cmd, doc, expected) in enumerate(gen.pack_cover(seed)):
            path = os.path.join(workdir, f"pc-{i:02d}-{cmd}.json")
            _write(path, doc)
            ops.append((cmd, doc, path, expected))
        return {"ops": ops}

    def run_pass(self, prog: Program, ctx: dict, tracer) -> PassResult:
        result = PassResult()
        for cmd, doc, path, expected in ctx["ops"]:
            code, out = _run_cli(prog, tracer, result, cmd, [cmd, "--input", path, "--quiet"])
            result.check(
                lambda: code == expected and self._valid_output(prog, cmd, doc, expected, out),
                f"{cmd} on {os.path.basename(path)} exited {code}",
            )
        return result

    @staticmethod
    def _valid_output(prog: Program, cmd: str, doc: dict, expected: int, out: str) -> bool:
        payload = json.loads(out)
        if expected == 2:
            return payload["feasible"] is False and _valid_witness(cmd, doc, payload["violated"])
        parts = payload["parts" if cmd == "decompose" else "branchings"]
        return _valid_parts(prog.bb, cmd, doc, parts)


# ---------------------------------------------------------------------------
# small-batch: many tiny library calls, plain and matroid-restricted


def _oracles(bb, graph, caps, specs) -> dict:
    oracles = {}
    for v, spec in enumerate(specs):
        ground = graph.in_arc_ids(v)
        if spec is None:
            oracles[v] = bb.uniform_oracle(ground, caps[v])
        else:
            oracles[v] = bb.partition_oracle(ground, spec["blocks"], spec["caps"])
    return oracles


class SmallBatch:
    name = "small-batch"
    default_seed = 0x5B

    def __init__(self, count: int = gen.SMALL_BATCH_INSTANCES):
        self.count = count

    def setup(self, prog: Program, seed: int, workdir: str) -> dict:
        return {"docs": gen.small_batch(seed, self.count)}

    def run_pass(self, prog: Program, ctx: dict, tracer) -> PassResult:
        result = PassResult()
        bb = prog.bb
        for doc in ctx["docs"]:

            def solve_verify():
                graph, caps = _graph(bb, doc)
                solution, certificate = bb.max_weight_b_branching(graph, caps, doc["w"])
                return bb.verify_certificate(graph, caps, doc["w"], solution.arcs, certificate)

            before = result.op_seconds["solve-verify"]
            check, error = _timed(tracer, result, "solve-verify", solve_verify)
            result.latencies.append(result.op_seconds["solve-verify"] - before)
            result.record(error is None and bool(check), error or f"certificate: {check}")

        for doc in ctx["docs"]:

            def restricted():
                graph, caps = _graph(bb, doc)
                oracles = _oracles(bb, graph, caps, doc["matroids"])
                assignment = bb.MatroidAssignment(oracles)
                return graph, caps, oracles, bb.mr_max_weight_b_branching(graph, caps, doc["w"], assignment)

            value, error = _timed(tracer, result, "mr", restricted)
            result.check(lambda: error is None and self._mr_ok(prog, doc, *value), error or "mr output")
        return result

    @staticmethod
    def _mr_ok(prog: Program, doc: dict, graph, caps, oracles, arcs) -> bool:
        bb = prog.bb
        for v in graph.vertices:
            if not oracles[v].is_independent([a for a in graph.in_arc_ids(v) if a in arcs]):
                return False
        if not bb.is_b_branching(graph, caps, arcs):
            return False
        if len(doc["arcs"]) > MR_BRUTE_MAX_ARCS:
            return True
        best = prog.oracle.brute_max_weight_restricted(graph, caps, doc["w"], oracles)
        return best == sum((Fraction(doc["w"][a]) for a in arcs), Fraction(0))


WORKLOADS = {w.name: w for w in (MaxWeightLarge(), ContractionChain(), PackCover(), SmallBatch())}
