"""Command-line front end: JSON instances in, JSON results out.

Exit codes: 0 on success, 2 when the instance is infeasible (a witness is
included in the output), 1 on malformed input or oracle disagreement.  All
diagnostics go to standard error; output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .covering import DecompositionError, check_cover_conditions, cover_by_b_branchings, integer_decompose
from .digraph import Digraph
from .greedy import (
    DualCertificate,
    WeightError,
    WeightVector,
    max_weight_b_branching,
    parse_rational,
    verify_certificate,
)
from .matroids import CapacityError, CapacityVector, DemandVector, partition_oracle, uniform_oracle
from .mrgreedy import MatroidAssignment, mr_max_weight_b_branching
from .oracle import brute_exists_packing, brute_max_weight, brute_max_weight_restricted
from .packing import (
    Feasibility,
    PackingInstance,
    check_packing_conditions,
    exists_b_branching_with_indegree,
    find_disjoint_b_branchings,
    min_weight_disjoint_b_branchings,
)

COMMANDS = (
    "max-weight",
    "verify",
    "feasible-indegree",
    "pack",
    "pack-min-weight",
    "cover",
    "decompose",
    "mr-max-weight",
)


class InputError(ValueError):
    """Malformed instance document; message carries a JSON path."""


def _fail(path: str, message: str) -> "InputError":
    return InputError(f"{path}: {message}")


def _expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _parse_rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise _fail(path, "booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(*parse_rational(value))
        except WeightError as exc:
            raise _fail(path, str(exc)) from None
    raise _fail(path, f"expected an integer or 'num/den' string, got {value!r}")


@dataclass
class InstanceDocument:
    """Validated view of one instance file."""

    raw: dict
    graph: Digraph
    capacities: CapacityVector

    @classmethod
    def parse(cls, raw: Any) -> "InstanceDocument":
        if not isinstance(raw, dict):
            raise _fail("$", "instance document must be a JSON object")
        n = _expect_int(raw.get("n"), "$.n")
        if n < 0:
            raise _fail("$.n", "vertex count must be nonnegative")
        arcs = raw.get("arcs")
        if not isinstance(arcs, list):
            raise _fail("$.arcs", "expected a list of [tail, head] pairs")
        pairs = []
        for i, entry in enumerate(arcs):
            if not isinstance(entry, list) or len(entry) != 2:
                raise _fail(f"$.arcs[{i}]", "expected a [tail, head] pair")
            tail = _expect_int(entry[0], f"$.arcs[{i}][0]")
            head = _expect_int(entry[1], f"$.arcs[{i}][1]")
            if not (0 <= tail < n and 0 <= head < n):
                raise _fail(f"$.arcs[{i}]", f"endpoint outside 0..{n - 1}")
            pairs.append((tail, head))
        # Checked before the graph is built, so that a short document with a
        # huge n is rejected without allocating n vertices.
        b = raw.get("b")
        if not isinstance(b, list) or len(b) != n:
            raise _fail("$.b", f"expected a list of {n} capacities")
        try:
            capacities = CapacityVector([_expect_int(c, f"$.b[{i}]") for i, c in enumerate(b)])
        except CapacityError as exc:
            raise _fail("$.b", str(exc)) from None
        return cls(raw, Digraph.from_pairs(n, pairs), capacities)

    def weights(self) -> WeightVector:
        w = self.raw.get("w")
        if not isinstance(w, list) or len(w) != self.graph.arc_count:
            raise _fail("$.w", f"expected a list of {self.graph.arc_count} weights")
        # JSON integers pass through, so integer documents take the all-int
        # path of `from_values`; only the other values are parsed here.
        values = [
            v if type(v) is int else _parse_rational(v, f"$.w[{i}]") for i, v in enumerate(w)
        ]
        return WeightVector.from_values(values)

    def parts_count(self) -> int:
        k = _expect_int(self.raw.get("k"), "$.k")
        if k < 1:
            raise _fail("$.k", "k must be at least 1")
        return k

    def _demand_from(self, values: Any, path: str) -> DemandVector:
        n = self.graph.vertex_count
        if not isinstance(values, list) or len(values) != n:
            raise _fail(path, f"expected a list of {n} demands")
        try:
            demand = DemandVector([_expect_int(c, f"{path}[{i}]") for i, c in enumerate(values)])
            demand.validate_against(self.capacities)
        except CapacityError as exc:
            raise _fail(path, str(exc)) from None
        return demand

    def demands(self, k: int) -> tuple[DemandVector, ...]:
        b_i = self.raw.get("b_i")
        if not isinstance(b_i, list) or len(b_i) != k:
            raise _fail("$.b_i", f"expected {k} demand vectors")
        return tuple(self._demand_from(values, f"$.b_i[{i}]") for i, values in enumerate(b_i))

    def demand(self) -> DemandVector:
        return self._demand_from(self.raw.get("b_prime"), "$.b_prime")

    def multiplicity(self) -> list[int]:
        x = self.raw.get("x")
        m = self.graph.arc_count
        if not isinstance(x, list) or len(x) != m:
            raise _fail("$.x", f"expected a list of {m} multiplicities")
        return [_expect_int(c, f"$.x[{i}]") for i, c in enumerate(x)]

    def matroid_assignment(self) -> MatroidAssignment:
        specs = self.raw.get("matroids")
        n = self.graph.vertex_count
        if not isinstance(specs, list) or len(specs) != n:
            raise _fail("$.matroids", f"expected a list of {n} oracle specs")
        oracles = {}
        for v, spec in enumerate(specs):
            path = f"$.matroids[{v}]"
            ground = self.graph.in_arc_ids(v)
            if spec is None:
                oracles[v] = uniform_oracle(ground, self.capacities[v])
                continue
            if not isinstance(spec, dict):
                raise _fail(path, "expected null or an object")
            kind = spec.get("kind")
            if kind == "uniform":
                oracles[v] = uniform_oracle(ground, self.capacities[v])
            elif kind == "partition":
                blocks = spec.get("blocks")
                caps = spec.get("caps")
                if not isinstance(blocks, list) or not isinstance(caps, list):
                    raise _fail(path, "partition oracle needs 'blocks' and 'caps' lists")
                for i, blk in enumerate(blocks):
                    if not isinstance(blk, list):
                        raise _fail(f"{path}.blocks[{i}]", "expected a list of arc ids")
                try:
                    oracles[v] = partition_oracle(
                        ground,
                        [[_expect_int(a, f"{path}.blocks") for a in blk] for blk in blocks],
                        [_expect_int(c, f"{path}.caps") for c in caps],
                    )
                except ValueError as exc:
                    raise _fail(path, str(exc)) from None
            else:
                raise _fail(path, f"unknown oracle kind {kind!r}")
        assignment = MatroidAssignment(oracles)
        try:
            assignment.validate(self.graph, self.capacities)
        except ValueError as exc:
            raise InputError(f"$.matroids: {exc}") from None
        return assignment

    def solution(self) -> frozenset:
        arcs = self.raw.get("solution")
        if not isinstance(arcs, list):
            raise _fail("$.solution", "expected a list of arc ids")
        ids = frozenset(_expect_int(a, f"$.solution[{i}]") for i, a in enumerate(arcs))
        if not ids <= self.graph.arc_id_set:
            raise _fail("$.solution", "unknown arc ids")
        return ids

    def certificate(self) -> DualCertificate:
        obj = self.raw.get("certificate")
        if not isinstance(obj, dict):
            raise _fail("$.certificate", "expected an object")
        n = self.graph.vertex_count
        m = self.graph.arc_count
        pv = obj.get("p_vertex")
        if not isinstance(pv, list) or len(pv) != n:
            raise _fail("$.certificate.p_vertex", f"expected {n} values")
        q = obj.get("q")
        if not isinstance(q, list) or len(q) != m:
            raise _fail("$.certificate.q", f"expected {m} values")
        sets = obj.get("p_sets", [])
        if not isinstance(sets, list):
            raise _fail("$.certificate.p_sets", "expected a list")
        parsed_sets = []
        for i, entry in enumerate(sets):
            path = f"$.certificate.p_sets[{i}]"
            if not isinstance(entry, dict) or "X" not in entry or "p" not in entry:
                raise _fail(path, "expected an object with 'X' and 'p'")
            if not isinstance(entry["X"], list):
                raise _fail(f"{path}.X", "expected a list of vertex ids")
            members = frozenset(_expect_int(v, f"{path}.X") for v in entry["X"])
            parsed_sets.append((members, _parse_rational(entry["p"], f"{path}.p")))
        q_map = {}
        for a, value in enumerate(q):
            parsed = _parse_rational(value, f"$.certificate.q[{a}]")
            if parsed:
                q_map[a] = parsed
        return DualCertificate(
            p_vertex={
                v: _parse_rational(pv[v], f"$.certificate.p_vertex[{v}]")
                for v in range(n)
            },
            p_sets=tuple(parsed_sets),
            q=q_map,
            objective=_parse_rational(obj.get("objective"), "$.certificate.objective"),
        )


def _certificate_json(cert: DualCertificate, n: int, m: int) -> dict:
    zero = Fraction(0)
    return {
        "p_vertex": [_format_rational(cert.p_vertex[v]) for v in range(n)],
        "p_sets": [
            {"X": sorted(members), "p": _format_rational(p)} for members, p in cert.p_sets
        ],
        "q": [_format_rational(cert.q.get(a, zero)) for a in range(m)],
        "objective": _format_rational(cert.objective),
    }


def _witness_json(feasibility: Feasibility) -> dict:
    if feasibility.vertex is not None:
        return {"v": feasibility.vertex}
    if feasibility.subset is not None:
        return {"X": sorted(feasibility.subset)}
    return {}


def _write_dot(doc: InstanceDocument, path: str) -> None:
    lines = ["digraph instance {"]
    for v in doc.graph.vertices:
        lines.append(f"  {v} [label=\"{v} (b={doc.capacities[v]})\"];")
    for a, tail, head in doc.graph.arcs():
        lines.append(f"  {tail} -> {head} [label=\"a{a}\"];")
    lines.append("}")
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit code, payload)


def _cmd_max_weight(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    weights = doc.weights()
    solution, certificate = max_weight_b_branching(doc.graph, doc.capacities, weights)
    check = verify_certificate(doc.graph, doc.capacities, weights, solution.arcs, certificate)
    if not check:
        raise RuntimeError(f"internal error: emitted certificate failed verification ({check.reason})")
    payload = {
        "weight": _format_rational(weights.value(solution.arcs)),
        "arcs": sorted(solution.arcs),
        "certificate": _certificate_json(certificate, doc.graph.vertex_count, doc.graph.arc_count),
    }
    if use_oracle:
        reference = brute_max_weight(doc.graph, doc.capacities, weights)
        agrees = reference == weights.value(solution.arcs)
        payload["oracle"] = {"weight": _format_rational(reference), "agrees": agrees}
        if not agrees:
            raise RuntimeError("oracle disagreement: greedy weight differs from brute force")
    return 0, payload


def _cmd_verify(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    weights = doc.weights()
    check = verify_certificate(
        doc.graph, doc.capacities, weights, doc.solution(), doc.certificate()
    )
    if check:
        return 0, {"ok": True}
    return 2, {"ok": False, "reason": check.reason}


def _cmd_feasible_indegree(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    demand = doc.demand()
    feasibility, arcs = exists_b_branching_with_indegree(doc.graph, doc.capacities, demand)
    if use_oracle:
        instance = PackingInstance(doc.graph, doc.capacities, (demand,))
        if brute_exists_packing(instance) != bool(feasibility):
            raise RuntimeError("oracle disagreement on feasibility")
    if not feasibility:
        return 2, {"feasible": False, "violated": _witness_json(feasibility)}
    return 0, {"feasible": True, "arcs": sorted(arcs)}


def _packing_instance(doc: InstanceDocument) -> PackingInstance:
    k = doc.parts_count()
    return PackingInstance(doc.graph, doc.capacities, doc.demands(k))


def _cmd_pack(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    instance = _packing_instance(doc)
    feasibility = check_packing_conditions(instance)
    if use_oracle:
        if brute_exists_packing(instance) != bool(feasibility):
            raise RuntimeError("oracle disagreement on packing feasibility")
    if not feasibility:
        return 2, {"feasible": False, "violated": _witness_json(feasibility)}
    result = find_disjoint_b_branchings(instance)
    return 0, {"branchings": [sorted(part) for part in result.branchings]}


def _cmd_pack_min_weight(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    instance = _packing_instance(doc)
    weights = doc.weights()
    feasibility = check_packing_conditions(instance)
    if not feasibility:
        return 2, {"feasible": False, "violated": _witness_json(feasibility)}
    result = min_weight_disjoint_b_branchings(instance, weights)
    total = sum((weights.value(part) for part in result.branchings), Fraction(0))
    return 0, {
        "branchings": [sorted(part) for part in result.branchings],
        "total_weight": _format_rational(total),
    }


def _cmd_cover(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    k = doc.parts_count()
    feasibility = check_cover_conditions(doc.graph, doc.capacities, k)
    if not feasibility:
        return 2, {"feasible": False, "violated": _witness_json(feasibility)}
    parts = cover_by_b_branchings(doc.graph, doc.capacities, k)
    return 0, {"branchings": [sorted(part.arcs) for part in parts]}


def _cmd_decompose(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    k = doc.parts_count()
    try:
        parts = integer_decompose(doc.graph, doc.capacities, k, doc.multiplicity())
    except DecompositionError as exc:
        return 2, {"feasible": False, "violated": exc.witness}
    return 0, {"parts": [sorted(part) for part in parts]}


def _cmd_mr_max_weight(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    weights = doc.weights()
    assignment = doc.matroid_assignment()
    arcs = mr_max_weight_b_branching(doc.graph, doc.capacities, weights, assignment)
    payload = {
        "weight": _format_rational(weights.value(arcs)),
        "arcs": sorted(arcs),
    }
    if use_oracle:
        reference = brute_max_weight_restricted(
            doc.graph, doc.capacities, weights, assignment.oracles
        )
        agrees = reference == weights.value(arcs)
        payload["oracle"] = {"weight": _format_rational(reference), "agrees": agrees}
        if not agrees:
            raise RuntimeError("oracle disagreement: restricted greedy differs from brute force")
    return 0, payload


_HANDLERS = {
    "max-weight": _cmd_max_weight,
    "verify": _cmd_verify,
    "feasible-indegree": _cmd_feasible_indegree,
    "pack": _cmd_pack,
    "pack-min-weight": _cmd_pack_min_weight,
    "cover": _cmd_cover,
    "decompose": _cmd_decompose,
    "mr-max-weight": _cmd_mr_max_weight,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbranching",
        description="Degree-capped branchings: optimization, packing, covering, decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--input", required=True, help="instance JSON file")
        cmd.add_argument(
            "--oracle",
            action="store_true",
            help="cross-check against the brute-force oracle (size-gated)",
        )
        cmd.add_argument("--quiet", action="store_true", help="suppress informational diagnostics")
        cmd.add_argument("--dot", metavar="PATH", help="also write a DOT rendering of the input graph")
    return parser


def run(argv: Sequence[str]) -> int:
    """Execute one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.input} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {args.input} is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"error: {args.input} nests too deeply to parse", file=sys.stderr)
        return 1

    try:
        doc = InstanceDocument.parse(raw)
        if args.dot:
            _write_dot(doc, args.dot)
        if not args.quiet:
            print(
                f"{args.command}: |V|={doc.graph.vertex_count} |A|={doc.graph.arc_count}",
                file=sys.stderr,
            )
        code, payload = _HANDLERS[args.command](doc, args.oracle)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(payload, sort_keys=True, indent=2))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
