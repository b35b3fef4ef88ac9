"""Command-line front end: JSON instances in, JSON results out.

Exit codes: 0 on success, 2 when the instance is infeasible (a witness is
included in the output), 1 on malformed input or oracle disagreement.  All
diagnostics go to standard error; output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence, Union

from .covering import DecompositionError, cover_by_b_branchings, integer_decompose
from .digraph import Digraph
from .greedy import (
    DualCertificate,
    WeightError,
    WeightVector,
    max_weight_b_branching,
    parse_rationals,
    verify_certificate,
)
from .matroids import CapacityError, CapacityVector, DemandVector, partition_oracle, uniform_oracle
from .mrgreedy import MatroidAssignment, mr_max_weight_b_branching
from .oracle import brute_exists_packing, brute_max_weight, brute_max_weight_restricted
from .packing import (
    InfeasiblePackingError,
    PackingInstance,
    check_packing_conditions,
    exists_b_branching_with_indegree,
    find_disjoint_b_branchings,
    min_weight_disjoint_b_branchings,
)

class InputError(ValueError):
    """Malformed instance document; message carries a JSON path."""


def _fail(path: str, message: str) -> "InputError":
    return InputError(f"{path}: {message}")


def _expect_int(value: Any, path: str) -> int:
    if type(value) is not int:
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _list(value: Any, path: str, message: str, length: Optional[int] = None) -> list:
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise _fail(path, message)
    return value


def _ints(values: list, path: str) -> list:
    """`values` if every entry is an integer; else fails at the first other entry."""
    if not all(type(v) is int for v in values):
        for i, v in enumerate(values):
            _expect_int(v, f"{path}[{i}]")
    return values


def _format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _rationals(values: list, path: str, single: bool = False) -> list:
    """JSON integers or rational strings, each an `int` when integral, else a
    `Fraction`.  A bad value is named `path[i]`, or `path` when `single`."""
    try:
        nums, dens = parse_rationals(values)
    except WeightError as exc:
        raise _fail(path if single else f"{path}[{exc.index}]", str(exc)) from None
    return [n // d if n % d == 0 else Fraction(n, d) for n, d in zip(nums, dens)]


def _rational(value: Any, path: str) -> Union[int, Fraction]:
    return _rationals([value], path, single=True)[0]


def _bad_arc(entry: Any, path: str, n: int) -> InputError:
    _ints(_list(entry, path, "expected a [tail, head] pair", 2), path)
    return _fail(path, f"endpoint outside 0..{n - 1}")


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
        arcs = _list(raw.get("arcs"), "$.arcs", "expected a list of [tail, head] pairs")
        pairs = []
        for i, entry in enumerate(arcs):
            if isinstance(entry, list) and len(entry) == 2:
                tail, head = entry
                if type(tail) is int and type(head) is int and 0 <= tail < n and 0 <= head < n:
                    pairs.append((tail, head))
                    continue
            raise _bad_arc(entry, f"$.arcs[{i}]", n)
        # Checked before the graph is built, so that a short document with a
        # huge n is rejected without allocating n vertices.
        b = _list(raw.get("b"), "$.b", f"expected a list of {n} capacities", n)
        try:
            capacities = CapacityVector(_ints(b, "$.b"))
        except CapacityError as exc:
            raise _fail("$.b", str(exc)) from None
        return cls(raw, Digraph.from_pairs(n, pairs), capacities)

    def weights(self) -> WeightVector:
        m = self.graph.arc_count
        w = _list(self.raw.get("w"), "$.w", f"expected a list of {m} weights", m)
        try:
            return WeightVector.from_values(w)
        except WeightError as exc:
            raise _fail(f"$.w[{exc.index}]", str(exc)) from None

    def parts_count(self) -> int:
        k = _expect_int(self.raw.get("k"), "$.k")
        if k < 1:
            raise _fail("$.k", "k must be at least 1")
        return k

    def _demand_from(self, values: Any, path: str) -> DemandVector:
        n = self.graph.vertex_count
        values = _list(values, path, f"expected a list of {n} demands", n)
        try:
            demand = DemandVector(_ints(values, path))
            demand.validate_against(self.capacities)
        except CapacityError as exc:
            raise _fail(path, str(exc)) from None
        return demand

    def demands(self, k: int) -> tuple[DemandVector, ...]:
        b_i = _list(self.raw.get("b_i"), "$.b_i", f"expected {k} demand vectors", k)
        return tuple(self._demand_from(values, f"$.b_i[{i}]") for i, values in enumerate(b_i))

    def demand(self) -> DemandVector:
        return self._demand_from(self.raw.get("b_prime"), "$.b_prime")

    def multiplicity(self) -> list[int]:
        m = self.graph.arc_count
        x = _list(self.raw.get("x"), "$.x", f"expected a list of {m} multiplicities", m)
        return _ints(x, "$.x")

    def matroid_assignment(self) -> MatroidAssignment:
        n = self.graph.vertex_count
        specs = self.raw.get("matroids")
        _list(specs, "$.matroids", f"expected a list of {n} oracle specs", n)
        oracles = {}
        for v, spec in enumerate(specs):
            path = f"$.matroids[{v}]"
            ground = self.graph.entering[v]
            if spec is None:
                oracles[v] = uniform_oracle(ground, self.capacities[v])
                continue
            if not isinstance(spec, dict):
                raise _fail(path, "expected null or an object")
            kind = spec.get("kind")
            if kind == "uniform":
                oracles[v] = uniform_oracle(ground, self.capacities[v])
            elif kind == "partition":
                need = "partition oracle needs 'blocks' and 'caps' lists"
                blocks = _list(spec.get("blocks"), path, need)
                caps = _list(spec.get("caps"), path, need)
                for i, blk in enumerate(blocks):
                    _list(blk, f"{path}.blocks[{i}]", "expected a list of arc ids")
                for i, blk in enumerate(blocks):
                    _ints(blk, f"{path}.blocks[{i}]")
                _ints(caps, f"{path}.caps")
                try:
                    oracles[v] = partition_oracle(ground, blocks, caps)
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
        arcs = _list(self.raw.get("solution"), "$.solution", "expected a list of arc ids")
        ids = frozenset(_ints(arcs, "$.solution"))
        if not all(map(self.graph.arc_ids.__contains__, ids)):
            raise _fail("$.solution", "unknown arc ids")
        return ids

    def certificate(self) -> DualCertificate:
        obj = self.raw.get("certificate")
        if not isinstance(obj, dict):
            raise _fail("$.certificate", "expected an object")
        n = self.graph.vertex_count
        m = self.graph.arc_count
        pv = _list(obj.get("p_vertex"), "$.certificate.p_vertex", f"expected {n} values", n)
        q = _list(obj.get("q"), "$.certificate.q", f"expected {m} values", m)
        sets = _list(obj.get("p_sets", []), "$.certificate.p_sets", "expected a list")
        parsed_sets = []
        for i, entry in enumerate(sets):
            path = f"$.certificate.p_sets[{i}]"
            if not isinstance(entry, dict) or "X" not in entry or "p" not in entry:
                raise _fail(path, "expected an object with 'X' and 'p'")
            members = _list(entry["X"], f"{path}.X", "expected a list of vertex ids")
            _ints(members, f"{path}.X")
            parsed_sets.append((frozenset(members), _rational(entry["p"], f"{path}.p")))
        q_values = _rationals(q, "$.certificate.q")
        return DualCertificate(
            p_vertex=dict(enumerate(_rationals(pv, "$.certificate.p_vertex"))),
            p_sets=tuple(parsed_sets),
            q={a: value for a, value in enumerate(q_values) if value},
            objective=_rational(obj.get("objective"), "$.certificate.objective"),
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
        return 2, {"feasible": False, "violated": feasibility.witness()}
    return 0, {"feasible": True, "arcs": sorted(arcs)}


def _packing_instance(doc: InstanceDocument) -> PackingInstance:
    k = doc.parts_count()
    return PackingInstance(doc.graph, doc.capacities, doc.demands(k))


def _cmd_pack(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    instance = _packing_instance(doc)
    if use_oracle and brute_exists_packing(instance) != bool(check_packing_conditions(instance)):
        raise RuntimeError("oracle disagreement on packing feasibility")
    result = find_disjoint_b_branchings(instance)
    return 0, {"branchings": [sorted(part) for part in result.branchings]}


def _cmd_pack_min_weight(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    instance = _packing_instance(doc)
    weights = doc.weights()
    result = min_weight_disjoint_b_branchings(instance, weights)
    total = sum((weights.value(part) for part in result.branchings), Fraction(0))
    return 0, {
        "branchings": [sorted(part) for part in result.branchings],
        "total_weight": _format_rational(total),
    }


def _cmd_cover(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    parts = cover_by_b_branchings(doc.graph, doc.capacities, doc.parts_count())
    return 0, {"branchings": [sorted(part.arcs) for part in parts]}


def _cmd_decompose(doc: InstanceDocument, use_oracle: bool) -> tuple[int, dict]:
    parts = integer_decompose(doc.graph, doc.capacities, doc.parts_count(), doc.multiplicity())
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
COMMANDS = tuple(_HANDLERS)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    parsing leaves it as it was."""
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
    except InfeasiblePackingError as exc:
        code, payload = 2, {"feasible": False, "violated": exc.feasibility.witness()}
    except DecompositionError as exc:
        code, payload = 2, {"feasible": False, "violated": exc.witness}
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, MemoryError):
        # A cover or decomposition lists all k parts, most of them empty.
        print(f"error: {args.command}: the result does not fit in memory", file=sys.stderr)
        return 1

    print(json.dumps(payload, sort_keys=True, indent=2))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
