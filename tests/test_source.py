"""Source-level guards over the library modules."""

import ast
import sys
from pathlib import Path

import bbranching

SOURCES = sorted(Path(bbranching.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so correctness checks in the
    # library raise AssertionError explicitly instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, f"assert statements in the library: {found}"


def _inexact_arithmetic(node):
    """Why `node` is float arithmetic, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"float literal {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("float", "round"):
            return f"{node.func.id}() call"
    return None


def test_library_arithmetic_is_exact():
    # Answers are integers or Fractions only: no float literal, no `/` or
    # `/=` (use `//` or Fraction), no float() or round().
    found = [
        f"{path.name}:{node.lineno}: {reason}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (reason := _inexact_arithmetic(node))
    ]
    assert SOURCES and not found, f"inexact arithmetic in the library: {found}"


def test_only_digraph_reads_graph_storage():
    # `Digraph` owns the id rule and the flat lists behind it; every other
    # module reads a graph through its public accessors.
    storage = {"_tails", "_heads", "_in"}
    found = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in SOURCES
        if path.name != "digraph.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in storage
    ]
    assert SOURCES and not found, f"graph storage read outside digraph.py: {found}"


def test_hot_modules_index_the_endpoint_tuples():
    # The engine, the solvers, the feasibility checks, packing and covering index
    # `Digraph.tails` / `Digraph.heads` / `Digraph.entering`; the
    # range-checking accessors stay for callers at the edge.  Any read of an
    # accessor counts, so binding `graph.tail` to a local name and calling
    # that is caught too.
    hot = {"phases.py", "greedy.py", "matroids.py", "mrgreedy.py", "packing.py", "covering.py"}
    banned = {name: {"tail", "head", "endpoints", "in_arc_ids"} for name in hot}
    found = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in SOURCES
        if path.name in banned
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in banned[path.name]
    ]
    assert {p.name for p in SOURCES} >= set(banned) and not found, f"accessor reads: {found}"


def _names(node):
    """The identifiers a node binds or reads: a name, an attribute, a
    definition or an imported alias, under either of its names."""
    return {getattr(node, key, None) for key in ("id", "attr", "name", "asname")}


def test_only_the_oracle_scans_vertex_sets():
    # The checks and the construction decide by max flow, and `--oracle`
    # scans arc sets only, so the 2^n vertex-set scan and the enumeration of
    # every b-branching serve the tests alone (`tests/helpers.py`): no
    # library module names them, `oracle.py` and the package root's import
    # aliases included.  Sparsity had a scan of its own, with a 20-vertex
    # gate; neither name may come back.
    scans = {
        "brute_min_set_function",
        "enumerate_b_branchings",
        "_sparsity_brute_force",
        "SPARSITY_BRUTE_FORCE_LIMIT",
    }
    found = [
        f"{path.name}:{node.lineno}: {sorted(_names(node) & scans)}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if _names(node) & scans
    ]
    assert SOURCES and not found, f"test-only scan named in the library: {found}"


def test_library_imports_only_the_standard_library():
    # The library has no runtime dependency: every import is relative or
    # names a standard-library module, so numpy, scipy and networkx stay
    # optional test-only imports.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {module}"
                for module in modules
                if module.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert SOURCES and not found, f"non-stdlib imports in the library: {found}"


def test_max_flow_is_written_once():
    # The flow helpers (`_augment` pushes, `_least_cut` reads the residual,
    # `_add_arc` builds, `_vertex_flows` runs the per-vertex flows of every
    # cut check) are defined in digraph.py only, and only the slack network
    # (matroids.py) and the packing network (packing.py) use them.  Every
    # per-vertex flow goes through `_vertex_flows`: packing.py and
    # covering.py never name `_augment`, and matroids.py calls it once, to
    # route the slack network's drain into its sink.  `_max_flow`, which
    # composed `_augment` and `_least_cut`, may not return.
    flow = {"_add_arc", "_augment", "_least_cut", "_vertex_flows"}
    builders = {"digraph.py", "matroids.py", "packing.py"}
    defined, named, gone, augments = [], [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in flow:
                defined.append(path.name)
            elif _names(node) & flow and path.name not in builders:
                named.append(f"{path.name}:{node.lineno}")
            elif "_augment" in _names(node) and path.name == "packing.py":
                named.append(f"{path.name}:{node.lineno}: _augment")
            if "_max_flow" in _names(node):
                gone.append(f"{path.name}:{node.lineno}")
        augments += [
            f"{path.name}:{function.name}({ast.unparse(node.args[2])})"
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and "_augment" in _names(node.func)
        ]
    assert sorted(defined) == ["digraph.py"] * len(flow), defined
    assert not named, f"max flow used outside the two networks: {named}"
    assert sorted(augments) == [
        "digraph.py:_vertex_flows({v, *extra})",
        "matroids.py:_slack_cuts({sink})",
    ], augments
    assert SOURCES and not gone, f"_max_flow is back: {gone}"


def test_packing_network_is_built_in_one_place():
    # The packing check is the construction's entry step, so one library
    # function builds the packing network.
    callers = [
        f"{path.name}:{function.name}"
        for path in SOURCES
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and "_packing_network" in _names(node.func)
    ]
    assert callers == ["packing.py:_packing_conditions"], callers


def test_only_the_oracle_enumerates_arc_or_vertex_sets():
    # Enumerating combinations, products or permutations is exponential, so
    # it serves the oracle only, `min_weight_disjoint_b_branchings` included
    # until a polynomial method replaces it (ROADMAP item 9).  The
    # decomposition's peel, a search over arc subsets, may not return
    # anywhere.
    scans, gone = {"combinations", "product", "permutations"}, "_peel_decomposition"
    found = []
    for path in SOURCES:
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            if _names(node) & scans and path.name != "oracle.py" or gone in _names(node)
        ]
    assert SOURCES and not found, f"exhaustive enumeration outside oracle.py: {found}"


def test_rational_grammar_is_spelled_once():
    # `greedy._RATIONAL` is the one rational grammar of the library: the
    # bulk pattern is built from its text, and no other string holds a
    # digit class.
    digit_classes = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ("[0-9]" in node.value or "\\d" in node.value)
    ]
    assert len(digit_classes) == 1 and digit_classes[0].startswith("greedy.py:"), digit_classes
    greedy = Path(bbranching.__file__).parent / "greedy.py"
    built_from = [
        target.id
        for node in ast.walk(ast.parse(greedy.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assign)
        for target in node.targets
        for inner in ast.walk(node.value)
        if isinstance(inner, ast.Attribute)
        and inner.attr == "pattern"
        and isinstance(inner.value, ast.Name)
        and inner.value.id == "_RATIONAL"
    ]
    assert built_from == ["_RATIONAL_RUN"], built_from


def test_only_greedy_reads_rational_strings():
    # `greedy.parse_rationals` is the one reader of exact values; any other
    # module goes through it rather than parsing string by string.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "greedy.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if "parse_rational"
        in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    ]
    assert SOURCES and not found, f"parse_rational named outside greedy.py: {found}"
