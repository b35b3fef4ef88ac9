"""Which bindings the benchmark hooks, and how spans become layer metrics.

Layers are the package modules: cli, digraph, greedy, mrgreedy, matroids,
packing, covering and oracle.  Each hook sits where callers look a function
up, so the span covers exactly the calls that layer receives.  README.md in
this directory maps every metric to the end-to-end metric it should move.
"""

from __future__ import annotations

from tracing import Hook


def _count(key: str, amount):
    def observe(tracer, args, result):
        tracer.counts[key] += amount(args, result)

    return observe


def _track_max(key: str, amount):
    def observe(tracer, args, result):
        tracer.maxima[key] = max(tracer.maxima[key], amount(args, result))

    return observe


def _count_evaluations(tracer, args):
    """Wrap the set function handed to the SFM so each evaluation is counted."""
    func, *rest = args
    counts = tracer.counts

    def evaluate(subset):
        counts["oracle.subsets_scanned"] += 1
        return func(subset)

    return (evaluate, *rest)


def _augmented_arcs(args, result):
    graph, capacities, k = args[:3]
    return sum(k * capacities[v] - len(graph.in_arc_ids(v)) for v in graph.vertices)


_phases = _count("greedy.phases", lambda args, result: len(result[1]))
_committed = _count(
    "packing.arcs_committed", lambda args, result: sum(len(p) for p in result.branchings)
)
# verify_certificate(graph, capacities, weights, arcs, certificate): the
# verifier sums every set potential for every arc, |A| * |p_sets| pairs.
_pair_checks = _count(
    "greedy.verify_pair_checks", lambda args, result: args[0].arc_count * len(args[4].p_sets)
)

HOOKS = (
    # Top-level calls behind the end-to-end metrics: public names only.
    Hook("bbranching:max_weight_b_branching", "greedy.solve", top=True),
    Hook("bbranching.cli:max_weight_b_branching", "greedy.solve", top=True),
    Hook("bbranching:verify_certificate", "greedy.verify", observe=_pair_checks, top=True),
    Hook("bbranching.cli:verify_certificate", "greedy.verify", observe=_pair_checks, top=True),
    Hook("bbranching:mr_max_weight_b_branching", "mrgreedy.solve", top=True),
    Hook("bbranching.cli:check_packing_conditions", "packing.check", top=True),
    Hook("bbranching.cli:find_disjoint_b_branchings", "packing.construct", observe=_committed, top=True),
    Hook("bbranching.cli:check_cover_conditions", "covering.check", top=True),
    Hook("bbranching.cli:cover_by_b_branchings", "covering.cover", top=True),
    Hook("bbranching.cli:integer_decompose", "covering.decompose", top=True),
    # cli: document parsing and output.  `cli.json` is the json module, so
    # these two wrap json.load and json.dumps while the trace is installed.
    Hook("bbranching.cli:json.load", "cli.parse.json"),
    Hook("bbranching.cli:InstanceDocument.parse", "cli.parse.document"),
    Hook("bbranching.cli:InstanceDocument.weights", "cli.parse.weights"),
    Hook("bbranching.cli:InstanceDocument.certificate", "cli.parse.certificate"),
    Hook("bbranching.cli:InstanceDocument.solution", "cli.parse.solution"),
    Hook("bbranching.cli:InstanceDocument.demands", "cli.parse.demands"),
    Hook("bbranching.cli:InstanceDocument.multiplicity", "cli.parse.multiplicity"),
    Hook("bbranching.cli:_certificate_json", "cli.output.certificate"),
    Hook("bbranching.cli:json.dumps", "cli.output.json"),
    # digraph
    Hook("bbranching.digraph:Digraph.__init__", "digraph.build"),
    Hook("bbranching.greedy:contract", "digraph.contract"),
    Hook("bbranching.greedy:strong_components", "digraph.scc"),
    Hook("bbranching.matroids:strong_components", "digraph.scc"),
    # greedy
    Hook("bbranching.greedy:_run_phases", "greedy.phase_engine", observe=_phases),
    Hook("bbranching.greedy:_select_heaviest", "greedy.select"),
    Hook(
        "bbranching.greedy:_tight_components",
        "greedy.tight",
        observe=_track_max("greedy.max_components_per_phase", lambda args, result: len(result)),
    ),
    Hook(
        "bbranching.greedy:dual_from_run",
        "greedy.dual",
        observe=_count("greedy.p_sets", lambda args, result: len(result.p_sets)),
    ),
    # mrgreedy
    Hook(
        "bbranching.mrgreedy:_run_phases",
        "mrgreedy.phase_engine",
        observe=_count("mrgreedy.phases", lambda args, result: len(result[1])),
    ),
    # matroids
    Hook("bbranching.matroids:UniformOracle.is_independent", "matroids.oracle", aggregate=True),
    Hook("bbranching.matroids:PartitionOracle.is_independent", "matroids.oracle", aggregate=True),
    Hook("bbranching.matroids:sparsity_violating_components", "matroids.sparsity"),
    Hook("bbranching.mrgreedy:sparsity_violating_components", "matroids.sparsity"),
    # packing and the SFM scan it delegates to oracle
    Hook("bbranching.packing:check_packing_conditions", "packing.check"),
    Hook("bbranching.packing:find_disjoint_b_branchings", "packing.construct", observe=_committed),
    Hook("bbranching.covering:find_disjoint_b_branchings", "packing.construct", observe=_committed),
    Hook("bbranching.packing:brute_min_set_function", "packing.sfm", adapt=_count_evaluations),
    # covering
    Hook("bbranching.covering:check_cover_conditions", "covering.check"),
    Hook(
        "bbranching.covering:_augmented_cover_parts",
        "covering.augment",
        observe=_count("covering.augmented_arcs", _augmented_arcs),
    ),
    Hook("bbranching.covering:_try_repair_duplicates", "covering.repair"),
    Hook("bbranching.covering:_peel_decomposition", "covering.peel"),
)

TOP_HOOKS = tuple(h for h in HOOKS if h.top)


def _calls(name):
    return (name,), lambda s, t: s.get(name, {}).get("calls", 0)


def _seconds(*names):
    return names, lambda s, t: sum(s.get(n, {}).get("total_s", 0.0) for n in names)


def _counter(key, *names):
    return names, lambda s, t: t.counts[key]


def _per_arc(s, t):
    committed = t.counts["packing.arcs_committed"]
    calls = s.get("packing.sfm", {}).get("calls", 0)
    return calls / committed if committed else 0.0


_PARSE = tuple(h.name for h in HOOKS if h.name.startswith("cli.parse."))
_OUTPUT = tuple(h.name for h in HOOKS if h.name.startswith("cli.output."))

# name -> (unit, span names it depends on, value from (summary, tracer)).
# cli.output_bytes, trace.overhead_s and host.calib_s come from the runner.
LAYER_METRICS = {
    "cli.parse_s": ("s", *_seconds(*_PARSE)),
    "cli.output_s": ("s", *_seconds(*_OUTPUT)),
    "digraph.builds": ("count", *_calls("digraph.build")),
    "digraph.build_s": ("s", *_seconds("digraph.build")),
    "digraph.contractions": ("count", *_calls("digraph.contract")),
    "digraph.contract_s": ("s", *_seconds("digraph.contract")),
    "digraph.scc_calls": ("count", *_calls("digraph.scc")),
    "digraph.scc_s": ("s", *_seconds("digraph.scc")),
    "greedy.phases": ("count", *_counter("greedy.phases", "greedy.phase_engine")),
    "greedy.select_s": ("s", *_seconds("greedy.select")),
    "greedy.tight_s": ("s", *_seconds("greedy.tight")),
    "greedy.max_components_per_phase": (
        "count",
        ("greedy.tight",),
        lambda s, t: t.maxima["greedy.max_components_per_phase"],
    ),
    "greedy.phase_engine_s": ("s", *_seconds("greedy.phase_engine")),
    "greedy.dual_s": ("s", *_seconds("greedy.dual")),
    "greedy.p_sets": ("count", *_counter("greedy.p_sets", "greedy.dual")),
    "greedy.verify_pair_checks": (
        "count",
        *_counter("greedy.verify_pair_checks", "greedy.verify"),
    ),
    "mrgreedy.phases": ("count", *_counter("mrgreedy.phases", "mrgreedy.phase_engine")),
    "matroids.oracle_calls": ("count", *_calls("matroids.oracle")),
    "matroids.oracle_s": ("s", *_seconds("matroids.oracle")),
    "matroids.sparsity_checks": ("count", *_calls("matroids.sparsity")),
    "packing.check_s": ("s", *_seconds("packing.check")),
    "packing.construct_s": ("s", *_seconds("packing.construct")),
    "packing.arcs_committed": ("count", *_counter("packing.arcs_committed", "packing.construct")),
    "packing.sfm_calls": ("count", *_calls("packing.sfm")),
    "packing.sfm_s": ("s", *_seconds("packing.sfm")),
    "packing.sfm_calls_per_arc": (
        "ratio",
        ("packing.sfm", "packing.construct"),
        _per_arc,
    ),
    "oracle.subsets_scanned": ("count", *_counter("oracle.subsets_scanned", "packing.sfm")),
    "covering.check_s": ("s", *_seconds("covering.check")),
    "covering.augmented_arcs": ("count", *_counter("covering.augmented_arcs", "covering.augment")),
    "covering.repair_calls": ("count", *_calls("covering.repair")),
    "covering.peel_calls": ("count", *_calls("covering.peel")),
}


def unavailable_names(tracer) -> set:
    """Span names whose every hook target is absent, or whose observer broke."""
    targets: dict[str, list[str]] = {}
    for hook in HOOKS:
        targets.setdefault(hook.name, []).append(hook.target)
    gone = {name for name, ts in targets.items() if all(t in tracer.absent for t in ts)}
    return gone | tracer.broken


def layer_values(summary: dict, tracer) -> dict[str, float]:
    """Every LAYER_METRICS value for one traced pass; -1 marks a metric
    whose hooks are absent or could not read the program's results."""
    missing = unavailable_names(tracer)
    values = {}
    for name, (_, sources, read) in LAYER_METRICS.items():
        values[name] = -1 if missing.intersection(sources) else read(summary, tracer)
    return values
