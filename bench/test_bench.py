"""The benchmark's own tests.

Run from the repository root with `python -m pytest bench`; they are not part
of the package's test suite.  They pin the generators, the determinism of
the traced counts and the tracer's tolerance of renamed functions.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import generators as gen  # noqa: E402
from layers import HOOKS, layer_values  # noqa: E402
from tracing import Hook, Tracer  # noqa: E402
from workloads import ContractionChain, MaxWeightLarge, PackCover, PassResult, Program, SmallBatch  # noqa: E402


def test_default_seed_rebuilds_criterion_9():
    # The same draws as tests/test_acceptance.py::test_criterion_9_performance.
    rng = random.Random(0xB9)
    n, m = 1000, 100_000
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    capacities = [rng.randint(1, 5) for _ in range(n)]
    weights = [rng.randint(0, 1000) for _ in range(m)]

    doc = gen.maxweight_large()
    assert doc == {"n": n, "arcs": [list(p) for p in pairs], "b": capacities, "w": weights}
    assert gen.digest(doc) == gen.CRITERION9_DIGEST


def test_other_seeds_relabel_criterion_9():
    base, other = gen.maxweight_large(), gen.maxweight_large(7)
    assert other != base and other == gen.maxweight_large(7)
    assert other["w"] == base["w"]
    label = {}
    for (t, h), (t2, h2) in zip(base["arcs"], other["arcs"]):
        assert label.setdefault(t, t2) == t2 and label.setdefault(h, h2) == h2
    assert all(other["b"][label[v]] == base["b"][v] for v in label)


def _traced_pass(workload, seed, tmp_path):
    prog = Program.load()
    ctx = workload.setup(prog, seed, str(tmp_path))
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        result = workload.run_pass(prog, ctx, tracer)
    finally:
        tracer.uninstall()
    return result, layer_values(tracer.summary(), tracer), ctx


COUNTS = (
    "greedy.phases",
    "digraph.contractions",
    "greedy.p_sets",
    "greedy.max_components_per_phase",
    "packing.sfm_calls",
    "packing.arcs_committed",
    "oracle.subsets_scanned",
    "matroids.oracle_calls",
    "mrgreedy.phases",
    "digraph.builds",
)


def _repeatable_counts(workload, tmp_path, seed=None):
    seed = workload.default_seed if seed is None else seed
    first, values, ctx = _traced_pass(workload, seed, tmp_path)
    second, again, _ = _traced_pass(workload, seed, tmp_path)
    assert first.failed == second.failed == 0 and first.attempted > 0
    assert {k: values[k] for k in COUNTS} == {k: again[k] for k in COUNTS}
    return values, ctx


def test_contraction_chain_counts(tmp_path):
    values, ctx = _repeatable_counts(ContractionChain(), tmp_path)
    n, m = ctx["doc"]["n"], len(ctx["doc"]["arcs"])
    assert values["greedy.phases"] == 200 and values["greedy.phases"] <= n + m + 1
    assert values["digraph.contractions"] == 199 < n
    assert values["greedy.p_sets"] == 199
    assert values["greedy.max_components_per_phase"] == 1


def test_maxweight_large_counts(tmp_path):
    values, ctx = _repeatable_counts(MaxWeightLarge(), tmp_path)
    n, m = ctx["doc"]["n"], len(ctx["doc"]["arcs"])
    assert values["greedy.phases"] == 56 <= n + m + 1
    assert values["digraph.contractions"] == 55 < n
    assert values["greedy.p_sets"] == 26
    assert values["greedy.verify_pair_checks"] == 2 * m * 26


def test_pack_cover_counts(tmp_path):
    values, _ = _repeatable_counts(PackCover(), tmp_path)
    assert values["packing.sfm_calls"] > 0 and values["oracle.subsets_scanned"] > 0
    assert values["greedy.phases"] == 0


def test_small_batch_counts(tmp_path):
    values, _ = _repeatable_counts(SmallBatch(count=100), tmp_path)
    assert values["matroids.oracle_calls"] > 0 and values["mrgreedy.phases"] > 0
    assert values["packing.sfm_calls"] == 0


def test_absent_and_unreadable_hooks_do_not_fail_the_run(tmp_path):
    prog = Program.load()
    greedy = sys.modules["bbranching.greedy"]
    original = greedy.dual_from_run

    def unreadable(tracer, args, result):
        raise AttributeError("result changed shape")

    hooks = (
        Hook("bbranching.greedy:_renamed_away", "greedy.select"),
        Hook("bbranching.nosuchmodule:f", "greedy.tight"),
        Hook("bbranching.greedy:dual_from_run", "greedy.dual", observe=unreadable),
    )
    workload = ContractionChain()
    ctx = workload.setup(prog, workload.default_seed, str(tmp_path))
    tracer = Tracer()
    tracer.install(hooks)
    try:
        result = workload.run_pass(prog, ctx, tracer)
    finally:
        tracer.uninstall()
    assert result.failed == 0 and result.attempted == 1
    assert tracer.absent == ["bbranching.greedy:_renamed_away", "bbranching.nosuchmodule:f"]
    assert tracer.broken == {"greedy.dual"}
    assert greedy.dual_from_run is original


def _binding(target: str):
    module, _, path = target.partition(":")
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)


def test_uninstall_restores_every_binding():
    Program.load()
    before = {hook.target: _binding(hook.target) for hook in HOOKS}
    tracer = Tracer()
    tracer.install(HOOKS)
    assert not tracer.absent
    assert all(_binding(hook.target) is not before[hook.target] for hook in HOOKS)
    tracer.uninstall()
    assert {hook.target: _binding(hook.target) for hook in HOOKS} == before


def test_failed_checks_are_counted():
    result = PassResult()
    result.check(lambda: True, "fine")
    result.check(lambda: False, "wrong output")
    result.check(lambda: 1 / 0, "check raised")
    assert (result.attempted, result.failed) == (3, 2)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-batch", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_has_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pack-cover", "--seed", "2", "--seconds", "0", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
