"""Tests of the benchmark itself: repeatability for a fixed seed, traced
runs that change nothing, a second seed that still passes, and the
command's output contract.

    python3 -m pytest bench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def one_pass(name, seed, tmp_path, tracer=None):
    """Outcomes of one pass over the short version of a workload."""
    ops = workloads.WORKLOADS[name].build(seed, tmp_path, True)
    results = []
    if tracer is not None:
        tracer.install()
    try:
        run.run_pass(ops, range(len(ops)), results, 0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return [outcome for *_, outcome in results]


def assert_passes(outcomes):
    failures = [f for o in outcomes for f in o.failures]
    assert not failures
    assert all(o.work > 0 for o in outcomes)


@pytest.mark.parametrize("name", NAMES)
def test_fixed_seed_repeats_counts_exactly(name, tmp_path):
    first = one_pass(name, 7, tmp_path)
    second = one_pass(name, 7, tmp_path)
    assert_passes(first)
    # steps or evaluations, stop reasons and chi, all bit for bit
    assert [o.key() for o in first] == [o.key() for o in second]


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_gives_the_untraced_outputs(name, tmp_path):
    plain = one_pass(name, 7, tmp_path)
    tracer = tracing.Tracer()
    traced = one_pass(name, 7, tmp_path, tracer)
    assert [o.key() for o in traced] == [o.key() for o in plain]
    metrics = tracer.metrics(1, 1.0, sum(o.work for o in traced))
    assert set(metrics) | {"trace_overhead_frac"} == {m[0] for m in tracing.PER_LAYER}
    assert sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS) > 0
    # every patch is undone
    assert workloads.schemes.integrate.__module__ == "invdisc.schemes"
    assert tracing.core.Point.__init__.__qualname__ == "Point.__init__"


@pytest.mark.parametrize("name", NAMES)
def test_second_seed_changes_inputs_and_passes(name, tmp_path):
    first = one_pass(name, 7, tmp_path)
    second = one_pass(name, 8, tmp_path)
    assert_passes(second)
    ops = workloads.WORKLOADS[name].build(7, tmp_path, True)
    assert run.pass_orders(7, ops, 3) != run.pass_orders(8, ops, 3)
    if name in ("singularity-ensemble", "invariant-probes"):
        assert [o.chi for o in first] != [o.chi for o in second]


def test_known_defect_is_kept_and_counted(tmp_path):
    """The h5 halt at h = 1e-3 stays in the data as a known defect."""
    outcomes = one_pass("fine-step-sweep", 7, tmp_path)
    defects = [o.known_defect for o in outcomes if o.known_defect]
    assert len(defects) == 1 and "degenerate-coefficient" in defects[0]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


def run_command(cwd, *extra):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "invariant-probes",
         "--seed", "3", "--seconds", "0.05", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    done = run_command(ROOT, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    table = run.END_TO_END if trace == "0" else tracing.PER_LAYER
    assert {name: unit for name, unit, _ in table} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = run_command(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
