"""Benchmark for invdisc: one seeded, single-threaded, closed-loop workload
per run.

    python3 bench/run.py --workload fine-step-sweep --seed 1 --seconds 10 --trace 0

The run imports invdisc from ``src/`` next to this directory, builds the
workload's inputs from the seed, makes one untimed warm-up pass and then a
fixed number of timed passes over the same operations, each pass in a
seeded order.  Every operation's outputs are checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  A record of the run, with machine details and
every operation's time and chi, is written under ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded: keep numpy's BLAS pools at one thread, here and in the
# set-up probes, before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: (name, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("work_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("chi_geomean", "ratio", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: set-ups per run: this process's own, and the rest in fresh interpreters
#: spread over the run, because the host's speed shifts for tens of seconds
SETUP_SAMPLES = 7
MIN_PASSES = 2
#: operations beyond the value reported as op_ms_tail
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="sizes the run: passes = seconds / nominal pass time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time the set-up and print it (used by the run itself)")
    return p.parse_args(argv)


def set_up(workload_name: str, seed: int, workdir: Path, short: bool = False):
    """Import invdisc and build the workload's operations; returns the
    workload, its operations and the seconds both took."""
    t0 = time.perf_counter()
    import invdisc  # noqa: F401
    import workloads
    workload = workloads.WORKLOADS.get(workload_name)
    if workload is None:
        return None, [], 0.0
    ops = workload.build(seed, workdir, short)
    return workload, ops, time.perf_counter() - t0


def setup_probe(args) -> float:
    """One set-up in a fresh interpreter, since an import is cold only once
    per process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_pass(ops, order, results: list, pass_index: int) -> float:
    """Run the operations once in ``order``; appends (pass, op, seconds,
    outcome) to ``results`` and returns the seconds spent inside them."""
    from workloads import Outcome
    wall = 0.0
    for i in order:
        op = ops[i]
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # a raising operation is a failed one
            dt = time.perf_counter() - t0
            outcome = Outcome(0, failures=[f"raised {e!r}"])
        else:
            dt = time.perf_counter() - t0
            try:
                outcome = op.check(out)
            except Exception as e:
                outcome = Outcome(0, failures=[f"check raised {e!r}"])
            # free the outputs now, so peak memory does not depend on the order
            del out
        wall += dt
        results.append((pass_index, i, dt, outcome))
    return wall


def pass_orders(seed: int, ops, passes: int) -> list[list[int]]:
    """The seeded order of the operations in each pass, each one as many
    times as it repeats."""
    rng = random.Random(seed)
    slots = [i for i, op in enumerate(ops) for _ in range(op.repeats)]
    return [rng.sample(slots, len(slots)) for _ in range(passes)]


def passes_for(workload, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / workload.pass_s))


def end_to_end(timed: list, everything: list, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of the timed passes.

    On a shared 2-core host one operation's time swings by tens of percent
    from repeat to repeat as other tenants come and go, and a whole run can
    be slower than the next.  Each operation's fastest repeat is the
    steadiest estimate of what it costs, so the throughput and the median
    use those.  The tail needs at least eleven samples: it is taken over the
    operations' fastest repeats when a pass has that many operations, and
    over every repeat otherwise.
    """
    fastest: dict[int, float] = {}
    work: dict[int, int] = {}
    chi: dict[int, float] = {}
    for _, i, dt, outcome in timed:
        fastest[i] = min(dt, fastest.get(i, math.inf))
        work[i] = outcome.work
        if outcome.chi is not None:
            chi[i] = outcome.chi
    samples = sorted(fastest.values() if len(fastest) > TAIL_BEYOND
                     else (r[2] for r in timed))
    n = len(samples)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    defects = sum(r[3].known_defect is not None for r in everything)
    failed = sum(bool(r[3].failures) for r in everything)
    metrics = {
        "work_per_s": sum(work.values()) / sum(fastest.values()),
        "op_ms_p50": statistics.median(fastest.values()) * 1e3,
        "op_ms_tail": samples[tail_index] * 1e3,
        "chi_geomean": math.exp(statistics.fmean(math.log(c) for c in chi.values())),
        "ok_frac": (len(everything) - failed - defects) / len(everything),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = {"percentile": 100.0 * (tail_index + 1) / n, "samples": n,
            "beyond": n - tail_index - 1,
            "over": "fastest repeats" if len(fastest) > TAIL_BEYOND else "all repeats"}
    return metrics, tail


def machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def op_records(ops, results) -> list[dict]:
    """Each operation's chi next to its time in every pass."""
    records = [{"op": op.name, "chi": None, "work": None, "stops": None,
                "ms": []} for op in ops]
    for pass_index, i, dt, outcome in results:
        rec = records[i]
        rec.update(chi=outcome.chi, work=outcome.work, stops=list(outcome.stops))
        rec["ms"].append(round(dt * 1e3, 6))
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "invdisc" / "__init__.py").is_file():
        print(f"error: no invdisc sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workload, ops, first_setup = set_up(args.workload, args.seed, workdir)
    if workload is None:
        import workloads
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(first_setup)
        return 0

    try:
        passes = passes_for(workload, args.seconds)
        orders = pass_orders(args.seed, ops, passes + 1)
        results: list = []
        run_pass(ops, orders[0], results, 0)  # warm-up, checked but not timed
        if args.trace:
            report, extra = traced_run(ops, orders[1:], results, args)
        else:
            setup = [first_setup]
            probe_before = {1 + passes * k // (SETUP_SAMPLES - 1)
                            for k in range(SETUP_SAMPLES - 1)}
            for p in range(1, passes + 1):
                if p in probe_before:
                    setup.append(setup_probe(args))
                run_pass(ops, orders[p], results, p)
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_probe(args))
            report, tail = end_to_end([r for r in results if r[0] > 0], results, setup)
            extra = {"tail": tail, "setup_samples_s": setup}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{ops[i].name} (pass {p}): {msg}"
                for p, i, _, outcome in results for msg in outcome.failures]
    defects = sorted({outcome.known_defect for *_, outcome in results
                      if outcome.known_defect})
    units = {name: unit for name, unit, _ in END_TO_END}
    if args.trace:
        import tracing
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: {"value": report[name], "unit": units[name]} for name in units}
    result = {"correct": not failures, "attempted": len(results),
              "failed": sum(bool(r[3].failures) for r in results),
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "passes": 1 + max(r[0] for r in results), "machine": machine(),
              **result, **extra,
              "known_defects": defects, "failures": failures,
              "ops": op_records(ops, results)}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    if "tail" in extra:
        t = extra["tail"]
        print(f"op_ms_tail is the p{t['percentile']:.2f} of {t['samples']} samples "
              f"({t['beyond']} beyond it; {t['over']})")
    for line in defects + failures[:20]:
        print(line)
    print(json.dumps(result))
    return 0


def traced_run(ops, orders, results, args):
    """Alternate untraced and traced passes; the traced ones give the
    per-layer metrics, the pairs give the tracing overhead, and every traced
    operation must reproduce its untraced outcome exactly."""
    import tracing
    pairs = max(1, len(orders) // 2)
    tracer = tracing.Tracer()
    walls = []
    traced: list = []
    for k in range(pairs):
        untraced: list = []
        wall_plain = run_pass(ops, orders[2 * k], untraced, 2 * k + 1)
        tracer.install()
        try:
            wall_traced = run_pass(ops, orders[2 * k + 1], traced, 2 * k + 2)
        finally:
            tracer.uninstall()
        results += untraced
        walls.append((wall_plain, wall_traced))
        plain = {i: outcome.key() for _, i, _, outcome in untraced}
        for _, i, _, outcome in traced[-len(orders[2 * k + 1]):]:
            if outcome.key() != plain[i]:
                outcome.failures.append("traced outcome differs from the untraced one")
    results += traced
    report = tracer.metrics(pairs, sum(r[2] for r in traced),
                            sum(r[3].work for r in traced))
    report["trace_overhead_frac"] = statistics.median(t / p for p, t in walls) - 1.0
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
    tracer.save(spans)
    return report, {"spans": str(spans.relative_to(ROOT)),
                    "pass_walls_s": walls}


if __name__ == "__main__":
    sys.exit(main())
