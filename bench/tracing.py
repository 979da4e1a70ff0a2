"""Traced runs: wrap invdisc's public functions where their callers look
them up, record one span per call, and reduce the spans to per-layer
metrics.  Nothing under src/ changes; ``Tracer.uninstall`` undoes every
patch.

A span is (name, start, end, parent).  A span's self time is its duration
minus the durations of its child spans; calls nest and never overlap in
this single-threaded program, so that difference is the part of the
interval no child covers.
"""
from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from invdisc import cli, core, differential, discrete, lattice, limits, reference, schemes

#: (module, attribute, span name) for every call site the workloads reach.
#: The span name is the defining module and function, so a function looked
#: up in two namespaces reports under one name.
SITES = (
    (cli, "main", "cli.main"),
    (cli, "write_trajectory_csv", "cli.write_trajectory_csv"),
    (cli, "read_trajectory_csv", "cli.read_trajectory_csv"),
    (cli, "rk4_integrate", "reference.rk4_integrate"),
    (cli, "chi", "reference.chi"),
    (cli, "integrate", "schemes.integrate"),
    (reference, "chi", "reference.chi"),
    (reference, "compose_jet", "differential.compose_jet"),
    (schemes, "integrate", "schemes.integrate"),
    (schemes, "sly4_step", "schemes.sly4_step"),
    (schemes, "slx3_step", "schemes.slx3_step"),
    (schemes, "h5_step", "schemes.h5_step"),
    (schemes, "solve_poly", "schemes.solve_poly"),
    (schemes, "extrapolate", "schemes.extrapolate"),
    (schemes, "select_root", "schemes.select_root"),
    *((discrete, fn, f"discrete.{fn}") for fn in
      ("cross_ratio", "l3", "l4", "l5", "m3", "m4", "m5", "h5_discrete")),
    (limits, "probe_limit", "limits.probe_limit"),
    (limits, "target_value", "limits.target_value"),
    (limits, "jy_invariants", "differential.jy_invariants"),
    (limits, "kx_invariants", "differential.kx_invariants"),
    (limits, "h5_differential", "differential.h5_differential"),
    (differential, "jy_invariants", "differential.jy_invariants"),
    (differential, "kx_invariants", "differential.kx_invariants"),
    (lattice, "extend_lattice", "lattice.extend_lattice"),
    (lattice, "extend_constant_s", "lattice.extend_constant_s"),
)
#: constructions counted as spans of their own
CLASSES = ((core.Point, "core.Point"), (core.Stencil, "core.Stencil"))
LAYERS = ("reference", "schemes", "core", "cli", "discrete", "differential",
          "limits", "lattice")
STOPS = ("completed", "no-real-root", "degenerate-coefficient", "non-finite",
         "user-limit")
SCHEMES = ("sly4", "slx3", "h5")

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("reference.rk4_integrate.us_per_step", "us/step", "lower"),
    ("reference.rk4_integrate.self_s", "s/pass", "lower"),
    ("reference.rk4_integrate.steps", "count/pass", "lower"),
    ("reference.chi.us_per_point", "us/point", "lower"),
    *((f"schemes.integrate.{s}.us_per_step", "us/step", "lower") for s in SCHEMES),
    ("schemes.integrate.self_s", "s/pass", "lower"),
    ("schemes.integrate.setup_us", "us/call", "lower"),
    *((f"schemes.{s}_step.calls", "count/pass", "lower") for s in SCHEMES),
    ("schemes.solve_poly.us_per_call", "us/call", "lower"),
    ("schemes.solve_poly.real_roots_per_call", "count/call", "lower"),
    ("schemes.extrapolate.us_per_call", "us/call", "lower"),
    ("schemes.select_root.us_per_call", "us/call", "lower"),
    ("schemes.advanced_frac", "ratio", "higher"),
    *((f"schemes.stop.{s}", "count/pass", "higher" if s == "completed" else "lower")
      for s in STOPS),
    ("core.Point.calls", "count/pass", "lower"),
    ("core.Point.per_step", "count/work", "lower"),
    ("core.Stencil.calls", "count/pass", "lower"),
    ("core.Stencil.per_step", "count/work", "lower"),
    ("core.Stencil.us_per_call", "us/call", "lower"),
    ("cli.main.self_s", "s/pass", "lower"),
    ("cli.write_trajectory_csv.us_per_row", "us/row", "lower"),
    ("cli.write_trajectory_csv.bytes", "B/pass", "lower"),
    ("cli.read_trajectory_csv.us_per_row", "us/row", "lower"),
    *((f"discrete.{fn}.us_per_call", "us/call", "lower") for fn in
      ("cross_ratio", "l3", "l4", "l5", "m3", "m4", "m5", "h5_discrete")),
    *((f"differential.{fn}.us_per_call", "us/call", "lower") for fn in
      ("jy_invariants", "kx_invariants", "h5_differential", "compose_jet")),
    ("limits.probe_limit.us_per_call", "us/call", "lower"),
    ("limits.probe_limit.self_s", "s/pass", "lower"),
    ("limits.target_value.us_per_call", "us/call", "lower"),
    ("lattice.extend_lattice.us_per_node", "us/node", "lower"),
    ("lattice.extend_constant_s.calls", "count/pass", "lower"),
    *((f"{layer}.share", "ratio", "lower") for layer in LAYERS),
    ("trace_overhead_frac", "ratio", "lower"),
)


# --- per-call quantities, recorded after a wrapped call returns -------------------

def _rk4(tr, i, args, result):
    tr.count["rk4_steps"] += len(result.points) - 1


def _chi(tr, i, args, result):
    tr.count["chi_points"] += len(args[1])


def _integrate(tr, i, args, result):
    spec, n_steps = args[0], args[2]
    advanced = len(result.points) - spec.arity
    failed_step = result.stop.value not in ("completed", "user-limit")
    tr.runs.append((i, spec.scheme.value, advanced + failed_step, advanced,
                    n_steps, result.stop.value))


def _solve_poly(tr, i, args, result):
    tr.count["real_roots"] += len(result)


def _write_csv(tr, i, args, result):
    tr.count["rows_written"] += len(args[1].points)
    tr.count["bytes_written"] += Path(args[0]).stat().st_size


def _read_csv(tr, i, args, result):
    tr.count["rows_read"] += len(result.points)


def _extend_lattice(tr, i, args, result):
    tr.count["lattice_nodes"] += len(result)


HOOKS = {"reference.rk4_integrate": _rk4, "reference.chi": _chi,
         "schemes.integrate": _integrate, "schemes.solve_poly": _solve_poly,
         "cli.write_trajectory_csv": _write_csv,
         "cli.read_trajectory_csv": _read_csv,
         "lattice.extend_lattice": _extend_lattice}


class Tracer:
    """Spans kept in flat arrays, so a pass of a million calls stays small."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.count: dict[str, float] = dict.fromkeys(
            ("rk4_steps", "chi_points", "real_roots", "rows_written",
             "bytes_written", "rows_read", "lattice_nodes"), 0)
        #: one entry per integrate call: (span, scheme, steps attempted,
        #: steps advanced, steps requested, stop reason)
        self.runs: list[tuple] = []
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span_name: str):
        nid = self._id(span_name)
        hook = HOOKS.get(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, i, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, span_name in SITES:
            orig = getattr(module, attr)
            setattr(module, attr, self._wrap(orig, span_name))
            self._restore.append((module, attr, orig))
        for cls, span_name in CLASSES:
            orig = cls.__init__
            cls.__init__ = self._wrap(orig, span_name)
            self._restore.append((cls, "__init__", orig))
        # probe_limit finds its evaluators in this table, not by name
        table = limits._INVARIANTS
        orig_table = dict(table)
        for key, (npts, fn) in orig_table.items():
            table[key] = (npts, self._wrap(fn, f"discrete.{fn.__name__}"))
        self._restore.append((table, None, orig_table))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, orig = self._restore.pop()
            if attr is None:
                target.update(orig)
            else:
                setattr(target, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.uint16).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path: Path) -> None:
        """Write every span: names[name[i]] ran from start[i] to end[i]
        (perf_counter seconds) inside span parent[i] (-1 at top level)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, passes: int, wall_s: float, work: int) -> dict[str, float]:
        """Per-layer metrics over ``passes`` traced passes that spent
        ``wall_s`` inside operations and did ``work`` units of work."""
        a = self.arrays()
        n, k = len(a["start"]), len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=n)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - covered, minlength=k)

        def stat(span_name):
            i = self._ids.get(span_name)
            return (0, 0.0, 0.0) if i is None else (int(calls[i]), total[i], own[i])

        def per(span_name, units, scale=1e6):
            n_calls, t, _ = stat(span_name)
            units = n_calls if units is None else units
            return t / units * scale if units else 0.0

        m = {}
        m["reference.rk4_integrate.us_per_step"] = per(
            "reference.rk4_integrate", self.count["rk4_steps"])
        m["reference.rk4_integrate.self_s"] = stat("reference.rk4_integrate")[2] / passes
        m["reference.rk4_integrate.steps"] = self.count["rk4_steps"] / passes
        m["reference.chi.us_per_point"] = per("reference.chi", self.count["chi_points"])

        for scheme in SCHEMES:
            runs = [r for r in self.runs if r[1] == scheme]
            steps = sum(r[2] for r in runs)
            t = sum(dur[r[0]] for r in runs)
            m[f"schemes.integrate.{scheme}.us_per_step"] = t / steps * 1e6 if steps else 0.0
        m["schemes.integrate.self_s"] = stat("schemes.integrate")[2] / passes
        m["schemes.integrate.setup_us"] = self._setup_us(a, dur, nested)
        for scheme in SCHEMES:
            m[f"schemes.{scheme}_step.calls"] = stat(f"schemes.{scheme}_step")[0] / passes
        m["schemes.solve_poly.us_per_call"] = per("schemes.solve_poly", None)
        solves = stat("schemes.solve_poly")[0]
        m["schemes.solve_poly.real_roots_per_call"] = (
            self.count["real_roots"] / solves if solves else 0.0)
        m["schemes.extrapolate.us_per_call"] = per("schemes.extrapolate", None)
        m["schemes.select_root.us_per_call"] = per("schemes.select_root", None)
        requested = sum(r[4] for r in self.runs)
        m["schemes.advanced_frac"] = (
            sum(r[3] for r in self.runs) / requested if requested else 0.0)
        for stop in STOPS:
            m[f"schemes.stop.{stop}"] = sum(r[5] == stop for r in self.runs) / passes

        for cls in ("Point", "Stencil"):
            n_calls = stat(f"core.{cls}")[0]
            m[f"core.{cls}.calls"] = n_calls / passes
            m[f"core.{cls}.per_step"] = n_calls / work if work else 0.0
        m["core.Stencil.us_per_call"] = per("core.Stencil", None)

        m["cli.main.self_s"] = stat("cli.main")[2] / passes
        m["cli.write_trajectory_csv.us_per_row"] = per(
            "cli.write_trajectory_csv", self.count["rows_written"])
        m["cli.write_trajectory_csv.bytes"] = self.count["bytes_written"] / passes
        m["cli.read_trajectory_csv.us_per_row"] = per(
            "cli.read_trajectory_csv", self.count["rows_read"])

        for fn in ("cross_ratio", "l3", "l4", "l5", "m3", "m4", "m5", "h5_discrete"):
            m[f"discrete.{fn}.us_per_call"] = per(f"discrete.{fn}", None)
        for fn in ("jy_invariants", "kx_invariants", "h5_differential", "compose_jet"):
            m[f"differential.{fn}.us_per_call"] = per(f"differential.{fn}", None)
        m["limits.probe_limit.us_per_call"] = per("limits.probe_limit", None)
        m["limits.probe_limit.self_s"] = stat("limits.probe_limit")[2] / passes
        m["limits.target_value.us_per_call"] = per("limits.target_value", None)
        m["lattice.extend_lattice.us_per_node"] = per(
            "lattice.extend_lattice", self.count["lattice_nodes"])
        m["lattice.extend_constant_s.calls"] = stat("lattice.extend_constant_s")[0] / passes

        layer_own = dict.fromkeys(LAYERS, 0.0)
        for i, span_name in enumerate(self.names):
            layer_own[span_name.split(".")[0]] += own[i]
        for layer in LAYERS:
            m[f"{layer}.share"] = layer_own[layer] / wall_s if wall_s else 0.0
        return m

    def _setup_us(self, a, dur, nested) -> float:
        """Median per integrate call of its own time before its first and
        after its last child span: the per-run cost outside the steps."""
        runs = [r[0] for r in self.runs]
        if not runs:
            return 0.0
        first = np.full(len(dur), np.inf)
        last = np.full(len(dur), -np.inf)
        np.minimum.at(first, a["parent"][nested], a["start"][nested])
        np.maximum.at(last, a["parent"][nested], a["end"][nested])
        gaps = [(first[i] - a["start"][i]) + (a["end"][i] - last[i])
                for i in runs if np.isfinite(first[i])]
        return float(np.median(gaps)) * 1e6 if gaps else 0.0
