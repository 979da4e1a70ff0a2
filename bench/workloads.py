"""The four benchmark workloads.

A workload turns a seed into a list of operations.  An operation's ``run``
holds only calls into invdisc; it is the part the harness times.  Its
``check`` turns what ``run`` returned into an :class:`Outcome`: the work
done, ``chi`` against an exact or fine reference, the stop reasons, and
every failed check.  Seed stencils, random stencils and exact reference
values are all built here, when the operations are built, so input
generation stays outside the timed interval.

``run`` reaches invdisc through module attributes (``schemes.integrate``,
``cli.main``) so that a traced run can wrap those functions in place.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from invdisc import cli, differential, discrete, lattice, limits, reference, schemes
from invdisc.core import (Constant, ConstantS, Jet, SchemeKind, SchemeSpec,
                          StopReason, Uniform, seed_stencil_from_function,
                          stencil_from_sequences)
from invdisc.limits import LimitProbe

TAN_RECIPROCAL_POLE = 2.0 / (5.0 * math.pi)


@dataclass
class Outcome:
    """What one operation did, and which of its checks failed."""

    work: int
    chi: float | None = None
    stops: tuple[str, ...] = ()
    failures: list[str] = field(default_factory=list)
    known_defect: str | None = None

    def key(self) -> tuple:
        """Everything a repeat of the operation must reproduce exactly."""
        return (self.work, self.chi, self.stops, self.known_defect, tuple(self.failures))


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    #: times the operation runs in each pass
    repeats: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: a run makes round(seconds / pass_s) passes whatever the program's
    #: speed, so both sides of a comparison time the same operations; close
    #: to one pass's time on a 2-core Xeon with Python 3.11.7, except that
    #: paper-examples is set to make 11 passes in 20 s (see the README)
    pass_s: float
    build: Callable[[int, Path, bool], list[Op]]


def _jet_exp(x: float) -> Jet:
    return Jet(x, (math.exp(x),) * 6)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a))


# --- trajectories through schemes.integrate ----------------------------------

def _trajectory_op(name: str, spec: SchemeSpec, f: Callable[[float], float],
                   x0: float, n_steps: int, expect: StopReason,
                   chi_max: float, known_defects: tuple[StopReason, ...] = (),
                   extra: Callable[[Any], list[str]] | None = None) -> Op:
    """One integrate run from an exactly sampled seed, with chi against the
    exact solution at every lattice abscissa."""
    h = spec.lattice.h
    seed = seed_stencil_from_function(f, x0, h, spec.arity)
    # integrate places node k at x0 + k*h, so these abscissae are bit-identical
    ref = [f(x0 + k * h) for k in range(spec.arity + n_steps)]

    def run():
        traj = schemes.integrate(spec, seed, n_steps)
        n = len(traj.points)
        return traj, reference.chi(traj, ref if n == len(ref) else ref[:n])

    def check(result) -> Outcome:
        traj, chi = result
        advanced = len(traj.points) - spec.arity
        out = Outcome(advanced, chi, (traj.stop.value,))
        if traj.stop in known_defects:
            out.known_defect = (f"{name}: {traj.stop.value} after {advanced} "
                                f"of {n_steps} steps")
        elif traj.stop is not expect:
            out.failures.append(f"stop {traj.stop.value}, expected {expect.value}")
        if not (math.isfinite(chi) and chi <= chi_max):
            out.failures.append(f"chi {chi:.3g} above {chi_max:.3g}")
        if extra is not None:
            out.failures += extra(traj)
        return out

    return Op(name, run, check)


# --- paper-examples -------------------------------------------------------------

EXAMPLES = ("1", "2-log", "2-arctanh", "3", "4", "5")
EXAMPLE_ARITY = {"1": 4, "2-log": 3, "2-arctanh": 3, "3": 3, "4": 5, "5": 5}
#: RK4 steps of the reference runs an example makes but does not write out
#: (h-ref = 1e-5 over [1, 2.5] for example 1, two seed strides for example 3)
EXAMPLE_HIDDEN_RK4_STEPS = {"1": 150_000, "3": 200}
#: (invariant stop, baseline stop) at the default sizes
EXAMPLE_STOPS = {"1": ("completed", "completed"),
                 "2-log": ("no-real-root", "non-finite"),
                 "2-arctanh": ("completed", "completed"),
                 "3": ("completed", "non-finite"),
                 "4": ("completed", "non-finite"),
                 "5": ("completed", "non-finite")}
#: summary line holding chi against an exact or fine reference; example 3
#: is compared only with its RK4 baseline, so it has none
EXAMPLE_CHI = {"1": "chi vs fine reference", "2-log": "chi vs exact",
               "2-arctanh": "chi vs exact", "4": "chi vs exact",
               "5": "chi vs exact before pole"}
EXAMPLE_CSVS = ("invariant.csv", "baseline.csv")
#: examples of under 0.1 s run five times a pass, so that their fastest
#: repeat is as steady as that of the operations of the other workloads
EXAMPLE_REPEATS = {"2-arctanh": 5, "3": 5, "4": 5, "5": 5}
TABLE2_CHI_H001 = 1.79e-6


def _criterion_2(summary, inv, base) -> list[str]:
    ratio = float(summary[EXAMPLE_CHI["1"]]) / TABLE2_CHI_H001
    ok = 0.2 <= ratio <= 5.0
    return [] if ok else [f"table-2 chi at h = 0.01 off by a factor {ratio:.3g}"]


def _criterion_4(summary, inv, base) -> list[str]:
    fails = []
    if len(inv.points) != 45:
        fails.append(f"{len(inv.points)} points, expected 45")
    devs = [abs(p.y - 1.0 / (1.0 - math.exp(p.x))) for p in inv.points if p.x != 0.0]
    rho = 2.0 + math.exp(0.1) + math.exp(-0.1)
    ys = inv.ys
    r_devs = [abs((ys[k + 3] - ys[k + 1]) * (ys[k + 2] - ys[k])
                  / ((ys[k + 3] - ys[k + 2]) * (ys[k + 1] - ys[k])) - rho)
              for k in range(len(ys) - 3)]
    if not max(devs) <= 1e-9:
        fails.append(f"criterion 4: deviation from the exact solution {max(devs):.3g}")
    if not max(r_devs) <= 1e-10:
        fails.append(f"criterion 4: cross-ratio deviation {max(r_devs):.3g}")
    return fails


def _criterion_5(x0: float, traj) -> list[str]:
    """The third-order scheme halts on the starting side of the barrier at
    0, inside the 0.01 window, and is accurate away from it."""
    fails = []
    x_stop = traj.points[-1].x
    if not (abs(x_stop) <= 0.01 and x_stop * x0 >= 0.0):
        fails.append(f"criterion 5: stopped at x = {x_stop!r}")
    errs = [abs(p.y - math.log(abs(p.x))) for p in traj.points if abs(p.x) >= 0.01]
    if errs and not max(errs) <= 1e-3:
        fails.append(f"criterion 5: error {max(errs):.3g} away from the barrier")
    return fails


def _criterion_6(traj) -> list[str]:
    beyond = [p for p in traj.points if p.x > TAN_RECIPROCAL_POLE]
    if not beyond or not all(math.isfinite(p.y) for p in beyond):
        return ["criterion 6: no finite points beyond the pole"]
    return []


EXAMPLE_CRITERIA = {
    "1": _criterion_2,
    "2-log": lambda summary, inv, base: _criterion_5(-1.0, inv),
    "4": _criterion_4,
    "5": lambda summary, inv, base: _criterion_6(inv) + (
        [] if base.points[-1].x <= TAN_RECIPROCAL_POLE
        else ["criterion 6: the RK4 baseline passed the pole"]),
}


def _rows_match(path: Path, traj) -> bool:
    """The rows read back equal the rows in the file, parsed independently."""
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]
    return (lines[0] == "x,y" and len(rows) == len(traj.points)
            and all(float(x) == p.x and float(y) == p.y
                    for (x, y), p in zip(rows, traj.points)))


def _example_op(ex: str, out_dir: Path) -> Op:
    def run():
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            status = cli.main(["example", ex, "--out", str(out_dir)])
        back = [cli.read_trajectory_csv(out_dir / name) for name in EXAMPLE_CSVS]
        return status, text.getvalue(), back

    def check(result) -> Outcome:
        status, text, (inv, base) = result
        summary = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        stops = (inv.stop.value, base.stop.value)
        work = (len(inv.points) - EXAMPLE_ARITY[ex] + len(base.points) - 1
                + EXAMPLE_HIDDEN_RK4_STEPS.get(ex, 0))
        chi = float(summary[EXAMPLE_CHI[ex]]) if ex in EXAMPLE_CHI else None
        out = Outcome(work, chi, stops)
        if status != 0:
            out.failures.append(f"exit status {status}")
        if stops != EXAMPLE_STOPS[ex]:
            out.failures.append(f"stops {stops}, expected {EXAMPLE_STOPS[ex]}")
        for name, traj in zip(EXAMPLE_CSVS, (inv, base)):
            if not _rows_match(out_dir / name, traj):
                out.failures.append(f"{name}: read-back differs from the written rows")
        if ex in EXAMPLE_CRITERIA:
            out.failures += EXAMPLE_CRITERIA[ex](summary, inv, base)
        return out

    return Op(f"example {ex}", run, check, EXAMPLE_REPEATS.get(ex, 1))


def build_paper_examples(seed: int, workdir: Path, short: bool) -> list[Op]:
    # The examples run at their default sizes; the seed only orders them.
    return [_example_op(ex, workdir / f"example-{ex}") for ex in EXAMPLES]


# --- fine-step-sweep ------------------------------------------------------------

def _one_over_one_minus_exp(x: float) -> float:
    return 1.0 / (1.0 - math.exp(x))


#: (scheme, forcing, exact solution, x0, span, h ladder, chi ceiling per h).
#: The ceilings are ten times chi when the benchmark was added.  The
#: ladder reaches the round-off regime: sly4's chi grows from 1.2e-9 at
#: h = 1e-2 to 1.3e-4 at 3e-4, and h5 halts at 1e-3.  It stops at 3e-4 so
#: that no trajectory takes more than about 0.2 s: on a shared host a run
#: only times steadily what it can repeat dozens of times.
SWEEPS = (
    (SchemeKind.SLX3, Constant(2.0), math.atanh, -0.9, 1.8,
     {1e-2: 7.5e-2, 3e-3: 7.9e-3, 1e-3: 9.2e-4, 3e-4: 8.4e-5}),
    (SchemeKind.SLY4, Constant(0.0), math.tan, -1.2, 2.4,
     {1e-2: 1.3e-8, 3e-3: 1.7e-7, 1e-3: 1.3e-5, 3e-4: 1.4e-3}),
    (SchemeKind.H5, Constant(0.0), _one_over_one_minus_exp, -3.0, 2.5,
     {1e-2: 4.3e-4, 1e-3: 1.2e-3}),
)
#: round-off in h5_uniform halts the h5 run at h = 1e-3 after about 200
#: steps; it is recorded as a known defect, not hidden
SWEEP_KNOWN_DEFECTS = {(SchemeKind.H5, 1e-3): (StopReason.DEGENERATE_COEFFICIENT,)}


def build_fine_step_sweep(seed: int, workdir: Path, short: bool) -> list[Op]:
    # Fixed problems: in the round-off regime chi changes by factors of 2-5
    # when the start point moves by 1e-3, so a seeded start would swamp
    # chi_geomean's bound.  The seed only orders the trajectories.
    ops = []
    for kind, forcing, f, x0, span, ladder in SWEEPS:
        for h, chi_max in ladder.items():
            if short and h < 1e-3:  # the short version keeps h >= 1e-3
                continue
            spec = SchemeSpec(kind, forcing, Uniform(h))
            n_steps = round(span / h) - spec.arity + 1
            ops.append(_trajectory_op(
                f"{kind.value} h={h:g}", spec, f, x0, n_steps, StopReason.COMPLETED,
                chi_max, SWEEP_KNOWN_DEFECTS.get((kind, h), ())))
    return ops


# --- singularity-ensemble -------------------------------------------------------

def _log_abs(x: float) -> float:
    return math.log(abs(x))


def _tan_reciprocal(x: float) -> float:
    return math.tan(1.0 / x)


#: chi above this means a run left the solution; over 40 seeds the largest
#: chi was 0.033 (barrier) and 1.1e-3 (pole, 99th percentile 3.3e-4)
SINGULARITY_CHI_MAX = 0.1


def build_singularity_ensemble(seed: int, workdir: Path, short: bool) -> list[Op]:
    """Short runs that start 5..100 steps before a singularity, each distance
    once per pass; the seed places each start inside its step."""
    rng = random.Random(seed)
    ks = range(5, 101, 19 if short else 1)
    ops = []
    h = 1e-4
    for k in ks:
        for side in (-1.0, 1.0):
            # toward the logarithmic barrier at 0, from either side
            x0 = side * (k + rng.uniform(0.1, 0.9)) * h
            spec = SchemeSpec(SchemeKind.SLX3, Constant(0.5), Uniform(-side * h))
            ops.append(_trajectory_op(
                f"slx3 barrier k={k} side={side:+.0f}", spec, _log_abs, x0, k + 20,
                StopReason.NO_REAL_ROOT, SINGULARITY_CHI_MAX,
                extra=lambda traj, x0=x0: _criterion_5(x0, traj)))
        # across the pole of tan(1/x), 30 steps beyond it
        x0 = TAN_RECIPROCAL_POLE - (k + rng.uniform(0.1, 0.9)) * h
        spec = SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(h))
        ops.append(_trajectory_op(
            f"h5 pole k={k}", spec, _tan_reciprocal, x0, k + 30,
            StopReason.COMPLETED, SINGULARITY_CHI_MAX, extra=_criterion_6))
    return ops


# --- invariant-probes -----------------------------------------------------------

#: (invariant, test function, anchor, h0, ratio, levels) as in
#: scripts/run_limit_probes.py, plus tan(1/x) for the L-family, which is
#: the one test function whose jets go through compose_jet
LIMIT_PROBES = (
    ("l3", "log", 1.0, 0.01, 0.5, 5), ("l4", "log", 1.0, 0.01, 0.5, 5),
    ("l5", "log", 1.0, 0.05, 0.6, 6), ("m3", "atanh", 0.3, 0.01, 0.5, 5),
    ("m4", "exp", 0.2, 0.01, 0.5, 5), ("m5", "exp", 0.2, 0.05, 0.6, 6),
    ("h5", "log", 1.0, 0.05, 0.6, 6),
    ("l3", "tan-reciprocal", 0.165, 1e-3, 0.5, 5),
    ("l4", "tan-reciprocal", 0.165, 1e-3, 0.5, 5),
    ("l5", "tan-reciprocal", 0.165, 2e-3, 0.6, 6),
)
#: anchors fall within 10% of the listed one (for tan(1/x), between its
#: poles at 2/(5 pi) and 2/(3 pi)), one in each of eight equal strata
PROBE_ANCHOR_SPREAD = 0.1
PROBE_ANCHORS = 8
INVARIANCE_CHECKS = {"cross_ratio": 20, "l3": 10, "l4": 10, "l5": 10,
                     "m3": 10, "m4": 10, "m5": 10, "h5_discrete": 10}
LATTICE_HS = (0.05, 0.03, 0.02, 0.012)


def _jets(name: str) -> Callable[[float], Jet]:
    if name == "exp":
        return _jet_exp
    return {"log": reference.log_abs, "atanh": reference.arctanh_solution,
            "tan-reciprocal": reference.tan_reciprocal}[name]().jet_fn


def _finest_clean_chi(rep) -> float:
    """chi of the finest level before the round-off floor against its target."""
    return reference.chi([rep.limit_value], [rep.targets[max(rep.floor_level, 2) - 1]])


#: At h = 6.25e-4 the m4 probe's finest level sits on its round-off floor
#: without tripping the floor detection, and the fitted order falls to
#: 0.77-0.80 at one or two seeded anchors in a hundred; recorded as a
#: known defect
ROUND_OFF_ORDER = ("m4",)


def _limit_op(name: str, probe: LimitProbe) -> Op:
    def run():
        rep = limits.probe_limit(probe)
        return rep, _finest_clean_chi(rep)

    def check(result) -> Outcome:
        rep, chi = result
        # the acceptance rules of criterion 8
        target = rep.targets[max(rep.floor_level, 2) - 1]
        out = Outcome(len(rep.values), chi)
        if not rep.estimated_order >= 0.8:
            msg = f"criterion 8: order {rep.estimated_order:.3g}"
            if probe.invariant in ROUND_OFF_ORDER:
                out.known_defect = f"{name}: {msg}"
            else:
                out.failures.append(msg)
        if not abs(rep.limit_value - target) <= 3.0 * rep.errors[0]:
            out.failures.append("criterion 8: limit value off its target")
        return out

    return Op(name, run, check)


def _lattice_op(rng: random.Random) -> Op:
    """l5 on the constant-cross-ratio lattice x_m = 1/(lam*(m + 6)) + C,
    extended from three nodes by lattice.extend_lattice: with the lattice
    coefficient W the probe converges, without it it stalls near
    |W0| * J3^2."""
    c = rng.uniform(-0.1, 0.1)
    nodes: list[tuple[float, list[float]]] = []

    def closed_form(h: float) -> list[float]:
        lam = 1.0 / (h * 36.0)
        return [1.0 / (lam * (m + 6.0)) + c for m in range(6)]

    def on_lattice(h: float) -> list[float]:
        xs = lattice.extend_lattice(ConstantS(4.0, tuple(closed_form(h)[:3])), 6)
        nodes.append((h, xs))
        return xs

    corrected = LimitProbe("l5", _jet_exp, c, LATTICE_HS, lattice=on_lattice)
    bare = LimitProbe("l5", _jet_exp, c, LATTICE_HS, lattice=on_lattice,
                      target_fn=lambda jet, xs: differential.jy_invariants(jet).fifth)
    # J3 of exp is -1/2
    stall = abs(lattice.w0_sol2(1.0, 6.0)) * 0.25

    def run():
        nodes.clear()
        cor = limits.probe_limit(corrected)
        return cor, limits.probe_limit(bare), _finest_clean_chi(cor)

    def check(result) -> Outcome:
        cor, unc, chi = result
        out = Outcome(len(cor.values) + len(unc.values), chi)
        if any(_rel(a, b) > 1e-9 for h, xs in nodes for a, b in zip(closed_form(h), xs)):
            out.failures.append("extend_lattice left the closed-form lattice")
        if not cor.errors[-1] <= 0.1 * stall:
            out.failures.append(f"corrected l5 error {cor.errors[-1]:.3g}")
        if not abs(unc.errors[-1] - stall) <= 0.1 * stall:
            out.failures.append(f"uncorrected l5 error {unc.errors[-1]:.3g}, "
                                f"expected near {stall:.3g}")
        return out

    return Op("lattice l5 constant cross-ratio", run, check)


def _mobius(rng: random.Random, values) -> Callable[[float], float]:
    """Unit-determinant map whose pole stays 0.2 away from every value."""
    for _ in range(500):
        a, b, c, d = (rng.uniform(-2.0, 2.0) for _ in range(4))
        det = a * d - b * c
        if abs(det) < 0.1:
            continue
        s = 1.0 / math.sqrt(abs(det))
        a, b, c, d = a * s, b * s, c * s, d * s
        if all(abs(c * v + d) > 0.2 for v in values):
            return lambda t: (a * t + b) / (c * t + d)
    raise RuntimeError("could not draw a well-conditioned Mobius map")


def _cumsum(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    out, acc = [], 0.0
    for _ in range(n):
        acc += rng.uniform(lo, hi)
        out.append(acc)
    return out


def _invariance_op(rng: random.Random, name: str, i: int) -> Op:
    """An invariant and its value on a Mobius image of the stencil (the
    check of criterion 7): y-maps for cross-ratio and the L-family, x-maps
    for the M-family, both for h5_discrete."""
    if name == "cross_ratio":
        while True:
            vals = sorted(rng.uniform(-3.0, 3.0) for _ in range(4))
            if min(vals[3] - vals[2], vals[1] - vals[0]) >= 1e-2:
                break
        g = _mobius(rng, vals)
        a = discrete.CrossRatioWindow(*vals)
        b = discrete.CrossRatioWindow(*(g(v) for v in vals))
        tol = 1e-10
    else:
        n = {"l3": 4, "m3": 4, "l4": 5, "m4": 5}.get(name, 6)
        while True:
            xs, ys = _cumsum(rng, 0.3, 1.0, n), _cumsum(rng, 0.5, 1.5, n)
            gx, gy = _mobius(rng, xs), _mobius(rng, ys)
            txs = [gx(x) for x in xs] if name[0] != "l" else xs
            tys = [gy(y) for y in ys] if name[0] != "m" else ys
            steps = [q - p for p, q in zip(txs, txs[1:])]
            if all(s > 0 for s in steps) or all(s < 0 for s in steps):
                break
        a, b = stencil_from_sequences(xs, ys), stencil_from_sequences(txs, tys)
        tol = 1e-8

    def run():
        fn = getattr(discrete, name)
        return fn(a), fn(b)

    def check(result) -> Outcome:
        va, vb = result
        out = Outcome(2)
        if not _rel(va, vb) <= tol:
            out.failures.append(f"criterion 7: {name} moved by {_rel(va, vb):.3g}")
        return out

    return Op(f"invariance {name} #{i}", run, check)


def build_invariant_probes(seed: int, workdir: Path, short: bool) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for inv, fn, x0, h0, ratio, levels in LIMIT_PROBES:
        jets = _jets(fn)
        hs = tuple(h0 * ratio ** k for k in range(levels))
        width = 2.0 * PROBE_ANCHOR_SPREAD / PROBE_ANCHORS
        for s in range(1 if short else PROBE_ANCHORS):
            anchor = x0 * (1.0 - PROBE_ANCHOR_SPREAD + (s + rng.random()) * width)
            ops.append(_limit_op(f"limit {inv} {fn} x0={anchor:.4f}",
                                 LimitProbe(inv, jets, anchor, hs)))
    ops.append(_lattice_op(rng))
    for name, count in INVARIANCE_CHECKS.items():
        for i in range(2 if short else count):
            ops.append(_invariance_op(rng, name, i))
    return ops


# --- registry -------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload("paper-examples",
             "the six README examples through cli.main, as users run them; "
             "RK4 and CSV I/O dominate",
             1.8, build_paper_examples),
    Workload("fine-step-sweep",
             "long trajectories over an h ladder into the round-off regime; "
             "per-step kernel cost dominates",
             0.45, build_fine_step_sweep),
    Workload("singularity-ensemble",
             "many short seeded runs that stop at a barrier or cross a pole; "
             "per-run set-up and stop paths weigh most",
             0.45, build_singularity_ensemble),
    Workload("invariant-probes",
             "continuous-limit probes, a constant-cross-ratio lattice and "
             "Mobius-invariance checks; no stepping, no RK4",
             0.06, build_invariant_probes),
)}
