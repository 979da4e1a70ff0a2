"""Command-line front end: the bundled example problems, integrations from
seed files, deviation estimates and continuous-limit probes.  Every setting
but `solve`'s step (the seed file's) comes from the command line, where no
flag may be abbreviated and a forcing is a name of FORCINGS or a number.
Trajectories are exchanged as CSV files with '#'-prefixed metadata lines."""
from __future__ import annotations

import argparse
import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import cache, cached_property, partial
from pathlib import Path
from typing import Callable

from .core import (SCHEME_ARITY, Constant, DegenerateCoefficientError, DomainError,
                   ForcingTerm, FunctionOfX, IdentityInY, NonFiniteError, SchemeKind,
                   SchemeSpec, Stencil, StopReason, Trajectory, Uniform,
                   seed_stencil_from_function)
from .discrete import _cross_ratio
from .limits import _INVARIANTS, LimitProbe, probe_limit
from .reference import (EXACT_SOLUTIONS, ExactSolution, OdeSystem,
                        arctanh_solution, chi, fifth_order_invariant_system,
                        log_abs, one_over_one_minus_exp, rk4_integrate,
                        rk4_schwarzian_rate, scaled_schwarzian_system,
                        schwarzian_rate_system, tan_reciprocal)
from .schemes import integrate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

TAN_RECIPROCAL_POLE = 2.0 / (5.0 * math.pi)

#: upper bound on the steps of any one run the CLI starts (scheme, reference
#: or baseline), so that a mistyped size fails at once instead of filling memory
MAX_STEPS = 1_000_000

#: the term each --forcing name stands for; a number stands for the constant
FORCINGS: dict[str, ForcingTerm] = {
    "y": IdentityInY(),  # at the new point
    "y-mean": IdentityInY(stencil_mean=True),  # the mean of the four stencil ordinates
    "cos": FunctionOfX(math.cos),
    "sin": FunctionOfX(math.sin),
}


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit status 2)."""


# --- CSV exchange -------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(v, ".17g")


def write_trajectory_csv(path, traj: Trajectory) -> None:
    lines = [f"# scheme: {traj.scheme_id}",
             f"# h: {_fmt(traj.h_nominal)}",
             f"# stop: {traj.stop.value}",
             "x,y"]
    # one %-format per row: _fmt's digits, without two calls a row
    lines += ["%.17g,%.17g" % row for row in zip(traj.xs, traj.ys)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path) -> Trajectory:
    meta = {"scheme": "unknown", "h": "0", "stop": StopReason.COMPLETED.value}
    meta_line = {}  # key -> number of the line that set it
    xs, ys = [], []
    header_seen = False
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        if header_seen:
            # a data row first, unstripped: float() skips the spaces around it
            sx, _, sy = raw.partition(",")
            try:
                x, y = float(sx), float(sy)
            except ValueError:
                pass  # a blank, metadata or bad line, told apart below
            else:
                xs.append(x)
                ys.append(y)
                continue
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
            meta_line[key.strip()] = lineno
            continue
        if not header_seen:
            if line != "x,y":
                raise ConfigError(f"{path}: expected header 'x,y', got {line!r}")
            header_seen = True
            continue
        # strip() also drops control characters such as U+001F that float() keeps
        sx, _, sy = line.partition(",")
        try:
            xs.append(float(sx))
            ys.append(float(sy))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: expected two numbers, got {line!r}") from None
    if not xs:
        raise ConfigError(f"{path}: no data rows")
    if not all(map(math.isfinite, xs + ys)):
        raise NonFiniteError(f"{path}: non-finite value in the data rows")
    if meta["stop"] not in {r.value for r in StopReason}:
        raise ConfigError(f"{path}: '# stop:' has no stop reason {meta['stop']!r}")
    h = math.nan
    with suppress(ValueError):
        h = float(meta["h"])
    if "h" in meta_line and not 0 < abs(h) < math.inf:  # else h is 0.0, no step recorded
        raise ConfigError(f"{path}:{meta_line['h']}: '# h:' value {meta['h']!r} "
                          "is not a finite nonzero step")
    return Trajectory(tuple(xs), tuple(ys), StopReason(meta["stop"]), meta["scheme"], h)


# --- paper examples -------------------------------------------------------------

@dataclass(frozen=True)
class Example:
    """One paper experiment, run by :func:`run_example`.  ``system`` is the
    ODE that ``scheme`` discretises under ``forcing``.  The seed samples
    ``solution`` or, without one, strides a fine RK4 run of ``system`` at step
    ``h_ref`` from ``init`` over ``span`` (default: the seed only); a
    reference with a span also scores the run.  An ``sly4`` example's
    reference runs RK4 on the linear form of its S' = f(x) equation
    (:func:`~invdisc.reference.rk4_schwarzian_rate`, f the forcing's ``fn``),
    the others plain RK4 on ``system``.  The RK4 baseline runs plain RK4 on
    ``system`` from ``init`` (default: the solution's jet at x0) over the
    run's lattice, or on the ``(h, steps)`` of ``baseline_grid(h, x0)``."""

    scheme: SchemeKind
    forcing: ForcingTerm
    h: float
    x0: float
    steps: Callable[[float, float], int]  # default step count from (h, x0)
    summary: tuple[str, ...]  # labels of SUMMARY_LINES, in print order
    solution: ExactSolution | None = None
    init: tuple[float, ...] | None = None
    span: float | None = None
    baseline_grid: Callable[[float, float], tuple[float, int]] | None = None
    h_ref: float = 1e-5

    @property
    def system(self) -> OdeSystem:
        """S' = f(x) (sly4), S/y'^2 = c or y (slx3; y for its stencil mean too) or h5 = c."""
        f = self.forcing
        c = f.c if isinstance(f, Constant) else None
        if self.scheme is SchemeKind.H5:
            return fifth_order_invariant_system(c)
        if self.scheme is SchemeKind.SLY4:
            return schwarzian_rate_system(f.fn if c is None else lambda x: c)
        return scaled_schwarzian_system((lambda x, y: y) if c is None else lambda x, y: c)


@dataclass(frozen=True)
class ExampleRun:
    """One run of a paper example, as :func:`run_example` resolved it.  The
    RK4 baseline and the summary are computed on first use; ``summary`` maps
    each label to its value, and floats print with six significant digits."""

    id: str
    h: float
    x0: float
    init: tuple[float, ...]  # RK4 initial values
    base_grid: tuple[float, int]  # the RK4 baseline's (h, steps)
    inv: Trajectory
    ref: Trajectory | None  # the fine reference the seed came from, if any
    stride: int
    ref_error: float | None  # ref's step-doubling error, if ref scores the run

    @property
    def example(self) -> Example:
        return EXAMPLES[self.id]

    @cached_property
    def base(self) -> Trajectory:
        return rk4_integrate(self.example.system, self.init, self.x0, *self.base_grid)

    @cached_property
    def summary(self) -> dict:
        return {"example": self.id,
                **{label: SUMMARY_LINES[label](self) for label in self.example.summary}}

    @property
    def lines(self) -> list[str]:
        return [f"{k}: {v:.6g}" if isinstance(v, float) else f"{k}: {v}"
                for k, v in self.summary.items()]


def _check_size(what: str, steps: int) -> None:
    if steps > MAX_STEPS:
        from decimal import Decimal  # not at start-up; it formats counts past floats
        raise ConfigError(f"the {what} run would take {Decimal(steps):.7g} steps, "
                          f"more than {MAX_STEPS}")


def _reused(what: str, value, prior):
    """``prior``, the reused run's value, unless ``value`` was given and differs."""
    if value is not None and value != prior:
        raise ConfigError(f"{what} {value!r} differs from the {what} {prior!r} "
                          "of the reused run")
    return prior


def _fine_rk4(ex: Example, init, x0: float, h: float, n: int) -> Trajectory:
    # sly4's equation S' = f(x) is linear in disguise: RK4 on its linear form
    if ex.scheme is SchemeKind.SLY4:
        return rk4_schwarzian_rate(ex.forcing.fn, init, x0, h, n)
    return rk4_integrate(ex.system, init, x0, h, n)


def run_example(example_id: str, h: float | None = None, steps: int | None = None,
                out_dir: Path | None = None, h_ref: float | None = None,
                x0: float | None = None, ref: ExampleRun | None = None) -> ExampleRun:
    """Run one entry of :data:`EXAMPLES`; options left as None take its
    defaults.  ``h_ref`` is the step of the RK4 run that seeds an example
    without an exact solution (the example's own ``h_ref`` by default; an
    ``sly4`` example's runs on the linearised equation, see
    :class:`Example`); an example seeded from its exact solution makes no
    such run.  An example whose reference scores the run (``Example.span``)
    is checked with a second run of the same method at 2 h_ref when its
    reference is built.  With ``out_dir`` the invariant and baseline
    trajectories and the summary are written there.  ``ref`` is an earlier
    run of the same example: the new run takes its x0, fine reference, h_ref
    and reference check, and an ``example_id``, ``x0`` or ``h_ref`` that
    differs from it is refused."""
    ex = EXAMPLES[example_id]
    h = ex.h if h is None else h
    run_ref = ref_error = None
    if ref is not None:
        _reused("example", example_id, ref.id)
        x0 = _reused("x0", x0, ref.x0)
        run_ref, ref_error = ref.ref, ref.ref_error
        if run_ref is not None:
            h_ref = _reused("h-ref", h_ref, run_ref.h_nominal)
    x0 = ex.x0 if x0 is None else x0
    h_ref = ex.h_ref if h_ref is None else h_ref
    spec = SchemeSpec(ex.scheme, ex.forcing, Uniform(h))  # refuses a zero or non-finite h
    if not math.isfinite(x0):
        raise ConfigError("x0 must be finite")
    if not h_ref > 0:
        raise ConfigError("h-ref must be positive")
    if steps is None:
        steps = ex.steps(h, x0)
        if not 1 <= steps <= MAX_STEPS:
            raise ConfigError(f"example {example_id}'s default step count at h = {h!r}, "
                              f"x0 = {x0!r} is {steps}, not from 1 to {MAX_STEPS}")
    elif not 1 <= steps <= MAX_STEPS:
        raise ConfigError(f"steps must be an integer from 1 to {MAX_STEPS}")
    lattice_steps = steps + spec.arity - 1  # from x0 to the last point asked for
    base_grid = (ex.baseline_grid(h, x0) if ex.baseline_grid
                 else (h, lattice_steps))
    _check_size("baseline", base_grid[1])
    init = ex.init if ex.init is not None else ex.solution.jet_fn(x0).d[:spec.arity]
    stride = 1
    if ex.solution is not None:
        seed = seed_stencil_from_function(ex.solution.eval_fn, x0, h, spec.arity)
    else:
        stride = round(h / h_ref)
        if stride < 1 or abs(stride * h_ref - h) > 1e-12 * abs(h):
            raise ConfigError("h must be a positive integer multiple of h-ref")
        if run_ref is None:
            n_ref = (round((x0 + ex.span - x0) / h_ref) if ex.span is not None
                     else (spec.arity - 1) * stride)
            # also bounds the check run at 2 h_ref, half as long
            _check_size("reference", n_ref)
            run_ref = _fine_rk4(ex, init, x0, h_ref, n_ref)
            if ex.span is not None:
                # step doubling (Hairer, Norsett and Wanner, *Solving ODEs I*,
                # II.4), the raw difference, not the Richardson /15 form: at
                # round-off the error no longer falls 16x with the step
                coarse = _fine_rk4(ex, init, x0, 2.0 * h_ref, (len(run_ref) - 1) // 2)
                ref_error = max(abs(a - b) for a, b in zip(run_ref.ys[::2], coarse.ys))
        end = (spec.arity - 1) * stride + 1
        if len(run_ref) < end:
            raise ConfigError(
                f"the fine reference ends ({run_ref.stop.value}) before the seed")
        seed = Stencil(run_ref.xs[:end:stride], run_ref.ys[:end:stride])
    run = ExampleRun(example_id, h, x0, init, base_grid, integrate(spec, seed, steps),
                     run_ref, stride, ref_error)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(out_dir / "invariant.csv", run.inv)
        write_trajectory_csv(out_dir / "baseline.csv", run.base)
        (out_dir / "summary.txt").write_text("\n".join(run.lines) + "\n")
    return run


def _pairs(xs, ys, truth, keep=None, seed: int = 0) -> tuple[list[float], list[float]]:
    """The ordinates ``ys`` and the truth's values at the nodes where the
    truth has a value and ``keep(x)``, if given, holds.  ``truth`` is a
    function of x that raises DomainError where it has no value, or its
    values at the first nodes.  The first ``seed`` nodes count only with a
    later one: a seed sampled from the truth would score 0 on its own, so
    without a later node both lists are empty."""
    cand, ref = [], []
    if callable(truth):
        for x, y in zip(xs, ys):
            if keep and not keep(x):
                continue
            try:
                ref.append(truth(x))
            except DomainError:
                continue
            cand.append(y)
    else:
        for x, y, t in zip(xs, ys, truth):
            if not keep or keep(x):
                cand.append(y)
                ref.append(t)
    if seed and len(cand) == len(_pairs(xs[:seed], ys[:seed], truth, keep)[0]):
        return [], []
    return cand, ref


def _chi_vs(run: ExampleRun, truth, keep=None) -> float:
    cand, ref = _pairs(run.inv.xs, run.inv.ys, truth, keep, SCHEME_ARITY[run.example.scheme])
    return chi(cand, ref) if cand else math.nan


def _max_deviation(run: ExampleRun) -> float:
    # the lattice can land on the pole itself
    cand, ref = _pairs(run.inv.xs, run.inv.ys, run.example.solution.eval_fn,
                       seed=SCHEME_ARITY[run.example.scheme])
    return max((abs(y - e) for y, e in zip(cand, ref)), default=math.nan)


def _cross_ratio_deviation(run: ExampleRun) -> float:
    rho = 2.0 + math.exp(run.h) + math.exp(-run.h)
    ys, devs = run.inv.ys, []
    # a degenerate stop leaves windows without one; the seed's alone score nothing
    for k in range(len(ys) - 3 if len(ys) > SCHEME_ARITY[run.example.scheme] else 0):
        with suppress(DegenerateCoefficientError, NonFiniteError):
            devs.append(abs(_cross_ratio(*ys[k:k + 4]) - rho))
    return max(devs, default=math.nan)


def _before_pole(run: ExampleRun) -> Callable[[float], bool]:
    # x0's side of the first pole, at least 2|h| short of it
    s, near = math.copysign(1.0, run.h), TAN_RECIPROCAL_POLE - 2 * run.h
    return lambda x: s * x <= s * near


def _grid_past_pole(h: float, x0: float) -> tuple[float, int]:
    # fixed-step RK4 with a coarse step can hop the pole on garbage values;
    # |h| <= 1e-5 keeps the blow-up on the near side; a run stepping away
    # from the pole gets a baseline of its initial point only
    h_base = math.copysign(min(abs(h), 1e-5), h)
    return h_base, max(0, round(2.0 * (TAN_RECIPROCAL_POLE - x0) / h_base))


#: how each summary line reads a run.  A score pairs the run with its truth
#: (the exact solution, the strided fine reference or the baseline) by
#: :func:`_pairs`, and reads nan where no node the scheme computed pairs
SUMMARY_LINES: dict[str, Callable[[ExampleRun], object]] = {
    "invariant stop": lambda run: run.inv.stop.value,
    "invariant last x": lambda run: _fmt(run.inv.xs[-1]),
    "invariant endpoint": lambda run: f"x = {_fmt(run.inv.xs[-1])}, y = {_fmt(run.inv.ys[-1])}",
    "first pole": lambda run: _fmt(TAN_RECIPROCAL_POLE),
    "beyond singularity": lambda run: ("yes" if (run.inv.xs[-1] > TAN_RECIPROCAL_POLE)
                                       != (run.x0 > TAN_RECIPROCAL_POLE) else "no"),
    # a completed one-point baseline took no step (see _grid_past_pole)
    "baseline stop": lambda run: ("not run" if len(run.base) == 1
                                  and run.base.stop is StopReason.COMPLETED
                                  else run.base.stop.value),
    "baseline last x": lambda run: _fmt(run.base.xs[-1]),
    "max deviation from exact": _max_deviation,
    "max cross-ratio deviation": _cross_ratio_deviation,
    "exact discrete solution": lambda run: "yes" if _max_deviation(run) <= 1e-9 else "no",
    "chi vs fine reference": lambda run: _chi_vs(run, run.ref.ys[::run.stride]),
    "reference error estimate": lambda run: run.ref_error,
    "chi vs exact": lambda run: _chi_vs(run, run.example.solution.eval_fn),
    "chi vs baseline (common prefix)": lambda run: _chi_vs(run, run.base.ys),
    "chi vs exact before pole": lambda run: _chi_vs(run, run.example.solution.eval_fn,
                                                    _before_pole(run)),
}

_STOPS = ("invariant stop", "invariant last x", "baseline stop", "baseline last x")

#: the paper's six runs, by example id
EXAMPLES: dict[str, Example] = {
    "1": Example(SchemeKind.SLY4, FunctionOfX(math.cos), h=0.01, x0=1.0,
                 # x0 + 1.5 - x0, not 1.5: the run ends where the reference does
                 steps=lambda h, x0: round((x0 + 1.5 - x0) / h) - 3,
                 summary=("invariant stop", "baseline stop", "invariant endpoint",
                          "chi vs fine reference", "reference error estimate"),
                 # 2e-4 is at round-off already: 4.8e-15 from a 30-digit solution
                 init=(1.0, -1.0, -2.5, 5.0), span=1.5, h_ref=2e-4),
    "2-log": Example(SchemeKind.SLX3, Constant(0.5), h=1e-4, x0=-1.0,
                     steps=lambda h, x0: round(1.05 * abs(x0) / abs(h)),
                     summary=(*_STOPS, "chi vs exact"), solution=log_abs()),
    "2-arctanh": Example(SchemeKind.SLX3, Constant(2.0), h=0.01, x0=-0.9,
                         steps=lambda h, x0: round(1.8 / abs(h)) - 2,
                         summary=(*_STOPS, "chi vs exact"),
                         solution=arctanh_solution()),
    "3": Example(SchemeKind.SLX3, IdentityInY(), h=0.001, x0=0.0,
                 steps=lambda h, x0: round(0.3 / h),
                 summary=(*_STOPS, "chi vs baseline (common prefix)"), init=(10.0, -1.0, -10.0)),
    "4": Example(SchemeKind.H5, Constant(0.0), h=0.1, x0=-1.0, steps=lambda h, x0: 40,
                 summary=("invariant stop", "invariant last x", "baseline stop",
                          "max deviation from exact", "max cross-ratio deviation",
                          "exact discrete solution", "chi vs exact"),
                 solution=one_over_one_minus_exp()),
    "5": Example(SchemeKind.H5, Constant(0.0), h=0.001, x0=0.1, steps=lambda h, x0: 60,
                 summary=("invariant stop", "invariant last x", "first pole",
                          "beyond singularity", "baseline stop", "baseline last x",
                          "chi vs exact before pole"),
                 solution=tan_reciprocal(),
                 baseline_grid=_grid_past_pole),
}


# --- subcommand drivers ----------------------------------------------------------

def cmd_example(args) -> int:
    out_dir = Path(args.out) if args.out else None
    run = run_example(args.id, args.h, args.steps, out_dir, args.h_ref, args.x0)
    print("\n".join(run.lines))
    return EXIT_OK


def cmd_solve(args) -> int:
    if not 1 <= args.steps <= MAX_STEPS:
        raise ConfigError(f"steps must be an integer from 1 to {MAX_STEPS}")
    kind = SchemeKind(args.scheme)
    seed, n = read_trajectory_csv(args.seed), SCHEME_ARITY[kind]
    if len(seed) < n:
        raise ConfigError(f"{args.seed}: need at least {n} rows, got {len(seed)}")
    lattice = Uniform(seed.h_nominal or seed.xs[1] - seed.xs[0])  # '# h:', else the 1st spacing
    try:
        spec = SchemeSpec(kind, args.forcing, lattice)
    except ValueError as e:  # every scheme takes a constant: a name of FORCINGS
        typed = next(name for name, f in FORCINGS.items() if f == args.forcing)
        raise ConfigError(f"--forcing {typed}: {e}") from None
    traj = integrate(spec, Stencil(seed.xs[:n], seed.ys[:n]), args.steps)
    write_trajectory_csv(args.out, traj)
    print(f"wrote {len(traj)} points to {args.out} (stop: {traj.stop.value})")
    return EXIT_OK


def cmd_chi(args) -> int:
    a = read_trajectory_csv(args.a)
    ys = a.ys
    if args.b in EXACT_SOLUTIONS:
        ys, ref = _pairs(a.xs, a.ys, EXACT_SOLUTIONS[args.b]().eval_fn)
        if not ys:
            raise ConfigError(f"{args.b} is singular at every abscissa of {args.a}")
        if len(ys) < len(a):
            print(f"note: {len(a) - len(ys)} of {len(a)} points left out, "
                  f"where {args.b} is singular", file=sys.stderr)
    else:
        b = read_trajectory_csv(args.b)
        for xa, xb in zip(a.xs, b.xs):
            if abs(xa - xb) > 1e-9 * max(1.0, abs(xa)):
                raise ConfigError(f"abscissa mismatch: {xa!r} vs {xb!r}")
        if len(a) != len(b):
            print(f"note: {len(a)} vs {len(b)} points, chi on the common prefix",
                  file=sys.stderr)
        ys, ref = ys[:len(b)], b.ys[:len(a)]
    value = chi(ys, ref)
    print(f"{value:.6f}" if value == 0.0 else f"{value:.6g}")
    return EXIT_OK


def cmd_limit(args) -> int:
    if not 4 <= args.levels <= MAX_STEPS:
        raise ConfigError(f"levels must be an integer from 4 to {MAX_STEPS}")
    hs = tuple(args.h0 * args.ratio ** k for k in range(args.levels))
    probe = LimitProbe(args.invariant, EXACT_SOLUTIONS[args.function]().jet_fn, args.x0, hs)
    report = probe_limit(probe)
    print(f"{'h':>12} {'value':>24} {'target':>24} {'error':>12}")
    for h, v, t, e in zip(report.hs, report.values, report.targets, report.errors):
        print(f"{h:12.4e} {v:24.16e} {t:24.16e} {e:12.4e}")
    print(f"estimated order: {report.estimated_order:.3f}")
    print(f"limit value: {report.limit_value:.16e}")
    return EXIT_OK


def _forcing(value: str) -> ForcingTerm:
    try:  # a name of FORCINGS, else a finite number: the constant
        return FORCINGS.get(value) or Constant(float(value))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{value!r} is neither a finite number nor one of {', '.join(FORCINGS)}") from None


@cache  # built once per process: each add_argument builds a help formatter
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invdisc",
        description="Projective-invariant difference schemes for ODEs")
    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, allow_abbrev=False)  # else `solve --h` reads as --help

    p = add("example", help="run one of the bundled example problems")
    p.add_argument("id", choices=list(EXAMPLES))
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--x0", type=float, default=None, help="override the start abscissa")
    p.add_argument("--out", default=None, help="directory for CSVs and summary")
    seeded = {k: ex for k, ex in EXAMPLES.items() if ex.solution is None}
    scored = [k for k, ex in seeded.items() if ex.span is not None]
    p.add_argument("--h-ref", dest="h_ref", type=float, default=None,
                   help=f"step of the RK4 run that seeds examples {' and '.join(seeded)} "
                        f"and scores example {' and '.join(scored)} (default: "
                        + ", ".join(f"{ex.h_ref:g} for example {k}" for k, ex in seeded.items())
                        + "; no effect on the others)")
    p.set_defaults(fn=cmd_example)

    p = add("solve", help="integrate a scheme from a seed file")
    p.add_argument("--scheme", choices=[k.value for k in SchemeKind], required=True)
    p.add_argument("--forcing", type=_forcing, default=Constant(0.0), help="a constant "
                   "(default 0) or one of " + ", ".join(FORCINGS) + ", if the scheme takes it")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", required=True, help="CSV file: its first rows are the "
                   "stencil, its '# h:' value (else its first spacing) the step")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_solve)

    p = add("chi", help="deviation between two trajectories")
    p.add_argument("a")
    p.add_argument("b", help="CSV path or exact-solution id "
                            f"({', '.join(EXACT_SOLUTIONS)})")
    p.set_defaults(fn=cmd_chi)

    p = add("limit", help="continuous-limit probe of one invariant")
    p.add_argument("--invariant", required=True, choices=list(_INVARIANTS))
    p.add_argument("--function", required=True, choices=list(EXACT_SOLUTIONS),
                   help="test function")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--h0", type=float, default=0.01)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--ratio", type=float, default=0.5)
    p.set_defaults(fn=cmd_limit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
