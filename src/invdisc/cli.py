"""Command-line front end: run the bundled example problems, custom
integrations from seed files, deviation estimates between trajectories, and
continuous-limit probes.  Trajectories are exchanged as small CSV files
with '#'-prefixed metadata lines."""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Callable

from .core import (Constant, DegenerateCoefficientError, DomainError,
                   ForcingTerm, FunctionOfX, IdentityInY, Jet, NonFiniteError,
                   Point, RhsEvalPolicy, RootPolicy, RootSelection, SchemeKind,
                   SchemeSpec, Stencil, StopReason, Trajectory, Uniform,
                   seed_stencil_from_function)
from .discrete import _cross_ratio
from .limits import LimitProbe, probe_limit
from .reference import (EXACT_SOLUTIONS, ExactSolution, OdeSystem,
                        arctanh_solution, chi, fifth_order_invariant_system,
                        log_abs, one_over_one_minus_exp, rk4_integrate,
                        scaled_schwarzian_system, schwarzian_rate_system,
                        tan_reciprocal)
from .schemes import integrate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

TAN_RECIPROCAL_POLE = 2.0 / (5.0 * math.pi)

#: named right-hand sides usable as --forcing for the fourth-order scheme
NAMED_FORCINGS = {
    "cos": math.cos,
    "sin": math.sin,
    "zero": lambda x: 0.0,
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
    lines += [f"{_fmt(p.x)},{_fmt(p.y)}" for p in traj.points]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path) -> Trajectory:
    meta = {"scheme": "unknown", "h": "0", "stop": StopReason.COMPLETED.value}
    pts = []
    header_seen = False
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != "x,y":
                raise ConfigError(f"{path}: expected header 'x,y', got {line!r}")
            header_seen = True
            continue
        sx, _, sy = line.partition(",")
        pts.append(Point(float(sx), float(sy)))
    if not pts:
        raise ConfigError(f"{path}: no data rows")
    return Trajectory(tuple(pts), StopReason(meta["stop"]), meta["scheme"],
                      float(meta["h"]))


def _seed_from_csv(path, arity: int) -> Stencil:
    traj = read_trajectory_csv(path)
    if len(traj.points) < arity:
        raise ConfigError(f"{path}: need at least {arity} rows, got {len(traj.points)}")
    return Stencil(traj.points[:arity])


# --- run configuration for `solve` ---------------------------------------------

@dataclass
class RunConfig:
    """Flat key=value configuration; command-line flags override file values."""

    scheme: str = ""
    forcing: str = ""
    c: float | None = None
    h: float | None = None
    steps: int | None = None
    rhs_eval: str = "new-point"
    root_policy: str = "nearest"
    seed: str = ""
    out: str = ""

    _FIELD_TYPES = {"scheme": str, "forcing": str, "c": float, "h": float,
                    "steps": int, "rhs_eval": str, "root_policy": str,
                    "seed": str, "out": str}

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        cfg = cls()
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key = key.strip().replace("-", "_")
            if key not in cls._FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            setattr(cfg, key, cls._FIELD_TYPES[key](value.strip()))
        return cfg

    def to_file(self, path) -> None:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v not in ("", None):
                lines.append(f"{f.name.replace('_', '-')} = {v}")
        Path(path).write_text("\n".join(lines) + "\n")

    def override(self, **kwargs) -> "RunConfig":
        for key, value in kwargs.items():
            if value is not None:
                setattr(self, key, value)
        return self

    def build_spec(self) -> SchemeSpec:
        try:
            kind = SchemeKind(self.scheme)
        except ValueError:
            raise ConfigError(f"unknown scheme {self.scheme!r}") from None
        if self.h is None or self.h == 0:
            raise ConfigError("h must be set and nonzero")
        forcing = self.forcing or ("const" if kind is not SchemeKind.SLY4 else "")
        if forcing == "const":
            term = Constant(self.c if self.c is not None else 0.0)
        elif forcing == "y":
            term = IdentityInY()
        elif forcing in NAMED_FORCINGS:
            term = FunctionOfX(NAMED_FORCINGS[forcing], forcing)
        else:
            raise ConfigError(f"unknown forcing {self.forcing!r}")
        try:
            rhs = RhsEvalPolicy(self.rhs_eval)
            sel = {"nearest": RootSelection.NEAREST_TO_PREDICTION,
                   "smallest": RootSelection.SMALLEST_REAL,
                   "largest": RootSelection.LARGEST_REAL}[self.root_policy]
        except (ValueError, KeyError):
            raise ConfigError("invalid rhs-eval or root-policy") from None
        try:
            return SchemeSpec(kind, term, Uniform(self.h), RootPolicy(sel), rhs)
        except ValueError as e:
            raise ConfigError(str(e)) from None


# --- paper examples -------------------------------------------------------------

@dataclass(frozen=True)
class Example:
    """One paper experiment, run by :func:`run_example`.  The seed samples
    ``solution`` or, without one, strides a fine RK4 run of ``system`` from
    ``init`` over ``span`` (default: the seed only).  The RK4 baseline runs
    ``system`` from ``init`` (default: the solution's jet at x0) over the
    run's lattice, or on ``baseline_grid(h, x0, lattice_steps)``."""

    scheme: SchemeKind
    forcing: ForcingTerm
    h: float
    x0: float
    steps: Callable[[float, float], int]  # default step count from (h, x0)
    system: OdeSystem
    summarize: Callable[["ExampleRun"], dict]  # label -> value
    solution: ExactSolution | None = None
    init: tuple[float, ...] | None = None
    span: float | None = None
    baseline_grid: Callable[[float, float, int], tuple[float, int]] | None = None


@dataclass
class ExampleRun:
    """One run of a paper example.  The RK4 baseline and the summary are
    computed on first use; ``summary`` maps each label to its value, and
    floats print with six significant digits."""

    id: str
    h: float
    x0: float
    lattice_steps: int  # from x0 to the last point the run was asked for
    init: tuple[float, ...]  # RK4 initial values
    inv: Trajectory
    ref: Trajectory | None  # the fine reference the seed came from, if any
    stride: int

    @property
    def example(self) -> Example:
        return EXAMPLES[self.id]

    @cached_property
    def base(self) -> Trajectory:
        ex = self.example
        h_base, n_base = (ex.baseline_grid(self.h, self.x0, self.lattice_steps)
                          if ex.baseline_grid else (self.h, self.lattice_steps))
        return rk4_integrate(ex.system, self.init, self.x0, h_base, n_base)

    @cached_property
    def summary(self) -> dict:
        return {"example": self.id, **self.example.summarize(self)}

    @property
    def lines(self) -> list[str]:
        return [f"{k}: {v:.6g}" if isinstance(v, float) else f"{k}: {v}"
                for k, v in self.summary.items()]


def run_example(example_id: str, h: float | None = None, steps: int | None = None,
                out_dir: Path | None = None, h_ref: float = 1e-5,
                x0: float | None = None, ref: Trajectory | None = None) -> ExampleRun:
    """Run one entry of :data:`EXAMPLES`; options left as None take its
    defaults.  With ``out_dir`` the invariant and baseline trajectories and
    the summary are written there.  ``ref`` reuses the fine reference of an
    earlier run of the same example at the same x0 and h_ref."""
    ex = EXAMPLES[example_id]
    h = ex.h if h is None else h
    x0 = ex.x0 if x0 is None else x0
    if not (h != 0 and math.isfinite(h) and math.isfinite(x0)):
        raise ConfigError("h must be finite and nonzero, x0 finite")
    if not h_ref > 0:
        raise ConfigError("h-ref must be positive")
    steps = ex.steps(h, x0) if steps is None else steps
    if steps < 1:
        raise ConfigError("steps must be a positive integer")
    spec = SchemeSpec(ex.scheme, ex.forcing, Uniform(h))
    init = ex.init if ex.init is not None else ex.solution.jet_fn(x0).d[:ex.system.order]
    stride = 1
    if ex.solution is not None:
        seed = seed_stencil_from_function(ex.solution.eval_fn, x0, h, spec.arity)
    else:
        stride = round(h / h_ref)
        if stride < 1 or abs(stride * h_ref - h) > 1e-12 * abs(h):
            raise ConfigError("h must be a positive integer multiple of h-ref")
        if ref is None:
            n_ref = (round((x0 + ex.span - x0) / h_ref) if ex.span is not None
                     else (spec.arity - 1) * stride)
            ref = rk4_integrate(ex.system, init, x0, h_ref, n_ref)
        if len(ref.points) <= (spec.arity - 1) * stride:
            raise ConfigError(
                f"the fine reference stopped ({ref.stop.value}) before the seed")
        seed = Stencil(tuple(ref.points[k * stride] for k in range(spec.arity)))
    run = ExampleRun(example_id, h, x0, steps + spec.arity - 1, init,
                     integrate(spec, seed, steps), ref, stride)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(out_dir / "invariant.csv", run.inv)
        write_trajectory_csv(out_dir / "baseline.csv", run.base)
        (out_dir / "summary.txt").write_text("\n".join(run.lines) + "\n")
    return run


def _chi_against_exact(run: ExampleRun, x_max: float = math.inf) -> float:
    """chi of the invariant run against the exact solution where that is
    defined and x <= x_max; NaN when no point qualifies."""
    cand, ref = [], []
    for p in run.inv.points:
        if not p.x <= x_max:
            continue
        try:
            ref.append(run.example.solution.eval_fn(p.x))
        except DomainError:
            continue
        cand.append(p.y)
    return chi(cand, ref) if cand else math.nan


def _stops(run: ExampleRun) -> dict:
    return {"invariant stop": run.inv.stop.value,
            "invariant last x": _fmt(run.inv.points[-1].x),
            "baseline stop": run.base.stop.value,
            "baseline last x": _fmt(run.base.points[-1].x)}


def _summary_forced(run: ExampleRun) -> dict:
    end = run.inv.points[-1]
    # over the lattice points the reference covers
    n = min(len(run.inv.points), (len(run.ref.points) - 1) // run.stride + 1)
    ref_at_lattice = [run.ref.points[k * run.stride].y for k in range(n)]
    return {"invariant stop": run.inv.stop.value,
            "baseline stop": run.base.stop.value,
            "invariant endpoint": f"x = {_fmt(end.x)}, y = {_fmt(end.y)}",
            "chi vs fine reference": chi(run.inv.ys[:n], ref_at_lattice)}


def _summary_constant_source(run: ExampleRun) -> dict:
    return {**_stops(run), "chi vs exact": _chi_against_exact(run)}


def _summary_state_source(run: ExampleRun) -> dict:
    n = min(len(run.inv.points), len(run.base.points))
    return {**_stops(run),
            "chi vs baseline (common prefix)": chi(run.inv.ys[:n], run.base.ys[:n])}


def _summary_exact_discrete(run: ExampleRun) -> dict:
    devs = []
    for p in run.inv.points:
        try:
            devs.append(abs(p.y - run.example.solution.eval_fn(p.x)))
        except DomainError:
            continue  # the lattice can land on the pole itself
    rho = 2.0 + math.exp(run.h) + math.exp(-run.h)
    ys = run.inv.ys
    r_dev = max(abs(_cross_ratio(*ys[k:k + 4]) - rho) for k in range(len(ys) - 3))
    stops = _stops(run)
    del stops["baseline last x"]
    return {**stops,
            "max deviation from exact": max(devs),
            "max cross-ratio deviation": r_dev,
            "exact discrete solution": "yes" if max(devs) <= 1e-9 else "no",
            "chi vs exact": _chi_against_exact(run)}


def _summary_beyond_pole(run: ExampleRun) -> dict:
    beyond = run.inv.points[-1].x > TAN_RECIPROCAL_POLE
    return {"invariant stop": run.inv.stop.value,
            "invariant last x": _fmt(run.inv.points[-1].x),
            "first pole": _fmt(TAN_RECIPROCAL_POLE),
            "beyond singularity": "yes" if beyond else "no",
            "baseline stop": run.base.stop.value,
            "baseline last x": _fmt(run.base.points[-1].x),
            "chi vs exact before pole": _chi_against_exact(
                run, x_max=TAN_RECIPROCAL_POLE - 2 * run.h)}


def _grid_past_pole(h: float, x0: float, lattice_steps: int) -> tuple[float, int]:
    # fixed-step RK4 with a coarse step can hop the pole on garbage values;
    # 1e-5 keeps the blow-up on the near side
    h_base = min(h, 1e-5)
    return h_base, round(2.0 * (TAN_RECIPROCAL_POLE - x0) / h_base)


#: the paper's six runs, by example id
EXAMPLES: dict[str, Example] = {
    "1": Example(SchemeKind.SLY4, FunctionOfX(math.cos, "cos"), h=0.01, x0=1.0,
                 # x0 + 1.5 - x0, not 1.5: the run ends where the reference does
                 steps=lambda h, x0: round((x0 + 1.5 - x0) / h) - 3,
                 system=schwarzian_rate_system(math.cos), summarize=_summary_forced,
                 init=(1.0, -1.0, -2.5, 5.0), span=1.5),
    "2-log": Example(SchemeKind.SLX3, Constant(0.5), h=1e-4, x0=-1.0,
                     steps=lambda h, x0: round(1.05 * abs(x0) / abs(h)),
                     system=scaled_schwarzian_system(lambda x, y: 0.5),
                     summarize=_summary_constant_source, solution=log_abs()),
    "2-arctanh": Example(SchemeKind.SLX3, Constant(2.0), h=0.01, x0=-0.9,
                         steps=lambda h, x0: round(1.8 / abs(h)) - 2,
                         system=scaled_schwarzian_system(lambda x, y: 2.0),
                         summarize=_summary_constant_source,
                         solution=arctanh_solution()),
    "3": Example(SchemeKind.SLX3, IdentityInY(), h=0.001, x0=0.0,
                 steps=lambda h, x0: round(0.3 / h),
                 system=scaled_schwarzian_system(lambda x, y: y),
                 summarize=_summary_state_source, init=(10.0, -1.0, -10.0)),
    "4": Example(SchemeKind.H5, Constant(0.0), h=0.1, x0=-1.0,
                 steps=lambda h, x0: 40, system=fifth_order_invariant_system(0.0),
                 summarize=_summary_exact_discrete, solution=one_over_one_minus_exp()),
    "5": Example(SchemeKind.H5, Constant(0.0), h=0.001, x0=0.1,
                 steps=lambda h, x0: 60, system=fifth_order_invariant_system(0.0),
                 summarize=_summary_beyond_pole, solution=tan_reciprocal(),
                 baseline_grid=_grid_past_pole),
}


# --- subcommand drivers ----------------------------------------------------------

def cmd_example(args) -> int:
    out_dir = Path(args.out) if args.out else None
    run = run_example(args.id, args.h, args.steps, out_dir, args.h_ref, args.x0)
    print("\n".join(run.lines))
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg.override(scheme=args.scheme, forcing=args.forcing, c=args.c, h=args.h,
                 steps=args.steps, rhs_eval=args.rhs_eval,
                 root_policy=args.root_policy, seed=args.seed, out=args.out)
    if not cfg.seed:
        raise ConfigError("a seed file is required")
    if not cfg.out:
        raise ConfigError("an output path is required")
    if cfg.steps is None or cfg.steps < 1:
        raise ConfigError("steps must be a positive integer")
    spec = cfg.build_spec()
    seed = _seed_from_csv(cfg.seed, spec.arity)
    traj = integrate(spec, seed, cfg.steps)
    write_trajectory_csv(cfg.out, traj)
    print(f"wrote {len(traj.points)} points to {cfg.out} (stop: {traj.stop.value})")
    return EXIT_OK


def cmd_chi(args) -> int:
    a = read_trajectory_csv(args.a)
    if args.b in EXACT_SOLUTIONS:
        sol = EXACT_SOLUTIONS[args.b]()
        try:
            ref = [sol.eval_fn(p.x) for p in a.points]
        except DomainError as e:
            raise ConfigError(f"exact solution undefined on the trajectory: {e}") from None
    else:
        b = read_trajectory_csv(args.b)
        if len(b.points) != len(a.points):
            raise ConfigError(f"length mismatch: {len(a.points)} vs {len(b.points)}")
        ref = list(b.ys)
    value = chi(a, ref)
    print(f"{value:.6f}" if value == 0.0 else f"{value:.6g}")
    return EXIT_OK


def _jet_function(name: str):
    if name == "exp":
        return lambda x: Jet(x, (math.exp(x),) * 6)
    if name in EXACT_SOLUTIONS:
        sol = EXACT_SOLUTIONS[name]()
        return sol.jet_fn
    raise ConfigError(f"unknown test function {name!r}")


def cmd_limit(args) -> int:
    hs = tuple(args.h0 * args.ratio ** k for k in range(args.levels))
    probe = LimitProbe(args.invariant, _jet_function(args.function), args.x0, hs)
    report = probe_limit(probe)
    print(f"{'h':>12} {'value':>24} {'target':>24} {'error':>12}")
    for h, v, t, e in zip(report.hs, report.values, report.targets, report.errors):
        print(f"{h:12.4e} {v:24.16e} {t:24.16e} {e:12.4e}")
    print(f"estimated order: {report.estimated_order:.3f}")
    print(f"limit value: {report.limit_value:.16e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invdisc",
        description="Projective-invariant difference schemes for ODEs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="run one of the bundled example problems")
    p.add_argument("id", choices=list(EXAMPLES))
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--x0", type=float, default=None, help="override the start abscissa")
    p.add_argument("--out", default=None, help="directory for CSVs and summary")
    p.add_argument("--h-ref", dest="h_ref", type=float, default=1e-5,
                   help="step of the seeding/reference RK4 run")
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("solve", help="integrate a scheme from a seed file")
    p.add_argument("--config", default=None, help="key = value configuration file")
    p.add_argument("--scheme", choices=[k.value for k in SchemeKind], default=None)
    p.add_argument("--forcing", default=None,
                   help="const, y, or a named function of x (cos, sin, zero)")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--rhs-eval", dest="rhs_eval",
                   choices=[v.value for v in RhsEvalPolicy], default=None)
    p.add_argument("--root-policy", dest="root_policy",
                   choices=["nearest", "smallest", "largest"], default=None)
    p.add_argument("--seed", default=None, help="CSV file; first rows feed the stencil")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("chi", help="deviation between two trajectories")
    p.add_argument("a")
    p.add_argument("b", help="CSV path or exact-solution id "
                            f"({', '.join(EXACT_SOLUTIONS)})")
    p.set_defaults(fn=cmd_chi)

    p = sub.add_parser("limit", help="continuous-limit probe of one invariant")
    p.add_argument("--invariant", required=True,
                   choices=["l3", "l4", "l5", "m3", "m4", "m5", "h5"])
    p.add_argument("--function", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--h0", type=float, default=0.01)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--ratio", type=float, default=0.5)
    p.set_defaults(fn=cmd_limit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, DegenerateCoefficientError, NonFiniteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
