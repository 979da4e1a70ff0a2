"""Numeric verification of the continuous-limit relations: each difference
invariant approaches its differential target (with lattice-coefficient
corrections) as the stencil shrinks, and the convergence order is estimated
from the error decay."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import Jet, Stencil
from .differential import h5_differential, jy_invariants, kx_invariants
from .discrete import (h5_discrete, l3, l4, l5, m3, m4, m5, w_coefficient,
                       wx_coefficient)

#: discrete invariant -> (stencil length, evaluator)
_INVARIANTS = {
    "l3": (4, l3),
    "l4": (5, l4),
    "l5": (6, l5),
    "m3": (4, m3),
    "m4": (5, m4),
    "m5": (6, m5),
    "h5": (6, h5_discrete),
}


def target_value(invariant: str, jet: Jet, xs: Sequence[float]) -> float:
    """Differential-invariant target for one stencil, including the
    lattice-coefficient corrections evaluated on the actual abscissae."""
    if invariant in ("l3", "l4", "l5"):
        t = jy_invariants(jet)
        if invariant == "l3":
            return t.third
        if invariant == "l4":
            return t.fourth
        return t.fifth + w_coefficient(*xs) * t.third ** 2
    if invariant in ("m3", "m4", "m5"):
        t = kx_invariants(jet)
        if invariant == "m3":
            return t.third
        if invariant == "m4":
            return t.fourth
        hs = [b - a for a, b in zip(xs, xs[1:])]
        return t.fifth - wx_coefficient(*hs) * t.third ** 2
    if invariant == "h5":
        hs = [b - a for a, b in zip(xs, xs[1:])]
        factor = (hs[4] * hs[0]) / (hs[3] * hs[1])
        return factor * (h5_differential(jet) + w_coefficient(*xs))
    raise ValueError(f"unknown invariant {invariant!r}")


@dataclass(frozen=True)
class LimitProbe:
    """One convergence experiment.

    The stencil at level k is uniform with spacing h_k, starting at
    x_center; ``h_sequence`` must be strictly decreasing with at least 4
    levels.  A ``lattice`` callable overrides the placement entirely: it
    maps h to explicit abscissae (the jet target is then taken at the first
    abscissa), and must give each level its own mean spacing.

    A probe calls ``test_function`` once per distinct abscissa (-0.0 and 0.0
    are two) and reuses the jet where a level repeats it: it must be deterministic.
    """

    invariant: str
    test_function: Callable[[float], Jet]
    x_center: float
    h_sequence: tuple[float, ...]
    lattice: Callable[[float], Sequence[float]] | None = None
    target_fn: Callable[[Jet, Sequence[float]], float] | None = None

    def __post_init__(self):
        if self.invariant not in _INVARIANTS:
            raise ValueError(f"unknown invariant {self.invariant!r}")
        hs = tuple(float(h) for h in self.h_sequence)
        object.__setattr__(self, "h_sequence", hs)
        if not (len(hs) >= 4 and all(map(math.isfinite, hs))
                and all(b < a for a, b in zip(hs, hs[1:]))):
            raise ValueError("h_sequence must be finite, strictly decreasing, >= 4 levels")


@dataclass(frozen=True)
class LimitReport:
    """Per-level errors, fitted order, and the finest clean estimate."""

    hs: tuple[float, ...]
    values: tuple[float, ...]
    errors: tuple[float, ...]
    targets: tuple[float, ...]
    estimated_order: float
    limit_value: float
    floor_level: int  # first level hit by the roundoff floor; len(hs) if none


def _abscissae(p: LimitProbe, h: float, npts: int) -> list[float]:
    if p.lattice is not None:
        xs = [float(v) for v in p.lattice(h)]
        if len(xs) != npts:
            raise ValueError(f"lattice callable returned {len(xs)} abscissae, need {npts}")
        return xs
    xs = [p.x_center]
    for _ in range(npts - 1):
        xs.append(xs[-1] + h)
    return xs


def probe_limit(p: LimitProbe) -> LimitReport:
    """Evaluate the invariant across the shrinking stencils and fit the
    convergence order on the levels before the roundoff floor."""
    npts, evaluate = _INVARIANTS[p.invariant]
    values, errors, targets, mean_hs = [], [], [], []
    memo = {}  # abscissa -> jet; 0.0 is keyed by its repr, to keep -0.0 apart

    def jet(x):
        key = x if x else repr(x)
        j = memo.get(key)
        if j is None:
            j = memo[key] = p.test_function(x)
        return j

    for h in p.h_sequence:
        xs = _abscissae(p, h, npts)
        mean_h = sum(abs(b - a) for a, b in zip(xs, xs[1:])) / (npts - 1)
        if mean_h in mean_hs:  # the order fit needs distinct spacings
            raise ValueError(f"mean spacing {mean_h!r} at h = {h!r} repeats an earlier level's")
        mean_hs.append(mean_h)
        jets = [jet(x) for x in xs]
        stencil = Stencil(xs, [j.d[0] for j in jets])
        value = evaluate(stencil)
        target = (p.target_fn(jets[0], xs) if p.target_fn is not None
                  else target_value(p.invariant, jets[0], xs))
        values.append(value)
        targets.append(target)
        errors.append(abs(value - target))
    # roundoff floor: first level whose error stops decreasing
    floor = next((i for i in range(1, len(errors)) if errors[i] >= errors[i - 1]),
                 len(errors))
    clean = max(floor, 2)
    # least-squares slope of log error against log h
    us = [math.log(h) for h in mean_hs[:clean]]
    vs = [math.log(max(e, 1e-300)) for e in errors[:clean]]
    mu, mv = sum(us) / len(us), sum(vs) / len(vs)
    slope = (sum((u - mu) * (v - mv) for u, v in zip(us, vs))
             / sum((u - mu) ** 2 for u in us))
    return LimitReport(
        hs=tuple(mean_hs), values=tuple(values), errors=tuple(errors),
        targets=tuple(targets), estimated_order=slope,
        limit_value=values[clean - 1], floor_level=floor)
