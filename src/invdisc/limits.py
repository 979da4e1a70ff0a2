"""Numeric verification of the continuous-limit relations: each difference
invariant approaches its differential target (with lattice-coefficient
corrections) as the stencil shrinks, and the convergence order is estimated
from the error decay."""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from operator import sub

from .core import Jet, Stencil, _Value
from .differential import InvariantTriple, h5_differential, jy_invariants, kx_invariants
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


def _anchor_invariants(invariant: str, jet: Jet) -> InvariantTriple | float:
    """The part of :func:`target_value` that reads the jet: its J (L-family),
    K (M-family) or product invariants."""
    if invariant[0] == "l":
        return jy_invariants(jet)
    if invariant[0] == "m":
        return kx_invariants(jet)
    return h5_differential(jet)


def _lattice_target(invariant: str, t: InvariantTriple | float,
                    xs: Sequence[float]) -> float:
    """The part of :func:`target_value` that reads the abscissae: the target
    from the anchor's invariants ``t``, with the lattice-coefficient
    corrections on xs."""
    if invariant in ("l3", "m3"):
        return t.third
    if invariant in ("l4", "m4"):
        return t.fourth
    if invariant == "l5":
        return t.fifth + w_coefficient(*xs) * t.third ** 2
    hs = [b - a for a, b in zip(xs, xs[1:])]
    if invariant == "m5":
        return t.fifth - wx_coefficient(*hs) * t.third ** 2
    factor = (hs[4] * hs[0]) / (hs[3] * hs[1])
    return factor * (t + w_coefficient(*xs))


def target_value(invariant: str, jet: Jet, xs: Sequence[float]) -> float:
    """Differential-invariant target for one stencil, including the
    lattice-coefficient corrections evaluated on the actual abscissae."""
    if invariant not in _INVARIANTS:
        raise ValueError(f"unknown invariant {invariant!r}")
    return _lattice_target(invariant, _anchor_invariants(invariant, jet), xs)


class LimitProbe(_Value):
    """One convergence experiment.

    The stencil at level k is uniform with spacing h_k, starting at
    x_center; ``h_sequence`` must be strictly decreasing with at least 4
    levels.  A ``lattice`` callable overrides the placement entirely: it
    maps h to explicit abscissae (the jet target is then taken at the first
    abscissa), and must give each level its own mean spacing.

    A probe calls ``test_function`` once per distinct abscissa (-0.0 and 0.0
    are two) and reuses the jet where a level repeats it: it must be deterministic.
    Each level builds one Stencil, which checks its points (finite, else
    NonFiniteError; strictly monotone abscissae, else ValueError), and calls
    the public evaluator on it.  Without a ``target_fn``, the anchor jet's
    differential invariants are computed once per distinct anchor jet, so
    once for a uniform probe, and each level adds only its lattice correction.
    """

    _fields = ("invariant", "test_function", "x_center", "h_sequence", "lattice", "target_fn")

    def __init__(self, invariant: str, test_function: Callable[[float], Jet], x_center: float,
                 h_sequence: Iterable[float],
                 lattice: Callable[[float], Sequence[float]] | None = None,
                 target_fn: Callable[[Jet, Sequence[float]], float] | None = None):
        if invariant not in _INVARIANTS:
            raise ValueError(f"unknown invariant {invariant!r}")
        hs = tuple(float(h) for h in h_sequence)
        if not (len(hs) >= 4 and all(map(math.isfinite, hs))
                and all(b < a for a, b in zip(hs, hs[1:]))):
            raise ValueError("h_sequence must be finite, strictly decreasing, >= 4 levels")
        self.__dict__.update(invariant=invariant, test_function=test_function, x_center=x_center,
                             h_sequence=hs, lattice=lattice, target_fn=target_fn)


class LimitReport(_Value):
    """Per-level errors, fitted order, and the finest clean estimate;
    ``floor_level`` is the first level hit by the roundoff floor, len(hs) if none."""

    _fields = ("hs", "values", "errors", "targets", "estimated_order", "limit_value",
               "floor_level")

    def __init__(self, hs: tuple[float, ...], values: tuple[float, ...],
                 errors: tuple[float, ...], targets: tuple[float, ...], estimated_order: float,
                 limit_value: float, floor_level: int):
        self.__dict__.update(hs=hs, values=values, errors=errors, targets=targets,
                             estimated_order=estimated_order, limit_value=limit_value,
                             floor_level=floor_level)


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
    convergence order on the levels before the roundoff floor.

    A level pays for its new jets, one Stencil and one call of the public
    evaluator; the anchor's differential invariants are computed once per
    distinct anchor jet (see :class:`LimitProbe`).  Each target is the one
    :func:`target_value` gives."""
    npts, evaluate = _INVARIANTS[p.invariant]
    values, errors, targets, mean_hs = [], [], [], []
    memo = {}  # abscissa -> jet; 0.0 is keyed by its repr, to keep -0.0 apart
    anchors = {}  # id of an anchor jet (kept alive by memo) -> its invariants

    def jet(x):
        key = x if x else repr(x)
        j = memo.get(key)
        if j is None:
            j = memo[key] = p.test_function(x)
        return j

    for h in p.h_sequence:
        xs = _abscissae(p, h, npts)
        mean_h = sum(map(abs, map(sub, xs[1:], xs))) / (npts - 1)
        if mean_h in mean_hs:  # the order fit needs distinct spacings
            raise ValueError(f"mean spacing {mean_h!r} at h = {h!r} repeats an earlier level's")
        mean_hs.append(mean_h)
        jets = [jet(x) for x in xs]
        value = evaluate(Stencil(xs, [j.d[0] for j in jets]))
        if p.target_fn is not None:
            target = p.target_fn(jets[0], xs)
        else:
            t = anchors.get(id(jets[0]))
            if t is None:
                t = anchors[id(jets[0])] = _anchor_invariants(p.invariant, jets[0])
            target = _lattice_target(p.invariant, t, xs)
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
