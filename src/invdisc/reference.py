"""Non-invariant baseline and exact-solution oracles.

Classical fixed-step fourth-order Runge-Kutta on the first-order system
equivalent serves as the "standard method"; the exact solutions carry
closed-form jets through order five and are used both for seeding schemes
and as accuracy oracles.  ``chi`` is the global deviation estimator used
throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (DegenerateCoefficientError, DomainError, Jet,
                   OVERFLOW_LIMIT, Point, StopReason, Trajectory)
from .differential import compose_jet


@dataclass(frozen=True)
class OdeSystem:
    """Explicit ODE y^(order) = rhs(x, (y, y', ..., y^(order-1)))."""

    order: int
    rhs: Callable[[float, tuple[float, ...]], float]
    name: str = "ode"

    def __post_init__(self):
        if not 3 <= self.order <= 5:
            raise ValueError("order must be 3..5")


def schwarzian_rate_system(forcing: Callable[[float], float]) -> OdeSystem:
    """Fourth-order equation: the x-derivative of the Schwarzian equals f(x)."""

    def rhs(x, u):
        _, y1, y2, y3 = u
        return y1 * forcing(x) + 4.0 * y2 * y3 / y1 - 3.0 * y2 ** 3 / y1 ** 2

    return OdeSystem(4, rhs, "schwarzian-rate")


def scaled_schwarzian_system(source: Callable[[float, float], float]) -> OdeSystem:
    """Third-order equation: Schwarzian / y'^2 = source(x, y)."""

    def rhs(x, u):
        y0, y1, y2 = u
        return source(x, y0) * y1 ** 3 + 1.5 * y2 ** 2 / y1

    return OdeSystem(3, rhs, "scaled-schwarzian")


def fifth_order_invariant_system(c: float) -> OdeSystem:
    """Fifth-order equation fixing the product-group invariant to c."""

    def rhs(x, u):
        _, y1, y2, y3, y4 = u
        den = y1 ** 3 * (2.0 * y1 * y3 - 3.0 * y2 ** 2)
        num = (2.5 * y1 ** 4 * y4 ** 2 - 10.0 * y1 ** 3 * y2 * y3 * y4
               + 2.0 * (c + 4.0) * y1 ** 3 * y3 ** 3
               - 2.25 * (c + 2.0 / 3.0) * (4.0 * y1 ** 2 * y2 ** 2 * y3 ** 2
                                           - 6.0 * y1 * y2 ** 4 * y3 + 3.0 * y2 ** 6))
        return num / den

    return OdeSystem(5, rhs, "fifth-order-invariant")


def rk4_integrate(sys: OdeSystem, init: Sequence[float], x0: float, h: float,
                  n: int) -> Trajectory:
    """Classic fixed-step RK4 on the first-order system equivalent.

    Stops with NON_FINITE on blow-up (expected at solution singularities);
    otherwise returns n+1 points including the initial one.
    """
    if len(init) != sys.order:
        raise ValueError(f"init needs {sys.order} values, got {len(init)}")
    if h == 0:
        raise ValueError("h must be nonzero")
    rhs = sys.rhs
    m = sys.order - 1

    def deriv(x, u):
        return (*u[1:], rhs(x, u))

    u = tuple(float(v) for v in init)
    points = [Point(x0, u[0])]
    stop = StopReason.COMPLETED
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(n):
        x = x0 + k * h
        try:
            k1 = deriv(x, u)
            k2 = deriv(x + half, tuple(u[i] + half * k1[i] for i in range(m + 1)))
            k3 = deriv(x + half, tuple(u[i] + half * k2[i] for i in range(m + 1)))
            k4 = deriv(x + h, tuple(u[i] + h * k3[i] for i in range(m + 1)))
            u_new = tuple(u[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
                          for i in range(m + 1))
        except (ZeroDivisionError, OverflowError):
            stop = StopReason.NON_FINITE
            break
        if not all(math.isfinite(v) and abs(v) <= OVERFLOW_LIMIT for v in u_new):
            stop = StopReason.NON_FINITE
            break
        u = u_new
        points.append(Point(x0 + (k + 1) * h, u[0]))
    return Trajectory(tuple(points), stop, f"rk4-{sys.name}", h)


# --- exact solutions ----------------------------------------------------------

@dataclass(frozen=True)
class ExactSolution:
    """Closed-form solution with value and jet evaluators."""

    id: str
    eval_fn: Callable[[float], float]
    jet_fn: Callable[[float], Jet]


def _log_abs_jet(x: float) -> Jet:
    if x == 0.0:
        raise DomainError("log|x| is singular at 0")
    return Jet(x, (math.log(abs(x)), 1.0 / x, -1.0 / x ** 2, 2.0 / x ** 3,
                   -6.0 / x ** 4, 24.0 / x ** 5))


def _arctanh_outer(u: float) -> tuple[float, ...]:
    if abs(u) >= 1.0:
        raise DomainError(f"arctanh undefined at {u}")
    g = 1.0 - u * u
    return (math.atanh(u),
            1.0 / g,
            2.0 * u / g ** 2,
            (2.0 + 6.0 * u * u) / g ** 3,
            24.0 * u * (1.0 + u * u) / g ** 4,
            (24.0 + 240.0 * u * u + 120.0 * u ** 4) / g ** 5)


def _arctanh_jet(x: float) -> Jet:
    return Jet(x, _arctanh_outer(x))


def _one_over_one_minus_exp_jet(x: float) -> Jet:
    if x == 0.0:
        raise DomainError("1/(1 - e^x) is singular at 0")
    s = math.exp(x)
    d = 1.0 - s
    # numerator polynomials follow the Eulerian-number pattern
    return Jet(x, (1.0 / d,
                   s / d ** 2,
                   s * (1.0 + s) / d ** 3,
                   s * (1.0 + 4.0 * s + s * s) / d ** 4,
                   s * (1.0 + 11.0 * s + 11.0 * s ** 2 + s ** 3) / d ** 5,
                   s * (1.0 + 26.0 * s + 66.0 * s ** 2 + 26.0 * s ** 3 + s ** 4) / d ** 6))


def _tan_outer(u: float) -> tuple[float, ...]:
    t = math.tan(u)
    w = 1.0 + t * t
    return (t,
            w,
            2.0 * t * w,
            w * (2.0 * w + 4.0 * t * t),
            t * w * (16.0 * w + 8.0 * t * t),
            w * (16.0 * w ** 2 + 88.0 * t * t * w + 16.0 * t ** 4))


def _reciprocal_jet(x: float) -> Jet:
    if x == 0.0:
        raise DomainError("1/x is singular at 0")
    return Jet(x, (1.0 / x, -1.0 / x ** 2, 2.0 / x ** 3, -6.0 / x ** 4,
                   24.0 / x ** 5, -120.0 / x ** 6))


def _tan_reciprocal_jet(x: float) -> Jet:
    inner = _reciprocal_jet(x)
    return compose_jet(_tan_outer(inner.d[0]), inner)


def log_abs() -> ExactSolution:
    """y = log|x|; solves the third-order equation with source 1/2."""
    def ev(x):
        if x == 0.0:
            raise DomainError("log|x| is singular at 0")
        return math.log(abs(x))
    return ExactSolution("log-abs", ev, _log_abs_jet)


def arctanh_solution() -> ExactSolution:
    """y = arctanh(x); solves the third-order equation with source 2."""
    def ev(x):
        if abs(x) >= 1.0:
            raise DomainError(f"arctanh undefined at {x}")
        return math.atanh(x)
    return ExactSolution("arctanh", ev, _arctanh_jet)


def one_over_one_minus_exp() -> ExactSolution:
    """y = 1/(1 - e^x); product-invariant solution with c = 0."""
    def ev(x):
        if x == 0.0:
            raise DomainError("1/(1 - e^x) is singular at 0")
        d = 1.0 - math.exp(x)
        if d == 0.0:
            raise DomainError("1/(1 - e^x) is singular here")
        return 1.0 / d
    return ExactSolution("one-over-one-minus-exp", ev, _one_over_one_minus_exp_jet)


def tan_reciprocal() -> ExactSolution:
    """y = tan(1/x); product-invariant solution with c = 0, poles at
    x = 2/((2m+1) pi)."""
    def ev(x):
        if x == 0.0:
            raise DomainError("tan(1/x) is singular at 0")
        return math.tan(1.0 / x)
    return ExactSolution("tan-reciprocal", ev, _tan_reciprocal_jet)


def general_arctanh(c1: float, c2: float, c3: float, c: float) -> ExactSolution:
    """y = c3 + sqrt(2/c) * arctanh(c1*x + c2); general solution of the
    third-order equation with constant source c > 0."""
    if c <= 0:
        raise ValueError("c must be positive")
    amp = math.sqrt(2.0 / c)

    def ev(x):
        u = c1 * x + c2
        if abs(u) >= 1.0:
            raise DomainError(f"arctanh undefined at {u}")
        return c3 + amp * math.atanh(u)

    def jet(x):
        u = c1 * x + c2
        outer = _arctanh_outer(u)
        ds = [c3 + amp * outer[0]]
        ds += [amp * outer[k] * c1 ** k for k in range(1, 6)]
        return Jet(x, tuple(ds))

    return ExactSolution("general-arctanh", ev, jet)


EXACT_SOLUTIONS: dict[str, Callable[[], ExactSolution]] = {
    "log-abs": log_abs,
    "arctanh": arctanh_solution,
    "one-over-one-minus-exp": one_over_one_minus_exp,
    "tan-reciprocal": tan_reciprocal,
}


def chi(candidate: Trajectory | Sequence[float], reference: Sequence[float]) -> float:
    """Root of the ratio of summed squared deviations to summed squared
    reference values."""
    ys = candidate.ys if isinstance(candidate, Trajectory) else tuple(candidate)
    if len(ys) != len(reference):
        raise ValueError(f"length mismatch: {len(ys)} vs {len(reference)}")
    if len(ys) == 0:
        raise ValueError("chi needs at least one point")
    cand = np.asarray(ys, dtype=float)
    ref = np.asarray(reference, dtype=float)
    denom = float(np.sum(ref * ref))
    if denom == 0.0:
        raise DegenerateCoefficientError("reference is identically zero")
    return float(np.sqrt(np.sum((cand - ref) ** 2) / denom))
