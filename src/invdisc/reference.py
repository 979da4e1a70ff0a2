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

from .core import (DegenerateCoefficientError, DomainError, Jet, NonFiniteError,
                   OVERFLOW_LIMIT, StopReason, Trajectory)
from .differential import compose_jet


@dataclass(frozen=True)
class OdeSystem:
    """Explicit ODE y^(order) = rhs(x, y, y', ..., y^(order-1)): ``rhs``
    takes the abscissa and the state as separate floats."""

    order: int
    rhs: Callable[..., float]
    name: str = "ode"

    def __post_init__(self):
        if not 3 <= self.order <= 5:
            raise ValueError("order must be 3..5")


def schwarzian_rate_system(forcing: Callable[[float], float]) -> OdeSystem:
    """Fourth-order equation: the x-derivative of the Schwarzian equals f(x)."""

    def rhs(x, _y0, y1, y2, y3):
        return y1 * forcing(x) + 4.0 * y2 * y3 / y1 - 3.0 * y2 ** 3 / y1 ** 2

    return OdeSystem(4, rhs, "schwarzian-rate")


def scaled_schwarzian_system(source: Callable[[float, float], float]) -> OdeSystem:
    """Third-order equation: Schwarzian / y'^2 = source(x, y)."""

    def rhs(x, y0, y1, y2):
        return source(x, y0) * y1 ** 3 + 1.5 * y2 ** 2 / y1

    return OdeSystem(3, rhs, "scaled-schwarzian")


def fifth_order_invariant_system(c: float) -> OdeSystem:
    """Fifth-order equation fixing the product-group invariant to c."""

    # every product keeps its operands, so each value is the written-out formula's
    c4, c23 = 2.0 * (c + 4.0), 2.25 * (c + 2.0 / 3.0)

    def rhs(x, _y0, y1, y2, y3, y4):
        y1_3, y2_2 = y1 ** 3, y2 ** 2
        den = y1_3 * (2.0 * y1 * y3 - 3.0 * y2_2)
        num = (2.5 * y1 ** 4 * y4 ** 2 - 10.0 * y1_3 * y2 * y3 * y4
               + c4 * y1_3 * y3 ** 3
               - c23 * (4.0 * y1 ** 2 * y2_2 * y3 ** 2
                        - 6.0 * y1 * y2 ** 4 * y3 + 3.0 * y2 ** 6))
        return num / den

    return OdeSystem(5, rhs, "fifth-order-invariant")


# One RK4 run loop per order, (rhs, x0, h, n, ys, u0, u1, ..): it appends each
# kept y to ys and stops at the first state past OVERFLOW_LIMIT.  A stage's first
# slopes are its state shifted by one (k[i] = s[i+1]), and each new u_i reads
# only the old u_i and u_{i+1}, so the state is updated in place, in ascending order.

def _rk4_run3(rhs, x0, h, n, ys, u0, u1, u2):
    half, sixth, L = 0.5 * h, h / 6.0, OVERFLOW_LIMIT
    for k in range(n):
        x = x0 + k * h
        xm = x + half
        a = rhs(x, u0, u1, u2)
        b1, b2 = u1 + half * u2, u2 + half * a
        b = rhs(xm, u0 + half * u1, b1, b2)
        c1, c2 = u1 + half * b2, u2 + half * b
        c = rhs(xm, u0 + half * b1, c1, c2)
        d1, d2 = u1 + h * c2, u2 + h * c
        d = rhs(x + h, u0 + h * c1, d1, d2)
        u0 += sixth * (u1 + 2.0 * (b1 + c1) + d1)
        u1 += sixth * (u2 + 2.0 * (b2 + c2) + d2)
        u2 += sixth * (a + 2.0 * (b + c) + d)
        if not (abs(u0) <= L and abs(u1) <= L and abs(u2) <= L):
            break
        ys.append(u0)


def _rk4_run4(rhs, x0, h, n, ys, u0, u1, u2, u3):
    half, sixth, L = 0.5 * h, h / 6.0, OVERFLOW_LIMIT
    for k in range(n):
        x = x0 + k * h
        xm = x + half
        a = rhs(x, u0, u1, u2, u3)
        b1, b2, b3 = u1 + half * u2, u2 + half * u3, u3 + half * a
        b = rhs(xm, u0 + half * u1, b1, b2, b3)
        c1, c2, c3 = u1 + half * b2, u2 + half * b3, u3 + half * b
        c = rhs(xm, u0 + half * b1, c1, c2, c3)
        d1, d2, d3 = u1 + h * c2, u2 + h * c3, u3 + h * c
        d = rhs(x + h, u0 + h * c1, d1, d2, d3)
        u0 += sixth * (u1 + 2.0 * (b1 + c1) + d1)
        u1 += sixth * (u2 + 2.0 * (b2 + c2) + d2)
        u2 += sixth * (u3 + 2.0 * (b3 + c3) + d3)
        u3 += sixth * (a + 2.0 * (b + c) + d)
        if not (abs(u0) <= L and abs(u1) <= L and abs(u2) <= L and abs(u3) <= L):
            break
        ys.append(u0)


def _rk4_run5(rhs, x0, h, n, ys, u0, u1, u2, u3, u4):
    half, sixth, L = 0.5 * h, h / 6.0, OVERFLOW_LIMIT
    for k in range(n):
        x = x0 + k * h
        xm = x + half
        a = rhs(x, u0, u1, u2, u3, u4)
        # pairs, not quadruples: CPython builds a tuple to assign four names
        b1, b2 = u1 + half * u2, u2 + half * u3
        b3, b4 = u3 + half * u4, u4 + half * a
        b = rhs(xm, u0 + half * u1, b1, b2, b3, b4)
        c1, c2 = u1 + half * b2, u2 + half * b3
        c3, c4 = u3 + half * b4, u4 + half * b
        c = rhs(xm, u0 + half * b1, c1, c2, c3, c4)
        d1, d2 = u1 + h * c2, u2 + h * c3
        d3, d4 = u3 + h * c4, u4 + h * c
        d = rhs(x + h, u0 + h * c1, d1, d2, d3, d4)
        u0 += sixth * (u1 + 2.0 * (b1 + c1) + d1)
        u1 += sixth * (u2 + 2.0 * (b2 + c2) + d2)
        u2 += sixth * (u3 + 2.0 * (b3 + c3) + d3)
        u3 += sixth * (u4 + 2.0 * (b4 + c4) + d4)
        u4 += sixth * (a + 2.0 * (b + c) + d)
        if not (abs(u0) <= L and abs(u1) <= L and abs(u2) <= L and abs(u3) <= L and abs(u4) <= L):
            break
        ys.append(u0)


_RK4_RUNS = {3: _rk4_run3, 4: _rk4_run4, 5: _rk4_run5}


def rk4_integrate(sys: OdeSystem, init: Sequence[float], x0: float, h: float,
                  n: int) -> Trajectory:
    """Classic fixed-step RK4 on the first-order system equivalent.

    Stops with NON_FINITE on blow-up (expected at solution singularities);
    otherwise returns n+1 points including the initial one.  Raises
    ValueError for a negative n, and NonFiniteError if x0, y(x0) or the last
    abscissa is not finite.

    Each order has one straight-line run loop (``_rk4_run3`` ..
    ``_rk4_run5``) with the state in local floats, calling
    ``sys.rhs(x, y, y', ...)`` with scalars.  Its float operations are those
    of the textbook loop over slope tuples, in the same order, so the output
    is bit-identical to it (``tests/test_reference.py`` checks that).  A step
    whose state passes OVERFLOW_LIMIT or is NaN or +-inf is not kept.
    """
    u = _initial_values(init, sys.order, x0, h, n)
    ys = [u[0]]
    try:
        _RK4_RUNS[sys.order](sys.rhs, x0, h, n, ys, *u)
    except (ZeroDivisionError, OverflowError):
        pass  # a stage failed: the run ends before that step, as at the bound
    return _trajectory(x0, h, n, ys, f"rk4-{sys.name}")


def _initial_values(init, order, x0, h, n) -> list[float]:
    if len(init) != order:
        raise ValueError(f"init needs {order} values, got {len(init)}")
    if h == 0:
        raise ValueError("h must be nonzero")
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    u = [float(v) for v in init]
    if not (math.isfinite(x0) and math.isfinite(x0 + n * h) and math.isfinite(u[0])):
        raise NonFiniteError("non-finite initial value or lattice abscissa")
    return u


def _trajectory(x0, h, n, ys, scheme_id) -> Trajectory:
    stop = StopReason.COMPLETED if len(ys) == n + 1 else StopReason.NON_FINITE
    xs = [x0]  # x0 itself, so that -0.0 stays -0.0
    xs += [x0 + k * h for k in range(1, len(ys))]
    return Trajectory(tuple(xs), tuple(ys), stop, scheme_id, h)


def _linear_rk4_run(f, x0, h, n, ys, q, u1, v1, u2, v2):
    # q = S/2, q' = f/2 and u'' = -q*u for u = u1, u2: the v slopes are -q*u,
    # so the v stages subtract; y = u1/u2 raises ZeroDivisionError where u2 = 0
    half, quarter, sixth, twelfth, L = 0.5 * h, 0.25 * h, h / 6.0, h / 12.0, OVERFLOW_LIMIT
    for k in range(n):
        x = x0 + k * h
        fa, fb = f(x), f(x + half)
        qb, qc, qd = q + quarter * fa, q + quarter * fb, q + half * fb
        a1, a2 = q * u1, q * u2
        bu1, bv1 = u1 + half * v1, v1 - half * a1
        bu2, bv2 = u2 + half * v2, v2 - half * a2
        b1, b2 = qb * bu1, qb * bu2
        cu1, cv1 = u1 + half * bv1, v1 - half * b1
        cu2, cv2 = u2 + half * bv2, v2 - half * b2
        c1, c2 = qc * cu1, qc * cu2
        du1, du2 = u1 + h * cv1, u2 + h * cv2
        dv1, dv2 = v1 - h * c1, v2 - h * c2
        q += twelfth * (fa + 4.0 * fb + f(x + h))
        u1 += sixth * (v1 + 2.0 * (bv1 + cv1) + dv1)
        u2 += sixth * (v2 + 2.0 * (bv2 + cv2) + dv2)
        v1 -= sixth * (a1 + 2.0 * (b1 + c1) + qd * du1)
        v2 -= sixth * (a2 + 2.0 * (b2 + c2) + qd * du2)
        y = u1 / u2
        if not abs(y) <= L:
            break
        ys.append(y)


def rk4_schwarzian_rate(forcing: Callable[[float], float], init: Sequence[float],
                        x0: float, h: float, n: int) -> Trajectory:
    """RK4 on the linear form of ``schwarzian_rate_system(forcing)``.

    The Schwarzian S = y'''/y' - 1.5 (y''/y')^2 is 2q exactly when
    y = u1/u2 for two solutions of u'' + q u = 0 (Ovsienko and Tabachnikov,
    *Projective Differential Geometry Old and New*, ch. 1).  So S' = f(x)
    is the linear system S' = f, u'' = -(S/2) u, started from ``init`` =
    (y, y', y'', y''') with S as above, u2 = 1, u2' = -y''/(2y'), u1 = y
    and u1' = y' + y u2'.  Classic RK4 on it is fourth-order, evaluates f
    three times a step and divides only for y; a Mobius map of y acts
    linearly on (u1, u2), so the run is equivariant to round-off.

    Returns n+1 points like :func:`rk4_integrate`, and stops with NON_FINITE
    at the first node where u2 = 0 or |y| passes OVERFLOW_LIMIT.  Raises
    DomainError where y' = 0 (S is undefined there), and like
    :func:`rk4_integrate` for a bad n, h, x0 or last abscissa.
    """
    y, y1, y2, y3 = _initial_values(init, 4, x0, h, n)
    if y1 == 0.0:
        raise DomainError("the Schwarzian is undefined where y' = 0")
    r = y2 / y1
    v2 = -0.5 * r
    ys = [y]
    try:
        _linear_rk4_run(forcing, x0, h, n, ys, 0.5 * (y3 / y1 - 1.5 * r * r),
                        y, y1 + y * v2, 1.0, v2)
    except ZeroDivisionError:
        pass  # u2 = 0: y has a pole at this node
    return _trajectory(x0, h, n, ys, "linear-rk4-schwarzian-rate")


# --- exact solutions ----------------------------------------------------------

@dataclass(frozen=True)
class ExactSolution:
    """Closed-form solution with value and jet evaluators."""

    eval_fn: Callable[[float], float]
    jet_fn: Callable[[float], Jet]


def _reciprocal_derivatives(x: float, n: int = 5) -> tuple[float, ...]:
    """1/x and its first n - 1 derivatives (n = 5 or 6); NonFiniteError where
    a power of x leaves the float range."""
    if x == 0.0:
        raise DomainError("singular at x = 0")
    try:
        d = (1.0 / x, -1.0 / x ** 2, 2.0 / x ** 3, -6.0 / x ** 4, 24.0 / x ** 5)
        return d if n == 5 else (*d, -120.0 / x ** 6)
    except (ZeroDivisionError, OverflowError):
        raise NonFiniteError(f"derivatives of 1/x out of float range at x = {x!r}") from None


def _log_abs_jet(x: float) -> Jet:
    # the derivatives first: their guard keeps math.log off 0
    d = _reciprocal_derivatives(x)
    return Jet(x, (math.log(abs(x)), *d))


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


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise NonFiniteError(f"e^x overflows at x = {x!r}") from None


def _exp_and_gap(x: float) -> tuple[float, float]:
    """(e^x, 1 - e^x), refusing the x where e^x overflows or 1 - e^x is 0."""
    s = _exp(x)
    d = 1.0 - s
    if d == 0.0:
        raise DomainError(f"1/(1 - e^x) is singular at {x}")
    return s, d


def _one_over_one_minus_exp_jet(x: float) -> Jet:
    s, d = _exp_and_gap(x)
    try:  # numerator polynomials follow the Eulerian-number pattern
        return Jet(x, (1.0 / d,
                       s / d ** 2,
                       s * (1.0 + s) / d ** 3,
                       s * (1.0 + 4.0 * s + s * s) / d ** 4,
                       s * (1.0 + 11.0 * s + 11.0 * s ** 2 + s ** 3) / d ** 5,
                       s * (1.0 + 26.0 * s + 66.0 * s ** 2 + 26.0 * s ** 3 + s ** 4)
                       / d ** 6))
    except OverflowError:  # a power of e^x or of 1 - e^x, past x of about 118
        raise NonFiniteError(f"derivatives of 1/(1 - e^x) overflow at x = {x!r}") from None


def _tan_outer(u: float) -> tuple[float, ...]:
    t = math.tan(u)
    w = 1.0 + t * t
    return (t,
            w,
            2.0 * t * w,
            w * (2.0 * w + 4.0 * t * t),
            t * w * (16.0 * w + 8.0 * t * t),
            w * (16.0 * w ** 2 + 88.0 * t * t * w + 16.0 * t ** 4))


def _tan_reciprocal_jet(x: float) -> Jet:
    inner = Jet(x, _reciprocal_derivatives(x, 6))
    return compose_jet(_tan_outer(inner.d[0]), inner)


def log_abs() -> ExactSolution:
    """y = log|x|; solves the third-order equation with source 1/2."""
    def ev(x):
        if x == 0.0:
            raise DomainError("log|x| is singular at 0")
        return math.log(abs(x))
    return ExactSolution(ev, _log_abs_jet)


def arctanh_solution() -> ExactSolution:
    """y = arctanh(x); solves the third-order equation with source 2."""
    return general_arctanh(1.0, 0.0, 0.0, 2.0)


def one_over_one_minus_exp() -> ExactSolution:
    """y = 1/(1 - e^x); product-invariant solution with c = 0."""
    return ExactSolution(lambda x: 1.0 / _exp_and_gap(x)[1], _one_over_one_minus_exp_jet)


def tan_reciprocal() -> ExactSolution:
    """y = tan(1/x); product-invariant solution with c = 0, poles at
    x = 2/((2m+1) pi)."""
    def ev(x):
        if x == 0.0:
            raise DomainError("tan(1/x) is singular at 0")
        if math.isinf(u := 1.0 / x):  # |x| below about 5.6e-309
            raise NonFiniteError(f"1/x out of float range at x = {x!r}")
        return math.tan(u)
    return ExactSolution(ev, _tan_reciprocal_jet)


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

    return ExactSolution(ev, jet)


EXACT_SOLUTIONS: dict[str, Callable[[], ExactSolution]] = {
    "log-abs": log_abs,
    "arctanh": arctanh_solution,
    "one-over-one-minus-exp": one_over_one_minus_exp,
    "tan-reciprocal": tan_reciprocal,
    "exp": lambda: ExactSolution(_exp, lambda x: Jet(x, (_exp(x),) * 6)),
}


def chi(candidate: Trajectory | Sequence[float], reference: Sequence[float]) -> float:
    """Root of the ratio of summed squared deviations to summed squared
    reference values, as a ratio of Euclidean norms so that no square
    overflows or underflows."""
    ys = candidate.ys if isinstance(candidate, Trajectory) else tuple(candidate)
    if len(ys) != len(reference):
        raise ValueError(f"length mismatch: {len(ys)} vs {len(reference)}")
    if len(ys) == 0:
        raise ValueError("chi needs at least one point")
    denom = math.hypot(*reference)
    if denom == 0.0:
        raise DegenerateCoefficientError("reference is identically zero")
    return math.dist(ys, reference) / denom
