import math

import numpy as np
import pytest

from invdisc import Jet, NonFiniteError, StopReason, Trajectory
from invdisc.core import OVERFLOW_LIMIT


def make_mobius(a, b, c, d):
    return lambda t: (a * t + b) / (c * t + d)


def random_mobius(rng, values, min_det=0.1, pole_gap=0.2, tries=500):
    """Unit-determinant map with coefficients in [-2, 2] whose pole stays
    ``pole_gap`` away from every value in ``values``."""
    for _ in range(tries):
        a, b, c, d = rng.uniform(-2.0, 2.0, 4)
        det = a * d - b * c
        if abs(det) < min_det:
            continue
        s = 1.0 / math.sqrt(abs(det))
        a, b, c, d = a * s, b * s, c * s, d * s
        if all(abs(c * v + d) > pole_gap for v in values):
            return (a, b, c, d)
    raise RuntimeError("could not draw a well-conditioned map")


def rel_diff(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def polynomial_jet(coeffs: tuple[float, ...], x: float) -> Jet:
    """Jet of a polynomial given by coefficients (low order first)."""
    ds = []
    cs = list(coeffs)
    for _ in range(6):
        ds.append(sum(c * x ** i for i, c in enumerate(cs)))
        cs = [i * c for i, c in enumerate(cs)][1:]
    return Jet(x, tuple(ds))


def finite_difference_jet(f, x: float, step: float = 1e-4) -> tuple[float, ...]:
    """Central-difference estimates of f and its first five derivatives.

    Only suitable as a rough cross-check of analytic jets: in double
    precision the high orders lose most digits, so callers needing the
    stated tolerances should evaluate ``f`` in extended precision.
    """
    stencils = {
        1: ((-1, -0.5), (1, 0.5)),
        2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
        3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
        4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
        5: ((-3, -0.5), (-2, 2.0), (-1, -2.5), (1, 2.5), (2, -2.0), (3, 0.5)),
    }
    out = [f(x)]
    for k in range(1, 6):
        acc = sum(w * f(x + o * step) for o, w in stencils[k])
        out.append(acc / step ** k)
    return tuple(out)


def rk4_reference_loop(sys, init, x0, h, n):
    """Test-only copy of the textbook RK4 loop over slope tuples that
    ``reference.rk4_integrate`` unrolls per order; the two must agree bit
    for bit."""
    if len(init) != sys.order:
        raise ValueError(f"init needs {sys.order} values, got {len(init)}")
    if h == 0:
        raise ValueError("h must be nonzero")
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    rhs = sys.rhs
    m = sys.order - 1

    def deriv(x, u):
        return (*u[1:], rhs(x, u))

    u = tuple(float(v) for v in init)
    if not (math.isfinite(x0) and math.isfinite(x0 + n * h) and math.isfinite(u[0])):
        raise NonFiniteError("non-finite initial value or lattice abscissa")
    xs, ys = [x0], [u[0]]
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
        xs.append(x0 + (k + 1) * h)
        ys.append(u[0])
    return Trajectory(tuple(xs), tuple(ys), stop, f"rk4-{sys.name}", h)
