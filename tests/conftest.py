import math

import numpy as np
import pytest

from invdisc import Jet


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
