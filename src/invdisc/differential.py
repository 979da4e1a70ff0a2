"""Differential invariants evaluated on analytic jets.

The third-order invariant of Mobius maps acting on y is the Schwarzian
derivative; its x-derivatives give the fourth- and fifth-order ones.  The
K-family is the hodograph counterpart (Mobius maps acting on x), and
:func:`h5_differential` is the unique fifth-order invariant of the product
action.  These closed forms serve as oracles for the continuous limits of
the difference invariants.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import DegenerateCoefficientError, Jet


@dataclass(frozen=True)
class InvariantTriple:
    """Third-, fourth- and fifth-order members of one invariant family."""

    third: float
    fourth: float
    fifth: float


def _check_slope(jet: Jet):
    if jet.d[1] == 0.0:
        raise DegenerateCoefficientError("invariants undefined where y' = 0")


def jy_invariants(jet: Jet) -> InvariantTriple:
    """Schwarzian derivative and its first two x-derivatives."""
    _check_slope(jet)
    _, y1, y2, y3, y4, y5 = jet.d
    j3 = y3 / y1 - 1.5 * (y2 / y1) ** 2
    j4 = y4 / y1 - 4.0 * y2 * y3 / y1 ** 2 + 3.0 * y2 ** 3 / y1 ** 3
    j5 = (y5 / y1 - 5.0 * y2 * y4 / y1 ** 2 + 17.0 * y2 ** 2 * y3 / y1 ** 3
          - 4.0 * y3 ** 2 / y1 ** 2 - 9.0 * y2 ** 4 / y1 ** 4)
    return InvariantTriple(j3, j4, j5)


def jtilde5(jet: Jet) -> float:
    """Simplified fifth-order invariant, equal to J5 + 4*J3^2."""
    _check_slope(jet)
    _, y1, y2, y3, y4, y5 = jet.d
    return y5 / y1 - 5.0 * y2 * y4 / y1 ** 2 + 5.0 * y2 ** 2 * y3 / y1 ** 3


def kx_invariants(jet: Jet) -> InvariantTriple:
    """The three lowest-order invariants of Mobius maps acting on x."""
    _check_slope(jet)
    _, y1, y2, y3, y4, y5 = jet.d
    k3 = (y3 / y1 - 1.5 * (y2 / y1) ** 2) / y1 ** 2
    k4 = y4 / y1 ** 4 - 6.0 * y3 * y2 / y1 ** 5 + 6.0 * y2 ** 3 / y1 ** 6
    k5 = (y5 / y1 ** 5 - 10.0 * y4 * y2 / y1 ** 6 - 4.0 * y3 ** 2 / y1 ** 6
          + 42.0 * y3 * y2 ** 2 / y1 ** 7 - 31.5 * y2 ** 4 / y1 ** 8)
    return InvariantTriple(k3, k4, k5)


def h5_differential(jet: Jet, route: str = "j") -> float:
    """Fifth-order invariant of the product action.

    Undefined on the manifold 2 y' y''' = 3 y''^2 (vanishing Schwarzian).
    The default route works through the Schwarzian hierarchy; ``route="k"``
    uses the hodograph family and exists for cross-checking.
    """
    _check_slope(jet)
    _, y1, y2, y3, _, _ = jet.d
    manifold = 2.0 * y1 * y3 - 3.0 * y2 ** 2
    if abs(manifold) <= 1e-12 * max(abs(y1 * y3), y2 ** 2):
        raise DegenerateCoefficientError(
            "fifth-order product invariant undefined on the vanishing-Schwarzian manifold")
    if route == "j":
        t = jy_invariants(jet)
    elif route == "k":
        t = kx_invariants(jet)
    else:
        raise ValueError(f"unknown route {route!r}")
    return t.fifth / t.third ** 2 - 1.25 * t.fourth ** 2 / t.third ** 3


# --- jet calculus helpers ----------------------------------------------------

def compose_jet(outer: tuple[float, ...], inner: Jet) -> Jet:
    """Jet of f(g(x)) from derivatives of f at g(x) and the jet of g.

    ``outer`` lists f(u), f'(u), ..., f^(5)(u) at u = g(x).  Uses the chain
    rule through fifth order.
    """
    f0, f1, f2, f3, f4, f5 = outer
    _, g1, g2, g3, g4, g5 = inner.d
    d1 = f1 * g1
    d2 = f2 * g1 ** 2 + f1 * g2
    d3 = f3 * g1 ** 3 + 3.0 * f2 * g1 * g2 + f1 * g3
    d4 = (f4 * g1 ** 4 + 6.0 * f3 * g1 ** 2 * g2
          + f2 * (3.0 * g2 ** 2 + 4.0 * g1 * g3) + f1 * g4)
    d5 = (f5 * g1 ** 5 + 10.0 * f4 * g1 ** 3 * g2
          + f3 * (15.0 * g1 * g2 ** 2 + 10.0 * g1 ** 2 * g3)
          + f2 * (10.0 * g2 * g3 + 5.0 * g1 * g4) + f1 * g5)
    return Jet(inner.x, (f0, d1, d2, d3, d4, d5))


def mobius_jet(a: float, b: float, c: float, d: float, x: float) -> Jet:
    """Jet of the linear-fractional map (a*x + b)/(c*x + d)."""
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular coefficient matrix")
    den = c * x + d
    if den == 0:
        raise DegenerateCoefficientError("evaluation at the pole of the map")
    y0 = (a * x + b) / den
    # y^(k) = det * (-1)^(k+1) * k! * c^(k-1) / den^(k+1) for k >= 1
    ds = [y0]
    sign = 1.0
    fact = 1.0
    for k in range(1, 6):
        fact *= k
        ds.append(sign * det * fact * c ** (k - 1) / den ** (k + 1))
        sign = -sign
    return Jet(x, tuple(ds))


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
