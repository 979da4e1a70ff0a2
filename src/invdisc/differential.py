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

from .core import DegenerateCoefficientError, Jet, NonFiniteError


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


def kx_invariants(jet: Jet) -> InvariantTriple:
    """The three lowest-order invariants of Mobius maps acting on x."""
    _check_slope(jet)
    _, y1, y2, y3, y4, y5 = jet.d
    k3 = (y3 / y1 - 1.5 * (y2 / y1) ** 2) / y1 ** 2
    k4 = y4 / y1 ** 4 - 6.0 * y3 * y2 / y1 ** 5 + 6.0 * y2 ** 3 / y1 ** 6
    k5 = (y5 / y1 ** 5 - 10.0 * y4 * y2 / y1 ** 6 - 4.0 * y3 ** 2 / y1 ** 6
          + 42.0 * y3 * y2 ** 2 / y1 ** 7 - 31.5 * y2 ** 4 / y1 ** 8)
    return InvariantTriple(k3, k4, k5)


def h5_differential(jet: Jet) -> float:
    """Fifth-order invariant of the product action, through the Schwarzian
    hierarchy.

    Undefined on the manifold 2 y' y''' = 3 y''^2 (vanishing Schwarzian).
    """
    _check_slope(jet)
    _, y1, y2, y3, _, _ = jet.d
    manifold = 2.0 * y1 * y3 - 3.0 * y2 ** 2
    if abs(manifold) <= 1e-12 * max(abs(y1 * y3), y2 ** 2):
        raise DegenerateCoefficientError(
            "fifth-order product invariant undefined on the vanishing-Schwarzian manifold")
    t = jy_invariants(jet)
    return t.fifth / t.third ** 2 - 1.25 * t.fourth ** 2 / t.third ** 3


# --- jet calculus helpers ----------------------------------------------------

def compose_jet(outer: tuple[float, ...], inner: Jet) -> Jet:
    """Jet of f(g(x)) from derivatives of f at g(x) and the jet of g.

    ``outer`` lists f(u), f'(u), ..., f^(5)(u) at u = g(x).  Uses the chain
    rule through fifth order; NonFiniteError where a power in the rule overflows.
    """
    f0, f1, f2, f3, f4, f5 = outer
    _, g1, g2, g3, g4, g5 = inner.d
    try:
        d1 = f1 * g1
        d2 = f2 * g1 ** 2 + f1 * g2
        d3 = f3 * g1 ** 3 + 3.0 * f2 * g1 * g2 + f1 * g3
        d4 = (f4 * g1 ** 4 + 6.0 * f3 * g1 ** 2 * g2
              + f2 * (3.0 * g2 ** 2 + 4.0 * g1 * g3) + f1 * g4)
        d5 = (f5 * g1 ** 5 + 10.0 * f4 * g1 ** 3 * g2
              + f3 * (15.0 * g1 * g2 ** 2 + 10.0 * g1 ** 2 * g3)
              + f2 * (10.0 * g2 * g3 + 5.0 * g1 * g4) + f1 * g5)
    except OverflowError:
        raise NonFiniteError(f"composed jet overflows at x = {inner.x!r}") from None
    return Jet(inner.x, (f0, d1, d2, d3, d4, d5))
