"""Lattice generation: meshes with constant x cross-ratio.

A lattice whose every four-point window has the same cross-ratio K is
invariant under Mobius maps of x.  For K = 4 the closed-form solutions are
the arithmetic progression x_m = A*m + B and the family
x_m = 1/(A*m + B) + C; other K values are extended by the exact
three-point recursion instead.
"""
from __future__ import annotations

from .core import ConstantS, DegenerateCoefficientError, is_degenerate
from .discrete import _cross_ratio_line


def extend_constant_s(x_a: float, x_b: float, x_c: float, K: float) -> float:
    """The unique x_d with cross-ratio(x_a, x_b, x_c, x_d) = K.

    Solved in closed form; x_d is a linear-fractional function of the data.
    """
    den, num, scale = _cross_ratio_line(x_a, x_b, x_c, K)
    if is_degenerate(den, scale):
        raise DegenerateCoefficientError(
            f"resonant K = {K} for seeds ({x_a}, {x_b}, {x_c})")
    return num / den


def extend_lattice(rule: ConstantS, n: int) -> list[float]:
    """First n abscissae of the constant-cross-ratio lattice ``rule``."""
    if n < 0:
        raise ValueError(f"lattice size must be non-negative, got {n}")
    xs = list(rule.seed)
    while len(xs) < n:
        xs.append(extend_constant_s(xs[-3], xs[-2], xs[-1], rule.K))
    return xs[:n]


def w0_sol2(A: float, B: float) -> float:
    """Limit coefficient W0 of the lattice family x_m = 1/(A*m + B) + C."""
    factors = [(A + B), (2 * A + B), (3 * A + B), (4 * A + B)]
    scale = max(abs(A), abs(B))
    for f in factors:
        if is_degenerate(f, scale):
            raise DegenerateCoefficientError("vanishing denominator factor in W0")
    den = factors[0] * factors[1] * factors[2] * factors[3]
    return 2.0 * A ** 2 * (8.0 * A ** 2 - 5.0 * A * B - B ** 2) / den
