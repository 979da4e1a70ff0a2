"""Difference invariants of the projective group actions on a stencil.

Cross-ratios are invariant under Mobius maps of the coordinate they are
built from.  The L-family (built on y cross-ratios, normalized by x
spacings) tends to the Schwarzian-derivative hierarchy in the continuous
limit; the M-family (normalized by y differences) tends to its hodograph
counterpart; the six-point combination evaluated by :func:`h5_discrete`
tends to the lowest-order invariant of the product action.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import DegenerateCoefficientError, NonFiniteError, Stencil, is_degenerate


@dataclass(frozen=True)
class CrossRatioWindow:
    """Four consecutive coordinate values (all x's or all y's)."""

    a0: float
    a1: float
    a2: float
    a3: float


#: the smallest normal float; a product below it in size has lost digits
_MIN_NORMAL = sys.float_info.min


def _cross_ratio(a0: float, a1: float, a2: float, a3: float) -> float:
    n1, n2 = a3 - a1, a2 - a0
    d1, d2 = a3 - a2, a1 - a0
    scale = max(abs(n1), abs(n2), abs(d1), abs(d2))
    den = d1 * d2  # may underflow to zero even where d1 and d2 do not vanish
    if is_degenerate(d1, scale) or is_degenerate(d2, scale) or den == 0.0:
        raise DegenerateCoefficientError(
            f"cross-ratio denominator vanishes on window ({a0}, {a1}, {a2}, {a3})")
    num = n1 * n2
    if _MIN_NORMAL <= abs(den) < math.inf and (
            num == 0.0 or _MIN_NORMAL <= abs(num) < math.inf):
        return num / den
    # a product overflows or is subnormal (or a value is NaN); paired with
    # its denominator, each factor is below 1 / DEGENERACY_RTOL in size
    q = (n1 / d1) * (n2 / d2)
    if q != q:
        raise NonFiniteError(f"cross-ratio is NaN on window ({a0}, {a1}, {a2}, {a3})")
    return q


def _cross_ratio_line(a0: float, a1: float, a2: float,
                      k: float) -> tuple[float, float, float]:
    """(a, b, scale) of the equation a*t = b to which cross-ratio(a0, a1, a2, t)
    = k clears; ``scale`` is the size of the terms that cancel in a."""
    return ((a2 - a0) - k * (a1 - a0),
            a1 * (a2 - a0) - k * a2 * (a1 - a0),
            max(abs(a2 - a0), abs(k * (a1 - a0))))


def cross_ratio(w: CrossRatioWindow) -> float:
    """((a3-a1)(a2-a0)) / ((a3-a2)(a1-a0)) of four collinear values."""
    return _cross_ratio(w.a0, w.a1, w.a2, w.a3)


def _ratio_r_over_s(xs, ys, k: int) -> float:
    """R_{k+3}/S_{k+3} in one full-precision expression, or, where one of its
    products overflows or is subnormal, as a product of paired difference
    ratios; NonFiniteError where that is NaN (a NaN coordinate)."""
    ny1, ny2 = ys[k + 3] - ys[k + 1], ys[k + 2] - ys[k]
    dy1, dy2 = ys[k + 3] - ys[k + 2], ys[k + 1] - ys[k]
    nx1, nx2 = xs[k + 3] - xs[k + 1], xs[k + 2] - xs[k]
    dx1, dx2 = xs[k + 3] - xs[k + 2], xs[k + 1] - xs[k]
    y_scale = max(abs(dy1), abs(dy2), abs(ny1), abs(ny2))
    if is_degenerate(dy1, y_scale) or is_degenerate(dy2, y_scale):
        raise DegenerateCoefficientError("repeated y-values in cross-ratio window")
    # x-differences cannot vanish on a valid stencil, rx may:
    x_scale = max(abs(nx1), abs(nx2))
    rx = nx1 * nx2
    den = dy1 * dy2 * rx
    sq = x_scale * x_scale  # past about 1.3e154 it overflows, and rx is tested by factor
    if (is_degenerate(rx, sq) if sq < math.inf
            else is_degenerate(min(abs(nx1), abs(nx2)), x_scale)) or den == 0.0:
        raise DegenerateCoefficientError("vanishing denominator of R/S")
    num = ny1 * ny2 * (dx1 * dx2)
    if _MIN_NORMAL <= abs(den) < math.inf and (
            num == 0.0 or _MIN_NORMAL <= abs(num) < math.inf):
        return num / den
    q = (ny1 / dy1) * (ny2 / dy2) * ((dx1 / nx1) * (dx2 / nx2))
    if q != q:
        raise NonFiniteError(f"R/S is NaN on window {k}")
    return q


def _l(xs, ys, k: int, n: int) -> float:
    """Order-n L invariant of the window starting at k: l3 for n = 3, above
    it n times the divided difference of the two windows of order n - 1 over
    the spanning x-difference."""
    if n == 3:
        dx21, dx30 = xs[k + 2] - xs[k + 1], xs[k + 3] - xs[k]
        d = dx21 * dx30
        if d == 0.0:  # underflow; the differences of distinct abscissae never vanish
            raise DegenerateCoefficientError("l3 denominator underflows")
        # 6/d, unless d overflows or is subnormal
        w = 6.0 / d if _MIN_NORMAL <= abs(d) < math.inf else 6.0 / dx21 / dx30
        return w * (1.0 - _ratio_r_over_s(xs, ys, k))
    return n / (xs[k + n] - xs[k]) * (_l(xs, ys, k + 1, n - 1) - _l(xs, ys, k, n - 1))


def _m(xs, ys, k: int, n: int) -> float:
    """Order-n M invariant of the window starting at k: m3 for n = 3, above
    it the same divided difference over the spanning y-difference, which is
    checked against every y-difference in the window."""
    d = ys[k + n] - ys[k]
    win = ys[k:k + n + 1]
    scale = max(win) - min(win)  # the largest |y-difference| in the window
    if n == 3:
        d2 = ys[k + 2] - ys[k + 1]
        den = d * d2
        if is_degenerate(d, scale) or is_degenerate(d2, scale) or den == 0.0:
            raise DegenerateCoefficientError("vanishing y-difference in M window")
        return 6.0 / den * (1.0 - _ratio_r_over_s(xs, ys, k))
    if is_degenerate(d, scale):
        raise DegenerateCoefficientError("vanishing spanning y-difference")
    return n / d * (_m(xs, ys, k + 1, n - 1) - _m(xs, ys, k, n - 1))


def _require_len(s: Stencil, n: int, name: str):
    if len(s) != n:
        raise ValueError(f"{name} needs a {n}-point stencil, got {len(s)}")


def l3(s: Stencil) -> float:
    """Third-order invariant on 4 points; continuous limit is the Schwarzian."""
    _require_len(s, 4, "l3")
    return _l(s.xs, s.ys, 0, 3)


def l4(s: Stencil) -> float:
    """Fourth-order invariant on 5 points; limit is the Schwarzian's x-derivative."""
    _require_len(s, 5, "l4")
    return _l(s.xs, s.ys, 0, 4)


def l5(s: Stencil) -> float:
    """Fifth-order invariant on 6 points.

    On a lattice with coefficient W (see :func:`w_coefficient`) the limit
    carries a W * (Schwarzian)^2 correction.
    """
    _require_len(s, 6, "l5")
    return _l(s.xs, s.ys, 0, 5)


def m3(s: Stencil) -> float:
    """Third-order hodograph-side invariant on 4 points."""
    _require_len(s, 4, "m3")
    return _m(s.xs, s.ys, 0, 3)


def m4(s: Stencil) -> float:
    """Fourth-order hodograph-side invariant on 5 points."""
    _require_len(s, 5, "m4")
    return _m(s.xs, s.ys, 0, 4)


def m5(s: Stencil) -> float:
    """Fifth-order hodograph-side invariant on 6 points.

    The continuous limit carries a -W_x * (third-order invariant)^2 term,
    with W_x from :func:`wx_coefficient` (equal to 2 on uniform lattices).
    """
    _require_len(s, 6, "m5")
    return _m(s.xs, s.ys, 0, 5)


def _check_factor(value: float, scale: float, what: str):
    if is_degenerate(value, scale):
        raise DegenerateCoefficientError(f"vanishing {what}")


def h5_discrete(s: Stencil) -> float:
    """Six-point invariant of the product action, on an arbitrary lattice.

    Undefined where any window has R = S (the weakly invariant manifold);
    those windows raise DegenerateCoefficientError.
    """
    _require_len(s, 6, "h5_discrete")
    xs, ys = s.xs, s.ys
    s3 = _cross_ratio(xs[0], xs[1], xs[2], xs[3])
    s4 = _cross_ratio(xs[1], xs[2], xs[3], xs[4])
    s5 = _cross_ratio(xs[2], xs[3], xs[4], xs[5])
    # Q_i = 1 - R_i/S_i of the three windows, from full-precision R/S ratios
    q3, q4, q5 = (1.0 - _ratio_r_over_s(xs, ys, k) for k in range(3))
    s_scale = max(abs(s3), abs(s4), abs(s5), 1.0)
    for qi in (q3, q4, q5):
        _check_factor(qi, 1.0, "Q factor (window on the R = S manifold)")
    d1 = s3 * (1.0 - s4) + s4
    d2 = s4 * (1.0 - s5) + s5
    d3 = s4 * (1.0 - s3) * (1.0 - s5) - s3 * s5
    _check_factor(d1, s_scale ** 2, "bracket denominator")
    _check_factor(d2, s_scale ** 2, "bracket denominator")
    _check_factor(d3, s_scale ** 3, "bracket denominator")
    pref = (10.0 / 3.0) * s4 / (d1 * d2 * d3)
    bracket = (s4 * (1.0 - s5) / q5
               + s4 * (1.0 - s3) / q3
               - (1.0 - s4) * d3 / q4
               - s4 * (1.0 - s3) * (1.0 - s5) * q4 / (q3 * q5))
    return pref * bracket


def _h5_r5_line(r3: float, r4: float, c: float) -> tuple[float, float, float]:
    """(a, b, scale) of a*R5 = b, cleared from the uniform-lattice relation
    16 R5 + R4 (3 R4 + R5 - 32) + R3 (R4 - 5 R5 + 16) = 2c (R3-4)(R4-4)(R5-4).
    ``scale`` is max(|R3|, |R4|, 16, |k|), k = 2c (R3-4)(R4-4), written out
    as a left fold in that order: the same float as max().  This is the
    definition that ``schemes._h5_run`` inlines, operation for operation."""
    k = 2.0 * c * (r3 - 4.0) * (r4 - 4.0)
    m3, m4, mk = abs(r3), abs(r4), abs(k)
    scale = m4 if m4 > m3 else m3
    scale = 16.0 if 16.0 > scale else scale
    return (16.0 + r4 - 5.0 * r3 - k,
            -3.0 * r4 ** 2 + 32.0 * r4 - r3 * r4 - 16.0 * r3 - 4.0 * k,
            mk if mk > scale else scale)


def h5_uniform(r3: float, r4: float, r5: float) -> float:
    """Uniform-lattice (S = 4) form of the six-point product invariant: the c
    of :func:`_h5_r5_line`'s relation; NonFiniteError where its terms
    overflow (R past about 1e154) or it is NaN."""
    scale = max(abs(r3), abs(r4), abs(r5), 4.0)
    for r in (r3, r4, r5):
        _check_factor(r - 4.0, scale, "R - 4 factor (window on the R = S manifold)")
    try:
        a, b, _ = _h5_r5_line(r3, r4, 0.0)
    except OverflowError:  # r4 ** 2
        raise NonFiniteError(f"h5_uniform{(r3, r4, r5)} overflows") from None
    c = (a * r5 - b) / (2.0 * (r3 - 4.0) * (r4 - 4.0) * (r5 - 4.0))
    if c != c:
        raise NonFiniteError(f"h5_uniform{(r3, r4, r5)} is NaN")
    return c


def w_coefficient(x0: float, x1: float, x2: float, x3: float, x4: float,
                  x5: float) -> float:
    """Lattice-dependent coefficient entering the l5 continuous limit."""
    span = x5 - x0
    d40 = x4 - x0
    d51 = x5 - x1
    scale = max(abs(span), abs(d40), abs(d51))
    for d in (span, d40, d51):
        _check_factor(d, scale, "spanning x-difference")
    return (10.0 / 3.0) * (0.2
                           - (x4 - x3) / span
                           - (x3 - x1) * (x2 - x0) / (span * d40)
                           + (x4 - x2) * (x3 - x1) / (span * d51))


def wx_coefficient(h1: float, h2: float, h3: float, h4: float, h5: float) -> float:
    """Spacing-dependent coefficient entering the m5 continuous limit."""
    total = h1 + h2 + h3 + h4 + h5
    scale = max(abs(h) for h in (h1, h2, h3, h4, h5))
    _check_factor(total, scale, "spacing sum")
    return (20.0 / 6.0) * (0.8 - h3 / total)
