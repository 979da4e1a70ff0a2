"""Invariant difference schemes: advance a stencil one lattice step by
solving the invariant equation for the new ordinate.

The fourth-order scheme (Mobius maps of y) and the six-point product-group
scheme reduce to a linear equation in the new ordinate.  The third-order
hodograph scheme is quadratic for constant forcing and cubic when the
forcing is the dependent variable itself; all real roots are computed in
closed form and the one nearest a quadratic extrapolation is kept.

Per scheme, a coefficient helper clears the invariant equation on plain
floats and raises DegenerateCoefficientError on a vanishing denominator.  A
kernel turns it into the new ordinate or the :class:`StopReason` that ends
the run; :func:`integrate` drives the kernels over a rolling window, and
the public ``*_step`` functions return what the same kernels return on one
stencil.
"""
from __future__ import annotations

import math
from typing import Sequence

from .core import (Constant, DegenerateCoefficientError, ForcingTerm,
                   IdentityInY, NonFiniteError, OVERFLOW_LIMIT, SchemeKind,
                   SchemeSpec, Stencil, StopReason, Trajectory, is_degenerate)
from .discrete import _cross_ratio, _cross_ratio_line, _h5_r5_line, _l3


def _in_range(y: float) -> bool:
    """A new ordinate is kept only if finite and within OVERFLOW_LIMIT."""
    return math.isfinite(y) and abs(y) <= OVERFLOW_LIMIT


# --- closed-form real roots ---------------------------------------------------

def _horner(c: tuple[float, ...], t: float) -> float:
    """c0 + c1*t + ... of a coefficient tuple of length 2..4."""
    if len(c) == 4:
        return ((c[3] * t + c[2]) * t + c[1]) * t + c[0]
    if len(c) == 3:
        return (c[2] * t + c[1]) * t + c[0]
    return c[1] * t + c[0]


def _horner_slope(c: tuple[float, ...], t: float) -> float:
    """Derivative in t of :func:`_horner`'s polynomial."""
    if len(c) == 4:
        return (3.0 * c[3] * t + 2.0 * c[2]) * t + c[1]
    if len(c) == 3:
        return 2.0 * c[2] * t + c[1]
    return c[1]


def _polish(c: tuple[float, ...], t: float) -> float:
    """One Newton iteration, accepted only if it reduces the residual.

    At (near-)multiple roots both p and p' are noise-level and the raw step
    can jump to an unrelated point.
    """
    dp = _horner_slope(c, t)
    if dp == 0.0 or not math.isfinite(dp):
        return t
    p = _horner(c, t)
    t1 = t - p / dp
    if not math.isfinite(t1):
        return t
    return t1 if abs(_horner(c, t1)) <= abs(p) else t


def _real_roots(c: tuple[float, ...]) -> list[float]:
    """All real roots of c0 + c1*t + ... (nonzero leading coefficient,
    degree 1..3) in ascending order, each polished once; raises
    NonFiniteError if a cubic's depressed coefficients overflow."""
    if len(c) == 2:
        roots = [-c[0] / c[1]]
    elif len(c) == 3:
        a, b, cc = c[2], c[1], c[0]
        disc = b * b - 4.0 * a * cc
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        # Citardauq pairing avoids cancellation in the small root.
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
        if q == 0.0:
            roots = [0.0, 0.0]
        else:
            roots = [q / a, cc / q]
    else:
        b, cc, d = c[2] / c[3], c[1] / c[3], c[0] / c[3]
        try:
            # depressed form u^3 + p*u + q with t = u - b/3
            pp = cc - b * b / 3.0
            qq = 2.0 * b ** 3 / 27.0 - b * cc / 3.0 + d
            cube = pp ** 3
        except OverflowError:
            raise NonFiniteError(f"cubic coefficients {c} overflow") from None
        shift = -b / 3.0
        disc = -4.0 * cube - 27.0 * qq * qq
        if disc > 0.0:
            # three distinct real roots (requires pp < 0)
            m = 2.0 * math.sqrt(-pp / 3.0)
            arg = 3.0 * qq / (pp * m)
            arg = min(1.0, max(-1.0, arg))
            theta = math.acos(arg) / 3.0
            roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift
                     for k in range(3)]
        else:
            inner = math.sqrt(max(0.0, qq * qq / 4.0 + cube / 27.0))
            u = _cbrt(-qq / 2.0 + inner) + _cbrt(-qq / 2.0 - inner)
            roots = [u + shift]
            if disc == 0.0 and pp != 0.0:
                roots.append(-u / 2.0 + shift)
    roots = [_polish(c, t) for t in roots]
    roots.sort()
    return roots


def solve_poly(coeffs: Sequence[float]) -> list[float]:
    """All real roots of c0 + c1*t + ... (coefficients low order first) in
    ascending order, each polished once.

    Complex-conjugate pairs are simply absent from the result; an empty
    list is a valid return.  Raises ValueError unless the degree is 1..3
    with a nonzero leading coefficient, and NonFiniteError when a cubic's
    coefficients are so far apart that its depressed form overflows.
    """
    c = tuple(float(v) for v in coeffs)
    if not 2 <= len(c) <= 4:
        raise ValueError("degree must be 1..3")
    if c[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    return _real_roots(c)


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _extrapolate(xs, ys, x: float) -> float:
    """Value at x of the quadratic through the last three (xs, ys)."""
    # Newton divided differences on abscissae shifted by the last one, for
    # conditioning: last point b, a before it, p before a
    xref = xs[-1]
    sa, sb = xs[-2] - xref, xref - xref
    ya = ys[-2]
    db = (ys[-1] - ya) / (sb - sa)
    sp, yp = xs[-3] - xref, ys[-3]
    da = (ya - yp) / (sa - sp)
    return ((db - da) / (sb - sp) * (x - xref - sa) + da) * (x - xref - sp) + yp


def extrapolate(xs: Sequence[float], ys: Sequence[float], x: float) -> float:
    """Value at x of the quadratic through the last three (xs, ys)."""
    if len(xs) < 3 or len(ys) < 3:
        raise ValueError("extrapolation needs 3 points")
    return _extrapolate(xs, ys, x)


def select_root(roots: list[float], prediction: float) -> float | None:
    """The root nearest ``prediction``, or None if there is none; ties go to
    the smaller root."""
    if not roots:
        return None
    best = roots[0]
    best_d = abs(best - prediction)
    for r in roots[1:]:
        d = abs(r - prediction)
        if d < best_d or (d == best_d and r < best):
            best, best_d = r, d
    return best


# --- the three schemes --------------------------------------------------------
# sly4 and h5 clear to a linear equation a*t = b and share their kernel.

def _linear_kernel(xs, ys, x_next: float, line, param) -> float | StopReason:
    """Kernel of a scheme whose coefficient helper ``line`` gives (a, b, scale)
    of its equation a*t = b: the root b/a, or why there is none."""
    try:
        a, b, scale = line(xs, ys, x_next, param)
    except DegenerateCoefficientError:
        return StopReason.DEGENERATE_COEFFICIENT
    if not (math.isfinite(a) and math.isfinite(b)):
        return StopReason.NON_FINITE
    if is_degenerate(a, scale):
        return StopReason.DEGENERATE_COEFFICIENT
    t = b / a
    return t if _in_range(t) else StopReason.NON_FINITE


def _sly4_line(xs, ys, x_next: float, forcing) -> tuple[float, float, float]:
    """(a, b, scale) of the fourth-order scheme's equation a*t = b, cleared
    from l4(window + new point) = f(x_mid)."""
    l3_left = _l3(xs, ys, 0)
    s4 = _cross_ratio(xs[1], xs[2], xs[3], x_next)
    target = l3_left + forcing(xs[2]) * (x_next - xs[0]) / 4.0
    # l3 on the right window must equal `target`; unwind to a cross-ratio value
    v = s4 * (1.0 - target * (xs[3] - xs[2]) * (x_next - xs[1]) / 6.0)
    return _cross_ratio_line(ys[1], ys[2], ys[3], v)


def sly4_step(prev4: Stencil, x_next: float, forcing) -> float | StopReason:
    """Advance the fourth-order scheme: solve l4(prev4 + new point) = f(x_mid).

    ``forcing`` is a callable of x (the middle abscissa of the five-point
    window).  The cleared equation is linear in the new ordinate.
    """
    if len(prev4) != 4:
        raise ValueError("sly4_step needs 4 previous points")
    return _linear_kernel(prev4.xs, prev4.ys, x_next, _sly4_line, forcing)


def _slx3_coeffs(ys, forcing: ForcingTerm) -> tuple[float, ...]:
    """Cleared polynomial of the third-order scheme on a uniform lattice
    (S = 4), low order first, with degenerate leading coefficients dropped."""
    y0, y1, y2 = ys
    common = 4.0 * (y2 - y1) * (y1 - y0)
    # linear part: 24 (y1 - y0)(t - y2) - 6 (y2 - y0)(t - y1)
    lin1 = 24.0 * (y1 - y0) - 6.0 * (y2 - y0)
    lin0 = -24.0 * y2 * (y1 - y0) + 6.0 * y1 * (y2 - y0)
    if isinstance(forcing, Constant):
        c = forcing.c
        coeffs = (lin0 - c * common * y0 * y2,
                  lin1 + c * common * (y0 + y2),
                  -c * common)
    elif isinstance(forcing, IdentityInY):
        if not forcing.stencil_mean:
            # rhs(t) = t
            coeffs = (lin0,
                      lin1 - common * y0 * y2,
                      common * (y0 + y2),
                      -common)
        else:
            # rhs(t) = (y0 + y1 + y2 + t)/4
            s3 = y0 + y1 + y2
            q = common / 4.0
            coeffs = (lin0 - q * s3 * y0 * y2,
                      lin1 - q * (y0 * y2 - s3 * (y0 + y2)),
                      -q * (s3 - y0 - y2),
                      -q)
    else:
        raise ValueError("slx3 forcing must be constant or the identity in y")
    # drop degenerate leading coefficients (scale-aware)
    scale = max(map(abs, coeffs))
    n = len(coeffs)
    while n > 2 and is_degenerate(coeffs[n - 1], scale):
        n -= 1
    if n < len(coeffs):
        coeffs = coeffs[:n]
        scale = max(map(abs, coeffs))
    # a NaN scale disables the tolerance test, not the exact zero test
    if coeffs[-1] == 0.0 or is_degenerate(coeffs[-1], scale):
        raise DegenerateCoefficientError("scheme polynomial degenerates")
    return coeffs


def _slx3_kernel(xs, ys, x_next: float, forcing: ForcingTerm) -> float | StopReason:
    try:
        roots = _real_roots(_slx3_coeffs(ys, forcing))
    except DegenerateCoefficientError:
        return StopReason.DEGENERATE_COEFFICIENT
    except NonFiniteError:
        return StopReason.NON_FINITE
    if not roots:
        return StopReason.NO_REAL_ROOT
    # the prediction matters only when choosing among several roots
    t = roots[0] if len(roots) == 1 else select_root(roots, _extrapolate(xs, ys, x_next))
    return t if _in_range(t) else StopReason.NON_FINITE


def slx3_step(prev3: Stencil, x_next: float, forcing: ForcingTerm) -> float | StopReason:
    """Advance the third-order hodograph scheme on a uniform lattice.

    Clears m3(prev3 + new point) = rhs into a polynomial of degree 2
    (constant forcing) or 3 (identity forcing) and keeps the real root nearest
    the quadratic through prev3 at ``x_next``; no real root means a barrier.
    """
    if len(prev3) != 3:
        raise ValueError("slx3_step needs 3 previous points")
    return _slx3_kernel(prev3.xs, prev3.ys, x_next, forcing)


def _h5_line(xs, ys, x_next: float, c: float) -> tuple[float, float, float]:
    """(a, b, scale) of the six-point scheme's equation a*t = b; the
    abscissae do not enter on a uniform lattice."""
    r3 = _cross_ratio(ys[0], ys[1], ys[2], ys[3])
    r4 = _cross_ratio(ys[1], ys[2], ys[3], ys[4])
    a_r5, b_r5, scale_r = _h5_r5_line(r3, r4, c)
    if is_degenerate(a_r5, scale_r):
        raise DegenerateCoefficientError("R5 coefficient vanishes")
    return _cross_ratio_line(ys[2], ys[3], ys[4], b_r5 / a_r5)


def h5_step(prev5: Stencil, x_next: float, c: float) -> float | StopReason:
    """Advance the six-point product-group scheme on a uniform lattice.

    The equation h5_uniform(R3, R4, R5) = c is linear in R5, and R5 is a
    linear-fractional function of the new ordinate, so the cleared equation
    is linear in it.
    """
    if len(prev5) != 5:
        raise ValueError("h5_step needs 5 previous points")
    return _linear_kernel(prev5.xs, prev5.ys, x_next, _h5_line, c)


# --- trajectory driver --------------------------------------------------------

def _check_lattice(seed: Stencil, h: float, n_steps: int):
    """Refuse a lattice x0 + n*h that overflows, that the seed does not fit,
    or whose rounded abscissae may stop being strictly monotone."""
    xs, x0 = seed.xs, seed.xs[0]
    x_end = x0 + (len(xs) + n_steps - 1) * h
    if not math.isfinite(x_end):
        raise NonFiniteError("the lattice abscissae overflow")
    for k, x in enumerate(xs):
        expected = x0 + k * h
        if abs(x - expected) > 1e-6 * abs(h) + 4.0 * math.ulp(expected):
            raise ValueError("seed abscissae inconsistent with the uniform lattice rule")
    if not ((xs[1] - xs[0]) * h > 0.0 and (x0 + len(xs) * h - xs[-1]) * h > 0.0):
        raise ValueError("the lattice does not continue the seed monotonically")
    # rounding x0 + n*h is monotone in n, and a step this far above the
    # spacing of the floats keeps each rounded step strict
    if not abs(h) > 4.0 * math.ulp(max(abs(x0), abs(x_end))):
        raise ValueError(f"step {h!r} is too small for abscissae up to {x_end!r}")


def integrate(spec: SchemeSpec, seed: Stencil, n_steps: int) -> Trajectory:
    """Advance the seed up to ``n_steps`` lattice steps with the scheme's
    kernel, collecting the new points.

    Returns the partial trajectory and the reason extension ceased; scheme
    failures surface as stop reasons, never as exceptions.  Before the first
    step, a negative step count, a seed that does not fit the spec, or a
    lattice whose abscissae may not stay strictly monotone raise ValueError;
    a lattice whose last abscissa overflows raises NonFiniteError.
    """
    if n_steps < 0:
        raise ValueError(f"step count must be non-negative, got {n_steps}")
    arity = spec.arity
    if len(seed) != arity:
        raise ValueError(f"{spec.scheme.value} needs a {arity}-point seed, got {len(seed)}")
    f = spec.forcing
    if spec.scheme is SchemeKind.SLY4:
        kernel = _linear_kernel
        params = (_sly4_line, (lambda _x, c=f.c: c) if isinstance(f, Constant) else f.fn)
    elif spec.scheme is SchemeKind.SLX3:
        kernel = _slx3_kernel
        params = (f,)
    else:
        kernel = _linear_kernel
        params = (_h5_line, f.c)
    h = spec.lattice.h
    _check_lattice(seed, h, n_steps)
    x0 = seed.xs[0]
    out_xs, out_ys = list(seed.xs), list(seed.ys)
    xs, ys = list(seed.xs), list(seed.ys)  # the rolling window
    stop = StopReason.COMPLETED
    for n in range(arity, arity + n_steps):
        x = x0 + n * h
        y = kernel(xs, ys, x, *params)
        if y.__class__ is StopReason:
            stop = y
            break
        xs.append(x)
        del xs[0]
        ys.append(y)
        del ys[0]
        out_xs.append(x)
        out_ys.append(y)
    return Trajectory(tuple(out_xs), tuple(out_ys), stop, spec.scheme.value, h)
