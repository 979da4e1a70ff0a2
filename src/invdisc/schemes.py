"""Invariant difference schemes: advance a stencil one lattice step by
solving the invariant equation for the new ordinate.

The fourth-order scheme (Mobius maps of y) is a recursion on the ratio of
successive ordinate differences, and the six-point product-group scheme
reduces to a linear equation a*t = b in the new ordinate t.  The
third-order hodograph scheme sets m3 to its forcing, which clears to one
polynomial in the new difference u = t - y2: a quadratic for constant
forcing, a cubic when the forcing is the dependent variable itself or its
stencil mean.  A degenerate leading coefficient drops the polynomial one
degree, down to the linear weakly invariant form.  Each step predicts
y0 - 3 y1 + 3 y2, the quadratic through the window at the next node; the
degree its descent ends on keeps its real root nearest it, and
:func:`_polish` polishes a cubic's root.

Each scheme has one straight-line run loop on plain floats, ``_sly4_run``,
``_slx3_run`` or ``_h5_run``, which advances a window one step of a uniform
lattice per node, writes ordinates only and reads no spacing.  ``slx3`` and
``h5`` evaluate each step's invariants and R5 line inline, with the float
operations of :mod:`invdisc.discrete`.  ``_slx3_run`` runs every forcing: a
cubic takes its roots from :func:`_cubic_roots` and keeps one by
:func:`select_root`, and a quadratic, which is all a constant forcing ever
clears to, finds and keeps its root inline.  Each loop carries what the next window would
recompute: ``slx3`` two ordinate differences, ``h5`` its checked R4 (the next
R3) and differences, ``sly4`` ρ, the deficit of the y cross-ratio from 4, a
ratio deficit, the last difference and a compensated sum.  ``sly4`` takes
from ρ what :func:`_sly4_decrements` yields per step, which alone reads
sly4's nodes.  A constant forcing costs nothing per step.  :func:`integrate`
alone knows from how many points each scheme steps; in one dispatch over the
scheme it resolves the seed into its loop's start state, the schemes' only
calls into :mod:`invdisc.discrete`, after one lattice check, and runs the
loop; the trajectory forms the abscissae the run reached when ``xs`` is
first read.  Each ``*_step(stencil, x_next, forcing)`` is its first step on
the lattice through the stencil and x_next.
"""
from __future__ import annotations

import itertools
import math
from typing import Sequence

from .core import (Constant, DEGENERACY_RTOL, DegenerateCoefficientError, ForcingTerm,
                   FunctionOfX, NonFiniteError, OVERFLOW_LIMIT, SCHEME_ARITY,
                   SchemeKind, SchemeSpec, Stencil, StopReason, Trajectory, Uniform)
from .discrete import _MIN_NORMAL, _cross_ratio, _ratio_r_over_s


# --- closed-form real roots ---------------------------------------------------

def _polish(c0: float, c1: float, c2: float, c3: float, t: float) -> float:
    """One Newton iteration on c0 + c1*t + c2*t^2 + c3*t^3 from the root t,
    accepted only if it reduces the residual: at (near-)multiple roots both
    p and p' are noise-level and the raw step can jump to an unrelated
    point.  A lower degree passes zero for the coefficients it lacks.  Only
    :func:`solve_poly`, and on a cubic's root ``_slx3_run`` and
    :func:`_cubic_roots`, call it."""
    dp = (3.0 * c3 * t + 2.0 * c2) * t + c1
    if dp != 0.0 and math.isfinite(dp):
        p = ((c3 * t + c2) * t + c1) * t + c0
        t1 = t - p / dp
        if math.isfinite(t1) and abs(((c3 * t1 + c2) * t1 + c1) * t1 + c0) <= abs(p):
            return t1
    return t


def _quadratic_roots(c0: float, c1: float, c2: float) -> tuple[float, ...]:
    """Real roots of c0 + c1*t + c2*t^2 (c2 != 0) as an ascending pair, not
    polished, or () when there are none."""
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    # Citardauq pairing avoids cancellation in the small root.
    q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0.0 else -0.5 * sq
    lo, hi = (0.0, 0.0) if q == 0.0 else (q / c2, c0 / q)
    return (hi, lo) if hi < lo else (lo, hi)


def _cubic_roots(c0: float, c1: float, c2: float, c3: float) -> list[float]:
    """Real roots of c0 + c1*t + c2*t^2 + c3*t^3 (c3 != 0) in ascending
    order; raises NonFiniteError if the depressed coefficients overflow.

    The depressed form's shift -c2/(3c3) cancels the smaller roots of a cubic
    with one far larger root, so only one of its real roots, r, is kept: the
    largest where it has three.  The rest runs in s = t/2^k, where the
    cubic's coefficients, scaled exactly by powers of 2, are below 1 and its
    roots below 4 (Fujiwara's bound): r is polished and divided out, from
    the constant term up where the sum and the product of the other two
    roots say that neither is larger, else from the leading term down, the
    stable order of each.  The real roots of the quotient are the other two,
    not polished."""
    b, cc, d = c2 / c3, c1 / c3, c0 / c3
    try:
        # depressed form u^3 + p*u + q with t = u - b/3
        pp = cc - b * b / 3.0
        qq = 2.0 * b ** 3 / 27.0 - b * cc / 3.0 + d
        cube = pp ** 3
    except OverflowError:
        raise NonFiniteError(f"cubic coefficients {(c0, c1, c2, c3)} overflow") from None
    shift = -b / 3.0
    disc = -4.0 * cube - 27.0 * qq * qq
    if disc > 0.0:
        # three distinct real roots (requires pp < 0), of which r is the largest
        m = 2.0 * math.sqrt(-pp / 3.0)
        arg = 3.0 * qq / (pp * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        r = max([m * math.cos(theta - 2.0 * math.pi * j / 3.0) + shift for j in range(3)],
                key=abs)
    else:  # one real root, or a simple one beside a double one
        inner = math.sqrt(max(0.0, qq * qq / 4.0 + cube / 27.0))
        r = _cbrt(-qq / 2.0 + inner) + _cbrt(-qq / 2.0 - inner) + shift
    # k is the least integer with |c_i| < 2^(e3 + (3 - i) k) for every
    # nonzero c_i, i < 3, where |c3| is in [2^(e3 - 1), 2^e3)
    e3 = math.frexp(c3)[1]
    k = max([(math.frexp(c)[1] - e3 + n - 1) // n for c, n in ((c2, 1), (c1, 2), (c0, 3)) if c]
            or [0])
    d0, d1, d2 = math.ldexp(c0, -3 * k - e3), math.ldexp(c1, -2 * k - e3), math.ldexp(c2, -k - e3)
    d3 = math.ldexp(c3, -e3)
    r = _polish(d0, d1, d2, d3, math.ldexp(r, -k))
    rd = r * d3
    q1 = d2 + rd  # -d3 times the sum of the other two roots
    if abs(q1) <= 2.0 * abs(rd) and abs(d0) < abs(rd * r * r):
        q0 = -d0 / r
        q1 = (q0 - d1) / r
    else:
        q0 = d1 + r * q1
    return sorted([math.ldexp(s, k) for s in (r, *_quadratic_roots(q0, q1, d3))])


def solve_poly(coeffs: Sequence[float]) -> list[float]:
    """All real roots of c0 + c1*t + ... (coefficients low order first) in
    ascending order, each polished once by :func:`_polish`.

    Complex-conjugate pairs are simply absent from the result; an empty
    list is a valid return.  Raises ValueError unless the degree is 1..3
    with a nonzero leading coefficient, and NonFiniteError when a
    coefficient is not finite or a cubic's coefficients are so far apart
    that its depressed form overflows.
    """
    c = tuple(float(v) for v in coeffs)
    if not 2 <= len(c) <= 4:
        raise ValueError("degree must be 1..3")
    if not all(map(math.isfinite, c)):
        raise NonFiniteError(f"coefficients {c} are not all finite")
    if c[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    roots = (_cubic_roots(*c) if len(c) == 4 else _quadratic_roots(*c) if len(c) == 3
             else (-c[0] / c[1],))
    c = c + (0.0,) * (4 - len(c))
    return sorted(_polish(*c, t) for t in roots)


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def extrapolate(xs: Sequence[float], ys: Sequence[float], x: float) -> float:
    """Value at x of the quadratic through the last three (xs, ys)."""
    if len(xs) < 3 or len(ys) < 3:
        raise ValueError("extrapolation needs 3 points")
    if xs[-3] == xs[-2] or xs[-2] == xs[-1] or xs[-3] == xs[-1]:
        raise ValueError(f"extrapolation needs distinct abscissae, got {tuple(xs[-3:])}")
    # Newton divided differences on abscissae shifted by the last one, for
    # conditioning: last point b, a before it, p before a
    xref = xs[-1]
    sa, sb = xs[-2] - xref, xref - xref
    ya = ys[-2]
    db = (ys[-1] - ya) / (sb - sa)
    sp, yp = xs[-3] - xref, ys[-3]
    da = (ya - yp) / (sa - sp)
    return ((db - da) / (sb - sp) * (x - xref - sa) + da) * (x - xref - sp) + yp


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
# Each run loop is (ys, state, steps, out_ys) -> StopReason: from the
# seed ordinates ys and the start state that integrate resolved from them,
# it advances the window one lattice step per item of steps, appends each
# new ordinate to out_ys, and returns why it stopped, COMPLETED when the
# steps run out; sly4 takes each item from its deficit, and slx3 and h5
# only count them.  The window lives in local floats, and a difference or
# cross-ratio that the next window would recompute from the same operands
# is carried over.  A step calls Python code only in _slx3_run, for a cubic's
# roots, their choice and polish, and in sly4's decrements, for its function
# of x.  Inline checks |d| <= DEGENERACY_RTOL * scale are core.is_degenerate,
# and abs(t) <= OVERFLOW_LIMIT is false for NaN and +-inf as well.  Each
# scale is max() of magnitudes taken once per step, written out as the left
# fold m = v if v > m else m in max()'s argument order: the same float as
# max(), which keeps a NaN first operand and skips a later one, without a call.

def _sly4_run(ys, state, decrements, out_ys) -> StopReason:
    """Run loop of the fourth-order scheme, l4(window + new point) = f(x2),
    on a uniform lattice: the y cross-ratio of (y1, y2, y3, t) is 4 + ρ, and
    each step takes the next of ``decrements`` from ρ.  With d = y3 - y2 and
    e = d/(y2 - y1) - 1, a step is e <- (2e - ρ)/(2 - e + ρ), d <- d·(1 + e),
    and d is added to a Kahan sum from y3; ``state`` is the seed's (ρ, e, d)."""
    rho, e, d = state
    s, comp = ys[3], 0.0  # comp: the compensation of the sum s
    for dr in decrements:
        rho -= dr
        q = 2.0 - e + rho
        if q == 0.0:  # the new point is at infinity
            return StopReason.NON_FINITE
        e = (2.0 * e - rho) / q
        d *= 1.0 + e
        if d == 0.0:  # t would repeat y3 (y3 = y1 made e = -2), or d underflows
            return StopReason.DEGENERATE_COEFFICIENT
        t = s + (dc := d - comp)
        comp, s = (t - s) - dc, t
        if not abs(t) <= OVERFLOW_LIMIT:
            return StopReason.NON_FINITE
        out_ys.append(t)
    return StopReason.COMPLETED


def _slx3_run(ys, state, steps, out_ys) -> StopReason:
    """Run loop of the third-order scheme on a uniform lattice (S = 4) in the
    new difference u = t - y2.  With a = y1 - y0, b = y2 - y1, s = a + b,
    K = 4ab and the forcing f0 + f1 u at the new point (f0 = c + w (y0 + y1
    + y2) + fb y2, f1 = fb for ``state`` = (c, w, fb)), m3 = forcing is
    -K f1 u^3 - K (f0 + f1 s) u^2 + (18a - 6b - K f0 s) u - 6 s b = 0.  A
    leading coefficient at most DEGENERACY_RTOL times the largest drops it
    one degree; the last one's real root nearest u_p = 2b - a is kept, by
    :func:`select_root` and polished if cubic.  No root, or b = 0 (m3 has no
    value), stops the step.  A constant forcing, the state (c, 0, 0), forms
    no window sum and no u^3 term, and shifts only y2; where its K is not
    finite (a NaN scale among such), -K·0 would be NaN and take the cubic
    path to a NaN root, so the step stops NON_FINITE unsolved."""
    c, w, fb = state
    y0, y1, y2 = ys
    a, b = y1 - y0, y2 - y1
    for _ in steps:
        if b == 0.0:
            return StopReason.DEGENERATE_COEFFICIENT
        s, k = a + b, 4.0 * a * b
        if fb:
            f0 = (c + w * (y0 + y1 + y2) if w else c) + fb * y2
            c0, c1 = -6.0 * s * b, 18.0 * a - 6.0 * b - k * f0 * s
            c2, c3 = -k * (f0 + fb * s), -k * fb
        elif k - k:  # NaN, a true float, where K is infinite or NaN
            return StopReason.NON_FINITE
        else:
            kc = k * c
            c0, c1, c2 = -6.0 * s * b, 18.0 * a - 6.0 * b - kc * s, -kc
        m0, m1, m2 = abs(c0), abs(c1), abs(c2)
        m01 = m1 if m1 > m0 else m0
        m012 = m2 if m2 > m01 else m01
        up = 2.0 * b - a  # y0 - 3 y1 + 3 y2, less y2
        if fb and not (m3 := abs(c3)) <= DEGENERACY_RTOL * (m3 if m3 > m012 else m012):
            u = _polish(c0, c1, c2, c3, select_root(_cubic_roots(c0, c1, c2, c3), up))
        elif not m2 <= DEGENERACY_RTOL * m012:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc < 0.0:
                return StopReason.NO_REAL_ROOT
            # _quadratic_roots and select_root, float for float: the constant
            # forcings, most slx3 steps, make no call
            sq = math.sqrt(disc)
            q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0.0 else -0.5 * sq
            lo, hi = (0.0, 0.0) if q == 0.0 else (q / c2, c0 / q)
            if hi < lo:
                lo, hi = hi, lo
            u = hi if abs(hi - up) < abs(lo - up) else lo
        elif not m1 <= DEGENERACY_RTOL * m01:
            u = -c0 / c1
        else:
            return StopReason.DEGENERATE_COEFFICIENT
        t = y2 + u
        if not abs(t) <= OVERFLOW_LIMIT:
            return StopReason.NON_FINITE
        out_ys.append(t)
        if fb:
            y0, y1 = y1, y2
        a, b, y2 = b, t - y2, t
    return StopReason.COMPLETED


def _h5_run(ys, state, steps, out_ys) -> StopReason:
    """Run loop of the six-point scheme: the y cross-ratios R3 and R4 of the
    window give R5 by :func:`discrete._h5_r5_line`, inline, and cross-ratio(y2,
    y3, y4, t) = R5 clears to a*t = b.  The abscissae do not enter on a uniform
    lattice.  ``state`` is the first window's R3 and c; each step's R4 is
    discrete._cross_ratio inline, and, checked and with its differences and
    their magnitudes, the next R3."""
    r3, c = state
    _, y1, y2, y3, y4 = ys
    dy21, dy31, dy32 = y2 - y1, y3 - y1, y3 - y2
    a21, a31, a32 = abs(dy21), abs(dy31), abs(dy32)
    for _ in steps:
        # R4 = cross-ratio(y1, y2, y3, y4)
        dy42, dy43 = y4 - y2, y4 - y3
        a42, a43 = abs(dy42), abs(dy43)
        tol = a31 if a31 > a42 else a42
        tol = a43 if a43 > tol else tol
        tol = DEGENERACY_RTOL * (a21 if a21 > tol else tol)
        den = dy43 * dy21
        if a43 <= tol or a21 <= tol or den == 0.0:
            return StopReason.DEGENERATE_COEFFICIENT
        num = dy42 * dy31
        if _MIN_NORMAL <= abs(den) < math.inf and (
                num == 0.0 or _MIN_NORMAL <= abs(num) < math.inf):
            r4 = num / den
        else:  # paired, as in discrete._cross_ratio
            r4 = (dy42 / dy43) * (dy31 / dy21)
        # a_r5 R5 = b_r5 and its scale, as discrete._h5_r5_line forms them
        k = 2.0 * c * (r3 - 4.0) * (r4 - 4.0)
        m3, m4, mk = abs(r3), abs(r4), abs(k)
        scale = m4 if m4 > m3 else m3
        scale = 16.0 if 16.0 > scale else scale
        a_r5 = 16.0 + r4 - 5.0 * r3 - k
        b_r5 = -3.0 * r4 ** 2 + 32.0 * r4 - r3 * r4 - 16.0 * r3 - 4.0 * k
        if abs(a_r5) <= DEGENERACY_RTOL * (mk if mk > scale else scale):
            return StopReason.DEGENERATE_COEFFICIENT
        v = b_r5 / a_r5
        vd = v * dy32
        a = dy42 - vd
        b = y3 * dy42 - v * y4 * dy32
        if not (math.isfinite(a) and math.isfinite(b)):
            return StopReason.NON_FINITE
        avd = abs(vd)
        if abs(a) <= DEGENERACY_RTOL * (avd if avd > a42 else a42):
            return StopReason.DEGENERATE_COEFFICIENT
        t = b / a
        if not abs(t) <= OVERFLOW_LIMIT:
            return StopReason.NON_FINITE
        out_ys.append(t)
        r3, dy21, dy31, dy32 = r4, dy32, dy42, dy43
        a21, a31, a32 = a32, a42, a43
        y2, y3, y4 = y3, y4, t
    return StopReason.COMPLETED


def _step(scheme: SchemeKind, stencil: Stencil, x_next: float,
          forcing: ForcingTerm) -> float | StopReason:
    """The new ordinate of :func:`integrate`'s first step on the lattice
    through ``stencil`` and ``x_next``, h = (x_next - x0)/n, or its stop."""
    h = (x_next - stencil.xs[0]) / len(stencil)
    traj = integrate(SchemeSpec(scheme, forcing, Uniform(h)), stencil, 1)
    return traj.ys[-1] if traj.stop is StopReason.COMPLETED else traj.stop


def sly4_step(prev4: Stencil, x_next: float,
              forcing: Constant | FunctionOfX) -> float | StopReason:
    """Advance the fourth-order scheme on a uniform lattice: solve
    l4(prev4 + new point) = f(x0 + 2h) for f a constant or a function of x.
    This is :func:`integrate`'s first step on the lattice x0 + k*h through
    ``prev4`` and x_next, h = (x_next - x0)/4 (ValueError if there is none).
    """
    return _step(SchemeKind.SLY4, prev4, x_next, forcing)


def slx3_step(prev3: Stencil, x_next: float, forcing: ForcingTerm) -> float | StopReason:
    """Advance the third-order hodograph scheme on a uniform lattice.

    Clears m3(prev3 + new point t) = the forcing into a polynomial in
    u = t - y2 of degree 2 (constant forcing) or 3 (identity forcing), which
    a degenerate leading coefficient drops one degree, and keeps the real
    root nearest y0 - 3 y1 + 3 y2, the quadratic through prev3 at the next
    node; no real root means a barrier, and y2 = y1, where m3 has no value,
    stops as degenerate.
    """
    return _step(SchemeKind.SLX3, prev3, x_next, forcing)


def h5_step(prev5: Stencil, x_next: float, forcing: Constant) -> float | StopReason:
    """Advance the six-point product-group scheme on a uniform lattice.

    The equation h5_uniform(R3, R4, R5) = c, for ``forcing`` Constant(c), is
    linear in R5, and R5 is a linear-fractional function of the new ordinate,
    so the cleared equation is linear in it.
    """
    return _step(SchemeKind.H5, prev5, x_next, forcing)


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
    x_next = x0 + len(xs) * h  # directions, not products of spacings, which underflow
    if not (xs[0] < xs[1] and xs[-1] < x_next if h > 0.0
            else xs[0] > xs[1] and xs[-1] > x_next):
        raise ValueError("the lattice does not continue the seed monotonically")
    # rounding x0 + n*h is monotone in n, and a step this far above the
    # spacing of the floats keeps each rounded step strict
    if not abs(h) > 4.0 * math.ulp(max(abs(x0), abs(x_end))):
        raise ValueError(f"step {h!r} is too small for abscissae up to {x_end!r}")


def _sly4_decrements(seed: Stencil, forcing, h: float, n_steps: int):
    """The decrement of the deficit ρ for each of ``n_steps`` sly4 steps from
    ``seed`` on the lattice x0 + k*h, lazily.  Where S = 4, l4 = f(x2) takes
    2h³·f(x2) from ρ, x2 = x0 + (k - 2)h for new node k, formed in an order
    that overflows only where that product does.  The three windows after
    the seed hold seed nodes and add S - 4 to their y cross-ratio, to first
    order in the seed's offsets from the lattice, so the first four
    decrements are less by the change of S - 4 from window to window.  Under
    Constant(c) every later decrement is the one float 2h³·c, repeated."""
    x0 = seed.xs[0]
    if isinstance(forcing, Constant):
        c = forcing.c
        fn, rest = (lambda _x: c), itertools.repeat(h * c * h * h * 2.0, n_steps - 4)
    else:
        fn = forcing.fn
        rest = (h * fn(x0 + k * h) * h * h * 2.0 for k in range(6, 2 + n_steps))
    xs = seed.xs + (x0 + 4 * h, x0 + 5 * h, x0 + 6 * h)[:n_steps]
    excess = [0.0, *((xs[k + 3] - xs[k + 1]) / (xs[k + 3] - xs[k + 2])
                     * ((xs[k + 2] - xs[k]) / (xs[k + 1] - xs[k])) - 4.0
                     for k in range(1, len(xs) - 3)), 0.0]
    return itertools.chain(
        (h * fn(x0 + (k + 2) * h) * h * h * 2.0 - (excess[k + 1] - excess[k])
         for k in range(min(n_steps, 4))), rest)


def integrate(spec: SchemeSpec, seed: Stencil, n_steps: int) -> Trajectory:
    """Advance the seed up to ``n_steps`` lattice steps with the scheme's run
    loop, collecting the new ordinates; the trajectory forms the new
    abscissae x0 + k*h when ``xs`` is first read.

    Returns the partial trajectory and the reason extension ceased; scheme
    failures surface as stop reasons, never as exceptions.  Once the lattice
    is accepted, ``n_steps`` = 0 returns the seed with COMPLETED.  Before the
    first step, a negative step count, a seed of other than the scheme's
    arity, or a lattice whose abscissae may not stay strictly monotone raise
    ValueError; a lattice whose last abscissa overflows raises NonFiniteError.
    A seed without its start state (sly4's ρ = 4(R/S - 1) on its abscissae
    and e, h5's first R3) stops the first step, and no loop starts.
    """
    if n_steps < 0:
        raise ValueError(f"step count must be non-negative, got {n_steps}")
    scheme, forcing, h = spec.scheme, spec.forcing, spec.lattice.h
    arity = SCHEME_ARITY[scheme]
    if len(seed) != arity:
        raise ValueError(f"{scheme.value} steps from {arity} points, got {len(seed)}")
    _check_lattice(seed, h, n_steps)
    if n_steps == 0:
        return Trajectory(seed.xs, seed.ys, StopReason.COMPLETED, scheme.value, h)
    # SchemeSpec holds only a forcing its scheme takes; slx3 and h5 only
    # count the steps
    ys, out_ys, steps = seed.ys, list(seed.ys), range(n_steps)
    try:
        if scheme is SchemeKind.SLY4:
            d2, d = ys[2] - ys[1], ys[3] - ys[2]
            rho = 4.0 * (_ratio_r_over_s(seed.xs, ys, 0) - 1.0)
            run, state = _sly4_run, (rho, (d - d2) / d2, d)
            steps = _sly4_decrements(seed, forcing, h, n_steps)
        elif scheme is SchemeKind.SLX3:
            # rhs(t) = c, t, or the stencil mean (y0 + y1 + y2 + t)/4
            run, state = _slx3_run, ((forcing.c, 0.0, 0.0) if isinstance(forcing, Constant)
                                     else (0.0, 0.25, 0.25) if forcing.stencil_mean
                                     else (0.0, 0.0, 1.0))
        else:
            run, state = _h5_run, (_cross_ratio(*ys[:4]), forcing.c)
    except (DegenerateCoefficientError, NonFiniteError, ZeroDivisionError) as exc:
        stop = (StopReason.NON_FINITE if isinstance(exc, NonFiniteError)
                else StopReason.DEGENERATE_COEFFICIENT)
    else:
        stop = run(ys, state, steps, out_ys)
    return Trajectory._on_lattice(seed.xs, tuple(out_ys), stop, scheme.value, h)
