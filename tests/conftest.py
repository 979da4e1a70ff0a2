import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from invdisc import (Constant, DegenerateCoefficientError, ExactSolution, Jet,
                     NonFiniteError, SchemeKind, StopReason, Trajectory, compose_jet,
                     kx_invariants, reference)
from invdisc.cli import ConfigError
from invdisc.core import OVERFLOW_LIMIT, is_degenerate
from invdisc.discrete import _cross_ratio, _cross_ratio_line, _h5_r5_line, _ratio_r_over_s
from invdisc.schemes import h5_step, select_root, slx3_step, sly4_step

#: each scheme's public step function
STEPS = {SchemeKind.SLY4: sly4_step, SchemeKind.SLX3: slx3_step, SchemeKind.H5: h5_step}


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


@pytest.fixture(scope="session")
def example_1_truth():
    """Example 1's fourth-order equation solved by mpmath's Taylor method at
    20 digits (about 1.5 s, paid on first use): its value at a float
    abscissa, as an mpf."""
    with mp.workdps(20):
        def rhs(x, u):
            y0, y1, y2, y3 = u
            return [y1, y2, y3, y1 * mp.cos(x) + 4 * y2 * y3 / y1 - 3 * y2 ** 3 / y1 ** 2]

        sol = mp.odefun(rhs, 1, [mp.mpf(1), mp.mpf(-1), mp.mpf(-2.5), mp.mpf(5)])

    def at(x):
        with mp.workdps(20):
            return sol(mp.mpf(x))[0]
    return at


def polynomial_jet(coeffs: tuple[float, ...], x: float) -> Jet:
    """Jet of a polynomial given by coefficients (low order first)."""
    ds = []
    cs = list(coeffs)
    for _ in range(6):
        ds.append(sum(c * x ** i for i, c in enumerate(cs)))
        cs = [i * c for i, c in enumerate(cs)][1:]
    return Jet(x, tuple(ds))


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


def _atan_derivatives(x: float) -> tuple[float, ...]:
    w = 1.0 / (1.0 + x * x)
    return (math.atan(x), w, -2.0 * x * w ** 2, (6.0 * x * x - 2.0) * w ** 3,
            24.0 * x * (1.0 - x * x) * w ** 4,
            24.0 * (5.0 * x ** 4 - 10.0 * x * x + 1.0) * w ** 5)


def _tan_atan_jet(x: float) -> Jet:
    inner = Jet(x, tuple(math.sqrt(1.5) * d for d in _atan_derivatives(x)))
    return compose_jet(reference._tan_outer(inner.d[0]), inner)


def _power_orbit_jet(x: float) -> Jet:
    inner, p = mobius_jet(1.0, 1.0, 1.0, -3.0, x), math.sqrt(0.75)
    outer, falling = [], 1.0  # u^p and its derivatives p(p-1)..(p-k+1) u^(p-k)
    for k in range(6):
        outer.append(falling * inner.d[0] ** (p - k))
        falling *= p - k
    return compose_jet(tuple(outer), inner)


#: Orbits of one-parameter subgroups of the product group, on which the
#: fifth-order invariant h5 is a nonzero constant (ROADMAP item 21):
#: tan(sqrt(1.5) atan x) has c = -4 and a pole at x = 3.3726;
#: ((x + 1)/(x - 3))^sqrt(0.75), defined for x < -1 and x > 3, has c = 8.
TAN_ATAN_ORBIT = ExactSolution(lambda x: math.tan(math.sqrt(1.5) * math.atan(x)),
                               _tan_atan_jet)
POWER_ORBIT = ExactSolution(lambda x: ((x + 1.0) / (x - 3.0)) ** math.sqrt(0.75),
                            _power_orbit_jet)


def jtilde5(jet: Jet) -> float:
    """Simplified fifth-order invariant, equal to J5 + 4*J3^2."""
    _, y1, y2, y3, y4, y5 = jet.d
    if y1 == 0.0:
        raise DegenerateCoefficientError("invariants undefined where y' = 0")
    return y5 / y1 - 5.0 * y2 * y4 / y1 ** 2 + 5.0 * y2 ** 2 * y3 / y1 ** 3


def h5_differential_hodograph(jet: Jet) -> float:
    """``h5_differential`` through the hodograph family ``kx_invariants``
    instead of the Schwarzian hierarchy: the same value, by another route."""
    t = kx_invariants(jet)
    return t.fifth / t.third ** 2 - 1.25 * t.fourth ** 2 / t.third ** 3


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
        return (*u[1:], rhs(x, *u))

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


def csv_reference_reader(path) -> Trajectory:
    """Test-only copy of the CSV reader that strips and inspects every line
    before it parses a data row; ``cli.read_trajectory_csv`` parses data rows
    first and must agree with it on every input, errors included."""
    meta = {"scheme": "unknown", "h": "0", "stop": StopReason.COMPLETED.value}
    meta_line = {}
    xs, ys = [], []
    header_seen = False
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
            meta_line[key.strip()] = lineno
            continue
        if not header_seen:
            if line != "x,y":
                raise ConfigError(f"{path}: expected header 'x,y', got {line!r}")
            header_seen = True
            continue
        sx, _, sy = line.partition(",")
        try:
            xs.append(float(sx))
            ys.append(float(sy))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: expected two numbers, got {line!r}") from None
    if not xs:
        raise ConfigError(f"{path}: no data rows")
    if not all(map(math.isfinite, xs + ys)):
        raise NonFiniteError(f"{path}: non-finite value in the data rows")
    if meta["stop"] not in {r.value for r in StopReason}:
        raise ConfigError(f"{path}: '# stop:' has no stop reason {meta['stop']!r}")
    if "h" not in meta_line:
        h = 0.0
    else:
        try:
            h = float(meta["h"])
        except ValueError:
            h = math.nan
        if h == 0 or not math.isfinite(h):
            raise ConfigError(f"{path}:{meta_line['h']}: '# h:' value {meta['h']!r} "
                              "is not a finite nonzero step")
    return Trajectory(tuple(xs), tuple(ys), StopReason(meta["stop"]), meta["scheme"], h)


# --- a test-only copy of the composed scheme kernels ------------------------------
# Each scheme step as a chain of small functions over the invariants of
# invdisc.discrete; the run loops of invdisc.schemes must agree with it bit
# for bit.  sly4 carries state from step to step, as its run loop does.

def _ref_linear_kernel(xs, ys, x_next, line, param):
    try:
        a, b, scale = line(xs, ys, x_next, param)
    except DegenerateCoefficientError:
        return StopReason.DEGENERATE_COEFFICIENT
    except NonFiniteError:  # a cross-ratio is NaN where the loops' a or b is
        return StopReason.NON_FINITE
    if not (math.isfinite(a) and math.isfinite(b)):
        return StopReason.NON_FINITE
    if is_degenerate(a, scale):
        return StopReason.DEGENERATE_COEFFICIENT
    t = b / a
    return t if math.isfinite(t) and abs(t) <= OVERFLOW_LIMIT else StopReason.NON_FINITE


def _ref_sly4_start(xs, ys):
    """sly4's state [rho, e, d, y, compensation] on the seed window: the
    deficit rho = 4(R/S - 1) of its y cross-ratio from 4, S its own x
    cross-ratio, the ratio deficit e = d/d2 - 1 of its last two ordinate
    differences d2 and d, and its last ordinate as a compensated sum.  Raises
    as R/S does, and DegenerateCoefficientError where d2 = 0."""
    rho = 4.0 * (_ratio_r_over_s(xs, ys, 0) - 1.0)
    d2, d = ys[2] - ys[1], ys[3] - ys[2]
    if d2 == 0.0:
        raise DegenerateCoefficientError("y2 = y1 in the seed")
    return [rho, (d - d2) / d2, d, ys[3], 0.0]


def _ref_ratio_recursion(e, rho):
    """e' = r' - 1 of the new difference ratio r' = (1 + r)/(K - 1 - r), with
    r = 1 + e and K = 4 + rho; NonFiniteError where the new point is at
    infinity."""
    q = 2.0 - e + rho
    if q == 0.0:
        raise NonFiniteError("the new point is at infinity")
    return (2.0 * e - rho) / q


def _ref_kahan_add(total, comp, v):
    """(total + v, its new compensation) by Kahan's compensated sum."""
    v -= comp
    t = total + v
    return t, (t - total) - v


def _ref_sly4_excess(xs):
    """S - 4, S the x cross-ratio of the window abscissae ``xs``, from the
    ratios of its paired differences."""
    return (xs[3] - xs[1]) / (xs[3] - xs[2]) * ((xs[2] - xs[0]) / (xs[1] - xs[0])) - 4.0


def _ref_sly4_advance(state, dr):
    """The new ordinate of one sly4 step that takes ``dr`` from the deficit,
    or its StopReason.  ``state`` moves to the new window."""
    rho, e, d, y, comp = state
    rho -= dr
    try:
        e = _ref_ratio_recursion(e, rho)
    except NonFiniteError:
        return StopReason.NON_FINITE
    d *= 1.0 + e
    if d == 0.0:
        return StopReason.DEGENERATE_COEFFICIENT
    y, comp = _ref_kahan_add(y, comp, d)
    if not abs(y) <= OVERFLOW_LIMIT:
        return StopReason.NON_FINITE
    state[:] = rho, e, d, y, comp
    return y


def _ref_sly4_stepper(seed_xs, seed_ys, forcing, h):
    """(x2, xs) -> new ordinate | StopReason over the run of step ``h`` from
    the seed, x2 each step's forcing node and xs its new window's abscissae:
    l4 = forcing(x2) takes 2h^3 forcing(x2) from the deficit, and the three
    windows after the seed, which hold seed nodes, add S - 4 to it, each in
    place of the last one's.  The seed's state, or its stop on the first
    step."""
    try:
        state = _ref_sly4_start(seed_xs, seed_ys)
    except DegenerateCoefficientError:
        return lambda x2, xs: StopReason.DEGENERATE_COEFFICIENT
    except NonFiniteError:
        return lambda x2, xs: StopReason.NON_FINITE
    excess = [0.0]  # S - 4 of each window so far, 0 on the seed and past its nodes

    def step(x2, xs):
        excess.append(_ref_sly4_excess(xs) if len(excess) < 4 else 0.0)
        return _ref_sly4_advance(state, h * forcing(x2) * h * h * 2.0 - (excess[-1] - excess[-2]))
    return step


def _ref_sly4_step(xs, ys, x_next, forcing):
    # sly4_step steps on the lattice through xs and x_next, h = (x_next - x0)/4,
    # to its node x0 + 4h, forcing taken at x0 + 2h
    h = (x_next - xs[0]) / 4
    return _ref_sly4_stepper(xs, ys, forcing, h)(xs[0] + 2 * h, (*xs[1:], xs[0] + 4 * h))


def _ref_h5_line(xs, ys, x_next, c):
    r3 = _cross_ratio(ys[0], ys[1], ys[2], ys[3])
    r4 = _cross_ratio(ys[1], ys[2], ys[3], ys[4])
    a_r5, b_r5, scale_r = _h5_r5_line(r3, r4, c)
    if is_degenerate(a_r5, scale_r):
        raise DegenerateCoefficientError("R5 coefficient vanishes")
    return _cross_ratio_line(ys[2], ys[3], ys[4], b_r5 / a_r5)


def _ref_slx3_coeffs(ys, forcing):
    """Coefficients, low order first, of the polynomial in u = t - y2 to
    which m3(ys + new point t) = rhs(t) clears on the uniform lattice: with
    a = y1 - y0, b = y2 - y1, s = y2 - y0, K = 4ab and rhs(y2 + u) = f0 + f1 u,
    24 a u - 6 s (u + b) - K (f0 + f1 u)(u + s) u, cut to the degree its
    descent ends on.  DegenerateCoefficientError where b = 0, which leaves m3
    without a value, or where the descent ends on a vanishing linear term."""
    y0, y1, y2 = ys
    a, b = y1 - y0, y2 - y1
    if b == 0.0:
        raise DegenerateCoefficientError("m3 has no value where y2 = y1")
    if isinstance(forcing, Constant):  # rhs(t) = c
        f0, f1 = forcing.c, 0.0
    elif not forcing.stencil_mean:  # rhs(t) = t
        f0, f1 = y2, 1.0
    else:  # rhs(t) = (y0 + y1 + y2 + t) / 4
        f0, f1 = (y0 + y1 + y2) / 4.0 + y2 / 4.0, 1.0 / 4.0
    s, k = a + b, 4.0 * a * b
    coeffs = (-6.0 * s * b, 18.0 * a - 6.0 * b - k * f0 * s, -k * (f0 + f1 * s), -k * f1)
    scale = max(map(abs, coeffs))
    n = len(coeffs)
    while n > 2 and is_degenerate(coeffs[n - 1], scale):
        n -= 1
    if n < len(coeffs):
        coeffs = coeffs[:n]
        scale = max(map(abs, coeffs))
    if is_degenerate(coeffs[-1], scale):
        raise DegenerateCoefficientError("scheme polynomial degenerates")
    return coeffs


def _ref_horner(c, t):
    acc = 0.0
    for k, ck in enumerate(reversed(c)):
        acc = acc * t + ck if k else ck
    return acc


def _ref_polish(c, t):
    """One Newton step on the cubic c from its root t, kept only if it does
    not raise the residual."""
    dp = (3.0 * c[3] * t + 2.0 * c[2]) * t + c[1]
    if dp == 0.0 or not math.isfinite(dp):
        return t
    p = _ref_horner(c, t)
    t1 = t - p / dp
    if not math.isfinite(t1):
        return t
    return t1 if abs(_ref_horner(c, t1)) <= abs(p) else t


def _ref_cbrt(v):
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _ref_real_roots(c):
    if len(c) == 2:
        roots = [-c[0] / c[1]]
    elif len(c) == 3:
        a, b, cc = c[2], c[1], c[0]
        disc = b * b - 4.0 * a * cc
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
        roots = [0.0, 0.0] if q == 0.0 else [q / a, cc / q]
    else:
        b, cc, d = c[2] / c[3], c[1] / c[3], c[0] / c[3]
        try:
            pp = cc - b * b / 3.0
            qq = 2.0 * b ** 3 / 27.0 - b * cc / 3.0 + d
            cube = pp ** 3
        except OverflowError:
            raise NonFiniteError("cubic coefficients overflow") from None
        shift = -b / 3.0
        disc = -4.0 * cube - 27.0 * qq * qq
        if disc > 0.0:  # three real roots: keep the largest
            m = 2.0 * math.sqrt(-pp / 3.0)
            arg = min(1.0, max(-1.0, 3.0 * qq / (pp * m)))
            theta = math.acos(arg) / 3.0
            r = max([m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift
                     for k in range(3)], key=abs)
        else:
            inner = math.sqrt(max(0.0, qq * qq / 4.0 + cube / 27.0))
            r = _ref_cbrt(-qq / 2.0 + inner) + _ref_cbrt(-qq / 2.0 - inner) + shift
        roots = _ref_deflated(c, r)
    return sorted(roots)


def _ref_deflated(c, r):
    """The cubic c's real root r and the real roots of the quadratic left
    when r, polished, is divided out; all in s = t/2^k, where the coefficients
    c_i 2^((i - 3) k - e3) lie below 1 in magnitude (c3 in [2^(e3-1), 2^e3)),
    for the least such integer k."""
    e3 = math.frexp(c[3])[1]
    ks = [math.ceil((math.frexp(ci)[1] - e3) / (3 - i)) for i, ci in enumerate(c[:3]) if ci]
    k = max(ks) if ks else 0
    d = [math.ldexp(ci, (i - 3) * k - e3) for i, ci in enumerate(c)]
    s = _ref_polish(d, math.ldexp(r, -k))
    # divide from the constant term up where neither other root is larger
    # than s (their sum -q1/d3 at most 2|s|, their product d0/(d3 s) below
    # s^2), else from the leading term down
    q1 = d[2] + s * d[3]
    if abs(q1) <= 2.0 * abs(s * d[3]) and abs(d[0]) < abs(s * d[3] * s * s):
        q0 = -d[0] / s
        q = [q0, (q0 - d[1]) / s, d[3]]
    else:
        q = [d[1] + s * q1, q1, d[3]]
    return [math.ldexp(v, k) for v in [s, *_ref_real_roots(q)]]


def _ref_slx3_kernel(xs, ys, x_next, forcing):
    try:
        coeffs = _ref_slx3_coeffs(ys, forcing)
        roots = _ref_real_roots(coeffs)
    except DegenerateCoefficientError:
        return StopReason.DEGENERATE_COEFFICIENT
    except NonFiniteError:
        return StopReason.NON_FINITE
    if not roots:
        return StopReason.NO_REAL_ROOT
    # the quadratic through the window at the next node of the uniform
    # lattice, y0 - 3 y1 + 3 y2, less y2
    p = 2.0 * (ys[2] - ys[1]) - (ys[1] - ys[0])
    u = roots[0] if len(roots) == 1 else select_root(roots, p)
    if len(coeffs) == 4:  # only a cubic's kept root is polished
        u = _ref_polish(coeffs, u)
    t = ys[2] + u
    return t if math.isfinite(t) and abs(t) <= OVERFLOW_LIMIT else StopReason.NON_FINITE


def _ref_fn(forcing):
    return (lambda _x: forcing.c) if isinstance(forcing, Constant) else forcing.fn


def ref_step(scheme, forcing):
    """One step (xs, ys, x_next) -> new ordinate | StopReason of the composed
    kernels of ``scheme`` under ``forcing``, from the window alone."""
    f = forcing
    if scheme is SchemeKind.SLY4:
        return lambda xs, ys, x: _ref_sly4_step(xs, ys, x, _ref_fn(f))
    if scheme is SchemeKind.SLX3:
        return lambda xs, ys, x: _ref_slx3_kernel(xs, ys, x, f)
    return lambda xs, ys, x: _ref_linear_kernel(xs, ys, x, _ref_h5_line, f.c)


def scheme_reference_loop(spec, seed, n_steps):
    """Test-only copy of the composed kernels that ``schemes.integrate``
    runs as one straight-line loop per scheme, stepped over a rolling window
    at x0 + n*h as integrate does (the lattice is not checked); ``sly4``
    carries its state from the seed on and takes step n's forcing at
    x0 + (n - 2)*h.  The two must agree bit for bit.  Returns (xs, ys, stop)."""
    h, k, x0 = spec.lattice.h, spec.arity, seed.xs[0]
    if spec.scheme is SchemeKind.SLY4:
        advance = _ref_sly4_stepper(seed.xs, seed.ys, _ref_fn(spec.forcing), h)
        step = lambda xs, ys, n: advance(x0 + (n - 2) * h, (*xs[1:], x0 + n * h))
    else:
        kernel = ref_step(spec.scheme, spec.forcing)
        step = lambda xs, ys, n: kernel(xs, ys, x0 + n * h)
    xs, ys = list(seed.xs), list(seed.ys)
    for n in range(k, k + n_steps):
        y = step(xs[-k:], ys[-k:], n)
        if isinstance(y, StopReason):
            return tuple(xs), tuple(ys), y
        xs.append(x0 + n * h)
        ys.append(y)
    return tuple(xs), tuple(ys), StopReason.COMPLETED
