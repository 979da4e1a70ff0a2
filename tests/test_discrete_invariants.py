import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from invdisc import (DegenerateCoefficientError, NonFiniteError, cross_ratio, h5_discrete,
                     h5_uniform, l3, l4, l5, m3, m4, m5,
                     seed_stencil_from_function, stencil_from_sequences,
                     w_coefficient, w0_sol2, wx_coefficient)
from invdisc.discrete import CrossRatioWindow, _h5_r5_line, _ratio_r_over_s
from invdisc.lattice import extend_constant_s

from conftest import make_mobius, random_mobius

RHO_01 = 2.0 + math.exp(0.1) + math.exp(-0.1)  # uniform-lattice cross-ratio of
                                               # the exact six-point solution, h=0.1

OMEX = lambda x: 1.0 / (1.0 - math.exp(x))
MOBIUS = lambda x: (2.0 * x + 1.0) / (x + 3.0)


# --- cross ratio ---------------------------------------------------------------

def test_cross_ratio_arithmetic_progression():
    assert cross_ratio(CrossRatioWindow(0, 1, 2, 3)) == 4.0


def test_cross_ratio_exact_solution_window():
    ys = [OMEX(-1.0 + 0.1 * k) for k in range(4)]
    assert cross_ratio(CrossRatioWindow(*ys)) == pytest.approx(RHO_01, rel=1e-12)


def test_cross_ratio_reciprocal_image():
    assert cross_ratio(CrossRatioWindow(1, 2, 3, 4)) == pytest.approx(4.0, rel=1e-14)
    assert cross_ratio(CrossRatioWindow(1, 1/2, 1/3, 1/4)) == pytest.approx(4.0, rel=1e-12)


def test_cross_ratio_degenerate_window():
    with pytest.raises(DegenerateCoefficientError):
        cross_ratio(CrossRatioWindow(0.0, 0.0, 1.0, 2.0))
    with pytest.raises(DegenerateCoefficientError):
        cross_ratio(CrossRatioWindow(0.0, 1.0, 2.0, 2.0))


#: ordinates whose differences (near 1e-162) are far from degenerate but
#: whose products of two differences underflow to zero
UNDERFLOW_YS = (-1.4198183315542606e-151, -1.419818331507339e-151,
                -1.4198183314925497e-151, -1.419818331489371e-151)


@pytest.mark.parametrize("evaluate, xs, ys", [
    (l3, (0.0, 0.1, 0.2, 0.3), UNDERFLOW_YS),
    (m3, (0.0, 0.1, 0.2, 0.3), UNDERFLOW_YS),
    (lambda s: cross_ratio(CrossRatioWindow(*s.ys)), (0.0, 0.1, 0.2, 0.3), UNDERFLOW_YS),
    (l3, (0.0, 1e-170, 2e-170, 3e-170), (0.0, 1.0, 3.0, 6.0)),  # x spacings
], ids=["l3", "m3", "cross_ratio", "l3-x"])
def test_underflowing_denominator_is_degenerate(evaluate, xs, ys):
    with pytest.raises(DegenerateCoefficientError):
        evaluate(stencil_from_sequences(xs, ys))


#: ordinates (0, 1, 3, 6, 10, 15) times 1e155: the products of two
#: y-differences overflow, and R/S in one expression is inf / inf
OVERFLOW_RATIO_YS = tuple(v * 1e155 for v in (0.0, 1.0, 3.0, 6.0, 10.0, 15.0))


@pytest.mark.parametrize("evaluate, n", [(l3, 4), (m3, 4), (l4, 5), (m4, 5), (l5, 6),
                                         (m5, 6), (h5_discrete, 6)],
                         ids=["l3", "m3", "l4", "m4", "l5", "m5", "h5_discrete"])
def test_overflowing_ratio_is_non_finite(evaluate, n):
    # where its products overflow, R/S is formed from paired difference
    # ratios, and it does not depend on the scale of y
    xs = [float(k) for k in range(n)]
    got = evaluate(stencil_from_sequences(xs, OVERFLOW_RATIO_YS[:n]))
    for scale in (1.0, 1e150):
        ys = [v / 1e155 * scale for v in OVERFLOW_RATIO_YS[:n]]
        want = evaluate(stencil_from_sequences(xs, ys))
        if evaluate in (m3, m4, m5):
            # M scales as 1/y^2 and underflows at 1e155
            assert math.isfinite(want) and math.isfinite(got) and abs(got) < 1e-300
        else:
            assert got == pytest.approx(want, rel=1e-13)
    assert l3(stencil_from_sequences(xs[:4], [v / 1e5 for v in OVERFLOW_RATIO_YS[:4]])) == -0.5
    assert l3(stencil_from_sequences(xs[:4], OVERFLOW_RATIO_YS[:4])) == -0.5


def test_overflowing_cross_ratio_is_non_finite():
    # both products of two differences overflow: the paired factors give the
    # cross-ratio of the scaled-down windows
    assert cross_ratio(CrossRatioWindow(*OVERFLOW_RATIO_YS[:4])) == 5.0
    for scale in (1.0, 1e150):
        ys = (v / 1e155 * scale for v in OVERFLOW_RATIO_YS[:4])
        assert cross_ratio(CrossRatioWindow(*ys)) == 5.0
    # a NaN coordinate is the one non-finite value left
    with pytest.raises(NonFiniteError, match=r"cross-ratio is NaN on window \(nan, "):
        cross_ratio(CrossRatioWindow(math.nan, 1.0, 3.0, 6.0))
    with pytest.raises(NonFiniteError, match="R/S is NaN on window 0"):
        _ratio_r_over_s((0.0, 1.0, 2.0, 3.0), (math.nan, 1.0, 3.0, 6.0), 0)


def test_overflowing_denominator_is_paired():
    # only the denominator's product overflows, where the one-expression
    # quotient reads 0.0: paired, a cross-ratio of about 1e-10 and, in l3,
    # an R/S of about -5e-6 (l3 = 2.0 for R/S = 0) equal their values on
    # the 1e-10-scaled windows
    w = (0.0, 1e155, 1e150, 1e155 + 1e150)
    assert cross_ratio(CrossRatioWindow(*w)) == pytest.approx(
        cross_ratio(CrossRatioWindow(*(v * 1e-10 for v in w))), rel=1e-9)
    xs, ys = (0.0, 1.0, 2.0, 3.0), (0.0, 1e155, 2e155, 1e155 + 1e150)
    got = l3(stencil_from_sequences(xs, ys))
    assert got != 2.0
    assert got == pytest.approx(l3(stencil_from_sequences(xs, [v * 1e-10 for v in ys])),
                                rel=1e-12)


def test_subnormal_products_are_paired():
    # differences near 1e-161: their products of two are subnormal, not zero,
    # and lose digits in one expression; paired, the windows read as their
    # unscaled copies
    assert cross_ratio(CrossRatioWindow(0.0, 1e-161, 3e-161, 6e-161)) == 5.0
    xs = (0.0, 1.0, 2.0, 3.0)
    assert l3(stencil_from_sequences(xs, [v * 1e-161 for v in (0.0, 1.0, 3.0, 6.0)])) == -0.5


def test_overflowing_x_products_are_tested_by_factor():
    # abscissa differences past 1.3e154: the square of the x scale and l3's
    # denominator overflow, and m3, which does not depend on the scale of x,
    # reads its unscaled value
    ys = (0.0, 1.0, 3.0, 6.0)
    for scale in (1e155, 1e200):
        xs = [v * scale for v in (0.0, 1.0, 2.0, 3.0)]
        assert m3(stencil_from_sequences(xs, ys)) == -0.125
    # l3 scales as 1/x^2: the unscaled -0.5 times 1e-310, a subnormal
    xs = [v * 1e155 for v in (0.0, 1.0, 2.0, 3.0)]
    assert l3(stencil_from_sequences(xs, ys)) == pytest.approx(-0.5e-310, rel=1e-9)


def test_cross_ratio_with_an_overflowing_numerator_is_finite():
    # only (a3-a1)(a2-a0) overflows: the quotient is inf where the cross-ratio
    # is about 1e10, as on the 1e-10-scaled window
    w = (0.0, 1e150, 1e155, 1e155 + 1e150)
    got = cross_ratio(CrossRatioWindow(*w))
    assert got == pytest.approx(cross_ratio(CrossRatioWindow(*(v * 1e-10 for v in w))),
                                rel=1e-9)
    assert cross_ratio(CrossRatioWindow(*(-v for v in w))) == got


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cross_ratio_mobius_invariance(data):
    vals = data.draw(st.lists(st.floats(-3, 3), min_size=4, max_size=4,
                              unique=True))
    a0, a1, a2, a3 = vals
    assume(abs(a3 - a2) > 1e-3 and abs(a1 - a0) > 1e-3)
    coeffs = data.draw(st.tuples(*(st.floats(-2, 2) for _ in range(4))))
    a, b, c, d = coeffs
    det = a * d - b * c
    assume(abs(det) > 0.1)
    s = 1.0 / math.sqrt(abs(det))
    a, b, c, d = (v * s for v in coeffs)
    assume(all(abs(c * v + d) > 0.2 for v in vals))
    g = make_mobius(a, b, c, d)
    r0 = cross_ratio(CrossRatioWindow(a0, a1, a2, a3))
    r1 = cross_ratio(CrossRatioWindow(g(a0), g(a1), g(a2), g(a3)))
    assert abs(r1 - r0) <= 1e-10 * max(1.0, abs(r0))


# --- L family ------------------------------------------------------------------

def test_l3_vanishes_on_mobius_data():
    s = seed_stencil_from_function(MOBIUS, 0.0, 1e-3, 4)
    scale = 6.0 / abs((s.xs[2] - s.xs[1]) * (s.xs[3] - s.xs[0]))
    assert abs(l3(s)) <= 1e-8 * max(1.0, scale)


def test_l3_exp_limit():
    h = 1e-3
    s = seed_stencil_from_function(math.exp, 0.0, h, 4)
    assert abs(l3(s) - (-0.5)) <= 5 * h


def test_l3_log_limit():
    h = 1e-3
    s = seed_stencil_from_function(math.log, 1.0, h, 4)
    assert abs(l3(s) - 0.5) <= 5 * h


def test_l4_mobius_and_limits():
    assert abs(l4(seed_stencil_from_function(MOBIUS, 0.0, 0.1, 5))) <= 1e-8
    assert abs(l4(seed_stencil_from_function(math.exp, 0.0, 1e-3, 5))) <= 1e-3
    v = l4(seed_stencil_from_function(math.log, 1.0, 1e-3, 5))
    assert abs(v - (-1.0)) <= 1e-2


def test_l5_mobius_and_limits():
    assert abs(l5(seed_stencil_from_function(MOBIUS, 0.0, 0.1, 6))) <= 1e-6
    assert abs(l5(seed_stencil_from_function(math.exp, 0.0, 1e-2, 6))) <= 1e-3
    v = l5(seed_stencil_from_function(math.log, 1.0, 1e-3, 6))
    assert abs(v - 3.0) <= 5e-2


# --- M family ------------------------------------------------------------------

def test_m3_log_abs():
    s = seed_stencil_from_function(lambda x: math.log(abs(x)), -1.0, 1e-4, 4)
    assert abs(m3(s) - 0.5) <= 5e-4


def test_m3_arctanh():
    s = seed_stencil_from_function(math.atanh, 0.0, 1e-3, 4)
    assert abs(m3(s) - 2.0) <= 5e-3


def test_m3_vanishes_on_reciprocal():
    s = seed_stencil_from_function(lambda x: 1.0 / x, 2.0, 1e-3, 4)
    scale = 6.0 / abs((s.ys[3] - s.ys[0]) * (s.ys[2] - s.ys[1]))
    assert abs(m3(s)) <= 1e-8 * max(1.0, scale)


def test_m3_degenerate_on_repeated_y():
    s = stencil_from_sequences([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0])
    with pytest.raises(DegenerateCoefficientError):
        m3(s)


def test_m4_limits():
    s = seed_stencil_from_function(lambda x: math.log(abs(x)), -1.0, 1e-4, 5)
    assert abs(m4(s)) <= 1e-2
    s = seed_stencil_from_function(lambda x: 1.0 / x, 2.0, 0.05, 5)
    assert abs(m4(s)) <= 1e-6


def test_m5_limits():
    s = seed_stencil_from_function(lambda x: 1.0 / x, 2.0, 0.05, 6)
    assert abs(m5(s)) <= 1e-4
    # arctanh solves the constant-source equation, so the W_x-corrected
    # fifth-order target vanishes
    s = seed_stencil_from_function(math.atanh, 0.0, 1e-3, 6)
    assert abs(m5(s)) <= 1e-2


@pytest.mark.parametrize("family, along_y", [((l3, l4, l5), False),
                                              ((m3, m4, m5), True)], ids=["L", "M"])
def test_each_order_divides_the_difference_of_the_order_below(rng, family, along_y):
    """l_n (m_n) is n / (x_n - x_0) (n / (y_n - y_0)) times the difference of
    the order below on the right and the left window, bit for bit."""
    for _ in range(200):
        direction = rng.choice((-1.0, 1.0))
        xs = [float(v) for v in direction * np.cumsum(rng.uniform(0.05, 1.0, 6))]
        ys = [float(v) for v in rng.uniform(-3.0, 3.0, 6)]
        span = ys if along_y else xs

        def window(a, b):
            return stencil_from_sequences(xs[a:b], ys[a:b])

        for n, lower, upper in ((4, family[0], family[1]), (5, family[1], family[2])):
            expected = n / (span[n] - span[0]) * (lower(window(1, n + 1))
                                                 - lower(window(0, n)))
            assert upper(window(0, n + 1)) == expected


# --- six-point product invariant -------------------------------------------------

def test_h5_discrete_vanishes_on_exact_solution():
    s = seed_stencil_from_function(OMEX, -1.0, 0.1, 6)
    assert abs(h5_discrete(s)) <= 1e-8


def test_h5_discrete_vanishes_on_tan_reciprocal():
    for h in (-1e-2, 1e-3):
        s = seed_stencil_from_function(lambda x: math.tan(1.0 / x), 0.15, h, 6)
        assert abs(h5_discrete(s)) <= 10 * abs(h)


def test_h5_discrete_matches_uniform_form(rng):
    for _ in range(50):
        xs = [0.7 * k for k in range(6)]
        ys = list(np.cumsum(rng.uniform(0.5, 1.5, 6)))
        s = stencil_from_sequences(xs, ys)
        r3 = cross_ratio(CrossRatioWindow(*ys[0:4]))
        r4 = cross_ratio(CrossRatioWindow(*ys[1:5]))
        r5 = cross_ratio(CrossRatioWindow(*ys[2:6]))
        assert h5_discrete(s) == pytest.approx(h5_uniform(r3, r4, r5), rel=1e-12)


def test_h5_uniform_equal_ratios_vanish():
    # the (rho - 4)^-3 denominator amplifies the numerator's rounding residue
    for rho in (5.0, 7.0, 2.0, RHO_01):
        tol = 1e-13 * max(1.0, abs(rho)) ** 3 / min(1.0, abs(rho - 4.0)) ** 3
        assert abs(h5_uniform(rho, rho, rho)) <= tol


def test_h5_uniform_direct_value():
    # direct arithmetic: (16*7 + 6*(18+7-32) + 5*(6-35+16)) / (2*1*2*3)
    assert h5_uniform(5.0, 6.0, 7.0) == pytest.approx(5.0 / 12.0, rel=1e-14)


@pytest.mark.parametrize("r", [1e150, 1e153, 1e154, 1e155, 1e160, 1e180, 1e200])
def test_h5_uniform_of_huge_ratios_is_finite_or_non_finite(r):
    # from about 1e154 its terms overflow (r4 ** 2 raises from 1e155, and
    # at 1e154 the quotient is inf / inf): NonFiniteError, never NaN
    for args in ((r, r, r), (r, 2.0 * r, 3.0 * r), (-r, r, -2.0 * r)):
        if r < 1e154:
            assert math.isfinite(h5_uniform(*args))
        else:
            with pytest.raises(NonFiniteError):
                h5_uniform(*args)


def _h5_r5_line_with_builtin_max(r3, r4, c):
    """Test-only copy of ``_h5_r5_line`` that takes its scale with max()."""
    k = 2.0 * c * (r3 - 4.0) * (r4 - 4.0)
    return (16.0 + r4 - 5.0 * r3 - k,
            -3.0 * r4 ** 2 + 32.0 * r4 - r3 * r4 - 16.0 * r3 - 4.0 * k,
            max(abs(r3), abs(r4), 16.0, abs(k)))


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except OverflowError as exc:  # r4 ** 2 past about 1.3e154
        return type(exc).__name__


def test_h5_r5_line_scale_equals_builtin_max():
    # the scale, folded in max()'s order, is max()'s float on every edge:
    # signed zeros, the 16 it holds, infinities, a NaN first or later
    # operand, subnormals and values whose square overflows
    edges = (0.0, -0.0, 16.0, -16.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, 1e300, -1e300, 4.0, 1.0, -2.5)
    for r3 in edges:
        for r4 in edges:
            for c in (0.0, 0.5, math.nan):
                assert _outcome(_h5_r5_line, r3, r4, c) == _outcome(
                    _h5_r5_line_with_builtin_max, r3, r4, c), (r3, r4, c)


def test_h5_uniform_value_cross_checked_against_discrete():
    # synthesize a uniform-lattice stencil whose windows have R = 5, 6, 7
    ys = [1.0, 2.0, 4.0]
    for K in (5.0, 6.0, 7.0):
        ys.append(extend_constant_s(ys[-3], ys[-2], ys[-1], K))
    s = stencil_from_sequences([float(k) for k in range(6)], ys)
    assert h5_discrete(s) == pytest.approx(5.0 / 12.0, rel=1e-10)


def test_h5_degenerate_near_weak_manifold():
    s = seed_stencil_from_function(MOBIUS, 0.0, 0.1, 6)
    with pytest.raises(DegenerateCoefficientError):
        h5_discrete(s)
    with pytest.raises(DegenerateCoefficientError):
        h5_uniform(4.0, 5.0, 6.0)


def test_q3_matches_definition():
    # Q3 = 1 - R/S of h5_discrete's first window is l3 * (x2-x1)(x3-x0) / 6
    s = seed_stencil_from_function(OMEX, -1.0, 0.1, 4)
    xs = s.xs
    q3 = l3(s) * (xs[2] - xs[1]) * (xs[3] - xs[0]) / 6.0
    assert q3 == pytest.approx(1.0 - RHO_01 / 4.0, rel=1e-10)


# --- lattice coefficients ---------------------------------------------------------

def test_w_uniform_lattice():
    assert abs(w_coefficient(0, 1, 2, 3, 4, 5)) <= 1e-14
    assert abs(w_coefficient(1.0, 1.1, 1.2, 1.3, 1.4, 1.5)) <= 1e-12


def test_w_sol2_lattice_value():
    xs = [1.0 / (m + 6.0) for m in range(6)]
    assert w_coefficient(*xs) == pytest.approx(-116.0 / 5040.0, rel=1e-12)
    assert w0_sol2(1.0, 6.0) == pytest.approx(-116.0 / 5040.0, rel=1e-14)


def test_w_vanishing_family():
    A = 1.0
    B = A * (-5.0 + math.sqrt(57.0)) / 2.0
    xs = [1.0 / (A * m + B) for m in range(6)]
    assert abs(w_coefficient(*xs)) <= 1e-12


def test_wx_values():
    assert wx_coefficient(1, 1, 1, 1, 1) == pytest.approx(2.0, abs=1e-12)
    # middle spacing 4h, the others h/4 each: 4/5 - 4h/5h = 0
    assert abs(wx_coefficient(0.25, 0.25, 4.0, 0.25, 0.25)) <= 1e-12
    assert wx_coefficient(1, 1, 2, 1, 1) == pytest.approx(14.0 / 9.0, rel=1e-12)


# --- invariance properties ---------------------------------------------------------

def test_l_family_invariant_under_y_mobius(rng):
    for _ in range(200):
        xs = list(np.cumsum(rng.uniform(0.3, 1.0, 6)))
        ys = list(np.cumsum(rng.uniform(0.5, 1.5, 6)))
        s = stencil_from_sequences(xs, ys)
        g = make_mobius(*random_mobius(rng, ys))
        s_g = stencil_from_sequences(xs, [g(y) for y in ys])
        for f in (l3, l4, l5):
            n = {l3: 4, l4: 5, l5: 6}[f]
            a = f(stencil_from_sequences(xs[:n], ys[:n]))
            b = f(stencil_from_sequences(xs[:n], [g(y) for y in ys[:n]]))
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_m_family_invariant_under_x_mobius(rng):
    done = 0
    while done < 200:
        xs = list(np.cumsum(rng.uniform(0.3, 1.0, 6)))
        ys = list(np.cumsum(rng.uniform(0.5, 1.5, 6)))
        g = make_mobius(*random_mobius(rng, xs))
        txs = [g(x) for x in xs]
        dxs = [b - a for a, b in zip(txs, txs[1:])]
        if not (all(d > 0 for d in dxs) or all(d < 0 for d in dxs)):
            continue
        done += 1
        for f, n in ((m3, 4), (m4, 5), (m5, 6)):
            a = f(stencil_from_sequences(xs[:n], ys[:n]))
            b = f(stencil_from_sequences(txs[:n], ys[:n]))
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_h5_invariant_under_product_action(rng):
    done = 0
    while done < 200:
        xs = list(np.cumsum(rng.uniform(0.3, 1.0, 6)))
        ys = list(np.cumsum(rng.uniform(0.5, 1.5, 6)))
        gx = make_mobius(*random_mobius(rng, xs))
        gy = make_mobius(*random_mobius(rng, ys))
        txs = [gx(x) for x in xs]
        dxs = [b - a for a, b in zip(txs, txs[1:])]
        if not (all(d > 0 for d in dxs) or all(d < 0 for d in dxs)):
            continue
        done += 1
        a = h5_discrete(stencil_from_sequences(xs, ys))
        b = h5_discrete(stencil_from_sequences(txs, [gy(y) for y in ys]))
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
