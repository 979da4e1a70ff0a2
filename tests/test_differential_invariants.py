import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from invdisc import (DegenerateCoefficientError, Jet, NonFiniteError, compose_jet,
                     h5_differential, jy_invariants, kx_invariants)

from conftest import (POWER_ORBIT, TAN_ATAN_ORBIT, h5_differential_hodograph, jtilde5,
                      mobius_jet)

MOBIUS_JET = Jet(1.0, (1.0, -1.0, 2.0, -6.0, 24.0, -120.0))  # y = 1/x at 1
EXP_JET = Jet(0.0, (1.0,) * 6)
LOG_JET = Jet(1.0, (0.0, 1.0, -1.0, 2.0, -6.0, 24.0))
LOGABS_JET = Jet(-1.0, (0.0, -1.0, -1.0, -2.0, -6.0, -24.0))
ARCTANH_JET = Jet(0.0, (0.0, 1.0, 0.0, 2.0, 0.0, 24.0))


def jet_floats(lo=-2.0, hi=2.0):
    return st.floats(lo, hi, allow_nan=False)


def random_jets(min_slope=0.3):
    return st.tuples(jet_floats(), jet_floats(), jet_floats(), jet_floats(),
                     jet_floats(), jet_floats()).map(
        lambda d: Jet(0.0, (d[0], d[1] + math.copysign(min_slope, d[1] or 1.0),
                            *d[2:])))


def test_jy_on_mobius_jet():
    t = jy_invariants(MOBIUS_JET)
    assert t.third == 0.0
    assert t.fourth == 0.0
    assert t.fifth == 0.0


def test_jy_on_exp_jet():
    t = jy_invariants(EXP_JET)
    assert t.third == -0.5
    assert t.fourth == 0.0
    assert t.fifth == 0.0


def test_jy_on_log_jet():
    t = jy_invariants(LOG_JET)
    assert t.third == 0.5
    assert t.fourth == -1.0
    assert t.fifth == 3.0  # 24 - 30 + 34 - 16 - 9


def test_jy_requires_slope():
    with pytest.raises(DegenerateCoefficientError):
        jy_invariants(Jet(0.0, (1.0, 0.0, 1.0, 1.0, 1.0, 1.0)))


def test_jtilde5_values():
    assert jtilde5(MOBIUS_JET) == 0.0
    assert jtilde5(EXP_JET) == pytest.approx(1.0, rel=1e-14)


def _jtilde_term_scale(jet):
    _, y1, y2, y3, y4, y5 = jet.d
    return max(1.0, abs(y5 / y1), abs(5 * y2 * y4 / y1 ** 2),
               abs(17 * y2 ** 2 * y3 / y1 ** 3), abs(4 * y3 ** 2 / y1 ** 2),
               abs(9 * y2 ** 4 / y1 ** 4))


@settings(max_examples=300, deadline=None)
@given(jet=random_jets())
def test_jtilde5_identity(jet):
    t = jy_invariants(jet)
    lhs = jtilde5(jet)
    rhs = t.fifth + 4.0 * t.third ** 2
    # relative to the largest constituent term: both routes cancel internally
    assert abs(lhs - rhs) <= 1e-12 * _jtilde_term_scale(jet)


def test_kx_on_log_abs_jet():
    t = kx_invariants(LOGABS_JET)
    assert t.third == 0.5
    assert t.fourth == 0.0
    assert t.fifth == 0.5


def test_kx_on_arctanh_jet():
    t = kx_invariants(ARCTANH_JET)
    assert t.third == 2.0
    assert t.fourth == 0.0
    assert t.fifth == 8.0


def test_kx_on_mobius_jet():
    t = kx_invariants(MOBIUS_JET)
    assert t.third == 0.0
    assert t.fourth == 0.0
    assert t.fifth == 0.0


def test_h5_differential_values():
    from invdisc import one_over_one_minus_exp, tan_reciprocal
    jet = one_over_one_minus_exp().jet_fn(-1.0)
    assert abs(h5_differential(jet)) <= 1e-10
    jet = tan_reciprocal().jet_fn(0.1)
    assert abs(h5_differential(jet)) <= 1e-8
    assert h5_differential(LOG_JET) == pytest.approx(2.0, rel=1e-13)
    # exp: numerator invariants vanish identically
    assert h5_differential(EXP_JET) == 0.0
    # orbits with h5 = c at c != 0: -4.000000000000008, ..118 and ..15362;
    # 8.000000000000568, 8.0 and 7.999999999979053
    for sol, c, xs in ((TAN_ATAN_ORBIT, -4.0, (0.0, 0.7, 2.0)),
                       (POWER_ORBIT, 8.0, (-3.0, -1.5, 5.0))):
        for x in xs:
            assert h5_differential(sol.jet_fn(x)) == pytest.approx(c, abs=1e-9)


def test_h5_differential_degenerate_on_schwarzian_manifold():
    with pytest.raises(DegenerateCoefficientError):
        h5_differential(MOBIUS_JET)


@settings(max_examples=300, deadline=None)
@given(jet=random_jets())
def test_h5_route_identity(jet):
    t = jy_invariants(jet)
    assume(abs(t.third) > 0.1)
    a = h5_differential(jet)
    b = h5_differential_hodograph(jet)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


def test_invariants_vanish_on_mobius_jets(rng):
    done = 0
    while done < 300:
        a, b, c, d = rng.uniform(-2, 2, 4)
        if abs(a * d - b * c) < 0.1:
            continue
        x = rng.uniform(-1, 1)
        if abs(c * x + d) < 0.3:
            continue
        jet = mobius_jet(a, b, c, d, x)
        if abs(jet.d[1]) < 1e-3:
            continue
        done += 1
        _assert_invariants_vanish(jet)


def test_invariants_vanish_on_mobius_composed_jets(rng):
    # y = (a*g(x) + b)/(c*g(x) + d) with g itself linear-fractional
    done = 0
    while done < 100:
        a, b, c, d = rng.uniform(-2, 2, 4)
        e, f, g_, h_ = rng.uniform(-2, 2, 4)
        if abs(a * d - b * c) < 0.1 or abs(e * h_ - f * g_) < 0.1:
            continue
        x = rng.uniform(-1, 1)
        if abs(g_ * x + h_) < 0.3:
            continue
        inner = mobius_jet(e, f, g_, h_, x)
        u = inner.d[0]
        if abs(c * u + d) < 0.3 or abs(inner.d[1]) < 1e-3:
            continue
        outer = mobius_jet(a, b, c, d, u)
        jet = compose_jet(outer.d, inner)
        if abs(jet.d[1]) < 1e-3:
            continue
        done += 1
        _assert_invariants_vanish(jet)


def _assert_invariants_vanish(jet):
    _, y1, y2, y3, y4, y5 = jet.d
    t = jy_invariants(jet)
    k = kx_invariants(jet)
    s3 = max(abs(y3 / y1), (y2 / y1) ** 2)
    s4 = max(abs(y4 / y1), abs(4 * y2 * y3 / y1 ** 2), abs(3 * y2 ** 3 / y1 ** 3))
    s5 = max(abs(y5 / y1), abs(5 * y2 * y4 / y1 ** 2),
             abs(17 * y2 ** 2 * y3 / y1 ** 3), abs(4 * y3 ** 2 / y1 ** 2),
             abs(9 * y2 ** 4 / y1 ** 4))
    assert abs(t.third) <= 1e-9 * max(1.0, s3)
    assert abs(t.fourth) <= 1e-9 * max(1.0, s4)
    assert abs(t.fifth) <= 1e-9 * max(1.0, s5)
    assert abs(k.third) <= 1e-9 * max(1.0, s3 / y1 ** 2)
    assert abs(k.fourth) <= 1e-9 * max(1.0, s4 / abs(y1) ** 3)
    assert abs(k.fifth) <= 1e-9 * max(1.0, s5 / y1 ** 4)


#: magnitudes from far below to far above the float range's square root
MAGNITUDES = [s * 10.0 ** (e / 4) for s in (1.0, -1.0) for e in range(-1280, 1233, 7)]


@pytest.mark.parametrize("fn", [jy_invariants, kx_invariants, h5_differential],
                         ids=lambda fn: fn.__name__)
def test_invariants_raise_non_finite_where_a_power_overflows(fn):
    # like the exact jets: an invariant is finite, or raises NonFiniteError
    # (naming x), or DegenerateCoefficientError where y' = 0 or, for
    # h5_differential, on the vanishing-Schwarzian manifold; never
    # ZeroDivisionError or OverflowError
    for d in ((0.0, 1.0, 1e200, 1.0, 1.0, 1.0), (0.0, 1e-150, 0.0, 1.0, 0.0, 1e10)):
        with pytest.raises(NonFiniteError, match="at x = 0.0"):
            fn(Jet(0.0, d))
    base = (0.5, 1.0, -0.5, 2.0, 1.5, -3.0)
    finite = non_finite = 0
    for k in range(1, 6):
        for v in MAGNITUDES:
            d = base[:k] + (v,) + base[k + 1:]
            try:
                value = fn(Jet(0.25, d))
            except DegenerateCoefficientError:
                continue
            except NonFiniteError as e:
                assert "at x = 0.25" in str(e)
                non_finite += 1
                continue
            finite += 1
            values = (value,) if fn is h5_differential else (value.third, value.fourth,
                                                              value.fifth)
            assert all(map(math.isfinite, values))
    assert finite >= 1000 and non_finite >= 100


def test_compose_jet_chain_rule():
    # tan(1/x) assembled from outer tan and inner reciprocal must agree with
    # a direct extended-precision derivative
    import mpmath as mp
    from invdisc import tan_reciprocal
    mp.mp.dps = 40
    jet = tan_reciprocal().jet_fn(0.3)
    for k in range(6):
        exact = float(mp.diff(lambda z: mp.tan(1 / z), mp.mpf(0.3), k))
        assert jet.d[k] == pytest.approx(exact, rel=1e-12)


def test_mobius_jet_matches_series():
    jet = mobius_jet(0.0, 1.0, 1.0, 0.0, 1.0)  # y = 1/x at 1
    assert jet.d == MOBIUS_JET.d
