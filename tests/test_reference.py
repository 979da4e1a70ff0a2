import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import invdisc
from invdisc import (Constant, DegenerateCoefficientError, DomainError, IdentityInY,
                     NonFiniteError, OdeSystem, SchemeKind, StopReason, Trajectory,
                     arctanh_solution, chi,
                     fifth_order_invariant_system, general_arctanh, log_abs,
                     one_over_one_minus_exp, rk4_integrate, rk4_schwarzian_rate,
                     scaled_schwarzian_system, schwarzian_rate_system,
                     tan_reciprocal)
from invdisc import Jet, cli, compose_jet, reference
from invdisc.core import OVERFLOW_LIMIT
from invdisc.reference import EXACT_SOLUTIONS

from conftest import (POWER_ORBIT, TAN_ATAN_ORBIT, finite_difference_jet, make_mobius,
                      mobius_jet, rel_diff, rk4_reference_loop)


# --- RK4 baseline ------------------------------------------------------------------

def test_rk4_tracks_arctanh():
    sys2 = scaled_schwarzian_system(lambda x, y: 2.0)
    traj = rk4_integrate(sys2, (0.0, 1.0, 0.0), 0.0, 1e-3, 500)
    assert traj.stop is StopReason.COMPLETED
    errs = [abs(p.y - math.atanh(p.x)) for p in traj.points]
    assert max(errs) <= 1e-8


def test_rk4_fourth_order_equation_value():
    sys1 = schwarzian_rate_system(math.cos)
    traj = rk4_integrate(sys1, (1.0, -1.0, -2.5, 5.0), 1.0, 1e-4, 5000)
    assert traj.points[-1].y == pytest.approx(0.451089, abs=1e-5)


def test_rk4_stops_at_blowup():
    sys3 = scaled_schwarzian_system(lambda x, y: y)
    traj = rk4_integrate(sys3, (10.0, -1.0, -10.0), 0.0, 1e-3, 500)
    assert traj.stop is StopReason.NON_FINITE
    assert 0.10 < traj.points[-1].x < 0.20


def test_rk4_convergence_order():
    sys2 = scaled_schwarzian_system(lambda x, y: 2.0)
    errors = {}
    for h in (0.01, 0.005):
        traj = rk4_integrate(sys2, (0.0, 1.0, 0.0), 0.0, h, round(0.5 / h))
        errors[h] = abs(traj.points[-1].y - math.atanh(0.5))
    factor = errors[0.01] / errors[0.005]
    assert 12.0 <= factor <= 20.0


def test_rk4_validates_input():
    sys2 = scaled_schwarzian_system(lambda x, y: 2.0)
    with pytest.raises(ValueError):
        rk4_integrate(sys2, (0.0, 1.0), 0.0, 1e-3, 10)
    with pytest.raises(ValueError):
        rk4_integrate(sys2, (0.0, 1.0, 0.0), 0.0, 0.0, 10)
    with pytest.raises(NonFiniteError):
        rk4_integrate(sys2, (math.nan, 1.0, 0.0), 0.0, 1e-3, 10)
    with pytest.raises(NonFiniteError):  # the last abscissa overflows
        rk4_integrate(sys2, (0.0, 1.0, 0.0), 1.7e308, 1e306, 20)
    with pytest.raises(ValueError):
        rk4_integrate(sys2, (0.0, 1.0, 0.0), 0.0, 1e-3, -3)
    with pytest.raises(ValueError, match="^order must be 3..5$"):
        OdeSystem(6, sys2.rhs)


# --- bit-identity of the run loops with the textbook loop ------------------------

def _assert_same_rk4(system, init, x0, h, n):
    got = rk4_integrate(system, init, x0, h, n)
    want = rk4_reference_loop(system, init, x0, h, n)
    # repr tells -0.0 from 0.0, which == does not
    assert repr(got.xs) == repr(want.xs)
    assert repr(got.ys) == repr(want.ys)
    assert got.stop is want.stop
    assert got.scheme_id == want.scheme_id
    return got


def _example_baseline(monkeypatch, example_id):
    """The arguments of an example's RK4 baseline as ``invdisc example`` runs it."""
    calls = []

    def record(*args):
        calls.append(args)
        return rk4_integrate(*args)

    monkeypatch.setattr(cli, "rk4_integrate", record)
    cli.run_example(example_id).base
    return calls[-1]


def test_rk4_unrolled_order4_matches_loop():
    ex = cli.EXAMPLES["1"]
    traj = _assert_same_rk4(ex.system, ex.init, ex.x0, 1e-5, 2000)
    assert traj.stop is StopReason.COMPLETED and len(traj) == 2001


#: each example's RK4 system as its entry once wrote it out by hand
HAND_WRITTEN_SYSTEMS = {"1": schwarzian_rate_system(math.cos),
                        "2-log": scaled_schwarzian_system(lambda x, y: 0.5),
                        "2-arctanh": scaled_schwarzian_system(lambda x, y: 2.0),
                        "3": scaled_schwarzian_system(lambda x, y: y),
                        "4": fifth_order_invariant_system(0.0),
                        "5": fifth_order_invariant_system(0.0)}


@pytest.mark.parametrize("example_id", list(cli.EXAMPLES))
def test_example_system_is_derived_from_its_scheme_and_forcing(example_id):
    # system is no field: the scheme and forcing give it, and RK4 on it runs
    # bit for bit as on the hand-written system
    assert "system" not in cli.Example._fields
    ex, want = cli.EXAMPLES[example_id], HAND_WRITTEN_SYSTEMS[example_id]
    init = ex.init or ex.solution.jet_fn(ex.x0).d[:want.order]
    got, ref = (rk4_integrate(system, init, ex.x0, ex.h, 40) for system in (ex.system, want))
    assert (ex.system.order, ex.system.name) == (want.order, want.name)
    assert repr(got) == repr(ref)


@pytest.mark.parametrize("scheme,forcing,want", [
    (SchemeKind.SLY4, Constant(2.0), schwarzian_rate_system(lambda x: 2.0)),
    (SchemeKind.SLX3, IdentityInY(stencil_mean=True), scaled_schwarzian_system(lambda x, y: y)),
    (SchemeKind.H5, Constant(-4.0), fifth_order_invariant_system(-4.0))])
def test_example_system_for_the_pairs_no_example_runs(scheme, forcing, want):
    # the stencil mean's continuous limit is y itself
    ex = cli.Example(scheme, forcing, h=0.01, x0=0.5, steps=lambda h, x0: 1,
                     summary=(), init=(0.3, 1.2, -0.7, 0.4, 0.9)[:want.order])
    got, ref = (rk4_integrate(system, ex.init, ex.x0, ex.h, 40) for system in (ex.system, want))
    assert repr(got) == repr(ref)


@pytest.mark.parametrize("example_id,order", [("2-log", 3), ("3", 3), ("5", 5)])
def test_rk4_unrolled_matches_loop_through_blowup(monkeypatch, example_id, order):
    system, init, x0, h, n = _example_baseline(monkeypatch, example_id)
    assert system.order == order
    traj = _assert_same_rk4(system, init, x0, h, n)
    assert traj.stop is StopReason.NON_FINITE


@pytest.mark.parametrize("init,h", [((0.0, 0.0, 1.0), 0.1),   # y' = 0 at the start
                                    ((0.0, 1.0, -4.0), 0.5)])  # y' = 0 in stage 2
def test_rk4_unrolled_matches_loop_on_zero_division(init, h):
    system = scaled_schwarzian_system(lambda x, y: 2.0)
    traj = _assert_same_rk4(system, init, 0.0, h, 10)
    assert traj.stop is StopReason.NON_FINITE and len(traj) == 1


@pytest.mark.parametrize("order", [3, 4, 5])
def test_rk4_run_loops_stop_past_overflow_limit_while_finite(order):
    # the top derivative grows by h * 1e302 a step and passes OVERFLOW_LIMIT
    # at step 11, finite, while y stays four orders of magnitude below it
    system = OdeSystem(order, lambda x, *u: 1e302, f"ramp-{order}")
    traj = _assert_same_rk4(system, (1.0,) * order, 0.0, 1e-3, 50)
    assert traj.stop is StopReason.NON_FINITE and len(traj) == 11
    assert max(map(abs, traj.ys)) < 1e-4 * OVERFLOW_LIMIT


def test_rk4_keeps_negative_zero_start():
    system = scaled_schwarzian_system(lambda x, y: 2.0)
    traj = _assert_same_rk4(system, (0.0, 1.0, 0.0), -0.0, 1e-3, 3)
    assert math.copysign(1.0, traj.xs[0]) == -1.0 and traj.xs[1] == 1e-3


RK4_SYSTEMS = (scaled_schwarzian_system(lambda x, y: 2.0),
               schwarzian_rate_system(math.cos), fifth_order_invariant_system(0.0))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), x0=st.floats(-2.0, 2.0),
       h=st.floats(-0.2, 0.2).filter(lambda v: abs(v) > 1e-6), n=st.integers(0, 200))
def test_rk4_unrolled_matches_loop_property(data, x0, h, n):
    system = data.draw(st.sampled_from(RK4_SYSTEMS))
    init = data.draw(st.tuples(*[st.floats(-3.0, 3.0)] * system.order))
    _assert_same_rk4(system, init, x0, h, n)


def _fifth_order_rhs_formula(c, y1, y2, y3, y4):
    """``fifth_order_invariant_system``'s right-hand side as first written,
    each power and coefficient computed where it is used."""
    den = y1 ** 3 * (2.0 * y1 * y3 - 3.0 * y2 ** 2)
    num = (2.5 * y1 ** 4 * y4 ** 2 - 10.0 * y1 ** 3 * y2 * y3 * y4
           + 2.0 * (c + 4.0) * y1 ** 3 * y3 ** 3
           - 2.25 * (c + 2.0 / 3.0) * (4.0 * y1 ** 2 * y2 ** 2 * y3 ** 2
                                       - 6.0 * y1 * y2 ** 4 * y3 + 3.0 * y2 ** 6))
    return num / den


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ZeroDivisionError, OverflowError) as e:
        return type(e).__name__


def test_fifth_order_rhs_equals_its_formula(rng):
    # the shared powers and hoisted coefficients change no bit, nor where a
    # power overflows or the denominator vanishes
    for c in (0.0, -2.0 / 3.0, 0.1, 1.0 / 3.0, -4.0, 7.3, 1e100):
        rhs = fifth_order_invariant_system(c).rhs
        states = rng.choice([-1.0, 1.0], (4000, 4)) * 10.0 ** rng.uniform(-100.0, 100.0, (4000, 4))
        states = [tuple(map(float, s)) for s in states]
        states += [(0.0, 1.0, 1.0, 1.0), (1.0, 2.0, 6.0, 1.0), (1e80, 1.0, 1.0, 1.0),
                   (-0.0, 0.0, 0.0, 0.0), (1.0, -1.0, 1.5, 2.0)]
        for y1, y2, y3, y4 in states:
            assert (_outcome(rhs, 0.0, 0.0, y1, y2, y3, y4)
                    == _outcome(_fifth_order_rhs_formula, c, y1, y2, y3, y4))


# --- linearised RK4 for S' = f(x): example 1's reference --------------------------

def _mobius_init(m, init):
    """The initial values (Y, Y', Y'', Y''') of Y = (a y + b)/(c y + d)."""
    inner = Jet(0.0, (*init, 0.0, 0.0))  # y's 4th and 5th derivatives reach only Y's
    return compose_jet(mobius_jet(*m, init[0]).d, inner).d[:4]


def test_linear_rk4_observed_order(example_1_truth):
    ex = cli.EXAMPLES["1"]
    errors = {}
    for h in (0.02, 0.01):
        run = rk4_schwarzian_rate(math.cos, ex.init, 1.0, h, round(1.5 / h))
        stride = round(0.1 / h)
        errors[h] = max(float(abs(example_1_truth(x) - y))
                        for x, y in zip(run.xs[::stride], run.ys[::stride]))
    assert math.log2(errors[0.02] / errors[0.01]) >= 3.8


def test_linear_rk4_default_reference_error(example_1_truth):
    # plain RK4 at the former default of 1e-4 read 7.4e-15
    run = cli.run_example("1")
    assert run.ref.scheme_id == "linear-rk4-schwarzian-rate"
    lattice = zip(run.ref.xs[::run.stride], run.ref.ys[::run.stride])
    assert max(float(abs(example_1_truth(x) - y)) for x, y in lattice) <= 7.4e-15


@pytest.mark.parametrize("m", [(2.0, 1.0, 1.0, 3.0), (0.0, 1.0, -1.0, 0.5)])
def test_linear_rk4_mobius_equivariant(m):
    ex = cli.EXAMPLES["1"]
    run = rk4_schwarzian_rate(math.cos, ex.init, 1.0, 0.01, 150)
    image = rk4_schwarzian_rate(math.cos, _mobius_init(m, ex.init), 1.0, 0.01, 150)
    assert image.stop is run.stop is StopReason.COMPLETED and image.xs == run.xs
    mobius = make_mobius(*m)
    assert max(rel_diff(mobius(y), w) for y, w in zip(run.ys, image.ys)) <= 1e-13


def test_linear_rk4_crosses_the_pole_of_tan():
    init = reference._tan_outer(1.0)[:4]
    run = rk4_schwarzian_rate(lambda x: 0.0, init, 1.0, 1e-2, 120)
    assert run.stop is StopReason.COMPLETED and run.xs[-1] > math.pi / 2
    # the angle atan(y) of tan x is x, mod pi; 1.0e-10 measured
    gaps = [abs((math.atan(y) - x + math.pi / 2) % math.pi - math.pi / 2)
            for x, y in zip(run.xs, run.ys)]
    assert max(gaps) <= 1e-9


def test_linear_rk4_stops_on_a_pole_node_or_past_the_limit():
    # y = 1/x has S = 0, so u2 = -x, which vanishes on the node x = 0
    run = rk4_schwarzian_rate(lambda x: 0.0, (-1.0, -1.0, -2.0, -6.0), -1.0, 0.25, 8)
    assert run.stop is StopReason.NON_FINITE and run.xs == (-1.0, -0.75, -0.5, -0.25)
    assert run.ys == (-1.0, -1.0 / 0.75, -2.0, -4.0)
    # a straight line, finite everywhere, passes OVERFLOW_LIMIT at x = 3
    run = rk4_schwarzian_rate(lambda x: 0.0, (9.9e299, 4e297, 0.0, 0.0), 0.0, 1.0, 10)
    assert run.stop is StopReason.NON_FINITE and len(run) == 3


def test_linear_rk4_validates_input():
    init = cli.EXAMPLES["1"].init
    with pytest.raises(DomainError, match="y' = 0"):
        rk4_schwarzian_rate(math.cos, (1.0, 0.0, 1.0, 1.0), 1.0, 1e-3, 10)
    with pytest.raises(ValueError):
        rk4_schwarzian_rate(math.cos, init, 1.0, 1e-3, -1)
    with pytest.raises(ValueError):
        rk4_schwarzian_rate(math.cos, init, 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        rk4_schwarzian_rate(math.cos, init[:3], 1.0, 1e-3, 10)
    for x0 in (math.nan, math.inf):
        with pytest.raises(NonFiniteError):
            rk4_schwarzian_rate(math.cos, init, x0, 1e-3, 10)
    with pytest.raises(NonFiniteError):  # the last abscissa overflows
        rk4_schwarzian_rate(math.cos, init, 1.7e308, 1e306, 20)


# --- exact solutions ----------------------------------------------------------------

def test_exact_eval_examples():
    assert one_over_one_minus_exp().eval_fn(-1.0) == pytest.approx(
        1.0 / (1.0 - math.exp(-1.0)), rel=1e-15)
    assert log_abs().eval_fn(-1.0) == 0.0
    assert tan_reciprocal().eval_fn(0.1) == pytest.approx(math.tan(10.0), rel=1e-15)


def test_exact_jets_at_reference_points():
    assert arctanh_solution().jet_fn(0.0).d == (0.0, 1.0, 0.0, 2.0, 0.0, 24.0)
    assert log_abs().jet_fn(-1.0).d == (0.0, -1.0, -1.0, -2.0, -6.0, -24.0)


def test_domain_errors():
    # both evaluators; at +-1e-17, e^x rounds to 1 and 1 - e^x to 0
    for sol, x in ((log_abs(), 0.0), (arctanh_solution(), 1.0), (tan_reciprocal(), 0.0),
                   *((one_over_one_minus_exp(), x) for x in (0.0, 1e-17, -1e-17))):
        with pytest.raises(DomainError):
            sol.eval_fn(x)
        with pytest.raises(DomainError):
            sol.jet_fn(x)


@pytest.mark.parametrize("sol,fm,xs", [
    (log_abs(), lambda z: mp.log(abs(z)), (-1.5, -0.7, 2.3)),
    (arctanh_solution(), mp.atanh, (-0.5, 0.0, 0.6)),
    (one_over_one_minus_exp(), lambda z: 1 / (1 - mp.e ** z), (-1.0, 0.5)),
    (tan_reciprocal(), lambda z: mp.tan(1 / z), (0.45,)),
    (general_arctanh(0.5, 0.1, -1.0, 2.0),
     lambda z: -1 + mp.atanh(0.5 * z + 0.1), (0.2, -0.6)),
])
def test_jets_match_finite_differences(sol, fm, xs):
    # central differences at step 1e-4, carried out in extended precision so
    # the stencil cancellation does not swamp the comparison
    mp.mp.dps = 50
    step = mp.mpf("1e-4")
    for x in xs:
        jet = sol.jet_fn(x)
        fd = finite_difference_jet(fm, mp.mpf(x), step)
        for k in range(6):
            assert abs(float(fd[k]) - jet.d[k]) <= 1e-5 * max(1.0, abs(jet.d[k]))


def test_tan_reciprocal_jet_steep_region():
    # too steep for the step-1e-4 difference stencil; check against direct
    # extended-precision derivatives instead
    mp.mp.dps = 50
    for x in (0.15, 0.3):
        jet = tan_reciprocal().jet_fn(x)
        for k in range(6):
            exact = float(mp.diff(lambda z: mp.tan(1 / z), mp.mpf(x), k))
            assert jet.d[k] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("sol,system,grid", [
    (log_abs(), scaled_schwarzian_system(lambda x, y: 0.5), np.linspace(-2.0, -0.1, 100)),
    (arctanh_solution(), scaled_schwarzian_system(lambda x, y: 2.0), np.linspace(-0.9, 0.9, 100)),
    (one_over_one_minus_exp(), fifth_order_invariant_system(0.0), np.linspace(-2.0, -0.1, 100)),
    (tan_reciprocal(), fifth_order_invariant_system(0.0), np.linspace(0.14, 0.19, 100)),
    (general_arctanh(0.8, 0.05, 1.5, 3.0), scaled_schwarzian_system(lambda x, y: 3.0),
     np.linspace(-0.9, 0.9, 100)),
    # y^(5)(0) = 0 on the first: the scale's 1 covers it
    (TAN_ATAN_ORBIT, fifth_order_invariant_system(-4.0), np.linspace(-2.0, 3.0, 101)),
    (POWER_ORBIT, fifth_order_invariant_system(8.0),
     np.concatenate([np.linspace(-6.0, -1.2, 50), np.linspace(3.2, 8.0, 50)])),
])
def test_exact_solutions_satisfy_their_equations(sol, system, grid):
    for x in grid:
        jet = sol.jet_fn(float(x))
        rhs = system.rhs(float(x), *jet.d[:system.order])
        resid = abs(jet.d[system.order] - rhs)
        assert resid <= 1e-8 * max(1.0, abs(jet.d[system.order]), abs(rhs))


#: |x| log-spaced from 1e-320 to 1e308, four points a decade, both signs, and the ends
JET_SWEEP = [s * 10.0 ** (e / 4) for s in (1.0, -1.0) for e in range(-1280, 1233)]
JET_SWEEP += [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]


def reciprocal_jet_literal(x):
    """The closed-form 1/x and its first four derivatives."""
    return (1.0 / x, -1.0 / x ** 2, 2.0 / x ** 3, -6.0 / x ** 4, 24.0 / x ** 5)


@pytest.mark.parametrize("name", list(EXACT_SOLUTIONS))
def test_exact_jets_raise_non_finite_where_a_derivative_overflows(name):
    # a jet is finite, or raises NonFiniteError, or DomainError at a
    # singular point; never ZeroDivisionError or OverflowError
    jet_fn = EXACT_SOLUTIONS[name]().jet_fn
    finite = 0
    for x in JET_SWEEP:
        try:
            jet = jet_fn(x)
        except DomainError:
            continue
        except NonFiniteError as e:
            # from the power that leaves the float range, or from Jet's check
            assert repr(x) in str(e) or str(e) == "non-finite jet entry"
            continue
        finite += 1
        assert all(map(math.isfinite, jet.d))
        # the jets of 1/x stay the closed form, bit for bit
        if name == "log-abs":
            assert jet.d == (math.log(abs(x)), *reciprocal_jet_literal(x))
        elif name == "tan-reciprocal":
            inner = Jet(x, (*reciprocal_jet_literal(x), -120.0 / x ** 6))
            assert jet == compose_jet(reference._tan_outer(1.0 / x), inner)
    assert finite >= 200


@pytest.mark.parametrize("name", list(EXACT_SOLUTIONS))
def test_exact_value_is_the_jet_value(name):
    # wherever both evaluators return, the value is the jet's first entry, bit
    # for bit; and where one finds x singular, so does the other
    sol = EXACT_SOLUTIONS[name]()
    both = 0
    for x in JET_SWEEP:
        value, jet = _value_or_error(sol.eval_fn, x), _value_or_error(sol.jet_fn, x)
        assert (value is DomainError) == (jet is DomainError), x
        if isinstance(value, float) and isinstance(jet, Jet):
            both += 1
            assert value == jet.d[0], x
    assert both >= 200


def _value_or_error(fn, x):
    """fn(x), or the class of the error it raises."""
    try:
        return fn(x)
    except (ValueError, ArithmeticError) as e:
        return type(e)


@pytest.mark.parametrize("sol, x", [
    (log_abs(), 1e-66),  # x ** 4 underflows to zero
    (log_abs(), -1e62),  # x ** 5 overflows
    (tan_reciprocal(), 1e-40),  # g1 ** 4 overflows in compose_jet
    (tan_reciprocal(), 1e-60),  # x ** 6 underflows to zero
    (one_over_one_minus_exp(), 119.0),  # (1 - e^x) ** 6 overflows
    (one_over_one_minus_exp(), 710.0),  # e^x overflows
    (EXACT_SOLUTIONS["exp"](), 710.0),
], ids=["log-underflow", "log-overflow", "tan-compose", "tan-underflow", "omex-power",
        "omex-exp", "exp"])
def test_jet_overflow_names_x(sol, x):
    with pytest.raises(NonFiniteError, match=re.escape(f"at x = {x!r}") + "$"):
        sol.jet_fn(x)


@pytest.mark.parametrize("x", [1e-320, 1e-309, 5.5e-309])
def test_tan_reciprocal_tiny_x_raises_non_finite(x):
    # 1/x rounds to inf: both evaluators name x, where math.tan raised ValueError
    sol = tan_reciprocal()
    for fn in (sol.eval_fn, sol.jet_fn):
        with pytest.raises(NonFiniteError, match=re.escape(f"at x = {x!r}") + "$"):
            fn(x)


def test_one_over_one_minus_exp_value_overflow_names_x():
    with pytest.raises(NonFiniteError, match=re.escape("at x = 710.0") + "$"):
        one_over_one_minus_exp().eval_fn(710.0)


def test_general_arctanh_reduces_to_base():
    g = general_arctanh(1.0, 0.0, 0.0, 2.0)
    for x in (-0.5, 0.2, 0.7):
        assert g.eval_fn(x) == pytest.approx(math.atanh(x), rel=1e-14)
        assert g.jet_fn(x).d == pytest.approx(arctanh_solution().jet_fn(x).d)
    with pytest.raises(ValueError, match="^c must be positive$"):
        general_arctanh(1, 0, 0, 0)


# --- chi ------------------------------------------------------------------------------

def _traj(ys):
    return Trajectory(tuple(float(k) for k in range(len(ys))),
                      tuple(float(y) for y in ys), StopReason.COMPLETED, "test", 1.0)


def test_chi_identical_is_zero():
    assert chi(_traj([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]) == 0.0


def test_chi_value():
    assert chi(_traj([1.0, 1.0]), [1.0, 2.0]) == pytest.approx(
        math.sqrt(1.0 / 5.0), rel=1e-14)


def test_chi_normalizes_by_reference():
    a, b = [1.0, 1.0], [1.0, 2.0]
    assert chi(_traj(a), b) != chi(_traj(b), a)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_chi_far_from_unit_scale(scale):
    # the squares of these rows overflow or underflow
    value = chi(_traj([1.1 * scale, 2.0 * scale]), [scale, 2.0 * scale])
    assert value == pytest.approx(0.1 / math.sqrt(5.0), rel=1e-12)


def chi_list_form(ys, reference):
    """Test-only copy of chi's former quotient, its deviations in a list."""
    return (math.hypot(*[a - b for a, b in zip(ys, reference)])
            / math.hypot(*reference))


@pytest.mark.parametrize("n", [1, 2, 7, 8_000])
def test_chi_matches_list_form(rng, n):
    # magnitudes spread over 1e-150..1e150, both signs, so hypot rescales
    scale = 10.0 ** rng.uniform(-150, 150, n)
    ref = (rng.standard_normal(n) * scale).tolist()
    ys = [r * (1 + d) for r, d in zip(ref, rng.standard_normal(n) * 1e-6)]
    expected = chi_list_form(ys, ref)
    assert chi(_traj(ys), ref) == expected
    assert chi(ys, ref) == expected


def chi_hypot_form(ys, reference):
    """Test-only copy of chi's former quotient, hypot over mapped differences."""
    return math.hypot(*map(operator.sub, ys, reference)) / math.hypot(*reference)


#: a float at any scale from 1e-300 to 1e300, or near the top of the range,
#: where the difference of two of opposite sign overflows to inf
_ANY_SCALE = st.one_of(st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0),
                                 st.integers(-300, 300)),
                       st.sampled_from([1.7e308, -1.7e308, 8.9e307, -8.9e307]))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_ANY_SCALE, _ANY_SCALE), min_size=1, max_size=12))
def test_chi_is_the_hypot_of_mapped_differences(rows):
    ys, ref = (list(col) for col in zip(*rows))
    if math.hypot(*ref) == 0.0:
        with pytest.raises(DegenerateCoefficientError):
            chi(ys, ref)
        return
    assert repr(chi(ys, ref)) == repr(chi_hypot_form(ys, ref))


def test_import_leaves_numpy_out():
    src = str(Path(invdisc.__file__).parents[1])
    code = "import sys, invdisc; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_chi_errors():
    with pytest.raises(ValueError):
        chi(_traj([1.0, 2.0]), [1.0])
    with pytest.raises(DegenerateCoefficientError):
        chi(_traj([1.0, 2.0]), [0.0, 0.0])
    with pytest.raises(ValueError, match="^chi needs at least one point$"):
        chi([], [])
