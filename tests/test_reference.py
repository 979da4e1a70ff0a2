import math

import mpmath as mp
import numpy as np
import pytest

from invdisc import (DegenerateCoefficientError, DomainError, Point, StopReason,
                     Trajectory, arctanh_solution, chi,
                     fifth_order_invariant_system, general_arctanh, log_abs,
                     one_over_one_minus_exp, rk4_integrate,
                     scaled_schwarzian_system, schwarzian_rate_system,
                     tan_reciprocal)
from invdisc.differential import finite_difference_jet


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
    with pytest.raises(DomainError):
        log_abs().eval_fn(0.0)
    with pytest.raises(DomainError):
        arctanh_solution().eval_fn(1.0)
    with pytest.raises(DomainError):
        one_over_one_minus_exp().eval_fn(0.0)
    with pytest.raises(DomainError):
        tan_reciprocal().eval_fn(0.0)
    with pytest.raises(DomainError):
        log_abs().jet_fn(0.0)


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
])
def test_exact_solutions_satisfy_their_equations(sol, system, grid):
    for x in grid:
        jet = sol.jet_fn(float(x))
        rhs = system.rhs(float(x), jet.d[:system.order])
        resid = abs(jet.d[system.order] - rhs)
        assert resid <= 1e-8 * max(1.0, abs(jet.d[system.order]), abs(rhs))


def test_general_arctanh_reduces_to_base():
    g = general_arctanh(1.0, 0.0, 0.0, 2.0)
    for x in (-0.5, 0.2, 0.7):
        assert g.eval_fn(x) == pytest.approx(math.atanh(x), rel=1e-14)
        assert g.jet_fn(x).d == pytest.approx(arctanh_solution().jet_fn(x).d)


# --- chi ------------------------------------------------------------------------------

def _traj(ys):
    pts = tuple(Point(float(k), float(y)) for k, y in enumerate(ys))
    return Trajectory(pts, StopReason.COMPLETED, "test", 1.0)


def test_chi_identical_is_zero():
    assert chi(_traj([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]) == 0.0


def test_chi_value():
    assert chi(_traj([1.0, 1.0]), [1.0, 2.0]) == pytest.approx(
        math.sqrt(1.0 / 5.0), rel=1e-14)


def test_chi_normalizes_by_reference():
    a, b = [1.0, 1.0], [1.0, 2.0]
    assert chi(_traj(a), b) != chi(_traj(b), a)


def test_chi_errors():
    with pytest.raises(ValueError):
        chi(_traj([1.0, 2.0]), [1.0])
    with pytest.raises(DegenerateCoefficientError):
        chi(_traj([1.0, 2.0]), [0.0, 0.0])
