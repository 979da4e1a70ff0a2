import math

import pytest

from invdisc import (Jet, LimitProbe, arctanh_solution, jy_invariants,
                     kx_invariants, log_abs, one_over_one_minus_exp,
                     probe_limit, w0_sol2)

from conftest import polynomial_jet


def jet_exp(x):
    return Jet(x, (math.exp(x),) * 6)


def geometric(h0, ratio, levels):
    return tuple(h0 * ratio ** k for k in range(levels))


def test_probe_validation():
    with pytest.raises(ValueError):
        LimitProbe("l3", jet_exp, 0.0, (0.01, 0.02, 0.005, 0.001))
    with pytest.raises(ValueError):
        LimitProbe("l3", jet_exp, 0.0, (0.01, 0.005))
    with pytest.raises(ValueError):
        LimitProbe("nope", jet_exp, 0.0, geometric(0.01, 0.5, 4))
    # every comparison with NaN is false, so a NaN ladder is not decreasing
    for hs in ((math.nan,) * 4, (0.01, math.nan, 0.005, 0.001), (math.inf, 1.0, 0.5, 0.1)):
        with pytest.raises(ValueError):
            LimitProbe("l3", jet_exp, 0.0, hs)
    # every level's mean spacing is 0.1, so the order fit has nothing to fit
    probe = LimitProbe("l3", jet_exp, 0.0, (0.4, 0.2, 0.1, 0.05),
                       lattice=lambda h: [0.0, 0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="mean spacing .* repeats"):
        probe_limit(probe)


def test_l3_probe_on_log():
    # nonzero fourth-order invariant keeps the decay linear in h
    rep = probe_limit(LimitProbe("l3", log_abs().jet_fn, 1.0, geometric(0.01, 0.5, 5)))
    assert 0.8 <= rep.estimated_order <= 1.3
    assert abs(rep.limit_value - 0.5) <= 3.0 * rep.errors[0]


def test_l3_probe_on_exp_superconverges():
    # the linear term carries the fourth-order invariant, which vanishes for
    # the exponential, so the measured order exceeds 1
    rep = probe_limit(LimitProbe("l3", jet_exp, 0.0, geometric(0.01, 0.5, 4)))
    assert rep.estimated_order >= 0.8
    assert abs(rep.limit_value - (-0.5)) <= 3.0 * rep.errors[0]


def test_l3_probe_hits_roundoff_floor():
    hs = geometric(1e-2, 0.1, 4)  # down to 1e-5
    rep = probe_limit(LimitProbe("l3", jet_exp, 0.0, hs))
    assert rep.floor_level < len(hs)


def test_m5_probe_arctanh_spec_case():
    # arctanh solves the constant-source equation, so the corrected target is 0
    sol = arctanh_solution()
    h0 = 0.01
    rep = probe_limit(LimitProbe("m5", sol.jet_fn, 0.3, geometric(h0, 0.5, 5)))
    t = kx_invariants(sol.jet_fn(0.3))
    assert abs(t.fifth - 2.0 * t.third ** 2) <= 1e-12
    assert abs(rep.limit_value - rep.targets[-1]) <= 10.0 * h0


def test_h5_probe_on_perturbed_exact_solution():
    # bend the product-invariant solution off its H = 0 manifold and track the
    # perturbed jet target
    omex = one_over_one_minus_exp()
    eps = 0.5

    def jet_pert(x):
        a = omex.jet_fn(x)
        b = polynomial_jet((0.0, 0.0, 0.0, eps), x)
        return Jet(x, tuple(u + v for u, v in zip(a.d, b.d)))

    rep = probe_limit(LimitProbe("h5", jet_pert, -1.0, geometric(0.04, 0.6, 6)))
    assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))
    assert rep.errors[-1] <= rep.errors[0] / 5.0


def test_l5_probe_nonuniform_alphas():
    def lattice(h):
        xs = [0.0]
        for a in (1.0, 1.3, 0.8, 1.1, 0.9):
            xs.append(xs[-1] + h * a)
        return xs

    rep = probe_limit(LimitProbe("l5", jet_exp, 0.0, geometric(0.05, 0.6, 4),
                                 lattice=lattice))
    assert rep.errors[2] < rep.errors[0]
    assert max(rep.errors[:3]) <= 1e-4


def test_l5_probe_sol2_lattice_needs_w_correction():
    A, B = 1.0, 6.0
    w0 = w0_sol2(A, B)

    def lattice(h):
        lam = A / (h * B * B)
        return [1.0 / (lam * (A * m + B)) for m in range(6)]

    hs = (0.05, 0.03, 0.02, 0.012)
    corrected = probe_limit(LimitProbe("l5", jet_exp, 0.0, hs, lattice=lattice))
    bare = probe_limit(LimitProbe(
        "l5", jet_exp, 0.0, hs, lattice=lattice,
        target_fn=lambda jet, xs: jy_invariants(jet).fifth))
    # the finite-lattice W equals the closed form, so the corrected probe
    # converges while the bare one stalls at |W0| * J3^2
    plateau = abs(w0) * 0.25
    assert max(corrected.errors) <= 0.2 * plateau
    for e in bare.errors:
        assert e == pytest.approx(plateau, rel=0.35)


def test_report_fields():
    rep = probe_limit(LimitProbe("l4", log_abs().jet_fn, 1.0, geometric(0.01, 0.5, 5)))
    assert len(rep.hs) == len(rep.errors) == len(rep.values) == 5
    assert rep.floor_level == 5
    assert 0.8 <= rep.estimated_order <= 1.3
