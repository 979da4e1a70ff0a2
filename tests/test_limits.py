import math
from collections import Counter

import pytest

from invdisc import (EXACT_SOLUTIONS, Jet, LimitProbe, LimitReport, NonFiniteError,
                     Stencil, arctanh_solution, jy_invariants, kx_invariants, limits,
                     log_abs, one_over_one_minus_exp, probe_limit, tan_reciprocal,
                     w0_sol2)
from invdisc.limits import _INVARIANTS, _abscissae, target_value

from conftest import polynomial_jet

jet_exp = EXACT_SOLUTIONS["exp"]().jet_fn


def geometric(h0, ratio, levels):
    return tuple(h0 * ratio ** k for k in range(levels))


def test_probe_validation():
    with pytest.raises(ValueError):
        LimitProbe("l3", jet_exp, 0.0, (0.01, 0.02, 0.005, 0.001))
    with pytest.raises(ValueError):
        LimitProbe("l3", jet_exp, 0.0, (0.01, 0.005))
    with pytest.raises(ValueError):
        LimitProbe("nope", jet_exp, 0.0, geometric(0.01, 0.5, 4))
    with pytest.raises(ValueError, match="^unknown invariant 'l6'$"):
        target_value("l6", jet_exp(0.0), (0.0, 0.1, 0.2, 0.3))
    short = LimitProbe("l3", jet_exp, 0.0, geometric(0.01, 0.5, 4),
                       lattice=lambda h: [0.0, h, 2 * h])
    with pytest.raises(ValueError, match="^lattice callable returned 3 abscissae, need 4$"):
        probe_limit(short)
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


# --- one test_function call per distinct abscissa ---------------------------------

def probe_limit_per_level(p: LimitProbe) -> LimitReport:
    """Test-only copy of ``probe_limit`` that calls ``test_function`` for
    every point of every level, builds a Stencil per level and calls the
    public evaluator and ``target_value``; the two reports must be equal."""
    npts, evaluate = _INVARIANTS[p.invariant]
    values, errors, targets, mean_hs = [], [], [], []
    for h in p.h_sequence:
        xs = _abscissae(p, h, npts)
        mean_hs.append(sum(abs(b - a) for a, b in zip(xs, xs[1:])) / (npts - 1))
        jets = [p.test_function(x) for x in xs]
        value = evaluate(Stencil(xs, [j.d[0] for j in jets]))
        if p.target_fn is not None:
            target = p.target_fn(jets[0], xs)
        else:
            target = target_value(p.invariant, jets[0], xs)
        values.append(value)
        targets.append(target)
        errors.append(abs(value - target))
    floor = next((i for i in range(1, len(errors)) if errors[i] >= errors[i - 1]),
                 len(errors))
    clean = max(floor, 2)
    us = [math.log(h) for h in mean_hs[:clean]]
    vs = [math.log(max(e, 1e-300)) for e in errors[:clean]]
    mu, mv = sum(us) / len(us), sum(vs) / len(vs)
    slope = (sum((u - mu) * (v - mv) for u, v in zip(us, vs))
             / sum((u - mu) ** 2 for u in us))
    return LimitReport(tuple(mean_hs), tuple(values), tuple(errors), tuple(targets),
                       slope, values[clean - 1], floor)


class CountingJets:
    """A test function that counts its calls per abscissa, -0.0 and 0.0 apart."""

    def __init__(self, fn):
        self.fn, self.calls = fn, Counter()

    def __call__(self, x):
        self.calls[repr(x)] += 1
        return self.fn(x)


def sol2_lattice(h):
    lam = 1.0 / (h * 36.0)
    return [1.0 / (lam * (m + 6.0)) for m in range(6)]


def signed_zero_lattice(h):
    # -0.0 at the first level, 0.0 at the later ones
    return [-0.0 if h == 0.04 else 0.0, h, 2.0 * h, 3.0 * h]


def signed_exp(x):
    # tells -0.0 from 0.0, so that a jet of one at the other shows in the report
    return Jet(x, (math.exp(x + 0.01 * math.copysign(1.0, x)),) * 6)


PROBES = {
    "uniform-0.5-log": ("l3", log_abs().jet_fn, 1.0, geometric(0.01, 0.5, 5), None),
    "uniform-0.5-tan": ("l4", tan_reciprocal().jet_fn, 0.165, geometric(1e-3, 0.5, 5), None),
    "uniform-0.6-log": ("l5", log_abs().jet_fn, 1.0, geometric(0.05, 0.6, 6), None),
    "uniform-0.6-exp": ("m5", jet_exp, 0.2, geometric(0.05, 0.6, 6), None),
    "lattice": ("l5", jet_exp, 0.0, (0.05, 0.03, 0.02, 0.012), sol2_lattice),
    "signed-zero": ("l3", signed_exp, 0.0, geometric(0.04, 0.5, 4), signed_zero_lattice),
    "uniform-0.6-log-h5": ("h5", log_abs().jet_fn, 1.0, geometric(0.05, 0.6, 6), None),
    "uniform-0.5-atanh": ("m3", arctanh_solution().jet_fn, 0.3, geometric(0.01, 0.5, 5), None),
    "decreasing": ("l4", jet_exp, 0.0, geometric(0.04, 0.5, 4),
                   lambda h: [-k * h for k in range(5)]),
}


@pytest.mark.parametrize("invariant, fn, x0, hs, lattice", PROBES.values(), ids=PROBES)
def test_probe_evaluates_each_abscissa_once(invariant, fn, x0, hs, lattice):
    counting = CountingJets(fn)
    probe = LimitProbe(invariant, counting, x0, hs, lattice=lattice)
    rep = probe_limit(probe)
    npts = _INVARIANTS[invariant][0]
    abscissae = [repr(x) for h in hs for x in _abscissae(probe, h, npts)]
    assert set(counting.calls) == set(abscissae)
    assert set(counting.calls.values()) == {1}
    assert rep == probe_limit_per_level(LimitProbe(invariant, fn, x0, hs, lattice=lattice))
    if lattice is None:  # the anchor repeats at every uniform level
        assert len(counting.calls) < len(abscissae)
    if lattice is signed_zero_lattice:
        assert counting.calls["-0.0"] == counting.calls["0.0"] == 1


@pytest.mark.parametrize("invariant, fn, x0, hs, lattice", PROBES.values(), ids=PROBES)
def test_probe_takes_each_anchor_jets_invariants_once(invariant, fn, x0, hs, lattice,
                                                      monkeypatch):
    calls = Counter()

    def counting(name):
        real = getattr(limits, name)

        def counted(jet):
            calls[name, repr(jet.x)] += 1
            return real(jet)
        return counted

    for name in ("jy_invariants", "kx_invariants", "h5_differential"):
        monkeypatch.setattr(limits, name, counting(name))
    probe = LimitProbe(invariant, fn, x0, hs, lattice=lattice)
    probe_limit(probe)
    npts = _INVARIANTS[invariant][0]
    anchors = {repr(_abscissae(probe, h, npts)[0]) for h in hs}
    family = {"l": "jy_invariants", "m": "kx_invariants", "h": "h5_differential"}
    assert calls == Counter({(family[invariant[0]], x): 1 for x in anchors})
    if lattice is None:
        assert sum(calls.values()) == 1
    # a target_fn takes the place of the anchor's invariants
    calls.clear()
    probe_limit(LimitProbe(invariant, fn, x0, hs, lattice=lattice,
                           target_fn=lambda jet, xs: 0.0))
    assert not calls


@pytest.mark.parametrize("invariant, fn, x0, hs, lattice", PROBES.values(), ids=PROBES)
def test_probe_evaluates_each_level_through_the_public_evaluator(invariant, fn, x0, hs,
                                                                 lattice, monkeypatch):
    # wrapped where probe_limit looks it up, as bench/tracing.py wraps it
    npts, evaluate = _INVARIANTS[invariant]
    stencils = []

    def counted(s):
        stencils.append(s)
        return evaluate(s)

    monkeypatch.setitem(_INVARIANTS, invariant, (npts, counted))
    rep = probe_limit(LimitProbe(invariant, fn, x0, hs, lattice=lattice))
    assert len(stencils) == len(hs)
    assert all(type(s) is Stencil and len(s.xs) == len(s.ys) == npts for s in stencils)
    assert rep.values == tuple(map(evaluate, stencils))


def ignores_x(x):
    return Jet(0.0, (1.0, 1.0, 2.0, 3.0, 4.0, 5.0))


@pytest.mark.parametrize("nodes, error, message", [
    ((0.0, 0.2, 0.1, 0.3), ValueError, "strictly monotone"),
    ((0.0, 0.1, 0.1, 0.3), ValueError, "strictly monotone"),
    ((0.3, 0.1, 0.2, 0.0), ValueError, "strictly monotone"),
    ((0.0, 0.1, 0.2, math.inf), NonFiniteError, "non-finite point"),
    ((-math.inf, 0.1, 0.2, 0.3), NonFiniteError, "non-finite point"),
    # not monotone either: the finite check comes first, as in a Stencil
    ((0.0, math.inf, 0.2, 0.3), NonFiniteError, "non-finite point"),
    ((0.0, 0.1, 0.2, math.nan), NonFiniteError, "non-finite point"),
    ((math.nan,) * 4, NonFiniteError, "non-finite point"),
], ids=["swapped", "repeated", "unordered", "inf-last", "-inf-first", "inf-unordered",
        "nan-last", "all-nan"])
def test_probe_checks_each_levels_abscissae(nodes, error, message):
    # the jets check the ordinates, and this test function ignores x, so only
    # the Stencil of each level, which checks its abscissae, can catch these
    def lattice(h):
        return [x * h / 0.1 for x in nodes]

    probe = LimitProbe("l3", ignores_x, 0.0, geometric(0.1, 0.5, 4), lattice=lattice)
    with pytest.raises(error, match=message):
        probe_limit(probe)
    # and so does the per-level oracle
    with pytest.raises(error, match=message):
        probe_limit_per_level(probe)
