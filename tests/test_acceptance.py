"""Acceptance suite: one test per numbered criterion, each enforced at its
stated tolerance and printing a PASS/FAIL line.

Criterion 3 is parametrized per step size.  Its h = 0.1 and h = 0.01 rows
check the published Table-3 deviation within +-20%.  At h = 0.001 the scheme
gives chi = 9.1454e-5, not the published 0.001131, and that value is the
scheme's own: a 30-digit mpmath run of the same scheme (exact seeds, m3 = 2
solved from its cross-ratio definition) agrees with it to 2e-6 relative, and
the deviation falls ~ h^1.9 from h = 0.01, so it is limited by truncation.
The published value comes back only from degraded input: seeds rounded to 9
or 8 decimals give chi = 1.3e-4 or 4.4e-3.  Working precision does not
explain it either: float32 arithmetic throughout gives chi above 0.1.
So the h = 0.001 row checks that the scheme is not worse than the published
value and that it matches the 30-digit shadow run.
"""
import math
import time

import mpmath as mp
import numpy as np
import pytest

from invdisc import (Constant, FunctionOfX, Jet, LimitProbe,
                     SchemeKind, SchemeSpec, Stencil, StopReason, Uniform,
                     arctanh_solution, chi, cross_ratio,
                     fifth_order_invariant_system, h5_discrete, h5_step,
                     h5_uniform, integrate, jy_invariants,
                     kx_invariants, l3, l4, l5, log_abs, m3, m4, m5,
                     one_over_one_minus_exp, probe_limit, rk4_integrate,
                     scaled_schwarzian_system, schwarzian_rate_system,
                     seed_stencil_from_function, sly4_step,
                     stencil_from_sequences, tan_reciprocal, w_coefficient,
                     wx_coefficient)
from invdisc.discrete import CrossRatioWindow
from invdisc.reference import general_arctanh
from invdisc.differential import h5_differential

import shadow
from conftest import (h5_differential_hodograph, jtilde5, make_mobius, mobius_jet,
                      random_mobius)

H_REF = 1e-5
TABLE1 = {0.1: (0.451095, 0.310466, 0.298885),
          0.01: (0.451084, 0.310435, 0.298850),
          0.001: (0.451089, 0.310434, 0.298849)}
TABLE2 = {0.1: 4.67e-5, 0.01: 1.79e-6, 0.001: 7.23e-8}
TABLE3 = {0.1: 0.145901, 0.01: 0.007028, 0.001: 0.001131}
POLE5 = 2.0 / (5.0 * math.pi)


def report(name, ok, detail=""):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def eq1_reference():
    """Fine-step RK4 solution of the fourth-order example over [1, 2.5]."""
    system = schwarzian_rate_system(math.cos)
    t0 = time.monotonic()
    traj = rk4_integrate(system, (1.0, -1.0, -2.5, 5.0), 1.0, H_REF,
                         round(1.5 / H_REF))
    assert traj.stop is StopReason.COMPLETED
    return traj, time.monotonic() - t0


def _invariant_run_eq1(reference, h):
    stride = round(h / H_REF)
    end = 3 * stride + 1
    seed = Stencil(reference.xs[:end:stride], reference.ys[:end:stride])
    spec = SchemeSpec(SchemeKind.SLY4, FunctionOfX(math.cos), Uniform(h))
    traj = integrate(spec, seed, round(1.5 / h) - 3)
    assert traj.stop is StopReason.COMPLETED
    return traj, stride


def test_criterion_1_table1_values(eq1_reference):
    reference, ref_seconds = eq1_reference
    t0 = time.monotonic()
    worst = 0.0
    for h, wanted in TABLE1.items():
        traj, _ = _invariant_run_eq1(reference, h)
        for x_target, value in zip((1.5, 2.0, 2.5), wanted):
            n = round((x_target - 1.0) / h)
            dev = abs(traj.points[n].y - value)
            worst = max(worst, dev)
    elapsed = time.monotonic() - t0 + ref_seconds
    ok = worst <= 5e-5 and elapsed < 5.0
    report("1 (table-1 values)", ok, f"worst dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 5e-5
    assert elapsed < 5.0


def test_criterion_2_table2_chi(eq1_reference):
    reference, _ = eq1_reference
    t0 = time.monotonic()
    ratios = {}
    for h, wanted in TABLE2.items():
        traj, stride = _invariant_run_eq1(reference, h)
        ref_ys = [reference.points[n * stride].y for n in range(len(traj.points))]
        ratios[h] = chi(traj, ref_ys) / wanted
    elapsed = time.monotonic() - t0
    ok = all(1.0 / 5.0 <= r <= 5.0 for r in ratios.values()) and elapsed < 30.0
    report("2 (table-2 chi, factor-5 band)", ok,
           f"ratios {({k: round(v, 3) for k, v in ratios.items()})}, {elapsed:.2f}s")
    for h, r in ratios.items():
        assert 1.0 / 5.0 <= r <= 5.0, f"chi ratio off at h={h}: {r}"
    assert elapsed < 30.0


def _slx3_shadow_chi(h, n_steps, digits=30):
    """chi against arctanh of the Table-3 run m3 = 2 from x = -0.9, redone
    in ``digits``-digit mpmath by :func:`shadow.slx3`, which solves m3 from
    its cross-ratio definition, from arctanh at the first three nodes."""
    with mp.workdps(digits):
        x0, step = mp.mpf(-0.9), mp.mpf(h)
        xs = [x0 + k * step for k in range(n_steps + 3)]
        ys = shadow.slx3(xs[:3], [mp.atanh(x) for x in xs[:3]], xs[3:], 2, digits)
        assert len(ys) == len(xs)
        num = mp.fsum((y - mp.atanh(x)) ** 2 for x, y in zip(xs, ys))
        den = mp.fsum(mp.atanh(x) ** 2 for x in xs)
        return float(mp.sqrt(num / den))


# Stop reason and point count of each Table-3 run.  At h = 0.1 the step to
# x = 0.9 has no real root (its discriminant stays negative in 40-digit
# arithmetic), so the scheme halts at x = 0.8 after 18 of the 19 points.
TABLE3_STOPS = {0.1: (StopReason.NO_REAL_ROOT, 18),
                0.01: (StopReason.COMPLETED, 181),
                0.001: (StopReason.COMPLETED, 1801)}


@pytest.mark.parametrize("h", [0.1, 0.01, 0.001])
def test_criterion_3_table3_chi(h):
    t0 = time.monotonic()
    seed = seed_stencil_from_function(math.atanh, -0.9, h, 3)
    spec = SchemeSpec(SchemeKind.SLX3, Constant(2.0), Uniform(h))
    n_steps = round(1.8 / h) - 2
    traj = integrate(spec, seed, n_steps)
    # at h = 0.1 chi covers only the 18 points before the barrier
    value = chi(traj, [math.atanh(p.x) for p in traj.points])
    elapsed = time.monotonic() - t0
    rel = (value - TABLE3[h]) / TABLE3[h]
    stop, count = TABLE3_STOPS[h]
    stopped_as_expected = traj.stop is stop and len(traj) == count
    if h == 0.001:
        # NOTE: the published 0.001131 is not what this scheme gives at
        # double or higher precision: the 30-digit shadow run gives 9.1454e-5
        # (this run 9.1454e-5), seeds rounded to 8 decimals give 4.4e-3 and
        # float32 arithmetic gives > 0.1 (see the module docstring).  Check
        # the direction of the paper's claim, no worse than the published
        # row, and that the value is the scheme's own.
        shadow = _slx3_shadow_chi(h, n_steps)
        shadow_rel = value / shadow - 1.0
        ok = value <= 1.2 * TABLE3[h] and abs(shadow_rel) <= 1e-3
        detail = (f"chi {value:.6e} vs published {TABLE3[h]} ({rel:+.1%}), "
                  f"vs 30-digit shadow {shadow:.6e} ({shadow_rel:+.1e})")
    else:
        ok = abs(rel) <= 0.2
        detail = f"chi {value:.6f} vs {TABLE3[h]} ({rel:+.1%})"
    ok = ok and stopped_as_expected and elapsed < 10.0
    report(f"3 (table-3 chi, h={h})", ok,
           f"{detail}, stop {traj.stop.value} after {len(traj)} points, "
           f"{elapsed:.2f}s")
    assert traj.stop is stop
    assert len(traj) == count
    if h == 0.001:
        assert value <= 1.2 * TABLE3[h]
        assert abs(shadow_rel) <= 1e-3
    else:
        assert abs(rel) <= 0.2
    assert elapsed < 10.0


def test_criterion_4_exact_discrete_solution():
    t0 = time.monotonic()
    h = 0.1
    sol = one_over_one_minus_exp()
    seed = seed_stencil_from_function(sol.eval_fn, -1.0, h, 5)
    spec = SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(h))
    traj = integrate(spec, seed, 40)
    assert traj.stop is StopReason.COMPLETED
    assert len(traj.points) == 45
    # the lattice passes through the pole of the exact solution at x = 0,
    # where no finite reference value exists; all other nodes must match
    devs = [abs(p.y - sol.eval_fn(p.x)) for p in traj.points if p.x != 0.0]
    assert len(devs) == 44
    rho = 2.0 + math.exp(h) + math.exp(-h)
    ys = traj.ys
    r_devs = [abs(cross_ratio(CrossRatioWindow(*ys[k:k + 4])) - rho)
              for k in range(len(ys) - 3)]
    elapsed = time.monotonic() - t0
    ok = max(devs) <= 1e-9 and max(r_devs) <= 1e-10 and elapsed < 1.0
    report("4 (exact discrete solution)", ok,
           f"max dev {max(devs):.2e}, max R dev {max(r_devs):.2e}, {elapsed:.2f}s")
    assert max(devs) <= 1e-9
    assert max(r_devs) <= 1e-10
    assert elapsed < 1.0


def test_criterion_5_logarithmic_barrier():
    t0 = time.monotonic()
    f = lambda x: math.log(abs(x))
    results = []
    for x0, h in ((-1.0, 1e-4), (1.0, -1e-4)):
        seed = seed_stencil_from_function(f, x0, h, 3)
        spec = SchemeSpec(SchemeKind.SLX3, Constant(0.5), Uniform(h))
        traj = integrate(spec, seed, round(1.2 / abs(h)))
        assert traj.stop is StopReason.NO_REAL_ROOT
        errs = [abs(p.y - f(p.x)) for p in traj.points if abs(p.x) >= 0.01]
        x_stop = traj.points[-1].x
        assert abs(x_stop) <= 0.01  # inside the (-0.01, 0] window, mirrored
        assert x_stop * x0 >= 0.0   # stop on the starting side of 0
        results.append((max(errs), x_stop))
    elapsed = time.monotonic() - t0
    ok = all(e <= 1e-3 for e, _ in results) and elapsed < 20.0
    report("5 (logarithmic barrier)", ok,
           f"max errs {[f'{e:.1e}' for e, _ in results]}, "
           f"stops {[f'{x:+.5f}' for _, x in results]}, {elapsed:.2f}s")
    for e, _ in results:
        assert e <= 1e-3
    assert elapsed < 20.0


def test_criterion_6_beyond_pole():
    t0 = time.monotonic()
    sol = tan_reciprocal()
    seed = seed_stencil_from_function(sol.eval_fn, 0.1, 1e-3, 5)
    spec = SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(1e-3))
    traj = integrate(spec, seed, 60)
    beyond = [p for p in traj.points if p.x > POLE5]
    h_base = 1e-5
    base = rk4_integrate(fifth_order_invariant_system(0.0),
                         sol.jet_fn(0.1).d[:5], 0.1, h_base,
                         round(2.0 * (POLE5 - 0.1) / h_base))
    elapsed = time.monotonic() - t0
    ok = (len(beyond) > 0 and all(math.isfinite(p.y) for p in beyond)
          and base.stop is StopReason.NON_FINITE
          and base.points[-1].x <= POLE5 and elapsed < 10.0)
    report("6 (integration beyond the pole)", ok,
           f"{len(beyond)} points beyond x={POLE5:.5f}, baseline stopped at "
           f"{base.points[-1].x:.6f}, {elapsed:.2f}s")
    assert len(beyond) > 0
    assert all(math.isfinite(p.y) for p in beyond)
    assert base.stop is StopReason.NON_FINITE
    assert base.points[-1].x <= POLE5
    assert elapsed < 10.0


def test_criterion_7_invariance_suite(rng):
    t0 = time.monotonic()
    # cross-ratio invariance, 1000 trials at 1e-10
    worst_cr = 0.0
    done = 0
    while done < 1000:
        vals = np.sort(rng.uniform(-3.0, 3.0, 4))
        if min(abs(vals[3] - vals[2]), abs(vals[1] - vals[0])) < 1e-2:
            continue
        g = make_mobius(*random_mobius(rng, list(vals)))
        r0 = cross_ratio(CrossRatioWindow(*vals))
        r1 = cross_ratio(CrossRatioWindow(*(g(v) for v in vals)))
        worst_cr = max(worst_cr, abs(r1 - r0) / max(1.0, abs(r0)))
        done += 1

    # stencil invariants under the respective actions at 1e-8
    worst_inv = 0.0
    done = 0
    while done < 300:
        xs = list(np.cumsum(rng.uniform(0.3, 1.0, 6)))
        ys = list(np.cumsum(rng.uniform(0.5, 1.5, 6)))
        gy = make_mobius(*random_mobius(rng, ys))
        gx = make_mobius(*random_mobius(rng, xs))
        txs = [gx(x) for x in xs]
        dxs = [b - a for a, b in zip(txs, txs[1:])]
        if not (all(d > 0 for d in dxs) or all(d < 0 for d in dxs)):
            continue
        done += 1
        tys = [gy(y) for y in ys]
        for f, n in ((l3, 4), (l4, 5), (l5, 6)):
            a = f(stencil_from_sequences(xs[:n], ys[:n]))
            b = f(stencil_from_sequences(xs[:n], tys[:n]))
            worst_inv = max(worst_inv, abs(a - b) / max(1.0, abs(a)))
        for f, n in ((m3, 4), (m4, 5), (m5, 6)):
            a = f(stencil_from_sequences(xs[:n], ys[:n]))
            b = f(stencil_from_sequences(txs[:n], ys[:n]))
            worst_inv = max(worst_inv, abs(a - b) / max(1.0, abs(a)))
        a = h5_discrete(stencil_from_sequences(xs, ys))
        b = h5_discrete(stencil_from_sequences(txs, tys))
        worst_inv = max(worst_inv, abs(a - b) / max(1.0, abs(a)))

    # scheme equivariance at 1e-8
    worst_eq = 0.0
    for _ in range(200):
        ys4 = list(np.cumsum(rng.uniform(1.0, 2.0, 4)))
        st4 = stencil_from_sequences([0.0, 0.1, 0.2, 0.3], ys4)
        g = make_mobius(*random_mobius(rng, ys4 + [8.0]))
        f = FunctionOfX(lambda x: math.cos(3.0 * x))
        o1 = sly4_step(st4, 0.4, f)
        o2 = sly4_step(stencil_from_sequences([0.0, 0.1, 0.2, 0.3],
                                              [g(y) for y in ys4]), 0.4, f)
        if not (isinstance(o1, StopReason) or isinstance(o2, StopReason)):
            a, b = g(o1), o2
            worst_eq = max(worst_eq, abs(a - b) / max(1.0, abs(a), abs(b)))
        ys5 = list(np.cumsum(rng.uniform(0.5, 1.5, 5)))
        st5 = stencil_from_sequences([0.1 * k for k in range(5)], ys5)
        g = make_mobius(*random_mobius(rng, ys5 + [8.0]))
        o1 = h5_step(st5, 0.5, Constant(0.0))
        o2 = h5_step(stencil_from_sequences([0.1 * k for k in range(5)],
                                            [g(y) for y in ys5]), 0.5, Constant(0.0))
        if not (isinstance(o1, StopReason) or isinstance(o2, StopReason)):
            a, b = g(o1), o2
            worst_eq = max(worst_eq, abs(a - b) / max(1.0, abs(a), abs(b)))

    # equal cross-ratios annihilate the uniform-lattice invariant
    worst_h5 = 0.0
    count_h5 = 0
    while count_h5 < 100:
        rho = rng.uniform(-10.0, 10.0)
        if abs(rho - 4.0) < 0.1:
            continue
        count_h5 += 1
        worst_h5 = max(worst_h5, abs(h5_uniform(rho, rho, rho)))

    elapsed = time.monotonic() - t0
    ok = (worst_cr <= 1e-10 and worst_inv <= 1e-8 and worst_eq <= 1e-8
          and worst_h5 <= 1e-10 and elapsed < 10.0)
    report("7 (invariance suite)", ok,
           f"cross-ratio {worst_cr:.1e}, invariants {worst_inv:.1e}, "
           f"equivariance {worst_eq:.1e}, h5(rho,rho,rho) {worst_h5:.1e}, "
           f"{elapsed:.2f}s")
    assert worst_cr <= 1e-10
    assert worst_inv <= 1e-8
    assert worst_eq <= 1e-8
    assert worst_h5 <= 1e-10
    assert elapsed < 10.0


def test_criterion_8_continuous_limits():
    t0 = time.monotonic()

    def jet_exp(x):
        return Jet(x, (math.exp(x),) * 6)

    log_jets = log_abs().jet_fn
    atanh_jets = arctanh_solution().jet_fn
    probes = [
        ("l3", log_jets, 1.0, 0.01, 0.5, 5),
        ("l4", log_jets, 1.0, 0.01, 0.5, 5),
        ("l5", log_jets, 1.0, 0.05, 0.6, 6),
        ("m3", atanh_jets, 0.3, 0.01, 0.5, 5),
        ("m4", jet_exp, 0.2, 0.01, 0.5, 5),
        ("m5", jet_exp, 0.2, 0.05, 0.6, 6),
        ("h5", log_jets, 1.0, 0.05, 0.6, 6),
    ]
    orders = {}
    for name, fn, x0, h0, ratio, levels in probes:
        hs = tuple(h0 * ratio ** k for k in range(levels))
        rep = probe_limit(LimitProbe(name, fn, x0, hs))
        orders[name] = rep.estimated_order
        assert rep.estimated_order >= 0.8, f"{name} order {rep.estimated_order}"
        target = rep.targets[max(rep.floor_level, 2) - 1]
        assert abs(rep.limit_value - target) <= 3.0 * rep.errors[0], name

    w = w_coefficient(*[0.037 * k for k in range(6)])
    wx = wx_coefficient(0.02, 0.02, 0.02, 0.02, 0.02)
    assert abs(w) <= 1e-12
    assert abs(wx - 2.0) <= 1e-12

    elapsed = time.monotonic() - t0
    report("8 (continuous limits)", elapsed < 10.0,
           f"orders {({k: round(v, 2) for k, v in orders.items()})}, "
           f"W {w:.1e}, Wx-2 {wx - 2.0:.1e}, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_9_differential_identities(rng):
    t0 = time.monotonic()
    worst_route, worst_tilde = 0.0, 0.0
    done = 0
    while done < 500:
        d = rng.uniform(-2.0, 2.0, 6)
        d[1] = math.copysign(max(abs(d[1]), 0.3), d[1] if d[1] != 0 else 1.0)
        jet = Jet(0.0, tuple(d))
        t = jy_invariants(jet)
        lhs, rhs = jtilde5(jet), t.fifth + 4.0 * t.third ** 2
        # relative to the largest term entering either route
        _, y1, y2, y3, y4, y5 = jet.d
        term_scale = max(1.0, abs(y5 / y1), abs(5 * y2 * y4 / y1 ** 2),
                         abs(17 * y2 ** 2 * y3 / y1 ** 3),
                         abs(4 * y3 ** 2 / y1 ** 2), abs(9 * y2 ** 4 / y1 ** 4))
        worst_tilde = max(worst_tilde, abs(lhs - rhs) / term_scale)
        if abs(t.third) < 0.1:
            continue
        done += 1
        a = h5_differential(jet)
        b = h5_differential_hodograph(jet)
        worst_route = max(worst_route, abs(a - b) / max(1.0, abs(a), abs(b)))

    # all invariants vanish on linear-fractional jets
    worst_mobius = 0.0
    done = 0
    while done < 300:
        a, b, c, dd = rng.uniform(-2, 2, 4)
        if abs(a * dd - b * c) < 0.1:
            continue
        x = rng.uniform(-1, 1)
        if abs(c * x + dd) < 0.3:
            continue
        jet = mobius_jet(a, b, c, dd, x)
        if abs(jet.d[1]) < 1e-3:
            continue
        done += 1
        _, y1, y2, y3, y4, y5 = jet.d
        t = jy_invariants(jet)
        k = kx_invariants(jet)
        s3 = max(abs(y3 / y1), (y2 / y1) ** 2)
        s4 = max(abs(y4 / y1), abs(4 * y2 * y3 / y1 ** 2),
                 abs(3 * y2 ** 3 / y1 ** 3))
        s5 = max(abs(y5 / y1), abs(5 * y2 * y4 / y1 ** 2),
                 abs(17 * y2 ** 2 * y3 / y1 ** 3), abs(4 * y3 ** 2 / y1 ** 2),
                 abs(9 * y2 ** 4 / y1 ** 4))
        for v, s in ((t.third, s3), (t.fourth, s4), (t.fifth, s5),
                     (k.third, s3 / y1 ** 2), (k.fourth, s4 / abs(y1) ** 3),
                     (k.fifth, s5 / y1 ** 4)):
            worst_mobius = max(worst_mobius, abs(v) / max(1.0, s))

    # exact solutions satisfy their equations on 100-point grids
    grids = [
        (log_abs(), scaled_schwarzian_system(lambda x, y: 0.5),
         np.linspace(-2.0, -0.1, 100)),
        (arctanh_solution(), scaled_schwarzian_system(lambda x, y: 2.0),
         np.linspace(-0.9, 0.9, 100)),
        (one_over_one_minus_exp(), fifth_order_invariant_system(0.0),
         np.linspace(-2.0, -0.1, 100)),
        (tan_reciprocal(), fifth_order_invariant_system(0.0),
         np.linspace(0.14, 0.19, 100)),
        (general_arctanh(0.8, 0.05, 1.5, 3.0),
         scaled_schwarzian_system(lambda x, y: 3.0), np.linspace(-0.9, 0.9, 100)),
    ]
    worst_resid = 0.0
    for sol, system, grid in grids:
        for x in grid:
            jet = sol.jet_fn(float(x))
            rhs = system.rhs(float(x), *jet.d[:system.order])
            scale = max(1.0, abs(jet.d[system.order]), abs(rhs))
            worst_resid = max(worst_resid, abs(jet.d[system.order] - rhs) / scale)

    elapsed = time.monotonic() - t0
    ok = (worst_route <= 1e-10 and worst_tilde <= 1e-12
          and worst_mobius <= 1e-9 and worst_resid <= 1e-8 and elapsed < 5.0)
    report("9 (differential identities)", ok,
           f"routes {worst_route:.1e}, tilde {worst_tilde:.1e}, mobius "
           f"{worst_mobius:.1e}, residuals {worst_resid:.1e}, {elapsed:.2f}s")
    assert worst_route <= 1e-10
    assert worst_tilde <= 1e-12
    assert worst_mobius <= 1e-9
    assert worst_resid <= 1e-8
    assert elapsed < 5.0
