import math
import random
from contextlib import ExitStack, contextmanager
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from invdisc import (Constant, CrossRatioWindow, DegenerateCoefficientError, FunctionOfX,
                     IdentityInY, NonFiniteError, SchemeKind, SchemeSpec, Stencil, StopReason,
                     Trajectory, Uniform, chi, cross_ratio, h5_uniform,
                     integrate, l3, l4, m3, seed_stencil_from_function, select_root,
                     slx3_step, sly4_step, solve_poly, stencil_from_sequences)
from invdisc import schemes
from invdisc.cli import run_example
from invdisc.core import DEGENERACY_RTOL, SCHEME_ARITY
from invdisc.discrete import _cross_ratio, _h5_r5_line
from invdisc.schemes import extrapolate, h5_step

import shadow
from conftest import (STEPS, TAN_ATAN_ORBIT, _ref_fn, _ref_horner, _ref_real_roots,
                      _ref_slx3_coeffs, _ref_slx3_kernel, _ref_sly4_excess, _ref_sly4_start,
                      make_mobius, random_mobius, ref_step, scheme_reference_loop)

OMEX = lambda x: 1.0 / (1.0 - math.exp(x))
MOBIUS = lambda x: (2.0 * x + 1.0) / (x + 3.0)
TAN_RECIPROCAL = lambda x: math.tan(1.0 / x)


# --- root solving ----------------------------------------------------------------

def test_solve_poly_quadratic():
    assert solve_poly((2.0, -3.0, 1.0)) == pytest.approx([1.0, 2.0])
    # ascending for a negative leading coefficient too
    assert solve_poly((-2.0, 3.0, -1.0)) == [1.0, 2.0]
    assert solve_poly((1.0, 0.0, 1.0)) == []


def test_solve_poly_cubic_three_roots():
    roots = solve_poly((-6.0, 11.0, -6.0, 1.0))
    assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)


def test_solve_poly_cubic_single_root():
    # (t - 2)(t^2 + 1) = t^3 - 2 t^2 + t - 2
    roots = solve_poly((-2.0, 1.0, -2.0, 1.0))
    assert roots == pytest.approx([2.0], abs=1e-12)


def test_solve_poly_linear():
    assert solve_poly((-3.0, 1.5)) == pytest.approx([2.0])


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1e200, 1.0), (1.0, 1e110, 0.0, 1.0),
                                    (1.0, 2.0, 3.0, 1e-300), (1.0, math.nan, 1.0),
                                    (1.0, math.inf, 1.0), (math.inf, 1.0)])
def test_solve_poly_cubic_overflow_raises_non_finite(coeffs):
    with pytest.raises(NonFiniteError):
        solve_poly(coeffs)


def test_solve_poly_validation():
    with pytest.raises(ValueError):
        solve_poly((1.0, 2.0, 0.0))
    with pytest.raises(ValueError):
        solve_poly((1.0,))


@settings(max_examples=200, deadline=None)
@given(r=st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_solve_poly_factored_cubics(r):
    r = sorted(r)
    c0 = -r[0] * r[1] * r[2]
    c1 = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
    c2 = -(r[0] + r[1] + r[2])
    p = (c0, c1, c2, 1.0)
    roots = solve_poly(p)
    assert 1 <= len(roots) <= 3
    scale = max(1.0, *(abs(v) for v in p))
    for t in roots:
        assert abs(_ref_horner(p, t)) <= 1e-8 * scale * max(1.0, abs(t)) ** 3
    assert roots == sorted(roots)
    # every constructed root is found (up to near-degenerate pairs)
    gaps = [abs(a - b) for a, b in zip(r, r[1:])]
    if all(g > 1e-3 for g in gaps):
        assert len(roots) == 3
        for want, got in zip(r, roots):
            assert got == pytest.approx(want, abs=1e-6)


# test-only copies of the one-Newton-step polish that each degree once wrote
# inline: the quadratic's block ran on its low and its high root alike

def _former_linear_polish(c0, c1, t):
    if math.isfinite(c1):
        p = c1 * t + c0
        t1 = t - p / c1
        if math.isfinite(t1) and abs(c1 * t1 + c0) <= abs(p):
            t = t1
    return t


def _former_quadratic_polish(c0, c1, c2, t):
    dp = 2.0 * c2 * t + c1
    if dp != 0.0 and math.isfinite(dp):
        p = (c2 * t + c1) * t + c0
        t1 = t - p / dp
        if math.isfinite(t1) and abs((c2 * t1 + c1) * t1 + c0) <= abs(p):
            t = t1
    return t


def _former_cubic_polish(c0, c1, c2, c3, t):
    dp = (3.0 * c3 * t + 2.0 * c2) * t + c1
    if dp != 0.0 and math.isfinite(dp):
        p = ((c3 * t + c2) * t + c1) * t + c0
        t1 = t - p / dp
        if math.isfinite(t1) and abs(((c3 * t1 + c2) * t1 + c1) * t1 + c0) <= abs(p):
            t = t1
    return t


COEFFICIENTS = st.one_of(st.floats(), st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0]))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), degree=st.sampled_from([1, 2, 3]),
       c=st.lists(COEFFICIENTS, min_size=4, max_size=4), raw=st.booleans(),
       t=st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan])))
def test_polish_equals_the_former_per_degree_polish(data, degree, c, raw, t):
    # zero for the coefficients a lower degree lacks; each degree's leading
    # coefficient is nonzero, as its solver requires
    c = c[:degree + 1] + [0.0] * (3 - degree)
    assume(c[degree] != 0.0)
    if raw:  # a root of the solver, which may be +-inf or NaN
        try:
            roots = ((-c[0] / c[1],) if degree == 1 else schemes._quadratic_roots(*c[:3])
                     if degree == 2 else schemes._cubic_roots(*c))
        except NonFiniteError:  # the cubic's depressed form overflows
            roots = ()
        assume(roots)
        t = data.draw(st.sampled_from(roots))
    former = (_former_linear_polish(c[0], c[1], t) if degree == 1
              else _former_quadratic_polish(*c[:3], t) if degree == 2
              else _former_cubic_polish(*c, t))
    event(f"degree {degree}: {'polished' if repr(former) != repr(t) else 'kept'}")
    assert repr(schemes._polish(*c, t)) == repr(former)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), e3=st.floats(-300.0, 300.0), edge=st.booleans(),
       signs=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=3, max_size=3),
       s3=st.sampled_from([-1.0, 1.0]))
def test_cubic_roots_never_raise_past_the_slx3_degree_test(data, e3, edge, signs, s3):
    # _slx3_run solves a cubic only when |c3| > DEGENERACY_RTOL * max|c_i|,
    # so c2/c3, c1/c3 and c0/c3 stay below 1e13 and the depressed form's
    # pp ** 3 below about 1e77: _cubic_roots' overflow check cannot fire there
    c3 = s3 * 10.0 ** e3
    c = [s * 10.0 ** data.draw(st.floats(-300.0, min(300.0, e3 + 13.0))) for s in signs]
    if edge:  # |c3| the next float above the degree test's bound
        c3 = s3 * math.nextafter(DEGENERACY_RTOL * max(map(abs, c)), math.inf)
    assume(abs(c3) > DEGENERACY_RTOL * max(map(abs, c + [c3])))
    roots = schemes._cubic_roots(*c, c3)
    assert roots and all(map(math.isfinite, roots))


def test_select_root():
    assert select_root([1.0, 5.0], 1.2) == 1.0
    assert select_root([1.0, 5.0], 4.9) == 5.0
    assert select_root([], 1.2) is None
    # an exact distance tie resolves to the smaller root
    assert select_root([1.0, 3.0], 2.0) == 1.0
    # near-coincident roots: either representative of the pair is acceptable
    tie = select_root([2.0, 2.0 + 1e-15], 3.0)
    assert tie == pytest.approx(2.0, abs=1e-14)


def test_extrapolate_exact_on_polynomials():
    xs = (0.0, 0.5, 1.0)
    ys = [3.0 - 2.0 * x + 0.5 * x * x for x in xs]
    assert extrapolate(xs, ys, 1.5) == pytest.approx(3.0 - 3.0 + 0.5 * 2.25, rel=1e-12)
    # a repeated abscissa among the last three has no quadratic through it
    for repeated in ((0, 0, 1), (0, 1, 1), (1, 0, 1), (5, -0.0, 0.0, 1)):
        with pytest.raises(ValueError, match="distinct abscissae"):
            extrapolate(repeated, (1, 2, 3), 2)
    with pytest.raises(ValueError, match="^extrapolation needs 3 points$"):
        extrapolate([0, 1], [0, 1], 2)


# --- single steps ------------------------------------------------------------------

def test_sly4_zero_forcing_preserves_mobius_manifold():
    prev = seed_stencil_from_function(MOBIUS, 0.0, 0.1, 4)
    out = sly4_step(prev, 0.4, Constant(0.0))
    assert not isinstance(out, StopReason)
    assert out == pytest.approx(MOBIUS(0.4), rel=1e-9)
    # the new window still sits on the weakly invariant manifold
    full = stencil_from_sequences(list(prev.xs) + [0.4],
                                  list(prev.ys) + [out])
    assert abs(l3(Stencil(full.xs[1:], full.ys[1:]))) <= 1e-7


def test_sly4_consistency_with_forcing():
    prev = seed_stencil_from_function(math.exp, 0.0, 0.5, 4)
    out = sly4_step(prev, 2.0, FunctionOfX(math.cos))
    full = stencil_from_sequences([0, 0.5, 1.0, 1.5, 2.0],
                                  list(prev.ys) + [out])
    assert abs(l4(full) - math.cos(1.0)) <= 1e-10 * abs(math.cos(1.0))


def test_slx3_degree_contract():
    # zero constant forcing leaves the linear weakly-invariant form, whose
    # root makes the cross-ratio of the four ordinates equal S = 4
    st3 = Stencil((0.0, 0.5, 1.0), (0.0, 0.4, 0.7))
    t = slx3_step(st3, 1.5, Constant(0.0))
    assert cross_ratio(CrossRatioWindow(*st3.ys, t)) == pytest.approx(4.0, rel=1e-14)
    assert slx3_step(st3, 1.5, Constant(0.5)) != t


def test_slx3_consistency():
    st3 = seed_stencil_from_function(lambda x: math.log(abs(x)), 1.0, 0.5, 3)
    out = slx3_step(st3, 2.5, Constant(0.5))
    assert not isinstance(out, StopReason)
    full = stencil_from_sequences([1.0, 1.5, 2.0, 2.5],
                                  list(st3.ys) + [out])
    assert abs(m3(full) - 0.5) <= 1e-10 * 0.5

    st3 = stencil_from_sequences([0.0, 0.5, 1.0], [1.0, 1.7, 2.6])
    out = slx3_step(st3, 1.5, IdentityInY())
    full = stencil_from_sequences([0.0, 0.5, 1.0, 1.5],
                                  list(st3.ys) + [out])
    assert abs(m3(full) - out) <= 1e-10 * abs(out)

    out = slx3_step(st3, 1.5, IdentityInY(stencil_mean=True))
    mean = (sum(st3.ys) + out) / 4.0
    full = stencil_from_sequences([0.0, 0.5, 1.0, 1.5],
                                  list(st3.ys) + [out])
    assert abs(m3(full) - mean) <= 1e-10 * abs(mean)


def test_slx3_no_real_root_at_barrier():
    # close to the logarithmic singularity the quadratic loses its real roots
    h = 1e-3
    f = lambda x: math.log(abs(x))
    seed = seed_stencil_from_function(f, -0.05, h, 3)
    spec = SchemeSpec(SchemeKind.SLX3, Constant(0.5), Uniform(h))
    traj = integrate(spec, seed, 100)
    assert traj.stop is StopReason.NO_REAL_ROOT
    assert traj.points[-1].x <= 0.0


def test_h5_exact_propagation():
    seed = seed_stencil_from_function(OMEX, -1.0, 0.1, 5)
    spec = SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(0.1))
    traj = integrate(spec, seed, 4)
    for p in traj.points:
        assert p.y == pytest.approx(OMEX(p.x), rel=1e-10)


def test_h5_consistency_nonzero_forcing():
    seed = seed_stencil_from_function(math.log, 1.0, 0.5, 5)
    out = h5_step(seed, 3.5, Constant(2.0))
    assert not isinstance(out, StopReason)
    ys = list(seed.ys) + [out]

    def cr(a):
        return ((a[3] - a[1]) * (a[2] - a[0])) / ((a[3] - a[2]) * (a[1] - a[0]))

    got = h5_uniform(cr(ys[0:4]), cr(ys[1:5]), cr(ys[2:6]))
    assert abs(got - 2.0) <= 1e-10 * 2.0


def test_h5_degenerate_on_weak_manifold_with_forcing():
    seed = seed_stencil_from_function(MOBIUS, 0.0, 0.1, 5)
    out = h5_step(seed, 0.5, Constant(2.0))
    assert out is StopReason.DEGENERATE_COEFFICIENT


def test_sly4_step_refuses_x_next_that_does_not_continue_the_stencil():
    prev = seed_stencil_from_function(MOBIUS, 0.0, 0.1, 4)
    # a step that is not the stencil's, none, and one turning back
    for x_next in (0.45, 0.3, 0.1, -1.0):
        with pytest.raises(ValueError, match="uniform lattice rule"):
            sly4_step(prev, x_next, Constant(0.0))
    for x_next in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="is not finite"):
            sly4_step(prev, x_next, Constant(0.0))
    # a spacing whose products underflow still continues, and stops as degenerate
    for s in (1e-170, -1e-170):
        tiny = stencil_from_sequences([0.0, s, 2 * s, 3 * s], [1.0, 2.0, 3.5, 5.0])
        for forcing in (Constant(0.0), FunctionOfX(math.cos)):
            assert sly4_step(tiny, 4 * s, forcing) is StopReason.DEGENERATE_COEFFICIENT


def test_sly4_step_refuses_abscissae_off_the_uniform_lattice():
    # as slx3_step and h5_step refuse theirs: each step on the lattice of
    # h = (x_next - x0)/4 assumes S = 4 and the lattice check refuses the
    # stencil, even where its x cross-ratio would be regular or would have a
    # vanishing denominator
    xs = (0.0, 0.1, 0.3, 0.35)
    uneven = stencil_from_sequences(xs, [MOBIUS(x) for x in xs])
    for x_next in (0.4, 0.9, 0.35 + 1e-15):
        for forcing in (Constant(0.0), FunctionOfX(math.cos)):
            with pytest.raises(ValueError, match="uniform lattice rule"):
                sly4_step(uneven, x_next, forcing)


def test_slx3_step_refuses_x_next_off_the_uniform_lattice():
    ys = (0.0, 0.4, 0.7)
    assert not isinstance(slx3_step(Stencil((0.0, 0.5, 1.0), ys), 1.5, Constant(0.5)),
                          StopReason)
    # uneven abscissae, a step that is not the stencil's, and one turning back
    for xs, x_next in (((0.0, 0.1, 0.5), 1.0), ((0.0, 0.1, 0.5), 0.9),
                       ((0.0, 0.5, 1.0), 1.7), ((0.0, 0.5, 1.0), 0.5)):
        with pytest.raises(ValueError):
            slx3_step(Stencil(xs, ys), x_next, Constant(0.5))


def test_slx3_keeps_the_root_nearest_the_prediction_on_the_lattice():
    # x1 is 4.7e-7 of h off its node, which the lattice check accepts; the
    # quadratic through the window as placed predicts -2.0912883 at x3, the
    # lattice one y0 - 3 y1 + 3 y2 -2.0912887, and the two roots straddle both
    xs, x3 = (0.0, 0.09999995283363289, 0.2), 0.30000000000000004
    ys = (0.0, 0.17691690118380743, -0.520179333807683)
    forcing = Constant(4.077631037435684)
    lo, hi = (ys[2] + u for u in _ref_real_roots(_ref_slx3_coeffs(ys, forcing)))
    p, p_placed = 3.0 * (ys[2] - ys[1]) + ys[0], extrapolate(xs, ys, x3)
    assert lo < p < (lo + hi) / 2.0 < p_placed < hi
    seed = Stencil(xs, ys)
    traj = integrate(SchemeSpec(SchemeKind.SLX3, forcing, Uniform(0.1)), seed, 1)
    assert traj.xs[-1] == x3 and traj.stop is StopReason.COMPLETED
    for t in (slx3_step(seed, x3, forcing), traj.ys[-1]):
        assert t == lo == pytest.approx(-3.97542894437797, rel=1e-13)


def test_h5_step_refuses_x_next_off_the_uniform_lattice():
    seed = seed_stencil_from_function(math.exp, 0.0, 0.1, 5)
    assert not isinstance(h5_step(seed, 0.5, Constant(0.0)), StopReason)
    for x_next in (-7.0, 0.4, 0.45, 0.7):
        with pytest.raises(ValueError):
            h5_step(seed, x_next, Constant(0.0))


# --- equivariance ------------------------------------------------------------------

def test_sly4_equivariance(rng):
    worst = 0.0
    for _ in range(200):
        xs = [0.0, 0.1, 0.2, 0.3]
        ys = list(np.cumsum(rng.uniform(1.0, 2.0, 4)))
        stencil = stencil_from_sequences(xs, ys)
        g = make_mobius(*random_mobius(rng, ys + [8.0]))
        f = FunctionOfX(lambda x: math.cos(3.0 * x))
        out = sly4_step(stencil, 0.4, f)
        out_g = sly4_step(stencil_from_sequences(xs, [g(y) for y in ys]), 0.4, f)
        if isinstance(out, StopReason) or isinstance(out_g, StopReason):
            continue
        a, b = g(out), out_g
        worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    assert worst <= 1e-8


def test_h5_equivariance(rng):
    worst = 0.0
    for _ in range(200):
        xs = [0.1 * k for k in range(5)]
        ys = list(np.cumsum(rng.uniform(0.5, 1.5, 5)))
        stencil = stencil_from_sequences(xs, ys)
        g = make_mobius(*random_mobius(rng, ys + [8.0]))
        out = h5_step(stencil, 0.5, Constant(0.0))
        out_g = h5_step(stencil_from_sequences(xs, [g(y) for y in ys]), 0.5, Constant(0.0))
        if isinstance(out, StopReason) or isinstance(out_g, StopReason):
            continue
        a, b = g(out), out_g
        worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    assert worst <= 1e-8


# --- trajectory driver --------------------------------------------------------------

def test_integrate_validates_seed():
    seed = seed_stencil_from_function(math.exp, 0.0, 0.1, 4)
    spec = SchemeSpec(SchemeKind.SLX3, Constant(2.0), Uniform(0.1))
    with pytest.raises(ValueError, match="^slx3 steps from 3 points, got 4$"):
        integrate(spec, seed, 5)
    for kind, step in STEPS.items():
        if kind is not SchemeKind.SLY4:
            with pytest.raises(ValueError, match=f"^{kind.value} steps from"):
                step(seed, 0.4, Constant(2.0))
    with pytest.raises(ValueError):
        integrate(SchemeSpec(SchemeKind.SLY4, Constant(0.0), Uniform(0.1)), seed, -5)
    # abscissae inconsistent with the declared step
    seed3 = stencil_from_sequences([0.0, 0.11, 0.2], [1.0, 1.5, 2.1])
    with pytest.raises(ValueError):
        integrate(spec, seed3, 5)
    # a last seed abscissa inside the tolerance but past the next lattice
    # point: the first new abscissa would turn back
    seed5 = stencil_from_sequences([0.0, 1e-10, 2e-10, 3e-10, 1.2e-9],
                                   [OMEX(-1.0 + 0.1 * k) for k in range(5)])
    spec5 = SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(1e-10))
    with pytest.raises(ValueError):
        integrate(spec5, seed5, 1)
    with pytest.raises(ValueError):
        integrate(spec5, seed5, 2)
    # a last seed abscissa half a step off its lattice point, with every
    # |x| far below 1
    half_off = stencil_from_sequences([0.0, 1e-10, 2e-10, 3e-10, 3.5e-10], seed5.ys)
    with pytest.raises(ValueError):
        integrate(spec5, half_off, 2)
    # a step of 4.1 ulp(1) puts the first new abscissa on the last seed one
    tight = stencil_from_sequences([1.0, 1.0000000000000009, 1.0000000000000027],
                                   [1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="^the lattice does not continue the seed monotonically$"):
        integrate(SchemeSpec(SchemeKind.SLX3, Constant(0.5), Uniform(4.1 * math.ulp(1.0))),
                  tight, 1)
    # a seed inside the tolerance that runs against h
    back5 = stencil_from_sequences([-1e-10 * k for k in range(5)], seed5.ys)
    with _loops_counted() as calls, pytest.raises(ValueError):
        integrate(spec5, back5, 3)
    assert calls() == 0
    # a lattice whose abscissae overflow within the run
    far = stencil_from_sequences([1.7e308 + k * 1e306 for k in range(5)],
                                 [OMEX(-1.0 + 0.1 * k) for k in range(5)])
    with pytest.raises(NonFiniteError):
        integrate(SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(1e306)), far, 20)
    # h = 3 near 2**54, where doubles are 2 and then 4 apart: the rounded
    # abscissae x0 + n*h stop being strictly monotone within the run
    x0 = 2.0 ** 54 - 40.0
    for kind in SchemeKind:
        forcing = FunctionOfX(math.cos) if kind is SchemeKind.SLY4 else Constant(0.5)
        spec = SchemeSpec(kind, forcing, Uniform(3.0))
        coarse = stencil_from_sequences([x0 + 3.0 * k for k in range(spec.arity)],
                                        [1.0, 2.0, 4.0, 8.0, 16.0][:spec.arity])
        with _loops_counted() as calls, pytest.raises(ValueError):
            integrate(spec, coarse, 30)
        assert calls() == 0


RUN_LOOPS = ("_sly4_run", "_slx3_run", "_slx3_constant_run", "_h5_run")


@contextmanager
def _loops_counted():
    """Count the scheme run loops started inside the block, patched as the
    module attributes that integrate looks up at each call; a refused
    lattice, a run of no steps and a seed without its invariants start
    none."""
    with ExitStack() as stack:
        mocks = [stack.enter_context(mock.patch.object(schemes, name,
                                                       wraps=getattr(schemes, name)))
                 for name in RUN_LOOPS]
        yield lambda: sum(m.call_count for m in mocks)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(list(SchemeKind)), e=st.integers(-300, 300),
       negative=st.booleans(), offset=st.integers(-16, 16), ulps=st.floats(0.5, 8.0),
       backward=st.booleans(), n_steps=st.integers(0, 40))
def test_integrate_raises_or_returns_monotone_abscissae(kind, e, negative, offset, ulps,
                                                        backward, n_steps):
    # x0 a few ulps from a power of two, where the spacing of doubles
    # changes, and steps from half an ulp there up to 8 ulps
    unit = math.ulp(2.0 ** e)
    x0 = (-1.0 if negative else 1.0) * 2.0 ** e + offset * unit
    h = (-ulps if backward else ulps) * unit
    spec = SchemeSpec(kind, Constant(0.0), Uniform(h))
    xs = [x0 + k * h for k in range(spec.arity)]
    assume(all((b - a) * h > 0.0 for a, b in zip(xs, xs[1:])))
    seed = stencil_from_sequences(xs, [OMEX(-1.0 + 0.1 * k) for k in range(spec.arity)])
    with _loops_counted() as calls:
        try:
            traj = integrate(spec, seed, n_steps)
        except ValueError:
            assert calls() == 0
            return
    assert all((b - a) * h > 0.0 for a, b in zip(traj.xs, traj.xs[1:]))


def test_integrate_completed_and_metadata():
    seed = seed_stencil_from_function(math.atanh, -0.5, 0.01, 3)
    spec = SchemeSpec(SchemeKind.SLX3, Constant(2.0), Uniform(0.01))
    traj = integrate(spec, seed, 10)
    assert traj.stop is StopReason.COMPLETED
    assert len(traj.points) == 13
    assert traj.scheme_id == "slx3"
    assert traj.h_nominal == 0.01


ATANH_UNIT = (-1.4722194895832204, -1.0986122886681098, -0.8673005276940531)
#: runs whose abscissae integrate lays out after the loop:
#: (scheme, forcing, h, seed, n_steps, stop)
LATTICE_RUNS = {
    "int-abscissae-sly4": (SchemeKind.SLY4, Constant(0.0), 1.0,
                           Stencil((0, 1, 2, 3), tuple(map(MOBIUS, range(4)))), 6,
                           StopReason.COMPLETED),
    "int-abscissae-slx3": (SchemeKind.SLX3, Constant(2.0), 1.0, Stencil((0, 1, 2), ATANH_UNIT),
                           5, StopReason.COMPLETED),
    "backward-sly4": (SchemeKind.SLY4, FunctionOfX(math.cos), -0.01,
                      seed_stencil_from_function(MOBIUS, 1.0, -0.01, 4), 30,
                      StopReason.COMPLETED),
    "backward-h5": (SchemeKind.H5, Constant(0.0), -0.01,
                    seed_stencil_from_function(OMEX, -1.0, -0.01, 5), 30, StopReason.COMPLETED),
    # y2 = y1 leaves sly4 without a ratio and h5 without its first R4
    "first-step-stop-sly4": (SchemeKind.SLY4, Constant(0.0), 0.1,
                             Stencil((0.0, 0.1, 0.2, 0.3), (0.0, 1.0, 1.0, 2.0)), 10,
                             StopReason.DEGENERATE_COEFFICIENT),
    "first-step-stop-h5": (SchemeKind.H5, Constant(0.0), 0.1,
                           Stencil((0.0, 0.1, 0.2, 0.3, 0.4), (0.0, 1.0, 1.0, 2.0, 3.0)), 10,
                           StopReason.DEGENERATE_COEFFICIENT),
    "no-steps-sly4": (SchemeKind.SLY4, Constant(0.0), 0.1,
                      seed_stencil_from_function(MOBIUS, 0.0, 0.1, 4), 0, StopReason.COMPLETED),
    "no-steps-slx3": (SchemeKind.SLX3, Constant(0.0), 0.1,
                      Stencil((0.0, 0.1, 0.2), (0.0, 1.0, 1.0)), 0, StopReason.COMPLETED),
    # the log barrier 50 steps on: a million nodes asked for, about 50 laid out
    "barrier": (SchemeKind.SLX3, Constant(0.5), 1e-3,
                seed_stencil_from_function(lambda x: math.log(abs(x)), -0.05, 1e-3, 3), 10 ** 6,
                StopReason.NO_REAL_ROOT),
}


@pytest.mark.parametrize("kind, forcing, h, seed, n_steps, stop", LATTICE_RUNS.values(),
                         ids=LATTICE_RUNS)
def test_integrate_lays_out_the_nodes_it_advanced(kind, forcing, h, seed, n_steps, stop):
    with _loops_counted() as calls:
        traj = integrate(SchemeSpec(kind, forcing, Uniform(h)), seed, n_steps)
    assert traj.stop is stop
    # one loop, reached through its module attribute, unless there is no
    # step or the seed has no invariant to start from: sly4's e needs
    # y2 != y1, and h5's first R3 does not
    assert calls() == (n_steps > 0 and (kind is not SchemeKind.SLY4 or seed.ys[1] != seed.ys[2]))
    # the nodes as the loops once appended them: h * k, then x0 + that
    x0, ks = float(seed.xs[0]), range(len(seed), len(traj.ys))
    assert traj.xs == seed.xs + tuple(map(x0.__add__, map(h.__mul__, ks)))
    assert list(map(type, traj.xs)) == list(map(type, seed.xs)) + [float] * len(ks)
    assert len(traj.xs) <= len(seed) + min(n_steps, 50)


@pytest.mark.parametrize("kind, forcing, f, x0, h", [
    (SchemeKind.SLY4, Constant(0.0), MOBIUS, 0, 0.1),
    (SchemeKind.SLY4, FunctionOfX(math.cos), math.exp, 0, 0.1),
    (SchemeKind.SLX3, Constant(0.5), lambda x: math.log(abs(x)), 1, 0.5),
    (SchemeKind.SLX3, IdentityInY(), math.exp, 0, 0.1),
    (SchemeKind.H5, Constant(0.0), math.exp, 0, -0.1),
])
def test_integrate_int_led_seed_equals_float_led(kind, forcing, f, x0, h):
    # Stencil keeps an int abscissa as given; the lattice must still be x0 + n*h
    seed = seed_stencil_from_function(f, float(x0), h, SCHEME_ARITY[kind])
    int_led = Stencil((x0,) + seed.xs[1:], seed.ys)
    spec = SchemeSpec(kind, forcing, Uniform(h))
    want, got = integrate(spec, seed, 12), integrate(spec, int_led, 12)
    assert got.xs[0] is x0
    assert repr((got.xs[1:], got.ys, got.stop)) == repr((want.xs[1:], want.ys, want.stop))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("kind, forcing", [(SchemeKind.SLX3, Constant(2.0)),
                                           (SchemeKind.SLX3, IdentityInY()),
                                           (SchemeKind.H5, Constant(0.0))])
def test_slx3_and_h5_on_a_lattice_of_spacing_1e_170_step_as_on_spacing_1(kind, forcing, sign):
    # a product of two such spacings underflows to 0, and the lattice check
    # compares directions instead; neither loop reads an abscissa
    arity = SCHEME_ARITY[kind]
    ys = tuple(math.atanh(-0.9 + 0.1 * k) for k in range(arity))
    tiny, unit = (Stencil(tuple(sign * h * k for k in range(arity)), ys) for h in (1e-170, 1.0))
    got = integrate(SchemeSpec(kind, forcing, Uniform(sign * 1e-170)), tiny, 20)
    want = integrate(SchemeSpec(kind, forcing, Uniform(sign)), unit, 20)
    assert len(got.ys) > arity
    assert repr((got.ys, got.stop)) == repr((want.ys, want.stop))
    step = slx3_step if kind is SchemeKind.SLX3 else h5_step
    assert repr(step(tiny, sign * 1e-170 * arity, forcing)) == repr(
        step(unit, sign * arity, forcing))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sly4_on_a_lattice_of_spacing_1e_170_stops_degenerate(sign):
    # its seed's R/S has a product of two x-differences that underflows,
    # which stops the first step; the lattice is valid
    xs = tuple(sign * 1e-170 * k for k in range(4))
    seed = Stencil(xs, tuple(math.tan(-1.2 + 0.1 * k) for k in range(4)))
    traj = integrate(SchemeSpec(SchemeKind.SLY4, Constant(0.0), Uniform(sign * 1e-170)), seed, 5)
    assert traj.stop is StopReason.DEGENERATE_COEFFICIENT and traj.xs == xs
    assert sly4_step(seed, sign * 4e-170, Constant(0.0)) is StopReason.DEGENERATE_COEFFICIENT


def test_integrate_backward():
    f = lambda x: math.log(abs(x))
    seed = seed_stencil_from_function(f, 1.0, -1e-3, 3)
    spec = SchemeSpec(SchemeKind.SLX3, Constant(0.5), Uniform(-1e-3))
    traj = integrate(spec, seed, 100)
    assert traj.stop is StopReason.COMPLETED
    assert traj.points[-1].x == pytest.approx(1.0 - 0.102, rel=1e-10)
    for p in traj.points:
        assert p.y == pytest.approx(f(p.x), abs=1e-6)


def _h5_of_window(w):
    return h5_uniform(*(cross_ratio(CrossRatioWindow(*w.ys[k:k + 4])) for k in range(3)))


@pytest.mark.parametrize("spec, seed, n_steps, invariant, target, rtol", [
    (SchemeSpec(SchemeKind.SLY4, FunctionOfX(math.cos), Uniform(0.2)),
     seed_stencil_from_function(math.exp, 0.0, 0.2, 4), 10,
     l4, lambda w: math.cos(w.xs[2]), 1e-9),
    (SchemeSpec(SchemeKind.SLX3, Constant(2.0), Uniform(0.01)),
     seed_stencil_from_function(math.atanh, -0.9, 0.01, 3), 178, m3, lambda w: 2.0, 1e-9),
    # backward from 0.9: here the smaller of two roots is off the solution
    (SchemeSpec(SchemeKind.SLX3, Constant(2.0), Uniform(-0.01)),
     seed_stencil_from_function(math.atanh, 0.9, -0.01, 3), 178, m3, lambda w: 2.0, 1e-9),
    # h5_uniform divides by three deficits R - 4 of order h^2, so it
    # evaluates a stepped window to about 1e-8 only
    (SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(0.1)),
     seed_stencil_from_function(OMEX, -1.0, 0.1, 5), 40, _h5_of_window, lambda w: 0.0, 1e-7),
], ids=["sly4-cos", "slx3-arctanh", "slx3-arctanh-backward", "h5-exact"])
def test_integrate_reports_scheme_consistency_after_steps(spec, seed, n_steps, invariant,
                                                          target, rtol):
    # every advanced window satisfies the defining equation
    traj = integrate(spec, seed, n_steps)
    assert traj.stop is StopReason.COMPLETED
    n = spec.arity + 1
    for k in range(len(traj) - n + 1):
        window = Stencil(traj.xs[k:k + n], traj.ys[k:k + n])
        t = target(window)
        assert abs(invariant(window) - t) <= rtol * max(1.0, abs(t))


# --- integrate against the composed kernels, stepped by hand ------------------------

def _slx3(forcing, h):
    return SchemeSpec(SchemeKind.SLX3, forcing, Uniform(h))


LOG_ABS = lambda x: math.log(abs(x))
CUBIC_SEED = lambda x: 10.0 - x - 5.0 * x * x
ARCTANH_SEED = seed_stencil_from_function(math.atanh, -0.9, 0.01, 3)

#: (id, spec, seed, steps, expected stop or None when any)
EQUIVALENCE_CASES = [
    ("sly4-cos", SchemeSpec(SchemeKind.SLY4, FunctionOfX(math.cos), Uniform(0.01)),
     seed_stencil_from_function(math.exp, 0.0, 0.01, 4), 150, StopReason.COMPLETED),
    ("sly4-const", SchemeSpec(SchemeKind.SLY4, Constant(1.5), Uniform(0.01)),
     seed_stencil_from_function(math.exp, 0.0, 0.01, 4), 150, None),
    # abscissae off x0 + k*h by a few 1e-12, inside the seed lattice tolerance
    ("sly4-seed-off-lattice", SchemeSpec(SchemeKind.SLY4, FunctionOfX(math.cos),
                                         Uniform(0.01)),
     stencil_from_sequences([0.0, 0.01 + 3e-12, 0.02 - 2e-12, 0.03 + 1e-12],
                            [math.exp(x) for x in (0.0, 0.01, 0.02, 0.03)]),
     100, StopReason.COMPLETED),
    ("slx3-arctanh", _slx3(Constant(2.0), 0.01), ARCTANH_SEED, 178, StopReason.COMPLETED),
    # "nearest": the root nearest the prediction, the scheme's one root rule
    *((f"slx3-cubic-{where}-nearest", _slx3(IdentityInY(stencil_mean=mean), 1e-3),
       seed_stencil_from_function(CUBIC_SEED, 0.0, 1e-3, 3), 300, None)
      for where, mean in (("new-point", False), ("stencil-mean", True))),
    ("slx3-log-barrier", _slx3(Constant(0.5), 1e-3),
     seed_stencil_from_function(LOG_ABS, -0.05, 1e-3, 3), 100, StopReason.NO_REAL_ROOT),
    ("slx3-backward", _slx3(Constant(0.5), -1e-3),
     seed_stencil_from_function(LOG_ABS, 1.0, -1e-3, 3), 100, StopReason.COMPLETED),
    ("h5-exact", SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(0.1)),
     seed_stencil_from_function(OMEX, -1.0, 0.1, 5), 40, None),
    ("h5-backward", SchemeSpec(SchemeKind.H5, Constant(0.5), Uniform(-0.05)),
     seed_stencil_from_function(OMEX, -0.5, -0.05, 5), 40, None),
    # round-off breaks the run down long before the 3000 steps
    ("h5-degenerate", SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(1e-3)),
     seed_stencil_from_function(OMEX, -3.0, 1e-3, 5), 3000,
     StopReason.DEGENERATE_COEFFICIENT),
]


@pytest.mark.parametrize("spec, seed, n_steps, expected",
                         [case[1:] for case in EQUIVALENCE_CASES],
                         ids=[case[0] for case in EQUIVALENCE_CASES])
def test_integrate_equals_stepping_by_hand(spec, seed, n_steps, expected):
    traj = integrate(spec, seed, n_steps)
    xs, ys, stop = scheme_reference_loop(spec, seed, n_steps)
    assert traj.stop is stop
    if expected is not None:
        assert stop is expected
    # bit for bit: == on every abscissa and ordinate
    assert (traj.xs, traj.ys) == (xs, ys)
    if spec.scheme is SchemeKind.SLY4:
        # sly4_step is the run's first step to round-off: it steps on the
        # lattice of h = (x_next - x0)/4 through its window and x_next, with
        # that h in its forcing term.  Chained from the seed, each step
        # seeds the deficit on its window's own abscissae, where the run
        # carries it, and sets the x cross-ratio of its new window, which
        # holds seed nodes for three steps, as the run does: the chained
        # steps agree with the run to round-off
        k, step = spec.arity, STEPS[spec.scheme]
        chained = list(seed.ys)
        for n, x in enumerate(traj.xs[k:], k):
            chained.append(step(Stencil(traj.xs[n - k:n], tuple(chained[-k:])), x,
                                spec.forcing))
        assert abs(chained[k] - traj.ys[k]) <= 1e-12 * abs(traj.ys[k])
        assert max(abs(a - b) / max(1.0, abs(a)) for a, b in zip(chained, traj.ys)) <= 1e-8


# --- the error contract: stop reasons, never exceptions --------------------------------

#: nonzero ordinates from 1e-150 to 1e150 in magnitude, either sign
ORDINATES = st.builds(lambda sign, e: sign * 10.0 ** e,
                      st.sampled_from((-1.0, 1.0)), st.floats(-150.0, 150.0))
#: five such ordinates, independent or clustered around one of them with a
#: relative spread down to 1e-14, where differences cancel and underflow
WINDOWS = st.one_of(
    st.lists(ORDINATES, min_size=5, max_size=5),
    st.builds(lambda base, e, offsets: [base * (1.0 + 10.0 ** e * u) for u in offsets],
              ORDINATES, st.floats(-14.0, 0.0),
              st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5)))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(SchemeKind)), ys=WINDOWS,
       x0=st.floats(-10.0, 10.0), h=st.floats(1e-6, 1.0), backward=st.booleans(),
       c=st.floats(-3.0, 3.0), forcing_of_state=st.booleans(),
       stencil_mean=st.booleans())
def test_steps_and_integrate_never_raise(kind, ys, x0, h, backward, c, forcing_of_state,
                                         stencil_mean):
    h = -h if backward else h
    forcing = _drawn_forcing(kind, c, forcing_of_state, stencil_mean)
    spec = SchemeSpec(kind, forcing, Uniform(h))
    seed = stencil_from_sequences([x0 + k * h for k in range(spec.arity)], ys[:spec.arity])
    x_next = x0 + spec.arity * h
    out = STEPS[kind](seed, x_next, forcing)
    assert isinstance(out, (float, StopReason))
    traj = integrate(spec, seed, 30)
    assert isinstance(traj, Trajectory)
    assert len(traj.points) <= spec.arity + 30
    # the step is integrate's first step on the lattice through the seed and
    # x_next, of step (x_next - x0)/4 for sly4, which is up to ulp(x)/h of h
    # off the drawn h: bit for bit, but that sly4 takes its forcing term
    # 2h^3 f(x0 + 2h) with that step
    if isinstance(out, StopReason):
        assert len(traj) == spec.arity and traj.stop is out
        return
    t = traj.ys[spec.arity]
    assert traj.xs[spec.arity] == x_next
    if kind is not SchemeKind.SLY4 or forcing == Constant(0.0):
        assert t == out
        return
    # the two forcing terms differ by under 1e-12 here (|x| < 15, |h| <= 1
    # and |f| <= 3), which moves the new ordinate by its sensitivity
    # d (2 + e)/(2 - e + rho)^2 to the run's new deficit rho times as much
    rho, e, d = _ref_sly4_start(seed.xs, seed.ys)[:3]
    rho -= (h * _ref_fn(forcing)(x0 + 2 * h) * h * h * 2.0
            - _ref_sly4_excess((*seed.xs[1:], x_next)))
    q = 2.0 - e + rho
    sensitivity = abs(d / q * ((2.0 + e) / q)) if 2.0 + e else 0.0
    assert abs(out - t) <= 1e-12 * (abs(t) + abs(d) + sensitivity)


def _drawn_forcing(kind, c, forcing_of_state, stencil_mean):
    """Constant(c), or the forcing of x (sly4) or of the state (slx3)."""
    if kind is SchemeKind.SLY4:
        return FunctionOfX(math.cos) if forcing_of_state else Constant(c)
    if kind is SchemeKind.SLX3:
        return IdentityInY(stencil_mean) if forcing_of_state else Constant(c)
    return Constant(c)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(SchemeKind)), ys=WINDOWS,
       x0=st.floats(-10.0, 10.0), h=st.floats(1e-6, 1.0), backward=st.booleans(),
       c=st.floats(-3.0, 3.0), forcing_of_state=st.booleans(), stencil_mean=st.booleans(),
       offsets=st.lists(st.floats(-5e-7, 5e-7), min_size=5, max_size=5))
def test_steps_are_integrate_on_the_lattice_through_the_stencil_and_x_next(
        kind, ys, x0, h, backward, c, forcing_of_state, stencil_mean, offsets):
    # seed nodes up to 5e-7 h off the lattice x0 + k*h, which integrate
    # accepts at h: the step to x_next = x0 + n*h takes the lattice through
    # the seed's x0 and x_next, and never refuses the seed
    h = -h if backward else h
    forcing = _drawn_forcing(kind, c, forcing_of_state, stencil_mean)
    n = SCHEME_ARITY[kind]
    xs = [x0 + (k + offsets[k]) * h for k in range(n)]
    assume(all((b - a) * h > 0.0 for a, b in zip(xs, xs[1:])))
    seed = stencil_from_sequences(xs, ys[:n])
    try:
        integrate(SchemeSpec(kind, forcing, Uniform(h)), seed, 1)
    except ValueError:
        assume(False)
    x_next = x0 + n * h
    out = STEPS[kind](seed, x_next, forcing)
    traj = integrate(SchemeSpec(kind, forcing, Uniform((x_next - xs[0]) / n)), seed, 1)
    assert repr(out) == repr(traj.ys[n] if traj.stop is StopReason.COMPLETED else traj.stop)


EXTREME_WINDOWS = [
    # y differences near 1e-162: the products of two of them underflow to zero
    (SchemeKind.SLY4, [-1.4198183315542606e-151, -1.419818331507339e-151,
                       -1.4198183314925497e-151, -1.419818331489371e-151]),
    (SchemeKind.H5, [1e-151 * (1.0 + k * 1e-11) for k in range(5)]),
    # y1 == y2 at 1e300: m3 has no value
    (SchemeKind.SLX3, [-1e300, 1e300, 1e300]),
]


@pytest.mark.parametrize("kind, ys", EXTREME_WINDOWS)
def test_extreme_windows_stop_as_degenerate(kind, ys):
    forcing = FunctionOfX(math.cos) if kind is SchemeKind.SLY4 else Constant(0.5)
    spec = SchemeSpec(kind, forcing, Uniform(0.1))
    seed = stencil_from_sequences([0.1 * k for k in range(spec.arity)], ys)
    out = STEPS[kind](seed, 0.1 * spec.arity, forcing)
    assert out is StopReason.DEGENERATE_COEFFICIENT
    with _loops_counted() as calls:
        traj = integrate(spec, seed, 5)
    assert traj.stop is StopReason.DEGENERATE_COEFFICIENT
    assert len(traj.points) == spec.arity
    # sly4's and h5's seeds have no invariant, so no loop starts; slx3's
    # loop checks y2 = y1 on every window, the first too
    assert calls() == (kind is SchemeKind.SLX3)
    # with no step to take, the window is never solved, no loop starts and
    # the run completes
    with _loops_counted() as calls:
        assert integrate(spec, seed, 0).stop is StopReason.COMPLETED
    assert calls() == 0


SLY4_NON_FINITE_WINDOWS = {
    # an infinite forcing value makes the deficit infinite and the new
    # ordinate NaN
    "infinite-forcing": ((0.0, 0.1, 0.2, 0.3), (0.0, 0.1, 0.3, 0.6),
                         FunctionOfX(lambda x: math.inf)),
    # y0 == y2 gives R/S = 0 and the deficit -4, so with zero forcing the
    # new ordinate repeats y2, past OVERFLOW_LIMIT; in floats y3 - y2 = -y2
    # and the new point is at infinity
    "past-overflow-limit": ((0.0, 1.0, 2.0, 3.0), (1.5e300, 0.0, 1.5e300, 1.0),
                            Constant(0.0)),
}


@pytest.mark.parametrize("xs, ys, forcing", SLY4_NON_FINITE_WINDOWS.values(),
                         ids=SLY4_NON_FINITE_WINDOWS)
def test_sly4_windows_stop_as_non_finite(xs, ys, forcing):
    seed = stencil_from_sequences(xs, ys)
    h = xs[1] - xs[0]
    assert sly4_step(seed, xs[3] + h, forcing) is StopReason.NON_FINITE
    traj = integrate(SchemeSpec(SchemeKind.SLY4, forcing, Uniform(h)), seed, 5)
    assert traj.stop is StopReason.NON_FINITE and traj.xs == seed.xs


#: per stop of the sly4 recursion: (ordinates over x = 0, 1, 2, 3, forcing,
#: the stop of the first step)
SLY4_RECURSION_STOPS = {
    # y2 = y1: the seed's difference ratio has no denominator
    "seed-flat-middle": ((0.0, 1.0, 1.0, 3.0), Constant(0.0),
                         StopReason.DEGENERATE_COEFFICIENT),
    # y3 = y1 gives e = -2, and with it a new difference of exactly zero
    "zero-difference": ((0.0, 1.0, 2.0, 1.0), Constant(0.5),
                        StopReason.DEGENERATE_COEFFICIENT),
    # a line (deficit 0, e = 0) whose deficit the forcing lowers by 2h^3 = 2:
    # K = 2 puts the new point at infinity, 2 - e + rho = 0
    "point-at-infinity": ((0.0, 1.0, 2.0, 3.0), Constant(1.0), StopReason.NON_FINITE),
}


@pytest.mark.parametrize("ys, forcing, stop", SLY4_RECURSION_STOPS.values(),
                         ids=SLY4_RECURSION_STOPS)
def test_sly4_recursion_stops(ys, forcing, stop):
    xs = (0.0, 1.0, 2.0, 3.0)
    seed = Stencil(xs, ys)
    assert sly4_step(seed, 4.0, forcing) is stop
    assert ref_step(SchemeKind.SLY4, forcing)(xs, ys, 4.0) is stop
    spec = SchemeSpec(SchemeKind.SLY4, forcing, Uniform(1.0))
    with _loops_counted() as calls:
        traj = integrate(spec, seed, 5)
    assert traj.stop is stop and traj.xs == xs
    # a seed with y2 = y1 has no e and starts no loop
    assert calls() == (ys[2] != ys[1])
    # with no step to take, the seed is never stepped, no loop starts and
    # the run completes
    with _loops_counted() as calls:
        assert integrate(spec, seed, 0).stop is StopReason.COMPLETED
    assert calls() == 0


def test_sly4_seed_past_the_product_overflow_steps_as_its_unscaled_copy():
    # (0, 1, 3, 6) times 1e155: the products of two y-differences in the
    # seed's R/S overflow, and it pairs them instead
    xs, ys, forcing = (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 3.0, 6.0), Constant(0.0)
    big = tuple(v * 1e155 for v in ys)
    spec = SchemeSpec(SchemeKind.SLY4, forcing, Uniform(1.0))
    traj, unit = integrate(spec, Stencil(xs, big), 5), integrate(spec, Stencil(xs, ys), 5)
    assert traj.stop is unit.stop is StopReason.COMPLETED
    assert traj.ys[4:] == pytest.approx([v * 1e155 for v in unit.ys[4:]], rel=1e-15)
    assert sly4_step(Stencil(xs, big), 4.0, forcing) == traj.ys[4]
    assert ref_step(SchemeKind.SLY4, forcing)(xs, big, 4.0) == traj.ys[4]


@pytest.mark.parametrize("spacing", [1e120, 1e155])
def test_sly4_on_a_huge_spacing_steps_as_on_spacing_1_until_its_forcing_term_overflows(spacing):
    # products of two x-differences overflow past spacing 1.3e154 and 2h^3
    # past 5.6e102: the seed's R/S pairs its differences, and its l3 is the
    # (0, 1, 2, 3) window's -0.5 times 1/h^2; a zero forcing term stays zero,
    # so the run steps as on spacing 1, and a forcing of 1 overflows the
    # term and stops the step non-finite
    xs, ys, zero = (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 3.0, 6.0), Constant(0.0)
    big = Stencil(tuple(spacing * x for x in xs), ys)
    assert l3(big) == pytest.approx(-0.5 / spacing / spacing, rel=1e-9)
    unit = integrate(SchemeSpec(SchemeKind.SLY4, zero, Uniform(1.0)), Stencil(xs, ys), 5)
    traj = integrate(SchemeSpec(SchemeKind.SLY4, zero, Uniform(spacing)), big, 5)
    assert traj.stop is unit.stop is StopReason.COMPLETED
    assert traj.ys == pytest.approx(unit.ys, rel=1e-14)
    assert sly4_step(big, 4 * spacing, zero) == traj.ys[4]
    out = sly4_step(big, 4 * spacing, Constant(1.0))
    assert out is StopReason.NON_FINITE
    assert ref_step(SchemeKind.SLY4, Constant(1.0))(big.xs, ys, 4 * spacing) is out


def test_sly4_crosses_the_pole_of_tan():
    # tan x from x = 1 over [1, 2.2]: a pole between two nodes is one large
    # finite difference, and the angle of (y, 1) stays on x modulo pi
    h = 1e-3
    seed = seed_stencil_from_function(math.tan, 1.0, h, 4)
    traj = integrate(SchemeSpec(SchemeKind.SLY4, Constant(0.0), Uniform(h)), seed,
                     round(1.2 / h) - 3)
    assert traj.stop is StopReason.COMPLETED and traj.xs[-1] == pytest.approx(2.2)
    assert max(abs(y) for y in traj.ys) > 1e3
    worst = max(abs(math.remainder(math.atan(y) - x, math.pi))
                for x, y in zip(traj.xs, traj.ys))
    assert worst <= 5e-8  # 1.3e-8; 1.6e-7 when each step cleared cross-ratios


@pytest.mark.parametrize("h, span", [(1e-2, 2.4), (1e-3, 2.4), (3e-4, 1.2)])
def test_sly4_arithmetic_error_is_below_the_seed_error(h, span):
    # zero-forcing tan x from x = -1.2, where tan x is an exact discrete
    # solution: a 40-digit shadow run from the same float seed, on the
    # lattice of the same h, has only the seed's rounding to carry, so the
    # float run's distance to it is the float arithmetic's error
    seed = seed_stencil_from_function(math.tan, -1.2, h, 4)
    traj = integrate(SchemeSpec(SchemeKind.SLY4, Constant(0.0), Uniform(h)), seed,
                     round(span / h) - 3)
    assert traj.stop is StopReason.COMPLETED
    exact = shadow.sly4(seed.xs, seed.ys, h, traj.xs[4:], lambda x: 0)
    with mp.workdps(40):
        arithmetic = max(abs(mp.mpf(y) - s) for y, s in zip(traj.ys, exact))
        seeded = max(abs(s - mp.tan(mp.mpf(x))) for x, s in zip(traj.xs, exact))
    # arithmetic / seeded reads 0.019, 7.2e-4 and 8.7e-4; 28, 13 and 13 when
    # each step cleared cross-ratios
    assert arithmetic <= 0.1 * seeded


def test_sly4_seeds_its_deficit_on_its_own_abscissae():
    # the seed's deficit is 4(R/S - 1) with S the x cross-ratio of its float
    # abscissae, 4 only to round-off: zero-forcing tan x from -1.2 at
    # h = 3e-3 over 2.4 reads chi 2.8e-10, and 1.9e-8 with the seed's
    # deficit R - 4
    h = 3e-3
    seed = seed_stencil_from_function(math.tan, -1.2, h, 4)
    traj = integrate(SchemeSpec(SchemeKind.SLY4, Constant(0.0), Uniform(h)), seed,
                     round(2.4 / h) - 3)
    assert traj.stop is StopReason.COMPLETED
    assert chi(traj, [math.tan(-1.2 + k * h) for k in range(len(traj))]) <= 5e-10


@pytest.mark.parametrize("h, c", [(0.1, 0.5), (-1e-3, -2.0), (0.1, 0.0), (-0.1, 0.0),
                                  (-0.1, -0.0), (1e120, 1.0), (-1e120, 0.5), (2.0, 1e308)])
def test_sly4_constant_decrements_repeat_the_per_step_term(h, c):
    # a Constant(c) stream is the stream of the same c as a function of x,
    # whose every step forms h * f(x2) * h * h * 2.0, bit for bit, also
    # where 2h^3 c overflows (the last three rows); past the four seed
    # windows it repeats that one float
    xs = [k * h for k in range(4)]
    xs[2] += 1e-7 * h  # a seed off the lattice, which the seed windows correct
    seed = Stencil(tuple(xs), (0.0, 1.0, 3.0, 6.0))
    term = h * c * h * h * 2.0
    for n_steps in range(9):
        got = list(schemes._sly4_decrements(seed, Constant(c), h, n_steps))
        want = list(schemes._sly4_decrements(seed, FunctionOfX(lambda _x: c), h, n_steps))
        assert repr(got) == repr(want)
        assert repr(got[4:]) == repr([term] * (n_steps - 4))
    assert math.isinf(term) == (abs(h) > 1e100 or c > 1e300)


def _slx3_shadow_errors(traj, c, exact):
    """(arithmetic, truncation) of an slx3 run under m3 = c: its largest
    distance to the 40-digit shadow run from its seed on its nodes, and the
    shadow's largest distance to the exact solution."""
    shadow_ys = shadow.slx3(traj.xs[:3], traj.ys[:3], traj.xs[3:], c)
    assert len(shadow_ys) == len(traj.ys)
    with mp.workdps(40):
        return (max(abs(mp.mpf(y) - s) for y, s in zip(traj.ys, shadow_ys)),
                max(abs(s - exact(mp.mpf(x))) for x, s in zip(traj.xs, shadow_ys)))


@pytest.mark.parametrize("h", [1e-2, 1e-3])
def test_slx3_arithmetic_error_is_below_the_truncation_error(h):
    # m3 = 2 on atanh from x = -0.9 to 0.9 (Table 3)
    seed = seed_stencil_from_function(math.atanh, -0.9, h, 3)
    traj = integrate(SchemeSpec(SchemeKind.SLX3, Constant(2.0), Uniform(h)), seed,
                     round(1.8 / h) - 2)
    assert traj.stop is StopReason.COMPLETED
    arithmetic, truncation = _slx3_shadow_errors(traj, 2.0, mp.atanh)
    # arithmetic / truncation reads 1.1e-10 and 5.7e-7; 6.2e-10 and 5.5e-5
    # when the step solved for t rather than for t - y2
    assert arithmetic <= truncation


def test_slx3_arithmetic_error_toward_the_log_barrier():
    # example 2-log, m3 = 1/2 on log|x| from x = -1 at h = 1e-4, up to
    # x = -0.01: toward the barrier at 0 the arithmetic error overtakes the
    # truncation error
    h = 1e-4
    seed = seed_stencil_from_function(LOG_ABS, -1.0, h, 3)
    traj = integrate(SchemeSpec(SchemeKind.SLX3, Constant(0.5), Uniform(h)), seed,
                     round(0.99 / h) - 2)
    assert traj.stop is StopReason.COMPLETED and traj.xs[-1] == pytest.approx(-0.01)
    arithmetic, truncation = _slx3_shadow_errors(traj, 0.5, lambda x: mp.log(abs(x)))
    # reads 2.26; 3.40 when the step solved for t rather than for t - y2
    assert arithmetic <= 4.5 * truncation


def _h5_shadow_errors(traj, c, exact):
    """(arithmetic, truncation) of an h5 run: its largest distance to the
    40-digit shadow run from its seed, and the shadow's largest distance to
    the exact solution."""
    shadow_ys = shadow.h5(traj.ys[:5], len(traj.ys) - 5, c)
    assert len(shadow_ys) == len(traj.ys)
    with mp.workdps(40):
        return (max(abs(mp.mpf(y) - s) for y, s in zip(traj.ys, shadow_ys)),
                max(abs(s - exact(mp.mpf(x))) for x, s in zip(traj.xs, shadow_ys)))


H5_ARITHMETIC_LEADS = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 17: h5 clears cross-ratios to a*t = b, "
                        "not the deficit form, and its arithmetic error leads")


@H5_ARITHMETIC_LEADS
def test_h5_arithmetic_error_is_below_the_truncation_error():
    # c = 0 on 1/(1 - e^x) from x = -3 at h = 1e-2 (fine-step-sweep's h5
    # row): the arithmetic error reads 44 times the truncation error
    h = 1e-2
    seed = seed_stencil_from_function(OMEX, -3.0, h, 5)
    traj = integrate(SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(h)), seed,
                     round(2.5 / h) - 4)
    assert traj.stop is StopReason.COMPLETED
    arithmetic, truncation = _h5_shadow_errors(traj, 0.0, lambda x: 1 / (1 - mp.exp(x)))
    assert arithmetic <= truncation


@pytest.mark.parametrize("h", [1e-2, pytest.param(5e-3, marks=H5_ARITHMETIC_LEADS),
                               pytest.param(2e-3, marks=H5_ARITHMETIC_LEADS)])
def test_h5_arithmetic_error_on_an_orbit_with_nonzero_c(h):
    # h5 = -4 on tan(sqrt(1.5) atan x) from x = 0 to 2.5 (ROADMAP item 21),
    # relative to y over x > 0: the arithmetic error reads 1.01, 66.6 and
    # 4.9e7 times the truncation error
    seed = seed_stencil_from_function(TAN_ATAN_ORBIT.eval_fn, 0.0, h, 5)
    traj = integrate(SchemeSpec(SchemeKind.H5, Constant(-4.0), Uniform(h)), seed,
                     round(2.5 / h) - 4)
    assert traj.stop is StopReason.COMPLETED and traj.xs[-1] == pytest.approx(2.5)
    shadow_ys = shadow.h5(traj.ys[:5], len(traj.ys) - 5, -4.0)
    with mp.workdps(40):
        ys = [mp.tan(mp.sqrt(1.5) * mp.atan(mp.mpf(x))) for x in traj.xs[1:]]
        arithmetic = max(abs(mp.mpf(f) - s) / abs(y)
                         for f, s, y in zip(traj.ys[1:], shadow_ys[1:], ys))
        truncation = max(abs(s - y) / abs(y) for s, y in zip(shadow_ys[1:], ys))
    assert arithmetic <= 2.0 * truncation


def test_h5_arithmetic_error_across_the_pole_of_tan_reciprocal():
    # c = 0 on tan(1/x) from 50.5 steps before its pole at 2/(5 pi), 30 steps
    # past it, at h = 1e-4: the arithmetic error reads 2.85 times the
    # truncation error
    h, pole = 1e-4, 2.0 / (5.0 * math.pi)
    seed = seed_stencil_from_function(TAN_RECIPROCAL, pole - 50.5 * h, h, 5)
    traj = integrate(SchemeSpec(SchemeKind.H5, Constant(0.0), Uniform(h)), seed, 80)
    assert traj.stop is StopReason.COMPLETED and traj.xs[0] < pole < traj.xs[-1]
    arithmetic, truncation = _h5_shadow_errors(traj, 0.0, lambda x: mp.tan(1 / x))
    assert arithmetic <= 6.0 * truncation


def test_slx3_run_is_equivariant_under_translation_of_y():
    # m3 = c depends on y through differences alone, so y -> y + k maps its
    # solutions to solutions: an atanh seed on a 2^-40 grid and the same
    # seed + 1024, both exact in floats, step 1024 apart up to rounding.
    # The largest gap reads 3.0e-9; 6.8e-7 when the step solved for t, whose
    # coefficients hold products of ordinates and their differences
    h = 1e-2
    seed = seed_stencil_from_function(math.atanh, -0.9, h, 3)
    ys = tuple(round(y * 2.0 ** 40) / 2.0 ** 40 for y in seed.ys)
    spec = SchemeSpec(SchemeKind.SLX3, Constant(2.0), Uniform(h))
    base = integrate(spec, Stencil(seed.xs, ys), 178)
    shifted = integrate(spec, Stencil(seed.xs, tuple(y + 1024.0 for y in ys)), 178)
    assert base.stop is shifted.stop is StopReason.COMPLETED
    assert max(abs((s - 1024.0) - y) for s, y in zip(shifted.ys, base.ys)) <= 1e-8


def test_h5_first_window_overflow_stops_as_non_finite():
    # ordinates (0, 1, 3, 6, 10) times 1e155: the products of two
    # y-differences in the first window overflow, and discrete._cross_ratio
    # pairs them into a finite R3, 5.0; the loop starts, and its first step
    # stops where y3 (y4 - y2) overflows in a*t = b
    xs, forcing = [0.1 * k for k in range(5)], Constant(0.0)
    spec = SchemeSpec(SchemeKind.H5, forcing, Uniform(0.1))
    seed = stencil_from_sequences(xs, [v * 1e155 for v in (0.0, 1.0, 3.0, 6.0, 10.0)])
    assert _cross_ratio(*seed.ys[:4]) == 5.0
    assert h5_step(seed, 0.5, forcing) is StopReason.NON_FINITE
    with _loops_counted() as calls:
        traj = integrate(spec, seed, 5)
    assert calls() == 1
    assert traj.stop is StopReason.NON_FINITE and traj.xs == seed.xs
    # with no step to take, the window is never solved and the run completes
    assert integrate(spec, seed, 0).stop is StopReason.COMPLETED
    # the 1e150-scaled window steps
    seed = stencil_from_sequences(xs, [v * 1e150 for v in (0.0, 1.0, 3.0, 6.0, 10.0)])
    assert integrate(spec, seed, 5).stop is StopReason.COMPLETED


#: h5 seeds of finite ordinates whose first R3 raises before the loop: a
#: repeated ordinate, and a difference that overflows, which makes the
#: window's scale infinite and each difference degenerate beside it.  No
#: finite seed makes it non-finite: its differences are finite, or one is
#: infinite and the window is degenerate, and with finite differences each
#: paired ratio is below 1 / DEGENERACY_RTOL in size
H5_SEEDS_WITHOUT_R3 = {
    "repeated-ordinate": (0.0, 0.0, 1.0, 3.0, 6.0),
    "overflowing-difference": (-1e308, 1e308, 0.0, 1.0, 3.0),
}


@pytest.mark.parametrize("ys", H5_SEEDS_WITHOUT_R3.values(), ids=H5_SEEDS_WITHOUT_R3)
def test_h5_seed_without_its_first_r3_starts_no_loop(ys):
    xs, forcing = tuple(0.1 * k for k in range(5)), Constant(0.0)
    with pytest.raises(DegenerateCoefficientError):
        _cross_ratio(*ys[:4])
    with _loops_counted() as calls:
        traj = integrate(SchemeSpec(SchemeKind.H5, forcing, Uniform(0.1)), Stencil(xs, ys), 5)
        assert h5_step(Stencil(xs, ys), 0.5, forcing) is StopReason.DEGENERATE_COEFFICIENT
    assert calls() == 0
    assert traj.stop is StopReason.DEGENERATE_COEFFICIENT and traj.ys == ys


#: windows over x = 0, 0.1, ... whose first zero-forcing step stops
#: NON_FINITE at a return of its run loop
FIRST_STEP_NON_FINITE = {
    # K = 4 (y1 - y0)(y2 - y1) overflows: the constant-forcing loop stops on
    # it before the step is solved; in the composed kernels every term but
    # the constant one is K times a zero forcing, NaN, and the cubic path
    # takes them to a NaN root, for which |t| <= OVERFLOW_LIMIT is false
    "slx3-root": (SchemeKind.SLX3, (2.56186378782458e257, 2.5933638886239894e257,
                                    2.561863812844665e257)),
    # y3 * (y4 - y2) overflows in a*t = b
    "h5-line": (SchemeKind.H5, (4.137153556905783e160, 4.1371535562890215e160,
                                4.137153557161971e160, 4.1371550557453077e160,
                                4.137150846082239e160)),
}


@pytest.mark.parametrize("kind, ys", FIRST_STEP_NON_FINITE.values(), ids=FIRST_STEP_NON_FINITE)
def test_first_step_stops_as_non_finite(kind, ys):
    forcing, xs = Constant(0.0), tuple(0.1 * k for k in range(len(ys)))
    seed, x_next = Stencil(xs, ys), 0.1 * len(ys)
    step = slx3_step if kind is SchemeKind.SLX3 else h5_step
    assert step(seed, x_next, forcing) is StopReason.NON_FINITE
    assert ref_step(kind, forcing)(xs, ys, x_next) is StopReason.NON_FINITE
    traj = integrate(SchemeSpec(kind, forcing, Uniform(0.1)), seed, 5)
    assert traj.stop is StopReason.NON_FINITE and traj.xs == xs


# --- the run loops against the composed kernels ----------------------------------------

#: per scheme: (seed function, start, steps h) of the benchmark's and the
#: examples' problems
ORACLE_PROBLEMS = {
    SchemeKind.SLY4: [(math.tan, -1.2, (1e-2, 3e-3, 1e-3, 3e-4)),
                      (math.tan, 1.0, (1e-2, 1e-3)),  # across the pole at pi/2
                      (math.exp, 0.0, (0.1, 1e-2))],
    SchemeKind.SLX3: [(math.atanh, -0.9, (1e-2, 3e-3, 1e-3, 3e-4)),
                      (LOG_ABS, -0.01, (1e-4,)),  # the 2-log barrier 100 steps on
                      (CUBIC_SEED, 0.0, (1e-3,))],
    SchemeKind.H5: [(OMEX, -3.0, (1e-2, 1e-3)),
                    (TAN_RECIPROCAL, 2.0 / (5.0 * math.pi) - 5e-3, (1e-4,))],  # the pole
}


def _oracle_forcings(kind, c):
    if kind is SchemeKind.SLY4:
        return [Constant(c), Constant(0.0), FunctionOfX(math.cos)]
    if kind is SchemeKind.SLX3:
        # zero constant forcing degenerates to the linear weakly-invariant form
        return [Constant(c), Constant(0.0), Constant(2.0), Constant(0.5),
                IdentityInY(), IdentityInY(stencil_mean=True)]
    return [Constant(c), Constant(0.0)]


def _assert_integrate_is_composed(spec, seed, n_steps):
    traj = integrate(spec, seed, n_steps)
    event(f"{spec.scheme.value} {type(spec.forcing).__name__}: {traj.stop.value}")
    assert (traj.xs, traj.ys, traj.stop) == scheme_reference_loop(spec, seed, n_steps)


#: per degree of the slx3 step and per branch of its descent, where a
#: degenerate leading coefficient drops the polynomial in u = t - y2 one
#: degree: (ys, forcing, the degree the descent ends on, or the stop where
#: the step solves nothing).  Under the identity forcings a cubic or a
#: quadratic calls its root solver and only a cubic's root is polished; the
#: constant-forcing loop finds its roots inline.  Under the
#: identity forcings f0 is about y2, so the u^3 term is about 1/(y2 s) of
#: the u term and the u^2 term 1/s + 1/y2 of it: a window far from 0 drops
#: the cubic, one as wide as it is far the quadratic too
SLX3_DEGREES = {
    "quadratic": ((0.0, 0.4, 0.7), Constant(0.5), 2),
    "cubic": ((0.0, 0.4, 0.7), IdentityInY(), 3),
    "cubic-mean": ((0.0, 0.4, 0.7), IdentityInY(stencil_mean=True), 3),
    "cubic-to-quadratic": ((1e14, 1e14 + 1.0, 1e14 + 3.0), IdentityInY(), 2),
    "cubic-to-linear": ((0.0, 1e14, 3e14), IdentityInY(stencil_mean=True), 1),
    "quadratic-to-linear": ((0.0, 0.4, 0.7), Constant(0.0), 1),
    # y1 - y0 and y2 - y1 infinite with opposite signs: s = y2 - y0 and with
    # it the scale are NaN, which takes the cubic path to a NaN root; K =
    # 4ab is infinite, and under a constant forcing the step stops on it
    "nan-scale-quadratic": ((-1.7e308, 1.7e308, -1.7e308), Constant(0.5),
                            StopReason.NON_FINITE),
    "nan-scale-cubic": ((-1.7e308, 1.7e308, -1.7e308), IdentityInY(), 3),
    # K = 4ab overflows: under a constant forcing the step stops NON_FINITE
    # before it is solved, where the composed kernels' u^3 coefficient
    # -inf * 0, a NaN, takes the cubic path to a NaN root; under the identity
    # forcings every coefficient is infinite, each degree's test reads
    # inf <= DEGENERACY_RTOL * inf, and the descent ends degenerate
    "k-overflow-constant": ((0.0, 1e155, 2e155), Constant(0.5), StopReason.NON_FINITE),
    "k-overflow-identity": ((0.0, 1e155, 2e155), IdentityInY(),
                            StopReason.DEGENERATE_COEFFICIENT),
    "k-overflow-mean": ((0.0, 1e155, 2e155), IdentityInY(stencil_mean=True),
                        StopReason.DEGENERATE_COEFFICIENT),
    # subnormal differences: K and the constant term underflow to zero, and
    # DEGENERACY_RTOL times the linear scale is zero, below the linear term
    "subnormal-scale": ((0.0, 1e-320, 3e-320), Constant(0.5), 1),
    # y2 = y1: m3 has no value, and the step solves nothing
    "flat-middle": ((0.0, 0.4, 0.4), IdentityInY(), StopReason.DEGENERATE_COEFFICIENT),
}


@pytest.mark.parametrize("ys, forcing, degree", SLX3_DEGREES.values(), ids=SLX3_DEGREES)
def test_slx3_descent_equals_composed_kernels(ys, forcing, degree):
    xs = (0.0, 0.5, 1.0)
    counted = ("_quadratic_roots", "_cubic_roots", "_polish")
    spec = SchemeSpec(SchemeKind.SLX3, forcing, Uniform(0.5))
    if isinstance(degree, int):  # the composed kernels' descent ends on the same degree
        assert len(_ref_slx3_coeffs(ys, forcing)) == degree + 1
    with ExitStack() as stack:
        calls = {name: stack.enter_context(mock.patch.object(
                     schemes, name, wraps=getattr(schemes, name))) for name in counted}
        t = slx3_step(Stencil(xs, ys), 1.5, forcing)
        # a cubic's root solver and its polish, an identity forcing's
        # quadratic root solver, and no call under a constant forcing
        identity = isinstance(forcing, IdentityInY)
        assert {name: calls[name].call_count for name in counted if calls[name].called} == (
            {"_cubic_roots": 1, "_polish": 1} if degree == 3
            else {"_quadratic_roots": 1} if identity and degree == 2 else {})
        for m in calls.values():
            m.reset_mock()
        traj = integrate(spec, Stencil(xs, ys), 20)
        assert calls["_polish"].call_count == calls["_cubic_roots"].call_count
        assert identity or not any(m.called for m in calls.values())
    want = _ref_slx3_kernel(xs, ys, 1.5, forcing)
    assert repr(t) == repr(want)
    if isinstance(degree, StopReason):
        assert t is degree
    else:  # a root, or a NaN root: the cubic path on a window whose K overflows
        assert (t is StopReason.NON_FINITE if degree == 3 and ys[1] - ys[0] > 1e154
                else isinstance(t, float))
    assert (traj.xs, traj.ys, traj.stop) == scheme_reference_loop(spec, Stencil(xs, ys), 20)


def test_slx3_identity_forcings_keep_each_root_by_select_root():
    # example 3's run, 300 steps from its RK4 seed: under either identity
    # forcing select_root keeps the root of every solved step, and the
    # constant-forcing loop, which chooses inline, never calls it
    run = run_example("3")
    seed, n_steps = Stencil(run.inv.xs[:3], run.inv.ys[:3]), len(run.inv) - 3
    assert n_steps == 300
    for forcing in (IdentityInY(), IdentityInY(stencil_mean=True), Constant(0.5)):
        spec = SchemeSpec(SchemeKind.SLX3, forcing, Uniform(run.h))
        with mock.patch.object(schemes, "select_root", wraps=select_root) as calls:
            traj = integrate(spec, seed, n_steps)
        if isinstance(forcing, IdentityInY):
            assert traj.stop is StopReason.COMPLETED
            assert calls.call_count == len(traj) - 3 == n_steps
        else:
            assert len(traj) > 3 and not calls.called


#: slx3 windows beyond the seeded ones: the constant rows of SLX3_DEGREES,
#: the K overflow of FIRST_STEP_NON_FINITE and y2 = y1 at 1e300
SLX3_CONSTANT_WINDOWS = [ys for ys, forcing, _ in SLX3_DEGREES.values()
                         if isinstance(forcing, Constant)] + [
    FIRST_STEP_NON_FINITE["slx3-root"][1], (-1e300, 1e300, 1e300)]


@settings(max_examples=400, deadline=None)
# a finite K with a NaN linear term, 18a - 6b = -inf less K c s = -inf: the
# linear root is NaN, and its new point fails the OVERFLOW_LIMIT test
@example(ys=(0.0, 1e-300, 1e308), c=-1e300, n_steps=1)
@given(ys=st.one_of(
           st.sampled_from(SLX3_CONSTANT_WINDOWS),
           st.builds(lambda e, us: tuple(10.0 ** e * u for u in us), st.floats(-300.0, 300.0),
                     st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)),
           # nearly flat: a level with spreads of a few DEGENERACY_RTOL
           st.builds(lambda e, us: tuple(10.0 ** e * (1.0 + DEGENERACY_RTOL * u) for u in us),
                     st.floats(-300.0, 300.0),
                     st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))),
       c=st.one_of(st.sampled_from([0.0, -0.0, 0.5, 2.0]),
                   st.floats(allow_nan=False, allow_infinity=False)),
       n_steps=st.integers(1, 40))
def test_slx3_constant_run_steps_as_slx3_run(ys, c, n_steps):
    # _slx3_run under the state (c, 0, 0) is the definition: the constant
    # loop leaves out only terms that vanish there, and stops on a K that
    # is not finite where _slx3_run's cubic path ends on a NaN root
    want, got = [], []
    stop = schemes._slx3_run(ys, (c, 0.0, 0.0), range(n_steps), want)
    assert schemes._slx3_constant_run(ys, c, range(n_steps), got) is stop
    assert repr(got) == repr(want)
    event(f"{stop.value}, {'stepped' if got else 'no step'}")


#: h5 windows over x = 0, 0.1, ... by the term that leads the scale of the
#: a*t = b test, max(|y4 - y2|, |v (y3 - y2)|), v the step's R5
H5_LINE_SCALES = {
    "v-dy32-leads": ((0.0, 1.0, 3.0, 6.0, 10.0), "vd"),
    "dy42-leads": ((0.0, 1.0, 3.0, 3.5, 5.5), "dy42"),
}


@pytest.mark.parametrize("ys, leader", H5_LINE_SCALES.values(), ids=H5_LINE_SCALES)
@pytest.mark.parametrize("c", [0.0, 0.5])
def test_h5_line_scale_equals_composed_kernels(ys, leader, c):
    xs, forcing = tuple(0.1 * k for k in range(5)), Constant(c)
    a_r5, b_r5, _ = _h5_r5_line(_cross_ratio(*ys[:4]), _cross_ratio(*ys[1:]), c)
    vd, dy42 = b_r5 / a_r5 * (ys[3] - ys[2]), ys[4] - ys[2]
    assert (abs(vd) > abs(dy42)) == (leader == "vd")
    assert repr(h5_step(Stencil(xs, ys), 0.5, forcing)) == repr(
        ref_step(SchemeKind.H5, forcing)(xs, ys, 0.5))
    spec = SchemeSpec(SchemeKind.H5, forcing, Uniform(0.1))
    traj = integrate(spec, Stencil(xs, ys), 20)
    assert repr((traj.xs, traj.ys, traj.stop)) == repr(
        scheme_reference_loop(spec, Stencil(xs, ys), 20))


def test_integrate_equals_composed_kernels_across_scales():
    # the run loops' degeneracy scales, max() written out as folds, against
    # the composed kernels' max() calls: 2 000 seeded windows at scales from
    # 1e-300 to 1e300, about one in four nearly flat (a level with spreads
    # of a few DEGENERACY_RTOL), each run 20 steps under every slx3 forcing
    # and h5 at c = 0, 0.5 and -2
    rng = random.Random(34)
    specs = ([SchemeSpec(SchemeKind.SLX3, f, Uniform(0.1))
              for f in (Constant(0.5), IdentityInY(), IdentityInY(stencil_mean=True))]
             + [SchemeSpec(SchemeKind.H5, Constant(c), Uniform(0.1)) for c in (0.0, 0.5, -2.0)])
    xs = tuple(0.1 * k for k in range(5))
    stops = set()
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        if rng.random() < 0.25:
            level = scale * rng.uniform(1.0, 10.0)
            ys = tuple(level * (1.0 + DEGENERACY_RTOL * rng.uniform(-4.0, 4.0))
                       for _ in range(5))
        else:
            ys = tuple(scale * rng.uniform(-1.0, 1.0) for _ in range(5))
        for spec in specs:
            seed = Stencil(xs[:spec.arity], ys[:spec.arity])
            traj = integrate(spec, seed, 20)
            assert repr((traj.xs, traj.ys, traj.stop)) == repr(
                scheme_reference_loop(spec, seed, 20)), (spec, ys)
            stops.add((spec.scheme, traj.stop))
    # every stop of both loops is reached, a barrier of slx3 included
    assert stops == {(kind, r) for kind in (SchemeKind.SLX3, SchemeKind.H5) for r in StopReason
                     if kind is SchemeKind.SLX3 or r is not StopReason.NO_REAL_ROOT}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(list(SchemeKind)), c=st.floats(-3.0, 3.0),
       shift=st.floats(0.0, 1.0), backward=st.booleans(), n_steps=st.integers(0, 300))
def test_integrate_equals_composed_kernels(data, kind, c, shift, backward, n_steps):
    fn, x0, hs = data.draw(st.sampled_from(ORACLE_PROBLEMS[kind]))
    forcing = data.draw(st.sampled_from(_oracle_forcings(kind, c)))
    h = data.draw(st.sampled_from(hs))
    h = -h if backward else h
    spec = SchemeSpec(kind, forcing, Uniform(h))
    _assert_integrate_is_composed(
        spec, seed_stencil_from_function(fn, x0 + shift * h, h, spec.arity), n_steps)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(list(SchemeKind)),
       ys=st.one_of(WINDOWS, st.sampled_from([ys for _, ys in EXTREME_WINDOWS])),
       c=st.floats(-3.0, 3.0), x0=st.floats(-10.0, 10.0), h=st.floats(1e-6, 1.0))
def test_integrate_equals_composed_kernels_on_hard_windows(data, kind, ys, c, x0, h):
    forcing = data.draw(st.sampled_from(_oracle_forcings(kind, c)))
    spec = SchemeSpec(kind, forcing, Uniform(h))
    assume(len(ys) >= spec.arity)
    seed = stencil_from_sequences([x0 + k * h for k in range(spec.arity)], ys[:spec.arity])
    _assert_integrate_is_composed(spec, seed, 30)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(SchemeKind)),
       ys=st.one_of(WINDOWS, st.sampled_from([ys for _, ys in EXTREME_WINDOWS])),
       c=st.floats(-3.0, 3.0), x0=st.floats(-10.0, 10.0), h=st.floats(1e-6, 1.0),
       backward=st.booleans(), to_negative_zero=st.booleans())
def test_steps_equal_one_step_of_the_composed_kernels(kind, ys, c, x0, h, backward,
                                                      to_negative_zero):
    # each public step equals one step of the oracle, stop reasons included
    h = -h if backward else h
    n = SCHEME_ARITY[kind]
    assume(len(ys) >= n)
    if to_negative_zero:  # the stencil ends one step before x_next = -0.0
        x0 = -n * h
    xs = [x0 + k * h for k in range(n)]
    x_next = -0.0 if to_negative_zero else x0 + n * h
    stencil = stencil_from_sequences(xs, ys[:n])
    for forcing in _oracle_forcings(kind, c):
        out = STEPS[kind](stencil, x_next, forcing)
        want = ref_step(kind, forcing)(stencil.xs, stencil.ys, x_next)
        event(f"{kind.value} {type(forcing).__name__}: {getattr(out, 'value', 'advanced')}")
        assert repr(out) == repr(want)
