import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from invdisc import (Constant, ConstantS, FunctionOfX, IdentityInY, Jet,
                     NonFiniteError, Point, SchemeKind, SchemeSpec, Stencil, StopReason,
                     Trajectory, Uniform, core, integrate,
                     seed_stencil_from_function, stencil_from_sequences)

from conftest import STEPS


def test_seed_identity():
    s = seed_stencil_from_function(lambda x: x, 0.0, 1.0, 4)
    assert s.xs == (0.0, 1.0, 2.0, 3.0)
    assert s.ys == (0.0, 1.0, 2.0, 3.0)


def test_seed_samples_exact_solution():
    f = lambda x: 1.0 / (1.0 - math.exp(x))
    s = seed_stencil_from_function(f, -1.0, 0.1, 6)
    assert len(s) == 6
    for x, y in zip(s.xs, s.ys):
        assert y == f(x)


def test_seed_arctanh_points():
    s = seed_stencil_from_function(math.atanh, -0.9, 0.01, 4)
    assert s.xs[0] == -0.9
    assert s.ys[0] == math.atanh(-0.9)
    assert s.ys[3] == pytest.approx(math.atanh(-0.87), abs=1e-15)


def test_seed_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        seed_stencil_from_function(lambda x: float("nan"), 0.0, 1.0, 4)


def test_seed_rejects_bad_args():
    with pytest.raises(ValueError):
        seed_stencil_from_function(lambda x: x, 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        seed_stencil_from_function(lambda x: x, 0.0, 1.0, 7)


@given(x0=st.floats(-50, 50), h=st.floats(-2, 2).filter(lambda v: abs(v) > 1e-6),
       n=st.integers(3, 6))
def test_seed_monotone_abscissae(x0, h, n):
    s = seed_stencil_from_function(lambda x: 0.5 * x + 1.0, x0, h, n)
    dxs = [b - a for a, b in zip(s.xs, s.xs[1:])]
    assert all(d > 0 for d in dxs) or all(d < 0 for d in dxs)


def test_stencil_validation():
    with pytest.raises(ValueError):
        stencil_from_sequences([0, 1], [1, 2])
    with pytest.raises(ValueError):
        stencil_from_sequences([0, 1, 1, 2], [1, 2, 3, 4])
    with pytest.raises(ValueError):
        stencil_from_sequences([0, 1, 0.5, 2], [1, 2, 3, 4])
    # decreasing is allowed (backward integration)
    s = stencil_from_sequences([2, 1, 0], [1, 2, 3])
    assert len(s) == 3


def test_point_and_jet_reject_non_finite():
    with pytest.raises(NonFiniteError):
        Point(0.0, float("inf"))
    with pytest.raises(NonFiniteError):
        Jet(0.0, (1, 2, 3, float("nan"), 5, 6))
    with pytest.raises(ValueError):
        Jet(0.0, (1, 2, 3))


def _sly4_run(n_steps=40):
    spec = SchemeSpec(SchemeKind.SLY4, Constant(0.0), Uniform(0.01))
    return integrate(spec, seed_stencil_from_function(math.tan, 0.0, 0.01, 4), n_steps)


def test_trajectory_points_are_built_only_when_read(monkeypatch):
    built = []

    class CountingPoint(Point):
        def __post_init__(self):
            built.append((self.x, self.y))
            super().__post_init__()

    traj = _sly4_run()
    monkeypatch.setattr(core, "Point", CountingPoint)
    assert len(traj.points) == len(traj.xs) == 44
    assert built == []
    last = traj.points[-1]
    assert built == [(traj.xs[-1], traj.ys[-1])]
    assert type(last) is CountingPoint


def test_trajectory_points_view_reads_like_a_tuple():
    traj = _sly4_run()
    points = tuple(map(Point, traj.xs, traj.ys))
    view = traj.points
    assert tuple(view) == tuple(iter(view)) == points
    assert [view[i] for i in range(len(view))] == list(points)
    for i in (-1, -2, -len(points)):
        assert view[i] == points[i]
    for s in (slice(None), slice(3, 9), slice(-5, None), slice(None, None, -3),
              slice(50, 60)):
        assert view[s] == points[s]
    assert list(reversed(view)) == list(reversed(points))
    assert points[7] in view and view.index(points[7]) == 7
    for i in (len(points), -len(points) - 1):
        with pytest.raises(IndexError):
            view[i]


def test_trajectory_points_check_each_point_when_read():
    xs, ys = (0.0, 1.0, 2.0), (1.0, math.inf, 3.0)
    traj = Trajectory(xs, ys, StopReason.NON_FINITE, "test", 1.0)
    assert len(traj.points) == 3
    assert traj.points[0] == Point(0.0, 1.0) and traj.points[2:] == (Point(2.0, 3.0),)
    with pytest.raises(NonFiniteError):
        traj.points[1]
    with pytest.raises(NonFiniteError):
        tuple(traj.points)


def test_trajectory_identity_ignores_points():
    a, b = _sly4_run(), _sly4_run()
    h = hash(a)
    assert a == b and hash(b) == h
    tuple(a.points), a.points[-1]
    assert a == b and hash(a) == hash(b) == h


def jet_generator_form(x, d):
    """Test-only copy of the generator-form conversion and checks that
    ``Jet.__post_init__`` makes as C-level passes: (x, d) or its exception."""
    d = tuple(float(v) for v in d)
    if len(d) != 6:
        raise ValueError(f"jet needs entries for orders 0..5, got {len(d)}")
    if not all(math.isfinite(v) for v in (x, *d)):
        raise NonFiniteError("non-finite jet entry")
    return x, d


ONES = (1.0,) * 6
JET_INPUTS = {
    "floats": (0.5, (1.0, -2.0, 3.5, 0.0, -0.0, 6e300)),
    "ints": (1, (1, -2, 3, 0, 5, 2 ** 60 + 1)),
    "numeric-strings": (0.0, ("1", "-2.5", " 3e2 ", "4", "5.0", "1_000")),
    "bools": (True, (True, False, 1, 0.5, False, True)),
    "list": (-1.0, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    "fractions": (Fraction(1, 3), (Fraction(1, 3),) * 6),
    "nan-x": (math.nan, ONES),
    "inf-x": (-math.inf, ONES),
    "nan-in-d": (0.0, (1.0, 2.0, math.nan, 4.0, 5.0, 6.0)),
    "inf-in-d": (0.0, (1.0, 2.0, 3.0, 4.0, 5.0, math.inf)),
    "inf-string-in-d": (0.0, ("-inf", 2, 3, 4, 5, 6)),
    "nan-x-and-d": (math.nan, (math.nan,) * 6),
    "short": (0.0, ONES[:5]),
    "long": (0.0, ONES + (1.0,)),
    "empty": (0.0, ()),
    "short-with-nan-x": (math.nan, ONES[:3]),
    "short-with-nan-in-d": (0.0, (math.nan,) * 3),
    "word-in-d": (0.0, ("one", 2, 3, 4, 5, 6)),
    "none-in-d": (0.0, (None,) * 6),
    "d-not-iterable": (0.0, 6),
    "d-string": (0.0, "123456"),
    "x-string": ("0.5", ONES),
    "x-none": (None, ONES),
    "x-complex": (1j, ONES),
    "x-huge-int": (10 ** 400, ONES),
    "huge-int-in-d": (0.0, (10 ** 400,) + ONES[1:]),
    "complex-in-d": (0.0, (1j,) + ONES[1:]),
}


@pytest.mark.parametrize("x, d", JET_INPUTS.values(), ids=JET_INPUTS)
def test_jet_checks_match_generator_form(x, d):
    try:
        expected = jet_generator_form(x, d)
    except Exception as e:
        with pytest.raises(type(e)) as got:
            Jet(x, d)
        assert type(got.value) is type(e) and str(got.value) == str(e)
    else:
        jet = Jet(x, d)
        assert repr((jet.x, jet.d)) == repr(expected)
        assert all(type(v) is float for v in jet.d)


def stencil_post_init_form(xs, ys):
    """Test-only copy of the former ``Stencil.__post_init__``, verbatim but
    for its two field assignments: (xs, ys) or its exception."""
    xs, ys = tuple(xs), tuple(ys)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    for x, y in zip(xs, ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteError(f"non-finite point ({x}, {y})")
    if not 3 <= len(xs) <= 6:
        raise ValueError(f"stencil needs 3..6 points, got {len(xs)}")
    dxs = [b - a for a, b in zip(xs, xs[1:])]
    if not (all(d > 0 for d in dxs) or all(d < 0 for d in dxs)):
        raise ValueError("stencil abscissae must be strictly monotone")
    return xs, ys


#: a small pool, so that draws repeat values; the ints are small, because
#: past 2**53 the exact int-float comparison of Stencil and the float
#: difference of the former check tell some pairs apart differently
STENCIL_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     1e-310, 1e308, -1e308, 0.5, 1.0, 2.0]),
    st.integers(-3, 3),
    st.floats(-1e3, 1e3))


@st.composite
def stencil_inputs(draw):
    """2..7 abscissae, as drawn or sorted, and ordinates of the same count or
    one more or fewer."""
    n = draw(st.integers(2, 7))
    xs = draw(st.lists(STENCIL_VALUES, min_size=n, max_size=n))
    order = draw(st.sampled_from(["as drawn", "increasing", "decreasing"]))
    if order != "as drawn":
        xs.sort(reverse=order == "decreasing")
    m = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    return xs, draw(st.lists(STENCIL_VALUES, min_size=m, max_size=m))


def _outcome(check, xs, ys):
    try:
        return repr(check(xs, ys))
    except Exception as e:
        return type(e), str(e)


@given(stencil_inputs())
# one example per pair of faults, each also caught by the later checks
@example(([0.0, math.nan], [1.0, 2.0, 3.0]))          # lengths, then finite
@example(([0.0, 1.0], [math.inf, 2.0]))               # finite, then count
@example(([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 7))  # count, then monotone
@example(([0.0, 2.0, 1.0, math.nan], [1.0, math.inf, 2.0, 3.0]))  # first non-finite point
@example(([1e308, -1e308, 0.0], [1.0, 2.0, 3.0]))     # a difference that overflows
@example(([-0.0, 0.0, 1.0], [1.0, 2.0, 3.0]))         # signed zeros repeat
def test_stencil_checks_match_former_post_init(args):
    xs, ys = args

    def stencil(xs, ys):
        s = Stencil(xs, ys)
        return s.xs, s.ys

    assert _outcome(stencil, xs, ys) == _outcome(stencil_post_init_form, xs, ys)


def test_scheme_spec_forcing_rules():
    # every scheme takes a constant, sly4 also a function of x and slx3 the
    # identity in y, at the new point or as the stencil mean
    takes = {SchemeKind.SLY4: (Constant, FunctionOfX),
             SchemeKind.SLX3: (Constant, IdentityInY), SchemeKind.H5: (Constant,)}
    for kind in SchemeKind:
        arity = core.SCHEME_ARITY[kind]
        seed = seed_stencil_from_function(math.exp, 0.0, 0.1, arity)
        x_next = 0.1 * arity
        for forcing in (Constant(0.5), FunctionOfX(math.cos), IdentityInY(),
                        IdentityInY(stencil_mean=True)):
            if isinstance(forcing, takes[kind]):
                spec = SchemeSpec(kind, forcing, Uniform(0.1))
                out = STEPS[kind](seed, x_next, forcing)
                assert not isinstance(out, StopReason)
                traj = integrate(spec, seed, 3)
                assert (traj.xs[arity], traj.ys[arity]) == (x_next, out)
                continue
            # SchemeSpec refuses the pair when it is built, on any lattice,
            # and names the forcing types the scheme takes
            refused = (f"^{kind.value} takes {' or '.join(t.__name__ for t in takes[kind])} "
                       f"forcings, not {type(forcing).__name__}$")
            for h in (0.1, -0.1):
                with pytest.raises(ValueError, match=refused):
                    SchemeSpec(kind, forcing, Uniform(h))
            with pytest.raises(ValueError, match=refused):
                STEPS[kind](seed, x_next, forcing)
    with pytest.raises(ValueError, match="^h5 takes Constant forcings, not FunctionOfX$"):
        SchemeSpec(SchemeKind.H5, FunctionOfX(math.cos), Uniform(0.1))


def test_scheme_spec_rejects_non_uniform_lattice():
    rule = ConstantS(4.0, (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        SchemeSpec(SchemeKind.H5, Constant(0.0), rule)


def test_constant_forcing_must_be_finite():
    # refused at the boundary, as Uniform refuses a non-finite step, not
    # reported as a scheme's stop
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^constant forcing .* is not finite$"):
            Constant(c)
    assert Constant(-1e308).c == -1e308


def test_lattice_rule_validation():
    with pytest.raises(ValueError, match="^uniform lattice needs a nonzero step$"):
        Uniform(0.0)
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^lattice step {h!r} is not finite$"):
            Uniform(h)
    with pytest.raises(ValueError):
        ConstantS(0.0, (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        ConstantS(4.0, (0.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        ConstantS(math.nan, (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        ConstantS(4.0, (0.0, 1.0, math.inf))
