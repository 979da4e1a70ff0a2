import math

import pytest

from invdisc import (ConstantS, DegenerateCoefficientError, cross_ratio,
                     extend_constant_s, extend_lattice, w_coefficient, w0_sol2)
from invdisc.discrete import CrossRatioWindow


def test_extend_constant_s_uniform_persists():
    assert extend_constant_s(0.0, 1.0, 2.0, 4.0) == pytest.approx(3.0, rel=1e-14)


def test_extend_constant_s_reciprocal_family():
    assert extend_constant_s(1.0, 0.5, 1.0 / 3.0, 4.0) == pytest.approx(0.25, rel=1e-13)


def test_extend_constant_s_degenerate():
    # K equal to (x_c - x_a)/(x_b - x_a) kills the linear coefficient
    with pytest.raises(DegenerateCoefficientError):
        extend_constant_s(0.0, 1.0, 2.0, 2.0)


@pytest.mark.parametrize("K,seed", [
    (4.0, (0.0, 1.0, 2.0)),
    (4.0, (1.0, 0.5, 1.0 / 3.0)),
    (3.5, (0.0, 0.9, 2.1)),
    (5.0, (-1.0, -0.4, 0.5)),
])
def test_extension_keeps_cross_ratio(K, seed):
    xs = extend_lattice(ConstantS(K, seed), 10)
    assert len(xs) == 10
    for k in range(len(xs) - 3):
        r = cross_ratio(CrossRatioWindow(*xs[k:k + 4]))
        assert r == pytest.approx(K, rel=1e-12)


def test_extend_lattice_counts():
    rule = ConstantS(4.0, (0.0, 1.0, 2.0))
    assert extend_lattice(rule, 0) == []
    assert extend_lattice(rule, 2) == [0.0, 1.0]
    with pytest.raises(ValueError, match="non-negative"):
        extend_lattice(rule, -1)


def test_k4_arithmetic_extension_is_exact():
    xs = extend_lattice(ConstantS(4.0, (2.0, 2.5, 3.0)), 8)
    assert xs == pytest.approx([2.0 + 0.5 * k for k in range(8)], rel=1e-14)


def test_k4_reciprocal_extension_matches_closed_form():
    A, B, C = 2.0, 3.0, 0.7
    closed = [1.0 / (A * m + B) + C for m in range(8)]
    xs = extend_lattice(ConstantS(4.0, tuple(closed[:3])), 8)
    for got, want in zip(xs, closed):
        assert got == pytest.approx(want, rel=1e-12)


def test_w0_sol2_values():
    B = (-5.0 + math.sqrt(57.0)) / 2.0
    assert abs(w0_sol2(1.0, B)) <= 1e-12
    assert w0_sol2(1.0, 6.0) == pytest.approx(-116.0 / 5040.0, rel=1e-14)
    with pytest.raises(DegenerateCoefficientError):
        w0_sol2(1.0, -2.0)


def test_w_coefficient_on_sol2_points_equals_w0():
    for A, B in ((1.0, 6.0), (0.5, 3.0), (2.0, 9.0)):
        xs = [1.0 / (A * m + B) + 0.3 for m in range(6)]
        assert w_coefficient(*xs) == pytest.approx(w0_sol2(A, B), rel=1e-9)


def test_w_coefficient_scaling_continuity():
    # shrinking A drives both the finite-lattice W and the closed form to 0
    B = 6.0
    prev = None
    for eps in (1e-1, 1e-2, 1e-3):
        A = eps
        xs = [1.0 / (A * m + B) for m in range(6)]
        w = w_coefficient(*xs)
        assert w == pytest.approx(w0_sol2(A, B), rel=1e-6, abs=1e-12)
        if prev is not None:
            assert abs(w) < abs(prev)
        prev = w
    assert abs(prev) <= 1e-6
