"""Univariate polynomial helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc.univar import UnivarPoly, exp_w_ddx

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(rationals, min_size=0, max_size=7).map(UnivarPoly)


def test_trailing_zeros_normalized():
    assert UnivarPoly([1, 2, 0, 0]) == UnivarPoly([1, 2])
    assert UnivarPoly([0, 0]).degree == -1
    assert not UnivarPoly([0])


def test_arithmetic():
    p = UnivarPoly([1, 2])
    q = UnivarPoly([0, 1, 1])
    assert p + q == UnivarPoly([1, 3, 1])
    assert p * q == UnivarPoly([0, 1, 3, 2])
    assert p - p == UnivarPoly.zero()
    assert 3 * p == UnivarPoly([3, 6])
    assert p / 2 == UnivarPoly([F(1, 2), 1])
    assert p**2 == UnivarPoly([1, 4, 4])


def test_evaluate_horner():
    p = UnivarPoly([1, -3, 2])
    assert p.evaluate(2) == 3
    assert p.evaluate(F(1, 2)) == 0


def test_derivative():
    p = UnivarPoly([5, 1, 3, 2])
    assert p.derivative() == UnivarPoly([1, 6, 6])
    assert UnivarPoly([7]).derivative() == UnivarPoly.zero()


@settings(max_examples=30)
@given(polys, rationals, rationals)
def test_shift_argument_matches_evaluation(p, h, v):
    assert p.shift_argument(h).evaluate(v) == p.evaluate(v + h)


@settings(max_examples=30)
@given(polys, rationals)
def test_exp_w_ddx_sums_to_shift(p, h):
    """p(x + h) = sum_k (p^(k)(x)/k!) h^k."""
    n = max(p.degree, 0)
    expansion = exp_w_ddx(p, n)
    total = UnivarPoly.zero()
    for k in range(n + 1):
        total = total + expansion.coeff(k) * h**k
    assert total == p.shift_argument(h)


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        UnivarPoly([1, 1]) ** -1


def test_str():
    assert str(UnivarPoly([0, 1, 1])) == "x + x^2"
    assert str(UnivarPoly.zero()) == "0"


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        UnivarPoly([0.5])
    with pytest.raises(TypeError):
        UnivarPoly([1, 2]) + 0.5
    assert all(type(c) is F for c in UnivarPoly([1, F(1, 2)]).coeffs)


def test_evaluate_and_shift_reject_floats():
    p = UnivarPoly([1, 2, 3])
    with pytest.raises(TypeError):
        p.evaluate(0.5)
    with pytest.raises(TypeError):
        p.shift_argument(0.5)
    assert p.evaluate(F(1, 2)) == F(11, 4)
