"""Core truncated-series arithmetic against independent oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc.errors import (
    ConstantTermNotOne,
    InnerConstantTerm,
    NonzeroConstantTerm,
    NotDeltaSeries,
    OrderTooSmall,
    ZeroConstantTerm,
)
from umbralcalc.series import (
    TruncatedSeries,
    exp_series,
    exp_t,
    log_series,
    shift_multiplier,
)

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_strategy(order):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(
        TruncatedSeries
    )


def delta_strategy(order):
    nonzero = rationals.filter(bool)
    rest = st.lists(rationals, min_size=order - 1, max_size=order - 1)
    return st.tuples(nonzero, rest).map(
        lambda pair: TruncatedSeries([0, pair[0]] + pair[1])
    )


def geometric(order):
    """1/(1-t) = 1 + t + t^2 + ..."""
    return TruncatedSeries([1] * (order + 1))


def t_over_one_minus_t(order):
    return TruncatedSeries([0] + [1] * order)


# -- multiplication ----------------------------------------------------------


def test_mul_difference_of_squares():
    a = TruncatedSeries([1, 1], order=4)
    b = TruncatedSeries([1, -1], order=4)
    assert a * b == TruncatedSeries([1, 0, -1], order=4)


def test_mul_exp_squared_egf_is_powers_of_two():
    e = exp_t(8)
    product = e * e
    for n in range(9):
        oracle = sum(math.comb(n, k) for k in range(n + 1))  # binomial convolution
        assert oracle == 2**n
        assert product.egf(n) == oracle


def test_mul_truncates_to_min_order():
    a = TruncatedSeries([1, 2, 3])
    b = TruncatedSeries([1] * 6)
    assert (a * b).order == 2


@settings(max_examples=40)
@given(series_strategy(12), series_strategy(12))
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=25)
@given(series_strategy(12), series_strategy(12), series_strategy(12))
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40)
@given(series_strategy(8), series_strategy(8))
def test_leibniz_egf_binomial(a, b):
    """n! c_n(ab) = sum_(k+l=n) (k+l)!/(k! l!) A_k B_l."""
    product = a * b
    for n in range(9):
        rhs = sum(
            F(math.factorial(n), math.factorial(k) * math.factorial(n - k))
            * a.egf(k)
            * b.egf(n - k)
            for k in range(n + 1)
        )
        assert product.egf(n) == rhs


# -- multiplicative inverse --------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(a=series_strategy(5), n=st.integers(0, 9))
def test_pow_matches_repeated_product(a, n):
    expect = TruncatedSeries.one(5)
    for _ in range(n):
        expect = expect * a
    assert a**n == expect


def test_pow_past_the_order_is_zero():
    shifted = TruncatedSeries([0, 0, 3, 1], order=7)
    assert shifted**4 == TruncatedSeries.zero(7)
    assert shifted**3 == TruncatedSeries([0, 0, 0, 0, 0, 0, 27, 27], order=7)
    assert TruncatedSeries.zero(4) ** 0 == TruncatedSeries.one(4)


def test_reciprocal_of_one():
    one = TruncatedSeries.one(6)
    assert one.reciprocal() == one


def test_reciprocal_of_one_minus_t():
    s = TruncatedSeries([1, -1], order=7)
    inv = s.reciprocal()
    assert s * inv == TruncatedSeries.one(7)
    assert inv == geometric(7)


def test_reciprocal_of_exp():
    inv = exp_t(7).reciprocal()
    assert exp_t(7) * inv == TruncatedSeries.one(7)
    for n in range(8):
        assert inv.coeff(n) == F((-1) ** n, math.factorial(n))


def test_reciprocal_needs_unit():
    with pytest.raises(ZeroConstantTerm):
        TruncatedSeries.identity(5).reciprocal()


@settings(max_examples=30)
@given(series_strategy(9).filter(lambda s: s.coeffs[0] != 0))
def test_reciprocal_roundtrip(a):
    assert a * a.reciprocal() == TruncatedSeries.one(9)


# -- composition ---------------------------------------------------------------


def test_compose_with_identity_inner():
    a = TruncatedSeries([3, F(1, 2), 0, 7], order=5)
    assert a.compose(TruncatedSeries.identity(5)) == a


def test_compose_bell_numbers():
    # oracle: B_(n+1) = sum_k C(n,k) B_k
    bell = [1]
    for n in range(15):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
    assert bell[:9] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    composed = exp_t(15).compose(exp_t(15) - 1)
    for n in range(16):
        assert composed.egf(n) == bell[n]


def test_compose_monomials():
    t_squared = TruncatedSeries([0, 0, 1], order=4)
    two_t = TruncatedSeries([0, 2], order=4)
    assert t_squared.compose(two_t) == TruncatedSeries([0, 0, 4], order=4)


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(InnerConstantTerm):
        exp_t(4).compose(TruncatedSeries.one(4))


# -- compositional inverse -----------------------------------------------------


def test_reversion_of_identity():
    t = TruncatedSeries.identity(6)
    assert t.reversion() == t


def test_reversion_of_exp_minus_one():
    rev = (exp_t(10) - 1).reversion()
    for n in range(1, 11):
        assert rev.coeff(n) == F((-1) ** (n + 1), n)  # log(1+t)
    assert rev.compose(exp_t(10) - 1).agrees(TruncatedSeries.identity(10))


def test_reversion_of_geometric_delta():
    b = t_over_one_minus_t(9)
    rev = b.reversion()
    expected = TruncatedSeries([0] + [(-1) ** (n + 1) for n in range(1, 10)])
    assert rev == expected  # t/(1+t)
    assert b.compose(rev) == TruncatedSeries.identity(9)
    assert rev.compose(b) == TruncatedSeries.identity(9)


def test_reversion_requires_delta():
    with pytest.raises(NotDeltaSeries):
        TruncatedSeries([0, 0, 1], order=4).reversion()
    with pytest.raises(NotDeltaSeries):
        TruncatedSeries([1, 1], order=4).reversion()


@settings(max_examples=25)
@given(delta_strategy(10))
def test_reversion_roundtrip(b):
    rev = b.reversion()
    t = TruncatedSeries.identity(10)
    assert b.compose(rev) == t
    assert rev.compose(b) == t


# -- EGF shifts ----------------------------------------------------------------


def test_egf_shift_derivative_of_exp():
    assert exp_t(6).egf_shift(1) == exp_t(5)


def test_egf_shift_derivative_of_t():
    assert TruncatedSeries.identity(4).egf_shift(1) == TruncatedSeries.one(3)


def test_egf_shift_antiderivative_of_one():
    shifted = TruncatedSeries.one(0).egf_shift(-1)
    assert shifted == TruncatedSeries.identity(1)


def test_egf_shift_extension_supplies_constant():
    shifted = TruncatedSeries.one(0).egf_shift(-1, extension={-1: F(5)})
    assert shifted == TruncatedSeries([5, 1])


def test_egf_shift_matches_derivative():
    s = TruncatedSeries([3, 1, F(5, 2), 7, 2])
    assert s.egf_shift(1) == s.derivative()
    assert s.egf_shift(2) == s.derivative().derivative()


def test_egf_shift_up_then_down_drops_constant():
    s = TruncatedSeries([3, 1, F(5, 2), 7])
    back = s.egf_shift(1).egf_shift(-1)
    assert back == s - 3


def test_egf_shift_beyond_order_fails():
    with pytest.raises(OrderTooSmall):
        TruncatedSeries([1, 2], order=1).egf_shift(2)


# -- shift multiplier (derivative composed with the reversion) ------------------


def test_shift_multiplier_identity():
    assert shift_multiplier(TruncatedSeries.identity(5)) == TruncatedSeries.one(4)


def test_shift_multiplier_exp_minus_one():
    out = shift_multiplier(exp_t(8) - 1)
    assert out == TruncatedSeries([1, 1], order=7)  # e^(log(1+t)) = 1 + t


def test_shift_multiplier_geometric():
    out = shift_multiplier(t_over_one_minus_t(8))
    assert out == TruncatedSeries([1, 2, 1], order=7)  # (1+t)^2


def test_shift_multiplier_requires_delta():
    with pytest.raises(NotDeltaSeries):
        shift_multiplier(TruncatedSeries([0, 0, 1], order=5))


@settings(max_examples=25)
@given(delta_strategy(9))
def test_shift_multiplier_times_reversion_derivative(b):
    product = shift_multiplier(b) * b.reversion().derivative()
    assert product == TruncatedSeries.one(8)


# -- exp and log -----------------------------------------------------------------


def test_exp_of_zero():
    assert exp_series(TruncatedSeries.zero(5)) == TruncatedSeries.one(5)


def test_exp_of_t():
    assert exp_series(TruncatedSeries.identity(7)) == exp_t(7)


def test_exp_of_log_one_plus_t():
    one_plus_t = TruncatedSeries([1, 1], order=8)
    assert exp_series(log_series(one_plus_t)) == one_plus_t


def test_log_of_one():
    assert log_series(TruncatedSeries.one(5)) == TruncatedSeries.zero(5)


def test_log_of_one_plus_t():
    out = log_series(TruncatedSeries([1, 1], order=9))
    for n in range(1, 10):
        assert out.coeff(n) == F((-1) ** (n + 1), n)


def test_log_of_exp():
    assert log_series(exp_t(8)) == TruncatedSeries.identity(8)


def test_exp_requires_zero_constant():
    with pytest.raises(NonzeroConstantTerm):
        exp_series(TruncatedSeries.one(4))


def test_log_requires_unit_constant():
    with pytest.raises(ConstantTermNotOne):
        log_series(TruncatedSeries([2, 1], order=4))


@settings(max_examples=25)
@given(series_strategy(8).map(lambda s: TruncatedSeries([0] + list(s.coeffs[1:]))))
def test_exp_log_roundtrip(a):
    assert log_series(exp_series(a)) == a


# -- representation ----------------------------------------------------------------


def test_egf_view_is_factorial_scaled():
    s = TruncatedSeries([1, 1, 1, 1])
    assert s.egf_coeffs() == (F(1), F(1), F(2), F(6))
    assert TruncatedSeries.from_egf(s.egf_coeffs()) == s


def test_classification_flags():
    assert TruncatedSeries.identity(3).is_delta
    assert not TruncatedSeries.identity(3).is_unit
    assert exp_t(3).is_unit
    assert not exp_t(3).is_delta
    assert not TruncatedSeries([0, 0, 1], order=3).is_delta


def test_truncate_cannot_extend():
    with pytest.raises(OrderTooSmall):
        TruncatedSeries([1, 2], order=1).truncate(3)


def test_scalar_arithmetic():
    s = TruncatedSeries.identity(4)
    assert (1 + s).coeff(0) == 1
    assert (s - 1).coeff(0) == -1
    assert (2 * s).coeff(1) == 2
    assert (s / 2).coeff(1) == F(1, 2)


def test_str_rendering():
    s = TruncatedSeries([0, 1, F(1, 2)])
    assert str(s) == "t + 1/2*t^2 + O(t^3)"


@pytest.mark.parametrize(
    "build",
    [
        lambda: TruncatedSeries([0.1]),
        lambda: TruncatedSeries([1, 2.0], order=3),
        lambda: TruncatedSeries.constant(0.5, 2),
        lambda: TruncatedSeries.from_egf([1, 0.5]),
        lambda: TruncatedSeries([1, 2]).egf_shift(-1, {-1: 0.25}),
    ],
)
def test_floats_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_coefficients_are_fractions():
    s = TruncatedSeries([1, F(1, 2), True])
    assert all(type(c) is F for c in s.coeffs)
    assert s.coeffs == (F(1), F(1, 2), F(1))
