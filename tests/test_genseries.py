"""Expansions in ``w`` over rational, univariate and derivation-ring coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralcalc.errors import DomainError, OrderTooSmall
from umbralcalc.genseries import GenSeries
from umbralcalc.polyring import MultiPoly
from umbralcalc.univar import UnivarPoly

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
Y, X = MultiPoly.y, MultiPoly.x
MONOMIALS = [MultiPoly.one(), Y(0), Y(1), X(1), Y(0) * X(2)]
multipolys = st.lists(st.tuples(st.sampled_from(MONOMIALS), rationals), max_size=3).map(
    lambda terms: sum((m * c for m, c in terms), MultiPoly.zero())
)
# each coefficient ring with its strategy and its one
RINGS = {
    "rational": (rationals, F(1)),
    "univar": (st.lists(rationals, max_size=3).map(UnivarPoly), UnivarPoly.one()),
    "multi": (multipolys, MultiPoly.one()),
}


@st.composite
def expansions(draw, count=1, max_order=4):
    """``(one, gs_1, ..., gs_count)``: expansions over one coefficient ring and its one."""
    coeffs, one = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    lists = st.lists(coeffs, min_size=1, max_size=max_order + 1)
    return (one, *[GenSeries(draw(lists)) for _ in range(count)])


@settings(max_examples=60, deadline=None)
@given(expansions(count=2))
def test_sum_and_difference_truncate_to_the_smaller_order(ring):
    _, a, b = ring
    n = min(a.order, b.order)
    assert a - b == a + (-b)
    assert (a + b).order == (a - b).order == n
    assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    assert (a - b) + b == a.truncate(n)


@settings(max_examples=60, deadline=None)
@given(expansions())
def test_scalars_are_constant_expansions(ring):
    one, gs = ring
    rest = list(gs.coeffs[1:])
    assert gs + 1 == 1 + gs == GenSeries([gs.coeffs[0] + one] + rest)
    assert 1 - gs == GenSeries([one - gs.coeffs[0]] + [-c for c in rest])
    assert gs - F(1, 2) == GenSeries([gs.coeffs[0] - one * F(1, 2)] + rest)
    assert gs**0 == GenSeries([one] + [one * 0] * gs.order)


@settings(max_examples=30, deadline=None)
@given(expansions(max_order=3))
def test_powers_are_repeated_products(ring):
    one, gs = ring
    product = GenSeries([one] + [one * 0] * gs.order)
    for n in range(7):
        assert gs**n == product, n
        product = product * gs


@pytest.mark.parametrize("n", [-1, -3])
def test_negative_exponent_is_refused(n):
    with pytest.raises(ValueError):
        GenSeries([F(1), F(2)]) ** n


def test_order_zero_derivative_is_a_domain_error():
    gs = GenSeries([Y(0)])
    with pytest.raises(OrderTooSmall) as info:
        gs.differentiate()
    assert isinstance(info.value, DomainError) and isinstance(info.value, ValueError)
    assert GenSeries([F(3), F(5)]).differentiate() == GenSeries([F(5)])
