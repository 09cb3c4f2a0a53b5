"""Expansions in ``w`` over rational, univariate and derivation-ring coefficients."""

import math
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralcalc.errors import DomainError, InnerConstantTerm, OrderTooSmall
from umbralcalc.genseries import GenSeries
from umbralcalc.polyring import MultiPoly
from umbralcalc.sampling import random_delta, random_series, rng_for
from umbralcalc.series import TruncatedSeries
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


# -- composition ----------------------------------------------------------------


@st.composite
def compositions(draw, max_order=4):
    """``(outer, inner)`` over one coefficient ring, ``inner`` with zero ``w^0`` term."""
    coeffs, one = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    outer = draw(st.lists(coeffs, min_size=1, max_size=max_order + 1))
    rest = draw(st.lists(coeffs, max_size=max_order))
    return GenSeries(outer), GenSeries([one * 0] + rest)


@settings(max_examples=60, deadline=None)
@given(compositions())
def test_compose_is_the_sum_of_scaled_powers(pair):
    outer, inner = pair
    n = min(outer.order, inner.order)
    expected = reduce(add, [inner**k * c for k, c in enumerate(outer.coeffs)]).truncate(n)
    composed = outer.compose(inner)
    assert composed.order == n
    assert composed == expected


def _faa_reference(outer: list, inner: list, order: int) -> list:
    """``[w^k] sum_n outer[n] (sum_m inner[m-1] w^m)^n`` with the powers kept as
    lists that mark absent entries with ``None``: the loop ``GenSeries.compose``
    replaced in the FAA check."""
    rhs = [outer[0]] + [None] * order
    power = [TruncatedSeries.one(order)] + [None] * order
    for n in range(1, order + 1):
        nxt = [None] * (order + 1)
        for i in range(n - 1, order):
            if power[i] is None:
                continue
            for j in range(1, order + 1 - i):
                term = power[i] * inner[j - 1]
                nxt[i + j] = term if nxt[i + j] is None else nxt[i + j] + term
        power = nxt
        for k in range(n, order + 1):
            if power[k] is not None:
                term = power[k] * outer[n]
                rhs[k] = term if rhs[k] is None else rhs[k] + term
    return rhs


@pytest.mark.parametrize("order", range(9))
def test_compose_of_series_coefficients_matches_the_faa_loop(order):
    # FAA's operands: f^(n)(g)/n! outside, g^(m)/m! inside, each at its own t-order
    rng = rng_for(order, "compose-faa")
    f, g = random_series(rng, order), random_delta(rng, order)
    outer = [f.egf_shift(n).compose(g) / math.factorial(n) for n in range(order + 1)]
    inner = [g.egf_shift(m) / math.factorial(m) for m in range(1, order + 1)]
    composed = GenSeries(outer).compose(GenSeries([0] + inner)).coeffs
    reference = _faa_reference(outer, inner, order)
    assert [c.order for c in composed] == [c.order for c in reference]
    assert list(composed) == reference


def _ungraded_compose(outer: GenSeries, inner: GenSeries) -> GenSeries:
    """``GenSeries.compose`` before graded truncation: every intermediate series
    keeps the full t-order its operands give it."""
    n = min(outer.order, inner.order)
    cs, u = outer.coeffs, inner.coeffs
    row = u[1 : n + 1]
    out = [cs[0]] + [c * cs[1] for c in row]
    for m in range(2, n + 1):
        row = [
            reduce(add, [row[i] * u[j - i + 1] for i in range(j + 1)])
            for j in range(n - m + 1)
        ]
        for j, c in enumerate(row):
            out[m + j] += c * cs[m]
    return GenSeries(out)


# a series of random t-order 0..6 with small rational coefficients
ragged_series = st.integers(0, 6).flatmap(
    lambda order: st.lists(rationals, min_size=order + 1, max_size=order + 1).map(
        TruncatedSeries
    )
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(ragged_series, min_size=1, max_size=7),
    st.lists(ragged_series, max_size=6),
    st.one_of(st.just(0), st.integers(0, 6).map(TruncatedSeries.zero)),
)
def test_graded_compose_matches_the_ungraded_loop(outer, inner, zero):
    # t-orders that rise and fall along w, so the suffix maximum differs from each order
    outer, inner = GenSeries(outer), GenSeries([zero] + inner)
    composed = outer.compose(inner).coeffs
    reference = _ungraded_compose(outer, inner).coeffs
    assert [c.order for c in composed] == [c.order for c in reference]
    assert [(c.nums, c.den) for c in composed] == [(c.nums, c.den) for c in reference]


def test_compose_refuses_an_inner_constant_term():
    with pytest.raises(InnerConstantTerm) as info:
        GenSeries([F(1), F(2)]).compose(GenSeries([F(1), F(1)]))
    assert isinstance(info.value, DomainError)


class _Counted:
    """A rational that counts the ring products made with it."""

    products = 0

    def __init__(self, value):
        self.value = Fraction(value)

    def __add__(self, other):
        return _Counted(self.value + other.value)

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value)

    def __bool__(self):
        return bool(self.value)


@pytest.mark.parametrize("order", range(9))
def test_compose_makes_one_product_per_nonzero_term(order, monkeypatch):
    monkeypatch.setattr(_Counted, "products", 0)
    outer = GenSeries([_Counted(k + 1) for k in range(order + 1)])
    inner = GenSeries([_Counted(0)] + [_Counted(m) for m in range(1, order + 1)])
    outer.compose(inner)
    assert _Counted.products == math.comb(order + 2, 3)
