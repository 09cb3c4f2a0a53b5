"""Univariate polynomial helpers.

``FractionPoly`` below is the earlier ``Fraction``-coefficient ``UnivarPoly``,
copied verbatim except for its name.  The stored integer pair must agree with
it exactly, ``Fraction`` for ``Fraction``, and must stay canonical: ``den > 0``,
``gcd(den, *nums) = 1``, no trailing zero numerator, and zero is ``((), 1)``.
"""

import math
from fractions import Fraction
from typing import Iterable, Union

import pytest
from hypothesis import example, given, settings, strategies as st

from umbralcalc.errors import OrderTooSmall
from umbralcalc.series import TruncatedSeries, as_rational, exp_t
from umbralcalc.umbral import egf_multiplier
from umbralcalc.univar import UnivarPoly, exp_w_ddx

F = Fraction
Scalar = Union[int, Fraction]
_ZERO = Fraction(0)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(rationals, min_size=0, max_size=7).map(UnivarPoly)


# -- oracle: the Fraction-coefficient polynomial ----------------------------------


class FractionPoly:
    """Polynomial ``sum p_n x^n`` stored densely with no trailing zeros.

    The zero polynomial stores no coefficients and reports degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else as_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "FractionPoly":
        return cls()

    @classmethod
    def one(cls) -> "FractionPoly":
        return cls([1])

    @classmethod
    def x(cls) -> "FractionPoly":
        return cls([0, 1])

    @classmethod
    def monomial(cls, n: int, coeff: Scalar = 1) -> "FractionPoly":
        return cls([0] * n + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return _ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, FractionPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPoly([other])
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = max(len(self.coeffs), len(rhs.coeffs))
        return FractionPoly([self.coeff(k) + rhs.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FractionPoly):
            if not self or not other:
                return FractionPoly()
            out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
            return FractionPoly(out)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FractionPoly([c * q for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FractionPoly([c / q for c in self.coeffs])
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        out = FractionPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"FractionPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            if n == 0:
                parts.append(str(c))
            elif n == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{n}" if c == 1 else f"{c}*x^{n}")
        return " + ".join(parts)

    def evaluate(self, value: Scalar) -> Fraction:
        acc = _ZERO
        v = as_rational(value)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def derivative(self) -> "FractionPoly":
        return FractionPoly([n * c for n, c in enumerate(self.coeffs)][1:])

    def shift_argument(self, offset: Scalar) -> "FractionPoly":
        """The polynomial ``p(x + offset)`` expanded binomially."""
        h = as_rational(offset)
        out = [_ZERO] * len(self.coeffs)
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            for k in range(n + 1):
                out[k] += c * math.comb(n, k) * h ** (n - k)
        return FractionPoly(out)


# small values, zeros, and numerators near 10^40 over varied denominators
coefficients = st.one_of(
    rationals,
    st.just(_ZERO),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**6)),
)
# trailing zeros on purpose: the pair drops them, the oracle strips them
coeff_lists = st.builds(
    lambda cs, zeros: cs + [_ZERO] * zeros,
    st.lists(coefficients, max_size=7),
    st.integers(0, 2),
)
scalars = st.one_of(coefficients, st.integers(-(10**30), 10**30))


def canonical(p: UnivarPoly) -> None:
    assert type(p.den) is int and p.den > 0
    assert all(type(x) is int for x in p.nums)
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1]
    if not p:
        assert (p.nums, p.den) == ((), 1)


def exact(p: UnivarPoly, want: FractionPoly) -> None:
    """``p`` is canonical and equals the oracle ``Fraction`` for ``Fraction``."""
    canonical(p)
    assert p.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.degree == want.degree
    assert str(p) == str(want)
    assert repr(p) == repr(want).replace("FractionPoly", "UnivarPoly", 1)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists)
def test_ring_operations_match_fraction_oracle(xs, ys):
    p, q, op, oq = UnivarPoly(xs), UnivarPoly(ys), FractionPoly(xs), FractionPoly(ys)
    exact(p, op)
    exact(p + q, op + oq)
    exact(p - q, op - oq)
    exact(-p, -op)
    exact(p * q, op * oq)
    exact(p - p, op - op)
    assert p == q if op == oq else p != q
    assert bool(p) == bool(op)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, scalars)
def test_scalar_operations_match_fraction_oracle(xs, c):
    p, op = UnivarPoly(xs), FractionPoly(xs)
    exact(p * c, op * c)
    exact(c * p, c * op)
    exact(p + c, op + c)
    exact(c - p, c - op)
    if c:
        exact(p / c, op / c)
    else:
        with pytest.raises(ZeroDivisionError):
            p / c


@settings(max_examples=80, deadline=None)
@given(st.lists(coefficients, max_size=4), st.integers(0, 4), rationals, coefficients)
def test_calculus_matches_fraction_oracle(xs, n, h, v):
    p, op = UnivarPoly(xs), FractionPoly(xs)
    exact(p**n, op**n)
    exact(p.derivative(), op.derivative())
    exact(p.shift_argument(h), op.shift_argument(h))
    assert p.evaluate(v) == op.evaluate(v)
    assert type(p.evaluate(v)) is Fraction


@settings(max_examples=200, deadline=None)
@given(coeff_lists, scalars)
@example([], 0)
@example([], F(-5, 7))
@example([_ZERO, _ZERO], 3)
@example([F(1, 2), -3, F(2, 9)], 0)
@example([F(1, 2), -3, F(2, 9)], F(-4, 15))
def test_evaluate_matches_the_fraction_horner(xs, v):
    value = UnivarPoly(xs).evaluate(v)
    assert type(value) is Fraction
    assert value == FractionPoly(xs).evaluate(v)


def test_equal_values_have_equal_pairs_and_hashes():
    half = UnivarPoly([F(1, 2), F(1, 4)])
    others = (
        UnivarPoly([1, F(1, 2), 0]) * F(1, 2),
        UnivarPoly([F(1, 6), F(1, 12)]) * 3,
        UnivarPoly([F(1, 2), F(1, 4), 5]) - UnivarPoly.monomial(2, 5),
        UnivarPoly.from_pair([-6, -3, 0, 0], -12),
    )
    assert (half.nums, half.den) == ((2, 1), 4)
    for other in others:
        assert (other.nums, other.den) == (half.nums, half.den)
        assert other == half and hash(other) == hash(half)
    zero = UnivarPoly([F(1, 3)]) - F(1, 3)
    assert (zero.nums, zero.den) == ((), 1) and zero == UnivarPoly.zero() and zero.degree == -1
    assert (UnivarPoly.from_pair([0, 0], -7).nums, UnivarPoly.from_pair([0, 0], -7).den) == ((), 1)


def test_a_series_never_equals_a_polynomial_with_the_same_pair():
    s, p = TruncatedSeries([1, 2]), UnivarPoly([1, 2])
    assert (s.nums, s.den) == (p.nums, p.den)
    assert s != p and p != s
    assert len({s, p}) == 2


def test_division_by_zero_raises():
    for p in (UnivarPoly([1, F(1, 3)]), UnivarPoly.zero()):
        for zero in (0, F(0), False):
            with pytest.raises(ZeroDivisionError):
                p / zero


@settings(max_examples=100, deadline=None)
@given(coeff_lists, st.lists(coefficients, min_size=1, max_size=10))
def test_egf_multiplier_scales_each_power_by_its_egf_coefficient(xs, cs):
    """``M_A(x^k) = A_k x^k``, term by term."""
    p, a = UnivarPoly(xs), TruncatedSeries(cs)
    if p.degree > a.order:
        with pytest.raises(OrderTooSmall):
            egf_multiplier(a, p)
        return
    image = egf_multiplier(a, p)
    canonical(image)
    assert image == UnivarPoly([a.egf(k) * p.coeff(k) for k in range(p.degree + 1)])
    assert egf_multiplier(exp_t(a.order), p) == p
    for k in range(p.degree + 1):
        assert egf_multiplier(a, UnivarPoly.monomial(k)) == UnivarPoly.monomial(k, a.egf(k))


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
