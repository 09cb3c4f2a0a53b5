"""Dense univariate polynomials in ``x`` with exact rational coefficients, stored
as the integer pair of a series (numerators over one denominator) with no trailing
zero numerator; arithmetic runs on the ints and ends in one gcd pass."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from typing import Iterable, Sequence

from .series import _ZERO, Scalar, _iconv, _Pair, _scaled, as_rational


class UnivarPoly(_Pair):
    """Polynomial ``sum p_n x^n`` stored densely with no trailing zeros.

    The zero polynomial stores no coefficients and reports degree -1.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else as_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        nums, self.den = _scaled(cs)
        self.nums: tuple[int, ...] = tuple(nums)

    @classmethod
    def from_pair(cls, nums: Sequence[int], den: int) -> "UnivarPoly":
        """``sum nums[n] x^n / den`` for ``den != 0``, trailing zeros dropped."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        return super().from_pair(nums, den)

    @classmethod
    def zero(cls) -> "UnivarPoly":
        return cls()

    @classmethod
    def one(cls) -> "UnivarPoly":
        return cls([1])

    @classmethod
    def x(cls) -> "UnivarPoly":
        return cls([0, 1])

    @classmethod
    def monomial(cls, n: int, coeff: Scalar = 1) -> "UnivarPoly":
        return cls([0] * n + [coeff])

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coeff(self, n: int) -> Fraction:
        if 0 <= n < len(self.nums):
            return Fraction(self.nums[n], self.den)
        return _ZERO

    # bound by name in this class, where the benchmark tracer looks them up
    __add__ = __radd__ = _Pair._add
    __neg__, __sub__, __rsub__ = _Pair._neg, _Pair._sub, _Pair._rsub
    __mul__ = __rmul__ = _Pair._mul
    __truediv__, __pow__, derivative = _Pair._div, _Pair._pow, _Pair._derivative
    _pairs = partial(zip_longest, fillvalue=0)

    def _constant(self, value: Scalar) -> "UnivarPoly":
        return UnivarPoly([value])

    def _product(self, other: "UnivarPoly") -> "UnivarPoly":
        ys = list(other.nums) + [0] * (len(self.nums) - 1)  # _iconv reads ys to the top
        return UnivarPoly.from_pair(_iconv(self.nums, ys, len(ys) - 1), self.den * other.den)

    def __str__(self) -> str:
        return self._terms("x")

    def evaluate(self, value: Scalar) -> Fraction:
        acc = _ZERO
        v = as_rational(value)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def shift_argument(self, offset: Scalar) -> "UnivarPoly":
        """The polynomial ``p(x + offset)`` expanded binomially."""
        h = as_rational(offset)
        r, s, top = h.numerator, h.denominator, max(self.degree, 0)
        out = [0] * len(self.nums)
        for n, x in enumerate(self.nums):
            for k in range(n + 1):  # h^(n-k) = r^(n-k) s^(top-n+k) / s^top
                out[k] += x * math.comb(n, k) * r ** (n - k) * s ** (top - n + k)
        return UnivarPoly.from_pair(out, self.den * s**top)


def exp_w_ddx(p: UnivarPoly, order: int):
    """Expansion of ``e^(w d/dx) p``: coefficient of ``w^k`` is ``p^(k)/k!``."""
    from .genseries import GenSeries

    coeffs = []
    q = p
    for k in range(order + 1):
        coeffs.append(q * Fraction(1, math.factorial(k)))
        q = q.derivative()
    return GenSeries(coeffs)
