"""Dense univariate polynomials in ``x`` with exact rational coefficients, stored
as the integer pair of a series (numerators over one denominator) with no trailing
zero numerator; arithmetic runs on the ints and ends in one gcd pass."""

from __future__ import annotations

import math
from fractions import Fraction
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

    def _coerce(self, other):
        if isinstance(other, UnivarPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UnivarPoly([other])
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        g = math.gcd(self.den, rhs.den)
        fx, fy = rhs.den // g, self.den // g
        pairs = zip_longest(self.nums, rhs.nums, fillvalue=0)
        return UnivarPoly.from_pair([x * fx + y * fy for x, y in pairs], self.den * fx)

    __radd__ = __add__

    def __neg__(self):
        return UnivarPoly.from_pair([-x for x in self.nums], self.den)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, UnivarPoly):
            ys = list(other.nums) + [0] * (len(self.nums) - 1)  # _iconv reads ys to the top
            return UnivarPoly.from_pair(_iconv(self.nums, ys, len(ys) - 1), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return UnivarPoly.from_pair(
                [x * q.numerator for x in self.nums], self.den * q.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        out = UnivarPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __str__(self) -> str:
        return self._terms("x")

    def evaluate(self, value: Scalar) -> Fraction:
        acc = _ZERO
        v = as_rational(value)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def derivative(self) -> "UnivarPoly":
        return UnivarPoly.from_pair([n * x for n, x in enumerate(self.nums)][1:], self.den)

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
