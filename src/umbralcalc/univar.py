"""Dense univariate polynomials in ``x`` with exact rational coefficients."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .series import as_rational

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


class UnivarPoly:
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
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return _ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UnivarPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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
        n = max(len(self.coeffs), len(rhs.coeffs))
        return UnivarPoly([self.coeff(k) + rhs.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UnivarPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, UnivarPoly):
            if not self or not other:
                return UnivarPoly()
            out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
            return UnivarPoly(out)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return UnivarPoly([c * q for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return UnivarPoly([c / q for c in self.coeffs])
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        out = UnivarPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"UnivarPoly({list(self.coeffs)!r})"

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

    def derivative(self) -> "UnivarPoly":
        return UnivarPoly([n * c for n, c in enumerate(self.coeffs)][1:])

    def shift_argument(self, offset: Scalar) -> "UnivarPoly":
        """The polynomial ``p(x + offset)`` expanded binomially."""
        h = as_rational(offset)
        out = [_ZERO] * len(self.coeffs)
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            for k in range(n + 1):
                out[k] += c * math.comb(n, k) * h ** (n - k)
        return UnivarPoly(out)


def exp_w_ddx(p: UnivarPoly, order: int):
    """Expansion of ``e^(w d/dx) p``: coefficient of ``w^k`` is ``p^(k)/k!``."""
    from .genseries import GenSeries

    coeffs = []
    q = p
    for k in range(order + 1):
        coeffs.append(q * Fraction(1, math.factorial(k)))
        q = q.derivative()
    return GenSeries(coeffs)
