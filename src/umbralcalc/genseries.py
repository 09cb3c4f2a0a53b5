"""Truncated expansions in the generating parameter ``w``.

A :class:`GenSeries` holds coefficients of ``w^0 .. w^N`` drawn from any
commutative coefficient ring (multivariate polynomials, univariate
polynomials, plain rationals, or even truncated series).  It is a light
container: coefficient-level truncation bookkeeping stays with the
coefficient type.  Coercion (a scalar is the constant expansion), ``-`` and
``**`` come from ``series._Ring``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable

from .errors import OrderTooSmall
from .series import _Ring


class GenSeries(_Ring):
    """``sum p_k w^k + O(w^(N+1))`` with ring-valued coefficients ``p_k``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a generating series needs at least its w^0 term")
        self.coeffs = cs

    @classmethod
    def constant(cls, value, order: int) -> "GenSeries":
        zero = value * 0
        return cls([value] + [zero] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        return self.coeffs[k]

    def egf(self, k: int):
        """The coefficient of ``w^k / k!``."""
        return self.coeffs[k] * Fraction(math.factorial(k))

    def _zero(self):
        return self.coeffs[0] * 0

    def truncate(self, order: int) -> "GenSeries":
        if order >= self.order:
            return self
        return GenSeries(self.coeffs[: order + 1])

    def map(self, fn: Callable) -> "GenSeries":
        return GenSeries([fn(c) for c in self.coeffs])

    def __eq__(self, other) -> bool:
        return isinstance(other, GenSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return any(bool(c) for c in self.coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.coeffs)
        return f"GenSeries([{inner}])"

    def _constant(self, value) -> "GenSeries":
        return GenSeries.constant(self.coeffs[0] ** 0 * value, self.order)

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # zip stops at the smaller order
        return GenSeries([a + b for a, b in zip(self.coeffs, rhs.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return GenSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, GenSeries):
            n = min(self.order, other.order)
            out = []
            for k in range(n + 1):
                terms = [
                    self.coeffs[i] * other.coeffs[k - i]
                    for i in range(k + 1)
                    if self.coeffs[i] and other.coeffs[k - i]
                ]
                acc = self._zero()
                for t in terms:
                    acc = acc + t
                out.append(acc)
            return GenSeries(out)
        # ring element or scalar: coefficientwise
        return GenSeries([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return self.__mul__(other)

    # bound by name in this class, where the benchmark tracer looks them up
    __sub__, __rsub__, __pow__ = _Ring._sub, _Ring._rsub, _Ring._pow

    def differentiate(self) -> "GenSeries":
        """Formal derivative with respect to ``w``; order drops by one."""
        if self.order < 1:
            raise OrderTooSmall("derivative of an order-0 expansion carries no data")
        return GenSeries(
            [self.coeffs[k] * Fraction(k) for k in range(1, self.order + 1)]
        )

    def times_w(self, k: int) -> "GenSeries":
        """Multiply by ``w^k`` (``k >= 0``); every known coefficient shifts up."""
        if k < 0:
            raise ValueError("times_w takes a nonnegative power")
        zero = self._zero()
        return GenSeries([zero] * k + list(self.coeffs))

    def to_truncated(self):
        """Reinterpret rational coefficients as a univariate truncated series."""
        from .series import TruncatedSeries

        return TruncatedSeries([Fraction(c) for c in self.coeffs])
