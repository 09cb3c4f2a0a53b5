"""Truncated expansions in the generating parameter ``w``.

A :class:`GenSeries` holds coefficients of ``w^0 .. w^N`` drawn from any
commutative coefficient ring (multivariate polynomials, univariate
polynomials, plain rationals, or even truncated series).  It is a light
container: coefficient-level truncation bookkeeping stays with the
coefficient type.  Coercion (a scalar is the constant expansion), ``-`` and
``**`` come from ``series._Ring``.  :meth:`GenSeries.compose` forms
``sum_n c_n u(w)^n``, the expansion of a composite in the paper's first
formula, over series coefficients (FAA) and over the generic symbols (FDBU).
Over series coefficients it is graded: the result's ``w^k`` term is known to
no higher t-order than ``c_k``, so each intermediate series at ``w^k`` is cut
to the suffix maximum ``max(order(c_j) for j >= k)``, which changes no output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Callable, Iterable

from .errors import InnerConstantTerm, OrderTooSmall
from .series import TruncatedSeries, _Ring


def _graded_cut(cs: tuple) -> Callable:
    """``cut(c, k)``: a series ``c`` at ``w^k`` truncated to the largest t-order
    of ``cs[k:]`` when every ``cs`` is a series; anything else is unchanged."""
    if not all(isinstance(c, TruncatedSeries) for c in cs):
        return lambda c, k: c
    need = list(accumulate([c.order for c in reversed(cs)], max))[::-1]

    def cut(c, k: int):
        return c.truncate(need[k]) if isinstance(c, TruncatedSeries) and c.order > need[k] else c

    return cut


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

    def compose(self, inner: "GenSeries") -> "GenSeries":
        """``sum_n self[n] * inner^n`` to the smaller order, over any coefficient
        ring; the ``w^0`` term of ``inner`` must vanish.

        ``inner^n`` is kept from ``w^n`` on, so no zero coefficient is formed
        or added (a zero series coefficient has a t-order of its own, which
        can cut the sum's): at order ``N`` this is ``C(N+2, 3)`` coefficient
        products.

        Over series coefficients the result's ``w^k`` term is known to no
        higher t-order than ``self[k]``, and a term at ``w^k`` feeds only the
        terms at ``w^k`` and up.  So every intermediate series at ``w^k`` is
        cut to ``need[k]``, the largest t-order of ``self[k:]`` (a suffix
        maximum), and each output keeps its value and its t-order.
        """
        if inner.coeffs[0]:
            raise InnerConstantTerm("inner expansion has nonzero w^0 term")
        n = min(self.order, inner.order)
        cs, u = self.coeffs, inner.coeffs
        cut = _graded_cut(cs[: n + 1])
        # row[j] is [w^(m + j)] inner^m; each power is summed into out as it is made
        row = [cut(c, k) for k, c in enumerate(u[1 : n + 1], 1)]
        out = [cs[0]] + [c * cs[1] for c in row]
        for m in range(2, n + 1):
            # in this power u[l] feeds only w^(m + l - 1) and up
            v = [cut(u[l], m + l - 1) for l in range(1, n - m + 2)]
            row = [
                cut(reduce(add, [row[i] * v[j - i] for i in range(j + 1)]), m + j)
                for j in range(n - m + 1)
            ]
            for j, c in enumerate(row):
                out[m + j] += c * cs[m]
        return GenSeries(out)

    def to_truncated(self):
        """Reinterpret rational coefficients as a univariate truncated series."""
        return TruncatedSeries([Fraction(c) for c in self.coeffs])
