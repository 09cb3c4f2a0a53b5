"""Truncated univariate formal power series over the exact rationals.

A :class:`TruncatedSeries` stores ordinary coefficients ``c_0 .. c_N`` for a
fixed truncation order ``N`` and represents ``sum c_n t^n + O(t^(N+1))``.
Exponential-generating-function (EGF) coefficients ``A_n = n! * c_n`` are a
computed view, never stored.  Every operation is exact: coefficients are
:class:`fractions.Fraction` values and binary operations truncate to the
smaller of the two operand orders, so no claimed coefficient is ever a guess.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    ConstantTermNotOne,
    InnerConstantTerm,
    NonzeroConstantTerm,
    NotDeltaSeries,
    OrderTooSmall,
    ZeroConstantTerm,
)

Rational = Fraction

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _conv(xs: Sequence[Fraction], ys: Sequence[Fraction], order: int) -> list[Fraction]:
    """Cauchy product of two coefficient lists, truncated to ``order``."""
    out = [_ZERO] * (order + 1)
    for i, xi in enumerate(xs):
        if i > order or not xi:
            continue
        top = min(len(ys) - 1, order - i)
        for j in range(top + 1):
            yj = ys[j]
            if yj:
                out[i + j] += xi * yj
    return out


class TruncatedSeries:
    """Formal power series known exactly up to a stated order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar], order: Optional[int] = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            cs = cs[: order + 1]
            cs += [_ZERO] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("a series needs at least its constant term")
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([_ONE], order=order)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedSeries":
        return cls([Fraction(value)], order=order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series ``t`` itself."""
        return cls([_ZERO, _ONE], order=order)

    @classmethod
    def from_egf(cls, values: Iterable[Scalar], order: Optional[int] = None) -> "TruncatedSeries":
        """Build a series from EGF coefficients ``A_n`` (so ``c_n = A_n / n!``)."""
        cs = [Fraction(v) / math.factorial(n) for n, v in enumerate(values)]
        return cls(cs, order=order)

    # -- basic views -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise OrderTooSmall(f"coefficient {n} of a series of order {self.order}")
        return self.coeffs[n]

    def egf(self, n: int) -> Fraction:
        """EGF coefficient ``A_n = n! * c_n``."""
        return math.factorial(n) * self.coeff(n)

    def egf_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(math.factorial(n) * c for n, c in enumerate(self.coeffs))

    @property
    def is_delta(self) -> bool:
        """Zero constant term and nonzero linear term (compositionally invertible)."""
        return self.order >= 1 and not self.coeffs[0] and bool(self.coeffs[1])

    @property
    def is_unit(self) -> bool:
        """Nonzero constant term (multiplicatively invertible)."""
        return bool(self.coeffs[0])

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderTooSmall(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> Optional["TruncatedSeries"]:
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries.constant(other, self.order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, rhs.coeffs)], order=n
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries(_conv(self.coeffs, other.coeffs, n))
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return TruncatedSeries([c * q for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.reciprocal()
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return TruncatedSeries([c / q for c in self.coeffs])
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers take nonnegative integer exponents")
        if n == 0:
            return TruncatedSeries.one(self.order)
        low = next((k for k, c in enumerate(self.coeffs) if c), self.order + 1)
        if low * n > self.order:  # t^low to the n-th is past the order
            return TruncatedSeries.zero(self.order)
        # binary powering: square the base once per bit of n
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def agrees(self, other: "TruncatedSeries") -> bool:
        """Coefficientwise equality up to the shared truncation order."""
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            if n == 0:
                parts.append(str(c))
            elif n == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{n}" if c == 1 else f"{c}*t^{n}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.order + 1})"

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        if self.order < 1:
            raise OrderTooSmall("derivative of an order-0 series carries no data")
        return TruncatedSeries(
            [n * c for n, c in enumerate(self.coeffs)][1:]
        )

    def egf_shift(
        self, n: int, extension: Optional[Mapping[int, Scalar]] = None
    ) -> "TruncatedSeries":
        """Shift the EGF coefficient sequence by ``n`` places.

        The result has EGF coefficients ``A'_k = A_(k+n)``; for ``n >= 1``
        this is the ``n``-th derivative, and for ``n < 0`` it is the
        anti-derivative whose integration constants come from the extended
        sequence ``A_m`` for ``m < 0`` (``extension``, default all zero).
        The order drops to ``N - n`` for ``n >= 0`` and grows to ``N + |n|``
        for ``n < 0``.
        """
        if n >= 0:
            if n > self.order:
                raise OrderTooSmall(
                    f"EGF shift by {n} exceeds stored order {self.order}"
                )
            egf = self.egf_coeffs()
            return TruncatedSeries.from_egf(egf[n:])
        ext = extension or {}
        values = [Fraction(ext.get(m, 0)) for m in range(n, 0)]
        values.extend(self.egf_coeffs())
        return TruncatedSeries.from_egf(values)

    # -- composition -------------------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """The series ``self(inner(t))``; the inner constant term must vanish."""
        if inner.coeffs[0]:
            raise InnerConstantTerm("inner series has nonzero constant term")
        n = min(self.order, inner.order)
        b = inner.coeffs[: n + 1]
        out = [self.coeffs[0]] + [_ZERO] * n
        power = [_ONE] + [_ZERO] * n
        for k in range(1, n + 1):
            power = _conv(power, b, n)
            ak = self.coeffs[k]
            if not ak:
                continue
            for m in range(k, n + 1):
                if power[m]:
                    out[m] += ak * power[m]
        return TruncatedSeries(out)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse, solved order by order."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroConstantTerm("no multiplicative inverse: constant term is 0")
        n = self.order
        out = [_ONE / c0] + [_ZERO] * n
        for k in range(1, n + 1):
            acc = _ZERO
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    acc += self.coeffs[j] * out[k - j]
            out[k] = -acc / c0
        return TruncatedSeries(out)

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse of a delta series, solved order by order.

        The coefficient of ``t^n`` in ``self(result)`` is linear in the
        ``n``-th unknown with slope ``c_1``, so each coefficient is pinned by
        requiring the composite to match ``t``.
        """
        if not self.is_delta:
            raise NotDeltaSeries("reversion requires a delta series")
        n = self.order
        c1 = self.coeffs[1]
        out = [_ZERO, _ONE / c1] + [_ZERO] * (n - 1)
        for k in range(2, n + 1):
            partial = TruncatedSeries(out[: k + 1])
            residue = self.truncate(k).compose(partial).coeffs[k]
            out[k] = -residue / c1
        return TruncatedSeries(out)


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """Formal exponential ``sum a^n / n!`` of a series with zero constant term."""
    if a.coeffs[0]:
        raise NonzeroConstantTerm("exp needs a zero constant term")
    n = a.order
    out = [_ONE] + [_ZERO] * n
    power = [_ONE] + [_ZERO] * n
    for k in range(1, n + 1):
        power = _conv(power, a.coeffs, n)
        inv = _ONE / math.factorial(k)
        for m in range(k, n + 1):
            if power[m]:
                out[m] += inv * power[m]
    return TruncatedSeries(out)


def log_series(c: TruncatedSeries) -> TruncatedSeries:
    """Formal logarithm of a series with constant term 1; inverse of exp_series."""
    if c.coeffs[0] != 1:
        raise ConstantTermNotOne("log needs constant term 1")
    n = c.order
    u = [_ZERO] + list(c.coeffs[1:])
    out = [_ZERO] * (n + 1)
    power = [_ONE] + [_ZERO] * n
    for k in range(1, n + 1):
        power = _conv(power, u, n)
        sign = _ONE / k if k % 2 else -_ONE / k
        for m in range(k, n + 1):
            if power[m]:
                out[m] += sign * power[m]
    return TruncatedSeries(out)


def shift_multiplier(b: TruncatedSeries) -> TruncatedSeries:
    """Derivative of ``b`` composed with its reversion.

    This is the multiplier series of the multiply-after-differentiate
    operator adjoint to the umbral shift attached to ``b``; it equals the
    reciprocal of the derivative of the reversion.
    """
    if not b.is_delta:
        raise NotDeltaSeries("shift multiplier requires a delta series")
    return b.derivative().compose(b.reversion())


def exp_t(order: int) -> TruncatedSeries:
    """The exponential series ``e^t`` (all EGF coefficients 1)."""
    return TruncatedSeries([_ONE / math.factorial(n) for n in range(order + 1)])
