"""Truncated univariate formal power series over the exact rationals.

A :class:`TruncatedSeries` represents ``sum c_n t^n + O(t^(N+1))`` for a
fixed truncation order ``N``.  It stores one canonical pair, as FLINT's
``fmpq_poly`` does: integer numerators ``nums = (x_0, ..., x_N)`` over one
denominator ``den``, so ``c_n = x_n / den``, with ``den > 0`` and
``gcd(den, *nums) = 1``.  Equal values have equal pairs, so ``==`` and
``hash`` compare the pair.  ``coeffs`` (the :class:`fractions.Fraction`
values ``c_n``) and the EGF coefficients ``A_n = n! * c_n`` are computed
views, never stored; ``coeff(n)`` reads one numerator.  Every operation is
exact: only ``int`` and ``Fraction`` are accepted as input, and binary
operations truncate to the smaller of the two operand orders, so no claimed
coefficient is ever a guess.

Only the constructor from ``int``/``Fraction`` values clears denominators
(``_scaled``, one lcm).  Every operation runs on the stored ints and ends in
one gcd pass (:meth:`TruncatedSeries.from_pair`).  Counted in big-integer
multiply-adds at order ``N`` (whose integers grow linearly in bits with
``N``): ``+``, ``-``, scalar ``*`` and ``/``, ``derivative``, ``egf_shift``
and ``truncate`` take ``N``; ``*``, ``reciprocal``, ``exp_series`` and
``log_series`` (recurrences) ``N^2/2``; ``compose`` (Horner) ``N^3/6``; and
``reversion`` (Lagrange inversion, baby-step giant-step powers) ``N^2.5``.
All four exact types (the series, :class:`~umbralcalc.univar.UnivarPoly`,
:class:`~umbralcalc.polyring.MultiPoly` and
:class:`~umbralcalc.genseries.GenSeries`) share coercion, ``-`` and ``**``
(``_Ring``); the two dense types also share every other ring operation but the
product (``_Pair``).  Each binds them by name in its own class namespace, which
is where the benchmark's tracer looks a method up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    ConstantTermNotOne,
    InnerConstantTerm,
    NonzeroConstantTerm,
    NotDeltaSeries,
    OrderTooSmall,
    ZeroConstantTerm,
)

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_rational(value) -> Fraction:
    """``value`` as a ``Fraction``; ``int`` and ``Fraction`` are the only exact scalars."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected an int or a Fraction, got {type(value).__name__}")


# -- integer core --------------------------------------------------------------


def _scaled(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(xs, d)`` with ``cs[n] == xs[n] / d``; ``d`` is the lcm of the denominators."""
    d = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _iconv(xs: Sequence[int], ys: Sequence[int], order: int) -> list[int]:
    """Cauchy product of two integer vectors truncated to ``order``; ``ys``
    needs ``order + 1`` entries, ``xs`` may be shorter (missing ones are 0)."""
    # slice lists, not stored tuples: CPython 3.11 keeps every freed 20-tuple
    # on a free list it never pops, which grows with each product past t^19
    rev = list(reversed(ys))  # rev[top - m:] is ys[m], ..., ys[0]; map stops at its end
    top = len(rev) - 1
    return [sum(map(mul, xs, rev[top - m :])) for m in range(order + 1)]


def _iinverse(cs: Sequence[int], order: int) -> list[int]:
    """``R_k = c_0^(k+1) [t^k] (1/c)`` for ``k <= order``, all integers."""
    c0 = cs[0]
    ws = [cs[j] * c0 ** (j - 1) for j in range(1, order + 1)]
    rs = [1]
    for _ in range(order):
        rs.append(-sum(map(mul, ws, rs[::-1])))
    return rs


class _Ring:
    """The ring operations that read no coefficient layout: coercion, ``-``,
    reverse ``-`` and ``**``.  A subclass supplies ``_constant`` (what a scalar
    becomes), ``+``, unary ``-`` and ``*``, and binds each operation by name,
    so its own ``vars()`` holds it for the benchmark's tracer."""

    __slots__ = ()

    def _coerce(self, other):
        """``other`` as this type (a scalar becomes a constant), or None."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self._constant(other)
        return None

    def _sub(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def _rsub(self, other):
        return (-self) + other

    def _pow(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers take nonnegative integer exponents")
        if n == 0:
            return self._constant(1)
        # binary powering from the base, never from one: square once per bit of n
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base


class _Pair(_Ring):
    """The canonical pair of a series and a ``UnivarPoly`` and their dense ring
    operations: ``+``, unary ``-``, scalar ``*`` and ``/`` and ``d/dx``.  A
    subclass also supplies ``_pairs`` (how ``+`` lines up coefficients) and
    ``_product``.  ``==`` compares exact types: a series never equals a
    polynomial with the same pair."""

    __slots__ = ("nums", "den")

    @classmethod
    def from_pair(cls, nums: Sequence[int], den: int):
        """Values ``nums[n] / den``, ``den != 0``; one gcd pass makes the pair canonical."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        out = object.__new__(cls)
        out.nums = tuple(nums)
        out.den = den
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as a fresh tuple of ``Fraction`` values."""
        den = self.den
        # from a list, not a generator: a tuple() of unknown length is allocated
        # at one size and freed at another, which grows CPython's tuple free lists
        return tuple([Fraction(x, den) for x in self.nums])

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)!r})"

    def _terms(self, var: str) -> str:
        """The nonzero terms ``c*var^n`` joined by `` + ``, or ``0``."""
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            if n == 0:
                parts.append(str(c))
            elif n == 1:
                parts.append(var if c == 1 else f"{c}*{var}")
            else:
                parts.append(f"{var}^{n}" if c == 1 else f"{c}*{var}^{n}")
        return " + ".join(parts) if parts else "0"

    # -- dense ring operations -----------------------------------------------

    def _add(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # over lcm(dx, dy)
        dx, dy = self.den, rhs.den
        g = math.gcd(dx, dy)
        fx, fy = dy // g, dx // g
        pairs = self._pairs(self.nums, rhs.nums)
        return self.from_pair([x * fx + y * fy for x, y in pairs], dx * fx)

    def _neg(self):
        return self.from_pair([-x for x in self.nums], self.den)

    def _mul(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return self.from_pair([x * q.numerator for x in self.nums], self.den * q.denominator)
        return NotImplemented

    def _div(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        q = Fraction(other)
        if not q:
            raise ZeroDivisionError("division by zero")
        return self.from_pair([x * q.denominator for x in self.nums], self.den * q.numerator)

    def _derivative(self):
        return self.from_pair([n * x for n, x in enumerate(self.nums)][1:], self.den)


class TruncatedSeries(_Pair):
    """Formal power series known exactly up to a stated order, stored as
    integer numerators ``nums`` over one denominator ``den``."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar], order: Optional[int] = None):
        cs = [c if type(c) is Fraction else as_rational(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            cs = cs[: order + 1]
            cs += [_ZERO] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("a series needs at least its constant term")
        # lowest-terms values over the lcm of their denominators are coprime to it
        nums, self.den = _scaled(cs)
        self.nums: tuple[int, ...] = tuple(nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([_ONE], order=order)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedSeries":
        return cls([value], order=order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series ``t`` itself."""
        return cls([_ZERO, _ONE], order=order)

    @classmethod
    def from_egf(cls, values: Iterable[Scalar], order: Optional[int] = None) -> "TruncatedSeries":
        """Build a series from EGF coefficients ``A_n`` (so ``c_n = A_n / n!``)."""
        cs = [as_rational(v) / math.factorial(n) for n, v in enumerate(values)]
        return cls(cs, order=order)

    # -- basic views -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def _num(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise OrderTooSmall(f"coefficient {n} of a series of order {self.order}")
        return self.nums[n]

    def coeff(self, n: int) -> Fraction:
        return Fraction(self._num(n), self.den)

    def egf(self, n: int) -> Fraction:
        """EGF coefficient ``A_n = n! * c_n``."""
        return Fraction(math.factorial(n) * self._num(n), self.den)

    def egf_coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple([Fraction(math.factorial(n) * x, den) for n, x in enumerate(self.nums)])

    @property
    def is_delta(self) -> bool:
        """Zero constant term and nonzero linear term (compositionally invertible)."""
        return self.order >= 1 and not self.nums[0] and bool(self.nums[1])

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order > self.order:
            raise OrderTooSmall(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedSeries.from_pair(self.nums[: order + 1], self.den)

    # -- ring operations ---------------------------------------------------

    # bound by name in this class, where the benchmark tracer looks them up
    __add__ = __radd__ = _Pair._add
    __neg__, __sub__, __rsub__ = _Pair._neg, _Pair._sub, _Pair._rsub
    __mul__ = __rmul__ = _Pair._mul
    _pairs = zip  # + stops at the smaller order

    def _constant(self, value: Scalar) -> "TruncatedSeries":
        return TruncatedSeries.constant(value, self.order)

    def _product(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries.from_pair(_iconv(self.nums, other.nums, n), self.den * other.den)

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.reciprocal()
        return self._div(other)

    def __pow__(self, n: int):
        low = next((k for k, x in enumerate(self.nums) if x), self.order + 1)
        if isinstance(n, int) and low * n > self.order:  # t^low to the n-th is past the order
            return TruncatedSeries.zero(self.order)
        return self._pow(n)

    def __str__(self) -> str:
        return f"{self._terms('t')} + O(t^{self.order + 1})"

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        if self.order < 1:
            raise OrderTooSmall("derivative of an order-0 series carries no data")
        return self._derivative()

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
            # c'_k = c_(k+n) (k+n)! / k!
            return TruncatedSeries.from_pair(
                [math.perm(k + n, n) * x for k, x in enumerate(self.nums[n:])], self.den
            )
        ext = extension or {}
        values = [as_rational(ext.get(m, 0)) for m in range(n, 0)]
        values.extend(self.egf_coeffs())
        return TruncatedSeries.from_egf(values)

    # -- composition -------------------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """The series ``self(inner(t))``; the inner constant term must vanish."""
        if inner.nums[0]:
            raise InnerConstantTerm("inner series has nonzero constant term")
        n = min(self.order, inner.order)
        a, da = self.nums, self.den
        low = inner.truncate(n)  # its den is the lcm of the used denominators
        b, db = low.nums, low.den
        # Horner: acc_k = acc_(k+1) * b + a_k * db^(n-k), to degree n - k
        # (b^k starts at t^k), ends at acc_0 = da * db^n * self(inner)
        acc, scale = [a[n]], 1
        for k in range(n - 1, -1, -1):
            scale *= db
            acc = _iconv(acc, b, n - k)
            acc[0] += a[k] * scale
        return TruncatedSeries.from_pair(acc, da * scale)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse: ``1/c = d / x``, so ``[t^k] 1/c = d R_k / x_0^(k+1)``
        with ``R = _iinverse(x)``, all over ``x_0^(N+1)``."""
        x, d = self.nums, self.den
        if not x[0]:
            raise ZeroConstantTerm("no multiplicative inverse: constant term is 0")
        n = self.order
        rs = _iinverse(x, n)
        return TruncatedSeries.from_pair(
            [d * r * x[0] ** (n - k) for k, r in enumerate(rs)], x[0] ** (n + 1)
        )

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse of a delta series, by Lagrange inversion.

        ``[t^k] rev(b) = (1/k) [t^(k-1)] h^k`` with ``h = t/b``; for
        ``b = t q / dq``, ``h_j = dq R_j / q_0^(j+1)`` with ``R = _iinverse(q)``.
        The results are put over ``lcm(1..N) q_0^(2N-1)``.
        """
        if not self.is_delta:
            raise NotDeltaSeries("reversion requires a delta series")
        n = self.order
        q, dq = self.nums[1:], self.den
        rs = _iinverse(q, n - 1)
        # baby steps R^0..R^s, giant steps R^(js): [t^(k-1)] R^k is one dot product
        s = math.isqrt(n) + 1
        baby = [[1] + [0] * (n - 1)]
        for _ in range(s):
            baby.append(_iconv(baby[-1], rs, n - 1))
        lcm, q0sq = math.lcm(*range(1, n + 1)), q[0] ** 2
        giant, out = baby[0], [0]
        for k in range(1, n + 1):
            if not k % s:
                giant = _iconv(giant, baby[s], n - 1)
            c = sum(map(mul, baby[k % s][:k], giant[k - 1 :: -1]))
            # dq^k c / (k q_0^(2k-1)) over lcm q_0^(2n-1)
            out.append(dq**k * c * (lcm // k) * q0sq ** (n - k))
        return TruncatedSeries.from_pair(out, lcm * q[0] ** (2 * n - 1))


def _require_delta(b: TruncatedSeries) -> None:
    """Refuse a substitution series that is not :attr:`~TruncatedSeries.is_delta`."""
    if not b.is_delta:
        raise NotDeltaSeries("substitution series must be delta")


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """Formal exponential ``sum a^n / n!`` of a series with zero constant term.

    ``n f_n = sum_k k a_k f_(n-k)`` keeps ``F_n = n! d^n f_n`` integral:
    ``F_n = sum_k C(n-1, k-1) k! x_k d^(k-1) F_(n-k)``.
    """
    if a.nums[0]:
        raise NonzeroConstantTerm("exp needs a zero constant term")
    n = a.order
    x, d = a.nums, a.den
    vs = [math.factorial(k) * x[k] * d ** (k - 1) for k in range(1, n + 1)]
    fs = [1]
    for m in range(1, n + 1):
        fs.append(sum(math.comb(m - 1, k) * vs[k] * fs[m - 1 - k] for k in range(m)))
    # f_m = F_m / (m! d^m) over n! d^n
    nums = [f * math.perm(n, n - m) * d ** (n - m) for m, f in enumerate(fs)]
    return TruncatedSeries.from_pair(nums, math.factorial(n) * d**n)


def log_series(c: TruncatedSeries) -> TruncatedSeries:
    """Formal logarithm of a series with constant term 1; inverse of exp_series.

    ``c L' = c'`` keeps ``G_n = n d^n L_n`` integral (``x_0 = d``):
    ``G_n = n w_n - sum_(0<j<n) w_j G_(n-j)`` with ``w_j = x_j d^(j-1)``.
    """
    if c.nums[0] != c.den:
        raise ConstantTermNotOne("log needs constant term 1")
    n = c.order
    x, d = c.nums, c.den
    ws = [x[j] * d ** (j - 1) for j in range(1, n + 1)]
    gs = [0]
    for m in range(1, n + 1):
        gs.append(m * ws[m - 1] - sum(map(mul, ws[: m - 1], gs[:0:-1])))
    # L_m = G_m / (m d^m) over lcm(1..n) d^n
    lcm = math.lcm(*range(1, n + 1))
    nums = [g * (lcm // m) * d ** (n - m) for m, g in enumerate(gs[1:], 1)]
    return TruncatedSeries.from_pair([0] + nums, lcm * d**n)


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
    top = math.factorial(order)
    return TruncatedSeries.from_pair([top // math.factorial(n) for n in range(order + 1)], top)
