"""The sparse ring ``C[..., y_-1, y_0, y_1, ..., x_1, x_2, ...]``.

Monomials may additionally carry the plain variable ``x``, which only
appears as the image of the substitution maps; ``w`` lives in
:class:`GenSeries`, never in a monomial.  The ring exists to host the
derivation ``D`` with

    D y_i = y_(i+1) x_1        (i in Z)
    D x_j = x_(j+1)            (j >= 1)

whose exponential ``e^(wD)`` produces the higher-derivative expansion of a
generic composite, together with the substitution homomorphisms that
specialize the generic symbols to the coefficients of concrete series.
It also hosts the Fock space ``y*C[x_1, x_2, ...]`` of :mod:`virasoro`.

A monomial key is ``(ys, xs, px)``: the sorted tuples of the ``y``- and
``x_j``-indices, one entry per unit, and the exponent of the plain ``x``, so
``y_0 x_1^2 x_3`` is ``((0,), (1, 1, 3), 0)``.  A key product sorts the joined
tuples, a degree is a ``len`` and an ``x_j`` part is a partition of its
weight.  ``(index, exponent)`` pairs are built only to print and to order
:meth:`MultiPoly.sorted_terms`.  Other modules read keys only through
:func:`accumulate`, :func:`unit_moves`, :func:`fock_key`, :func:`fock_nums`
and :func:`fock_terms`.

A :class:`MultiPoly` stores one canonical pair, as FLINT's ``fmpq_poly``
does: integer numerators ``nums = {key: int}`` over one denominator ``den``,
with ``den > 0``, ``gcd(den, *nums) = 1`` and no zero numerator.  Equal
values have equal pairs, so ``==`` and ``hash`` compare the pair.  ``+``,
``-``, scalar ``*`` and the product run on ints and end in one gcd pass;
``terms`` is a computed ``{key: Fraction}`` view for reading, not for hot
paths.  Floats are refused.

``D`` has integer coefficients, so its powers and exponential apply one
integer step per level to the stored numerators and put each level over
``den`` (times ``k!`` for ``e^(wD)``).  :func:`specialize_x` and
:func:`specialize_y` clear the substituted values' denominators once and sum
integer numerators per output key over one common denominator.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import IndexOutOfRange, OrderTooSmall, UnsupportedVariable
from .genseries import GenSeries
from .series import TruncatedSeries, _require_delta, _Ring, _scaled, as_rational
from .univar import UnivarPoly

Scalar = Union[int, Fraction]

# Lowest permitted y-index; anti-derivative identities need y_-1, the margin
# below that is headroom, not silent truncation.
Y_INDEX_FLOOR = -4

_EMPTY_KEY = ((), (), 0)


def unit_moves(t: tuple) -> list:
    """``(t', e)`` for each distinct index ``i`` of a sorted index tuple ``t``:
    ``t'`` is ``t`` with one unit moved from ``i`` to ``i + 1`` (in the slot of
    the last ``i``, so it stays sorted) and ``e`` is the multiplicity of ``i``."""
    out = []
    last = len(t) - 1
    for n, i in enumerate(t):
        if n == last or t[n + 1] != i:
            out.append((t[:n] + (i + 1,) + t[n + 1 :], t.count(i)))
    return out


def _pair_form(key: tuple) -> tuple:
    """The key with each family as sorted ``(index, exponent)`` pairs."""
    ys, xs, px = key
    return tuple(Counter(ys).items()), tuple(Counter(xs).items()), px


def accumulate(acc: dict, pairs) -> dict:
    """Add each ``(key, value)`` into ``acc``; no key is left holding zero."""
    for k, v in pairs:
        prev = acc.get(k)
        if prev is None:
            if v:
                acc[k] = v
        elif s := prev + v:
            acc[k] = s
        else:
            del acc[k]
    return acc


def _key_mul(k1, k2):
    return (tuple(sorted(k1[0] + k2[0])), tuple(sorted(k1[1] + k2[1])), k1[2] + k2[2])


def fock_key(xs: tuple) -> tuple:
    """The key of the Fock monomial with sorted ``x_j`` index tuple ``xs``."""
    return ((), xs, 0)


def fock_nums(p: "MultiPoly") -> list:
    """The ``(xs, numerator)`` pairs of a vector of ``y*C[x_1, x_2, ...]``,
    all over ``p.den``.

    Raises :class:`UnsupportedVariable` unless every monomial lies in the
    ``x_j`` family alone.
    """
    out = []
    for (ys, xs, px), c in p.nums.items():
        if ys or px:
            raise UnsupportedVariable(
                "Fock vectors are polynomials in the x_j family only"
            )
        out.append((xs, c))
    return out


def fock_terms(p: "MultiPoly") -> list:
    """The ``(xs, coeff)`` pairs of a Fock vector, with ``Fraction`` values."""
    return [(xs, Fraction(c, p.den)) for xs, c in fock_nums(p)]


class MultiPoly(_Ring):
    """Finitely supported rational combination of monomials, stored as
    integer numerators ``nums`` over one denominator ``den``."""

    __slots__ = ("nums", "den")

    def __init__(self, terms: Optional[Mapping] = None):
        kv = (terms or {}).items()
        qs = {k: q for k, v in kv if (q := v if type(v) is Fraction else as_rational(v))}
        # lowest-terms values over the lcm of their denominators are coprime to it
        nums, self.den = _scaled(list(qs.values()))
        self.nums = dict(zip(qs, nums))

    @classmethod
    def from_pair(cls, nums: dict, den: int) -> "MultiPoly":
        """``sum nums[key] * key / den`` for a ``{key: int}`` map without zeros
        and ``den > 0``; one gcd pass makes the pair canonical.  ``nums`` is
        taken over, not copied."""
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {k: v // g for k, v in nums.items()}
                den //= g
        out = object.__new__(cls)
        out.nums = nums
        out.den = den
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.from_pair({_EMPTY_KEY: 1}, 1)

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        return cls({_EMPTY_KEY: as_rational(value)})

    @classmethod
    def y(cls, i: int) -> "MultiPoly":
        if i < Y_INDEX_FLOOR:
            raise IndexOutOfRange(f"y-index {i} below floor {Y_INDEX_FLOOR}")
        return cls.from_pair({((i,), (), 0): 1}, 1)

    @classmethod
    def x(cls, j: int) -> "MultiPoly":
        if j < 1:
            raise IndexOutOfRange(f"x-index must be >= 1, got {j}")
        return cls.from_pair({fock_key((j,)): 1}, 1)

    @classmethod
    def plain_x(cls) -> "MultiPoly":
        return cls.from_pair({((), (), 1): 1}, 1)

    # -- structure queries -------------------------------------------------

    @property
    def terms(self) -> dict:
        """The ``{key: Fraction}`` view of the pair, as a fresh dict."""
        return {k: Fraction(v, self.den) for k, v in self.nums.items()}

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.den, frozenset(self.nums.items())))

    @property
    def uses_plain_x(self) -> bool:
        return any(k[2] for k in self.nums)

    def coefficient(self, key) -> Fraction:
        return Fraction(self.nums.get(key, 0), self.den)

    def sorted_terms(self):
        """The ``(key, Fraction)`` terms ordered by their ``(index, exponent)`` form."""
        return sorted(self.terms.items(), key=lambda kv: _pair_form(kv[0]))

    # -- arithmetic --------------------------------------------------------

    def _constant(self, value: Scalar) -> "MultiPoly":
        return MultiPoly.const(value)

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # over the lcm of the two denominators
        den = math.lcm(self.den, rhs.den)
        a, b = den // self.den, den // rhs.den
        acc = {k: v * a for k, v in self.nums.items()} if a != 1 else dict(self.nums)
        return MultiPoly.from_pair(accumulate(acc, ((k, v * b) for k, v in rhs.nums.items())), den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly.from_pair({k: -v for k, v in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return MultiPoly.zero()
            scaled = {k: v * q.numerator for k, v in self.nums.items()}
            return MultiPoly.from_pair(scaled, self.den * q.denominator)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        products = (
            (_key_mul(k1, k2), v1 * v2)
            for k1, v1 in self.nums.items()
            for k2, v2 in other.nums.items()
        )
        return MultiPoly.from_pair(accumulate({}, products), self.den * other.den)

    __rmul__ = __mul__
    # bound by name in this class, where the benchmark tracer looks them up
    __sub__, __rsub__, __pow__ = _Ring._sub, _Ring._rsub, _Ring._pow

    def __repr__(self) -> str:
        return f"MultiPoly({self.terms!r})"

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for (ys, xs, px), c in sorted((_pair_form(k), c) for k, c in self.terms.items()):
            factors = []
            for i, e in ys:
                name = f"y{i}" if i >= 0 else f"y({i})"
                factors.append(name if e == 1 else f"{name}^{e}")
            for j, e in xs:
                factors.append(f"x{j}" if e == 1 else f"x{j}^{e}")
            if px:
                factors.append("x" if px == 1 else f"x^{px}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)


def to_univar(p: MultiPoly) -> UnivarPoly:
    """Read a polynomial in the plain variable ``x`` off a MultiPoly."""
    coeffs: dict = {}
    for (ys, xs, px), c in p.nums.items():
        if ys or xs:
            raise UnsupportedVariable("not a polynomial in plain x alone")
        coeffs[px] = c
    top = max(coeffs, default=-1)
    return UnivarPoly.from_pair([coeffs.get(n, 0) for n in range(top + 1)], p.den)


# -- the derivation and its exponential -------------------------------------


def _derive(terms: dict) -> dict:
    """One step of ``D`` on a ``{key: coefficient}`` map; ``D`` has integer
    coefficients, so integer coefficients stay integers."""
    pairs = []
    for (ys, xs, px), c in terms.items():
        if px:
            raise UnsupportedVariable("derivation domain has no plain x")
        xs1 = (1,) + xs  # times x_1
        pairs += [((ys1, xs1, 0), c * e) for ys1, e in unit_moves(ys)]
        pairs += [((ys, xs2, 0), c * e) for xs2, e in unit_moves(xs)]
    return accumulate({}, pairs)


def _powers(p: MultiPoly, count: int, divisor) -> list[MultiPoly]:
    """``[D^k p / divisor(k) for k <= count]``: one integer step of ``D`` per
    level on the stored numerators, each level over ``p.den * divisor(k)``."""
    levels = [p.nums]
    for _ in range(count):
        levels.append(_derive(levels[-1]))
    return [MultiPoly.from_pair(level, p.den * divisor(k)) for k, level in enumerate(levels)]


def derivation(p: MultiPoly) -> MultiPoly:
    """Apply ``D`` (``D y_i = y_(i+1) x_1``, ``D x_j = x_(j+1)``) once."""
    return derivation_powers(p, 1)[1]


def derivation_powers(p: MultiPoly, count: int) -> list[MultiPoly]:
    """The list ``[p, Dp, D^2 p, ..., D^count p]``."""
    return _powers(p, count, lambda k: 1)


def exp_derivation(p: MultiPoly, order: int) -> GenSeries:
    """Truncated expansion of ``e^(wD) p``: coefficient of ``w^k`` is ``D^k p / k!``."""
    return GenSeries(_powers(p, order, math.factorial))


# -- substitution homomorphisms ----------------------------------------------


def specialize_x(p: MultiPoly, b: TruncatedSeries) -> MultiPoly:
    """Substitute ``x_j -> B_j * x`` (EGF coefficient of the delta series ``b``).

    Fixes every ``y_i``; the image lives in ``C[..., y_i, ..., x]``.
    """
    _require_delta(b)
    if p.uses_plain_x:
        raise UnsupportedVariable("domain of the x-substitution has no plain x")
    top = max((xs[-1] for _, xs, _ in p.nums if xs), default=0)
    if top > b.order:
        j = next(j for _, xs, _ in p.nums for j in xs if j > b.order)
        raise OrderTooSmall(f"x-index {j} exceeds series order {b.order}")
    values, d = _scaled([b.egf(j) for j in range(top + 1)])
    return _substitute(p, 1, values, d)


def specialize_y(
    p: MultiPoly,
    a: TruncatedSeries,
    extension: Optional[Mapping[int, Scalar]] = None,
) -> MultiPoly:
    """Substitute ``y_i -> A_i`` (EGF coefficient of ``a``), fixing plain ``x``.

    Negative indices draw on the extended sequence (default all zero).
    """
    ext = extension or {}
    values: dict = {}
    for ys, xs, _ in p.nums:
        if xs:
            raise UnsupportedVariable("domain of the y-substitution has no x_j")
        for i in ys:
            if i in values:
                continue
            if i > a.order:
                raise OrderTooSmall(f"y-index {i} exceeds series order {a.order}")
            values[i] = a.egf(i) if i >= 0 else as_rational(ext.get(i, 0))
    nums, d = _scaled(list(values.values()))
    return _substitute(p, 0, dict(zip(values, nums)), d)


def _substitute(p: MultiPoly, family: int, values, d: int) -> MultiPoly:
    """Replace each ``y_i`` (``family`` 0) or each ``x_j`` (``family`` 1) by
    ``values[index] / d``; an ``x_j`` of total degree ``e`` becomes ``x^e``.
    Every term is put over ``p.den * d^top`` (``top`` the largest substituted
    degree, a tuple length) before the integer sums."""
    top = max([len(key[family]) for key in p.nums], default=0)
    scale = [d ** (top - k) for k in range(top + 1)]
    pairs = []
    for key, c in p.nums.items():
        units = key[family]
        for i in units:
            c *= values[i]
        image = (key[0], (), len(units)) if family else ((), (), key[2])
        pairs.append((image, c * scale[len(units)]))
    return MultiPoly.from_pair(accumulate({}, pairs), p.den * d**top)


def specialize_fock(p: MultiPoly, b: TruncatedSeries) -> MultiPoly:
    """Project a vector of ``y*C[x_1, x_2, ...]`` to ``C[x]``.

    The implicit lowest-weight factor ``y`` goes to 1 and ``x_j`` goes to
    ``B_j * x``; input monomials may only involve the ``x_j`` family.
    """
    fock_nums(p)
    return specialize_x(p, b)


def generic_composite_series(order: int) -> GenSeries:
    """The nested-series expansion ``sum_n y_n (sum_m w^m x_m / m!)^n / n!``.

    Built directly from the closed form; ``exp_derivation`` of ``y_0`` must
    reproduce it coefficient by coefficient.
    """
    ys = [MultiPoly.y(n) * Fraction(1, math.factorial(n)) for n in range(order + 1)]
    xs = [MultiPoly.x(m) * Fraction(1, math.factorial(m)) for m in range(1, order + 1)]
    return GenSeries(ys).compose(GenSeries([0] + xs))
