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

This is the only module that knows the monomial-key layout; other modules
go through :func:`shift_exps`, :func:`accumulate`, :func:`fock_key` and
:func:`fock_terms`.  Coefficients are ``Fraction`` values; floats are refused.

``D`` has integer coefficients, so its powers and exponential clear the
input's denominators once, apply one integer step per level (one pass over the
terms) and divide once per output term, by ``k!`` too for ``e^(wD)``.
:func:`specialize_x` reads each EGF value once and sums integer numerators per
output key over ``d^degree``; :func:`specialize_y` reads each value once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import IndexOutOfRange, NotDeltaSeries, OrderTooSmall, UnsupportedVariable
from .genseries import GenSeries
from .series import TruncatedSeries, _scaled, as_rational
from .univar import UnivarPoly

Scalar = Union[int, Fraction]

# Lowest permitted y-index; anti-derivative identities need y_-1, the margin
# below that is headroom, not silent truncation.
Y_INDEX_FLOOR = -4

_ZERO = Fraction(0)

# A monomial key is (ys, xs, px): sorted ((index, exp), ...) tuples for the
# y- and x-families plus the exponent of the plain x.
_EMPTY_KEY = ((), (), 0)


def shift_exps(exps: tuple, *deltas: tuple) -> tuple:
    """Add each ``(index, delta)`` in turn to a sorted exponent tuple."""
    if not deltas:
        return exps
    out = dict(exps)
    for index, delta in deltas:
        e = out.get(index, 0) + delta
        if e < 0:
            raise ValueError("negative exponent")
        if e:
            out[index] = e
        else:
            out.pop(index, None)
    return tuple(sorted(out.items()))


def accumulate(acc: dict, pairs) -> dict:
    """Add each ``(key, value)`` into ``acc``, deleting keys whose sum is zero."""
    for k, v in pairs:
        prev = acc.get(k)
        if prev is None:
            acc[k] = v
        elif s := prev + v:
            acc[k] = s
        else:
            del acc[k]
    return acc


def _key_mul(k1, k2):
    return (shift_exps(k1[0], *k2[0]), shift_exps(k1[1], *k2[1]), k1[2] + k2[2])


def fock_key(xs: tuple) -> tuple:
    """The key of the Fock monomial with ``x_j`` exponent tuple ``xs``."""
    return ((), xs, 0)


def fock_terms(p: "MultiPoly") -> list:
    """The ``(xs, coeff)`` pairs of a vector of ``y*C[x_1, x_2, ...]``.

    Raises :class:`UnsupportedVariable` unless every monomial lies in the
    ``x_j`` family alone.
    """
    out = []
    for (ys, xs, px), c in p.terms.items():
        if ys or px:
            raise UnsupportedVariable(
                "Fock vectors are polynomials in the x_j family only"
            )
        out.append((xs, c))
    return out


class MultiPoly:
    """Finitely supported rational combination of monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        kv = (terms or {}).items()
        self.terms = {k: q for k, v in kv if (q := v if type(v) is Fraction else as_rational(v))}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({_EMPTY_KEY: Fraction(1)})

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        return cls({_EMPTY_KEY: as_rational(value)})

    @classmethod
    def y(cls, i: int, floor: Optional[int] = None) -> "MultiPoly":
        limit = Y_INDEX_FLOOR if floor is None else floor
        if i < limit:
            raise IndexOutOfRange(f"y-index {i} below floor {limit}")
        return cls({(((i, 1),), (), 0): Fraction(1)})

    @classmethod
    def x(cls, j: int) -> "MultiPoly":
        if j < 1:
            raise IndexOutOfRange(f"x-index must be >= 1, got {j}")
        return cls({fock_key(((j, 1),)): Fraction(1)})

    @classmethod
    def plain_x(cls) -> "MultiPoly":
        return cls({((), (), 1): Fraction(1)})

    # -- structure queries -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    @property
    def uses_plain_x(self) -> bool:
        return any(k[2] for k in self.terms)

    def coefficient(self, key) -> Fraction:
        return self.terms.get(key, _ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return MultiPoly(accumulate(dict(self.terms), rhs.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return MultiPoly.zero()
            return MultiPoly({k: v * q for k, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        products = (
            (_key_mul(k1, k2), v1 * v2)
            for k1, v1 in self.terms.items()
            for k2, v2 in other.terms.items()
        )
        return MultiPoly(accumulate({}, products))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers take nonnegative integer exponents")
        out = MultiPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (ys, xs, px), c in self.sorted_terms():
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
    for (ys, xs, px), c in p.terms.items():
        if ys or xs:
            raise UnsupportedVariable("not a polynomial in plain x alone")
        coeffs[px] = coeffs.get(px, _ZERO) + c
    if not coeffs:
        return UnivarPoly.zero()
    top = max(coeffs)
    return UnivarPoly([coeffs.get(n, _ZERO) for n in range(top + 1)])


# -- the derivation and its exponential -------------------------------------


def _step(exps: tuple, pos: int) -> tuple:
    """``exps`` with one unit moved from its ``pos``-th index ``i`` to ``i + 1``."""
    i, e = exps[pos]
    rest = exps[pos + 1 :]
    if rest and rest[0][0] == i + 1:
        rest = ((i + 1, rest[0][1] + 1),) + rest[1:]
    else:
        rest = ((i + 1, 1),) + rest
    return exps[:pos] + (((i, e - 1),) if e > 1 else ()) + rest


def _derive(terms: dict) -> dict:
    """One step of ``D`` on a ``{key: coefficient}`` map; ``D`` has integer
    coefficients, so integer coefficients stay integers."""
    pairs = []
    for (ys, xs, px), c in terms.items():
        if px:
            raise UnsupportedVariable("derivation domain has no plain x")
        xs1 = _step(((0, 1),) + xs, 0)  # times x_1
        pairs += [((_step(ys, n), xs1, 0), c * e) for n, (_, e) in enumerate(ys)]
        pairs += [((ys, _step(xs, n), 0), c * e) for n, (_, e) in enumerate(xs)]
    return accumulate({}, pairs)


def _powers(p: MultiPoly, count: int, divisor) -> list[MultiPoly]:
    """``[D^k p / divisor(k) for k <= count]``: ``p = P / d`` with ``P`` integral,
    one integer step of ``D`` per level and one division per output term."""
    nums, d = _scaled(list(p.terms.values()))
    levels = [dict(zip(p.terms, nums))]
    for _ in range(count):
        levels.append(_derive(levels[-1]))
    return [
        MultiPoly({key: Fraction(v, d * divisor(k)) for key, v in level.items()})
        for k, level in enumerate(levels)
    ]


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


def _require_delta(b: TruncatedSeries) -> None:
    if not b.is_delta:
        raise NotDeltaSeries("substitution series must be delta")


def specialize_x(p: MultiPoly, b: TruncatedSeries) -> MultiPoly:
    """Substitute ``x_j -> B_j * x`` (EGF coefficient of the delta series ``b``).

    Fixes every ``y_i``; the image lives in ``C[..., y_i, ..., x]``.
    """
    _require_delta(b)
    if p.uses_plain_x:
        raise UnsupportedVariable("domain of the x-substitution has no plain x")
    top = max((xs[-1][0] for _, xs, _ in p.terms if xs), default=0)
    if top > b.order:
        j = next(j for _, xs, _ in p.terms for j, _ in xs if j > b.order)
        raise OrderTooSmall(f"x-index {j} exceeds series order {b.order}")
    values, d = _scaled([b.egf(j) for j in range(top + 1)])
    nums, den = _scaled(list(p.terms.values()))
    pairs = []
    for (ys, xs, _), c in zip(p.terms, nums):
        for j, e in xs:
            c *= values[j] ** e
        pairs.append(((ys, (), sum(e for _, e in xs)), c))
    acc = accumulate({}, pairs)
    return MultiPoly({k: Fraction(v, den * d ** k[2]) for k, v in acc.items()})


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
    for ys, xs, _ in p.terms:
        if xs:
            raise UnsupportedVariable("domain of the y-substitution has no x_j")
        for i, _ in ys:
            if i in values:
                continue
            if i > a.order:
                raise OrderTooSmall(f"y-index {i} exceeds series order {a.order}")
            values[i] = a.egf(i) if i >= 0 else as_rational(ext.get(i, 0))
    pairs = []
    for (ys, _, px), c in p.terms.items():
        for i, e in ys:
            c *= values[i] ** e
        pairs.append((((), (), px), c))
    return MultiPoly(accumulate({}, pairs))


def specialize_fock(p: MultiPoly, b: TruncatedSeries) -> MultiPoly:
    """Project a vector of ``y*C[x_1, x_2, ...]`` to ``C[x]``.

    The implicit lowest-weight factor ``y`` goes to 1 and ``x_j`` goes to
    ``B_j * x``; input monomials may only involve the ``x_j`` family.
    """
    fock_terms(p)
    return specialize_x(p, b)


def generic_composite_series(order: int) -> GenSeries:
    """The nested-series expansion ``sum_n y_n (sum_m w^m x_m / m!)^n / n!``.

    Built directly from the closed form; ``exp_derivation`` of ``y_0`` must
    reproduce it coefficient by coefficient.
    """
    zero = MultiPoly.zero()
    inner = GenSeries(
        [zero]
        + [MultiPoly.x(m) * Fraction(1, math.factorial(m)) for m in range(1, order + 1)]
    )
    total = GenSeries.constant(MultiPoly.y(0), order)
    power = GenSeries.constant(MultiPoly.one(), order)
    for n in range(1, order + 1):
        power = power * inner
        total = total + power * (MultiPoly.y(n) * Fraction(1, math.factorial(n)))
    return total
