"""Umbral pairing, attached polynomial sequences, and the shift operators.

The pairing ``<A(v) | p(x)> = sum p_n A_n`` lets a truncated series act as a
linear functional on polynomials (``<v^k/k! | x^n> = delta_(k,n)``).  The
polynomials ``B_n(x)`` attached to a delta series ``B`` are defined by

    e^(x B(w)) = sum_n B_n(x) w^n / n!

and carry two distinguished operators: the umbral operator ``x^n -> B_n(x)``
and the umbral shift ``B_n -> B_(n+1)``.  A note on indexing: the sequence
attached to ``B`` here is the one classical treatments associate to the
compositional inverse of ``B``; only this direct convention is used.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotDeltaSeries, OrderTooSmall, UnknownIdentityTag
from .genseries import GenSeries
from .polyring import MultiPoly, derivation_powers, specialize_x, specialize_y, to_univar
from .series import TruncatedSeries, exp_t, shift_multiplier
from .univar import UnivarPoly

_ZERO = Fraction(0)


def pairing(a: TruncatedSeries, p: UnivarPoly) -> Fraction:
    """``<A(v) | p(x)> = sum p_n A_n`` with ``A_n`` the EGF coefficients of ``a``."""
    if p.degree > a.order:
        raise OrderTooSmall(
            f"functional of order {a.order} paired with degree {p.degree}"
        )
    total = _ZERO
    for n, c in enumerate(p.coeffs):
        if c:
            total += c * a.egf(n)
    return total


def pairing_series(a: TruncatedSeries, gs: GenSeries) -> TruncatedSeries:
    """Apply the functional coefficientwise to a ``w``-expansion of polynomials."""
    return TruncatedSeries([pairing(a, c) for c in gs.coeffs])


class LinearFunctional:
    """A truncated series viewed as a linear functional through the pairing."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        self.series = series

    def __call__(self, p: UnivarPoly) -> Fraction:
        return pairing(self.series, p)

    def __repr__(self) -> str:
        return f"LinearFunctional({self.series!r})"


def composed_expansion(a: TruncatedSeries, b: TruncatedSeries, order: int) -> GenSeries:
    """The ``w``-expansion of ``A(x * B(w))`` with UnivarPoly coefficients.

    Substitutes ``t -> x * B(w)`` into ``A(t)`` using ordinary coefficients;
    the coefficient of ``w^m`` only involves powers ``B(w)^k`` with ``k <= m``
    because ``B`` is delta.
    """
    if not b.is_delta:
        raise NotDeltaSeries("substitution series must be delta")
    if b.order < order or a.order < order:
        raise OrderTooSmall(
            f"need both series to order {order}; have {a.order} and {b.order}"
        )
    bcs = b.coeffs[: order + 1]
    # columns[m][k] = coefficient of w^m in B(w)^k
    power = [Fraction(1)] + [_ZERO] * order
    cols: list[list[Fraction]] = [[_ZERO] * (order + 1) for _ in range(order + 1)]
    for m in range(order + 1):
        cols[m][0] = power[m]
    for k in range(1, order + 1):
        nxt = [_ZERO] * (order + 1)
        for i, pi in enumerate(power):
            if not pi:
                continue
            for j in range(1, order + 1 - i):
                if bcs[j]:
                    nxt[i + j] += pi * bcs[j]
        power = nxt
        for m in range(k, order + 1):
            cols[m][k] = power[m]
    out = []
    for m in range(order + 1):
        out.append(UnivarPoly([a.coeffs[k] * cols[m][k] for k in range(m + 1)]))
    return GenSeries(out)


def attached_generating_series(b: TruncatedSeries, order: int) -> GenSeries:
    """The expansion of ``e^(x B(w))``; coefficient of ``w^n`` is ``B_n(x)/n!``."""
    return composed_expansion(exp_t(order), b, order)


def attached_polynomial(b: TruncatedSeries, n: int) -> UnivarPoly:
    """``B_n(x) = n! * [w^n] e^(x B(w))``; degree exactly ``n``."""
    if n < 0:
        raise ValueError("attached polynomials are indexed by n >= 0")
    if b.order < n:
        raise OrderTooSmall(f"need series order {n}, have {b.order}")
    gs = attached_generating_series(b, n)
    return gs.coeff(n) * Fraction(math.factorial(n))


def umbral_operator(b: TruncatedSeries, p: UnivarPoly) -> UnivarPoly:
    """Linear extension of ``x^n -> B_n(x)``; preserves degree."""
    if not p:
        return UnivarPoly.zero()
    d = p.degree
    if b.order < d:
        raise OrderTooSmall(f"need series order {d}, have {b.order}")
    gs = attached_generating_series(b, d)
    out = UnivarPoly.zero()
    for n, c in enumerate(p.coeffs):
        if c:
            out = out + gs.coeff(n) * (c * Fraction(math.factorial(n)))
    return out


def attached_basis_expansion(b: TruncatedSeries, p: UnivarPoly) -> list[Fraction]:
    """Coordinates of ``p`` in the basis ``B_0, ..., B_deg(p)``.

    The coefficient matrix is triangular with diagonal ``B_1^n != 0``, so a
    single back-substitution pass suffices.
    """
    if not p:
        return []
    d = p.degree
    if b.order < d:
        raise OrderTooSmall(f"need series order {d}, have {b.order}")
    gs = attached_generating_series(b, d)
    basis = [gs.coeff(n) * Fraction(math.factorial(n)) for n in range(d + 1)]
    coords = [_ZERO] * (d + 1)
    residue = p
    for n in range(d, -1, -1):
        c = residue.coeff(n) / basis[n].coeff(n)
        coords[n] = c
        if c:
            residue = residue - c * basis[n]
    assert not residue, "triangular expansion left a residue"
    return coords


def umbral_shift(b: TruncatedSeries, p: UnivarPoly) -> UnivarPoly:
    """Linear extension of ``B_n -> B_(n+1)``; raises degree by one."""
    if not p:
        return UnivarPoly.zero()
    d = p.degree
    if b.order < d + 1:
        raise OrderTooSmall(f"need series order {d + 1}, have {b.order}")
    coords = attached_basis_expansion(b, p)
    gs = attached_generating_series(b, d + 1)
    out = UnivarPoly.zero()
    for n, c in enumerate(coords):
        if c:
            out = out + gs.coeff(n + 1) * (c * Fraction(math.factorial(n + 1)))
    return out


def functional_shift(
    a: TruncatedSeries, b: TruncatedSeries, p: UnivarPoly
) -> UnivarPoly:
    """The shift steered by a functional ``A``: maps the basis polynomial
    ``B_n(x)`` to the image of ``D^(n+1) y_0`` under both substitutions.

    Choosing ``A = e^t`` collapses every ``y``-coefficient to 1 and recovers
    the plain umbral shift.
    """
    if not p:
        return UnivarPoly.zero()
    d = p.degree
    if b.order < d + 1 or a.order < d + 1:
        raise OrderTooSmall(
            f"need both series to order {d + 1}; have {a.order} and {b.order}"
        )
    coords = attached_basis_expansion(b, p)
    powers = derivation_powers(MultiPoly.y(0), d + 1)
    out = UnivarPoly.zero()
    for n, c in enumerate(coords):
        if c:
            image = to_univar(specialize_y(specialize_x(powers[n + 1], b), a))
            out = out + c * image
    return out


def apply_series_in_ddx(f: TruncatedSeries, p: UnivarPoly) -> UnivarPoly:
    """Apply ``F(d/dx)`` to a polynomial: ``sum f_j p^(j)(x)``."""
    if p.degree > f.order:
        raise OrderTooSmall(
            f"operator series of order {f.order} applied to degree {p.degree}"
        )
    out = UnivarPoly.zero()
    q = p
    for j in range(p.degree + 1):
        if f.coeffs[j]:
            out = out + f.coeffs[j] * q
        q = q.derivative()
    return out


def check_adjoint(
    kind: str, a: TruncatedSeries, b: TruncatedSeries, degree: int
) -> bool:
    """Verify one adjoint identity on every basis polynomial up to ``degree``.

    kinds:
      ``mul``   -- multiplication by x on polynomials vs d/dv on series
      ``diff``  -- B(d/dx) on polynomials vs multiplication by B(v) on series
      ``subst`` -- substitution A -> A(B(v)) vs the umbral operator
      ``shift`` -- multiply-after-differentiate B*(v) A'(v) vs the umbral shift

    Both sides of each identity are computed along independent routes.
    """
    table = {
        "mul": (a.derivative, lambda p: UnivarPoly.x() * p),
        "diff": (lambda: b * a, lambda p: apply_series_in_ddx(b, p)),
        "subst": (lambda: a.compose(b), lambda p: umbral_operator(b, p)),
        "shift": (
            lambda: shift_multiplier(b) * a.derivative(),
            lambda p: umbral_shift(b, p),
        ),
    }
    if kind not in table:
        raise UnknownIdentityTag(f"unknown adjoint kind {kind!r}")
    left, right = table[kind]
    series = left()
    return all(
        pairing(series, UnivarPoly.monomial(k))
        == pairing(a, right(UnivarPoly.monomial(k)))
        for k in range(degree + 1)
    )
