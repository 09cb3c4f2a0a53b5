"""Umbral pairing, attached polynomial sequences, and the shift operators.

The pairing ``<A(v) | p(x)> = sum p_n A_n`` lets a truncated series act as a
linear functional on polynomials (``<v^k/k! | x^n> = delta_(k,n)``).  The
polynomials ``B_n(x)`` attached to a delta series ``B`` are defined by

    e^(x B(w)) = sum_n B_n(x) w^n / n!

and carry two distinguished operators: the umbral operator ``x^n -> B_n(x)``
and the umbral shift ``B_n -> B_(n+1)``.  A note on indexing: the sequence
attached to ``B`` here is the one classical treatments associate to the
compositional inverse of ``B``; only this direct convention is used.

All of them read one integer table: with ``d`` the stored denominator of
``B`` (the lcm of its coefficients' denominators), :func:`power_table` holds
``d^k [w^m] B(w)^k`` as Python ints (``N^3/6`` multiply-adds at order ``N``,
one ``series._iconv`` per row).  ``composed_expansion``, ``B_n``, the umbral
operator and all shifts read it through one :func:`attached_sum` (``N^2/2``; a
unit weight reads one column, so ``composed_expansion`` reads each column
once); the basis expansion is a triangular solve (``N^2/2``).  A functional
``A`` enters only through the diagonal :func:`egf_multiplier` (``N``), so
``functional_shift`` costs what ``umbral_shift`` does.  Weights on the basis
are one integer pair ``(vs, den)``, ``c_n = vs[n] / (n! den)``: it is what
:func:`basis_coordinates` returns and :func:`attached_sum` reads.  A ``Fraction``
is built only where a value leaves the layer (:func:`pairing`,
:func:`attached_basis_expansion`) and for each row's division in the solve.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import OrderTooSmall, UnknownIdentityTag
from .genseries import GenSeries
from .series import TruncatedSeries, _iconv, _require_delta, exp_t, shift_multiplier
from .univar import UnivarPoly


def pairing(a: TruncatedSeries, p: UnivarPoly) -> Fraction:
    """``<A(v) | p(x)> = sum p_n A_n`` with ``A_n`` the EGF coefficients of ``a``."""
    if p.degree > a.order:
        raise OrderTooSmall(
            f"functional of order {a.order} paired with degree {p.degree}"
        )
    dot = sum(math.factorial(n) * x * y for n, (x, y) in enumerate(zip(p.nums, a.nums)))
    return Fraction(dot, p.den * a.den)


def pairing_series(a: TruncatedSeries, gs: GenSeries) -> TruncatedSeries:
    """Apply the functional coefficientwise to a ``w``-expansion of polynomials."""
    return TruncatedSeries([pairing(a, c) for c in gs.coeffs])


def power_table(b: TruncatedSeries, order: int) -> tuple[list[list[int]], int]:
    """``(rows, d)`` with ``rows[k][m] = d^k [w^m] B(w)^k`` for ``k, m <= order``,
    all integers; a row is zero below ``m = k`` because ``B`` is delta."""
    if b.order < order:
        raise OrderTooSmall(f"need series order {order}, have {b.order}")
    _require_delta(b)
    low = b.truncate(order)  # its den is the lcm of the used denominators
    xs, d = low.nums, low.den
    rows = [[1] + [0] * order]
    for k in range(1, order + 1):  # B^k = w^(k-1) (B^(k-1) / w^(k-1)) * w (B / w)
        rows.append([0] * k + _iconv(rows[-1][k - 1 :], xs[1:], order - k))
    return rows, d


def composed_expansion(a: TruncatedSeries, b: TruncatedSeries, order: int) -> GenSeries:
    """The ``w``-expansion of ``A(x * B(w))`` with UnivarPoly coefficients; the
    coefficient of ``w^m`` is ``M_A(B_m) / m!`` (see :func:`egf_multiplier`)."""
    _require_delta(b)
    if b.order < order or a.order < order:
        raise OrderTooSmall(
            f"need both series to order {order}; have {a.order} and {b.order}"
        )
    table = power_table(b, order)
    units = ([0] * m + [1] for m in range(order + 1))
    return GenSeries([egf_multiplier(a, attached_sum(table, vs, 1)) for vs in units])


def attached_generating_series(b: TruncatedSeries, order: int) -> GenSeries:
    """The expansion of ``e^(x B(w))``; coefficient of ``w^n`` is ``B_n(x)/n!``."""
    return composed_expansion(exp_t(order), b, order)


def attached_sum(table: tuple, vs: list[int], den: int) -> UnivarPoly:
    """``sum_n c_n B_n(x)``, ``c_n = vs[n] / (n! den)``, over a :func:`power_table`:
    ``[x^k]`` is the integer dot product ``sum_n vs[n] rows[k][n]`` from the first
    nonzero weight on (so a unit weight reads one table column) over ``k! d^k den``;
    all are put over ``K! d^K den`` for the top index ``K``."""
    rows, d = table
    top = max(len(vs) - 1, 0)  # no weight at all sums to zero
    low = next((n for n, v in enumerate(vs) if v), len(vs))
    out, scale = [], 1  # scale = d^(K-k) K!/k!
    for k in range(top, -1, -1):
        j = max(k, low)
        out.append(sum(map(mul, vs[j:], rows[k][j:])) * scale)
        scale *= d * k
    return UnivarPoly.from_pair(out[::-1], den * d**top * math.factorial(top))


def egf_multiplier(a: TruncatedSeries, p: UnivarPoly) -> UnivarPoly:
    """``M_A``: the diagonal map ``x^k -> A_k x^k`` with ``A_k = k! a_k`` the
    EGF coefficients of ``a``; ``M_(e^t)`` is the identity."""
    nums = [math.factorial(k) * x * a._num(k) for k, x in enumerate(p.nums)]
    return UnivarPoly.from_pair(nums, p.den * a.den)


def basis_coordinates(table: tuple, p: UnivarPoly) -> tuple[list[int], int]:
    """The weight pair ``(vs, q den)`` of ``p = ps / den`` in the basis ``B_0, ...,
    B_deg(p)`` of a :func:`power_table` of order at least ``deg(p)``: the triangular
    system ``k! d^k ps[k] = sum_(n >= k) v_n rows[k][n]`` solved top down over
    integers ``v_n = vs[n] / q`` with one common denominator ``q``."""
    rows, d = table
    ps, den = p.nums, p.den
    vs, q = [0] * len(ps), 1
    for k in range(len(ps) - 1, -1, -1):
        dot = sum(map(mul, vs[k + 1 :], rows[k][k + 1 :]))
        v = Fraction(ps[k] * math.factorial(k) * d**k * q - dot, q * rows[k][k])
        if q % v.denominator:
            f = v.denominator // math.gcd(q, v.denominator)
            vs, q = [x * f for x in vs], q * f
        vs[k] = v.numerator * (q // v.denominator)
    return vs, q * den


def attached_polynomial(b: TruncatedSeries, n: int) -> UnivarPoly:
    """``B_n(x) = n! * [w^n] e^(x B(w))``; degree exactly ``n``."""
    if n < 0:
        raise ValueError("attached polynomials are indexed by n >= 0")
    return attached_sum(power_table(b, n), [0] * n + [math.factorial(n)], 1)


def umbral_operator(b: TruncatedSeries, p: UnivarPoly) -> UnivarPoly:
    """Linear extension of ``x^n -> B_n(x)``; preserves degree."""
    if not p:
        return UnivarPoly.zero()
    vs = [math.factorial(n) * x for n, x in enumerate(p.nums)]
    return attached_sum(power_table(b, p.degree), vs, p.den)


def attached_basis_expansion(b: TruncatedSeries, p: UnivarPoly) -> list[Fraction]:
    """Coordinates of ``p`` in the basis ``B_0, ..., B_deg(p)``."""
    if not p:
        return []
    vs, den = basis_coordinates(power_table(b, p.degree), p)
    return [Fraction(v, den * math.factorial(n)) for n, v in enumerate(vs)]


def umbral_shift(b: TruncatedSeries, p: UnivarPoly) -> UnivarPoly:
    """Linear extension of ``B_n -> B_(n+1)``; raises degree by one."""
    if not p:
        return UnivarPoly.zero()
    table = power_table(b, p.degree + 1)
    vs, den = basis_coordinates(table, p)
    return attached_sum(table, [0] + [(n + 1) * v for n, v in enumerate(vs)], den)


def functional_shift(
    a: TruncatedSeries, b: TruncatedSeries, p: UnivarPoly
) -> UnivarPoly:
    """The shift steered by a functional ``A``: maps the basis polynomial
    ``B_n(x)`` to the image of ``D^(n+1) y_0`` under both substitutions, which
    by FDBU is ``(n+1)! [w^(n+1)] A(x B(w))``.  As ``A(x B(w)) = sum a_k x^k B(w)^k``,
    that is ``M_A(B_(n+1))``: :func:`egf_multiplier` after the umbral shift."""
    d = p.degree  # the zero polynomial passes with d = -1 and maps to zero
    if b.order < d + 1 or a.order < d + 1:
        raise OrderTooSmall(
            f"need both series to order {d + 1}; have {a.order} and {b.order}"
        )
    return egf_multiplier(a, umbral_shift(b, p))


def apply_series_in_ddx(f: TruncatedSeries, p: UnivarPoly) -> UnivarPoly:
    """Apply ``F(d/dx)`` to a polynomial: ``sum f_j p^(j)(x)``, so ``[x^k]`` is
    ``sum_j f_j (k+j)!/k! p_(k+j)``, one integer pass over ``f.den p.den``."""
    if p.degree > f.order:
        raise OrderTooSmall(
            f"operator series of order {f.order} applied to degree {p.degree}"
        )
    ps, fs = p.nums, f.nums
    nums = [sum(math.perm(k + j, j) * fs[j] * x for j, x in enumerate(ps[k:]))
            for k in range(len(ps))]
    return UnivarPoly.from_pair(nums, f.den * p.den)


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
