"""Heisenberg and Virasoro operators on ``y*C[x_1, x_2, ...]``.

Vectors are stored as their ``C[x_1, x_2, ...]`` part (a :class:`MultiPoly`
over the ``x_j`` family); the single lowest-weight factor ``y`` is implicit.
The mode operators are

    h(n) = x_(-n) / (-n-1)!   (n < 0)     [multiplication]
    h(0) = identity                        [y d/dy on y-degree 1]
    h(n) = n! d/dx_n          (n > 0)

with ``[h(m), h(n)] = m delta_(m+n,0)``, and the quadratic sums

    L(m) = (1/2) sum_k h(m-k) h(k)                (m != 0)
    L(0) = (1/2) sum_k h(-|k|) h(|k|)             (normal ordered)

realize the Virasoro relations at central charge 1 (the oscillator
construction of Kac and Raina, *Bombay Lectures on Highest Weight
Representations*, Lecture 2).  For ``m != 0`` the two modes of each product
commute; pairing ``k`` with ``m - k`` and splitting off ``k = 0, m`` gives
the normal-ordered form that :func:`virasoro` applies monomial by monomial:

    L(m) = h(m) + sum_(k > max(0, m)) h(m-k) h(k)
                + (1/2) sum_(0 < k < m) h(m-k) h(k)
                + (1/2) sum_(m < k < 0) h(m-k) h(k)      (m != 0)
    L(0) = 1/2 + sum_(k > 0) k x_k d/dx_k

The first sum moves one quantum from ``x_k`` to ``x_(k-m)``, the second
removes two and the third adds two; on a monomial only the ``k`` whose
annihilated variable is present contribute.

Vectors are :class:`MultiPoly` pairs, integer numerators over one
denominator, and the modes work on the numerators.  ``h(n)`` keeps the
denominator for ``n > 0`` and multiplies it by ``(-n-1)!`` for ``n < 0``.
A monomial is keyed by its partition ``xs``, the sorted tuple of its
``x_j``-indices with one entry per unit, so its weight is ``1/2 + sum(xs)``.
``L(m)`` reads an integer unit table keyed by ``(m, xs)``: each image is built
once as numerators over one unit denominator (a divisor of 2 for ``m >= 0``),
and :func:`virasoro` puts every monomial's unit over the lcm of their
denominators, so one call sums ints only.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

from .errors import IndexOutOfRange, NotHomogeneous
from .polyring import MultiPoly, accumulate, fock_key, fock_nums, unit_moves
from .series import TruncatedSeries, _scaled, as_rational
from .umbral import attached_sum, basis_coordinates, power_table
from .univar import UnivarPoly

Scalar = Union[int, Fraction]

FockPoly = MultiPoly  # x_j-monomials only; the y factor is implicit

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def lowest_weight_vector() -> FockPoly:
    """The vector ``y`` itself (stored as the constant polynomial 1)."""
    return MultiPoly.one()


def heisenberg(n: int, p: FockPoly) -> FockPoly:
    """Apply the mode ``h(n)``; distinct monomials have distinct images."""
    terms = fock_nums(p)
    if n == 0:
        return p
    if n < 0:
        images = {fock_key(tuple(sorted(xs + (-n,)))): c for xs, c in terms}
        return MultiPoly.from_pair(images, p.den * math.factorial(-n - 1))
    scale = math.factorial(n)
    pairs = ((xs, xs.index(n), c * xs.count(n) * scale) for xs, c in terms if n in xs)
    return MultiPoly.from_pair({fock_key(xs[:k] + xs[k + 1 :]): v for xs, k, v in pairs}, p.den)


@lru_cache(maxsize=None)
def _virasoro_unit(m: int, xs: tuple) -> tuple:
    """``L(m)`` of the unit monomial with partition ``xs``, as
    ``(((key, numerator), ...), den)`` with distinct keys; every coefficient of
    the normal-ordered form is positive, so none cancels.

    Each coefficient ``num / div`` is put over ``den = 2`` (``m >= 0``) or
    ``den = 2 (k_max - m - 1)!`` (``m < 0``, ``k_max`` the largest index in
    ``xs``), which every ``div`` below divides, and the pair is reduced once."""
    fact = math.factorial
    if m == 0:
        return ((fock_key(xs), 1 + 2 * sum(xs)),), 2
    den = 2 if m > 0 else 2 * fact(max(xs, default=0) - m - 1)
    exps = Counter(xs)  # the (index, exponent) pairs
    pairs = []

    def bump(num: int, div: int, drop: tuple = (), add: tuple = ()) -> None:
        units = [*xs, *add]
        for k in drop:
            units.remove(k)
        pairs.append((fock_key(tuple(sorted(units))), den * num // div))

    if m < 0:  # h(m)
        bump(1, fact(-m - 1), (), (-m,))
    elif exps[m]:
        bump(fact(m) * exps[m], 1, (m,))
    for k, e in exps.items():  # h(m-k) h(k) with k > max(0, m): x_k -> x_(k-m)
        if k > m:
            bump(fact(k) * e, fact(k - m - 1), (k,), (k - m,))
    for k, e in exps.items():  # (1/2) h(m-k) h(k) with 0 < k < m: remove x_k, x_(m-k)
        j = m - k
        if 0 < j:
            rest = e - 1 if j == k else exps[j]
            if rest:
                bump(fact(k) * e * fact(j) * rest, 2, (k, j))
    for a in range(1, -m):  # (1/2) h(m-k) h(k) with m < k < 0: add x_a, x_(-m-a)
        b = -m - a
        bump(1, 2 * fact(a - 1) * fact(b - 1), (), (a, b))
    acc = accumulate({}, pairs)
    g = math.gcd(den, *acc.values())
    return tuple((key, v // g) for key, v in acc.items()), den // g


def virasoro(m: int, p: FockPoly) -> FockPoly:
    """Apply the quadratic mode ``L(m)``; lowers weight by ``m``."""
    units = [(c, _virasoro_unit(m, xs)) for xs, c in fock_nums(p)]
    den = math.lcm(*[d for _, (_, d) in units])
    acc: dict = {}
    for c, (pairs, d) in units:
        s = c * (den // d)
        accumulate(acc, ((image, s * v) for image, v in pairs))
    return MultiPoly.from_pair(acc, p.den * den)


def weight(p: FockPoly) -> Fraction:
    """The ``L(0)`` eigenvalue ``1/2 + sum j * e_j`` of a homogeneous vector."""
    terms = fock_nums(p)
    if not terms:
        raise NotHomogeneous("the zero vector has no weight")
    weights = {_HALF + sum(xs) for xs, _ in terms}
    if len(weights) != 1:
        raise NotHomogeneous(f"mixed weights {sorted(weights)}")
    return weights.pop()


def fock_derivation(p: FockPoly) -> FockPoly:
    """The derivation ``x_1 + sum_k x_(k+1) d/dx_k`` (the image of ``y`` ships
    along implicitly); must coincide with ``L(-1)``."""
    pairs = []
    for xs, c in fock_nums(p):
        pairs.append((fock_key((1,) + xs), c))
        pairs += [(fock_key(moved), c * e) for moved, e in unit_moves(xs)]
    return MultiPoly.from_pair(accumulate({}, pairs), p.den)


def lowering_powers(n: int) -> list[FockPoly]:
    """The vectors ``[y, L(-1) y, ..., L(-1)^n y]``."""
    out = [lowest_weight_vector()]
    for _ in range(n):
        out.append(virasoro(-1, out[-1]))
    return out


def _partitions(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for j in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - j, j):
            yield rest + (j,)


def basis_monomials(max_degree: int) -> list[FockPoly]:
    """All monomials with ``sum j * e_j <= max_degree`` (weight up to
    ``max_degree + 1/2``), in a fixed deterministic order."""
    return [
        MultiPoly.from_pair({fock_key(part): 1}, 1)
        for total in range(max_degree + 1)
        for part in _partitions(total, total)
    ]


# -- ladder coefficients -----------------------------------------------------


# Rows m >= 0 of the ladder table, each filled left to right as far as asked.
_LADDER_ROWS: dict[int, list[Fraction]] = {}


def ladder_value(m: int, n: int) -> Fraction:
    """``f_m(n)`` from the recurrence ``f_m(n) = f_m(n-1) + (m+1) f_(m-1)(n-1)``
    with boundary ``f_(-1)(n) = 1``, ``f_0(0) = 1/2``, ``f_m(0) = 0`` for m >= 1.

    Row ``r`` is needed through column ``n - (m - r)``; the rows are extended
    in increasing ``r``, so every entry is computed once and nothing recurses.
    """
    if m < -1:
        raise IndexOutOfRange(f"ladder row index must be >= -1, got {m}")
    if n < 0:
        raise IndexOutOfRange(f"ladder column index must be >= 0, got {n}")
    if m == -1:
        return Fraction(1)
    if n >= len(_LADDER_ROWS.get(m, ())):
        below = None
        for r in range(m + 1):
            row = _LADDER_ROWS.setdefault(r, [_HALF if r == 0 else _ZERO])
            for k in range(len(row), n - (m - r) + 1):
                row.append(row[k - 1] + (r + 1) * (below[k - 1] if r else 1))
            below = row
    return _LADDER_ROWS[m][n]


def _falling(z: Fraction, k: int) -> tuple[int, int]:
    """The falling factorial ``z (z-1) ... (z-k+1)`` of ``z = r/s`` as the
    integer pair ``(prod_(i<k) (r - i s), s^k)`` for ``k >= 0``."""
    r, s = z.numerator, z.denominator
    num = 1
    for i in range(k):
        num *= r - i * s
    return num, s**k


def ladder_closed(m: int, n: Scalar) -> Fraction:
    """Closed polynomial form ``(1/2) n (n-1) ... (n-m+1) (2n - m + 1)``.

    Rational arguments are allowed; the empty product covers ``m = 0``.
    """
    if m < -1:
        raise IndexOutOfRange(f"ladder row index must be >= -1, got {m}")
    if m == -1:
        return Fraction(1)
    z = as_rational(n)
    num, den = _falling(z, m)
    r, s = z.numerator, z.denominator
    return Fraction(num * (2 * r - (m - 1) * s), 2 * den * s)


# -- generalized attached shifts ---------------------------------------------


def mode_shift(b: TruncatedSeries, m: int, p: UnivarPoly) -> UnivarPoly:
    """The level-``m`` attached shift: linear extension of
    ``B_n -> f_m(n) B_(n-m)`` (``B_k = 0`` for ``k < 0``).

    ``m = -1`` reproduces the classical umbral shift.
    """
    if m < -1:
        raise IndexOutOfRange(f"mode index must be >= -1, got {m}")
    if not p:
        return UnivarPoly.zero()
    d, low = p.degree, max(m, 0)
    table = power_table(b, max(d, d - m))
    vs, den = basis_coordinates(table, p)
    # weight vs[n] / (n! den) times f_m(n) moves to B_(n-m): over (n-m)! it is
    # vs[n] f_m(n) (n-m)!/n!, and those factors go over their lcm q
    fs, q = _scaled([ladder_value(m, n) * Fraction(math.factorial(n - m), math.factorial(n))
                     for n in range(low, d + 1)])
    return attached_sum(table, [0] * (low - m) + [v * f for v, f in zip(vs[low:], fs)], den * q)


# -- the referee's Sheffer pair ----------------------------------------------


def binom_general(z: Scalar, k: int) -> Fraction:
    """Generalized binomial ``C(z, k)`` via a falling factorial; 0 for k < 0."""
    if k < 0:
        return _ZERO
    num, den = _falling(as_rational(z), k)
    return Fraction(num, den * math.factorial(k))


def sheffer_pair(n: int, xval: Scalar) -> tuple[Fraction, Fraction]:
    """``(t_n(x), s_n(x))`` evaluated at a rational point.

    ``t_n(x) = f_(n-1)(x+n)`` comes from the ladder closed form and
    ``s_n(x) = C(x+n+1, n) - (1/2) C(x+n, n-1)`` from generalized binomials;
    the two are tied by ``s_n = t_n / n!`` and the recursion
    ``s_n(x) = s_(n-1)(x) + s_n(x-1)``.
    """
    if n < 0:
        raise IndexOutOfRange("sheffer index must be >= 0")
    x = as_rational(xval)
    t = ladder_closed(n - 1, x + n)
    s = binom_general(x + n + 1, n) - _HALF * binom_general(x + n, n - 1)
    return t, s


def heuristic_bracket_cells(
    max_l: int, max_m: int, max_n: int
) -> list[tuple[int, int, int, bool]]:
    """Evaluate ``(l-m) f_(l+m)(n) = f_l(n-m) f_m(n) - f_m(n-l) f_l(n)``
    cell by cell through the closed forms.

    The commutator derivation only covers ``l + m <= n``; outside that range
    the identity is a conjecture and callers get the raw per-cell outcomes.
    """
    cells = []
    for l in range(-1, max_l + 1):
        for m in range(-1, max_m + 1):
            if l + m < -1:
                continue
            for n in range(max_n + 1):
                lhs = (l - m) * ladder_closed(l + m, n)
                rhs = ladder_closed(l, n - m) * ladder_closed(m, n) - ladder_closed(
                    m, n - l
                ) * ladder_closed(l, n)
                cells.append((l, m, n, lhs == rhs))
    return cells
