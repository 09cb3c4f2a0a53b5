"""The umbral-side kernels against the Fraction loops they replaced.

Each oracle below is the earlier ``Fraction``-arithmetic implementation,
copied verbatim except for its name (and the names of the oracles it calls):
the power table ``composed_expansion`` and every umbral operation that reads
it, ``F(d/dx)`` on polynomials, the derivation ``D`` with its powers and
exponential, and the two substitutions.  ``functional_shift_oracle`` is the earlier derivation-ring
route of the functional shift, which now reads the power table instead.
The ring oracles read and write the earlier ``(index, exponent)`` pair keys,
so they run through :func:`via_pairs`, which converts keys with
``tests/pair_keys.py``.  The kernels must agree with them exactly,
``Fraction`` for ``Fraction``, and must raise the same exception type with the
same message on every input outside their domain.
"""

import math
from fractions import Fraction
from typing import Mapping, Optional, Union

from hypothesis import example, given, settings, strategies as st

from umbralcalc.errors import (
    IndexOutOfRange,
    NotDeltaSeries,
    OrderTooSmall,
    UnsupportedVariable,
)
from umbralcalc.genseries import GenSeries
from umbralcalc.polyring import (
    MultiPoly,
    accumulate,
    derivation,
    derivation_powers,
    exp_derivation,
    specialize_x,
    specialize_y,
    to_univar,
)
from umbralcalc.series import TruncatedSeries, exp_t
from umbralcalc.umbral import (
    apply_series_in_ddx,
    attached_basis_expansion,
    attached_polynomial,
    attached_sum,
    basis_coordinates,
    composed_expansion,
    functional_shift,
    power_table,
    umbral_operator,
    umbral_shift,
)
from umbralcalc.univar import UnivarPoly
from umbralcalc.virasoro import ladder_value, mode_shift

from pair_keys import from_pairs, shift_exps, to_pairs

_ZERO = Fraction(0)
Scalar = Union[int, Fraction]


# -- oracles: the Fraction loops -------------------------------------------------


def composed_expansion_oracle(a: TruncatedSeries, b: TruncatedSeries, order: int) -> GenSeries:
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


def attached_generating_series_oracle(b: TruncatedSeries, order: int) -> GenSeries:
    """The expansion of ``e^(x B(w))``; coefficient of ``w^n`` is ``B_n(x)/n!``."""
    return composed_expansion_oracle(exp_t(order), b, order)


def attached_polynomial_oracle(b: TruncatedSeries, n: int) -> UnivarPoly:
    """``B_n(x) = n! * [w^n] e^(x B(w))``; degree exactly ``n``."""
    if n < 0:
        raise ValueError("attached polynomials are indexed by n >= 0")
    if b.order < n:
        raise OrderTooSmall(f"need series order {n}, have {b.order}")
    gs = attached_generating_series_oracle(b, n)
    return gs.coeff(n) * Fraction(math.factorial(n))


def umbral_operator_oracle(b: TruncatedSeries, p: UnivarPoly) -> UnivarPoly:
    """Linear extension of ``x^n -> B_n(x)``; preserves degree."""
    if not p:
        return UnivarPoly.zero()
    d = p.degree
    if b.order < d:
        raise OrderTooSmall(f"need series order {d}, have {b.order}")
    gs = attached_generating_series_oracle(b, d)
    out = UnivarPoly.zero()
    for n, c in enumerate(p.coeffs):
        if c:
            out = out + gs.coeff(n) * (c * Fraction(math.factorial(n)))
    return out


def attached_basis_expansion_oracle(b: TruncatedSeries, p: UnivarPoly) -> list[Fraction]:
    """Coordinates of ``p`` in the basis ``B_0, ..., B_deg(p)``.

    The coefficient matrix is triangular with diagonal ``B_1^n != 0``, so a
    single back-substitution pass suffices.
    """
    if not p:
        return []
    d = p.degree
    if b.order < d:
        raise OrderTooSmall(f"need series order {d}, have {b.order}")
    gs = attached_generating_series_oracle(b, d)
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


def umbral_shift_oracle(b: TruncatedSeries, p: UnivarPoly) -> UnivarPoly:
    """Linear extension of ``B_n -> B_(n+1)``; raises degree by one."""
    if not p:
        return UnivarPoly.zero()
    d = p.degree
    if b.order < d + 1:
        raise OrderTooSmall(f"need series order {d + 1}, have {b.order}")
    coords = attached_basis_expansion_oracle(b, p)
    gs = attached_generating_series_oracle(b, d + 1)
    out = UnivarPoly.zero()
    for n, c in enumerate(coords):
        if c:
            out = out + gs.coeff(n + 1) * (c * Fraction(math.factorial(n + 1)))
    return out


def functional_shift_oracle(
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
    coords = attached_basis_expansion_oracle(b, p)
    powers = derivation_powers_oracle(to_pairs(MultiPoly.y(0)), d + 1)
    out = UnivarPoly.zero()
    for n, c in enumerate(coords):
        if c:
            image = to_univar(specialize_y_oracle(specialize_x_oracle(powers[n + 1], b), a))
            out = out + c * image
    return out


def mode_shift_oracle(b: TruncatedSeries, m: int, p: UnivarPoly) -> UnivarPoly:
    """The level-``m`` attached shift: linear extension of
    ``B_n -> f_m(n) B_(n-m)`` (``B_k = 0`` for ``k < 0``).

    ``m = -1`` reproduces the classical umbral shift.
    """
    if m < -1:
        raise IndexOutOfRange(f"mode index must be >= -1, got {m}")
    if not p:
        return UnivarPoly.zero()
    d = p.degree
    top = max(d, d - m)
    if b.order < top:
        raise OrderTooSmall(f"need series order {top}, have {b.order}")
    coords = attached_basis_expansion_oracle(b, p)
    gs = attached_generating_series_oracle(b, top)
    out = UnivarPoly.zero()
    for n, c in enumerate(coords):
        if not c:
            continue
        k = n - m
        if k < 0:
            continue
        f = ladder_value(m, n)
        if f:
            out = out + gs.coeff(k) * (c * f * Fraction(math.factorial(k)))
    return out


def apply_series_in_ddx_oracle(f: TruncatedSeries, p: UnivarPoly) -> UnivarPoly:
    """Apply ``F(d/dx)`` to a polynomial: ``sum f_j p^(j)(x)``."""
    if p.degree > f.order:
        raise OrderTooSmall(
            f"operator series of order {f.order} applied to degree {p.degree}"
        )
    out = UnivarPoly.zero()
    q = p
    for c in f.coeffs[: p.degree + 1]:
        if c:
            out = out + c * q
        q = q.derivative()
    return out


def derivation_oracle(p: MultiPoly) -> MultiPoly:
    """Apply ``D`` (``D y_i = y_(i+1) x_1``, ``D x_j = x_(j+1)``) once."""
    pairs = []
    for (ys, xs, px), c in p.terms.items():
        if px:
            raise UnsupportedVariable("derivation domain has no plain x")
        for i, e in ys:
            key = (shift_exps(ys, (i, -1), (i + 1, 1)), shift_exps(xs, (1, 1)), 0)
            pairs.append((key, c * e))
        for j, e in xs:
            pairs.append(((ys, shift_exps(xs, (j, -1), (j + 1, 1)), 0), c * e))
    return MultiPoly(accumulate({}, pairs))


def derivation_powers_oracle(p: MultiPoly, count: int) -> list[MultiPoly]:
    """The list ``[p, Dp, D^2 p, ..., D^count p]``."""
    out = [p]
    for _ in range(count):
        out.append(derivation_oracle(out[-1]))
    return out


def exp_derivation_oracle(p: MultiPoly, order: int) -> GenSeries:
    """Truncated expansion of ``e^(wD) p``: coefficient of ``w^k`` is ``D^k p / k!``."""
    powers = derivation_powers_oracle(p, order)
    return GenSeries(
        [q * Fraction(1, math.factorial(k)) for k, q in enumerate(powers)]
    )


def _require_delta(b: TruncatedSeries) -> None:
    if not b.is_delta:
        raise NotDeltaSeries("substitution series must be delta")


def specialize_x_oracle(p: MultiPoly, b: TruncatedSeries) -> MultiPoly:
    """Substitute ``x_j -> B_j * x`` (EGF coefficient of the delta series ``b``).

    Fixes every ``y_i``; the image lives in ``C[..., y_i, ..., x]``.
    """
    _require_delta(b)
    if p.uses_plain_x:
        raise UnsupportedVariable("domain of the x-substitution has no plain x")
    pairs = []
    for (ys, xs, px), c in p.terms.items():
        mult = c
        degree = 0
        for j, e in xs:
            if j > b.order:
                raise OrderTooSmall(
                    f"x-index {j} exceeds series order {b.order}"
                )
            mult *= b.egf(j) ** e
            degree += e
        pairs.append(((ys, (), degree), mult))
    return MultiPoly(accumulate({}, pairs))


def specialize_y_oracle(
    p: MultiPoly,
    a: TruncatedSeries,
    extension: Optional[Mapping[int, Scalar]] = None,
) -> MultiPoly:
    """Substitute ``y_i -> A_i`` (EGF coefficient of ``a``), fixing plain ``x``.

    Negative indices draw on the extended sequence (default all zero).
    """
    ext = extension or {}
    pairs = []
    for (ys, xs, px), c in p.terms.items():
        if xs:
            raise UnsupportedVariable("domain of the y-substitution has no x_j")
        mult = c
        for i, e in ys:
            if i < 0:
                value = Fraction(ext.get(i, 0))
            elif i > a.order:
                raise OrderTooSmall(f"y-index {i} exceeds series order {a.order}")
            else:
                value = a.egf(i)
            mult *= value ** e
        pairs.append((((), (), px), mult))
    return MultiPoly(accumulate({}, pairs))


# -- operands ----------------------------------------------------------------------

def nonzero_up_to(top):
    """Nonzero rationals with numerator and denominator up to ``top``."""
    sign = st.sampled_from((1, -1))
    return st.builds(
        lambda s, n, d: Fraction(s * n, d), sign, st.integers(1, top), st.integers(1, top)
    )


nonzero = st.one_of(nonzero_up_to(9), nonzero_up_to(10**6))
# zero coefficients make sparse series
coefficients = st.one_of(st.just(_ZERO), nonzero)


def series(min_order=0, max_order=17, head=()):
    """Series whose leading coefficients are drawn from the strategies ``head``."""
    return st.integers(max(min_order, len(head) - 1), max_order).flatmap(
        lambda n: st.tuples(
            st.tuples(*head), st.lists(coefficients, min_size=n + 1, max_size=n + 1)
        ).map(lambda p: TruncatedSeries(list(p[0]) + p[1][len(p[0]):]))
    )


def deltas(min_order=1):
    return series(min_order=min_order, head=(st.just(_ZERO), nonzero))


delta = deltas()
# mostly delta, sometimes not, so the NotDeltaSeries path is exercised
substitutions = st.one_of(delta, delta, delta, series())


def exps(indices):
    if indices is None:
        return st.just(())
    pairs = st.lists(st.tuples(indices, st.integers(1, 3)), max_size=3)
    return pairs.map(lambda ps: tuple(sorted(dict(ps).items())))


def polys(y_indices=st.integers(-4, 6), x_indices=st.integers(1, 8), plain=st.just(0)):
    """Random ``MultiPoly`` with non-integral coefficients."""
    keys = st.tuples(exps(y_indices), exps(x_indices), plain)
    pair_keyed = st.lists(st.tuples(keys, nonzero), max_size=8).map(lambda ps: MultiPoly(dict(ps)))
    return pair_keyed.map(from_pairs)


def via_pairs(oracle):
    """``oracle`` on pair keys, taking and returning index keys."""
    return lambda *args: from_pairs(oracle(*[to_pairs(a) for a in args]))


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of its exception."""
    try:
        return fn(*args)
    except (NotDeltaSeries, OrderTooSmall, UnsupportedVariable, IndexOutOfRange) as exc:
        return type(exc), str(exc)


def fractions_only(result):
    """Assert every coefficient of a kernel result is a ``Fraction``."""
    if isinstance(result, GenSeries):
        for c in result.coeffs:
            fractions_only(c)
    elif isinstance(result, list):
        for c in result:
            fractions_only(c)
    elif isinstance(result, UnivarPoly):
        assert all(type(c) is Fraction for c in result.coeffs)
    elif isinstance(result, MultiPoly):
        assert all(type(c) is Fraction for c in result.terms.values())


def same(fn, oracle, *args):
    got, want = outcome(fn, *args), outcome(oracle, *args)
    assert got == want
    fractions_only(got)


# -- cross-checks --------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(series(), substitutions, st.integers(0, 16))
def test_composed_expansion_matches_fraction_loop(a, b, order):
    same(composed_expansion, composed_expansion_oracle, a, b, order)


@settings(max_examples=40, deadline=None)
@given(series(min_order=16), deltas(16))
def test_composed_expansion_at_order_sixteen(a, b):
    same(composed_expansion, composed_expansion_oracle, a, b, 16)


univar = st.integers(0, 16).flatmap(
    lambda n: st.lists(coefficients, min_size=n + 1, max_size=n + 1)
).map(UnivarPoly)


@settings(max_examples=60, deadline=None)
@given(substitutions, st.integers(0, 16))
def test_attached_polynomial_matches_fraction_loop(b, n):
    same(attached_polynomial, attached_polynomial_oracle, b, n)


@settings(max_examples=60, deadline=None)
@given(substitutions, univar)
def test_umbral_operator_matches_fraction_loop(b, p):
    same(umbral_operator, umbral_operator_oracle, b, p)


@settings(max_examples=60, deadline=None)
@given(substitutions, univar)
def test_attached_basis_expansion_matches_fraction_loop(b, p):
    same(attached_basis_expansion, attached_basis_expansion_oracle, b, p)


@settings(max_examples=60, deadline=None)
@given(substitutions, univar)
def test_umbral_shift_matches_fraction_loop(b, p):
    same(umbral_shift, umbral_shift_oracle, b, p)


@settings(max_examples=80, deadline=None)
@given(substitutions, st.integers(-2, 5), univar)
def test_mode_shift_matches_fraction_loop(b, m, p):
    same(mode_shift, mode_shift_oracle, b, m, p)


@settings(max_examples=120, deadline=None)
@given(series(), univar | st.just(UnivarPoly.zero()))
def test_apply_series_in_ddx_matches_fraction_loop(f, p):
    same(apply_series_in_ddx, apply_series_in_ddx_oracle, f, p)


# a delta series of order at least n and a polynomial of degree at most n
# (the empty list is the zero polynomial, one entry a constant)
coordinate_cases = st.integers(0, 16).flatmap(
    lambda n: st.tuples(deltas(max(n, 1)), st.lists(coefficients, max_size=n + 1).map(UnivarPoly))
)


@settings(max_examples=80, deadline=None)
@given(coordinate_cases)
@example((TruncatedSeries([0, 1]), UnivarPoly.zero()))
@example((TruncatedSeries([0, Fraction(-2, 3), 5]), UnivarPoly([Fraction(7, 4)])))
def test_attached_sum_inverts_basis_coordinates(case):
    b, p = case
    table = power_table(b, b.order)
    vs, den = basis_coordinates(table, p)
    assert all(type(v) is int for v in vs) and type(den) is int and den > 0
    assert attached_sum(table, vs, den) == p


small_univar = st.integers(0, 10).flatmap(
    lambda n: st.lists(coefficients, min_size=n + 1, max_size=n + 1)
).map(UnivarPoly)
# zero A, A = e^t, and random A (sparse, short, or longer than deg(p) + 1)
functionals = st.one_of(
    series(),
    series(),
    st.integers(0, 17).map(lambda n: TruncatedSeries([0] * (n + 1))),
    st.integers(0, 17).map(exp_t),
)


@settings(max_examples=150, deadline=None)
@given(functionals, substitutions, small_univar)
def test_functional_shift_matches_derivation_ring(a, b, p):
    same(functional_shift, functional_shift_oracle, a, b, p)


@settings(max_examples=40, deadline=None)
@given(series(min_order=11), deltas(11), small_univar)
def test_functional_shift_matches_derivation_ring_in_range(a, b, p):
    same(functional_shift, functional_shift_oracle, a, b, p)


# plain x turns up now and then, so the UnsupportedVariable path is exercised
ring_polys = polys(plain=st.sampled_from([0] * 9 + [1]))


@settings(max_examples=120, deadline=None)
@given(ring_polys)
def test_derivation_matches_fraction_loop(p):
    same(derivation, via_pairs(derivation_oracle), p)


@settings(max_examples=60, deadline=None)
@given(ring_polys, st.integers(0, 6))
def test_derivation_powers_match_fraction_loop(p, count):
    same(derivation_powers, via_pairs(derivation_powers_oracle), p, count)


@settings(max_examples=60, deadline=None)
@given(ring_polys, st.integers(0, 6))
def test_exp_derivation_matches_fraction_loop(p, order):
    same(exp_derivation, via_pairs(exp_derivation_oracle), p, order)


def test_exp_derivation_of_y0_matches_fraction_loop():
    for order in range(17):
        same(exp_derivation, via_pairs(exp_derivation_oracle), MultiPoly.y(0), order)


@settings(max_examples=150, deadline=None)
@given(polys(plain=st.sampled_from([0] * 9 + [2])), substitutions)
def test_specialize_x_matches_fraction_loop(p, b):
    same(specialize_x, via_pairs(specialize_x_oracle), p, b)


extensions = st.one_of(
    st.none(), st.lists(st.tuples(st.integers(-4, -1), coefficients), max_size=4).map(dict)
)


y_polys = polys(x_indices=None, plain=st.integers(0, 4))
# the x_j family turns up now and then, so the UnsupportedVariable path is exercised
mixed_polys = st.one_of(y_polys, y_polys, y_polys, polys(plain=st.integers(0, 4)))


@settings(max_examples=200, deadline=None)
@given(mixed_polys, series(), extensions)
def test_specialize_y_matches_fraction_loop(p, a, ext):
    same(specialize_y, via_pairs(specialize_y_oracle), p, a, ext)


@settings(max_examples=40, deadline=None)
@given(series(min_order=7), deltas(7), extensions)
def test_both_substitutions_of_exp_derivation(a, b, ext):
    for q in exp_derivation(MultiPoly.y(0), 7).coeffs:
        same(specialize_x, via_pairs(specialize_x_oracle), q, b)
        image = via_pairs(specialize_x_oracle)(q, b)
        same(specialize_y, via_pairs(specialize_y_oracle), image, a, ext)


def test_error_messages_are_unchanged():
    b = TruncatedSeries([0, 1, 2])
    p = MultiPoly.x(3) + MultiPoly.x(5) * MultiPoly.x(4)
    assert outcome(specialize_x, p, b) == outcome(via_pairs(specialize_x_oracle), p, b)
    assert outcome(specialize_x, p, b)[0] is OrderTooSmall
    assert outcome(composed_expansion, b, TruncatedSeries([1, 1]), 1)[0] is NotDeltaSeries
    assert outcome(derivation, MultiPoly.plain_x())[0] is UnsupportedVariable
    q = MultiPoly.y(5) * MultiPoly.y(9)
    assert outcome(specialize_y, q, b) == outcome(via_pairs(specialize_y_oracle), q, b)
