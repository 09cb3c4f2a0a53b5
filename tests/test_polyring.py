"""The derivation ring, its exponential, and the substitution maps."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    generic_composite_series,
    specialize_fock,
    specialize_x,
    specialize_y,
    to_univar,
    unit_moves,
)
from umbralcalc.sampling import random_delta, random_multipoly, random_series, rng_for
from umbralcalc.series import TruncatedSeries, _require_delta, _scaled, as_rational, exp_t
from umbralcalc.umbral import composed_expansion
from umbralcalc.univar import UnivarPoly
from umbralcalc.virasoro import basis_monomials

import pair_keys
from pair_keys import index_family, index_key, pair_family, pair_key, shift_exps, to_pairs

F = Fraction

Y = MultiPoly.y
X = MultiPoly.x


# -- monomial keys and sparse sums ----------------------------------------------


def test_cancelling_terms_leave_no_zero_key():
    rng = rng_for(0, "cancel")
    for _ in range(5):
        p = random_multipoly(rng)
        assert (p + (-p)).terms == {}
        assert (p - p).terms == {}
    product = (X(1) + Y(0)) * (X(1) - Y(0))
    assert len(product.terms) == 2
    assert product == X(1) ** 2 - Y(0) ** 2
    assert all(product.terms.values())


def test_accumulate_drops_zero_sums():
    acc = accumulate({"a": F(1)}, [("b", F(2)), ("a", F(-1)), ("b", F(1))])
    assert acc == {"b": F(3)}
    assert accumulate({}, [("a", F(1)), ("a", F(-1)), ("a", F(5))]) == {"a": F(5)}


def test_shift_exps():
    assert shift_exps(((1, 2), (3, 1)), (3, -1), (2, 1)) == ((1, 2), (2, 1))
    assert shift_exps(((1, 1),), (1, -1), (1, 1)) == ((1, 1),)
    assert shift_exps((), *((j, 1) for j in (3, 1, 1))) == ((1, 2), (3, 1))
    with pytest.raises(ValueError):
        shift_exps(((1, 1),), (1, -2))
    # the same monomials as index keys, one entry per unit
    assert index_family(((1, 2), (3, 1))) == (1, 1, 3)
    assert pair_family((1, 1, 3)) == ((1, 2), (3, 1))
    assert (X(3) * X(1) * X(1) * Y(0)).nums == {((0,), (1, 1, 3), 0): 1}


def test_unit_moves():
    assert unit_moves(()) == []
    assert unit_moves((2, 2)) == [((2, 3), 2)]
    assert unit_moves((1, 1, 3)) == [((1, 2, 3), 2), ((1, 1, 4), 1)]
    assert unit_moves((-1, 0, 0)) == [((0, 0, 0), 1), ((-1, 0, 1), 2)]
    for p in basis_monomials(10):
        ((_, xs, _),) = p.nums
        exps = pair_family(xs)
        steps = [(index_family(pair_keys._step(exps, n)), e) for n, (_, e) in enumerate(exps)]
        assert unit_moves(xs) == steps


# -- the derivation ------------------------------------------------------------


def test_derivation_on_generators():
    assert derivation(Y(0)) == Y(1) * X(1)
    assert derivation(X(1)) == X(2)
    assert derivation(Y(-1)) == Y(0) * X(1)


def test_derivation_twice_on_y0():
    expected = Y(2) * X(1) * X(1) + Y(1) * X(2)
    assert derivation(derivation(Y(0))) == expected


def test_derivation_product_rule():
    rng = rng_for(0, "product-rule")
    for _ in range(10):
        p = random_multipoly(rng)
        q = random_multipoly(rng)
        lhs = derivation(p * q)
        rhs = derivation(p) * q + p * derivation(q)
        assert lhs == rhs


def test_derivation_rejects_plain_variables():
    with pytest.raises(UnsupportedVariable):
        derivation(MultiPoly.plain_x())


def test_y_floor():
    with pytest.raises(IndexOutOfRange, match="y-index -5 below floor -4"):
        Y(-5)
    assert Y(-4)
    with pytest.raises(IndexOutOfRange):
        X(0)


# -- e^(wD) ----------------------------------------------------------------------


def test_exp_derivation_order_zero():
    p = Y(0) * X(1)
    assert exp_derivation(p, 0) == GenSeries([p])


def test_exp_derivation_y0_to_order_two():
    gs = exp_derivation(Y(0), 2)
    assert gs.coeff(0) == Y(0)
    assert gs.coeff(1) == Y(1) * X(1)
    assert gs.coeff(2) == F(1, 2) * (Y(2) * X(1) * X(1) + Y(1) * X(2))


def test_exp_derivation_is_algebra_map():
    rng = rng_for(1, "automorphism")
    for _ in range(5):
        p = random_multipoly(rng)
        q = random_multipoly(rng)
        lhs = exp_derivation(p * q, 6)
        rhs = exp_derivation(p, 6) * exp_derivation(q, 6)
        assert lhs == rhs


# -- substitution maps -------------------------------------------------------------


def _b_series(order=8):
    # e^t - 1: EGF coefficients B_j = 1 for j >= 1
    return exp_t(order) - 1


def test_specialize_x_on_generators():
    b = random_delta(rng_for(2, "chi"), 8)
    assert specialize_x(X(2), b) == b.egf(2) * MultiPoly.plain_x()
    assert specialize_x(Y(3), b) == Y(3)
    expected = b.egf(1) * b.egf(2) * MultiPoly.plain_x() ** 2
    assert specialize_x(X(1) * X(2), b) == expected


def test_specialize_x_errors():
    b = _b_series(2)
    with pytest.raises(OrderTooSmall):
        specialize_x(X(3), b)
    with pytest.raises(NotDeltaSeries):
        specialize_x(X(1), exp_t(8))
    with pytest.raises(UnsupportedVariable):
        specialize_x(MultiPoly.plain_x(), _b_series(8))


def test_specialize_x_plain_x_wins_over_an_index_past_the_order():
    """A plain ``x`` anywhere is reported before an ``x_j`` past the order, and
    with neither present a non-delta series is reported first."""
    b = _b_series(2)
    for p in (X(3) + MultiPoly.plain_x(), MultiPoly.plain_x() + X(4) * X(3), X(5) * MultiPoly.plain_x()):
        with pytest.raises(UnsupportedVariable, match="has no plain x"):
            specialize_x(p, b)
    with pytest.raises(NotDeltaSeries):
        specialize_x(X(3) + MultiPoly.plain_x(), exp_t(2))
    with pytest.raises(OrderTooSmall, match="^x-index 3 exceeds series order 2$"):
        specialize_x(Y(1) * X(1) + X(1) * X(3) * X(4) + X(5), b)


def test_specialize_y_on_generators():
    a = random_series(rng_for(3, "psi"), 8)
    assert specialize_y(Y(2), a) == MultiPoly.const(a.egf(2))
    assert specialize_y(MultiPoly.plain_x(), a) == MultiPoly.plain_x()
    lhs = specialize_y(Y(0) * Y(1) * MultiPoly.plain_x() ** 3, a)
    assert lhs == a.egf(0) * a.egf(1) * MultiPoly.plain_x() ** 3


def test_specialize_y_negative_indices_default_to_zero():
    a = random_series(rng_for(4, "psi-neg"), 6)
    assert specialize_y(Y(-1), a) == MultiPoly.zero()
    assert specialize_y(Y(-1), a, extension={-1: F(7)}) == MultiPoly.const(7)


def test_specialize_y_errors():
    a = random_series(rng_for(5, "psi-err"), 2)
    with pytest.raises(OrderTooSmall):
        specialize_y(Y(3), a)
    with pytest.raises(UnsupportedVariable):
        specialize_y(X(1), a)


def test_specialize_fock():
    b = _b_series(8)
    assert specialize_fock(MultiPoly.one(), b) == MultiPoly.one()
    assert specialize_fock(X(3), b) == b.egf(3) * MultiPoly.plain_x()
    assert specialize_fock(X(1) * X(1), b) == b.egf(1) ** 2 * MultiPoly.plain_x() ** 2
    with pytest.raises(UnsupportedVariable):
        specialize_fock(Y(0), b)


def test_homomorphism_laws():
    rng = rng_for(6, "homs")
    b = random_delta(rng, 10)
    a = random_series(rng, 10)
    for _ in range(5):
        p = random_multipoly(rng)
        q = random_multipoly(rng)
        assert specialize_x(p * q, b) == specialize_x(p, b) * specialize_x(q, b)
        xp = specialize_x(p, b)
        xq = specialize_x(q, b)
        assert specialize_y(xp * xq, a) == specialize_y(xp, a) * specialize_y(xq, a)


def test_to_univar():
    p = 3 * MultiPoly.plain_x() ** 2 + MultiPoly.const(F(1, 2))
    assert to_univar(p) == UnivarPoly([F(1, 2), 0, 3])
    with pytest.raises(UnsupportedVariable):
        to_univar(Y(0))


# -- the nested-series expansion ----------------------------------------------------


def test_generic_composite_series_low_orders():
    gs = generic_composite_series(2)
    assert gs.coeff(0) == Y(0)
    assert gs.coeff(1) == Y(1) * X(1)
    assert gs.coeff(2) == F(1, 2) * (Y(2) * X(1) * X(1) + Y(1) * X(2))


def test_generic_composite_matches_exp_derivation():
    assert exp_derivation(Y(0), 10) == generic_composite_series(10)


def test_generic_composite_specializes_to_exp_xw():
    # with B = t and all y-coefficients 1 the whole series becomes e^(xw)
    gs = generic_composite_series(6)
    t = TruncatedSeries.identity(6)
    e = exp_t(6)
    img = gs.map(lambda q: to_univar(specialize_y(specialize_x(q, t), e)))
    x = UnivarPoly.x()
    for k in range(7):
        assert img.coeff(k) == x**k / F(math.factorial(k))


# -- the identity chain: substituted images of y_n and x_n ---------------------------


def test_chain_images_of_y_indices():
    """psi_A chi_B e^(wD) y_n gives the w-expansion of the n-th EGF shift of A
    evaluated at x B(w)."""
    rng = rng_for(7, "chain-y")
    order = 6
    a = random_series(rng, order + 4)
    b = random_delta(rng, order + 4)
    for n in (-1, 0, 1, 2, 3):
        gs = exp_derivation(Y(n), order)
        img = gs.map(lambda q: to_univar(specialize_y(specialize_x(q, b), a)))
        expect = composed_expansion(a.egf_shift(n).truncate(order), b, order)
        assert img == expect


def test_chain_images_of_x_indices():
    """psi_A chi_B e^(wD) x_n gives x times the n-th EGF shift of B."""
    rng = rng_for(8, "chain-x")
    order = 6
    a = random_series(rng, order + 4)
    b = random_delta(rng, order + 4)
    x = UnivarPoly.x()
    for n in (1, 2, 3):
        gs = exp_derivation(X(n), order)
        img = gs.map(lambda q: to_univar(specialize_y(specialize_x(q, b), a)))
        shifted = b.egf_shift(n)
        expect = GenSeries([x * shifted.coeff(k) for k in range(order + 1)])
        assert img == expect


def test_derivation_powers_prefix():
    powers = derivation_powers(Y(0), 3)
    assert len(powers) == 4
    assert powers[1] == derivation(Y(0))
    assert powers[3] == derivation(derivation(derivation(Y(0))))


# -- exact scalars only --------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiPoly({((), (), 0): 0.5}),
        lambda: MultiPoly({((), (), 0): 0.0}),
        lambda: MultiPoly.const(0.5),
        lambda: Y(0) * 0.5,
        lambda: 0.5 * Y(0),
        lambda: Y(0) + 0.5,
        lambda: Y(0) - 0.5,
        lambda: 0.5 - Y(0),
    ],
)
def test_multipoly_rejects_floats(build):
    with pytest.raises(TypeError):
        build()


def test_multipoly_coefficients_are_fractions():
    p = MultiPoly({((), (), 0): 3, ((), (1,), 0): F(1, 2)})
    assert all(type(c) is Fraction for c in p.terms.values())
    assert MultiPoly.const(2).coefficient(((), (), 0)) == 2
    assert (X(2) ** 3 * Y(-1) * F(1, 3)).coefficient(((-1,), (2, 2, 2), 0)) == F(1, 3)


@pytest.mark.parametrize(
    "base",
    [Y(0) * F(2, 3) - X(1) + 1, GenSeries([Y(0), X(1) * F(1, 2), MultiPoly.const(-3)])],
    ids=["MultiPoly", "GenSeries"],
)
def test_ring_powers_square_from_the_base(monkeypatch, base):
    """``p ** n`` makes ``floor(log2 n) + popcount(n) - 1`` products, none with one."""
    cls, calls = type(base), []
    mul = cls.__mul__

    def counted(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    powers = []
    for n in range(1, 17):
        calls.clear()
        powers.append(base**n)
        assert len(calls) == n.bit_length() + bin(n).count("1") - 2, n
    monkeypatch.undo()
    product = base
    for n, power in enumerate(powers, 1):
        assert power == product, n
        product = product * base


# -- the stored pair: integer numerators over one denominator ------------------------


# keys over y_-1, y_0, y_2, x_1, x_3 and the plain x, up to degree 2 in each family
_KEYS = [
    ((i,) * a, (j,) * b, px)
    for i in (-1, 0, 2)
    for a in (0, 1, 2)
    for j in (1, 3)
    for b in (0, 1, 2)
    for px in (0, 1)
]
_polys = st.dictionaries(
    st.sampled_from(_KEYS),
    st.fractions(min_value=-50, max_value=50, max_denominator=24),
    max_size=6,
).map(MultiPoly)


def _fraction_add(p, q):
    """``p + q`` with one ``Fraction`` sum per key."""
    return accumulate(dict(p.terms), q.terms.items())


def _fraction_mul(p, q):
    """``p * q`` with one ``Fraction`` product per pair of terms, on pair keys."""
    products = (
        ((shift_exps(k1[0], *k2[0]), shift_exps(k1[1], *k2[1]), k1[2] + k2[2]), v1 * v2)
        for k1, v1 in to_pairs(p).terms.items()
        for k2, v2 in to_pairs(q).terms.items()
    )
    return {index_key(k): v for k, v in accumulate({}, products).items()}


def _canonical(p):
    return p.den > 0 and math.gcd(p.den, *p.nums.values()) == 1 and all(p.nums.values())


@settings(max_examples=150, deadline=None)
@given(p=_polys, q=_polys, c=st.fractions(max_denominator=12))
def test_integer_arithmetic_matches_the_fraction_oracle(p, q, c):
    assert (p + q).terms == _fraction_add(p, q)
    assert (p - q).terms == _fraction_add(p, -q)
    assert (p * q).terms == _fraction_mul(p, q)
    assert (p * c).terms == {k: v * c for k, v in p.terms.items() if v * c}
    assert all(_canonical(r) for r in (p, q, p + q, p - q, p * q, p * c, -p))


@settings(max_examples=100, deadline=None)
@given(p=_polys, q=_polys)
def test_equal_values_have_equal_pairs_and_hashes(p, q):
    round_trip = (p + q) - q
    assert round_trip == p
    assert (round_trip.nums, round_trip.den) == (p.nums, p.den)
    assert hash(round_trip) == hash(p)
    assert MultiPoly(p.terms) == p
    assert MultiPoly.from_pair({k: 6 * v for k, v in p.nums.items()}, 6 * p.den) == p
    difference = p - p
    assert (difference.nums, difference.den) == ({}, 1)


def test_pair_is_reduced_and_terms_keep_their_values():
    half = MultiPoly({((), (), 0): F(1, 2), ((), (1,), 0): F(3, 4)})
    assert (half.nums, half.den) == ({((), (), 0): 2, ((), (1,), 0): 3}, 4)
    doubled = half * 2
    assert (doubled.nums, doubled.den) == ({((), (), 0): 2, ((), (1,), 0): 3}, 2)
    assert doubled.terms == {((), (), 0): F(1), ((), (1,), 0): F(3, 2)}
    assert (half + half) == doubled and (half - half) == MultiPoly.zero()


# -- index-tuple keys against the pair-keyed ring ------------------------------------


def _monomials(max_factors):
    """Products of the public generators: ``y_i``, ``x_j`` and the plain ``x``."""
    factor = st.one_of(
        st.integers(-2, 4).map(Y), st.integers(1, 5).map(X), st.just(MultiPoly.plain_x())
    )
    return st.lists(factor, max_size=max_factors).map(
        lambda fs: math.prod(fs, start=MultiPoly.one())
    )


def _ring_polys(plain=True):
    mono = _monomials(5)
    if not plain:
        mono = mono.filter(lambda m: not m.uses_plain_x)
    term = st.tuples(mono, st.fractions(-20, 20, max_denominator=9))
    return st.lists(term, max_size=5).map(
        lambda ts: sum((m * c for m, c in ts), MultiPoly.const(0))
    )


def _same_as_pairs(p, oracle):
    """``p`` prints, compares and sorts as the pair-keyed ``oracle`` does."""
    assert to_pairs(p) == oracle
    assert pair_keys.from_pairs(oracle) == p
    assert str(p) == pair_keys.to_str(oracle)
    assert [pair_key(k) for k, _ in p.sorted_terms()] == sorted(oracle.nums)
    assert all(list(k[0]) == sorted(k[0]) and list(k[1]) == sorted(k[1]) for k in p.nums)


@settings(max_examples=150, deadline=None)
@given(p=_ring_polys(), q=_ring_polys())
def test_index_keys_match_the_pair_oracle_on_products(p, q):
    _same_as_pairs(p, to_pairs(p))
    _same_as_pairs(p * q, pair_keys.mul(to_pairs(p), to_pairs(q)))
    assert (p == q) == (to_pairs(p) == to_pairs(q))
    assert (p + q) == pair_keys.from_pairs(to_pairs(p) + to_pairs(q))


@settings(max_examples=100, deadline=None)
@given(p=_ring_polys(plain=False), count=st.integers(0, 5))
def test_index_keys_match_the_pair_oracle_on_derivation_levels(p, count):
    levels = pair_keys.derivation_levels(to_pairs(p), count)
    for got, want in zip(derivation_powers(p, count), levels, strict=True):
        _same_as_pairs(got, want)


@settings(max_examples=100, deadline=None)
@given(p=_ring_polys(plain=False), seed=st.integers(0, 10**6))
def test_substitutions_match_the_pair_oracle(p, seed):
    """Both substitutions of ``p`` and ``D^2 p`` against the pair-keyed
    ``_substitute``, fed the same integer values over one denominator."""
    rng = rng_for(seed, "substitute")
    b, a = random_delta(rng, 8), random_series(rng, 8)
    for q in (p, derivation_powers(p, 2)[2]):
        values, d = _scaled([b.egf(j) for j in range(9)])
        image = specialize_x(q, b)
        _same_as_pairs(image, pair_keys._substitute(to_pairs(q), 1, values, d))
        ys = sorted({i for key in image.nums for i in key[0]})
        values, d = _scaled([a.egf(i) if i >= 0 else F(0) for i in ys])
        expect = pair_keys._substitute(to_pairs(image), 0, dict(zip(ys, values)), d)
        _same_as_pairs(specialize_y(image, a), expect)


# -- the substitutions against the Fraction-valued route they replaced ---------------


def _specialize_x_oracle(p, b):
    """Substitute ``x_j -> B_j * x`` with values cleared from their ``Fraction``s."""
    _require_delta(b)
    if p.uses_plain_x:
        raise UnsupportedVariable("domain of the x-substitution has no plain x")
    top = max((xs[-1] for _, xs, _ in p.nums if xs), default=0)
    if top > b.order:
        j = next(j for _, xs, _ in p.nums for j in xs if j > b.order)
        raise OrderTooSmall(f"x-index {j} exceeds series order {b.order}")
    values, d = _scaled([b.egf(j) for j in range(top + 1)])
    return _substitute_oracle(p, 1, values, d)


def _specialize_y_oracle(p, a, extension=None):
    """Substitute ``y_i -> A_i`` with values cleared from their ``Fraction``s."""
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
    return _substitute_oracle(p, 0, dict(zip(values, nums)), d)


def _substitute_oracle(p, family, values, d):
    """Replace each ``y_i`` (``family`` 0) or each ``x_j`` (``family`` 1) by
    ``values[index] / d``; an ``x_j`` of total degree ``e`` becomes ``x^e``."""
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


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of its exception."""
    try:
        return fn(*args)
    except (NotDeltaSeries, OrderTooSmall, UnsupportedVariable) as exc:
        return type(exc), str(exc)


def _y_monomials(max_factors):
    """Products of ``y_-4 .. y_5`` and the plain ``x``, now and then an ``x_j``."""
    factor = st.one_of(
        st.integers(-4, 5).map(Y), st.just(MultiPoly.plain_x()), st.integers(-4, 5).map(Y)
    )
    mono = st.lists(factor, max_size=max_factors).map(lambda fs: math.prod(fs, start=MultiPoly.one()))
    return st.one_of(mono, mono, mono, _monomials(3))


_terms = st.tuples(_y_monomials(5), st.fractions(-20, 20, max_denominator=9))
_y_polys = st.lists(_terms, max_size=6).map(lambda ts: sum((m * c for m, c in ts), MultiPoly.const(0)))
_extensions = st.one_of(
    st.none(),
    st.dictionaries(st.integers(-4, -1), st.fractions(-30, 30, max_denominator=12), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(p=_ring_polys(), order=st.integers(1, 8), seed=st.integers(0, 10**6), delta=st.booleans())
def test_specialize_x_matches_the_fraction_values(p, order, seed, delta):
    rng = rng_for(seed, "substitute-x")
    b = random_delta(rng, order) if delta else random_series(rng, order)
    for q in (p, p * X(order + 1)):  # the second is past the order unless p is zero
        assert _outcome(specialize_x, q, b) == _outcome(_specialize_x_oracle, q, b)


@settings(max_examples=200, deadline=None)
@given(p=_y_polys, order=st.integers(0, 6), seed=st.integers(0, 10**6), ext=_extensions)
@example(
    p=Y(-1) * Y(-3) * MultiPoly.plain_x() + Y(2) * Y(-1) * F(3, 7) + Y(-4),
    order=3,
    seed=0,
    ext={-1: F(5, 6), -3: F(-7, 4), -4: 2},
)
def test_specialize_y_matches_the_fraction_values(p, order, seed, ext):
    a = random_series(rng_for(seed, "substitute-y"), order)
    assert _outcome(specialize_y, p, a, ext) == _outcome(_specialize_y_oracle, p, a, ext)


@pytest.mark.parametrize("order", [4, 12])
def test_substitutions_of_egf_values_in_lower_terms_than_the_series(order):
    """``e^t - 1`` and ``e^t`` are stored over ``order!``, yet every EGF value
    is 1: e^(wD) y_0 under both substitutions is e^(x(e^w - 1)), whose ``w^n``
    coefficient times ``n!`` is the Touchard polynomial."""
    e = exp_t(order)
    images = []
    for q in exp_derivation(Y(0), order).coeffs:
        image = specialize_x(q, e - 1)
        assert image == _specialize_x_oracle(q, e - 1)
        images.append(specialize_y(image, e))
        assert images[-1] == _specialize_y_oracle(image, e)
    assert to_univar(images[3]) * 6 == UnivarPoly([0, 1, 3, 1])
