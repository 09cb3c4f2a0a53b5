"""The quadratic representation, ladder coefficients, and level shifts."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralcalc import cli
from umbralcalc.errors import (
    IndexOutOfRange,
    NotHomogeneous,
    UnsupportedVariable,
)
from umbralcalc.genseries import GenSeries
from umbralcalc.polyring import (
    MultiPoly,
    accumulate,
    fock_key,
    fock_terms,
    specialize_fock,
    to_univar,
)
from umbralcalc.sampling import random_delta, random_poly, random_rational, rng_for
from umbralcalc.umbral import (
    attached_generating_series,
    attached_polynomial,
    umbral_shift,
)
from umbralcalc.univar import UnivarPoly
from umbralcalc.virasoro import (
    basis_monomials,
    binom_general,
    fock_derivation,
    heisenberg,
    heuristic_bracket_cells,
    ladder_closed,
    ladder_value,
    lowering_powers,
    lowest_weight_vector,
    mode_shift,
    sheffer_pair,
    virasoro,
    weight,
)
from umbralcalc.virasoro import _virasoro_unit

import pair_keys
from pair_keys import from_pairs, shift_exps, to_pairs

F = Fraction
X = MultiPoly.x
Y_VEC = lowest_weight_vector()


# -- Heisenberg modes -----------------------------------------------------------


def test_heisenberg_creation_annihilation():
    assert heisenberg(-1, Y_VEC) == X(1)  # alpha(1) = 1
    assert heisenberg(1, X(1)) == Y_VEC  # beta(1) = 1
    assert heisenberg(0, Y_VEC) == Y_VEC
    assert heisenberg(-3, Y_VEC) == F(1, 2) * X(3)  # alpha(3) = 1/2!
    assert heisenberg(2, X(2) * X(2)) == 4 * X(2)  # 2! * d/dx_2
    assert heisenberg(2, X(1)) == MultiPoly.zero()


def test_heisenberg_relations_small():
    probes = [Y_VEC, X(1), X(2) * X(1), X(3)]
    for m in range(-3, 4):
        for n in range(-3, 4):
            scalar = F(m) if m + n == 0 else F(0)
            for p in probes:
                lhs = heisenberg(m, heisenberg(n, p)) - heisenberg(
                    n, heisenberg(m, p)
                )
                assert lhs == scalar * p


def test_heisenberg_rejects_foreign_variables():
    with pytest.raises(UnsupportedVariable):
        heisenberg(1, MultiPoly.y(0))
    for n in (-2, 0, 3):
        for p in (MultiPoly.y(0) + X(1), MultiPoly.plain_x()):
            with pytest.raises(UnsupportedVariable):
                heisenberg(n, p)


def _heisenberg_oracle(n, p):
    """The general-product ``h(n)``: ``h(n < 0)`` multiplies by the
    ``MultiPoly`` ``x_(-n) / (-n-1)!``; ``h(n > 0)`` runs on pair keys."""
    terms = fock_terms(to_pairs(p))
    if n == 0:
        return p
    if n < 0:
        factor = MultiPoly.x(-n) * Fraction(1, math.factorial(-n - 1))
        return p * factor
    scale = math.factorial(n)
    pairs = [
        (fock_key(shift_exps(xs, (n, -1))), c * e * scale)
        for xs, c in terms
        for j, e in xs
        if j == n
    ]
    return from_pairs(MultiPoly(accumulate({}, pairs)))


def test_heisenberg_matches_oracle_on_monomials():
    for p in basis_monomials(10):
        for n in range(-6, 7):
            assert heisenberg(n, p) == _heisenberg_oracle(n, p), (n, p)


# -- Virasoro modes ---------------------------------------------------------------


def _virasoro_oracle(m, p):
    """``L(m)`` rebuilt from Heisenberg compositions, one monomial at a time:
    ``(1/2) sum_k h(m-k) h(k)``, over the ``k`` that can act on the monomial."""
    out = MultiPoly.zero()
    for key, coeff in p.terms.items():
        mono = MultiPoly({key: coeff})
        indices = set(key[1])
        if m == 0:
            total = mono * F(1, 2)
            for k in indices:
                total = total + heisenberg(-k, heisenberg(k, mono))
        else:
            candidates = indices | {m - j for j in indices}
            if m < 0:
                candidates.update(range(m, 1))
            total = MultiPoly.zero()
            for k in sorted(candidates):
                total = total + heisenberg(m - k, heisenberg(k, mono))
            total = total * F(1, 2)
        out = out + total
    return out


def test_virasoro_matches_heisenberg_oracle_on_monomials():
    for p in basis_monomials(10):
        for m in range(-6, 7):
            assert virasoro(m, p) == _virasoro_oracle(m, p), (m, p)


_MONOMIALS = [next(iter(p.terms)) for p in basis_monomials(8)]
_fock_vectors = st.dictionaries(
    st.sampled_from(_MONOMIALS),
    st.fractions(max_denominator=12).filter(bool),
    min_size=1,
    max_size=6,
).map(MultiPoly)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(-6, 6), p=_fock_vectors)
def test_virasoro_matches_heisenberg_oracle_on_mixed_vectors(m, p):
    assert virasoro(m, p) == _virasoro_oracle(m, p)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(-6, 6), p=_fock_vectors)
def test_heisenberg_matches_oracle_on_mixed_vectors(n, p):
    assert heisenberg(n, p) == _heisenberg_oracle(n, p)


# -- the Fraction kernels the integer ones replaced, kept as oracles ---------------


def _fraction_heisenberg(n, p):
    """``h(n)`` with one ``Fraction`` per output term, on pair keys."""
    terms = fock_terms(to_pairs(p))
    if n == 0:
        return p
    if n < 0:
        scale = Fraction(1, math.factorial(-n - 1))
        return from_pairs(
            MultiPoly({fock_key(shift_exps(xs, (-n, 1))): c * scale for xs, c in terms})
        )
    scale = math.factorial(n)
    pairs = ((xs, c * e * scale) for xs, c in terms for j, e in xs if j == n)
    return from_pairs(MultiPoly({fock_key(shift_exps(xs, (n, -1))): v for xs, v in pairs}))


def _fraction_unit(m, xs):
    """``L(m)`` of the unit monomial with pair-keyed ``xs`` as ``(key, Fraction)`` pairs."""
    if m == 0:
        return ((fock_key(xs), F(1, 2) + sum(j * e for j, e in xs)),)
    exps = dict(xs)
    pairs = []

    def bump(coeff, *delta):
        pairs.append((fock_key(shift_exps(xs, *delta)), coeff))

    fact = math.factorial
    if m > 0:
        if exps.get(m):
            bump(F(fact(m) * exps[m]), (m, -1))
    else:
        bump(F(1, fact(-m - 1)), (-m, 1))
    for k, e in xs:
        if k > m:
            bump(F(fact(k) * e, fact(k - m - 1)), (k, -1), (k - m, 1))
    for k, e in xs:
        j = m - k
        if 0 < j:
            rest = e - 1 if j == k else exps.get(j, 0)
            if rest:
                bump(F(fact(k) * e * fact(j) * rest, 2), (k, -1), (j, -1))
    for a in range(1, -m):
        b = -m - a
        bump(F(1, 2 * fact(a - 1) * fact(b - 1)), (a, 1), (b, 1))
    return tuple(accumulate({}, pairs).items())


def _fraction_virasoro(m, p):
    """``L(m)`` summing ``Fraction`` unit images monomial by monomial."""
    acc = {}
    for xs, c in fock_terms(to_pairs(p)):
        accumulate(acc, ((image, c * v) for image, v in _fraction_unit(m, xs)))
    return from_pairs(MultiPoly(acc))


@settings(max_examples=80, deadline=None)
@given(m=st.integers(-6, 6), p=_fock_vectors)
def test_integer_modes_match_the_fraction_kernels(m, p):
    for integer, oracle in ((virasoro, _fraction_virasoro), (heisenberg, _fraction_heisenberg)):
        image = integer(m, p)
        expect = oracle(m, p)
        assert image == expect
        assert image.terms == expect.terms
        assert image.den > 0 and math.gcd(image.den, *image.nums.values()) == 1


def test_integer_modes_match_the_fraction_kernels_on_monomials():
    for p in basis_monomials(8):
        for m in range(-6, 7):
            assert virasoro(m, p) == _fraction_virasoro(m, p), (m, p)
            assert heisenberg(m, p) == _fraction_heisenberg(m, p), (m, p)


# -- index-tuple keys against the pair-keyed Fock space -----------------------------


def test_monomials_are_partitions_and_match_the_pair_oracle():
    assert [next(iter(p.nums))[1] for p in basis_monomials(4)] == [
        (), (1,), (2,), (1, 1), (3,), (1, 2), (1, 1, 1),
        (4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1),
    ]  # the enumeration order of the pair-keyed basis
    seen = set()
    for p in basis_monomials(10):
        ((ys, xs, px),) = p.nums
        exps = pair_keys.pair_family(xs)
        assert ys == () and px == 0 and list(xs) == sorted(xs) and xs not in seen
        seen.add(xs)
        assert weight(p) == F(1, 2) + sum(j * e for j, e in exps)
        for m in range(-6, 7):
            pairs, den = _virasoro_unit(m, xs)
            expect, expect_den = pair_keys.virasoro_unit(m, exps)
            assert den == expect_den
            assert [(pair_keys.pair_key(k), v) for k, v in pairs] == list(expect)
        assert to_pairs(fock_derivation(p)) == pair_keys.fock_derivation(to_pairs(p))


@settings(max_examples=80, deadline=None)
@given(m=st.integers(-6, 6), p=_fock_vectors)
def test_modes_match_the_pair_oracle(m, p):
    q = to_pairs(p)
    for image, expect in (
        (virasoro(m, p), pair_keys.virasoro(m, q)),
        (heisenberg(m, p), pair_keys.heisenberg(m, q)),
        (fock_derivation(p), pair_keys.fock_derivation(q)),
    ):
        assert to_pairs(image) == expect
        assert str(image) == pair_keys.to_str(expect)


def test_lowest_weight_half():
    assert virasoro(0, Y_VEC) == F(1, 2) * Y_VEC


def test_l_minus_one_on_vacuum():
    assert virasoro(-1, Y_VEC) == X(1)


def test_l_one_lowers_first_step():
    assert virasoro(1, X(1)) == Y_VEC  # f_1(1) = 1


def test_weight_values():
    assert weight(Y_VEC) == F(1, 2)
    assert weight(X(1) * X(3)) == F(9, 2)
    assert weight(X(2) * X(2)) == F(9, 2)
    with pytest.raises(NotHomogeneous):
        weight(X(1) + X(2))
    with pytest.raises(NotHomogeneous):
        weight(MultiPoly.zero())


def test_weight_grading_under_modes():
    for p in basis_monomials(5):
        for m in range(-3, 4):
            image = virasoro(m, p)
            if image:
                assert weight(image) == weight(p) - m


def test_virasoro_bracket_small_window():
    window = basis_monomials(5)
    for m in range(-3, 4):
        for n in range(-3, 4):
            central = F(m**3 - m, 12) if m + n == 0 else F(0)
            for p in window:
                lhs = virasoro(m, virasoro(n, p)) - virasoro(n, virasoro(m, p))
                rhs = (m - n) * virasoro(m + n, p)
                if central:
                    rhs = rhs + central * p
                assert lhs == rhs


def test_l_minus_one_is_the_derivation():
    for p in basis_monomials(6):
        assert virasoro(-1, p) == fock_derivation(p)


def test_annihilation_above_diagonal():
    powers = lowering_powers(6)
    for n in range(7):
        for m in range(n + 1, 7):
            assert virasoro(m, powers[n]) == MultiPoly.zero()


def test_ladder_identity():
    powers = lowering_powers(9)
    for n in range(9):
        for m in range(-1, n + 1):
            expect = ladder_value(m, n) * powers[n - m]
            assert virasoro(m, powers[n]) == expect


def test_basis_monomial_count():
    # partitions of 0..8 sum to 67
    assert len(basis_monomials(8)) == 67


# -- ladder coefficients -------------------------------------------------------------


def test_ladder_boundaries():
    assert ladder_value(-1, 5) == 1
    assert ladder_value(0, 0) == F(1, 2)
    assert all(ladder_value(m, 0) == 0 for m in range(1, 9))


def test_ladder_known_rows():
    for n in range(12):
        assert ladder_value(0, n) == n + F(1, 2)
        assert ladder_value(1, n) == n * n
        assert ladder_value(2, n) == F(n * (n - 1) * (2 * n - 1), 2)
        assert ladder_value(3, n) == n * (n - 1) ** 2 * (n - 2)
        assert ladder_value(4, n) == F(
            n * (n - 1) * (n - 2) * (n - 3) * (2 * n - 3), 2
        )
        assert ladder_value(5, n) == n * (n - 1) * (n - 2) ** 2 * (n - 3) * (n - 4)
        assert ladder_value(6, n) == F(
            n * (n - 1) * (n - 2) * (n - 3) * (n - 4) * (n - 5) * (2 * n - 5), 2
        )
        assert ladder_value(7, n) == (
            n * (n - 1) * (n - 2) * (n - 3) ** 2 * (n - 4) * (n - 5) * (n - 6)
        )


def test_ladder_spot_values():
    assert ladder_value(1, 4) == 16
    assert ladder_value(2, 3) == 15
    assert ladder_value(3, 3) == 12


def test_ladder_closed_matches_recurrence():
    for m in range(-1, 9):
        for n in range(21):
            assert ladder_closed(m, n) == ladder_value(m, n)


def test_ladder_diagonal_recurrence():
    for n in range(1, 10):
        assert ladder_value(n, n) == (n + 1) * ladder_value(n - 1, n - 1)


def test_ladder_summation_identity():
    for m in range(0, 9):
        for n in range(15):
            rhs = ladder_value(m, 0) + (m + 1) * sum(
                ladder_value(m - 1, i) for i in range(n)
            )
            assert ladder_value(m, n) == rhs


def test_ladder_value_deep_column():
    assert ladder_value(3, 5000) == ladder_closed(3, 5000)


# -- the closed forms against their per-factor Fraction loops ---------------------

_points = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=50),
)


def _ladder_closed_loop(m, n):
    """The per-factor ``Fraction`` loop the integer falling factorial replaced."""
    if m == -1:
        return Fraction(1)
    z = Fraction(n)
    prod = Fraction(1)
    for i in range(m):
        prod *= z - i
    return prod * (2 * z - m + 1) / 2


def _binom_loop(z, k):
    """The per-factor ``Fraction`` loop the integer falling factorial replaced."""
    if k < 0:
        return Fraction(0)
    zq = Fraction(z)
    prod = Fraction(1)
    for i in range(k):
        prod *= zq - i
    return prod / math.factorial(k)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(-1, 14), n=_points)
@example(m=-1, n=F(-5, 2))
@example(m=0, n=0)
@example(m=0, n=F(-5, 2))
@example(m=3, n=-4)
def test_ladder_closed_matches_the_fraction_loop(m, n):
    value = ladder_closed(m, n)
    assert type(value) is Fraction
    assert value == _ladder_closed_loop(m, n)


@settings(max_examples=300, deadline=None)
@given(z=_points, k=st.integers(-4, 14))
@example(z=0, k=0)
@example(z=0, k=3)
@example(z=-2, k=-1)
@example(z=F(-7, 3), k=5)
def test_binom_general_matches_the_fraction_loop(z, k):
    value = binom_general(z, k)
    assert type(value) is Fraction
    assert value == _binom_loop(z, k)


def test_ladder_index_guards():
    with pytest.raises(IndexOutOfRange):
        ladder_value(-2, 3)
    with pytest.raises(IndexOutOfRange):
        ladder_value(1, -1)
    with pytest.raises(IndexOutOfRange):
        ladder_closed(-2, 3)


def test_heuristic_cells_derivation_range():
    cells = heuristic_bracket_cells(3, 3, 10)
    assert all(ok for (l, m, n, ok) in cells if l + m <= n)


# -- the value table -------------------------------------------------------------------


def test_ftable_csv(capsys):
    code = cli.main(["fmn-table", "--max-m", "1", "--max-n", "5", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "m,0,1,2,3,4,5"
    assert lines[1] == "-1,1,1,1,1,1,1"
    assert lines[2] == "0,1/2,3/2,5/2,7/2,9/2,11/2"
    assert lines[3] == "1,0,1,4,9,16,25"


def test_ftable_json_roundtrip(capsys):
    code = cli.main(["fmn-table", "--max-m", "2", "--max-n", "4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["max_m"] == 2
    assert payload["rows"]["0"][0] == "1/2"
    assert payload["rows"]["2"] == ["0", "0", "3", "15", "42"]
    assert payload["rows"]["2"] == [str(ladder_value(2, n)) for n in range(5)]


# -- level shifts -------------------------------------------------------------------


def test_mode_shift_level_minus_one_is_umbral_shift():
    rng = rng_for(30, "level-minus-one")
    for _ in range(5):
        b = random_delta(rng, 10)
        p = random_poly(rng, rng.randint(0, 6))
        assert mode_shift(b, -1, p) == umbral_shift(b, p)


def test_mode_shift_level_zero_scales():
    rng = rng_for(31, "level-zero")
    b = random_delta(rng, 8)
    for n in range(7):
        bn = attached_polynomial(b, n)
        assert mode_shift(b, 0, bn) == (n + F(1, 2)) * bn


def test_mode_shift_level_one_on_second_polynomial():
    rng = rng_for(32, "level-one")
    b = random_delta(rng, 6)
    b1 = attached_polynomial(b, 1)
    b2 = attached_polynomial(b, 2)
    assert mode_shift(b, 1, b2) == 4 * b1  # f_1(2) = 4


def test_mode_shift_annihilates_low_indices():
    rng = rng_for(33, "level-kill")
    b = random_delta(rng, 6)
    one = attached_polynomial(b, 0)
    assert mode_shift(b, 2, one) == UnivarPoly.zero()


def test_mode_shift_generating_law():
    rng = rng_for(34, "level-gf")
    order = 8
    b = random_delta(rng, order + 2)
    expansion = attached_generating_series(b, order + 1)
    for m in range(-1, 5):
        lhs = GenSeries(
            [
                mode_shift(b, m, expansion.egf(n)) / F(math.factorial(n))
                for n in range(order + 1)
            ]
        )
        rhs = expansion.differentiate().times_w(m + 1)
        if m >= 0:
            rhs = rhs + expansion.times_w(m) * F(m + 1, 2)
        assert lhs == rhs.truncate(lhs.order)


def test_mode_shift_rejects_low_level():
    b = random_delta(rng_for(35, "level-guard"), 5)
    with pytest.raises(IndexOutOfRange):
        mode_shift(b, -2, UnivarPoly.one())


def test_projection_intertwines_shift():
    # D_B on phi_B(L(-1)^n y) climbs to phi_B(L(-1)^(n+1) y)
    rng = rng_for(36, "umbvir")
    b = random_delta(rng, 10)
    powers = lowering_powers(7)
    images = [to_univar(specialize_fock(v, b)) for v in powers]
    for n in range(6):
        assert images[n] == attached_polynomial(b, n)
        assert umbral_shift(b, images[n]) == images[n + 1]


# -- the referee's Sheffer pair ---------------------------------------------------------


def test_sheffer_boundary_values():
    assert sheffer_pair(0, F(-2)) == (F(1), F(1))
    t1, s1 = sheffer_pair(1, F(-2))
    assert t1 == F(-1, 2)
    assert s1 == F(-1, 2)
    for n in range(2, 9):
        tn, sn = sheffer_pair(n, F(-2))
        assert tn == 0 and sn == 0


def test_sheffer_example_value():
    # s_2(1) = f_1(3)/2! = 9/2 = C(4,2) - (1/2) C(3,1)
    t2, s2 = sheffer_pair(2, F(1))
    assert t2 == ladder_closed(1, F(3)) == 9
    assert s2 == F(9, 2)
    assert binom_general(4, 2) - F(1, 2) * binom_general(3, 1) == F(9, 2)


def test_sheffer_routes_agree_and_recursion_holds():
    rng = rng_for(37, "sheffer")
    for _ in range(10):
        x = random_rational(rng)
        for n in range(9):
            t, s = sheffer_pair(n, x)
            assert s * math.factorial(n) == t
            if n >= 1:
                _, s_prev = sheffer_pair(n - 1, x)
                _, s_left = sheffer_pair(n, x - 1)
                assert s == s_prev + s_left


def test_binom_general():
    assert binom_general(F(7, 2), 2) == F(35, 8)
    assert binom_general(5, -1) == 0
    assert binom_general(F(-1, 2), 0) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: ladder_closed(2, 0.5),
        lambda: binom_general(0.5, 2),
        lambda: sheffer_pair(2, 0.5),
    ],
)
def test_closed_forms_reject_floats(call):
    with pytest.raises(TypeError):
        call()
