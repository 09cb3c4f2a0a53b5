"""Pairing, attached sequences, umbral operators, shifts, and adjoints."""

import math
import sys
from fractions import Fraction

import pytest

from umbralcalc.errors import NotDeltaSeries, OrderTooSmall, UnknownIdentityTag
from umbralcalc.genseries import GenSeries
from umbralcalc.polyring import MultiPoly, specialize_y, to_univar
from umbralcalc.sampling import (
    random_delta,
    random_poly,
    random_rational,
    random_series,
    rng_for,
)
from umbralcalc.series import TruncatedSeries, exp_series, exp_t
from umbralcalc.umbral import (
    attached_basis_expansion,
    attached_generating_series,
    attached_polynomial,
    check_adjoint,
    functional_shift,
    pairing,
    pairing_series,
    umbral_operator,
    umbral_shift,
)
from umbralcalc.univar import UnivarPoly

F = Fraction

X = UnivarPoly.x()


def bell_b(order):
    return exp_t(order) - 1  # e^t - 1


# -- pairing -------------------------------------------------------------------


def test_pairing_dual_basis():
    for k in range(5):
        a = TruncatedSeries([0] * k + [F(1, math.factorial(k))], order=6)
        for n in range(6):
            assert pairing(a, X**n) == (1 if n == k else 0)


def test_pairing_exponential_functional_sums_coefficients():
    p = UnivarPoly([2, 0, F(3, 4), 1])
    assert pairing(exp_t(5), p) == 2 + F(3, 4) + 1


def test_pairing_order_guard():
    with pytest.raises(OrderTooSmall):
        pairing(TruncatedSeries.one(1), X**3)


def test_pairing_series_recovers_functional():
    # <A(v) | e^(xw)> = A(w), coefficientwise in w
    rng = rng_for(10, "pair-series")
    a = random_series(rng, 7)
    e_xw = attached_generating_series(TruncatedSeries.identity(7), 7)
    assert pairing_series(a, e_xw) == a


# -- attached sequences -----------------------------------------------------------


def test_attached_identity_series_gives_monomials():
    t = TruncatedSeries.identity(8)
    for n in range(7):
        assert attached_polynomial(t, n) == X**n


def test_attached_bell_polynomials():
    b = bell_b(8)
    assert attached_polynomial(b, 0) == UnivarPoly.one()
    assert attached_polynomial(b, 1) == X
    assert attached_polynomial(b, 2) == UnivarPoly([0, 1, 1])  # x + x^2
    assert attached_polynomial(b, 3) == UnivarPoly([0, 1, 3, 1])  # x + 3x^2 + x^3


def test_attached_degree_and_leading_coefficient():
    rng = rng_for(11, "attached-deg")
    for _ in range(5):
        b = random_delta(rng, 9)
        for n in range(9):
            p = attached_polynomial(b, n)
            assert p.degree == n
            assert p.coeff(n) == b.egf(1) ** n


def test_attached_scalar_substitution_oracle():
    # B_n(c) = n! [w^n] exp(c B(w))
    rng = rng_for(12, "attached-scalar")
    b = random_delta(rng, 8)
    for _ in range(4):
        c = random_rational(rng)
        scaled = exp_series(b * c)
        for n in range(8):
            assert attached_polynomial(b, n).evaluate(c) == scaled.egf(n)


def test_attached_requires_delta_and_order():
    with pytest.raises(NotDeltaSeries):
        attached_polynomial(TruncatedSeries([0, 0, 1], order=5), 2)
    with pytest.raises(OrderTooSmall):
        attached_polynomial(TruncatedSeries.identity(2), 5)


def test_binomial_type_identity():
    # B_n(x + x') = sum C(n,k) B_k(x) B_(n-k)(x') at rational points
    rng = rng_for(13, "binomial-type")
    b = random_delta(rng, 8)
    polys = [attached_polynomial(b, n) for n in range(8)]
    for _ in range(6):
        u = random_rational(rng)
        v = random_rational(rng)
        for n in range(8):
            lhs = polys[n].evaluate(u + v)
            rhs = sum(
                math.comb(n, k) * polys[k].evaluate(u) * polys[n - k].evaluate(v)
                for k in range(n + 1)
            )
            assert lhs == rhs


# -- umbral operator ---------------------------------------------------------------


def test_operator_identity_series_is_identity_map():
    t = TruncatedSeries.identity(9)
    rng = rng_for(14, "theta-id")
    for _ in range(5):
        p = random_poly(rng, rng.randint(0, 6))
        assert umbral_operator(t, p) == p


def test_operator_on_square():
    assert umbral_operator(bell_b(5), X**2) == UnivarPoly([0, 1, 1])


def test_operator_fixes_constants():
    rng = rng_for(15, "theta-const")
    b = random_delta(rng, 5)
    assert umbral_operator(b, UnivarPoly.one()) == UnivarPoly.one()
    assert umbral_operator(b, UnivarPoly.zero()) == UnivarPoly.zero()


# -- umbral shift -------------------------------------------------------------------


def test_shift_identity_series_multiplies_by_x():
    t = TruncatedSeries.identity(9)
    rng = rng_for(16, "shift-id")
    for _ in range(5):
        p = random_poly(rng, rng.randint(0, 6))
        assert umbral_shift(t, p) == X * p


def test_shift_on_bell_basis():
    b = bell_b(6)
    assert umbral_shift(b, UnivarPoly.one()) == X
    assert umbral_shift(b, UnivarPoly([0, 1, 1])) == UnivarPoly([0, 1, 3, 1])


def test_shift_raises_degree_by_one():
    rng = rng_for(17, "shift-deg")
    b = random_delta(rng, 9)
    for _ in range(5):
        p = random_poly(rng, rng.randint(0, 7))
        assert umbral_shift(b, p).degree == p.degree + 1


def test_shift_generating_function_law():
    # sum_n (D_B B_n)(x) w^n/n! = d/dw e^(xB(w))
    rng = rng_for(18, "shift-gf")
    order = 7
    b = random_delta(rng, order + 2)
    expansion = attached_generating_series(b, order + 1)
    lhs = GenSeries(
        [
            umbral_shift(b, expansion.egf(n)) / F(math.factorial(n))
            for n in range(order + 1)
        ]
    )
    assert lhs == expansion.differentiate()


def test_basis_expansion_roundtrip():
    rng = rng_for(19, "basis-exp")
    b = random_delta(rng, 9)
    for _ in range(5):
        p = random_poly(rng, rng.randint(0, 7))
        coords = attached_basis_expansion(b, p)
        rebuilt = UnivarPoly.zero()
        for n, c in enumerate(coords):
            rebuilt = rebuilt + c * attached_polynomial(b, n)
        assert rebuilt == p


# -- functional-steered shift ---------------------------------------------------------


def test_functional_shift_with_exponential_reduces_to_shift():
    rng = rng_for(20, "dab-exp")
    for _ in range(5):
        b = random_delta(rng, 10)
        p = random_poly(rng, rng.randint(0, 6))
        assert functional_shift(exp_t(10), b, p) == umbral_shift(b, p)


def test_functional_shift_identity_basis_case():
    t = TruncatedSeries.identity(10)
    for n in range(6):
        assert functional_shift(exp_t(10), t, X**n) == X ** (n + 1)


def test_functional_shift_on_constants():
    rng = rng_for(21, "dab-const")
    a = random_series(rng, 6)
    b = random_delta(rng, 6)
    expect = a.egf(1) * b.egf(1) * X
    assert functional_shift(a, b, UnivarPoly.one()) == expect


# -- adjoint identities ----------------------------------------------------------------


def test_adjoints_random_pairs():
    rng = rng_for(22, "adjoints")
    for kind in ("mul", "diff", "subst", "shift"):
        for _ in range(5):
            a = random_series(rng, 10)
            b = random_delta(rng, 10)
            assert check_adjoint(kind, a, b, 8)


@pytest.mark.parametrize(
    "kind, name",
    [
        ("diff", "apply_series_in_ddx"),
        ("subst", "umbral_operator"),
        ("shift", "umbral_shift"),
    ],
)
def test_adjoint_detects_a_broken_polynomial_side(monkeypatch, kind, name):
    rng = rng_for(25, "adjoint-broken")
    a = random_series(rng, 10)
    b = random_delta(rng, 10)
    module = sys.modules["umbralcalc.umbral"]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda b, p: real(b, p) + p.derivative())
    assert not check_adjoint(kind, a, b, 8)


def test_adjoint_subst_with_identity_is_trivial():
    rng = rng_for(23, "adjoint-id")
    a = random_series(rng, 9)
    assert check_adjoint("subst", a, TruncatedSeries.identity(9), 7)


def test_adjoint_unknown_kind():
    with pytest.raises(UnknownIdentityTag):
        check_adjoint("frobnicate", exp_t(5), TruncatedSeries.identity(5), 3)


# -- the x = 1 connection ----------------------------------------------------------------


def test_pairing_equals_substitute_then_evaluate():
    """<A | psi_(e^t)(u)> = (psi_A(u)) at x = 1 for u = sum u_n y_n x^n."""
    rng = rng_for(24, "connection")
    a = random_series(rng, 6)
    u = MultiPoly.zero()
    for n in range(7):
        u = u + random_rational(rng) * MultiPoly.y(n) * MultiPoly.plain_x() ** n
    lhs = pairing(a, to_univar(specialize_y(u, exp_t(6))))
    rhs = to_univar(specialize_y(u, a)).evaluate(1)
    assert lhs == rhs
