"""Failure details of the verification registry.

Every check passes on working code, so its mismatch messages never show in
a normal run.  These tests feed the first-mismatch reporter unequal operands
of each type, and break one side of several checks, to pin the exact text a
failing check prints.  The reporter compares series by cross-multiplying their
integer numerators; the ``Fraction`` loop it replaced is kept below as an
oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc import registry
from umbralcalc.genseries import GenSeries
from umbralcalc.polyring import MultiPoly
from umbralcalc.series import TruncatedSeries
from umbralcalc.univar import UnivarPoly

F = Fraction
Y = MultiPoly.y
X = MultiPoly.x
S = TruncatedSeries
P = UnivarPoly


# -- the reporter on each operand type ------------------------------------------


def test_series_mismatch():
    assert registry._mismatch(S([1, 2, 3]), S([1, 2, 5])) == "t^2: 3 != 5"
    # compared up to the shorter order only
    assert registry._mismatch(S([1, F(1, 2)]), S([1, F(1, 2), 9])) is None
    assert registry._mismatch(S([1, F(1, 2)]), S([1, F(-1, 3), 9])) == (
        "t^1: 1/2 != -1/3"
    )


def test_poly_mismatch():
    assert registry._mismatch(P([1, F(1, 2)]), P([1, 0, 4])) == "x^1: 1/2 != 0"
    assert registry._mismatch(P([1]), P([1, 0, 4])) == "x^2: 0 != 4"
    assert registry._mismatch(P([1, 2]), P([1, 2])) is None


def test_multipoly_mismatch():
    a = Y(0) * X(1) + 3
    b = Y(0) * X(1) + X(2) * F(2, 3)
    assert registry._mismatch(a, b) == "monomial 1: difference 3"
    assert registry._mismatch(Y(-1) * Y(2), Y(2) * X(3) ** 2) == (
        "monomial y(-1)*y2: difference 1"
    )
    assert registry._mismatch(a, a) is None


def test_gen_poly_mismatch():
    a = GenSeries([P([1]), P([0, 2]), P([5])])
    b = GenSeries([P([1]), P([0, 3]), P([7])])
    assert registry._mismatch(a, b) == "w^1, x^1: 2 != 3"
    assert registry._mismatch(a, a) is None


def test_gen_multipoly_mismatch():
    a = GenSeries([Y(0), Y(1) * X(1)])
    b = GenSeries([Y(0), Y(1) * X(1) + X(2)])
    assert registry._mismatch(a, b) == "w^1, monomial x2: difference -1"
    assert registry._mismatch(a, a) is None


def test_gen_series_mismatch_nests_the_series_variable():
    a = GenSeries([S([1]), S([1, 2, 3])])
    b = GenSeries([S([1]), S([1, 2, 5])])
    assert registry._mismatch(a, b) == "w^1, t^2: 3 != 5"


# -- the series reporter against the Fraction loop it replaced -------------------


def series_mismatch_oracle(a, b):
    """The earlier ``Fraction`` series branch of ``_mismatch``, verbatim."""
    var, top = "t", min(a.order, b.order)
    for k in range(top + 1):
        if a.coeff(k) != b.coeff(k):
            return f"{var}^{k}: {a.coeff(k)} != {b.coeff(k)}"
    return None


# zero, small, and numerators near 10^40 that differ in their last digits
coefficients = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**6)),
    st.builds(lambda d, q: F(10**40 + d, q), st.integers(-3, 3), st.integers(1, 3)),
)
nonzero = coefficients.filter(bool)
coeff_lists = st.lists(coefficients, min_size=1, max_size=13)


@st.composite
def series_pairs(draw):
    """Unrelated series, a copy with one coefficient moved (and more terms),
    or one value reached by two routes; both orders of each pair."""
    xs = draw(coeff_lists)
    kind = draw(st.sampled_from(("unrelated", "moved", "rerouted")))
    if kind == "unrelated":
        a, b = S(xs), S(draw(coeff_lists))
    elif kind == "moved":
        ys = xs + draw(st.lists(coefficients, max_size=3))
        ys[draw(st.integers(0, len(ys) - 1))] += draw(nonzero)
        a, b = S(xs), S(ys)
    else:
        c, other = draw(nonzero), S(draw(st.lists(coefficients, min_size=len(xs))))
        a, b = S(xs), (S(xs) * c + other - other) / c
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=300, deadline=None)
@given(series_pairs())
def test_series_mismatch_matches_the_fraction_loop(pair):
    a, b = pair
    assert registry._mismatch(a, b) == series_mismatch_oracle(a, b)


def test_expect_fails_with_the_prefixed_first_mismatch():
    registry._expect(S([1, 2]), S([1, 2, 3]))  # equal up to the shorter order
    registry._expect(Y(0) * 2, Y(0) + Y(0))
    with pytest.raises(registry._Failed) as failed:
        registry._expect(S([1, 2, 3]), S([1, F(4, 2), 5]), "trial 4: ")
    assert str(failed.value) == "trial 4: t^2: 3 != 5"


@pytest.mark.parametrize("seed", [0, 7])
def test_run_all_equals_each_check_run_alone(seed):
    assert registry.run_all(6, seed) == [registry.run_check(t, 6, seed) for t in registry.TAGS]


# -- failing checks, with one side broken ----------------------------------------


def test_vir_bracket_failure_detail(monkeypatch):
    real = registry.virasoro
    monkeypatch.setattr(
        registry, "virasoro", lambda m, p: real(m, p) + (X(2) if m == 1 else 0)
    )
    res = registry.run_check("VIR-BRACKET", 6, 0)
    assert not res.passed
    assert res.detail == "[L(-4), L(1)] on 1: monomial x1*x2*x3: difference 1/2"


def test_heis_failure_detail(monkeypatch):
    real = registry.heisenberg

    def broken(n, p):  # h(-3) is 3/2 too large on vectors that contain x2
        out = real(n, p)
        return out * F(3, 2) if n == -3 and any(2 in k[1] for k in p.terms) else out

    monkeypatch.setattr(registry, "heisenberg", broken)
    res = registry.run_check("HEIS", 6, 0)
    assert not res.passed
    assert res.detail == "[h(-3), h(-2)] on 1: monomial x2*x3: difference 1/4"


def test_heis_reports_the_first_failure_in_mode_order(monkeypatch):
    """[h(-4), h(1)] fails on the sixth monomial only and [h(-4), h(3)] on the
    first: the report names the pair that comes first, m, then n, then p."""
    real = registry.heisenberg
    sixth = registry.basis_monomials(8)[5]

    def broken(n, p):
        out = real(n, p)
        if n == 1 and p == sixth:
            out = out + X(2)
        if n == 3 and p == MultiPoly.one():
            out = out + X(7)
        return out

    monkeypatch.setattr(registry, "heisenberg", broken)
    res = registry.run_check("HEIS", 6, 0)
    assert not res.passed
    assert res.detail == "[h(-4), h(1)] on x1*x2: monomial x2*x4: difference 1/6"


def test_taylor_failure_detail(monkeypatch):
    real = registry.exp_w_ddx
    monkeypatch.setattr(
        registry,
        "exp_w_ddx",
        lambda p, n: real(p, n) + GenSeries([P([0]), P([0, 0, F(1, 2)])]),
    )
    res = registry.run_check("TAYLOR", 6, 0)
    assert not res.passed
    assert res.detail == "trial 0: w^1, x^2: -23/14 != -15/7"


def test_fdbu_failure_detail(monkeypatch):
    real = registry.generic_composite_series
    monkeypatch.setattr(
        registry,
        "generic_composite_series",
        lambda n: real(n) + GenSeries([MultiPoly.zero()] * 3 + [Y(1) * X(2)]),
    )
    res = registry.run_check("FDBU", 6, 0)
    assert not res.passed
    assert res.detail == "w^3, monomial y1*x2: difference -1"


def test_bstar_failure_detail(monkeypatch):
    real = registry.shift_multiplier
    monkeypatch.setattr(
        registry, "shift_multiplier", lambda b: real(b) + S([0, 0, 1])
    )
    res = registry.run_check("BSTAR", 6, 0)
    assert not res.passed
    assert res.detail == "trial 0: product with reversion', t^2: -2/3 != 0"


def test_adjnew_failure_detail(monkeypatch):
    real = registry.shift_multiplier
    monkeypatch.setattr(registry, "shift_multiplier", lambda b: real(b) * 2)
    res = registry.run_check("ADJNEW", 6, 0)
    assert not res.passed
    assert res.detail == "trial 0: A'(B(w))B'(w), w^0: -5/14 != -5/7"


def test_umbvir_failure_detail(monkeypatch):
    real = registry.umbral_shift
    monkeypatch.setattr(registry, "umbral_shift", lambda b, p: real(b, p) + P([0, 1]))
    res = registry.run_check("UMBVIR", 6, 0)
    assert not res.passed
    assert res.detail == "trial 0, n=0: x^1: 2 != 1"
