"""Failure details of the verification registry.

Every check passes on working code, so its mismatch messages never show in
a normal run.  These tests feed the first-mismatch reporter unequal operands
of each type, and break one side of several checks, to pin the exact text a
failing check prints.
"""

from fractions import Fraction

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
        return out * F(3, 2) if n == -3 and any(2 in dict(k[1]) for k in p.terms) else out

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
