"""The identity-verification registry behind ``verify``.

Each entry checks one identity of the calculus exactly (tolerance zero),
computing both sides along independent routes wherever the identity has two.
A check is a function ``(order, rng) -> str``: it returns the detail of its
PASS line, or fails by raising ``_Failed(detail)``, directly or through
``_expect``.  ``rng`` is seeded from ``(seed, tag)``, so reports are
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable, Optional

from .errors import OrderTooSmall, UnknownIdentityTag
from .genseries import GenSeries
from .polyring import (
    MultiPoly,
    exp_derivation,
    generic_composite_series,
    specialize_fock,
    specialize_x,
    specialize_y,
    to_univar,
)
from .sampling import (
    random_delta,
    random_multipoly,
    random_poly,
    random_rational,
    random_series,
    rng_for,
)
from .series import TruncatedSeries, exp_series, exp_t, shift_multiplier
from .umbral import (
    attached_generating_series,
    attached_polynomial,
    check_adjoint,
    composed_expansion,
    umbral_operator,
    umbral_shift,
)
from .univar import UnivarPoly, exp_w_ddx
from .virasoro import (
    basis_monomials,
    fock_derivation,
    heuristic_bracket_cells,
    ladder_closed,
    ladder_value,
    lowering_powers,
    lowest_weight_vector,
    heisenberg,
    mode_shift,
    sheffer_pair,
    virasoro,
    weight,
)

_HALF = Fraction(1, 2)

# Lowest order at which every check of ``run_all`` runs: GENSHIFT-GF reads 7
# terms of delta series it samples at order + 2, and at order 0 FDBU, ADJNEW
# and BSTAR get too short series too.  ``verify --id ALL`` refuses lower orders.
MIN_ALL_ORDER = 5


@dataclass(frozen=True)
class CheckResult:
    tag: str
    passed: bool
    detail: str


# -- mismatch reporting helpers ----------------------------------------------


def _mismatch(a, b) -> Optional[str]:
    """The first difference between two operands of the same type, or None.

    Series compare up to the shorter order and polynomials over both degrees,
    by cross-multiplying their integer numerators; a :class:`GenSeries` names the
    power of ``w`` and then the mismatch of its coefficients, and a
    :class:`MultiPoly` the lowest differing monomial.
    """
    if isinstance(a, MultiPoly):
        d = a - b
        if not d:
            return None
        key, value = d.sorted_terms()[0]
        return f"monomial {MultiPoly({key: Fraction(1)})}: difference {value}"
    if isinstance(a, GenSeries):
        for k in range(min(a.order, b.order) + 1):
            msg = _mismatch(a.coeff(k), b.coeff(k))
            if msg:
                return f"w^{k}, {msg}"
        return None
    var = "t" if isinstance(a, TruncatedSeries) else "x"
    for k, (x, y) in enumerate(a._pairs(a.nums, b.nums)):  # as + pairs them
        if x * b.den != y * a.den:
            return f"{var}^{k}: {a.coeff(k)} != {b.coeff(k)}"
    return None


class _Failed(Exception):
    """A check's FAIL detail, raised from anywhere inside the check."""


def _expect(lhs, rhs, prefix: str = "") -> None:
    """Fail with ``prefix`` and the first mismatch unless ``lhs`` equals ``rhs``."""
    if lhs != rhs:
        msg = _mismatch(lhs, rhs)
        if msg:
            raise _Failed(prefix + msg)


# -- series / composite-expansion checks --------------------------------------


def _check_automorphism(order: int, rng: Random) -> str:
    n = min(order, 8)
    trials = 5
    for trial in range(trials):
        p = random_multipoly(rng)
        q = random_multipoly(rng)
        lhs = exp_derivation(p * q, n)
        rhs = exp_derivation(p, n) * exp_derivation(q, n)
        _expect(lhs, rhs, f"trial {trial}: ")
    return f"{trials} random products expanded to order {n}"


def _check_taylor(order: int, rng: Random) -> str:
    trials = 10
    for trial in range(trials):
        p = random_poly(rng, rng.randint(0, 8))
        n = p.degree + 1
        lhs = exp_w_ddx(p, n)
        # binomial route: coefficient of w^k is sum_m p_(m+k) C(m+k, k) x^m
        rhs = GenSeries(
            [
                UnivarPoly(
                    [p.coeff(m + k) * math.comb(m + k, k) for m in range(p.degree + 1 - k)]
                )
                if k <= p.degree
                else UnivarPoly.zero()
                for k in range(n + 1)
            ]
        )
        _expect(lhs, rhs, f"trial {trial}: ")
    return f"{trials} random polynomials, both expansion routes"


def _check_faa(order: int, rng: Random) -> str:
    trials = 20
    for trial in range(trials):
        f = random_series(rng, order)
        g = random_delta(rng, order)
        h = f.compose(g)
        lhs = GenSeries([h.egf_shift(k) / math.factorial(k) for k in range(order + 1)])
        # sum_n f^(n)(g)/n! * (sum_m g^(m) w^m / m!)^n
        outer = [f.egf_shift(n).compose(g) / math.factorial(n) for n in range(1, order + 1)]
        inner = [g.egf_shift(m) / math.factorial(m) for m in range(1, order + 1)]
        rhs = GenSeries([h] + outer).compose(GenSeries([0] + inner))
        _expect(lhs, rhs, f"trial {trial}: ")
    return f"{trials} random (f, g) pairs at order {order}"


def _check_fdbu(order: int, rng: Random) -> str:
    lhs = exp_derivation(MultiPoly.y(0), order)
    _expect(lhs, generic_composite_series(order))
    trials = 10
    for trial in range(trials):
        a = random_series(rng, order)
        b = random_delta(rng, order)
        leg = _valued(_substituted(lhs, b), a)
        _expect(leg, composed_expansion(a, b, order), f"trial {trial}: ")
    return f"nested form matches at order {order}; {trials} random substitutions"


def _bell_numbers(count: int) -> list[int]:
    values = [1]
    for n in range(count - 1):
        values.append(sum(math.comb(n, k) * values[k] for k in range(n + 1)))
    return values


def bell_egf(order: int) -> list[Fraction]:
    """EGF coefficients of ``exp(exp(t) - 1)`` computed through composition."""
    outer = exp_t(order)
    inner = exp_t(order) - TruncatedSeries.one(order)
    return list(outer.compose(inner).egf_coeffs())


def _check_bell(order: int, rng: Random) -> str:
    n = max(order, 15)
    computed = bell_egf(n)
    oracle = _bell_numbers(n + 1)
    for k, (lhs, rhs) in enumerate(zip(computed, oracle)):
        if lhs != rhs:
            raise _Failed(f"EGF coefficient {k}: {lhs} != {rhs}")
    return f"composition matches the recurrence through n = {n}"


def _check_bstar(order: int, rng: Random) -> str:
    if order < 1:
        raise OrderTooSmall(f"BSTAR needs order >= 1, got {order}")
    trials = 10
    one = TruncatedSeries.one(order - 1)
    for trial in range(trials):
        b = random_delta(rng, order)
        direct = shift_multiplier(b)
        rev_deriv = b.reversion().derivative()
        _expect(direct * rev_deriv, one, f"trial {trial}: product with reversion', ")
        _expect(direct, rev_deriv.reciprocal(), f"trial {trial}: ")
    return f"{trials} random delta series at order {order}"


# -- the x = 1 identity chain --------------------------------------------------


def _substituted(gs: GenSeries, subst: TruncatedSeries) -> GenSeries:
    """``e^(wD) y_i`` (given as ``gs``) under ``x_j -> B_j x``."""
    return gs.map(lambda q: specialize_x(q, subst))


def _valued(gs: GenSeries, functional: TruncatedSeries) -> GenSeries:
    """An expansion from :func:`_substituted` under ``y_i -> A_i``: one leg
    of the ``x = 1`` identity chain."""
    return gs.map(lambda q: to_univar(specialize_y(q, functional)))


def _at_one(gs: GenSeries) -> TruncatedSeries:
    return gs.map(lambda p: p.evaluate(1)).to_truncated()


def _check_adjnew(order: int, rng: Random) -> str:
    trials = 5
    t_series = TruncatedSeries.identity(order + 2)
    # one expansion per y-index, shared by every trial; none is derived from another
    y_m1, y_0, y_1 = (exp_derivation(MultiPoly.y(i), order) for i in (-1, 0, 1))
    # each (expansion, substitution) is substituted once and read by every functional
    y_0_at_t = _substituted(y_0, t_series)
    for trial in range(trials):
        a = random_series(rng, order + 2)
        b = random_delta(rng, order + 2)
        a_prime = a.egf_shift(1)
        y_m1_at_b, y_0_at_b, y_1_at_b = (_substituted(gs, b) for gs in (y_m1, y_0, y_1))
        a_of_b = _at_one(_valued(y_0_at_b, a))  # the left side of two pairs
        pairs = [
            (
                "A'(B(w))",
                _at_one(_valued(y_1_at_b, a)),
                _at_one(_valued(y_0_at_b, a_prime)),
            ),
            (
                "A(B(w))B(w)",
                _valued(y_m1_at_b, a)
                .map(lambda p: p.derivative().evaluate(1))
                .to_truncated(),
                _at_one(_valued(y_0_at_b, t_series * a)),
            ),
            (
                "A(B(w))",
                a_of_b,
                _at_one(_valued(y_0_at_t, a.compose(b))),
            ),
            (
                "A'(B(w))B'(w)",
                a_of_b.derivative(),
                _at_one(_valued(y_0_at_b, shift_multiplier(b) * a_prime)),
            ),
        ]
        for name, lhs, rhs in pairs:
            msg = _mismatch(lhs, rhs)
            if msg:  # these series are in w: rename the reporter's t
                raise _Failed(f"trial {trial}: {name}, w{msg.removeprefix('t')}")
    return f"{trials} random (A, B): all four x=1 identities"


# -- adjoint pairs -------------------------------------------------------------


def _adjoint_check(kind: str, delta_b: bool, order: int, rng: Random) -> str:
    degree = 8
    trials = 20
    for trial in range(trials):
        a = random_series(rng, degree + 2)
        b = random_delta(rng, degree + 2) if delta_b else random_series(rng, degree + 2)
        if not check_adjoint(kind, a, b, degree):
            raise _Failed(f"trial {trial}: basis mismatch up to degree {degree}")
    return f"{trials} random pairs, basis degree <= {degree}"


_check_adj_mul = partial(_adjoint_check, "mul", False)
_check_adj_diff = partial(_adjoint_check, "diff", False)
_check_adj_subst = partial(_adjoint_check, "subst", True)
_check_adj_shift = partial(_adjoint_check, "shift", True)


def _check_umbral_basis(order: int, rng: Random) -> str:
    top = 10
    for trial in range(5):
        b = random_delta(rng, top + 2)
        gs = attached_generating_series(b, top + 1)
        polys = [gs.egf(n) for n in range(top + 2)]
        for n in range(top + 1):
            bn = attached_polynomial(b, n)
            if bn.degree != n:
                raise _Failed(f"trial {trial}: deg B_{n} = {bn.degree}")
            if umbral_operator(b, UnivarPoly.monomial(n)) != bn:
                raise _Failed(f"trial {trial}: theta x^{n} != B_{n}")
            # scalar-substitution oracle: B_n(c) = n! [w^n] exp(c * B(w))
            c = random_rational(rng)
            via_series = exp_series(b.truncate(top + 1) * c).egf(n)
            if bn.evaluate(c) != via_series:
                raise _Failed(f"trial {trial}: B_{n}({c}) = {bn.evaluate(c)} != {via_series}")
            _expect(umbral_shift(b, bn), polys[n + 1], f"trial {trial}: shift B_{n}, ")
    return f"5 random delta series, indices n <= {top}"


# -- Virasoro representation ---------------------------------------------------


def _bracket_check(mode: str, op, reach: int, rhs, note: str = "") -> str:
    """Check ``[op(m), op(n)] p = rhs(m, n, p, images)`` for ``|m|, |n| <= 4``
    on every monomial ``p`` of weight ``<= 8 + 1/2``, one ``p`` at a time.

    Each image is computed once per monomial: ``images[k] = op(k, p)`` for
    ``|k| <= reach``, and ``op(a, op(b, p))`` for each ordered pair ``a != b``.
    Only ``m < n`` is compared.  From the same images the case ``(n, m)`` is
    exactly the negation of ``(m, n)`` on both sides: the commutator swaps
    its two terms, ``m - n`` flips sign, and the central terms (``m`` and
    ``(m^3 - m)/12``) sit on ``n = -m`` and are odd in ``m``.  The case
    ``m = n`` is ``0 = 0``.  So every defect a skipped case shows, ``m < n``
    shows on the same monomial, and earlier in ``m``-major order.  The report
    names the first failure in the order ``m``, then ``n``, then ``p``.
    """
    modes = range(-4, 5)
    pairs = [(m, n) for m in modes for n in modes if m < n]
    first = None  # (m, n, detail) of the earliest failure so far
    for p in basis_monomials(8):
        images = {k: op(k, p) for k in range(-reach, reach + 1)}
        twice = {(a, b): op(a, images[b]) for a in modes for b in modes if a != b}
        for m, n in pairs:
            if first and (m, n) >= first[:2]:
                break
            expected = rhs(m, n, p, images)
            # the commutator is formed only to report a failure
            if twice[m, n] != (twice[n, m] + expected if expected else twice[n, m]):
                msg = _mismatch(twice[m, n] - twice[n, m], expected)
                first = (m, n, f"[{mode}({m}), {mode}({n})] on {p}: {msg}")
                break
    if first:
        raise _Failed(first[2])
    return "|m|, |n| <= 4 on all monomials of weight <= 8 + 1/2" + note


def _vir_rhs(m: int, n: int, p: MultiPoly, images: dict) -> MultiPoly:
    out = (m - n) * images[m + n]  # |m + n| <= 7 for m < n
    return out + Fraction(m**3 - m, 12) * p if m + n == 0 else out


def _check_vir_bracket(order: int, rng: Random) -> str:
    return _bracket_check("L", virasoro, 7, _vir_rhs, ", central term included")


def _check_heis(order: int, rng: Random) -> str:
    return _bracket_check("h", heisenberg, 4, lambda m, n, p, _: (m + n == 0) * m * p)


def _check_l0_weight(order: int, rng: Random) -> str:
    y = lowest_weight_vector()
    if virasoro(0, y) != _HALF * y:
        raise _Failed(f"L(0)y = {virasoro(0, y)}")
    for p in basis_monomials(8):
        if virasoro(0, p) != weight(p) * p:
            raise _Failed(f"L(0) on {p} is not weight {weight(p)}")
    return "lowest weight 1/2; L(0) diagonal on weight <= 8 + 1/2"


def _check_lm1_eq_d(order: int, rng: Random) -> str:
    for p in basis_monomials(8):
        _expect(virasoro(-1, p), fock_derivation(p), f"on {p}: ")
    return "L(-1) equals the derivation on weight <= 8 + 1/2"


def _check_ladder(order: int, rng: Random) -> str:
    top = 8
    powers = lowering_powers(top + 1)
    for n in range(top + 1):
        for m in range(-1, top + 1):
            image = virasoro(m, powers[n])
            if m > n:
                if image:
                    raise _Failed(f"L({m}) L(-1)^{n} y != 0")
                continue
            _expect(image, ladder_value(m, n) * powers[n - m], f"m={m}, n={n}: ")
    for n in range(1, top + 1):
        if ladder_value(n, n) != (n + 1) * ladder_value(n - 1, n - 1):
            raise _Failed(f"diagonal recurrence fails at n={n}")
    return f"L(m) L(-1)^n y = f_m(n) L(-1)^(n-m) y for m, n <= {top}"


def _check_f_closed(order: int, rng: Random) -> str:
    for m in range(-1, 9):
        for n in range(21):
            if ladder_value(m, n) != ladder_closed(m, n):
                raise _Failed(f"f_{m}({n}): {ladder_value(m, n)} != {ladder_closed(m, n)}")
    for n in range(21):
        spots = [
            (0, Fraction(n) + _HALF),
            (1, Fraction(n * n)),
            (2, Fraction(n * (n - 1) * (2 * n - 1), 2)),
        ]
        for m, expect in spots:
            if ladder_value(m, n) != expect:
                raise _Failed(f"row spot f_{m}({n}) != {expect}")
    return "recurrence equals the closed form for m <= 8, n <= 20"


def _check_recsquare(order: int, rng: Random) -> str:
    for m in range(0, 9):
        running = Fraction(0)
        for n in range(21):
            if ladder_value(m, n) != ladder_value(m, 0) + (m + 1) * running:
                raise _Failed(f"f_{m}({n}) != boundary + (m+1)*sum")
            running += ladder_value(m - 1, n)
    return "summation identity holds over the full table"


def _check_genshift_gf(order: int, rng: Random) -> str:
    n = min(order, 10)
    for trial in range(5):
        b = random_delta(rng, n + 2)
        expansion = attached_generating_series(b, n + 1)
        polys = [expansion.egf(k) for k in range(n + 1)]
        for m in range(-1, 5):
            lhs = GenSeries(
                [
                    mode_shift(b, m, polys[k]) / Fraction(math.factorial(k))
                    for k in range(n + 1)
                ]
            )
            rhs = expansion.differentiate().times_w(m + 1)
            if m >= 0:
                rhs = rhs + expansion.times_w(m) * Fraction(m + 1, 2)
            _expect(lhs, rhs.truncate(n), f"trial {trial}, m={m}: ")
        p = random_poly(rng, 6)
        if mode_shift(b, -1, p) != umbral_shift(b, p):
            raise _Failed(f"trial {trial}: level -1 != umbral shift")
    return f"levels m <= 4 against the w-operator at order {n}"


def _check_umbvir(order: int, rng: Random) -> str:
    top = 8
    powers = lowering_powers(top + 1)
    for trial in range(3):
        b = random_delta(rng, top + 4)
        images = [to_univar(specialize_fock(v, b)) for v in powers]
        for n in range(top + 1):
            if images[n] != attached_polynomial(b, n):
                raise _Failed(f"trial {trial}: projection of L(-1)^{n} y != B_{n}")
            _expect(umbral_shift(b, images[n]), images[n + 1], f"trial {trial}, n={n}: ")
    return f"3 random delta series, ladder up to n = {top}"


def _check_sheffer_ts(order: int, rng: Random) -> str:
    t0, _ = sheffer_pair(0, Fraction(-2))
    t1, _ = sheffer_pair(1, Fraction(-2))
    if t0 != 1 or t1 != -_HALF:
        raise _Failed(f"boundary values t_0(-2)={t0}, t_1(-2)={t1}")
    for n in range(2, 9):
        tn, _ = sheffer_pair(n, Fraction(-2))
        if tn:
            raise _Failed(f"t_{n}(-2) = {tn} != 0")
    points = [random_rational(rng) for _ in range(20)]
    # C(x, k) = x (x-1) ... (x-k+1) / k! by polynomial products, not through binom_general
    binomials = [UnivarPoly.one()]
    for k in range(1, 9):
        binomials.append(binomials[-1] * (UnivarPoly.x() - (k - 1)) / k)
    for x in points:
        for n in range(9):
            t, s = sheffer_pair(n, x)
            if s * math.factorial(n) != t:
                raise _Failed(f"s_{n}({x}) * n! != t_{n}({x})")
            if n >= 1:
                # independent product form of t_n
                prod = _HALF * (2 * x + n + 2)
                for i in range(2, n + 1):
                    prod *= x + i
                if t != prod:
                    raise _Failed(f"t_{n}({x}) != product form {prod}")
                _, s_prev = sheffer_pair(n - 1, x)
                _, s_left = sheffer_pair(n, x - 1)
                if s != s_prev + s_left:
                    raise _Failed(f"s-recursion fails at n={n}, x={x}")
            if t != ladder_closed(n - 1, x + n):
                raise _Failed(f"t_{n}({x}) != f_({n-1})({x}+{n})")
            expect_s = binomials[n].evaluate(x + n + 1)
            if n >= 1:
                expect_s -= _HALF * binomials[n - 1].evaluate(x + n)
            if s != expect_s:
                raise _Failed(f"s_{n}({x}) != binomial form")
    return "20 random rational points, n <= 8, plus boundaries"


def _check_f_heuristic(order: int, rng: Random) -> str:
    cells = heuristic_bracket_cells(4, 4, 12)
    valid_bad = [
        (l, m, n) for (l, m, n, ok) in cells if l + m <= n and not ok
    ]
    if valid_bad:
        l, m, n = valid_bad[0]
        raise _Failed(f"derivation-range cell l={l}, m={m}, n={n}")
    extended = [(ok) for (l, m, n, ok) in cells if l + m > n]
    held = sum(1 for ok in extended if ok)
    return f"derivation range holds; extended cells {held}/{len(extended)} hold"


# -- registry ------------------------------------------------------------------

CHECKS: list[tuple[str, str, Callable[[int, Random], str]]] = [
    ("AUTOMORPHISM", "e^(wD) is an algebra map", _check_automorphism),
    ("TAYLOR", "e^(w d/dx) p(x) = p(x+w)", _check_taylor),
    ("FAA", "higher-derivative expansion of a composite", _check_faa),
    ("FDBU", "e^(wD) y_0 equals the nested-series form", _check_fdbu),
    ("BELL", "composition reproduces the Bell numbers", _check_bell),
    ("ADJNEW", "the four x=1 substitution identities", _check_adjnew),
    ("ADJ-MUL", "multiplication by x adjoint to d/dv", _check_adj_mul),
    ("ADJ-DIFF", "series in d/dx adjoint to multiplication", _check_adj_diff),
    ("ADJ-SUBST", "substitution adjoint to the umbral operator", _check_adj_subst),
    ("ADJ-SHIFT", "multiplier-derivative adjoint to the umbral shift", _check_adj_shift),
    ("UMBRAL-BASIS", "theta and shift basis laws", _check_umbral_basis),
    ("BSTAR", "shift multiplier times reversion' is 1", _check_bstar),
    ("VIR-BRACKET", "Virasoro relations at central charge 1", _check_vir_bracket),
    ("HEIS", "Heisenberg mode relations", _check_heis),
    ("L0-WEIGHT", "L(0) grading and lowest weight 1/2", _check_l0_weight),
    ("LM1-EQ-D", "L(-1) equals the derivation", _check_lm1_eq_d),
    ("LADDER", "L(m) L(-1)^n y = f_m(n) L(-1)^(n-m) y", _check_ladder),
    ("F-CLOSED", "ladder recurrence equals the closed form", _check_f_closed),
    ("RECSQUARE", "ladder summation identity", _check_recsquare),
    ("GENSHIFT-GF", "level-m shifts against the w-operator", _check_genshift_gf),
    ("UMBVIR", "umbral shift intertwines the Fock projection", _check_umbvir),
    ("SHEFFER-TS", "the referee's Sheffer pair", _check_sheffer_ts),
    ("F-HEURISTIC", "bracket-derived f identity (conjecture range reported)", _check_f_heuristic),
]

TAGS = [tag for tag, _, _ in CHECKS]
_BY_TAG = {tag: fn for tag, _, fn in CHECKS}


def _run(tag: str, fn: Callable[[int, Random], str], order: int, seed: int) -> CheckResult:
    try:
        return CheckResult(tag, True, fn(order, rng_for(seed, tag)))
    except _Failed as failed:
        return CheckResult(tag, False, str(failed))


def run_check(tag: str, order: int = 10, seed: int = 0) -> CheckResult:
    try:
        fn = _BY_TAG[tag]
    except KeyError:
        raise UnknownIdentityTag(
            f"unknown identity {tag!r}; known: {', '.join(TAGS)}"
        ) from None
    return _run(tag, fn, order, seed)


def run_all(order: int = 10, seed: int = 0) -> list[CheckResult]:
    return [_run(tag, fn, order, seed) for tag, _, fn in CHECKS]
