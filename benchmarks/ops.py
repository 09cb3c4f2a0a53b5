"""Operands, ops and correctness checks of the in-process workloads.

Operands come from the benchmark's own generator, never from
``umbralcalc.sampling``, so a change to the program's sampler cannot change
the workload.  Every op is checked by a route that does not call the code
under test for the same result; checks run outside the timed interval.
"""

from __future__ import annotations

import importlib
import math
import random
from fractions import Fraction

# Functions are looked up on their modules at call time, so that a tracer that
# patches the modules sees every call.  (``umbralcalc.virasoro`` is also the
# name of a function in the package namespace, hence import_module.)
dsl, polyring, series, umbral, univar, virasoro = (
    importlib.import_module(f"umbralcalc.{name}")
    for name in ("dsl", "polyring", "series", "umbral", "univar", "virasoro")
)
MultiPoly = polyring.MultiPoly
TruncatedSeries = series.TruncatedSeries
UnivarPoly = univar.UnivarPoly


class Gen:
    """Seeded dense operands with small exact coefficients.

    Every drawn coefficient is nonzero (1 <= |num| <= 9, den <= 9): zero
    coefficients are skipped by the kernels, and their random count would
    spread one op's cost over more than a factor of two.
    """

    def __init__(self, key: str):
        self.rng = random.Random(key)

    def rational(self) -> Fraction:
        num = self.rng.choice((-1, 1)) * self.rng.randint(1, 9)
        return Fraction(num, self.rng.randint(1, 9))

    def rationals(self, count: int) -> list[Fraction]:
        return [self.rational() for _ in range(count)]

    def series(self, order: int, constant=None) -> TruncatedSeries:
        cs = self.rationals(order + 1)
        if constant is not None:
            cs[0] = Fraction(constant)
        return TruncatedSeries(cs)

    def delta(self, order: int) -> TruncatedSeries:
        return self.series(order, constant=0)

    def poly(self, degree: int) -> UnivarPoly:
        return UnivarPoly(self.rationals(degree + 1))


# -- independent routes --------------------------------------------------------


def horner(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """``outer(inner)`` with series ``*`` and ``+`` only."""
    acc = TruncatedSeries.constant(outer.coeffs[-1], inner.order)
    for c in reversed(outer.coeffs[:-1]):
        acc = acc * inner + c
    return acc


def composite_by_powers(a_coeffs, b: TruncatedSeries, order: int) -> list[UnivarPoly]:
    """``[w^m] A(x B(w))`` for ``m <= order`` from explicit powers ``B(w)^k``."""
    b = b.truncate(order)
    power = TruncatedSeries.one(order)
    rows = [[Fraction(0)] * (order + 1) for _ in range(order + 1)]
    for k in range(order + 1):
        if k:
            power = power * b
        for m in range(k, order + 1):
            rows[m][k] = a_coeffs[k] * power.coeffs[m]
    return [UnivarPoly(row) for row in rows]


def attached_basis(b: TruncatedSeries, top: int) -> list[UnivarPoly]:
    """``B_0 .. B_top`` from ``e^(x B(w)) = sum_k x^k B(w)^k / k!``."""
    inv_fact = [Fraction(1, math.factorial(k)) for k in range(top + 1)]
    rows = composite_by_powers(inv_fact, b, top)
    return [rows[n] * math.factorial(n) for n in range(top + 1)]


def combine(coords, polys) -> UnivarPoly:
    out = UnivarPoly.zero()
    for c, p in zip(coords, polys):
        out = out + p * c
    return out


def level_factor(m: int, k: int) -> Fraction:
    """``k!/(k-m)! * ((k-m) + (m+1)/2)``: the coefficient of ``B_(k-m)`` in the
    ``w^k/k!`` term of ``w^(m+1) E' + (m+1)/2 w^m E`` (the GENSHIFT-GF law)."""
    return Fraction(math.perm(k, m)) * ((k - m) + Fraction(m + 1, 2))


# -- series-kernels ----------------------------------------------------------

FUNCS = ("exp", "log", "inv", "rev")


def _poly_tree(coeffs):
    """Tree of ``c_0 + c_1 t + c_2 t^2 + ...``."""
    node = ("lit", coeffs[0])
    for j, c in enumerate(coeffs[1:], 1):
        mono = ("t",) if j == 1 else ("^", ("t",), j)
        node = ("+", node, ("*", ("lit", c), mono))
    return node


def make_expr(gen: Gen, func: str):
    """Tree of ``F(A)^k * B + C`` with ``A`` a cubic in the domain of ``F``."""
    coeffs = gen.rationals(4)
    if func != "inv":
        coeffs[0] = Fraction(1 if func == "log" else 0)
    power = ("^", ("call", func, _poly_tree(coeffs)), gen.rng.randint(1, 3))
    return ("+", ("*", power, _poly_tree(gen.rationals(3))), _poly_tree(gen.rationals(2)))


def render(node) -> str:
    """Fully parenthesized text in the ``umbralcalc.dsl`` grammar."""
    kind = node[0]
    if kind == "lit":
        q = node[1]
        body = str(abs(q.numerator)) if q.denominator == 1 else f"{abs(q.numerator)}/{q.denominator}"
        return f"(-{body})" if q < 0 else f"({body})"
    if kind == "t":
        return "t"
    if kind == "call":
        return f"{node[1]}({render(node[2])})"
    if kind == "^":
        return f"({render(node[1])})^{node[2]}"
    return f"({render(node[1])} {kind} {render(node[2])})"


def direct(node, order: int) -> TruncatedSeries:
    """Evaluate a tree by direct series calls, bypassing the DSL."""
    kind = node[0]
    if kind == "lit":
        return TruncatedSeries.constant(node[1], order)
    if kind == "t":
        return TruncatedSeries.identity(order)
    if kind == "call":
        arg = direct(node[2], order)
        return {
            "exp": series.exp_series,
            "log": series.log_series,
            "inv": TruncatedSeries.reciprocal,
            "rev": TruncatedSeries.reversion,
        }[node[1]](arg)
    if kind == "^":
        return direct(node[1], order) ** node[2]
    lhs, rhs = direct(node[1], order), direct(node[2], order)
    return lhs + rhs if kind == "+" else lhs * rhs


def _check_mul(args, r):
    a, b = args
    prod = UnivarPoly(a.coeffs) * UnivarPoly(b.coeffs)
    return r.coeffs == tuple(prod.coeff(k) for k in range(a.order + 1))


def _check_exp(args, r):
    (a,) = args
    return r.coeffs[0] == 1 and r.derivative() == a.derivative() * r


def _check_log(args, r):
    (c,) = args
    return r.coeffs[0] == 0 and c * r.derivative() == c.derivative()


SERIES_KINDS = {
    # kind: (operands, op, check)
    "mul": (
        lambda g, n: (g.series(n), g.series(n)),
        lambda a, b: a * b,
        _check_mul,
    ),
    "reciprocal": (
        lambda g, n: (g.series(n),),
        lambda c: c.reciprocal(),
        lambda args, r: args[0] * r == TruncatedSeries.one(args[0].order),
    ),
    "compose": (
        lambda g, n: (g.series(n), g.delta(n)),
        lambda f, h: f.compose(h),
        lambda args, r: r == horner(*args),
    ),
    "exp": (
        lambda g, n: (g.series(n, constant=0),),
        lambda a: series.exp_series(a),
        _check_exp,
    ),
    "log": (
        lambda g, n: (g.series(n, constant=1),),
        lambda c: series.log_series(c),
        _check_log,
    ),
    "reversion": (
        lambda g, n: (g.delta(n),),
        lambda b: b.reversion(),
        lambda args, r: horner(args[0], r) == TruncatedSeries.identity(args[0].order),
    ),
}
SERIES_SIZES = (12, 24, 48)


def series_op(kind: str, n: int, gen: Gen, block: int):
    """Return ``(call, check)`` for one series-kernels op on fresh operands.

    ``expr`` cycles its outer function through exp/log/inv/rev by block, so
    every run holds the four in fixed proportion (a reversion at N = 48 costs
    twenty times the other three).
    """
    if kind == "expr":
        tree = make_expr(gen, FUNCS[block % len(FUNCS)])
        text = render(tree)
        return (lambda: dsl.evaluate(text, n)), (lambda r: r == direct(tree, n))
    operands, op, check = SERIES_KINDS[kind]
    args = operands(gen, n)
    return (lambda: op(*args)), (lambda r: check(args, r))


# -- umbral-ring ---------------------------------------------------------------


def _op_attached_polynomial(gen: Gen, d: int):
    b = gen.delta(d)
    return (lambda: umbral.attached_polynomial(b, d)), (lambda r: r == attached_basis(b, d)[d])


def _op_umbral_operator(gen: Gen, d: int):
    b, p = gen.delta(d), gen.poly(d)
    return (lambda: umbral.umbral_operator(b, p)), (lambda r: r == combine(p.coeffs, attached_basis(b, d)))


def _op_umbral_shift(gen: Gen, d: int):
    b, coords = gen.delta(d + 1), gen.rationals(d + 1)
    basis = attached_basis(b, d + 1)
    p = combine(coords, basis)
    return (lambda: umbral.umbral_shift(b, p)), (lambda r: r == combine(coords, basis[1:]))


def _op_mode_shift(gen: Gen, d: int, m: int):
    b, coords = gen.delta(d), gen.rationals(d + 1)
    basis = attached_basis(b, d)
    p = combine(coords, basis)

    def check(r):
        terms = [(c * level_factor(m, k), basis[k - m]) for k, c in enumerate(coords) if k >= m]
        return r == combine([c for c, _ in terms], [q for _, q in terms])

    return (lambda: virasoro.mode_shift(b, m, p)), check


def _op_functional_shift(gen: Gen, d: int):
    a, b, coords = gen.series(d + 1), gen.delta(d + 1), gen.rationals(d + 1)
    p = combine(coords, attached_basis(b, d))

    def check(r):
        # FDBU: the image of D^(n+1) y_0 is (n+1)! [w^(n+1)] A(x B(w))
        rows = composite_by_powers(a.coeffs, b, d + 1)
        images = [rows[n + 1] * math.factorial(n + 1) for n in range(d + 1)]
        return r == combine(coords, images)

    return (lambda: umbral.functional_shift(a, b, p)), check


def _op_exp_derivation(gen: Gen, n: int):
    a, b = gen.series(n), gen.delta(n)

    def call():
        gs = polyring.exp_derivation(MultiPoly.y(0), n)
        return [polyring.to_univar(polyring.specialize_y(polyring.specialize_x(q, b), a)) for q in gs.coeffs]

    # FDBU: e^(wD) y_0 under both substitutions is A(x B(w))
    return call, (lambda r: r == composite_by_powers(a.coeffs, b, n))


UMBRAL_KINDS = {
    "attached_polynomial": (_op_attached_polynomial, (6, 12, 24)),
    "umbral_operator": (_op_umbral_operator, (6, 12, 24)),
    "umbral_shift": (_op_umbral_shift, (6, 12, 24)),
    "mode_shift": (_op_mode_shift, (6, 12, 24)),
    "functional_shift": (_op_functional_shift, (3, 6, 12)),
    "exp_derivation": (_op_exp_derivation, (7, 14)),
}


def umbral_op(kind: str, n: int, gen: Gen, block: int):
    """Return ``(call, check)`` for one umbral-ring op on fresh operands.

    ``mode_shift`` cycles its level m through 0..4 by block, so every run
    holds the five levels in fixed proportion.
    """
    build, _ = UMBRAL_KINDS[kind]
    if kind == "mode_shift":
        return build(gen, n, block % 5)
    return build(gen, n)


WORKLOADS = {
    "series-kernels": (
        [(kind, n) for kind in (*SERIES_KINDS, "expr") for n in SERIES_SIZES],
        series_op,
    ),
    "umbral-ring": (
        [(kind, n) for kind, (_, sizes) in UMBRAL_KINDS.items() for n in sizes],
        umbral_op,
    ),
}
