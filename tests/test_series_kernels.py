"""The dense series kernels against the Fraction loops they replaced.

Each oracle below is the earlier ``Fraction``-arithmetic implementation,
copied verbatim except that it takes and returns coefficient lists instead
of ``TruncatedSeries`` (``self.coeffs`` became a parameter, and the
order-by-order reversion calls the composition oracle).  The kernels must
agree with them exactly, ``Fraction`` for ``Fraction``.  The elementwise
oracles (``+``, ``-``, scalar ``*`` and ``/``, ``derivative``, ``egf_shift``,
``truncate``) are the bodies the stored integer pair replaced; the pair itself
must stay canonical: ``den > 0`` and ``gcd(den, *nums) = 1``.
``iconv_oracle`` is the earlier integer convolution, with two list slices per
output coefficient.
"""

import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from umbralcalc import series
from umbralcalc.series import TruncatedSeries, as_rational, exp_series, log_series

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- oracles: the Fraction loops -------------------------------------------------


def conv_oracle(xs, ys, order):
    """Cauchy product of two coefficient lists, truncated to ``order``."""
    out = [_ZERO] * (order + 1)
    for i, xi in enumerate(xs):
        if i > order or not xi:
            continue
        top = min(len(ys) - 1, order - i)
        for j in range(top + 1):
            yj = ys[j]
            if yj:
                out[i + j] += xi * yj
    return out


def iconv_oracle(xs, ys, order):
    """The integer Cauchy product with two list slices per output coefficient."""
    xs, ys = list(xs), list(ys)
    return [sum(map(mul, xs[: m + 1], ys[m::-1])) for m in range(order + 1)]


def compose_oracle(coeffs, inner):
    """``coeffs(inner(t))`` summed over explicit powers of ``inner``."""
    n = min(len(coeffs), len(inner)) - 1
    b = inner[: n + 1]
    out = [coeffs[0]] + [_ZERO] * n
    power = [_ONE] + [_ZERO] * n
    for k in range(1, n + 1):
        power = conv_oracle(power, b, n)
        ak = coeffs[k]
        if not ak:
            continue
        for m in range(k, n + 1):
            if power[m]:
                out[m] += ak * power[m]
    return out


def reciprocal_oracle(coeffs):
    c0 = coeffs[0]
    n = len(coeffs) - 1
    out = [_ONE / c0] + [_ZERO] * n
    for k in range(1, n + 1):
        acc = _ZERO
        for j in range(1, k + 1):
            if coeffs[j]:
                acc += coeffs[j] * out[k - j]
        out[k] = -acc / c0
    return out


def reversion_oracle(coeffs):
    """Order by order: pin ``out[k]`` so that ``coeffs(out)`` matches ``t``."""
    n = len(coeffs) - 1
    c1 = coeffs[1]
    out = [_ZERO, _ONE / c1] + [_ZERO] * (n - 1)
    for k in range(2, n + 1):
        partial = out[: k + 1]
        residue = compose_oracle(coeffs[: k + 1], partial)[k]
        out[k] = -residue / c1
    return out


def exp_oracle(coeffs):
    """``sum a^n / n!`` over explicit powers."""
    n = len(coeffs) - 1
    out = [_ONE] + [_ZERO] * n
    power = [_ONE] + [_ZERO] * n
    for k in range(1, n + 1):
        power = conv_oracle(power, coeffs, n)
        inv = _ONE / math.factorial(k)
        for m in range(k, n + 1):
            if power[m]:
                out[m] += inv * power[m]
    return out


def log_oracle(coeffs):
    """``sum (-1)^(k+1) u^k / k`` over explicit powers of ``u = c - 1``."""
    n = len(coeffs) - 1
    u = [_ZERO] + list(coeffs[1:])
    out = [_ZERO] * (n + 1)
    power = [_ONE] + [_ZERO] * n
    for k in range(1, n + 1):
        power = conv_oracle(power, u, n)
        sign = _ONE / k if k % 2 else -_ONE / k
        for m in range(k, n + 1):
            if power[m]:
                out[m] += sign * power[m]
    return out


def add_oracle(xs, ys):
    n = min(len(xs), len(ys)) - 1
    return TruncatedSeries([a + b for a, b in zip(xs, ys)], order=n).coeffs


def neg_oracle(xs):
    return [-c for c in xs]


def sub_oracle(xs, ys):
    return add_oracle(xs, neg_oracle(ys))


def scale_oracle(xs, other):
    q = Fraction(other)
    return [c * q for c in xs]


def divide_oracle(xs, other):
    q = Fraction(other)
    return [c / q for c in xs]


def derivative_oracle(xs):
    return [n * c for n, c in enumerate(xs)][1:]


def egf_coeffs_oracle(xs):
    return tuple(math.factorial(n) * c for n, c in enumerate(xs))


def from_egf_oracle(values):
    return [as_rational(v) / math.factorial(n) for n, v in enumerate(values)]


def egf_shift_oracle(xs, n, extension=None):
    if n >= 0:
        egf = egf_coeffs_oracle(xs)
        return from_egf_oracle(egf[n:])
    ext = extension or {}
    values = [as_rational(ext.get(m, 0)) for m in range(n, 0)]
    values.extend(egf_coeffs_oracle(xs))
    return from_egf_oracle(values)


def truncate_oracle(xs, order):
    return xs[: order + 1]


# -- operands ----------------------------------------------------------------------

# zero (sparse series), small, large denominators, and very large numerators
coefficients = st.one_of(
    st.just(_ZERO),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**6)),
)
nonzero = coefficients.filter(bool)


def coeff_lists(max_order=20, min_order=0):
    return st.integers(min_order, max_order).flatmap(
        lambda n: st.lists(coefficients, min_size=n + 1, max_size=n + 1)
    )


def with_head(head, lists):
    """Replace the leading coefficients of each list by ``head``."""
    return st.tuples(head, lists).map(lambda p: list(p[0]) + p[1][len(p[0]):])


def canonical(series):
    assert series.den > 0
    assert math.gcd(series.den, *series.nums) == 1
    assert all(type(x) is int for x in series.nums)


def exact(series, oracle):
    canonical(series)
    assert all(type(c) is Fraction for c in series.coeffs)
    assert series.coeffs == tuple(oracle)
    # the same value built from Fractions has the same pair and hash
    rebuilt = TruncatedSeries(oracle)
    assert (rebuilt.nums, rebuilt.den) == (series.nums, series.den)
    assert rebuilt == series and hash(rebuilt) == hash(series)


# -- cross-checks --------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(coeff_lists(), coeff_lists())
def test_mul_matches_fraction_convolution(xs, ys):
    n = min(len(xs), len(ys)) - 1
    exact(TruncatedSeries(xs) * TruncatedSeries(ys), conv_oracle(xs, ys, n))


big_ints = st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40))
# ys has order + 1 entries or more; xs may be shorter or longer than that
iconv_cases = st.lists(big_ints, min_size=1, max_size=21).flatmap(
    lambda ys: st.tuples(
        st.lists(big_ints, max_size=21), st.just(ys), st.integers(0, len(ys) - 1)
    )
)


@settings(max_examples=200, deadline=None)
@given(iconv_cases, st.booleans())
@example(([1, -2], list(range(1, 21)), 19), False)  # a shorter xs
@example((list(range(20)), list(range(7, 27)), 5), True)  # order < len(ys) - 1
@example((list(range(-10, 10)), list(range(20, 40)), 19), True)  # 20-entry operands
def test_iconv_matches_the_sliced_products(case, stored):
    xs, ys, order = case
    if stored:  # the kernel reads stored tuples as well as lists
        xs, ys = tuple(xs), tuple(ys)
    got = series._iconv(xs, ys, order)
    assert type(got) is list and all(type(c) is int for c in got)
    assert got == iconv_oracle(xs, ys, order) == conv_oracle(xs, ys, order)


@settings(max_examples=60, deadline=None)
@given(coeff_lists(), with_head(st.just([_ZERO]), coeff_lists()))
def test_compose_matches_power_sum(outer, inner):
    result = TruncatedSeries(outer).compose(TruncatedSeries(inner))
    exact(result, compose_oracle(outer, inner))


@settings(max_examples=100, deadline=None)
@given(with_head(st.tuples(nonzero), coeff_lists()))
def test_reciprocal_matches_fraction_loop(cs):
    exact(TruncatedSeries(cs).reciprocal(), reciprocal_oracle(cs))


@settings(max_examples=25, deadline=None)
@given(with_head(st.tuples(st.just(_ZERO), nonzero), coeff_lists(min_order=1)))
def test_reversion_matches_order_by_order(cs):
    exact(TruncatedSeries(cs).reversion(), reversion_oracle(cs))


@settings(max_examples=60, deadline=None)
@given(with_head(st.just([_ZERO]), coeff_lists()))
def test_exp_matches_power_sum(cs):
    exact(exp_series(TruncatedSeries(cs)), exp_oracle(cs))


@settings(max_examples=60, deadline=None)
@given(with_head(st.just([_ONE]), coeff_lists()))
def test_log_matches_power_sum(cs):
    exact(log_series(TruncatedSeries(cs)), log_oracle(cs))


@settings(max_examples=150, deadline=None)
@given(coeff_lists(), coeff_lists())
def test_add_sub_neg_match_fraction_loops(xs, ys):
    a, b = TruncatedSeries(xs), TruncatedSeries(ys)
    exact(a + b, add_oracle(xs, ys))
    exact(a - b, sub_oracle(xs, ys))
    exact(-a, neg_oracle(xs))


@settings(max_examples=150, deadline=None)
@given(coeff_lists(), st.one_of(coefficients, st.integers(-(10**30), 10**30)))
def test_scalar_mul_div_match_fraction_loops(xs, q):
    a = TruncatedSeries(xs)
    exact(a * q, scale_oracle(xs, q))
    exact(q * a, scale_oracle(xs, q))
    constant = [Fraction(q)] + [_ZERO] * (len(xs) - 1)
    exact(a + q, add_oracle(xs, constant))
    exact(q - a, sub_oracle(constant, xs))
    if q:
        exact(a / q, divide_oracle(xs, q))
    else:
        with pytest.raises(ZeroDivisionError):
            a / q


@settings(max_examples=100, deadline=None)
@given(coeff_lists(min_order=1), st.data())
def test_derivative_egf_shift_truncate_match_fraction_loops(xs, data):
    a, n = TruncatedSeries(xs), len(xs) - 1
    exact(a.derivative(), derivative_oracle(xs))
    shift = data.draw(st.integers(-3, n))
    ext = data.draw(st.dictionaries(st.integers(-3, -1), coefficients, max_size=3))
    exact(a.egf_shift(shift, ext), egf_shift_oracle(xs, shift, ext))
    top = data.draw(st.integers(0, n))
    exact(a.truncate(top), truncate_oracle(xs, top))
    with pytest.raises(ValueError):
        a.truncate(-1)  # an empty slice: the parent's constructor refused it too


@settings(max_examples=100, deadline=None)
@given(coeff_lists())
def test_pair_is_canonical_and_zero_is_zero_over_one(xs):
    a = TruncatedSeries(xs)
    canonical(a)
    zero = a - a
    assert zero.nums == (0,) * len(xs) and zero.den == 1
    assert zero == TruncatedSeries.zero(len(xs) - 1) and not zero
    assert (a * 0).den == 1 and not a * 0
    assert bool(a) == any(xs)


def test_equal_values_have_equal_pairs_and_hashes():
    half = TruncatedSeries([Fraction(1, 2), Fraction(1, 4)])
    via_ops = TruncatedSeries([1, Fraction(1, 2)]) * Fraction(1, 2)
    via_sum = TruncatedSeries([Fraction(1, 6), Fraction(1, 12)]) * 3
    assert (half.nums, half.den) == ((2, 1), 4)
    for other in (via_ops, via_sum, TruncatedSeries([Fraction(2, 4), Fraction(3, 12)])):
        assert (other.nums, other.den) == (half.nums, half.den)
        assert other == half and hash(other) == hash(half)
    assert len({half, via_ops, via_sum}) == 1
    assert (-half).nums == (-2, -1) and (-half).den == 4
    assert ((half / -2).nums, (half / -2).den) == ((-2, -1), 8)
    assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])  # orders differ


def test_powers_square_from_the_base(monkeypatch):
    """``a ** n`` makes ``floor(log2 n)`` squarings and ``popcount(n) - 1``
    products, none with the series 1; a power past the order makes none."""
    calls, conv = [], series._iconv

    def counted(*args):
        calls.append(args)
        return conv(*args)

    monkeypatch.setattr(series, "_iconv", counted)
    a = TruncatedSeries([1, Fraction(-1, 2), 3, Fraction(2, 7)], order=6)
    powers = []
    for n in range(17):
        calls.clear()
        powers.append(a**n)
        assert len(calls) == (n.bit_length() + bin(n).count("1") - 2 if n else 0), n
    for n, t in ((4, TruncatedSeries([0, 0, 1], order=6)), (3, TruncatedSeries.zero(6))):
        calls.clear()
        assert t**n == TruncatedSeries.zero(6) and not calls
    monkeypatch.undo()
    product = TruncatedSeries.one(6)
    for n, power in enumerate(powers):
        assert power == product, n
        product = product * a


def test_division_by_zero_and_floats_still_raise():
    a = TruncatedSeries([1, Fraction(1, 3)])
    for zero in (0, Fraction(0), False):
        with pytest.raises(ZeroDivisionError):
            a / zero
    with pytest.raises(TypeError):
        TruncatedSeries([1, 0.5])
    for op in (lambda: a * 0.5, lambda: 0.5 * a, lambda: a + 0.5, lambda: a - 0.5,
               lambda: 0.5 - a, lambda: a / 0.5):
        with pytest.raises(TypeError):
            op()


def test_coeffs_is_a_read_only_fraction_view():
    a = TruncatedSeries([Fraction(1, 2), 3, 0])
    assert a.coeffs == (Fraction(1, 2), Fraction(3), _ZERO)
    assert all(type(c) is Fraction for c in a.coeffs)
    assert a.coeff(1) == 3 and a.egf(1) == 3 and a.egf_coeffs() == a.coeffs
    with pytest.raises(AttributeError):
        a.coeffs = (1,)


def test_kernels_at_order_zero():
    one = TruncatedSeries([3])
    assert one.reciprocal() == TruncatedSeries([Fraction(1, 3)])
    assert TruncatedSeries([5]).compose(TruncatedSeries([0])) == TruncatedSeries([5])
    assert exp_series(TruncatedSeries([0])) == TruncatedSeries([1])
    assert log_series(TruncatedSeries([1])) == TruncatedSeries([0])


def test_huge_numerators_survive_exactly():
    big = Fraction(10**60 + 7, 999_983)
    cs = [_ZERO, big, _ZERO, -big, Fraction(1, 10**6)] + [_ZERO] * 6 + [big]
    exact(TruncatedSeries(cs).reversion(), reversion_oracle(cs))
    exact(exp_series(TruncatedSeries(cs)), exp_oracle(cs))
    unit = [_ONE] + cs[1:]
    exact(log_series(TruncatedSeries(unit)), log_oracle(unit))
    exact(TruncatedSeries(unit).reciprocal(), reciprocal_oracle(unit))


def test_sympy_exp_log_reversion_at_order_ten():
    from sympy import QQ
    from sympy.polys.ring_series import rs_exp, rs_log, rs_series_reversion
    from sympy.polys.rings import ring

    n = 10
    ring_x, x = ring("x", QQ)
    cs = [_ZERO, Fraction(-3, 7), Fraction(5, 2), _ZERO, Fraction(-1, 9),
          Fraction(8, 3), Fraction(2, 5), _ZERO, Fraction(-7, 4), Fraction(1, 6),
          Fraction(9, 8)]
    p = sum((QQ(c.numerator, c.denominator) * x**k for k, c in enumerate(cs)), ring_x(0))

    def coeffs(q):
        return tuple(Fraction(int(v.numerator), int(v.denominator))
                     for v in (q.coeff(x**k) for k in range(n + 1)))

    a = TruncatedSeries(cs)
    assert exp_series(a).coeffs == coeffs(rs_exp(p, x, n + 1))
    assert log_series(a + 1).coeffs == coeffs(rs_log(p + 1, x, n + 1))
    assert a.reversion().coeffs == coeffs(rs_series_reversion(p, x, n + 1, x))
