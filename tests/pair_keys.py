"""Monomial keys as ``(index, exponent)`` pairs: the earlier layout, kept as
an oracle for the index-tuple keys of ``umbralcalc.polyring``.

An index key holds each family as the sorted tuple of its indices, one entry
per unit: ``y_0 x_1^2 x_3`` is ``((0,), (1, 1, 3), 0)``.  A pair key holds the
sorted ``(index, exponent)`` pairs instead: ``(((0, 1),), ((1, 2), (3, 1)), 0)``.
The plain-``x`` exponent is an int in both.  :func:`pair_key` and
:func:`index_key` are the one converter between them, and :func:`to_pairs`
and :func:`from_pairs` apply it to the keys of a ``MultiPoly``, of each
coefficient of a ``GenSeries`` or of each item of a list.

Everything below the converter is the earlier pair-keyed code, copied verbatim
except for its names: ``shift_exps``, ``_step``, ``_derive``, the key product,
``_substitute``, ``_virasoro_unit`` with ``virasoro``, ``heisenberg``,
``fock_derivation`` and ``MultiPoly.__str__``.  It reads and writes pair keys only.
"""

import math

from umbralcalc.errors import UnsupportedVariable
from umbralcalc.genseries import GenSeries
from umbralcalc.polyring import MultiPoly, accumulate, fock_key, fock_nums

# -- the converter -----------------------------------------------------------------


def pair_family(units: tuple) -> tuple:
    """A sorted index tuple as sorted ``(index, exponent)`` pairs."""
    exps: dict = {}
    for i in units:
        exps[i] = exps.get(i, 0) + 1
    return tuple(sorted(exps.items()))


def index_family(pairs: tuple) -> tuple:
    """Sorted ``(index, exponent)`` pairs as a sorted index tuple."""
    return tuple(i for i, e in pairs for _ in range(e))


def pair_key(key: tuple) -> tuple:
    ys, xs, px = key
    return pair_family(ys), pair_family(xs), px


def index_key(key: tuple) -> tuple:
    ys, xs, px = key
    return index_family(ys), index_family(xs), px


def _convert(value, rekey):
    if isinstance(value, MultiPoly):
        nums = {rekey(k): v for k, v in value.nums.items()}
        assert len(nums) == len(value.nums)
        return MultiPoly.from_pair(nums, value.den)
    if isinstance(value, GenSeries):
        return GenSeries([_convert(c, rekey) for c in value.coeffs])
    if isinstance(value, list):
        return [_convert(c, rekey) for c in value]
    return value


def to_pairs(value):
    """``value`` (a ``MultiPoly``, ``GenSeries`` or list) with pair keys;
    anything else is returned as it is."""
    return _convert(value, pair_key)


def from_pairs(value):
    """``value`` with pair keys rewritten as index keys."""
    return _convert(value, index_key)


# -- the pair-keyed ring -----------------------------------------------------------


def shift_exps(exps: tuple, *deltas: tuple) -> tuple:
    """Add each ``(index, delta)`` in turn to a sorted exponent tuple."""
    if not deltas:
        return exps
    out = dict(exps)
    for index, delta in deltas:
        e = out.get(index, 0) + delta
        if e < 0:
            raise ValueError("negative exponent")
        if e:
            out[index] = e
        else:
            out.pop(index, None)
    return tuple(sorted(out.items()))


def key_mul(k1, k2):
    return (shift_exps(k1[0], *k2[0]), shift_exps(k1[1], *k2[1]), k1[2] + k2[2])


def mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """The product of two pair-keyed polynomials."""
    products = (
        (key_mul(k1, k2), v1 * v2)
        for k1, v1 in p.nums.items()
        for k2, v2 in q.nums.items()
    )
    return MultiPoly.from_pair(accumulate({}, products), p.den * q.den)


def _step(exps: tuple, pos: int) -> tuple:
    """``exps`` with one unit moved from its ``pos``-th index ``i`` to ``i + 1``."""
    i, e = exps[pos]
    rest = exps[pos + 1 :]
    if rest and rest[0][0] == i + 1:
        rest = ((i + 1, rest[0][1] + 1),) + rest[1:]
    else:
        rest = ((i + 1, 1),) + rest
    return exps[:pos] + (((i, e - 1),) if e > 1 else ()) + rest


def _derive(terms: dict) -> dict:
    """One step of ``D`` on a ``{key: coefficient}`` map; ``D`` has integer
    coefficients, so integer coefficients stay integers."""
    pairs = []
    for (ys, xs, px), c in terms.items():
        if px:
            raise UnsupportedVariable("derivation domain has no plain x")
        xs1 = _step(((0, 1),) + xs, 0)  # times x_1
        pairs += [((_step(ys, n), xs1, 0), c * e) for n, (_, e) in enumerate(ys)]
        pairs += [((ys, _step(xs, n), 0), c * e) for n, (_, e) in enumerate(xs)]
    return accumulate({}, pairs)


def derivation_levels(p: MultiPoly, count: int) -> list:
    """``[p, Dp, ..., D^count p]`` of a pair-keyed polynomial."""
    levels = [p.nums]
    for _ in range(count):
        levels.append(_derive(levels[-1]))
    return [MultiPoly.from_pair(level, p.den) for level in levels]


def _substitute(p: MultiPoly, family: int, values, d: int) -> MultiPoly:
    """Replace each ``y_i`` (``family`` 0) or each ``x_j`` (``family`` 1) by
    ``values[index] / d``; an ``x_j`` of total degree ``e`` becomes ``x^e``.
    Every term is put over ``p.den * d^top`` (``top`` the largest substituted
    degree) before the integer sums."""
    degrees = [sum(e for _, e in key[family]) for key in p.nums]
    top = max(degrees, default=0)
    scale = [d ** (top - k) for k in range(top + 1)]
    pairs = []
    for (key, c), deg in zip(p.nums.items(), degrees):
        for i, e in key[family]:
            c *= values[i] ** e
        image = (key[0], (), deg) if family else ((), (), key[2])
        pairs.append((image, c * scale[deg]))
    return MultiPoly.from_pair(accumulate({}, pairs), p.den * d**top)


def to_str(p: MultiPoly) -> str:
    """``str`` of a pair-keyed polynomial, terms in the order of their keys."""
    if not p.nums:
        return "0"
    parts = []
    for (ys, xs, px), c in sorted(p.terms.items(), key=lambda kv: kv[0]):
        factors = []
        for i, e in ys:
            name = f"y{i}" if i >= 0 else f"y({i})"
            factors.append(name if e == 1 else f"{name}^{e}")
        for j, e in xs:
            factors.append(f"x{j}" if e == 1 else f"x{j}^{e}")
        if px:
            factors.append("x" if px == 1 else f"x^{px}")
        body = "*".join(factors)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts)


# -- the pair-keyed Fock space -----------------------------------------------------


def heisenberg(n: int, p: MultiPoly) -> MultiPoly:
    """Apply the mode ``h(n)``; distinct monomials have distinct images."""
    terms = fock_nums(p)
    if n == 0:
        return p
    if n < 0:
        images = {fock_key(shift_exps(xs, (-n, 1))): c for xs, c in terms}
        return MultiPoly.from_pair(images, p.den * math.factorial(-n - 1))
    scale = math.factorial(n)
    pairs = ((xs, c * e * scale) for xs, c in terms for j, e in xs if j == n)
    return MultiPoly.from_pair({fock_key(shift_exps(xs, (n, -1))): v for xs, v in pairs}, p.den)


def virasoro_unit(m: int, xs: tuple) -> tuple:
    """``L(m)`` of the unit monomial with exponent tuple ``xs``, as
    ``(((key, numerator), ...), den)`` with distinct keys; every coefficient of
    the normal-ordered form is positive, so none cancels.

    Each coefficient ``num / div`` is put over ``den = 2`` (``m >= 0``) or
    ``den = 2 (k_max - m - 1)!`` (``m < 0``, ``k_max`` the largest index in
    ``xs``), which every ``div`` below divides, and the pair is reduced once."""
    fact = math.factorial
    if m == 0:
        return ((fock_key(xs), 1 + 2 * sum(j * e for j, e in xs)),), 2
    den = 2 if m > 0 else 2 * fact(max((k for k, _ in xs), default=0) - m - 1)
    exps = dict(xs)
    pairs = []

    def bump(num: int, div: int, *delta: tuple) -> None:
        pairs.append((fock_key(shift_exps(xs, *delta)), den * num // div))

    if m > 0:  # h(m)
        if exps.get(m):
            bump(fact(m) * exps[m], 1, (m, -1))
    else:
        bump(1, fact(-m - 1), (-m, 1))
    for k, e in xs:  # h(m-k) h(k) with k > max(0, m): x_k -> x_(k-m)
        if k > m:
            bump(fact(k) * e, fact(k - m - 1), (k, -1), (k - m, 1))
    for k, e in xs:  # (1/2) h(m-k) h(k) with 0 < k < m: remove x_k, x_(m-k)
        j = m - k
        if 0 < j:
            rest = e - 1 if j == k else exps.get(j, 0)
            if rest:
                bump(fact(k) * e * fact(j) * rest, 2, (k, -1), (j, -1))
    for a in range(1, -m):  # (1/2) h(m-k) h(k) with m < k < 0: add x_a, x_(-m-a)
        b = -m - a
        bump(1, 2 * fact(a - 1) * fact(b - 1), (a, 1), (b, 1))
    acc = accumulate({}, pairs)
    g = math.gcd(den, *acc.values())
    return tuple((key, v // g) for key, v in acc.items()), den // g


def virasoro(m: int, p: MultiPoly) -> MultiPoly:
    """Apply the quadratic mode ``L(m)``; lowers weight by ``m``."""
    units = [(c, virasoro_unit(m, xs)) for xs, c in fock_nums(p)]
    den = math.lcm(*[d for _, (_, d) in units])
    acc: dict = {}
    for c, (pairs, d) in units:
        s = c * (den // d)
        accumulate(acc, ((image, s * v) for image, v in pairs))
    return MultiPoly.from_pair(acc, p.den * den)


def fock_derivation(p: MultiPoly) -> MultiPoly:
    """The derivation ``x_1 + sum_k x_(k+1) d/dx_k`` (the image of ``y`` ships
    along implicitly); must coincide with ``L(-1)``."""
    pairs = []
    for xs, c in fock_nums(p):
        pairs.append((fock_key(shift_exps(xs, (1, 1))), c))
        for j, e in xs:
            pairs.append((fock_key(shift_exps(xs, (j, -1), (j + 1, 1))), c * e))
    return MultiPoly.from_pair(accumulate({}, pairs), p.den)
