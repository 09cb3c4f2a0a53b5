"""Each kernel, broken on purpose, is caught by the registry.

A mutant adds one to a single fixed coefficient of a kernel's output (for the
integer core, one unit at ``t^9`` of every integer convolution).  The
registry checks that guard the kernel must then report FAIL at order 10.
Kernels are patched through ``sys.modules["umbralcalc.<module>"]``: the
package re-exports some names (``umbralcalc.virasoro`` is also a function),
so ``import umbralcalc.series as S`` is not a safe handle.  Unmutated, every
check passes at order 10 (the golden reports in ``tests/golden`` pin that).
``log_series`` has no mutant here because no registry check guards it yet.
"""

import sys

import pytest

from umbralcalc import registry
from umbralcalc.genseries import GenSeries
from umbralcalc.polyring import MultiPoly
from umbralcalc.univar import UnivarPoly

series, polyring, umbral, virasoro = (
    sys.modules[f"umbralcalc.{name}"] for name in ("series", "polyring", "umbral", "virasoro")
)


def _bump(coeffs, k):
    out = list(coeffs)
    if len(out) > k:
        out[k] += 1
    return out


def _off_by_one(fn, k):
    """``fn`` with coefficient ``k`` of its series result off by one."""

    def mutant(*args):
        return series.TruncatedSeries(_bump(fn(*args).coeffs, k))

    return mutant


def _patch_core(mp):
    core = series._iconv
    mp.setattr(series, "_iconv", lambda *args: _bump(core(*args), 9))


def _patch_method(name, k):
    def patch(mp):
        cls = series.TruncatedSeries
        mp.setattr(cls, name, _off_by_one(getattr(cls, name), k))

    return patch


def _patch_everywhere(mp, home, name, make_mutant):
    """Replace ``home.name`` by ``make_mutant(original)`` in every ``umbralcalc``
    module that bound it."""
    original = getattr(home, name)
    mutant = make_mutant(original)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("umbralcalc") and (
            getattr(module, name, None) is original
        ):
            mp.setattr(module, name, mutant)


def _patch_function(name, k):
    """Patch a series function in every ``umbralcalc`` module that bound it."""
    return lambda mp: _patch_everywhere(mp, series, name, lambda fn: _off_by_one(fn, k))


def _composed_off_at_w4(fn):
    """``[w^4] A(x B(w))`` gains an extra ``x``."""

    def mutant(*args):
        cs = list(fn(*args).coeffs)
        if len(cs) > 4:
            cs[4] = cs[4] + UnivarPoly.x()
        return GenSeries(cs)

    return mutant


def _patch_gen_compose(mp):
    """``[w^4]`` of every ``GenSeries.compose`` result gains one."""
    compose = GenSeries.compose

    def mutant(outer, inner):
        cs = list(compose(outer, inner).coeffs)
        if len(cs) > 4:
            cs[4] = cs[4] + 1
        return GenSeries(cs)

    mp.setattr(GenSeries, "compose", mutant)


def _table_off_at_w4(fn):
    """``[w^4] B(w)^k`` is off by one for ``k = 1 .. 4``."""

    def mutant(b, order):
        rows, d = fn(b, order)
        rows = [list(row) for row in rows]
        for k in range(1, 5 if order >= 4 else 0):
            rows[k][4] += 1
        return rows, d

    return mutant


def _coordinates_off_at_3(fn):
    """``v_3 = 3! c_3`` of every basis expansion is off by one: ``vs[3]`` gains ``den``."""

    def mutant(table, p):
        vs, den = fn(table, p)
        return [v + den if n == 3 else v for n, v in enumerate(vs)], den

    return mutant


def _poly_off_at_x3(fn):
    """``[x^3]`` of every polynomial result is off by one."""
    return lambda *args: UnivarPoly(_bump(fn(*args).coeffs, 3))


def _patch_derivation_step(mp):
    """The integer ``D`` step is off by one on every term of ``x``-degree 3."""
    step = polyring._derive

    def mutant(terms):
        out = step(terms)
        for key in out:
            if len(key[1]) == 3:
                out[key] += 1
        return out

    mp.setattr(polyring, "_derive", mutant)


def _moves_off_by_one(fn):
    """Every unit move of ``D`` and ``fock_derivation`` carries one unit too many."""
    return lambda t: [(moved, e + 1) for moved, e in fn(t)]


def _specialize_x_off_at_x3(fn):
    def mutant(p, b):
        image = fn(p, b)
        return MultiPoly({k: v + 1 if k[2] == 3 else v for k, v in image.terms.items()})

    return mutant


def _ladder_off_at_2_6(fn):
    return lambda m, n: fn(m, n) + (1 if (m, n) == (2, 6) else 0)


def _binom_off_at_3(fn):
    return lambda z, k: fn(z, k) + (1 if k == 3 else 0)


def _patch_virasoro_unit(mp):
    """The first coefficient of ``L(3)`` on every monomial is off by one."""
    unit = virasoro._virasoro_unit

    def mutant(m, xs):
        pairs, den = unit(m, xs)
        if m != 3 or not pairs:
            return pairs, den
        (key, num), *rest = pairs
        return ((key, num + den), *rest), den  # numerators sit over den

    mp.setattr(virasoro, "_virasoro_unit", mutant)


def _h_minus_3_off(fn):
    """The scale ``1/2!`` of ``h(-3)`` is off by one: ``3/2``."""
    return lambda n, p: fn(n, p) * 3 if n == -3 else fn(n, p)


# kernel: (patch, registry checks that must FAIL)
MUTANTS = {
    "integer core": (_patch_core, ("FAA", "BELL", "ADJNEW", "BSTAR")),
    "compose": (
        _patch_method("compose", 7),
        ("FAA", "BELL", "ADJNEW", "ADJ-SUBST", "ADJ-SHIFT", "BSTAR"),
    ),
    "GenSeries.compose": (_patch_gen_compose, ("FAA", "FDBU")),
    "reversion": (_patch_method("reversion", 7), ("ADJNEW", "ADJ-SHIFT", "BSTAR")),
    "reciprocal": (_patch_method("reciprocal", 5), ("BSTAR",)),
    "exp_series": (_patch_function("exp_series", 5), ("UMBRAL-BASIS",)),
    "power table": (
        lambda mp: _patch_everywhere(mp, umbral, "power_table", _table_off_at_w4),
        ("FDBU", "ADJ-SUBST", "ADJ-SHIFT", "UMBRAL-BASIS", "GENSHIFT-GF", "UMBVIR"),
    ),
    "composed_expansion": (
        lambda mp: _patch_everywhere(mp, umbral, "composed_expansion", _composed_off_at_w4),
        ("FDBU", "UMBRAL-BASIS", "GENSHIFT-GF"),
    ),
    "attached_sum": (
        lambda mp: _patch_everywhere(mp, umbral, "attached_sum", _poly_off_at_x3),
        ("FDBU", "ADJ-SUBST", "ADJ-SHIFT", "UMBRAL-BASIS", "GENSHIFT-GF", "UMBVIR"),
    ),
    "basis_coordinates": (
        lambda mp: _patch_everywhere(mp, umbral, "basis_coordinates", _coordinates_off_at_3),
        ("ADJ-SHIFT", "UMBRAL-BASIS", "GENSHIFT-GF", "UMBVIR"),
    ),
    "egf_multiplier": (
        lambda mp: _patch_everywhere(mp, umbral, "egf_multiplier", _poly_off_at_x3),
        ("FDBU", "UMBRAL-BASIS", "GENSHIFT-GF"),
    ),
    "derivation step": (_patch_derivation_step, ("AUTOMORPHISM", "FDBU", "ADJNEW")),
    "unit_moves": (
        lambda mp: _patch_everywhere(mp, polyring, "unit_moves", _moves_off_by_one),
        ("AUTOMORPHISM", "FDBU", "ADJNEW", "LM1-EQ-D"),
    ),
    "specialize_x": (
        lambda mp: _patch_everywhere(mp, polyring, "specialize_x", _specialize_x_off_at_x3),
        ("FDBU", "ADJNEW", "UMBVIR"),
    ),
    "ladder_value": (
        lambda mp: _patch_everywhere(mp, virasoro, "ladder_value", _ladder_off_at_2_6),
        ("LADDER", "F-CLOSED", "RECSQUARE", "GENSHIFT-GF"),
    ),
    "ladder_closed": (
        lambda mp: _patch_everywhere(mp, virasoro, "ladder_closed", _ladder_off_at_2_6),
        ("F-CLOSED", "SHEFFER-TS", "F-HEURISTIC"),
    ),
    "binom_general": (
        lambda mp: _patch_everywhere(mp, virasoro, "binom_general", _binom_off_at_3),
        ("SHEFFER-TS",),
    ),
    "_virasoro_unit": (_patch_virasoro_unit, ("VIR-BRACKET", "LADDER")),
    "heisenberg h(-3)": (
        lambda mp: _patch_everywhere(mp, virasoro, "heisenberg", _h_minus_3_off),
        ("HEIS",),
    ),
}


@pytest.mark.parametrize("kernel", MUTANTS)
def test_mutant_fails_its_guards(monkeypatch, kernel):
    patch, tags = MUTANTS[kernel]
    patch(monkeypatch)
    failed = [tag for tag in tags if not registry.run_check(tag, order=10, seed=0).passed]
    assert failed == list(tags)
