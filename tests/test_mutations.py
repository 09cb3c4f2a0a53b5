"""Each dense series kernel, broken on purpose, is caught by the registry.

A mutant adds one to a single fixed coefficient of a kernel's output (for the
integer core, one unit at ``t^9`` of every integer convolution).  The
registry checks that guard the kernel must then report FAIL at order 10.
Kernels are patched through ``sys.modules["umbralcalc.series"]``: the package
re-exports some names, so ``import umbralcalc.series as S`` is not a safe
handle.  Unmutated, every check passes at order 10 (the golden reports in
``tests/golden`` pin that).  ``log_series`` has no mutant here because no
registry check guards it yet.
"""

import sys

import pytest

from umbralcalc import registry

series = sys.modules["umbralcalc.series"]


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


def _patch_function(name, k):
    """Patch a module function in every ``umbralcalc`` module that bound it."""

    def patch(mp):
        original = getattr(series, name)
        mutant = _off_by_one(original, k)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("umbralcalc") and (
                getattr(module, name, None) is original
            ):
                mp.setattr(module, name, mutant)

    return patch


# kernel: (patch, registry checks that must FAIL)
MUTANTS = {
    "integer core": (_patch_core, ("FAA", "BELL", "ADJNEW", "BSTAR")),
    "compose": (
        _patch_method("compose", 7),
        ("FAA", "BELL", "ADJNEW", "ADJ-SUBST", "ADJ-SHIFT", "BSTAR"),
    ),
    "reversion": (_patch_method("reversion", 7), ("ADJNEW", "ADJ-SHIFT", "BSTAR")),
    "reciprocal": (_patch_method("reciprocal", 5), ("BSTAR",)),
    "exp_series": (_patch_function("exp_series", 5), ("UMBRAL-BASIS",)),
}


@pytest.mark.parametrize("kernel", MUTANTS)
def test_mutant_fails_its_guards(monkeypatch, kernel):
    patch, tags = MUTANTS[kernel]
    patch(monkeypatch)
    failed = [tag for tag in tags if not registry.run_check(tag, order=10, seed=0).passed]
    assert failed == list(tags)
