"""Outside-in tracer for the umbralcalc layers.

The tracer wraps the public functions of each module of ``umbralcalc`` from
the benchmark's own files; ``src/`` is never edited.  A function is wrapped in
its defining module and in every ``umbralcalc.*`` module that bound the same
object with ``from ... import``, and a class attribute is wrapped under every
alias (``__rmul__ = __mul__``) that holds the same function.

Calls and self time are kept as per-function aggregates on a call stack, not
as per-call spans: one ``verify --id ALL`` makes close to a million wrapped
calls.  Spans are kept only at op and registry-check boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

LAYERS = (
    "series",
    "univar",
    "genseries",
    "polyring",
    "umbral",
    "virasoro",
    "dsl",
    "registry",
    "cli",
)

# Wrapped functions per layer: short name -> (class name or None, attribute).
# Hot private helpers (``_conv``, ``_merge``, ...) are not wrapped; their time
# is self time of the public function that called them.
_ARITH = {
    "add": "__add__",
    "sub": "__sub__",
    "neg": "__neg__",
    "mul": "__mul__",
    "pow": "__pow__",
}


def _methods(cls: str, names: dict) -> dict:
    return {short: (cls, attr) for short, attr in names.items()}


def _functions(*names: str) -> dict:
    return {name: (None, name) for name in names}


TARGETS = {
    "series": {
        **_methods(
            "TruncatedSeries",
            {
                **_ARITH,
                "truediv": "__truediv__",
                "truncate": "truncate",
                "derivative": "derivative",
                "egf_shift": "egf_shift",
                "compose": "compose",
                "reciprocal": "reciprocal",
                "reversion": "reversion",
            },
        ),
        "exp": (None, "exp_series"),
        "log": (None, "log_series"),
        **_functions("shift_multiplier", "exp_t"),
    },
    "univar": {
        **_methods(
            "UnivarPoly",
            {
                **_ARITH,
                "truediv": "__truediv__",
                "evaluate": "evaluate",
                "derivative": "derivative",
                "shift_argument": "shift_argument",
            },
        ),
        **_functions("exp_w_ddx"),
    },
    "genseries": _methods(
        "GenSeries",
        {
            **_ARITH,
            "truncate": "truncate",
            "map": "map",
            "differentiate": "differentiate",
            "times_w": "times_w",
            "to_truncated": "to_truncated",
        },
    ),
    "polyring": {
        **_methods("MultiPoly", _ARITH),
        **_functions(
            "to_univar",
            "derivation",
            "derivation_powers",
            "exp_derivation",
            "specialize_x",
            "specialize_y",
            "specialize_fock",
            "generic_composite_series",
        ),
    },
    "umbral": _functions(
        "pairing",
        "pairing_series",
        "composed_expansion",
        "attached_generating_series",
        "attached_polynomial",
        "umbral_operator",
        "attached_basis_expansion",
        "umbral_shift",
        "functional_shift",
        "apply_series_in_ddx",
        "check_adjoint",
    ),
    "virasoro": _functions(
        "heisenberg",
        "virasoro",
        "weight",
        "fock_derivation",
        "lowering_powers",
        "basis_monomials",
        "ladder_value",
        "ladder_closed",
        "mode_shift",
        "binom_general",
        "sheffer_pair",
        "heuristic_bracket_cells",
    ),
    "dsl": _functions("parse", "eval_expr", "evaluate", "to_text"),
    "registry": _functions("bell_egf", "run_check", "run_all"),
    "cli": {"main": (None, "main"), "report": (None, "_verify_report")},
}

# Derived ratios: calls of the counted function made inside a top-level call
# of any entry function, per top-level entry call.
SCOPES = {
    "virasoro.heisenberg_per_virasoro": (("virasoro.virasoro",), "virasoro.heisenberg"),
    "umbral.attached_gs_per_call": (
        (
            "umbral.attached_polynomial",
            "umbral.umbral_operator",
            "umbral.umbral_shift",
            "umbral.functional_shift",
            "virasoro.mode_shift",
        ),
        "umbral.attached_generating_series",
    ),
    "series.compose_per_reversion": (("series.reversion",), "series.compose"),
}


def target_names() -> list[str]:
    return [f"{layer}.{short}" for layer in LAYERS for short in TARGETS.get(layer, {})]


class Tracer:
    """Per-function call counts and self times, plus op and check spans."""

    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        # stack[-1] accumulates the time of wrapped calls made by the current
        # frame; stack[0] belongs to code outside every wrapped call
        self._stack: list[float] = [0.0]
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.scopes = {name: [0, 0, 0] for name in SCOPES}  # depth, entries, counted
        self.missing: set[str] = set()
        self._patched: list[tuple] = []
        self._t0 = time.perf_counter()
        for name in target_names():
            self._slot(name)

    def _slot(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return self.index[name]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool = False):
        i = self._slot(name)
        calls, self_s, incl_s, stack = self.calls, self.self_s, self.incl_s, self._stack
        clock = time.perf_counter

        if span:

            def wrapper(*args, **kwargs):
                with self.span(name):
                    stack.append(0.0)
                    start = clock()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        elapsed = clock() - start
                        child = stack.pop()
                        stack[-1] += elapsed
                        calls[i] += 1
                        self_s[i] += elapsed - child
                        incl_s[i] += elapsed

        else:

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    stack[-1] += elapsed
                    calls[i] += 1
                    self_s[i] += elapsed - child
                    incl_s[i] += elapsed

        for scope, (entries, counted) in SCOPES.items():
            if name in entries:
                wrapper = self._scoped(wrapper, self.scopes[scope], self._slot(counted))
        return functools.update_wrapper(wrapper, fn)

    def _scoped(self, fn, state: list, counted: int):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if state[0]:
                return fn(*args, **kwargs)
            state[0] = 1
            before = calls[counted]
            try:
                return fn(*args, **kwargs)
            finally:
                state[0] = 0
                state[1] += 1
                state[2] += calls[counted] - before

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span; spans nest under the innermost open span."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._t0,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    @contextlib.contextmanager
    def paused(self):
        """Leave out of the aggregates the wrapped calls made inside the block
        (operand generation and correctness checks)."""
        saved = (list(self.calls), list(self.self_s), list(self.incl_s), self._stack[0])
        scopes = {name: list(state) for name, state in self.scopes.items()}
        try:
            yield
        finally:
            self.calls[:], self.self_s[:], self.incl_s[:] = saved[:3]
            self._stack[0] = saved[3]
            for name, state in scopes.items():
                self.scopes[name][:] = state

    def wrapped_time(self) -> float:
        """Total time spent inside top-level wrapped calls so far."""
        return self._stack[0]

    # -- installation --------------------------------------------------------

    def _patch(self, holder, key: str, value) -> None:
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"umbralcalc.{layer}") for layer in LAYERS}
        package = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "umbralcalc" or name.startswith("umbralcalc."))
        ]
        for layer, table in TARGETS.items():
            for short, (cls_name, attr) in table.items():
                name = f"{layer}.{short}"
                if cls_name is None:
                    original = getattr(modules[layer], attr, None)
                    holders = package
                else:
                    owner = getattr(modules[layer], cls_name, None)
                    original = vars(owner).get(attr) if owner is not None else None
                    holders = [owner]
                if original is None:
                    self.missing.add(name)
                    continue
                wrapper = self._wrap(name, original)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)
        self._install_checks(modules["registry"])

    def _install_checks(self, registry) -> None:
        """Wrap each registry check in place, so ``run_all`` and ``run_check``
        both reach the wrapper; each check also records a span."""
        checks = getattr(registry, "CHECKS", None)
        by_tag = getattr(registry, "_BY_TAG", None)
        if not isinstance(checks, list) or not isinstance(by_tag, dict):
            self.missing.add("registry.CHECKS")
            return
        saved = list(checks)
        saved_by_tag = dict(by_tag)
        for pos, (tag, doc, fn) in enumerate(saved):
            wrapper = self._wrap(f"registry.{tag}", fn, span=True)
            checks[pos] = (tag, doc, wrapper)
            by_tag[tag] = wrapper

        def restore():
            checks[:] = saved
            by_tag.clear()
            by_tag.update(saved_by_tag)

        self._patched.append((None, None, restore))

    def uninstall(self) -> None:
        while self._patched:
            holder, key, value = self._patched.pop()
            if holder is None:
                value()
            else:
                setattr(holder, key, value)

    # -- results -------------------------------------------------------------

    def export(self) -> dict:
        return {
            "functions": {
                name: {"calls": self.calls[i], "self_s": self.self_s[i], "incl_s": self.incl_s[i]}
                for i, name in enumerate(self.names)
            },
            "scopes": {name: {"entries": s[1], "counted": s[2]} for name, s in self.scopes.items()},
            "wrapped_s": self.wrapped_time(),
            "spans": self.spans,
            "missing": sorted(self.missing),
        }


def merge(exports: list[dict]) -> dict:
    """Sum the aggregates of several tracer exports (one per process)."""
    functions: dict = {}
    scopes = {name: {"entries": 0, "counted": 0} for name in SCOPES}
    wrapped = 0.0
    missing: set = set()
    for exp in exports:
        for name, agg in exp["functions"].items():
            tot = functions.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for key in tot:
                tot[key] += agg[key]
        for name, s in exp["scopes"].items():
            for key in ("entries", "counted"):
                scopes[name][key] += s[key]
        wrapped += exp["wrapped_s"]
        missing.update(exp["missing"])
    return {"functions": functions, "scopes": scopes, "wrapped_s": wrapped, "missing": sorted(missing)}
