"""Every function the benchmark's tracer wraps is where the tracer looks it up.

``benchmarks/tracer.py`` finds a traced method in its class's own ``vars()``,
not through inheritance, and a traced function on its module; a target it
cannot find is reported missing and goes unmeasured.  This reads the
tracer's ``TARGETS`` table and wraps nothing.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_tracer_target_is_found_where_the_tracer_looks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracer import TARGETS

    assert TARGETS
    for layer, table in TARGETS.items():
        module = importlib.import_module(f"umbralcalc.{layer}")
        for short, (cls_name, attr) in table.items():
            name = f"{layer}.{short}"
            if cls_name is None:
                assert callable(getattr(module, attr, None)), name
            else:
                assert attr in vars(getattr(module, cls_name)), name
