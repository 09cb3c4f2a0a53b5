"""Run one ``umbralcalc verify`` invocation with the tracer installed.

Usage: ``python benchmarks/verify_child.py TRACE_OUT verify --id ALL ...``

The report goes to standard output exactly as ``python -m umbralcalc.cli``
prints it; the tracer's aggregates and spans go to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys

import umbralcalc.cli
from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("op", argv=argv):
            code = umbralcalc.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    payload = tracer.export()
    payload["package_file"] = umbralcalc.cli.__file__
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
