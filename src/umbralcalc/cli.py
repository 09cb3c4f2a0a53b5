"""Command-line front end: tables, operator applications, identity checks.

Series arguments use the expression grammar from :mod:`umbralcalc.dsl`;
polynomial arguments are comma-separated rationals, low degree first.
Rationals are always emitted as exact ``p/q`` strings, never floats.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import dsl, registry
from .dsl import MAX_LITERAL_DIGITS, EvalError, ExprSyntaxError, check_literal, evaluate
from .dsl import int_digit_limit
from .errors import DomainError, IndexOutOfRange, OrderTooLarge, OrderTooSmall, ResultTooLarge
from .series import TruncatedSeries
from .umbral import attached_polynomial, pairing, umbral_operator
from .univar import UnivarPoly
from .virasoro import ladder_value, mode_shift

GRAMMAR = dsl.GRAMMAR + (
    "polynomial arguments: comma-separated rationals, low degree first (e.g. 0,1,3/2)\n"
)

# Longest numerator or denominator a report prints, in decimal digits (Python's
# default is 4,300); printing costs time quadratic in the length.
MAX_DIGITS = 100_000

# Largest truncation order a command accepts: ``--order`` is refused before
# any work, and a series order that ``--n``, ``--m`` or the degree of ``--p``
# implies before the series is built.  Past order 28 the cost grows
# steeply: ``verify --id ALL`` takes about 80 s of CPU at order 40 (ADJNEW 35 s,
# FAA 25 s, FDBU 16 s; one process on a 2-core Xeon VM, Python 3.11), and
# ``bell`` needs seconds at order 100 and over a minute at order 150.
MAX_ORDER = 40

# Largest ``--max-m`` and ``--max-n`` of ``fmn-table``, refused before any
# ladder value is computed.  Row m costs m + 1 row extensions per entry, so the
# table grows as max_m^2 * max_n: 100 x 100 takes about 0.3 s of CPU, and
# 1000 x 1000 ran past 10 s.
MAX_TABLE = 100


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n{GRAMMAR}")
        raise SystemExit(2)


class _UsageError(Exception):
    pass


def _parse_poly(text: str) -> UnivarPoly:
    for run in re.finditer(r"\d[\d_]*", text):  # Fraction reads 1_000 as 1000
        check_literal(len(run[0]) - run[0].count("_"), run.start())
    for exp in re.finditer(r"[eE][-+]?(\d[\d_]*)", text):  # 1e5 is 100000 to Fraction
        digits = exp[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DIGITS)) or int(digits or 0) >= MAX_DIGITS:
            raise ResultTooLarge(
                f"the decimal exponent at offset {exp.start()} makes a number "
                f"of more than {MAX_DIGITS} digits"
            )
    try:
        with int_digit_limit(MAX_LITERAL_DIGITS):
            return UnivarPoly([Fraction(part.strip()) for part in text.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad polynomial {text!r}: {exc}") from exc


def _series_arg(expr: str, order: int) -> TruncatedSeries:
    if order > MAX_ORDER:  # set by --n, --m or the degree of --p
        raise OrderTooLarge(f"series order {order} exceeds the ceiling MAX_ORDER = {MAX_ORDER}")
    try:
        return evaluate(expr, order)
    except (ExprSyntaxError, EvalError) as exc:
        raise _UsageError(f"bad series expression {expr!r}: {exc}") from exc


def _texts(values: Sequence[Fraction]) -> list[str]:
    """Exact ``p/q`` strings, with Python's digit limit set to MAX_DIGITS."""
    try:
        with int_digit_limit(MAX_DIGITS):
            return [str(v) for v in values]
    except ValueError:
        raise ResultTooLarge(f"a result has more than {MAX_DIGITS} digits") from None


def _csv(rows) -> str:
    """The rows as CSV text, each line ending in a bare newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _values_report(values: Sequence[Fraction], label: str, fmt: str) -> str:
    texts = _texts(values)
    if fmt == "json":
        return json.dumps({label: texts}) + "\n"
    if fmt == "csv":
        return _csv([("n", label), *enumerate(texts)])
    return " ".join(texts) + "\n"


def _poly_report(p: UnivarPoly, fmt: str) -> str:
    values = [p.coeff(k) for k in range(max(p.degree, 0) + 1)]
    return _values_report(values, "coeff", fmt)


def _scalar_report(value: Fraction, label: str, fmt: str) -> str:
    (text,) = _texts([value])
    if fmt == "json":
        return json.dumps({label: text}) + "\n"
    if fmt == "csv":
        return f"{label}\n{text}\n"
    return f"{text}\n"


def _table_report(max_m: int, max_n: int, fmt: str) -> str:
    """The ladder values ``f_m(n)`` for ``-1 <= m <= max_m``, ``0 <= n <= max_n``."""
    rows = {
        str(m): _texts([ladder_value(m, n) for n in range(max_n + 1)])
        for m in range(-1, max_m + 1)
    }
    if fmt == "json":
        return json.dumps({"max_m": max_m, "max_n": max_n, "rows": rows}, indent=2) + "\n"
    if fmt == "csv":
        return _csv([("m", *range(max_n + 1)), *((m, *row) for m, row in rows.items())])
    return "".join(f"m={m:>2}: {' '.join(row)}\n" for m, row in rows.items())


def _verify_report(results, order: int, seed: int, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "order": order,
            "seed": seed,
            "passed": all(r.passed for r in results),
            "results": [
                {"tag": r.tag, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        rows = [(r.tag, "pass" if r.passed else "FAIL", r.detail) for r in results]
        return _csv([("tag", "passed", "detail"), *rows])
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.tag}: {r.detail}" for r in results
    ]
    good = sum(1 for r in results if r.passed)
    lines.append(f"passed {good}/{len(results)} (order={order}, seed={seed})")
    return "\n".join(lines) + "\n"


def _unwritable(output: str) -> Optional[str]:
    """Why ``output`` cannot be opened, if that shows before any work is done:
    it is a directory, or its parent directory does not exist.  No file is made."""
    if os.path.isdir(output):
        return os.strerror(errno.EISDIR)
    if not os.path.isdir(os.path.dirname(output) or "."):
        return os.strerror(errno.ENOENT)
    return None


def _emit(text: str, output: Optional[str], code: int) -> int:
    """Write the report and return the exit code: ``code``, or 2 if ``output``
    cannot be written."""
    if not output:
        sys.stdout.write(text)
        return code
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {output}: {exc.strerror or exc}\n")
        return 2
    return code


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="umbralcalc",
        description="Exact identity checks and tables for the umbral/Virasoro calculus.",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order_default=None):
        p.add_argument("--order", type=int, default=order_default)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--output", default=None)

    p_bell = sub.add_parser("bell", help="EGF coefficients of exp(exp(t)-1)")
    common(p_bell, order_default=10)

    p_seq = sub.add_parser("umbral-seq", help="attached polynomial B_n(x)")
    p_seq.add_argument("--B", required=True, dest="b_expr")
    p_seq.add_argument("--n", required=True, type=int)
    common(p_seq)

    p_theta = sub.add_parser("theta", help="apply the umbral operator to p")
    p_theta.add_argument("--B", required=True, dest="b_expr")
    p_theta.add_argument("--p", required=True, dest="poly")
    common(p_theta)

    p_shift = sub.add_parser("shift", help="apply the level-m attached shift to p")
    p_shift.add_argument("--B", required=True, dest="b_expr")
    p_shift.add_argument("--m", type=int, default=-1)
    p_shift.add_argument("--p", required=True, dest="poly")
    common(p_shift)

    p_table = sub.add_parser("fmn-table", help="table of ladder values f_m(n)")
    p_table.add_argument("--max-m", type=int, default=8)
    p_table.add_argument("--max-n", type=int, default=20)
    common(p_table)

    p_pair = sub.add_parser("pair", help="pair a functional A against p")
    p_pair.add_argument("--A", required=True, dest="a_expr")
    p_pair.add_argument("--p", required=True, dest="poly")
    common(p_pair)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--id", default="ALL", dest="tag")
    p_verify.add_argument("--seed", type=int, default=0)
    common(p_verify, order_default=10)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    opts = parser.parse_args(argv)
    if opts.output and (reason := _unwritable(opts.output)):
        sys.stderr.write(f"error: cannot write {opts.output}: {reason}\n")
        return 2
    code = 0
    try:
        if opts.order is not None and opts.order < 0:
            raise _UsageError("--order must be nonnegative")
        if opts.order is not None and opts.order > MAX_ORDER:
            raise OrderTooLarge(f"--order {opts.order} exceeds the ceiling MAX_ORDER = {MAX_ORDER}")
        if opts.command == "bell":
            text = _values_report(registry.bell_egf(opts.order), "bell", opts.format)
        elif opts.command == "umbral-seq":
            if opts.n < 0:
                raise _UsageError("--n must be nonnegative")
            b = _series_arg(opts.b_expr, max(opts.n, 1, opts.order or 0))
            text = _poly_report(attached_polynomial(b, opts.n), opts.format)
        elif opts.command == "theta":
            p = _parse_poly(opts.poly)
            b = _series_arg(opts.b_expr, max(p.degree, 1, opts.order or 0))
            text = _poly_report(umbral_operator(b, p), opts.format)
        elif opts.command == "shift":
            p = _parse_poly(opts.poly)
            order = max(p.degree, p.degree - opts.m, 1, opts.order or 0)
            b = _series_arg(opts.b_expr, order)
            text = _poly_report(mode_shift(b, opts.m, p), opts.format)
        elif opts.command == "fmn-table":
            for flag, bound in (("--max-m", opts.max_m), ("--max-n", opts.max_n)):
                if bound > MAX_TABLE:
                    raise OrderTooLarge(f"{flag} {bound} exceeds the ceiling MAX_TABLE = {MAX_TABLE}")
            if opts.max_m < -1 or opts.max_n < 0:
                raise IndexOutOfRange("table bounds must cover m >= -1, n >= 0")
            text = _table_report(opts.max_m, opts.max_n, opts.format)
        elif opts.command == "pair":
            p = _parse_poly(opts.poly)
            a = _series_arg(opts.a_expr, max(p.degree, 0, opts.order or 0))
            text = _scalar_report(pairing(a, p), "pairing", opts.format)
        elif opts.command == "verify":
            if opts.tag == "ALL":
                if opts.order < registry.MIN_ALL_ORDER:
                    need = f"--order >= {registry.MIN_ALL_ORDER}, got {opts.order}"
                    raise OrderTooSmall(f"verify --id ALL needs {need}")
                results = registry.run_all(order=opts.order, seed=opts.seed)
            else:
                results = [
                    registry.run_check(opts.tag, order=opts.order, seed=opts.seed)
                ]
            args = f"--order {opts.order} --seed {opts.seed}"
            for r in results:  # stdout stays the report
                if not r.passed:
                    sys.stderr.write(f"repro: umbralcalc verify --id {r.tag} {args}\n")
            text = _verify_report(results, opts.order, opts.seed, opts.format)
            code = 0 if all(r.passed for r in results) else 1
        else:
            raise _UsageError(f"unknown command {opts.command!r}")
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n{GRAMMAR}")
        return 2
    return _emit(text, opts.output, code)


if __name__ == "__main__":
    sys.exit(main())
