"""Command-line behaviour: formats, exit codes, determinism, file output."""

import json
import shlex
import sys
import time
from pathlib import Path

import pytest

from umbralcalc import cli
from umbralcalc.dsl import MAX_POWER_BITS
from umbralcalc.registry import MIN_ALL_ORDER, CheckResult
from umbralcalc.series import TruncatedSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_examples_print_their_outputs(capsys):
    """Every README command followed by a ``# output`` line prints that line
    first (an annotation after two spaces is not part of the output)."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = [
        (cmd, out[2:].split("  ")[0])
        for cmd, out in zip(lines, lines[1:])
        if cmd.startswith("umbralcalc ") and out.startswith("# ")
    ]
    assert len(examples) >= 6
    for cmd, first in examples:
        code, out, _ = run(capsys, *shlex.split(cmd)[1:])
        assert (code, out.splitlines()[0]) == (0, first), cmd


def test_bell_text(capsys):
    code, out, _ = run(capsys, "bell", "--order", "7")
    assert code == 0
    assert out == "1 1 2 5 15 52 203 877\n"


def test_bell_json(capsys):
    code, out, _ = run(capsys, "bell", "--order", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"bell": ["1", "1", "2", "5", "15", "52"]}


def test_bell_csv(capsys):
    code, out, _ = run(capsys, "bell", "--order", "2", "--format", "csv")
    assert code == 0
    assert out == "n,bell\n0,1\n1,1\n2,2\n"


def test_umbral_seq(capsys):
    code, out, _ = run(capsys, "umbral-seq", "--B", "exp(t)-1", "--n", "2")
    assert code == 0
    assert out == "0 1 1\n"


def test_theta(capsys):
    code, out, _ = run(capsys, "theta", "--B", "exp(t)-1", "--p", "0,0,1")
    assert code == 0
    assert out == "0 1 1\n"


def test_shift_classical(capsys):
    code, out, _ = run(capsys, "shift", "--B", "t", "--p", "0,1")
    assert code == 0
    assert out == "0 0 1\n"  # multiplication by x


def test_shift_level_one(capsys):
    code, out, _ = run(capsys, "shift", "--B", "exp(t)-1", "--m", "1", "--p", "0,1,1")
    assert code == 0
    assert out == "0 4\n"  # f_1(2) B_1 = 4x


_FMN_3_5_ROWS = (
    ("-1", "1 1 1 1 1 1"),
    ("0", "1/2 3/2 5/2 7/2 9/2 11/2"),
    ("1", "0 1 4 9 16 25"),
    ("2", "0 0 3 15 42 90"),
    ("3", "0 0 0 12 72 240"),
)


def test_fmn_table_text(capsys):
    code, out, err = run(capsys, "fmn-table", "--max-m", "3", "--max-n", "5")
    assert (code, err) == (0, "")
    assert out == "".join(f"m={m:>2}: {row}\n" for m, row in _FMN_3_5_ROWS)


def test_fmn_table_csv(capsys):
    code, out, err = run(
        capsys, "fmn-table", "--max-m", "3", "--max-n", "5", "--format", "csv"
    )
    assert (code, err) == (0, "")
    rows = "".join(f"{m},{row.replace(' ', ',')}\n" for m, row in _FMN_3_5_ROWS)
    assert out == "m,0,1,2,3,4,5\n" + rows


def test_fmn_table_json(capsys):
    code, out, err = run(
        capsys, "fmn-table", "--max-m", "3", "--max-n", "5", "--format", "json"
    )
    assert (code, err) == (0, "")
    rows = ",\n".join(
        f'    "{m}": [\n' + ",\n".join(f'      "{v}"' for v in row.split()) + "\n    ]"
        for m, row in _FMN_3_5_ROWS
    )
    assert out == '{\n  "max_m": 3,\n  "max_n": 5,\n  "rows": {\n' + rows + "\n  }\n}\n"
    assert json.loads(out)["rows"]["0"] == ["1/2", "3/2", "5/2", "7/2", "9/2", "11/2"]


def test_fmn_table_below_its_bounds_exits_two(capsys):
    error = "error: table bounds must cover m >= -1, n >= 0\n"
    for argv in (("--max-m", "-2"), ("--max-n", "-1")):
        assert run(capsys, "fmn-table", *argv) == (2, "", error)


def test_pair(capsys):
    code, out, _ = run(capsys, "pair", "--A", "exp(t)", "--p", "1,1,1")
    assert code == 0
    assert out == "3\n"


def test_verify_single_pass(capsys):
    code, out, _ = run(capsys, "verify", "--id", "F-CLOSED", "--order", "8")
    assert code == 0
    assert out.startswith("PASS F-CLOSED")


def test_verify_unknown_tag(capsys):
    code, _, err = run(capsys, "verify", "--id", "NOPE")
    assert code == 2
    assert "unknown identity" in err


def test_verify_reports_failure(capsys, monkeypatch):
    fake = CheckResult("F-CLOSED", False, "t^3: 1 != 2")
    monkeypatch.setattr(cli.registry, "run_check", lambda *a, **k: fake)
    code, out, err = run(capsys, "verify", "--id", "F-CLOSED")
    assert code == 1
    assert "FAIL F-CLOSED: t^3: 1 != 2" in out
    # the repro line goes to stderr; stdout is the report alone, in every format
    assert out == cli._verify_report([fake], 10, 0, "text")
    assert err == "repro: umbralcalc verify --id F-CLOSED --order 10 --seed 0\n"
    for fmt in ("json", "csv"):
        argv = ("verify", "--id", "F-CLOSED", "--order", "12", "--seed", "7", "--format", fmt)
        assert run(capsys, *argv) == (
            1,
            cli._verify_report([fake], 12, 7, fmt),
            "repro: umbralcalc verify --id F-CLOSED --order 12 --seed 7\n",
        )


def test_verify_all_reports_one_repro_line_per_failure(capsys, monkeypatch):
    results = [
        CheckResult("FAA", False, "trial 3: w^2, t^1: 1 != 2"),
        CheckResult("BELL", True, "fine"),
        CheckResult("UMBVIR", False, "trial 0, n=0: x^1: 2 != 1"),
    ]
    monkeypatch.setattr(cli.registry, "run_all", lambda *a, **k: results)
    code, out, err = run(capsys, "verify", "--order", "6", "--seed", "2")
    assert (code, out) == (1, cli._verify_report(results, 6, 2, "text"))
    assert err == (
        "repro: umbralcalc verify --id FAA --order 6 --seed 2\n"
        "repro: umbralcalc verify --id UMBVIR --order 6 --seed 2\n"
    )


def test_verify_all_below_its_minimum_order_runs_no_check(capsys, monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli.registry, "run_all", no_checks)
    assert MIN_ALL_ORDER == 5
    for order in range(MIN_ALL_ORDER):
        assert run(capsys, "verify", "--id", "ALL", "--order", str(order)) == (
            2,
            "",
            f"error: verify --id ALL needs --order >= 5, got {order}\n",
        )
    monkeypatch.undo()
    code, out, err = run(capsys, "verify", "--order", "5")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "passed 23/23 (order=5, seed=0)"


def test_verify_json_shape(capsys):
    code, out, _ = run(
        capsys, "verify", "--id", "LADDER", "--format", "json", "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["seed"] == 3
    assert payload["results"][0]["tag"] == "LADDER"


def test_verify_below_minimum_order_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--id", "BSTAR", "--order", "0")
    assert code == 2
    assert out == ""
    assert err == "error: BSTAR needs order >= 1, got 0\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "order, seed", [(6, 0), (10, 0), (14, 0), (6, 7), (10, 7), (14, 7), (20, 0)]
)
def test_verify_report_matches_golden(capsys, order, seed):
    code, out, _ = run(
        capsys, "verify", "--id", "ALL", "--order", str(order), "--seed", str(seed)
    )
    assert code == 0
    golden = GOLDEN / f"verify_o{order}_s{seed}.txt"
    assert out.encode("utf-8") == golden.read_bytes()


def test_verify_deterministic_per_tag(capsys):
    _, first, _ = run(capsys, "verify", "--id", "ADJ-SUBST", "--seed", "7")
    _, second, _ = run(capsys, "verify", "--id", "ADJ-SUBST", "--seed", "7")
    assert first == second


def test_bad_series_expression_is_usage_error(capsys):
    code, _, err = run(capsys, "umbral-seq", "--B", "t/(1-t", "--n", "2")
    assert code == 2
    assert "offset 6" in err
    assert "series expression grammar" in err


@pytest.mark.parametrize(
    "a_expr, poly, value",
    [
        ("+".join(["t"] * 1_200), "1", "0"),
        ("(" * 300 + "t" + ")" * 300, "0,1", "1"),
        ("*".join(["t"] * 1_500), "0,1", "0"),
        ("inv(" * 300 + "1+t" + ")" * 300, "0,1", "1"),
        ("-" * 1_000 + "t", "0,1", "1"),
        ("(" * 20_000 + "t" + ")" * 20_000, "0,1", "1"),
        ("+".join(["t"] * 60_000), "0,1", "60000"),
    ],
    ids=["sum", "parens", "product", "inv", "minus", "parens-20000", "sum-60000"],
)
def test_deeply_nested_series_pairs_at_the_default_recursion_limit(capsys, a_expr, poly, value):
    assert sys.getrecursionlimit() <= 1000
    assert run(capsys, "pair", f"--A={a_expr}", "--p", poly) == (0, f"{value}\n", "")


def test_non_delta_series_is_usage_error(capsys):
    code, _, err = run(capsys, "umbral-seq", "--B", "1+t", "--n", "2")
    assert code == 2
    assert "delta" in err


def _decimal(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_huge_coefficients_print_exactly(capsys):
    # 2^40000 has 12,042 digits, past Python's default limit of 4,300
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "umbral-seq", "--B", "t*2^20000", "--n", "2")
    assert code == 0
    assert out == f"0 0 {_decimal(2**40000)}\n"
    code, out, _ = run(capsys, "pair", "--A", "2^20000", "--p", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"pairing": _decimal(2**20000)}
    assert sys.get_int_max_str_digits() == limit


def test_power_past_the_bit_ceiling_is_refused_before_any_multiplication(
    capsys, monkeypatch
):
    def no_power(*args):
        raise AssertionError("a power was computed")

    monkeypatch.setattr(TruncatedSeries, "__pow__", no_power)
    ceiling = f"exceeds {MAX_POWER_BITS} bits\n"
    for expr, offset in (("2^1000000000", 0), ("1 + (1+t/3)^500001", 4), ("t*2^10000000000", 2)):
        code, out, err = run(capsys, "pair", "--A", expr, "--p", "0,1")
        assert (code, out, err) == (2, "", f"error: the power at offset {offset} {ceiling}")
    monkeypatch.undo()
    # the bound grows with the exponent times the bits of the lowest term and
    # of the denominator; a power past the order is zero and always allowed
    assert run(capsys, "pair", "--A", "(2^1000)^990", "--p", "0,1") == (0, "0\n", "")
    assert run(capsys, "pair", "--A", "(2^1000)^1000", "--p", "0,1")[0] == 2
    assert run(capsys, "pair", "--A", "(1+t/3)^400000", "--p", "0,1") == (0, "400000/3\n", "")
    assert run(capsys, "pair", "--A", "(t/3)^10000000", "--p", "0,1") == (0, "0\n", "")
    assert run(capsys, "pair", "--A", "(1-t/2)^40", "--p", "0,1") == (0, "-20\n", "")


def test_chain_of_allowed_powers_is_refused_at_its_first_product(capsys):
    # each factor is 2^999999, exactly MAX_POWER_BITS bits; their product is not
    assert (2**999999).bit_length() == MAX_POWER_BITS
    start = time.perf_counter()
    code, out, err = run(capsys, "pair", "--A", "*".join(["2^999999"] * 200), "--p", "1")
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (2, "", f"error: the result at offset 0 exceeds {MAX_POWER_BITS} bits\n")
    assert elapsed < 1.0
    # a sum is bounded as well; the offset is the refused node's, parentheses included
    code, _, err = run(capsys, "pair", "--A", "1 + (2^999999 + 2^999999)", "--p", "1")
    assert (code, err) == (2, f"error: the result at offset 4 exceeds {MAX_POWER_BITS} bits\n")


def test_coefficient_past_the_digit_ceiling_is_usage_error(capsys):
    code, out, err = run(capsys, "umbral-seq", "--B", "t*2^400000", "--n", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: a result has more than {cli.MAX_DIGITS} digits\n"


def test_huge_literal_exits_two_with_one_line(capsys):
    code, out, err = run(capsys, "pair", "--A", "7" * 5000, "--p", "1")
    assert code == 2
    assert out == ""
    assert err == "error: a 5000-digit literal at offset 0 exceeds 4300 digits\n"


def test_long_literal_under_a_lowered_int_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "pair", "--A", "7" * 1000, "--p", "1")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, err) == (0, "7" * 1000 + "\n", "")


def test_long_polynomial_coefficient_under_a_lowered_int_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "pair", "--A", "1+t", "--p", "7" * 1000)
        too_long = run(capsys, "theta", "--B", "t", "--p", f"1/3,{'7' * 5000}")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, err) == (0, "7" * 1000 + "\n", "")
    assert too_long == (2, "", "error: a 5000-digit literal at offset 4 exceeds 4300 digits\n")


def test_decimal_exponent_past_the_print_ceiling_is_refused_before_any_number(
    capsys, monkeypatch
):
    def no_number(*args):
        raise AssertionError("a number was built")

    monkeypatch.setattr(cli, "Fraction", no_number)
    start = time.process_time()
    for exponent in ("300000", "-1_000_000", "3" * 4000):
        code, out, err = run(capsys, "pair", "--A", "1", "--p", f"1,2e{exponent}")
        assert (code, out) == (2, "")
        assert err == (
            f"error: the decimal exponent at offset 3 makes a number "
            f"of more than {cli.MAX_DIGITS} digits\n"
        )
    assert time.process_time() - start < 0.5  # building 10^300000 alone takes longer
    monkeypatch.undo()
    assert run(capsys, "pair", "--A", "1", "--p", "15e-4") == (0, "3/2000\n", "")


def test_order_past_the_ceiling_exits_two_with_one_line(capsys):
    assert cli.MAX_ORDER >= 28  # above the tests, the goldens and the benchmark
    ceiling = f"exceeds the ceiling MAX_ORDER = {cli.MAX_ORDER}\n"
    for argv in (
        ("bell", "--order", "100000"),
        ("verify", "--id", "ALL", "--order", str(cli.MAX_ORDER + 1)),
        ("theta", "--B", "t", "--p", "1", "--order", "100000"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: --order {argv[-1]} {ceiling}")
    for argv, order in (
        (("umbral-seq", "--B", "t", "--n", "100000"), 100000),
        (("shift", "--B", "t", "--m", "-100000", "--p", "1"), 100000),
        (("theta", "--B", "t", "--p", "0," * 3000 + "1"), 3000),
    ):
        assert run(capsys, *argv) == (2, "", f"error: series order {order} {ceiling}")
    argv = ("umbral-seq", "--B", "t", "--n", "2", "--order", str(cli.MAX_ORDER))
    assert run(capsys, *argv) == (0, "0 0 1\n", "")


def test_table_past_the_ceiling_exits_two_before_any_table(capsys, monkeypatch):
    def no_value(*args):
        raise AssertionError("a ladder value was computed")

    monkeypatch.setattr(cli, "ladder_value", no_value)
    ceiling = f"exceeds the ceiling MAX_TABLE = {cli.MAX_TABLE}\n"
    for argv, flag, bound in (
        (("--max-m", "1000", "--max-n", "1000"), "--max-m", "1000"),
        (("--max-m", str(cli.MAX_TABLE + 1)), "--max-m", str(cli.MAX_TABLE + 1)),
        (("--max-n", "10000000"), "--max-n", "10000000"),
    ):
        assert run(capsys, "fmn-table", *argv) == (2, "", f"error: {flag} {bound} {ceiling}")
    monkeypatch.undo()
    code, out, err = run(capsys, "fmn-table", "--max-m", "1", "--max-n", str(cli.MAX_TABLE))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].split()[-1] == str(cli.MAX_TABLE**2)  # f_1(n) = n^2


def test_bad_polynomial_is_usage_error(capsys):
    code, _, err = run(capsys, "theta", "--B", "t", "--p", "1,zebra")
    assert code == 2
    assert "bad polynomial" in err


def test_negative_order_is_usage_error(capsys):
    code, _, err = run(capsys, "bell", "--order", "-2")
    assert code == 2
    assert "nonnegative" in err


def test_usage_error_prints_grammar(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["bell", "--format", "xml"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "series expression grammar" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "bell.txt"
    code, out, _ = run(capsys, "bell", "--order", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "1 1 2 5\n"


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    for target, reason in (
        (tmp_path, "Is a directory"),
        (tmp_path / "missing" / "bell.txt", "No such file or directory"),
    ):
        code, out, err = run(capsys, "bell", "--order", "3", "--output", str(target))
        assert (code, out, err) == (2, "", f"error: cannot write {target}: {reason}\n")
