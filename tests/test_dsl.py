"""Expression grammar: parsing, spans, evaluation, round trips."""

import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbralcalc.dsl import (
    FUNCTIONS,
    MAX_LITERAL_DIGITS,
    BinOp,
    Call,
    EvalError,
    ExprSyntaxError,
    Literal,
    Neg,
    Power,
    Var,
    eval_expr,
    evaluate,
    parse,
    to_text,
)
from umbralcalc.errors import LiteralTooLong
from umbralcalc.series import TruncatedSeries, exp_t

F = Fraction

CORPUS = [
    "t",
    "exp(t)-1",
    "t/(1-t)",
    "log(1+t)",
    "rev(exp(t)-1)",
    "inv(1-t)",
    "1/2*t+t^2",
    "2*t^3-7/3",
    "-t",
    "-(t+t^2)",
    "exp(t^2)",
    "(1+t)^4",
    "t*(1-t)^2/(1+t)",
    "1/2^2",
    "rev(t/(1-t))",
]


# -- parsing -----------------------------------------------------------------


def test_parse_variable():
    assert parse("t") == Var()


def test_parse_structural():
    tree = parse("exp(t)-1")
    assert tree == BinOp("-", Call("exp", Var()), Literal(F(1)))


def test_parse_precedence():
    tree = parse("1+2*t^2")
    assert tree == BinOp("+", Literal(F(1)), BinOp("*", Literal(F(2)), Power(Var(), 2)))


def test_parse_left_associativity():
    tree = parse("1-2-3/4")
    assert tree == BinOp("-", BinOp("-", Literal(F(1)), Literal(F(2))), Literal(F(3, 4)))


def test_parse_rational_literal():
    assert parse("3/4") == Literal(F(3, 4))
    # a slashed literal binds before the power rule
    assert parse("1/2^2") == Power(Literal(F(1, 2)), 2)


def test_parse_unary_minus():
    assert parse("-t") == Neg(Var())
    assert parse("-t^2") == Neg(Power(Var(), 2))


def test_parse_unclosed_paren_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("t/(1-t")
    assert err.value.offset == 6
    assert ")" in err.value.expected


def test_parse_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2t")
    assert err.value.offset == 1


def test_parse_unknown_name():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sinh(t)")
    assert err.value.offset == 0
    assert "exp" in err.value.expected


def test_parse_bad_character():
    with pytest.raises(ExprSyntaxError) as err:
        parse("t + $")
    assert err.value.offset == 4


def test_parse_zero_denominator():
    with pytest.raises(ExprSyntaxError):
        parse("1/0")


def test_parse_power_needs_nat():
    with pytest.raises(ExprSyntaxError):
        parse("t^t")


def test_spans_lie_within_input():
    for text in CORPUS:
        spans = []

        def collect(node):
            spans.append(node.span)
            for name in node.__dataclass_fields__:
                child = getattr(node, name)
                if hasattr(child, "__dataclass_fields__"):
                    collect(child)

        collect(parse(text))
        for start, end in spans:
            assert 0 <= start < end <= len(text)


def test_pretty_print_roundtrip():
    for text in CORPUS:
        tree = parse(text)
        assert parse(to_text(tree)) == tree


def test_pretty_print_division_by_integer():
    tree = parse("t/(2)/3")
    assert parse(to_text(tree)) == tree


def _tree_strategy():
    # only shapes the parser itself can produce: literals are nonnegative
    literals = st.fractions(min_value=0, max_value=5, max_denominator=4).map(Literal)
    leaves = st.one_of(literals, st.just(Var()))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=0, max_value=4)).map(
                lambda t: Power(t[0], t[1])
            ),
            st.tuples(st.sampled_from(FUNCTIONS), children).map(
                lambda t: Call(t[0], t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=14)


@settings(max_examples=200)
@given(_tree_strategy())
def test_pretty_print_roundtrip_fuzzed(tree):
    assert parse(to_text(tree)) == tree


# -- evaluation --------------------------------------------------------------


def test_eval_variable():
    assert evaluate("t", 5) == TruncatedSeries.identity(5)


def test_eval_exp_minus_one():
    out = evaluate("exp(t)-1", 5)
    assert list(out.egf_coeffs()) == [0, 1, 1, 1, 1, 1]


def test_eval_geometric_delta():
    out = evaluate("t/(1-t)", 4)
    assert out == TruncatedSeries([0, 1, 1, 1, 1])


def test_eval_reversion_matches_log():
    for order in (4, 8, 12):
        assert evaluate("rev(exp(t)-1)", order) == evaluate("log(1+t)", order)


def test_eval_power_and_literals():
    assert evaluate("1/2*t^2", 4) == TruncatedSeries([0, 0, F(1, 2)], order=4)
    assert evaluate("(1+t)^3", 4) == TruncatedSeries([1, 3, 3, 1], order=4)


def test_eval_huge_powers_return_promptly():
    start = time.perf_counter()
    assert evaluate("t^10000000", 5) == TruncatedSeries.zero(5)
    binomial = evaluate("(1+t)^10000000", 5)
    assert binomial.coeffs == tuple(math.comb(10**7, k) for k in range(6))
    assert time.perf_counter() - start < 2


def test_eval_unary_minus():
    assert evaluate("-t", 3) == -TruncatedSeries.identity(3)


def test_eval_inv():
    assert evaluate("inv(1-t)", 5) == TruncatedSeries([1] * 6)


def test_eval_domain_error_spans():
    with pytest.raises(EvalError) as err:
        evaluate("rev(1+t)", 6)
    assert err.value.span == (0, 8)

    with pytest.raises(EvalError) as err:
        evaluate("t+exp(1+t)", 6)
    assert err.value.span == (2, 10)

    with pytest.raises(EvalError) as err:
        evaluate("1/t", 6)
    assert err.value.span == (0, 3)

    with pytest.raises(EvalError) as err:
        evaluate("log(2*t)", 6)
    assert err.value.span == (0, 8)


def test_eval_of_reparsed_tree():
    tree = parse("exp(t)-1")
    assert eval_expr(tree, 6) == exp_t(6) - 1


def test_literal_digit_ceiling():
    top = "7" * MAX_LITERAL_DIGITS
    assert evaluate(f"{top}/3 + t^1", 1).coeffs[0] == F(int(top), 3)
    for text in ("7" * (MAX_LITERAL_DIGITS + 1), f"1/{'3' * 5000}", f"t^{'2' * 5000}"):
        with pytest.raises(LiteralTooLong, match=f"exceeds {MAX_LITERAL_DIGITS} digits"):
            parse(text)


def test_literals_ignore_a_lowered_int_limit():
    num, den, exp = "7" * 1000, "3" * MAX_LITERAL_DIGITS, "2" * 700
    expected = (Literal(F(int(num), int(den))), Power(Var(), int(exp)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert (parse(f"{num}/{den}"), parse(f"t^{exp}")) == expected
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_non_ascii_digits_are_syntax_errors():
    with pytest.raises(ExprSyntaxError, match="unexpected character"):
        parse("2\u00b2")
