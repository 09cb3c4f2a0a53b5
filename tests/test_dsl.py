"""Expression grammar: parsing, spans, evaluation, round trips."""

import math
import sys
import time
from dataclasses import fields
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
from umbralcalc.dsl import _DOMAIN_ERRORS, MAX_POWER_BITS, _power_bits, _tokenize
from umbralcalc.errors import LiteralTooLong, ResultTooLarge
from umbralcalc.series import TruncatedSeries, exp_series, exp_t, log_series

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


# -- no recursion ------------------------------------------------------------


@pytest.mark.parametrize(
    "text, coeffs",
    [
        ("(" * 20_000 + "t" + ")" * 20_000, (0, 1, 0)),
        ("+".join(["t"] * 60_000), (0, 60_000, 0)),
        ("rev(" * 20_000 + "t" + ")" * 20_000, (0, 1, 0)),
        ("-" * 100_000 + "t", (0, 1, 0)),
    ],
    ids=["parens", "sum", "rev", "minus"],
)
def test_deep_nesting_parses_prints_and_evaluates(text, coeffs):
    assert sys.getrecursionlimit() <= 1000
    tree = parse(text)
    assert to_text(tree) == ("t" if text.startswith("((") else text)
    assert tree.span == (0, len(text))
    assert evaluate(text, 2).coeffs == tuple(map(F, coeffs))
    twin = parse(text)
    assert tree == twin and hash(tree) == hash(twin)
    assert tree != parse(text.replace("t", "1", 1))
    printed = repr(tree)
    assert printed.startswith(f"{type(tree).__name__}(") and printed.endswith(f"span={tree.span})")


def test_nodes_compare_without_spans_and_print_as_dataclasses():
    tree = parse("-(1/2+t)^2*rev(exp(t)-1)")
    assert repr(tree) == (
        "BinOp(op='*', left=Neg(arg=Power(base=BinOp(op='+', left=Literal(value=Fraction(1, 2), "
        "span=(2, 5)), right=Var(span=(6, 7)), span=(1, 8)), exponent=2, span=(1, 10)), "
        "span=(0, 10)), right=Call(func='rev', arg=BinOp(op='-', left=Call(func='exp', "
        "arg=Var(span=(19, 20)), span=(15, 21)), right=Literal(value=Fraction(1, 1), "
        "span=(22, 23)), span=(15, 23)), span=(11, 24)), span=(0, 24))"
    )
    same = parse("(-((1/2)+t)^2*rev(exp(t)-1))")
    assert tree == same and hash(tree) == hash(same)
    for a, b in (("t+1", "t-1"), ("1/2", "1/3"), ("t^2", "t^3"), ("exp(t)", "log(t)"),
                 ("t+1", "1+t"), ("-t", "t"), ("(t+t)+t", "t+(t+t)")):
        assert parse(a) != parse(b)
    assert Var() == Var(span=(3, 4)) and Var() != Literal(F(0))


def test_deep_nesting_keeps_the_first_error():
    assert sys.getrecursionlimit() <= 1000
    deep = "(" * 20_000 + "t"
    with pytest.raises(ExprSyntaxError, match="unclosed paren") as err:
        parse(deep)
    assert (err.value.offset, err.value.expected) == (len(deep), (")",))
    with pytest.raises(EvalError) as err:
        evaluate("exp(" * 5_000 + "1+t" + ")" * 5_000, 3)
    assert err.value.span == (4 * 4_999, 4 * 5_000 + 3 + 1)


# -- the recursive descent parser, evaluator and printer, kept as an oracle --


class _RecursiveParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, context):
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(context, tok.pos, expected=(kind,))
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.text!r}",
                tok.pos,
                expected=("+", "-", "*", "/", "^", "end of input"),
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = BinOp(op.kind, node, rhs, span=(node.span[0], rhs.span[1]))
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            node = BinOp(op.kind, node, rhs, span=(node.span[0], rhs.span[1]))
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            arg = self.factor()
            return Neg(arg, span=(tok.pos, arg.span[1]))
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            exp_tok = self.expect("int", "power needs a nonnegative integer exponent")
            end = exp_tok.pos + len(exp_tok.text)
            node = Power(node, int(exp_tok.text), span=(node.span[0], end))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            end = tok.pos + len(tok.text)
            value = Fraction(int(tok.text))
            if self.peek().kind == "/" and self.peek(1).kind == "int":
                self.advance()
                den_tok = self.advance()
                if int(den_tok.text) == 0:
                    raise ExprSyntaxError("zero denominator", den_tok.pos)
                value = Fraction(int(tok.text), int(den_tok.text))
                end = den_tok.pos + len(den_tok.text)
            return Literal(value, span=(tok.pos, end))
        if tok.kind == "name":
            if tok.text == "t":
                self.advance()
                return Var(span=(tok.pos, tok.pos + 1))
            if tok.text in FUNCTIONS:
                self.advance()
                self.expect("(", f"{tok.text} needs a parenthesized argument")
                inner = self.expr()
                close = self.expect(")", "unclosed paren")
                return Call(tok.text, inner, span=(tok.pos, close.pos + 1))
            raise ExprSyntaxError(
                f"unknown name {tok.text!r}", tok.pos, expected=("t",) + FUNCTIONS
            )
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            close = self.expect(")", "unclosed paren")
            kwargs = {f: getattr(inner, f) for f in inner.__dataclass_fields__ if f != "span"}
            return type(inner)(span=(tok.pos, close.pos + 1), **kwargs)
        raise ExprSyntaxError(
            "expected an atom", tok.pos, expected=("rational", "t", "(") + FUNCTIONS
        )


def _recursive_eval(node, order):
    try:
        if isinstance(node, Literal):
            out = TruncatedSeries.constant(node.value, order)
        elif isinstance(node, Var):
            out = TruncatedSeries.identity(order)
        elif isinstance(node, Neg):
            out = -_recursive_eval(node.arg, order)
        elif isinstance(node, BinOp):
            lhs = _recursive_eval(node.left, order)
            rhs = _recursive_eval(node.right, order)
            if node.op == "+":
                out = lhs + rhs
            elif node.op == "-":
                out = lhs - rhs
            elif node.op == "*":
                out = lhs * rhs
            else:
                out = lhs / rhs
        elif isinstance(node, Power):
            base = _recursive_eval(node.base, order)
            if _power_bits(base, node.exponent) > MAX_POWER_BITS:
                msg = f"the power at offset {node.span[0]} exceeds {MAX_POWER_BITS} bits"
                raise ResultTooLarge(msg)
            out = base ** node.exponent
        elif isinstance(node, Call):
            arg = _recursive_eval(node.arg, order)
            if node.func == "exp":
                out = exp_series(arg)
            elif node.func == "log":
                out = log_series(arg)
            elif node.func == "inv":
                out = arg.reciprocal()
            else:
                out = arg.reversion()
        else:
            raise TypeError(f"not an expression node: {node!r}")
    except EvalError:
        raise
    except _DOMAIN_ERRORS as exc:
        raise EvalError(str(exc), node.span) from exc
    if max(out.den.bit_length(), *map(int.bit_length, out.nums)) > MAX_POWER_BITS:
        raise ResultTooLarge(f"the result at offset {node.span[0]} exceeds {MAX_POWER_BITS} bits")
    return out


def _recursive_fmt(node, context):
    if isinstance(node, Literal):
        text = str(node.value)
        if "/" in text and context >= 4:
            return f"({text})"
        return text
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Call):
        return f"{node.func}({_recursive_fmt(node.arg, 0)})"
    if isinstance(node, Neg):
        body = f"-{_recursive_fmt(node.arg, 3)}"
        return f"({body})" if context >= 4 else body
    if isinstance(node, Power):
        body = f"{_recursive_fmt(node.base, 4)}^{node.exponent}"
        return f"({body})" if context >= 4 else body
    if isinstance(node, BinOp):
        prec = {"+": 1, "-": 1, "*": 2, "/": 2}[node.op]
        left = _recursive_fmt(node.left, prec)
        right = _recursive_fmt(node.right, prec + 1)
        if node.op == "/" and right[0].isdigit():
            right = f"({right})"
        body = f"{left}{node.op}{right}"
        return f"({body})" if context > prec else body
    raise TypeError(f"not an expression node: {node!r}")


def _recursive_repr(node):
    """The text of the dataclass-generated ``repr``."""
    if not isinstance(node, (Literal, Var, Neg, BinOp, Power, Call)):
        return repr(node)
    inner = ", ".join(f"{f.name}={_recursive_repr(getattr(node, f.name))}" for f in fields(node))
    return f"{type(node).__name__}({inner})"


def _outcome(call):
    """A call's value, or its error's type, message and located fields."""
    try:
        return call()
    except (ExprSyntaxError, EvalError, ResultTooLarge) as exc:
        where = (getattr(exc, "offset", None), getattr(exc, "expected", None), getattr(exc, "span", None))
        return type(exc), str(exc), where


_TOKENS = (
    "t", "0", "1", "2", "3", "12", "1/0", "2/3", "999999", "+", "-", "*", "/", "^",
    "(", ")", "exp", "log", "inv", "rev", "x", " ",
)


def _token_strings():
    """Random token runs, and printed random trees with a token inserted or
    one dropped, so that both valid and nearly valid inputs are drawn."""
    runs = st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join)
    printed = st.tuples(
        _tree_strategy().map(to_text),
        st.integers(min_value=0, max_value=200),
        st.sampled_from(_TOKENS + ("",)),
        st.booleans(),
    ).map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] + (1 if t[3] else 0):])
    return st.one_of(runs, printed, _tree_strategy().map(to_text))


@settings(max_examples=1500, deadline=None)
@given(_token_strings())
def test_loop_parser_evaluator_and_printer_match_the_recursive_ones(text):
    new = _outcome(lambda: parse(text))
    old = _outcome(lambda: _RecursiveParser(text).parse())
    if isinstance(old, tuple):
        assert new == old
        return
    assert repr(new) == repr(old) == _recursive_repr(old)
    assert new == old and hash(new) == hash(old)
    assert to_text(new) == _recursive_fmt(old, 0)
    assert _outcome(lambda: eval_expr(new, 4)) == _outcome(lambda: _recursive_eval(old, 4))
