"""A small expression language for series on the command line.

Grammar (whitespace is free, no implicit multiplication):

    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := "-" factor | atom ("^" nat)?
    atom     := rational | "t" | "(" expr ")" | func "(" expr ")"
    func     := "exp" | "log" | "inv" | "rev"
    rational := int ("/" posint)?

``inv`` is the multiplicative inverse and ``rev`` the compositional inverse.
Parse failures report a byte offset and the tokens that would have been
accepted there; evaluation failures carry the span of the offending
subexpression.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    ConstantTermNotOne,
    InnerConstantTerm,
    LiteralTooLong,
    NonzeroConstantTerm,
    NotDeltaSeries,
    OrderTooSmall,
    ResultTooLarge,
    ZeroConstantTerm,
)
from .series import TruncatedSeries, exp_series, log_series

FUNCTIONS = ("exp", "log", "inv", "rev")

# Longest integer literal read, in decimal digits (Python's default int-from-str
# limit); a longer one raises LiteralTooLong.
MAX_LITERAL_DIGITS = 4_300

# Largest number built, in bits: a power is refused before any multiplication
# (see _power_bits), and every node's result once it is built.  Three times the
# 332,193 bits (100,000 digits) a report prints, as a result may still be
# divided down.  2^1000000000 would build 125 MB.
MAX_POWER_BITS = 1_000_000


def check_literal(digits: int, offset: int) -> None:
    """Refuse an integer literal of more than ``MAX_LITERAL_DIGITS`` digits."""
    if digits > MAX_LITERAL_DIGITS:
        msg = f"a {digits}-digit literal at offset {offset} exceeds {MAX_LITERAL_DIGITS} digits"
        raise LiteralTooLong(msg)


@contextmanager
def int_digit_limit(digits: int):
    """Python's int/str conversion limit at ``digits`` inside the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


_DOMAIN_ERRORS = (
    ZeroConstantTerm,
    InnerConstantTerm,
    NotDeltaSeries,
    NonzeroConstantTerm,
    ConstantTermNotOne,
    OrderTooSmall,
    ZeroDivisionError,
)


class ExprSyntaxError(ValueError):
    """Parse failure with a byte offset and the acceptable-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")
        self.offset = offset
        self.expected = expected


class EvalError(ValueError):
    """A series-domain error tagged with the span of the subexpression."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} in expression span {span[0]}..{span[1]}")
        self.span = span


# -- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: Fraction
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Var:
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Neg:
    arg: object
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Call:
    func: str
    arg: object
    span: tuple[int, int] = field(compare=False, default=(0, 0))


# -- lexer -------------------------------------------------------------------

_SYMBOLS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", a symbol, or "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            check_literal(j - i, i)
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, context: str) -> _Token:
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
            # rational literal: int "/" posint, decided by two-token lookahead
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
                f"unknown name {tok.text!r}",
                tok.pos,
                expected=("t",) + FUNCTIONS,
            )
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            close = self.expect(")", "unclosed paren")
            # keep the child node; the span widens to include the parens
            return _respan(inner, (tok.pos, close.pos + 1))
        raise ExprSyntaxError(
            "expected an atom",
            tok.pos,
            expected=("rational", "t", "(") + FUNCTIONS,
        )


def _respan(node, span):
    kwargs = {f: getattr(node, f) for f in node.__dataclass_fields__ if f != "span"}
    return type(node)(span=span, **kwargs)


def parse(text: str):
    """Parse a series expression into its syntax tree, reading literals up to
    ``MAX_LITERAL_DIGITS`` digits whatever the process's int-from-str limit."""
    with int_digit_limit(MAX_LITERAL_DIGITS):
        return _Parser(text).parse()


# -- evaluation --------------------------------------------------------------


def _power_bits(base: TruncatedSeries, n: int) -> int:
    """About the most bits of a number ``base ** n`` builds: ``n log2`` of the
    lowest nonzero numerator or the denominator, plus ``log2`` of the largest
    numerator and of ``n + N`` for each of the order ``N`` later terms.  A power
    past the order is zero, so ``t^10000000`` and ``(1+t)^10000000`` are cheap."""
    nums = base.nums
    low = next((k for k, x in enumerate(nums) if x), len(nums))
    if n == 0 or low * n > base.order:
        return 0
    lead = max((abs(nums[low]) - 1).bit_length(), (base.den - 1).bit_length())  # ceil(log2)
    top = max(x.bit_length() for x in nums)
    return n * lead + base.order * (top + (n + base.order).bit_length())


def eval_expr(node, order: int) -> TruncatedSeries:
    """Evaluate a parsed expression to an exact series of the given order.  A
    node whose result holds a number of more than ``MAX_POWER_BITS`` bits is
    refused, so a chain of allowed powers stops at its first product."""
    try:
        if isinstance(node, Literal):
            out = TruncatedSeries.constant(node.value, order)
        elif isinstance(node, Var):
            out = TruncatedSeries.identity(order)
        elif isinstance(node, Neg):
            out = -eval_expr(node.arg, order)
        elif isinstance(node, BinOp):
            lhs = eval_expr(node.left, order)
            rhs = eval_expr(node.right, order)
            if node.op == "+":
                out = lhs + rhs
            elif node.op == "-":
                out = lhs - rhs
            elif node.op == "*":
                out = lhs * rhs
            else:
                out = lhs / rhs
        elif isinstance(node, Power):
            base = eval_expr(node.base, order)
            if _power_bits(base, node.exponent) > MAX_POWER_BITS:
                msg = f"the power at offset {node.span[0]} exceeds {MAX_POWER_BITS} bits"
                raise ResultTooLarge(msg)
            out = base ** node.exponent
        elif isinstance(node, Call):
            arg = eval_expr(node.arg, order)
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


def evaluate(text: str, order: int) -> TruncatedSeries:
    """Parse and evaluate in one step."""
    return eval_expr(parse(text), order)


# -- pretty printer ----------------------------------------------------------

# context levels: 0 expr, 1/2 sum operands, 2/3 product operands,
# 3 unary-minus argument (a factor), 4 power base (an atom)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_text(node) -> str:
    """Render a tree so that parsing the result rebuilds an equal tree."""
    return _fmt(node, 0)


def _fmt(node, context: int) -> str:
    if isinstance(node, Literal):
        text = str(node.value)
        # a slashed literal at power-base position must not capture the exponent
        if "/" in text and context >= 4:
            return f"({text})"
        return text
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Call):
        return f"{node.func}({_fmt(node.arg, 0)})"
    if isinstance(node, Neg):
        body = f"-{_fmt(node.arg, 3)}"
        return f"({body})" if context >= 4 else body
    if isinstance(node, Power):
        body = f"{_fmt(node.base, 4)}^{node.exponent}"
        return f"({body})" if context >= 4 else body
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        left = _fmt(node.left, prec)
        # the grammar is left associative: the right operand binds tighter
        right = _fmt(node.right, prec + 1)
        if node.op == "/" and right[0].isdigit():
            # "/" followed by a digit would fuse with the greedy
            # slashed-rational lexical rule during reparsing
            right = f"({right})"
        body = f"{left}{node.op}{right}"
        return f"({body})" if context > prec else body
    raise TypeError(f"not an expression node: {node!r}")
