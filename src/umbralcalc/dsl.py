"""A small expression language for series on the command line.

The grammar is ``GRAMMAR`` (whitespace is free, no implicit multiplication).
``inv`` is the multiplicative inverse and ``rev`` the compositional inverse.
Parse failures report a byte offset and the tokens that would have been
accepted there; evaluation failures carry the span of the offending
subexpression.

Nothing recurses, so nesting depth is bounded only by the input's length.
``parse`` is one operator-precedence loop over two stacks (Dijkstra's
shunting-yard): ``vals`` holds finished nodes and ``ops`` the pending
operators, open parentheses and function names.  ``eval_expr`` and
``to_text`` are one post-order walk, ``_fold``, over an explicit stack; a
node's ``==``, ``hash`` and ``repr`` walk the same way.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
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

GRAMMAR = """\
series expression grammar:
  expr     := term (("+" | "-") term)*
  term     := factor (("*" | "/") factor)*
  factor   := "-" factor | atom ("^" nat)?
  atom     := rational | "t" | "(" expr ")" | func "(" expr ")"
  func     := "exp" | "log" | "inv" | "rev"
  rational := int ("/" posint)?
"""

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


class _Node:
    """Compared and hashed by ``_key``, one flat post-order tuple that leaves
    the spans out, and printed as the dataclass ``repr`` in one pass, so that
    no depth of tree recurses.  A node's ``vars`` are its fields in order, and
    its children are the fields that hold nodes."""

    def _key(self) -> tuple:
        """Each node's class and fields other than its children and span, in
        post-order; every class has a fixed arity, so this fixes the tree."""
        key = []
        for node, _ in _postorder(self):
            labels = [v for k, v in vars(node).items() if k != "span" and not isinstance(v, _Node)]
            key.append((type(node), *labels))
        return tuple(key)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        out, todo = [], [self]  # a node still to print, or finished text
        while todo:
            item = todo.pop()
            if not isinstance(item, _Node):
                out.append(item)
                continue
            parts = [f"{type(item).__qualname__}("]
            for i, (name, value) in enumerate(vars(item).items()):
                parts.append(", " * (i > 0) + f"{name}=")
                parts.append(value if isinstance(value, _Node) else repr(value))
            todo += reversed([*parts, ")"])
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Literal(_Node):
    value: Fraction
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    arg: object
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Node):
    op: str
    left: object
    right: object
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True, eq=False, repr=False)
class Power(_Node):
    base: object
    exponent: int
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    func: str
    arg: object
    span: tuple[int, int] = (0, 0)


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


# binding power of the binary operators; a unary minus binds at 3, and an
# open parenthesis or function call waits on the stack at 0
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _parse(text: str):
    tokens = _tokenize(text)
    vals, ops = [], []  # finished nodes; pending (binding power, kind, offset)
    i = 0
    while True:  # an operand is expected
        tok = tokens[i]
        i += 1
        if tok.kind in ("-", "("):  # a unary minus, or an open parenthesis
            ops.append((3 if tok.kind == "-" else 0, tok.kind, tok.pos))
            continue
        if tok.kind == "int":
            end = tok.pos + len(tok.text)
            value = Fraction(int(tok.text))
            # rational literal: int "/" posint, decided by two-token lookahead
            if tokens[i].kind == "/" and tokens[i + 1].kind == "int":
                den_tok = tokens[i + 1]
                i += 2
                if int(den_tok.text) == 0:
                    raise ExprSyntaxError("zero denominator", den_tok.pos)
                value = Fraction(int(tok.text), int(den_tok.text))
                end = den_tok.pos + len(den_tok.text)
            vals.append(Literal(value, span=(tok.pos, end)))
        elif tok.kind == "name" and tok.text == "t":
            vals.append(Var(span=(tok.pos, tok.pos + 1)))
        elif tok.kind == "name" and tok.text in FUNCTIONS:
            if tokens[i].kind != "(":
                msg = f"{tok.text} needs a parenthesized argument"
                raise ExprSyntaxError(msg, tokens[i].pos, expected=("(",))
            ops.append((0, tok.text, tok.pos))
            i += 1
            continue
        elif tok.kind == "name":
            msg, expected = f"unknown name {tok.text!r}", ("t",) + FUNCTIONS
            raise ExprSyntaxError(msg, tok.pos, expected=expected)
        else:
            expected = ("rational", "t", "(") + FUNCTIONS
            raise ExprSyntaxError("expected an atom", tok.pos, expected=expected)
        while True:  # an atom was just finished; an operator is expected
            if tokens[i].kind == "^":
                exp_tok = tokens[i + 1]
                if exp_tok.kind != "int":
                    msg = "power needs a nonnegative integer exponent"
                    raise ExprSyntaxError(msg, exp_tok.pos, expected=("int",))
                base = vals.pop()
                end = exp_tok.pos + len(exp_tok.text)
                vals.append(Power(base, int(exp_tok.text), span=(base.span[0], end)))
                i += 2
            tok = tokens[i]
            i += 1
            # pop what binds at least as tightly (left associative); anything
            # but an operator pops all up to the innermost open parenthesis
            while ops and ops[-1][0] >= _PREC.get(tok.kind, 1):
                prec, kind, pos = ops.pop()
                rhs = vals.pop()
                if prec == 3:
                    vals.append(Neg(rhs, span=(pos, rhs.span[1])))
                else:
                    lhs = vals.pop()
                    vals.append(BinOp(kind, lhs, rhs, span=(lhs.span[0], rhs.span[1])))
            if tok.kind in _PREC:
                ops.append((_PREC[tok.kind], tok.kind, tok.pos))
                break
            if tok.kind == ")" and ops:
                _, kind, pos = ops.pop()
                inner, span = vals.pop(), (pos, tok.pos + 1)
                # a parenthesis keeps the child node and widens its span
                node = replace(inner, span=span) if kind == "(" else Call(kind, inner, span=span)
                vals.append(node)
                continue
            if ops:
                raise ExprSyntaxError("unclosed paren", tok.pos, expected=(")",))
            if tok.kind != "end":
                raise ExprSyntaxError(
                    f"unexpected trailing input {tok.text!r}",
                    tok.pos,
                    expected=("+", "-", "*", "/", "^", "end of input"),
                )
            return vals.pop()


def parse(text: str):
    """Parse a series expression into its syntax tree, reading literals up to
    ``MAX_LITERAL_DIGITS`` digits whatever the process's int-from-str limit."""
    with int_digit_limit(MAX_LITERAL_DIGITS):
        return _parse(text)


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


def _postorder(node) -> list:
    """``(node, number of children)`` for every node, children first and left
    to right, listed over an explicit stack."""
    nodes, todo = [], [node]
    while todo:  # pre-order, right child first: reversed, it is the post-order
        node = todo.pop()
        fields = vars(node).values() if isinstance(node, _Node) else ()
        kids = [v for v in fields if isinstance(v, _Node)]
        nodes.append((node, len(kids)))
        todo.extend(kids)
    nodes.reverse()
    return nodes


def _fold(node, step):
    """``step(node, *results of its children)`` for every node in post-order;
    the root's result is returned."""
    done = []
    for node, arity in _postorder(node):
        cut = len(done) - arity  # the children's results end ``done``
        done[cut:] = [step(node, *done[cut:])]
    return done[0]


def eval_expr(node, order: int) -> TruncatedSeries:
    """Evaluate a parsed expression to an exact series of the given order.  A
    node whose result holds a number of more than ``MAX_POWER_BITS`` bits is
    refused, so a chain of allowed powers stops at its first product."""
    apply = {  # the binary operators and the functions
        "+": TruncatedSeries.__add__, "-": TruncatedSeries.__sub__,
        "*": TruncatedSeries.__mul__, "/": TruncatedSeries.__truediv__,
        "exp": exp_series, "log": log_series,
        "inv": TruncatedSeries.reciprocal, "rev": TruncatedSeries.reversion,
    }

    def step(node, lhs=None, rhs=None):
        try:
            if isinstance(node, Literal):
                out = TruncatedSeries.constant(node.value, order)
            elif isinstance(node, Var):
                out = TruncatedSeries.identity(order)
            elif isinstance(node, Neg):
                out = -lhs
            elif isinstance(node, BinOp):
                out = apply[node.op](lhs, rhs)
            elif isinstance(node, Call):
                out = apply[node.func](lhs)
            elif isinstance(node, Power):
                if _power_bits(lhs, node.exponent) > MAX_POWER_BITS:
                    msg = f"the power at offset {node.span[0]} exceeds {MAX_POWER_BITS} bits"
                    raise ResultTooLarge(msg)
                out = lhs ** node.exponent
            else:
                raise TypeError(f"not an expression node: {node!r}")
        except _DOMAIN_ERRORS as exc:
            raise EvalError(str(exc), node.span) from exc
        if max(out.den.bit_length(), *map(int.bit_length, out.nums)) > MAX_POWER_BITS:
            raise ResultTooLarge(f"the result at offset {node.span[0]} exceeds {MAX_POWER_BITS} bits")
        return out

    return _fold(node, step)


def evaluate(text: str, order: int) -> TruncatedSeries:
    """Parse and evaluate in one step."""
    return eval_expr(parse(text), order)


# -- pretty printer ----------------------------------------------------------


def to_text(node) -> str:
    """Render a tree so that parsing the result rebuilds an equal tree."""
    def wrap(kid, context):  # kid is (text, binding power)
        return f"({kid[0]})" if context > kid[1] else kid[0]

    def step(node, first=None, second=None):
        # binding powers: 4 an atom, 3 a unary minus, a power or a slashed
        # literal (which must not capture a following exponent), _PREC for + - * /
        if isinstance(node, Literal):
            text = str(node.value)
            return text, 3 if "/" in text else 4
        if isinstance(node, Var):
            return "t", 4
        if isinstance(node, Call):
            return f"{node.func}({first[0]})", 4
        if isinstance(node, Neg):
            return f"-{wrap(first, 3)}", 3
        if isinstance(node, Power):
            return f"{wrap(first, 4)}^{node.exponent}", 3
        if isinstance(node, BinOp):
            prec = _PREC[node.op]
            # the grammar is left associative: the right operand binds tighter
            text = wrap(second, prec + 1)
            if node.op == "/" and text[0].isdigit():
                # "/" followed by a digit would fuse with the greedy
                # slashed-rational lexical rule during reparsing
                text = f"({text})"
            return f"{wrap(first, prec)}{node.op}{text}", prec
        raise TypeError(f"not an expression node: {node!r}")

    return _fold(node, step)[0]
