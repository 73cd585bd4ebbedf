"""Parsing, rendering and evaluation of class expressions.

Grammar (an optional leading sign is accepted so that canonically rendered
classes such as ``-6*L + 36*L^2`` read back in)::

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := uint | symbol | '(' expr ')'

There is no implicit multiplication: ``12*L`` parses, ``12L`` does not.
Evaluation is generic over any value type supporting the ring operators, so
the same trees evaluate to base classes or to classes on a projectivization.
"""

from __future__ import annotations

import operator
import re

from .render import all_digits
from .ring import ChowError, SymbolError, _Frozen


class ParseError(ChowError):
    """Syntax error with position information."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Num(_Frozen):
    __slots__ = ("value",)


class Sym(_Frozen):
    __slots__ = ("name",)


class Neg(_Frozen):
    __slots__ = ("operand",)


class BinOp(_Frozen):
    __slots__ = ("op", "left", "right")  # op is one of + - * /


class Pow(_Frozen):
    __slots__ = ("base", "exponent")


# [0-9], as \d and str.isdigit admit "٣"; the search skips blanks between tokens
_TOKEN = re.compile(r"(?P<INT>[0-9]+)|(?P<NAME>\w+)|(?P<OP>[-+*/^()])"
                    r"|(?P<NL>\n)|(?P<BAD>[^ \t\r])")


def _tokenize(text):
    line, start = 1, 0  # the current line and the offset where it starts
    for match in _TOKEN.finditer(text):
        kind, value, col = match.lastgroup, match[0], match.start() - start + 1
        if kind == "OP":
            yield value, value, line, col
        elif kind == "INT":
            yield kind, int(value), line, col
        elif kind == "NAME" and (value[0].isalpha() or value[0] == "_"):
            yield kind, value, line, col
        elif kind == "NL":
            line, start = line + 1, match.end()
        else:  # BAD, or a word run led by "²", "٣" or "½"
            raise ParseError(f"unexpected character {value[0]!r}", line, col)
    yield "EOF", None, line, len(text) - start + 1


MAX_NESTING = 100  # levels of parentheses; each costs a few stack frames


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        self.pos += 1
        return tok

    def expr(self):
        kind = self.peek()[0]
        negate = False
        if kind in "+-":
            negate = self.take()[0] == "-"
        node = self.term()
        if negate:
            node = Neg(node)
        while self.peek()[0] in "+-":
            op = self.take()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("INT")
            node = Pow(node, tok[1])
        return node

    def base(self):
        tok = self.peek()
        if tok[0] == "INT":
            self.take()
            return Num(tok[1])
        if tok[0] == "NAME":
            self.take()
            return Sym(tok[1])
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels",
                                 tok[2], tok[3])
            self.take()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.take(")")
            return node
        raise ParseError(f"expected a value, found {tok[1]!r}", tok[2], tok[3])


def parse_class_expr(text):
    """Parse an expression into its tree; malformed input raises
    :class:`ParseError` with line and column.  Integer literals may have
    any number of digits."""
    with all_digits():  # error messages quote the tokens, literals included
        parser = _Parser(list(_tokenize(text)))
        node = parser.expr()
        tok = parser.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2], tok[3])
    return node


_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _render(node):
    if isinstance(node, Num):
        return str(node.value), _PREC_ATOM
    if isinstance(node, Sym):
        return node.name, _PREC_ATOM
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, _PREC_MUL), _PREC_ADD
    if isinstance(node, Pow):
        return _wrap(node.base, _PREC_ATOM) + f"^{node.exponent}", _PREC_POW
    if isinstance(node, BinOp):
        additive = node.op in "+-"
        mine = _PREC_ADD if additive else _PREC_MUL
        # a left-deep chain of operators of one precedence, as a long sum
        # parses, is walked in a loop rather than by recursion
        rights = []
        while isinstance(node, BinOp) and (node.op in "+-") == additive:
            rights.append(f"{node.op} {_wrap(node.right, mine + 1)}")
            node = node.left
        rights.append(_wrap(node, mine))
        return " ".join(reversed(rights)), mine
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(node, minimum):
    text, prec = _render(node)
    return f"({text})" if prec < minimum else text


def render_expr(node):
    """Canonical text for a tree; ``parse(render(t)) == t`` structurally."""
    with all_digits():
        return _render(node)[0]


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}


def evaluate(node, env, const):
    """Evaluate a tree: symbols through ``env``, integer literals through
    ``const``.  Value semantics (truncation, division rules) are whatever
    the value type implements.  The left spine of binary operators, as a
    long sum or product parses, is walked in a loop rather than by
    recursion."""
    spine = []
    while isinstance(node, BinOp):
        spine.append(node)
        node = node.left
    if isinstance(node, Num):
        value = const(node.value)
    elif isinstance(node, Sym):
        try:
            value = env[node.name]
        except KeyError:
            raise SymbolError(f"unknown symbol {node.name!r}") from None
    elif isinstance(node, Neg):
        value = -evaluate(node.operand, env, const)
    elif isinstance(node, Pow):
        value = evaluate(node.base, env, const) ** node.exponent
    else:
        raise TypeError(f"not an expression node: {node!r}")
    for binop in reversed(spine):
        value = _OPERATORS[binop.op](value, evaluate(binop.right, env, const))
    return value
