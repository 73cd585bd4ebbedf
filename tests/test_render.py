"""Renderers and the parser on integers past the interpreter's 4300-digit
limit on decimal conversion, called directly rather than through the CLI."""

import sys
from fractions import Fraction

import pytest

from relchern import (ChowRing, ParseError, Symbol, class_to_json,
                      parse_class_expr, render_expr, to_latex, to_text)
from relchern.expressions import BinOp, Num, Sym

NUM, DEN = 2 ** 20000, 3 ** 10000  # 6021 and 4772 digits
RING = ChowRing([Symbol("L")], 2)
L = RING.sym("L")


def digits(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def default_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(saved)


CASES = {
    "str": (lambda: str(RING.const(NUM)), lambda: digits(NUM)),
    "to_text": (lambda: to_text(NUM * L), lambda: f"{digits(NUM)}*L"),
    "to_latex": (lambda: to_latex(Fraction(NUM, DEN) * L),
                 lambda: f"\\tfrac{{{digits(NUM)}}}{{{digits(DEN)}}} L"),
    "class_to_json": (lambda: class_to_json(RING.const(-NUM)),
                      lambda: [{"codim": 0, "terms": [{"monomial": {}, "coeff": {
                          "numerator": digits(-NUM), "denominator": "1"}}]}]),
    "parse_class_expr": (lambda: parse_class_expr(digits(NUM) + "*L"),
                         lambda: BinOp("*", Num(NUM), Sym("L"))),
    "render_expr": (lambda: render_expr(BinOp("*", Num(NUM), Sym("L"))),
                    lambda: f"{digits(NUM)} * L"),
}


@pytest.mark.parametrize("entry", sorted(CASES))
def test_integers_beyond_the_digit_limit(default_limit, entry):
    call, expected = CASES[entry]
    assert call() == expected()
    assert sys.get_int_max_str_digits() == default_limit


def test_parse_error_quoting_a_long_literal(default_limit):
    with pytest.raises(ParseError) as err:
        parse_class_expr("H " + digits(NUM))
    assert (err.value.line, err.value.column) == (1, 3)
    assert sys.get_int_max_str_digits() == default_limit
