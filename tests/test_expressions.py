"""Class-expression grammar: parse, render, evaluate."""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relchern import (ChowRing, NonUnitError, ParseError, Symbol, SymbolError,
                      parse_class_expr, render_expr)
from relchern.expressions import BinOp, Neg, Num, Pow, Sym, evaluate
from tests.randgen import random_expr, random_poly


def test_parse_divisor_sum():
    tree = parse_class_expr("3*H + 6*L")
    assert tree == BinOp("+", BinOp("*", Num(3), Sym("H")),
                         BinOp("*", Num(6), Sym("L")))


def test_parse_product_of_factors():
    tree = parse_class_expr("(1+H)*(1+H+2*L)*(1+H+3*L)")
    middle = BinOp("+", BinOp("+", Num(1), Sym("H")), BinOp("*", Num(2), Sym("L")))
    last = BinOp("+", BinOp("+", Num(1), Sym("H")), BinOp("*", Num(3), Sym("L")))
    assert tree == BinOp("*", BinOp("*", BinOp("+", Num(1), Sym("H")), middle),
                         last)


def test_parse_powers_and_precedence():
    assert parse_class_expr("2*H^3") == BinOp("*", Num(2), Pow(Sym("H"), 3))
    assert parse_class_expr("(2*H)^3") == Pow(BinOp("*", Num(2), Sym("H")), 3)
    assert parse_class_expr("1 - 2 - 3") == BinOp(
        "-", BinOp("-", Num(1), Num(2)), Num(3))
    assert parse_class_expr("-H + L") == BinOp("+", Neg(Sym("H")), Sym("L"))


def test_nonunit_denominator_is_an_evaluation_error():
    tree = parse_class_expr("1/(2+L)")  # parses fine
    ring = ChowRing([Symbol("L")], 2)
    env = {"L": ring.sym("L")}
    with pytest.raises(NonUnitError):
        evaluate(tree, env, ring.const)


def test_unit_denominator_evaluates_to_series():
    ring = ChowRing([Symbol("L")], 3)
    env = {"L": ring.sym("L")}
    tree = parse_class_expr("12*L/(1+6*L)")
    L = ring.sym("L")
    assert evaluate(tree, env, ring.const) == 12 * L - 72 * L ** 2 + 432 * L ** 3


def test_unknown_symbol_is_an_evaluation_error():
    ring = ChowRing([Symbol("L")], 2)
    with pytest.raises(SymbolError):
        evaluate(parse_class_expr("1+Q"), {"L": ring.sym("L")}, ring.const)


@pytest.mark.parametrize("src,line,column", [
    ("12L", 1, 3),          # no implicit multiplication
    ("3 + ", 1, 5),         # dangling operator
    ("(1+L", 1, 5),         # unclosed group
    ("H^-1", 1, 3),         # exponents are unsigned integers
    ("H^(2)", 1, 3),
    ("1.5*L", 1, 2),        # no floats in the grammar
    ("", 1, 1),
    ("2*H\n+ 3*?", 2, 5),   # positions track line breaks
    ("L*²", 1, 3),          # literals are ASCII digits only
    ("٣*L", 1, 1),
    ("L*½", 1, 3),
    ("L +\t?", 1, 5),       # a tab or a CR is one column
    ("\r\r$", 1, 3),
    ("L\f+ 1", 1, 2),       # a form feed is not a blank
    ("(" * 101 + "L" + ")" * 101, 1, 101),  # nesting is capped at 100
    ("1 +\n" + "(" * 120 + "L" + ")" * 120, 2, 101),
])
def test_parse_error_positions(src, line, column):
    with pytest.raises(ParseError) as err:
        parse_class_expr(src)
    assert (err.value.line, err.value.column) == (line, column)


# ASCII letters and digits, the operators, blanks and line breaks, and
# characters that are letters (é, 𝑥), digits but not ASCII ones (², ٣),
# numeric (½) or a combining accent (U+0301)
_TEXT = st.text(st.sampled_from(list(string.ascii_letters + string.digits
                                     + "+-*/^() \t\r\n\f")
                                + ["é", "𝑥", "²", "٣", "½", "\u0301"]),
                max_size=40)


@settings(max_examples=300, deadline=None)
@given(_TEXT)
def test_parse_returns_a_tree_or_a_parse_error(text):
    try:
        tree = parse_class_expr(text)
    except ParseError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1
    else:
        assert parse_class_expr(render_expr(tree)) == tree


def test_a_value_that_is_not_a_node_is_a_type_error():
    for bad in (3, "L", BinOp("+", Num(1), "L")):
        with pytest.raises(TypeError, match="not an expression node"):
            render_expr(bad)
        with pytest.raises(TypeError, match="not an expression node"):
            evaluate(bad, {}, int)


def test_render_parse_fixpoint_random():
    rng = random.Random(424242)
    for _ in range(150):
        tree = random_expr(rng)
        text = render_expr(tree)
        assert parse_class_expr(text) == tree, text


@pytest.mark.parametrize("op, piece, expected", [
    ("+", "L", "3000*L"),
    ("-", "L", "-2998*L"),
    ("*", "(1+L)", "1 + 3000*L + 4498500*L^2"),
    ("/", "(1+L)", "1 - 2998*L + 4495501*L^2"),
])
def test_long_chains_render_and_evaluate_without_recursion(op, piece, expected):
    ring = ChowRing([Symbol("L")], 2)
    text = f" {op} ".join([piece] * 3000)
    tree = parse_class_expr(text)
    assert render_expr(tree) == text.replace("(1+L)", "(1 + L)")
    assert str(evaluate(tree, {"L": ring.sym("L")}, ring.const)) == expected


def test_rendered_classes_read_back():
    rng = random.Random(99)
    ring = ChowRing([Symbol("L"), Symbol("M"), Symbol("c2", 2)], 3)
    env = {name: ring.sym(name) for name in ("L", "M", "c2")}
    for _ in range(60):
        poly = random_poly(rng, ring, max_factors=3)
        text = str(poly)
        again = evaluate(parse_class_expr(text), env, ring.const)
        assert again == poly, text


def test_rendered_fraction_coefficients_read_back():
    from fractions import Fraction
    ring = ChowRing([Symbol("L")], 2)
    L = ring.sym("L")
    poly = Fraction(-3, 4) * L + Fraction(5, 6) * L ** 2
    text = str(poly)
    assert text == "-3/4*L + 5/6*L^2"
    value = evaluate(parse_class_expr(text), {"L": L}, ring.const)
    assert value == poly
