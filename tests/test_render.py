"""Renderers and the parser on integers past the interpreter's 4300-digit
limit on decimal conversion, called directly rather than through the CLI,
and the renderers against a plain reference on random classes."""

import contextlib
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from relchern import (ChowRing, ParseError, Symbol, class_to_json,
                      parse_class_expr, render, render_expr, to_latex, to_text)
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


# -- the renderers against a plain reference ----------------------------------


@contextlib.contextmanager
def lifted():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def reference_terms(items, coeff, power, sep):
    # one term at a time, each joint chosen by the sign of the term after it
    if not items:
        return "0"
    parts = []
    with lifted():
        for mono, c in items:
            mono_s = sep.join(power(n, e) for n, e in mono)
            if not mono_s:
                parts.append(coeff(c))
            elif c == 1:
                parts.append(mono_s)
            elif c == -1:
                parts.append("-" + mono_s)
            else:
                parts.append(f"{coeff(c)}{sep}{mono_s}")
    text = parts[0]
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


def reference_text(cls):
    return reference_terms(cls.terms(), str,
                           lambda n, e: n if e == 1 else f"{n}^{e}", "*")


def reference_latex_power(name, exp):
    match = re.match(r"([A-Za-z]+)_?(\d+)\Z", name)
    if match:
        name = f"{match.group(1)}_{{{match.group(2)}}}"
    elif re.search(r"_.*_", name):
        first = name.index("_")
        name = ((name[:first] or "{}") + "_{"
                + name[first + 1:].replace("_", "\\_") + "}")
    return name if exp == 1 else f"{name}^{{{exp}}}"


def reference_latex_coeff(q):
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q.numerator < 0 else ""
    return f"{sign}\\tfrac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def reference_latex(cls):
    return reference_terms(cls.terms(), reference_latex_coeff,
                           reference_latex_power, " ")


def reference_json(cls):
    # grouped by codimension
    pieces = {}
    with lifted():
        for k, (mono, c) in zip(*cls._canonical()):
            pieces.setdefault(k, []).append({
                "monomial": dict(mono),
                "coeff": {"numerator": str(c.numerator),
                          "denominator": str(c.denominator)}})
    return [{"codim": k, "terms": pieces[k]} for k in sorted(pieces)]


# c12 and x_3 take LaTeX subscripts; L and t reach exponents >= 10; a_b
# keeps its bytes, and a_b_c and _u_v take one subscript
PLAIN = ChowRing([Symbol("L"), Symbol("c2", 2), Symbol("c12", 12),
                  Symbol("x_3")], 24)
TALL = ChowRing(PLAIN.symbols + (Symbol("t"), Symbol("a_b"), Symbol("a_b_c"),
                                 Symbol("_u_v")), 36)
BIG = 7 ** 6000  # 5071 digits


def build(ring, terms):
    value = ring.zero
    for mono, c in terms:
        term = ring.const(c)
        for name, exp in mono.items():
            term = term * ring.sym(name) ** exp
        value = value + term
    return value


_COEFFS = st.one_of(
    st.integers(-3, 3),  # 1 and -1 print no coefficient
    st.fractions(-5, 5, max_denominator=6),
    st.sampled_from([BIG, -BIG, Fraction(-BIG, 3), Fraction(2, BIG)]))


@st.composite
def classes(draw):
    ring = draw(st.sampled_from([PLAIN, TALL]))
    names = [s.name for s in ring.symbols]
    monos = st.dictionaries(st.sampled_from(names), st.integers(1, 12),
                            max_size=3)
    return build(ring, draw(st.lists(st.tuples(monos, _COEFFS), max_size=6)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(classes())
@example(PLAIN.zero)
@example(PLAIN.const(Fraction(-7, 2)))
@example(build(PLAIN, [({"L": 1}, -1), ({"c12": 1, "x_3": 11}, BIG),
                       ({"L": 10}, Fraction(-1, 3))]))
@example(build(TALL, [({"t": 12}, 1), ({"L": 1, "t": 1}, -1), ({}, -BIG)]))
def test_renderers_match_the_reference(default_limit, cls):
    assert to_text(cls) == str(cls) == reference_text(cls)
    assert to_latex(cls) == reference_latex(cls)
    assert class_to_json(cls) == reference_json(cls)
    assert sys.get_int_max_str_digits() == default_limit


def test_latex_names_with_two_or_more_underscores_take_one_subscript():
    ring = ChowRing([Symbol(name) for name in
                     ("a_b", "a_b_c", "x__y", "p_q_r_s", "_u_v", "c_2")], 4)
    latex = {s.name: to_latex(ring.sym(s.name) ** 2) for s in ring.symbols}
    assert latex == {"a_b": "a_b^{2}", "a_b_c": r"a_{b\_c}^{2}",
                     "x__y": r"x_{\_y}^{2}", "p_q_r_s": r"p_{q\_r\_s}^{2}",
                     "_u_v": r"{}_{u\_v}^{2}", "c_2": "c_{2}^{2}"}
    assert to_latex(3 * ring.sym("a_b_c") * ring.sym("_u_v")) == \
        r"3 {}_{u\_v} a_{b\_c}"
    # the text and JSON renderings keep the name as it is
    assert to_text(ring.sym("a_b_c") ** 2) == "a_b_c^2"


def test_a_full_factor_string_table_starts_again_empty():
    # L + L^2 + ... + L^1100 has 1,100 factors, so each table of 1,024
    # factor strings fills up and empties itself at least once on the way
    ring = ChowRing([Symbol("L")], 1100)
    L = ring.sym("L")
    cls, power = ring.zero, ring.one
    for _ in range(1100):
        power = power * L
        cls = cls + power
    exponents = range(2, 1101)
    assert to_text(cls) == " + ".join(["L", *(f"L^{k}" for k in exponents)])
    assert to_latex(cls) == " + ".join(["L", *(f"L^{{{k}}}" for k in exponents)])
    for table in (render._text_strings, render._latex_strings):
        assert len(table) <= table.limit
