"""Core ring arithmetic: truncation, exact series inversion, grading."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relchern import (ChowPoly, ChowRing, ContextError, GradeError,
                      NonUnitError, Symbol, SymbolError, expand_ratio)


def ring_L(bound):
    return ChowRing([Symbol("L", 1)], bound)


def test_symbol_validation():
    with pytest.raises(SymbolError):
        Symbol("2bad")
    with pytest.raises(SymbolError):
        Symbol("c", 0)
    with pytest.raises(SymbolError):
        Symbol("c", True)  # a bool is not a degree
    assert Symbol("c2", 2).degree == 2
    with pytest.raises(GradeError):
        ChowRing([Symbol("L")], True)


def test_ring_rejects_duplicate_names():
    with pytest.raises(SymbolError):
        ChowRing([Symbol("L"), Symbol("L")], 2)
    with pytest.raises(SymbolError):
        ChowRing([Symbol("L"), Symbol("L", 2)], 2)


def test_ring_takes_only_symbol_records():
    # a name, a (name, degree) pair or a number is refused by name, not
    # unpacked into a Symbol
    for entry in ("L", ("c2", 2), 3):
        with pytest.raises(SymbolError, match=re.escape(f"not {entry!r}")):
            ChowRing([Symbol("M"), entry], 2)


def test_add_examples():
    ring = ring_L(2)
    L = ring.sym("L")
    assert (3 * L) + (-3 * L) == 0
    assert (1 + 2 * L) + L ** 2 == 1 + 2 * L + L ** 2
    ring1 = ring_L(1)
    L1 = ring1.sym("L")
    assert L1 ** 2 + L1 ** 2 == 0  # degree-2 input dies at construction


def test_mul_examples():
    ring = ring_L(3)
    L = ring.sym("L")
    assert (1 + L) * (1 - L) == 1 - L ** 2
    two = ChowRing([Symbol("L"), Symbol("h")], 2)
    L2, h = two.sym("L"), two.sym("h")
    assert (2 * L2 + 3 * h) * h == 2 * L2 * h + 3 * h ** 2
    assert (1 + 6 * L) * (1 - 6 * L + 36 * L ** 2 - 216 * L ** 3) == 1


def test_expand_ratio_examples():
    ring = ring_L(3)
    L = ring.sym("L")
    one = ring.one
    assert expand_ratio(one, 1 + 6 * L) == 1 - 6 * L + 36 * L ** 2 - 216 * L ** 3
    assert expand_ratio(12 * L, 1 + 6 * L) == 12 * L - 72 * L ** 2 + 432 * L ** 3
    ring2 = ring_L(2)
    L2 = ring2.sym("L")
    assert expand_ratio(ring2.one, (1 + L2) ** 2) == 1 - 2 * L2 + 3 * L2 ** 2


def test_division_operator_semantics():
    ring = ring_L(3)
    L = ring.sym("L")
    assert 12 * L / (1 + 6 * L) == expand_ratio(12 * L, 1 + 6 * L)
    # exact scalar division by rational constants
    assert (3 * L) / Fraction(3, 4) == 4 * L
    assert (3 * L) / 3 == L
    with pytest.raises(NonUnitError):
        ring.one / (2 + L)
    with pytest.raises(ZeroDivisionError):
        L / 0


def test_context_mismatch_errors():
    a = ring_L(2).sym("L")
    b = ring_L(3).sym("L")
    with pytest.raises(ContextError):
        a + b
    with pytest.raises(ContextError):
        a * b


def test_division_by_a_class_of_another_ring_is_a_context_error():
    # as for + and *: the rings differ only in their bound
    a, b = ring_L(2), ring_L(3)
    with pytest.raises(ContextError):
        a.sym("L") / b.const(2)
    with pytest.raises(ContextError):
        a.sym("L") / (1 + b.sym("L"))


def test_float_rejection():
    ring = ring_L(2)
    with pytest.raises(TypeError):
        ring.const(0.5)
    with pytest.raises(TypeError):
        ring.sym("L") * 0.5


def test_bool_rejection():
    # a bool is an int to Python, but never an exact rational here
    ring, L = ring_L(2), ring_L(2).sym("L")
    with pytest.raises(TypeError):
        ring.const(True)
    with pytest.raises(TypeError):
        ring.linear({"L": True})
    with pytest.raises(TypeError):
        L * True
    with pytest.raises(TypeError):
        L / True
    assert (ring.one == True) is False  # noqa: E712


def test_substitute_examples():
    ring = ChowRing([Symbol("L"), Symbol("M"), Symbol("c2", 2)], 3)
    L, M, c2 = ring.sym("L"), ring.sym("M"), ring.sym("c2")
    assert (L ** 2).substitute("L", -M) == M ** 2
    assert (1 + L + L ** 2).substitute("L", ring.zero) == 1
    assert (L + M).substitute("L", -2 * M).substitute("M", 3) == -3
    assert (L * c2).substitute("c2", L ** 2) == L ** 3
    assert (c2 + M).substitute("L", M) == c2 + M
    with pytest.raises(SymbolError):
        L.substitute("x", M)  # not a symbol of the ring


def test_component_examples():
    ring = ring_L(3)
    L = ring.sym("L")
    p = 1 - 6 * L + 36 * L ** 2
    assert p.component(1) == -6 * L
    assert (12 * L - 72 * L ** 2).component(0) == 0
    fano = ChowRing([Symbol("c1", 1), Symbol("c2", 2)], 3)
    c1, c2 = fano.sym("c1"), fano.sym("c2")
    top = 360 * c1 ** 3 + 12 * c1 * c2
    assert top.component(3) == top
    with pytest.raises(GradeError):
        p.component(4)
    with pytest.raises(GradeError):
        p.component(-1)
    with pytest.raises(GradeError):
        p.component(True)
    with pytest.raises(ValueError):
        L ** True


def test_string_rendering_is_canonical():
    ring = ChowRing([Symbol("L"), Symbol("c1", 1), Symbol("c2", 2)], 3)
    L, c1, c2 = ring.sym("L"), ring.sym("c1"), ring.sym("c2")
    assert str(ring.zero) == "0"
    assert str(12 * L - 72 * L ** 2) == "12*L - 72*L^2"
    assert str(-L + ring.one) == "1 - L"
    assert str(Fraction(-3, 4) * L) == "-3/4*L"
    assert str(c2 * c1 + L ** 3) == "L^3 + c1*c2"


# -- property tests ---------------------------------------------------------

RING = ChowRing([Symbol("L"), Symbol("M"), Symbol("c2", 2)], 3)


@st.composite
def polys(draw, names=("L", "M", "c2")):
    poly = RING.zero
    for _ in range(draw(st.integers(0, 4))):
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        term = RING.const(coeff)
        for name in draw(st.lists(st.sampled_from(names), max_size=3)):
            term = term * RING.sym(name)
        poly = poly + term
    return poly


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys())
def test_series_inverse_property(tail):
    q = RING.one + tail - tail.component(0)
    assert expand_ratio(RING.one, q) * q == 1


@settings(max_examples=60, deadline=None)
@given(polys())
def test_component_partition_and_idempotence(p):
    total = RING.zero
    for k in range(RING.bound + 1):
        piece = p.component(k)
        assert piece.component(k) == piece
        assert piece.is_homogeneous(k)
        total = total + piece
    assert total == p


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_truncation_is_ring_homomorphism(a, b):
    low = ChowRing(RING.symbols, 2)
    assert low.convert(a * b) == low.convert(a) * low.convert(b)
    assert low.convert(a + b) == low.convert(a) + low.convert(b)


def test_convert_between_contexts():
    small = ChowRing([Symbol("L")], 2)
    big = ChowRing([Symbol("L"), Symbol("M")], 2)
    p = small.sym("L") + 1
    q = big.convert(p)
    assert q.ring == big and q == big.sym("L") + 1
    with pytest.raises(SymbolError):
        small.convert(big.sym("M"))
    clash = ChowRing([Symbol("L", 2)], 4)
    with pytest.raises(ContextError):
        clash.convert(p)
    with pytest.raises(TypeError):
        big.convert("L")


def test_coefficient_of_an_unknown_symbol_is_a_symbol_error():
    ring = ring_L(2)
    L = ring.sym("L")
    assert (3 * L).coefficient({"L": 1}) == 3
    for exponents in ({"Z": 1}, {"L": 1, "Z": 1}, {"Z": 0}):
        with pytest.raises(SymbolError):
            L.coefficient(exponents)


def test_coefficient_takes_integer_exponents_only():
    ring = ring_L(3)
    p = (1 + ring.sym("L")) ** 3
    assert p.coefficient({"L": 1}) == 3 and p.coefficient({"L": 0}) == 1
    assert p.coefficient({"L": -1}) == p.coefficient({"L": 2 ** 40}) == 0
    for exponent in (1.5, 1.0, True, "1", Fraction(1)):
        with pytest.raises(ValueError):  # as ``p ** exponent`` would
            p.coefficient({"L": exponent})


def test_expand_ratio_needs_a_class_and_exact_rationals():
    ring = ring_L(3)
    L = ring.sym("L")
    for numerator, denominator in (("x", ring.one), (1, 2), (L, "y"),
                                   (0.5, 1 + L), (L, None)):
        with pytest.raises(TypeError):
            expand_ratio(numerator, denominator)
    assert expand_ratio(Fraction(1, 2), 1 + L) == Fraction(1, 2) / (1 + L)
    assert expand_ratio(1, 1 + L) == expand_ratio(ring.one, 1 + L)
    with pytest.raises(NonUnitError):
        expand_ratio(L, 2)
