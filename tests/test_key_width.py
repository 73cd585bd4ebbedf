"""Packed keys at the edges of a field's width.

A ring packs each exponent and the degree into fields of
``bound.bit_length() + 1`` bits, so the ring at the largest bound,
``ChowRing(ring.symbols, _MAX_BOUND)``, has 32-bit fields.  Truncation is a ring
homomorphism, so the same computation done in ``ring`` and in that twin,
then converted back, runs the kernels at two widths and must give the same
value.  The bounds sit on either side of each power of two, and the values
hold exponents exactly at the bound next to nonzero neighbouring fields,
where a carry would show first.  At every width from 1 to 9 bits, and at 32
bits with exponents up to the largest bound, the canonical terms and their
codimensions must be those of a decode that walks every field."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relchern import ChowRing, FormalBase, GradeError, Symbol, expand_ratio
from relchern.ring import _MAX_BOUND

BOUNDS = (0, 1, 2, 3, 4, 7, 8, 15, 16, 63, 64, 127, 128)


def ring_of(bound):
    return ChowRing([Symbol("L"), Symbol("M"), Symbol("c2", 2),
                     Symbol("c3", 3)], bound)


def edge_values(ring):
    """Classes whose terms reach the bound in one field and in two or
    three neighbouring fields, with seeded coefficients."""
    b = ring.bound
    L, M, c2, c3 = (ring.sym(n) for n in ("L", "M", "c2", "c3"))
    rng = random.Random(b)

    def coeff():
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))

    monomials = [ring.one, L ** b, M ** b, L ** (b // 2) * M ** (b - b // 2),
                 M ** (b % 2) * c2 ** (b // 2), L ** (b % 3) * c3 ** (b // 3),
                 L * M * c2 * c3, L ** max(b - 1, 0) * M]
    for _ in range(4):
        i = rng.randint(0, b)
        j = rng.randint(0, b - i)
        monomials.append(L ** i * c2 ** (j // 2) * M ** (j % 2))
    left = sum((coeff() * m for m in monomials[:7]), ring.zero)
    right = sum((coeff() * m for m in monomials[4:]), ring.one)
    return left, right


@pytest.mark.parametrize("bound", BOUNDS)
def test_fields_take_the_width_of_the_bound(bound):
    ring = ring_of(bound)
    assert ring._bits == bound.bit_length() + 1
    left, right = edge_values(ring)
    for value in (left, right, left * right):
        for key in value._terms:
            fields = [key >> ring._bits * i & ring._mask for i in range(5)]
            assert max(fields) <= bound
            assert key >> ring._bits * 5 == 0


def test_the_largest_bound_takes_32_bit_fields():
    assert ring_of(_MAX_BOUND)._bits == 32
    with pytest.raises(GradeError, match=r"\[0, 2147483647\]"):
        ring_of(_MAX_BOUND + 1)


@pytest.mark.parametrize("bound", BOUNDS)
def test_operations_agree_with_the_same_ring_at_32_bits(bound):
    # no division, components() or component() runs in the wide ring: each
    # would reach degree _MAX_BOUND
    ring = ring_of(bound)
    wide = ChowRing(ring.symbols, _MAX_BOUND)
    left, right = edge_values(ring)
    wl, wr = wide.convert(left), wide.convert(right)
    L = ring.sym("L")
    den = ring.one - 2 * L + Fraction(1, 3) * ring.sym("c2")
    back = ring.convert

    product = left * right
    wide_product = wl * wr
    assert product == back(wide_product)
    assert right ** 3 == back(wr ** 3)
    pieces = product.components()
    for degree in range(bound + 1):
        low = wide_product.truncate(degree - 1) if degree else wide.zero
        assert pieces[degree] == back(wide_product.truncate(degree) - low)
    for degree in {0, bound // 2, max(bound - 1, 0), bound}:
        assert left.truncate(degree) == back(wl.truncate(degree))
    # each quotient times the denominator, in the wide ring and back
    for num, unit in ((left, den), (left, ring.one + L)):
        quotient = expand_ratio(num, unit)
        assert quotient * unit == num
        assert back(wide.convert(quotient) * wide.convert(unit)) == num
    b = bound
    for exponents in ({"L": b}, {"M": b}, {"L": b // 2, "M": b - b // 2},
                      {"M": b % 2, "c2": b // 2}, {"L": b % 3, "c3": b // 3},
                      {"L": b + 1}, {"L": 1, "M": 1, "c2": 1, "c3": 1}):
        assert left.coefficient(exponents) == wl.coefficient(exponents)
        assert product.coefficient(exponents) == \
            wide.convert(product).coefficient(exponents)
        if sum(e * ring.degree_of(n) for n, e in exponents.items()) <= b:
            assert product.coefficient(exponents) == \
                wide_product.coefficient(exponents)
    for value in (left, right, product):
        wide_value = wide.convert(value)
        assert value.symbols_used() == wide_value.symbols_used()
        assert str(value) == str(wide_value)


@pytest.mark.parametrize("bound", (1, 2, 8, 64, 128, _MAX_BOUND))
def test_adjacent_fields_at_the_bound_are_each_seen_as_used(bound):
    ring = ring_of(bound)
    L, M = ring.sym("L"), ring.sym("M")
    value = L ** (bound // 2) * M ** (bound - bound // 2)
    assert value.symbols_used() == {"L", "M"} - ({"L"} if bound < 2 else set())
    assert (M ** bound).symbols_used() == {"M"}
    assert (L ** bound).symbols_used() == {"L"}


@pytest.mark.parametrize("bound", BOUNDS + (_MAX_BOUND,))
def test_copies_and_pickles_keep_the_width(bound):
    ring = ring_of(bound)
    left, right = edge_values(ring)
    for clone in (copy.copy(left), copy.deepcopy(left),
                  pickle.loads(pickle.dumps(left))):
        assert clone == left
        assert clone.ring._bits == ring._bits
        assert clone * right == left * right
        assert str(clone) == str(left)
    clone = pickle.loads(pickle.dumps(ring))
    assert clone == ring and clone._mask == ring._mask


def test_divisor_only_keys_of_a_dimension_60_base_fit_one_digit():
    # one 30-bit CPython digit per key: the whole point of the packing
    ring = FormalBase(60).ring
    L = ring.sym("L")
    for value in ((ring.one + L) ** 60, expand_ratio(12 * L, ring.one + 6 * L),
                  L ** 60):
        assert value._terms
        assert all(0 <= key < 2 ** 30 for key in value._terms)


# -- canonical order at every width ------------------------------------------


def full_walk(ring, key):
    """The sort key, codimension and monomial of a key, read field by field,
    zero or not: total degree, then the exponent vector in field order,
    larger first."""
    names = list(ring._shift)  # in field order
    exps = [key >> ring._shift[name] & ring._mask for name in names]
    degree = sum(e * ring.degree_of(name) for e, name in zip(exps, names))
    mono = tuple((name, e) for name, e in zip(names, exps) if e)
    return (degree, [-e for e in exps]), degree, mono


def reference_canonical(value):
    rows = sorted((full_walk(value.ring, key) + (c,)
                   for key, c in value._terms.items()), key=lambda row: row[0])
    return ([codim for _, codim, _, _ in rows],
            [(mono, c) for _, _, mono, c in rows])


EDGES = (0, 1, 63, 64, 127, 128, 130)
_WIDE_EXPS = st.one_of(st.integers(0, 3), st.integers(0, _MAX_BOUND),
                       st.sampled_from([_MAX_BOUND - 1, _MAX_BOUND]))


@st.composite
def wide_values(draw):
    """A class of ``ring_of(bound)`` for a bound in 0..130, so fields of 1 to
    9 bits, or of ``ring_of(_MAX_BOUND)``, whose fields are 32 bits wide and
    whose exponents reach ``_MAX_BOUND``."""
    wide = draw(st.booleans())
    bound = _MAX_BOUND if wide else draw(st.one_of(st.sampled_from(EDGES),
                                                   st.integers(0, 130)))
    ring = ring_of(bound)
    value = ring.zero
    for _ in range(draw(st.integers(0, 6))):
        term = ring.const(draw(st.sampled_from([1, -1, 2, -7, Fraction(3, 4)])))
        room = bound
        for name in draw(st.permutations(["L", "M", "c2", "c3"])):
            most = room // ring.degree_of(name)
            e = min(draw(_WIDE_EXPS), most) if wide else draw(st.integers(0, most))
            room -= e * ring.degree_of(name)
            term = term * ring.sym(name) ** e
        value = value + term
    return value


WIDEST = ring_of(_MAX_BOUND)


@settings(max_examples=150, deadline=None)
@given(wide_values())
@example(ring_of(127).sym("c3") ** 42 * ring_of(127).sym("L")
         + ring_of(127).sym("M") ** 127 - ring_of(127).sym("L") ** 127)
@example(ring_of(0).const(5))
@example(WIDEST.sym("M") ** _MAX_BOUND - WIDEST.sym("L") ** _MAX_BOUND
         + WIDEST.sym("L") ** (_MAX_BOUND - 1) * WIDEST.sym("M"))
def test_canonical_terms_match_a_full_walk(value):
    codims, terms = reference_canonical(value)
    canon_codims, canon_terms = value._canonical()
    assert list(canon_codims) == codims
    assert list(canon_terms) == terms
    assert value.terms() == terms


def test_equal_factors_of_two_classes_share_one_tuple():
    # values keep their decoded terms, so a factor decoded twice is kept once
    ring = ring_of(8)
    L, M, c2 = (ring.sym(name) for name in ("L", "M", "c2"))
    first = 3 * L ** 2 * M + L ** 2 * c2 - M ** 4
    second = (L ** 2 - 5 * M * L ** 2 + M ** 4) * (1 + c2)
    seen = {}
    for value in (first, second, first.component(3), ring.convert(second)):
        for mono, _ in value.terms():
            for factor in mono:
                assert seen.setdefault(factor, factor) is factor
    assert {("L", 2), ("M", 1), ("M", 4), ("c2", 1)} <= set(seen)
