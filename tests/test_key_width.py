"""Packed keys at the edges of a field's width.

A ring without formal variables packs each exponent and the degree into
fields of ``bound.bit_length() + 1`` bits; adding a formal variable brings
back 32-bit fields.  So the same computation done in ``ring`` and in
``ring.with_formal(["z"])``, then converted back, runs the kernels at two
widths and must give the same value.  The bounds sit on either side of each
power of two, and the values hold exponents exactly at the bound next to
nonzero neighbouring fields, where a carry would show first.  At every
width from 1 to 9 bits, and at 32 bits with formal exponents up to the
largest a field holds, the canonical terms and their codimensions must be
those of a decode that walks every field."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relchern import ChowRing, FormalBase, Symbol, expand_ratio
from relchern.ring import _MAX_EXP

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
    assert ring.with_formal(["z"])._bits == 32
    left, right = edge_values(ring)
    for value in (left, right, left * right):
        for key in value._terms:
            fields = [key >> ring._bits * i & ring._mask for i in range(5)]
            assert max(fields) <= bound
            assert key >> ring._bits * 5 == 0


@pytest.mark.parametrize("bound", BOUNDS)
def test_operations_agree_with_the_same_ring_at_32_bits(bound):
    ring = ring_of(bound)
    wide = ring.with_formal(["z"])
    left, right = edge_values(ring)
    wl, wr = wide.convert(left), wide.convert(right)
    L = ring.sym("L")
    den = ring.one - 2 * L + Fraction(1, 3) * ring.sym("c2")
    back = ring.convert

    assert left * right == back(wl * wr)
    assert right * right * right == back(wr * wr * wr)
    assert expand_ratio(left, den) == back(expand_ratio(wl, wide.convert(den)))
    assert left / (ring.one + L) == back(wl / (wide.one + wide.sym("L")))
    assert [back(p) for p in (wl * wr).components()] == (left * right).components()
    for degree in {0, bound // 2, max(bound - 1, 0), bound}:
        assert left.truncate(degree) == back(wl.truncate(degree))
    product = left * right
    wide_product = wl * wr
    b = bound
    for exponents in ({"L": b}, {"M": b}, {"L": b // 2, "M": b - b // 2},
                      {"M": b % 2, "c2": b // 2}, {"L": b % 3, "c3": b // 3},
                      {"L": b + 1}, {"L": 1, "M": 1, "c2": 1, "c3": 1}):
        assert left.coefficient(exponents) == wl.coefficient(exponents)
        assert product.coefficient(exponents) == wide_product.coefficient(exponents)
    for value, wide_value in ((left, wl), (right, wr), (product, wide_product)):
        assert value.symbols_used() == wide_value.symbols_used()
        assert str(value) == str(wide_value)


@pytest.mark.parametrize("bound", (1, 2, 8, 64, 128))
def test_adjacent_fields_at_the_bound_are_each_seen_as_used(bound):
    ring = ring_of(bound)
    L, M = ring.sym("L"), ring.sym("M")
    value = L ** (bound // 2) * M ** (bound - bound // 2)
    assert value.symbols_used() == {"L", "M"} - ({"L"} if bound < 2 else set())
    assert (M ** bound).symbols_used() == {"M"}
    assert (L ** bound).symbols_used() == {"L"}


@pytest.mark.parametrize("bound", BOUNDS)
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
    zero or not: total degree with formal variables counting 1, then the
    exponent vector in field order, larger first."""
    names = list(ring._shift)  # in field order
    exps = [key >> ring._shift[name] & ring._mask for name in names]
    degrees = [ring.degree_of(name) for name in names]
    degree = sum(e * d for e, d in zip(exps, degrees))
    codim = sum(e * d for e, d, name in zip(exps, degrees, names)
                if not ring.is_formal(name))
    mono = tuple((name, e) for name, e in zip(names, exps) if e)
    return (degree, [-e for e in exps]), codim, mono


def reference_canonical(value):
    rows = sorted((full_walk(value.ring, key) + (c,)
                   for key, c in value._terms.items()), key=lambda row: row[0])
    return ([codim for _, codim, _, _ in rows],
            [(mono, c) for _, _, mono, c in rows])


EDGES = (0, 1, 63, 64, 127, 128, 130)
_FORMAL_EXPS = st.one_of(st.integers(0, 3), st.integers(0, _MAX_EXP),
                         st.sampled_from([_MAX_EXP - 1, _MAX_EXP]))


@st.composite
def wide_values(draw):
    """A class of ``ring_of(bound)`` for a bound in 0..130, so fields of 1 to
    9 bits, or of that ring with the formal variables x and y, whose fields
    are 32 bits wide and whose exponents reach ``_MAX_EXP``."""
    bound = draw(st.one_of(st.sampled_from(EDGES), st.integers(0, 130)))
    ring = ring_of(bound)
    formal = draw(st.booleans())
    if formal:
        ring = ring.with_formal(["x", "y"])
    value = ring.zero
    for _ in range(draw(st.integers(0, 6))):
        term = ring.const(draw(st.sampled_from([1, -1, 2, -7, Fraction(3, 4)])))
        room = bound
        for name in draw(st.permutations(["L", "M", "c2", "c3"])):
            e = draw(st.integers(0, room // ring.degree_of(name)))
            room -= e * ring.degree_of(name)
            term = term * ring.sym(name) ** e
        if formal:
            term = term * ring.sym("x") ** draw(_FORMAL_EXPS)
            term = term * ring.sym("y") ** draw(_FORMAL_EXPS)
        value = value + term
    return value


@settings(max_examples=150, deadline=None)
@given(wide_values())
@example(ring_of(127).sym("c3") ** 42 * ring_of(127).sym("L")
         + ring_of(127).sym("M") ** 127 - ring_of(127).sym("L") ** 127)
@example(ring_of(0).const(5))
@example(ring_of(64).with_formal(["x", "y"]).sym("y") ** _MAX_EXP
         - ring_of(64).with_formal(["x", "y"]).sym("x") ** _MAX_EXP
         + ring_of(64).with_formal(["x", "y"]).sym("M") ** 64)
def test_canonical_terms_match_a_full_walk(value):
    codims, terms = reference_canonical(value)
    canon_codims, canon_terms = value._canonical()
    assert list(canon_codims) == codims
    assert list(canon_terms) == terms
    assert value.terms() == terms


def test_equal_factors_of_two_classes_share_one_tuple():
    # values keep their decoded terms, so a factor decoded twice is kept once
    ring = ring_of(8).with_formal(["x"])
    L, M, c2, x = (ring.sym(name) for name in ("L", "M", "c2", "x"))
    first = 3 * L ** 2 * M + L ** 2 * c2 - x ** 40 * M
    second = (L ** 2 - 5 * M * L ** 2 + x ** 40) * (1 + c2)
    seen = {}
    for value in (first, second, first.component(3), ring.convert(second)):
        for mono, _ in value.terms():
            for factor in mono:
                assert seen.setdefault(factor, factor) is factor
    assert {("L", 2), ("M", 1), ("x", 40), ("c2", 1)} <= set(seen)
