"""Packed keys at the edges of a field's width.

A ring without formal variables packs each exponent and the degree into
fields of ``bound.bit_length() + 1`` bits; adding a formal variable brings
back 32-bit fields.  So the same computation done in ``ring`` and in
``ring.with_formal(["z"])``, then converted back, runs the kernels at two
widths and must give the same value.  The bounds sit on either side of each
power of two, and the values hold exponents exactly at the bound next to
nonzero neighbouring fields, where a carry would show first."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from relchern import ChowRing, FormalBase, Symbol, expand_ratio

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
