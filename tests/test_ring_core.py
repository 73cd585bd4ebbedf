"""Properties of the ring core's fast paths: truncation-aware products,
exact ``int``/``Fraction`` coefficients, the canonical term order and the
synthetic division behind the divided-difference route."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relchern import ChowError, ChowRing, ProjClass, Symbol, expand_ratio
from relchern.pushforward import _exact_linear_quotient
from tests.randgen import random_poly, random_setup

RING = ChowRing([Symbol("L"), Symbol("M"), Symbol("c2", 2)], 3)
FORMAL = RING.with_formal(["x", "y"])


@st.composite
def polys(draw, ring=RING, names=("L", "M", "c2"), max_factors=4):
    poly = ring.zero
    for _ in range(draw(st.integers(0, 5))):
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        term = ring.const(coeff)
        for name in draw(st.lists(st.sampled_from(names), max_size=max_factors)):
            term = term * ring.sym(name)
        poly = poly + term
    return poly


def formal_polys():
    return polys(FORMAL, ("L", "c2", "x", "y"), 5)


def assert_exact(poly):
    for c in poly._terms.values():
        assert type(c) in (int, Fraction), c
        assert c != 0
        assert not (type(c) is Fraction and c.denominator == 1), c


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_truncated_product_equals_full_product_then_truncation(a, b):
    full = RING.with_bound(2 * RING.bound)
    assert a * b == RING.convert(full.convert(a) * full.convert(b))


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.fractions(max_denominator=6))
def test_no_stored_zero_float_or_integral_fraction(a, b, q):
    results = [a + b, a - b, a * b, a * q, (a + b) * (a - b),
               expand_ratio(a, RING.one + RING.sym("L") * 2 + b - b.component(0))]
    if q:
        results.append(a / q)
    for value in results:
        assert_exact(value)
    assert type((Fraction(1, 2) * RING.sym("L") * 2).coefficient({"L": 1})) is int


@settings(max_examples=80, deadline=None)
@given(formal_polys())
def test_terms_follow_the_expanded_symbol_order(p):
    # the reference order: total degree, then the expanded product of the
    # monomial's symbols, each compared by (degree, name)
    def expanded(mono):
        degrees = FORMAL._degrees
        return (sum(e * degrees[n] for n, e in mono),
                tuple((degrees[n], n) for n, e in mono for _ in range(e)))

    monos = [mono for mono, _ in p.terms()]
    assert monos == sorted(monos, key=expanded)
    for mono in monos:
        assert list(mono) == sorted(mono, key=lambda ne: (FORMAL._degrees[ne[0]], ne[0]))


@settings(max_examples=80, deadline=None)
@given(formal_polys())
def test_synthetic_division_by_a_linear_factor(q):
    x, y = FORMAL.sym("x"), FORMAL.sym("y")
    quotient = _exact_linear_quotient(q * (x - y), "x", "y", FORMAL)
    assert quotient == q
    assert quotient * (x - y) == q * (x - y)
    assert_exact(quotient)


@settings(max_examples=80, deadline=None)
@given(formal_polys())
def test_synthetic_division_rejects_a_non_multiple(f):
    # f is a multiple of (x - y) exactly when it vanishes at x = y
    y = FORMAL.sym("y")
    if f.substitute("x", y).is_zero():
        assert _exact_linear_quotient(f, "x", "y", FORMAL) * (FORMAL.sym("x") - y) == f
    else:
        with pytest.raises(ChowError):
            _exact_linear_quotient(f, "x", "y", FORMAL)


def test_synthetic_division_rejects_constants():
    with pytest.raises(ChowError):
        _exact_linear_quotient(FORMAL.sym("L") + 1, "x", "y", FORMAL)
    assert _exact_linear_quotient(FORMAL.zero, "x", "y", FORMAL) == 0


def reference_projclass_product(u, v):
    # every coefficient product formed in full, then truncated by the
    # ProjClass constructor
    dmax = u.bundle.ambient_dim
    out = [u.bundle.ring.zero] * (dmax + 1)
    for i, a in enumerate(u.coeffs):
        for j, b in enumerate(v.coeffs):
            if i + j <= dmax:
                out[i + j] = out[i + j] + a * b
    return ProjClass(u.bundle, out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_truncated_projclass_product_equals_full_then_truncated(seed):
    rng = random.Random(seed)
    _, bundle, u = random_setup(rng)
    v = ProjClass(bundle, [random_poly(rng, bundle.ring, 3, 4)
                           for _ in range(rng.randint(1, bundle.ambient_dim + 1))])
    product = u * v
    assert product == reference_projclass_product(u, v)
    for a in product.coeffs:
        assert_exact(a)


def test_formal_exponent_overflow_is_an_error():
    x = FORMAL.sym("x")
    with pytest.raises(ChowError):
        x ** (2 ** 31)
    assert FORMAL.sym("x").coefficient({"x": 2 ** 40}) == 0
