"""``expand_ratio`` against sympy's power series and ``divided_difference``
against sympy's recursive quotient, on small random inputs.

Sympy is a test-only oracle: the module is skipped where it is not
installed, and the package never imports it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relchern import ChowRing, Symbol, divided_difference, expand_ratio
from tests.randgen import random_rational

sp = pytest.importorskip("sympy")


def random_class(rng, ring, names, terms=4):
    poly = ring.zero
    for _ in range(rng.randint(0, terms)):
        term = ring.const(random_rational(rng))
        for name in rng.choices(names, k=rng.randint(0, 3)):
            term = term * ring.sym(name)
        poly = poly + term
    return poly


def to_sympy(poly, symbols):
    return sum((sp.Rational(c.numerator, c.denominator)
                * sp.Mul(*(symbols[n] ** e for n, e in mono))
                for mono, c in poly.terms()), sp.Integer(0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([("L",), ("L", "M")]))
def test_expand_ratio_equals_the_truncated_sympy_series(seed, names):
    rng = random.Random(seed)
    ring = ChowRing([Symbol(n) for n in names], rng.randint(0, 4))
    num = random_class(rng, ring, names)
    tail = random_class(rng, ring, names)
    den = 1 + tail - tail.constant_term()
    symbols = {n: sp.Symbol(n) for n in names}
    # scaling every divisor by t grades the series by total degree
    t = sp.Symbol("t")
    graded = {s: t * s for s in symbols.values()}
    ratio = (to_sympy(num, symbols) / to_sympy(den, symbols)).subs(graded,
                                                                   simultaneous=True)
    series = sp.series(ratio, t, 0, ring.bound + 1).removeO().subs(t, 1)
    assert sp.expand(series - to_sympy(expand_ratio(num, den), symbols)) == 0


def truncated(expr, gens, bound):
    # the terms of total degree <= bound, every symbol being of degree 1
    poly = sp.Poly(sp.expand(expr), *gens)
    return sum((c * sp.Mul(*(g ** e for g, e in zip(gens, mono)))
                for mono, c in poly.terms() if sum(mono) <= bound), sp.Integer(0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 3), st.booleans())
def test_divided_difference_equals_the_sympy_quotient(seed, count, sums):
    # the nodes are the symbols x1..xn or, as the closed form takes them,
    # linear forms in L and M such as -2L and L + M, equal ones allowed; the
    # result is degree 7 at most, so some bounds truncate it and some do not
    rng = random.Random(seed)
    points = [f"x{i}" for i in range(1, count + 1)]
    names = ("L", "M", *points)
    ring = ChowRing([Symbol(n) for n in names], rng.randint(0, 7))
    coeffs = [random_class(rng, ring, ("L", "M")) for _ in range(rng.randint(1, 6))]
    if sums:
        nodes = [ring.linear({"L": rng.randint(-2, 2), "M": rng.randint(-2, 2)})
                 for _ in points]
    else:
        nodes = [ring.sym(n) for n in points]
    symbols = {n: sp.Symbol(n) for n in names}
    t = sp.Symbol("t")
    g = sum((to_sympy(c, symbols) * t ** k for k, c in enumerate(coeffs)),
            sp.Integer(0))

    def quotient(xs):
        # g[x0, ..., xn] = (g[x0, ..., x(n-1)] - g[x1, ..., xn]) / (x0 - xn)
        if len(xs) == 1:
            return g.subs(t, xs[0])
        return sp.cancel((quotient(xs[:-1]) - quotient(xs[1:])) / (xs[0] - xs[-1]))

    # a polynomial in the x's, so equal nodes may replace them afterwards
    expected = quotient([symbols[n] for n in points]).subs(
        {symbols[n]: to_sympy(node, symbols) for n, node in zip(points, nodes)},
        simultaneous=True)
    result = divided_difference(coeffs, nodes)
    gens = [symbols[n] for n in names]
    assert sp.expand(truncated(expected, gens, ring.bound)
                     - to_sympy(result, symbols)) == 0
