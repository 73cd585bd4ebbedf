"""``expand_ratio`` against sympy's power series, on small random inputs.

Sympy is a test-only oracle: the module is skipped where it is not
installed, and the package never imports it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relchern import ChowRing, Symbol, expand_ratio
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
