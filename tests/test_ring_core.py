"""Properties of the ring core's fast paths: truncation-aware products,
exact ``int``/``Fraction`` coefficients, the canonical term order, the
synthetic division behind the divided-difference route, the exact
division by units behind ``expand_ratio`` and ``ProjClass`` division, the
reduction by the Grothendieck relation, the one notion of codimension,
the truncated degree, the terms and pieces each value computes once, the
products of linear factors that build ``c(E)`` and ``Q = N/D`` on term
maps, the graded scaling that builds alpha's relative Chern class from
``c(E)`` and ``N`` from ``D``, and the kernels' fixed costs paid once:
values finished in place, constant operands in one pass, a unit's tail
split once per quotient and ``c(E)`` kept on its bundle."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relchern import (BundleSpec, ChowPoly, ChowRing, FermatFamily,
                      FormalBase, HypersurfaceSpec, NonUnitError, ProjClass,
                      Symbol, alpha_class, class_to_json, divided_difference,
                      expand_ratio, pushforward_closed_form, pushforward_series,
                      q_rational, to_latex)
from relchern.pushforward import _linear_product
from relchern.ring import (_MAX_BOUND, _by_degree, _divide_unit, _mul_into,
                           _negated_table, _negated_tail)
from tests.randgen import (DIVISORS, random_bundle, random_form, random_poly,
                           random_rational, random_setup)

RING = ChowRing([Symbol("L"), Symbol("M"), Symbol("c2", 2)], 3)
XY = ChowRing(RING.symbols + (Symbol("x"), Symbol("y")), 5)


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


def xy_polys():
    return polys(XY, ("L", "c2", "x", "y"), 5)


def assert_exact(poly):
    for c in poly._terms.values():
        assert type(c) in (int, Fraction), c
        assert c != 0
        assert not (type(c) is Fraction and c.denominator == 1), c


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_truncated_product_equals_full_product_then_truncation(a, b):
    full = ChowRing(RING.symbols, 2 * RING.bound)
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
@given(xy_polys())
def test_terms_follow_the_expanded_symbol_order(p):
    # the reference order: total degree, then the expanded product of the
    # monomial's symbols, each compared by (degree, name)
    def expanded(mono):
        degrees = XY._degrees
        return (sum(e * degrees[n] for n, e in mono),
                tuple((degrees[n], n) for n, e in mono for _ in range(e)))

    monos = [mono for mono, _ in p.terms()]
    assert monos == sorted(monos, key=expanded)
    for mono in monos:
        assert list(mono) == sorted(mono, key=lambda ne: (XY._degrees[ne[0]], ne[0]))


def horner(coeffs, x):
    value = RING.zero
    for c in reversed(coeffs):
        value = value * x + c
    return value


@settings(max_examples=80, deadline=None)
@given(st.lists(polys(), max_size=6), polys(), polys())
def test_divided_difference_at_repeated_points_is_confluent(coeffs, x, y):
    # f[x, x] = f'(x) and f[x, x, x] = f''(x)/2 for f(t) = sum coeffs[k] t^k,
    # at any classes x and y
    derivative = [k * c for k, c in enumerate(coeffs)][1:]
    half_second = [k * (k - 1) // 2 * c for k, c in enumerate(coeffs)][2:]
    first = divided_difference(coeffs, [x, x])
    second = divided_difference(coeffs, [x] * 3)
    assert first == horner(derivative, x)
    assert second == horner(half_second, x)
    assert divided_difference(coeffs, [x, y, x]) == \
        divided_difference(coeffs, [x, x, y])
    assert_exact(first)
    assert_exact(second)


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
    zero = ProjClass.constant(bundle, 0)
    assert (u * zero).is_zero() and (zero * v).is_zero()


# -- exact division by units -----------------------------------------------


def reference_geometric(one, tail, steps):
    # the truncated geometric series 1 + t + t^2 + ... that division by a
    # unit replaced: t = 1 - unit is nilpotent in the truncated ring
    total = power = one
    for _ in range(steps):
        power = power * tail
        if power.is_zero():
            break
        total = total + power
    return total


def reference_inverse(u):
    one = ProjClass.constant(u.bundle, 1)
    return reference_geometric(one, one - u, u.bundle.ambient_dim)


def reference_expand_ratio(num, den):
    ring = num.ring
    return num * reference_geometric(ring.one, ring.one - den, ring.bound)


def random_unit(rng, bundle):
    """``1 + (positive-degree base class) + sum u_k H^k`` with ``H^1`` to
    ``H^4`` terms and, half of the time, non-integral coefficients."""
    scale = (random_rational(rng) or 1) if rng.random() < 0.5 else 1
    coeffs = [random_poly(rng, bundle.ring, 3, 4) * scale
              for _ in range(rng.randint(2, 5))]
    coeffs[0] = 1 + coeffs[0] - coeffs[0].constant_term()
    return ProjClass(bundle, coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_projclass_division_by_a_unit_matches_the_geometric_series(seed):
    rng = random.Random(seed)
    _, bundle, a = random_setup(rng)
    if rng.random() < 0.5:
        a = a * random_rational(rng)
    u = random_unit(rng, bundle)
    inverse = reference_inverse(u)
    quotient = a / u
    assert quotient == a * inverse
    assert quotient * u == a
    assert u.inverse() == inverse
    for value in (quotient, u.inverse()):
        for c in value.coeffs:
            assert_exact(c)


def reference_quotient(bundle, num, den):
    """``ProjClass`` division by the loop the one-pass division replaced:
    each ``z_n`` copies ``a_n``, adds ``-u_k z_(n-k)`` through ``_mul_into``
    and is divided by ``u_0``, here by the geometric series, up to the
    codimension ``H**n`` leaves room for."""
    ring, dmax = bundle.ring, bundle.ambient_dim
    negated = _negated_table(den)
    quotient = []
    for n in range(dmax + 1):
        limit = min(ring.bound, dmax - n)
        z = dict(num[n]) if n < len(num) else {}
        for k, u in negated:
            if k > n:
                break
            _mul_into(z, quotient[n - k], u, limit)
        z = reference_expand_ratio(ring._finish(z), den[0]).truncate(limit)
        quotient.append(z._terms)
    return ProjClass(bundle, [ChowPoly(ring, z) for z in quotient])


@st.composite
def quotient_inputs(draw):
    """A bundle over a base of dim 0 to 6, numerators up to two coefficients
    wider than the projectivization, and ``(u_0, ...)`` with ``u_0`` of
    constant term 1 and a tail over several degrees, then no ``u_1``, a zero
    one, a nonzero integer, a ``Fraction``, or three classes; half of the
    time the classes have non-integral coefficients."""
    bound = draw(st.integers(0, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ring = FormalBase(bound, DIVISORS).ring
    bundle = (random_bundle(rng, ring) if bound
              else BundleSpec([(ring.zero, rng.randint(2, 5))]))
    scale = draw(st.sampled_from([1, Fraction(-3, 2)]))
    width = draw(st.integers(0, bundle.ambient_dim + 3))
    num = [(random_poly(rng, ring, 4, 4) * scale)._terms for _ in range(width)]
    tail = random_poly(rng, ring, 4, 5) * scale
    u1 = draw(st.sampled_from(["none", "zero", "int", "fraction", "classes"]))
    step = {"none": (), "zero": (ring.zero,),
            "int": (ring.const(draw(st.integers(1, 5)) * rng.choice((1, -1))),),
            "fraction": (ring.const(Fraction(rng.randint(-9, 9), 4)),),
            "classes": tuple(random_poly(rng, ring, 3, 3) * scale
                             for _ in range(3))}[u1]
    return bundle, num, (1 + tail - tail.constant_term(), *step)


@settings(max_examples=150, deadline=None)
@given(quotient_inputs())
def test_one_pass_projclass_division_matches_the_coefficient_loop(case):
    bundle, num, den = case
    ring = bundle.ring
    quotient = (ProjClass(bundle, [ChowPoly(ring, a) for a in num])
                / ProjClass(bundle, den))
    assert quotient == reference_quotient(bundle, num, den)
    for c in quotient.coeffs:
        assert_exact(c)


def generic_alpha(hyp):
    """``prod (1 + H + M_j)^m_j * y / (1 + y)`` in generic ``ProjClass``
    arithmetic, with the inverse from the geometric series."""
    bundle = hyp.bundle
    one = ProjClass.constant(bundle, 1)
    H = ProjClass.hyperplane(bundle)
    chern = one
    for form, mult in bundle.roots:
        chern = chern * (one + H + ProjClass.from_base(bundle, form)) ** mult
    y = hyp.divisor_class()
    return chern * y * reference_inverse(1 + y)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_alpha_class_matches_the_geometric_series(seed):
    rng = random.Random(seed)
    _, bundle, _ = random_setup(rng)
    hyp = HypersurfaceSpec(rng.randint(0, 4), random_form(rng, bundle.ring, False),
                           bundle)
    assert alpha_class(hyp) == generic_alpha(hyp)


def alpha_cases():
    """Hypersurfaces at the edges of the build from ``c(E)``: multiplicity 3
    or more, degree 0 with and without ``beta``, base dims 0 (where ``H^r``
    is above the ambient dimension), 1 and 60."""
    for dim in (0, 1, 4, 60):
        ring = FormalBase(dim, divisors=("L", "M")).ring
        L, M, zero = ring.sym("L"), ring.sym("M"), ring.zero
        bundles = [BundleSpec([(zero, 1), (2 * L, 1), (3 * L, 1)]),
                   BundleSpec([(zero, 1), (L, 3)]),
                   BundleSpec([(zero, 3), (L - M, 1), (M, 2)])]
        for bundle in bundles if dim < 60 else bundles[:2]:
            for degree, beta in ((3, 6 * L), (2, L - 2 * M), (1, zero),
                                 (0, 2 * L - M), (0, zero)):
                yield dim, HypersurfaceSpec(degree, beta, bundle)


def test_alpha_class_from_linear_factors_matches_the_generic_product():
    for dim, hyp in alpha_cases():
        alpha = alpha_class(hyp)
        assert alpha == generic_alpha(hyp), (dim, hyp)
        for c in alpha.coeffs:
            assert_exact(c)
        if hyp.degree == 0 and hyp.beta.is_zero():
            assert alpha.is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_reduction_is_a_ring_map_onto_width_rank(seed):
    # reduction by the Grothendieck relation keeps the pushforward and
    # respects sums and products; v has non-integral coefficients
    rng = random.Random(seed)
    _, bundle, u = random_setup(rng)
    v = random_unit(rng, bundle) * random_rational(rng)
    for value in (u, v, u * v, u + v):
        reduced = value.reduce()
        series = pushforward_series(value)
        assert len(reduced.coeffs) <= bundle.rank
        assert reduced.reduce() == reduced
        assert reduced.coeff(bundle.fiber_dim) == series
        assert pushforward_closed_form(reduced) == series
        for c in reduced.coeffs:
            assert_exact(c)
    assert (u + v).reduce() == u.reduce() + v.reduce()
    assert (u * v).reduce() == (u.reduce() * v.reduce()).reduce()


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.fractions(max_denominator=6))
def test_expand_ratio_matches_the_geometric_series(a, b, q):
    den = RING.one + (b - b.component(0)) * q
    quotient = expand_ratio(a, den)
    assert quotient == reference_expand_ratio(a, den)
    assert quotient * den == a
    assert_exact(quotient)


def test_division_by_a_non_unit_or_zero():
    rng = random.Random(7)
    bundle = random_bundle(rng, ChowRing(RING.symbols, 2))
    H = ProjClass.hyperplane(bundle)
    L = ProjClass.from_base(bundle, bundle.ring.sym("L"))
    with pytest.raises(NonUnitError):
        H / (2 + H)
    with pytest.raises(NonUnitError):
        H / (L + H)
    with pytest.raises(ZeroDivisionError):
        H / (H - H)
    assert (H / 2) * 2 == H
    assert ProjClass.constant(bundle, 2).inverse() == Fraction(1, 2)


# -- codimension ----------------------------------------------------------


def codimension(ring, mono):
    # counted from the symbol table
    return sum(e * ring.degree_of(n) for n, e in mono)


@settings(max_examples=80, deadline=None)
@given(st.one_of(polys(), xy_polys()))
def test_components_split_the_value_by_codimension(v):
    ring = v.ring
    pieces = v.components()
    assert len(pieces) == ring.bound + 1
    assert sum(pieces, ring.zero) == v
    for k, piece in enumerate(pieces):
        assert piece == v.component(k)
        assert piece.is_homogeneous(k)
        assert all(codimension(ring, mono) == k for mono, _ in piece.terms())


@settings(max_examples=80, deadline=None)
@given(st.one_of(polys(), xy_polys()))
def test_json_lists_every_term_under_its_codimension(v):
    listed = class_to_json(v)
    assert sum(len(piece["terms"]) for piece in listed) == len(v.terms())
    for piece in listed:
        for term in piece["terms"]:
            assert codimension(v.ring, term["monomial"].items()) == piece["codim"]


# -- decoded terms and graded pieces, computed once per value ---------------


def views(v):
    """Every answer read from a value's decoded terms or graded pieces."""
    return (v.terms(), str(v), to_latex(v), class_to_json(v), v.components(),
            [v.component(k) for k in range(v.ring.bound + 1)])


@settings(max_examples=80, deadline=None)
@given(st.one_of(polys(), xy_polys()), st.booleans())
def test_views_repeat_and_hand_out_private_lists(v, piece_first):
    fresh = ChowPoly(v.ring, dict(v._terms))
    if piece_first:
        v.component(v.ring.bound)  # fills the pieces before components()
    first = views(v)
    for handed_out in (v.terms(), v.components()):
        handed_out.reverse()
        handed_out.append(None)
    assert views(v) == first == views(fresh)


def test_one_piece_at_a_large_bound_is_read_in_proportion_to_its_terms():
    # component() groups the terms by codimension once and keeps the groups,
    # so it allocates nothing per empty codimension, whatever the bound
    ring = ChowRing([Symbol("L"), Symbol("c2", 2)], 10 ** 6)
    L, c2 = ring.sym("L"), ring.sym("c2")
    top = L ** (10 ** 6 - 1)
    v = 2 * L + 3 * c2 - 5 * L ** 2 + 7 * top
    tracemalloc.start()
    try:
        pieces = [v.component(k) for k in (0, 1, 2, 10 ** 6 - 1, 10 ** 6)]
        again = v.component(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pieces == [0, 2 * L, 3 * c2 - 5 * L ** 2, 7 * top, 0]
    assert again is pieces[2]
    assert peak < 64_000
    # components() still lists every codimension, empty ones as zero
    listed = v.components()
    assert len(listed) == 10 ** 6 + 1
    assert {k: piece for k, piece in enumerate(listed) if piece} == {
        1: pieces[1], 2: pieces[2], 10 ** 6 - 1: pieces[3]}
    assert sum(pieces, ring.zero) == v


def rational_json(q):
    return {"numerator": str(q.numerator), "denominator": str(q.denominator)}


def per_piece_json(v):
    # the construction class_to_json replaced: the canonical terms of each
    # nonzero graded piece, sorted piece by piece
    return [{"codim": k,
             "terms": [{"monomial": dict(mono), "coeff": rational_json(c)}
                       for mono, c in piece.terms()]}
            for k, piece in enumerate(v.components()) if piece]


@settings(max_examples=80, deadline=None)
@given(xy_polys())
@example(XY.sym("x") ** 3 + XY.sym("L") * XY.sym("x") + XY.sym("c2") + 1)
def test_json_matches_the_per_piece_construction(v):
    assert class_to_json(v) == per_piece_json(v)


# -- decoding packed keys --------------------------------------------------

# at the largest bound every field is 32 bits wide
WIDE = ChowRing([Symbol(f"c{i}", i) for i in range(1, 13)]
                + [Symbol("L"), Symbol("M")], _MAX_BOUND)


def reference_decode(ring, key):
    # every field in order, zero or not
    mono = []
    degree = rank = 0
    top = ring._bits * len(ring._shift)
    for name, shift in ring._shift.items():
        e = key >> shift & ring._mask
        if e:
            degree += e * ring._degrees[name]
            rank -= e << (top - shift)
            mono.append((name, e))
    return (degree, rank), tuple(mono)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(WIDE._shift)),
                       st.one_of(st.integers(1, 9), st.integers(1, _MAX_BOUND)),
                       max_size=6),
       st.integers(0, WIDE._mask))
def test_decode_visits_the_nonzero_fields_as_a_full_walk_would(exponents, field0):
    key = field0 + sum(e << WIDE._shift[name] for name, e in exponents.items())
    ((order, codim, mono, _),) = WIDE._flat_terms({key: 0})
    (degree, rank), expected = reference_decode(WIDE, key)
    assert order == (degree << WIDE._bits * len(WIDE._shift)) + rank
    assert codim == field0
    assert mono == expected


# -- products on term maps -------------------------------------------------

TALL = ChowRing(RING.symbols, 8)

# the limit, from the right operand's top degree and an offset: a left term
# of degree 0 then has room below, equal to or above that degree, or none
LIMITS = {"below": lambda top, k: top - 1 - k, "equal": lambda top, k: top,
          "above": lambda top, k: top + 1 + k, "negative": lambda top, k: -1 - k}


def naive_truncated_product(left, right, limit):
    out = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            if (k1 + k2) & TALL._mask <= limit:
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


@settings(max_examples=200, deadline=None)
@given(polys(TALL), polys(TALL), polys(TALL), st.sampled_from(sorted(LIMITS)),
       st.integers(0, 3))
@example(TALL.one, 2 + TALL.sym("L") + TALL.sym("c2"), TALL.zero, "above", 0)
@example(TALL.zero, 2 + TALL.sym("L"), 1 + TALL.sym("M") * TALL.sym("c2"),
         "below", 0)
@example(TALL.sym("M"), 2 + TALL.sym("L"), 1 + TALL.sym("M"), "equal", 0)
@example(TALL.zero, 2 + TALL.sym("L"), 1 + TALL.sym("M"), "above", 2)
@example(TALL.zero, 2 + TALL.sym("L"), 1 + TALL.sym("M"), "negative", 0)
def test_mul_into_equals_the_naive_truncated_product(start, left, right, case,
                                                     offset):
    top = max((key & TALL._mask for key in right._terms), default=0)
    limit = LIMITS[case](top, offset)
    out = dict(start._terms)
    _mul_into(out, left._terms, _by_degree(right._terms, TALL._mask), limit)
    expected = dict(start._terms)
    for key, c in naive_truncated_product(left._terms, right._terms,
                                          limit).items():
        expected[key] = expected.get(key, 0) + c
    assert out == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(polys(TALL, ("L", "M"), 1), st.integers(1, 3)),
                max_size=4))
def test_linear_product_equals_the_product_of_its_factors(factors):
    # forms of degree 1 only: every factor's constant is 1
    factors = [(form - form.constant_term(), mult) for form, mult in factors]
    expected = TALL.one
    for form, mult in factors:
        expected = expected * (1 + form) ** mult
    product = _linear_product(TALL, [(form._terms, mult)
                                     for form, mult in factors])
    assert TALL._finish(product) == expected


def test_graded_scale_examples():
    L, M, c2 = RING.sym("L"), RING.sym("M"), RING.sym("c2")
    p = 2 + 3 * L - M + L * M + c2 + L ** 3
    # weights shorter than the top degree drop the higher pieces
    assert p._graded_scale([5, 7]) == 10 + 21 * L - 7 * M
    assert p._graded_scale([]) == 0
    # zero weights leave no zero terms
    scaled = p._graded_scale([0, 1, 0, 2])
    assert scaled == 3 * L - M + 2 * L ** 3
    assert_exact(scaled)
    # integral Fraction results become int
    q = Fraction(1, 2) + Fraction(2, 3) * L + Fraction(1, 4) * c2
    scaled = q._graded_scale([2, Fraction(3, 2), Fraction(8, 3), 1])
    assert scaled == 1 + L + Fraction(2, 3) * c2
    assert_exact(scaled)  # no Fraction of denominator 1 is left


@settings(max_examples=100, deadline=None)
@given(xy_polys(), st.lists(st.sampled_from([0, 1, -3, Fraction(1, 2),
                                                 Fraction(4, 2)]), max_size=6))
def test_graded_scale_weights_each_piece(p, weights):
    expected = sum((w * p.component(k)
                    for k, w in enumerate(weights[:XY.bound + 1])), XY.zero)
    scaled = p._graded_scale(weights)
    assert scaled == expected
    assert_exact(scaled)


# The formulas that built c(E), Q = N/D and the series push from ChowPoly
# operators, kept as the oracle for the term-map versions.

def operator_total_chern(bundle):
    one = bundle.ring.one
    out = one
    for form, mult in bundle.roots:
        out = out * (one + form) ** mult
    return out


def operator_q_rational(hyp):
    one, beta, d = hyp.bundle.ring.one, hyp.beta, hyp.degree
    rank = hyp.bundle.rank
    if d == 0:
        return rank * beta, one + beta
    den = shifted = one
    for form, mult in hyp.bundle.roots:
        den = den * (one + beta - d * form) ** mult
        shifted = shifted * (one + beta - d - d * form) ** mult
    return ((d * rank - 1) * den + shifted) / d, den


def operator_pushforward_series(cls):
    bundle = cls.bundle
    inverse = expand_ratio(bundle.ring.one, operator_total_chern(bundle))
    return sum((a * piece for a, piece in zip(cls.coeffs[bundle.fiber_dim:],
                                              inverse.components())),
               bundle.ring.zero)


def linear_factor_cases():
    """Degrees 0 to 4 (at 1 every ``(1 - d)^(r-k)`` below the top piece is 0),
    multiplicities above 1, forms ``beta - d*M_j`` that vanish, a
    ``Fraction`` beta, the Weierstrass job and the Fermat grid."""
    for dim in (0, 1, 4):
        ring = FormalBase(dim, divisors=("L", "M")).ring
        L, M, zero = ring.sym("L"), ring.sym("M"), ring.zero
        bundles = [BundleSpec([(zero, 1), (2 * L, 1), (3 * L, 1)]),
                   BundleSpec([(zero, 2), (L, 3)]),
                   BundleSpec([(zero, 3), (L - M, 1), (M, 2)])]
        for bundle in bundles:
            for beta in (6 * L, L - 2 * M, zero, 2 * L, Fraction(1, 2) * L - M):
                for degree in range(5):
                    yield HypersurfaceSpec(degree, beta, bundle)
    for dim in (3, 7, 60):
        ring = FormalBase(dim).ring
        L = ring.sym("L")
        yield HypersurfaceSpec(3, 6 * L, BundleSpec([ring.zero, 2 * L, 3 * L]))
    for n in (1, 2, 3, 4):
        for d in (2, 3, 4):
            yield FermatFamily(n, d).hypersurface()


def integral(value):
    return all(type(c) is int for c in value._terms.values())


def test_term_map_products_match_the_operator_formulas():
    for hyp in linear_factor_cases():
        bundle = hyp.bundle
        chern = bundle.total_chern()
        assert chern == operator_total_chern(bundle), bundle
        assert integral(chern)
        num, den = q_rational(hyp)
        assert (num, den) == operator_q_rational(hyp), hyp
        for value in (num, den):
            assert_exact(value)
            if integral(hyp.beta):
                assert integral(value), hyp
        alpha = alpha_class(hyp)
        assert pushforward_series(alpha) == operator_pushforward_series(alpha)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_term_map_routes_match_the_operator_formulas_on_random_data(seed):
    rng = random.Random(seed)
    _, bundle, cls = random_setup(rng)
    scale = random_rational(rng) or 1
    beta = random_form(rng, bundle.ring, False) * (scale if rng.random() < 0.5 else 1)
    hyp = HypersurfaceSpec(rng.randint(0, 4), beta, bundle)
    assert q_rational(hyp) == operator_q_rational(hyp)
    cls = cls * scale
    pushed = pushforward_series(cls)
    assert pushed == operator_pushforward_series(cls)
    assert_exact(pushed)


# -- fixed costs paid once ---------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(xy_polys(), xy_polys(),
       st.sampled_from([1, -2, Fraction(3, 2), Fraction(4, 2)]),
       st.sampled_from([(), (("x", 1),), (("x", 2), ("y", 1))]),
       st.integers(-1, 4))
@example(XY.zero, XY.sym("L") + XY.sym("x"), 2, (("x", 1),), 1)
def test_mul_into_by_one_degree_0_term_equals_the_naive_product(start, left, c,
                                                               mono, limit):
    # the constant, the one term of degree 0, takes the one-pass branch;
    # a one-term operand of positive degree takes the pair loop
    right = XY._from_monomials({mono: c})._terms
    out = dict(start._terms)
    _mul_into(out, left._terms, _by_degree(right, XY._mask), limit)
    expected = dict(start._terms)
    for k1, c1 in left._terms.items():
        for k2, c2 in right.items():
            if (k1 + k2) & XY._mask <= limit:
                expected[k1 + k2] = expected.get(k1 + k2, 0) + c1 * c2
    assert out == expected


def rebuilt_finish(ring, terms):
    # the term map _finish built before it finished in place
    out = {}
    for key, c in terms.items():
        if c:
            out[key] = (c.numerator if c.__class__ is Fraction
                        and c.denominator == 1 else c)
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([RING, XY]),
       st.lists(st.tuples(st.integers(0, 2 ** 70),
                          st.one_of(st.sampled_from([0, Fraction(0), Fraction(6, 3),
                                                     Fraction(-4, 2), Fraction(1, 2)]),
                                    st.integers(-3, 3),
                                    st.fractions(max_denominator=4))),
                max_size=12))
def test_finish_in_place_equals_the_rebuild(ring, pairs):
    terms = dict(pairs)
    expected = rebuilt_finish(ring, dict(terms))
    value = ring._finish(terms)
    assert value._terms is terms
    # the same survivors, in the same order, with the same types
    assert [(key, c, type(c)) for key, c in value._terms.items()] == \
        [(key, c, type(c)) for key, c in expected.items()]
    assert_exact(value)


@settings(max_examples=200, deadline=None)
@given(polys(TALL), polys(TALL), polys(TALL))
@example(TALL.sym("L") + 1, TALL.sym("L") * 2 + TALL.sym("M") ** 3,
         TALL.sym("c2") ** 4)
def test_divide_unit_by_a_tail_split_at_the_bound_serves_every_limit(num, a, b):
    tail = {key: c for key, c in (a + b)._terms.items() if key}
    whole = _negated_tail(tail, TALL.bound, TALL._mask)
    for limit in range(TALL.bound + 1):
        own = _negated_tail(tail, limit, TALL._mask)
        [quotient] = _divide_unit(whole, TALL._mask, [num._terms], [limit])
        [reference] = _divide_unit(own, TALL._mask, [num._terms], [limit])
        assert list(quotient.items()) == list(reference.items())


@pytest.mark.parametrize("seed", range(20))
def test_total_chern_is_kept_and_equals_the_product_from_scratch(seed):
    _, bundle, _ = random_setup(random.Random(seed))
    ring = bundle.ring
    chern = bundle.total_chern()
    assert bundle.total_chern() is chern
    scratch = _linear_product(ring, [(form._terms, mult)
                                     for form, mult in bundle.roots])
    assert chern == ring._finish(scratch) == operator_total_chern(bundle)
