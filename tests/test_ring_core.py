"""Properties of the ring core's fast paths: truncation-aware products,
exact ``int``/``Fraction`` coefficients, the canonical term order, the
synthetic division behind the divided-difference route, the exact
division by units behind ``expand_ratio`` and ``ProjClass`` division, the
reduction by the Grothendieck relation, the one notion of codimension,
the truncated degree, the terms and pieces each value computes once, and
the products of linear factors that build ``c(E)`` and ``Q = N/D`` on term
maps."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relchern import (BundleSpec, ChowError, ChowPoly, ChowRing, FermatFamily,
                      FormalBase, HypersurfaceSpec, NonUnitError, ProjClass,
                      Symbol, alpha_class, class_to_json, expand_ratio,
                      pushforward_closed_form, pushforward_series, q_rational,
                      to_latex)
from relchern.pushforward import _exact_linear_quotient, _linear_product
from relchern.ring import _BITS, _FIELD, _MAX_EXP, _by_degree, _mul_into
from tests.randgen import (random_bundle, random_form, random_poly,
                           random_rational, random_setup)

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
    zero = ProjClass.constant(bundle, 0)
    assert (u * zero).is_zero() and (zero * v).is_zero()


def test_formal_exponent_overflow_is_an_error():
    x = FORMAL.sym("x")
    with pytest.raises(ChowError):
        x ** (2 ** 31)
    assert FORMAL.sym("x").coefficient({"x": 2 ** 40}) == 0


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
    """Hypersurfaces at the edges of the linear-factor build: multiplicity 3
    or more, degree 0 with and without ``beta``, base dims 0, 1 and 60."""
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


@settings(max_examples=60, deadline=None)
@given(formal_polys(), polys())
def test_expand_ratio_keeps_formal_variables_in_the_numerator(a, b):
    den = FORMAL.one + FORMAL.convert(b - b.component(0))
    quotient = expand_ratio(a, den)
    assert quotient == reference_expand_ratio(a, den)
    assert_exact(quotient)


def test_division_by_a_non_unit_or_zero():
    rng = random.Random(7)
    bundle = random_bundle(rng, RING.with_bound(2))
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
    # counted from the symbol table: formal variables count 0
    return sum(e * ring.degree_of(n) for n, e in mono if not ring.is_formal(n))


@settings(max_examples=80, deadline=None)
@given(st.one_of(polys(), formal_polys()))
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
@given(st.one_of(polys(), formal_polys()))
def test_json_lists_every_term_under_its_codimension(v):
    listed = class_to_json(v)
    assert sum(len(piece["terms"]) for piece in listed) == len(v.terms())
    for piece in listed:
        for term in piece["terms"]:
            assert codimension(v.ring, term["monomial"].items()) == piece["codim"]


def test_formal_variables_have_codimension_zero():
    ring = ChowRing([Symbol("L")], 2, formal=("x",))
    x, L = ring.sym("x"), ring.sym("L")
    v = x ** 3 + L * x
    assert v.component(0) == x ** 3 and v.component(1) == L * x
    assert v.component(0) + v.component(1) + v.component(2) == v
    assert v.truncate(0) == x ** 3 and v.truncate(2) == v
    assert not v.is_homogeneous() and (x ** 3).is_homogeneous(0)
    one = {"numerator": "1", "denominator": "1"}
    assert class_to_json(v) == [
        {"codim": 0, "terms": [{"monomial": {"x": 3}, "coeff": one}]},
        {"codim": 1, "terms": [{"monomial": {"L": 1, "x": 1}, "coeff": one}]}]


# -- decoded terms and graded pieces, computed once per value ---------------


def views(v):
    """Every answer read from a value's decoded terms or graded pieces."""
    return (v.terms(), str(v), to_latex(v), class_to_json(v), v.components(),
            [v.component(k) for k in range(v.ring.bound + 1)])


@settings(max_examples=80, deadline=None)
@given(st.one_of(polys(), formal_polys()), st.booleans())
def test_views_repeat_and_hand_out_private_lists(v, piece_first):
    fresh = ChowPoly(v.ring, dict(v._terms))
    if piece_first:
        v.component(v.ring.bound)  # fills the pieces before components()
    first = views(v)
    for handed_out in (v.terms(), v.components()):
        handed_out.reverse()
        handed_out.append(None)
    assert views(v) == first == views(fresh)


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
@given(formal_polys())
@example(FORMAL.sym("x") ** 3 + FORMAL.sym("L") * FORMAL.sym("x"))
def test_json_matches_the_per_piece_construction(v):
    # formal variables count towards the total degree that orders terms but
    # not towards codimension, so the canonical order interleaves the pieces:
    # L*x (degree 2, codim 1) comes before x^3 (degree 3, codim 0)
    assert class_to_json(v) == per_piece_json(v)


# -- decoding packed keys --------------------------------------------------

WIDE = ChowRing([Symbol(f"c{i}", i) for i in range(1, 13)]
                + [Symbol("L"), Symbol("M")], 12, formal=("x", "y"))


def reference_decode(ring, key):
    # every field in order, zero or not
    mono = []
    degree = rank = 0
    top = _BITS * len(ring._shift)
    for name, shift in ring._shift.items():
        e = key >> shift & _FIELD
        if e:
            degree += e * ring._degrees[name]
            rank -= e << (top - shift)
            mono.append((name, e))
    return (degree, rank), tuple(mono)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(WIDE._shift)),
                       st.one_of(st.integers(1, 9), st.integers(1, _MAX_EXP)),
                       max_size=6),
       st.integers(0, _FIELD))
def test_decode_visits_the_nonzero_fields_as_a_full_walk_would(exponents, field0):
    key = field0 + sum(e << WIDE._shift[name] for name, e in exponents.items())
    assert WIDE._decode(key) == reference_decode(WIDE, key)


# -- products on term maps -------------------------------------------------

TALL = RING.with_bound(8)

# the limit, from the right operand's top degree and an offset: a left term
# of degree 0 then has room below, equal to or above that degree, or none
LIMITS = {"below": lambda top, k: top - 1 - k, "equal": lambda top, k: top,
          "above": lambda top, k: top + 1 + k, "negative": lambda top, k: -1 - k}


def naive_truncated_product(left, right, limit):
    out = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            if (k1 + k2) & _FIELD <= limit:
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
    top = max((key & _FIELD for key in right._terms), default=0)
    limit = LIMITS[case](top, offset)
    out = dict(start._terms)
    _mul_into(out, left._terms, _by_degree(right._terms), limit)
    expected = dict(start._terms)
    for key, c in naive_truncated_product(left._terms, right._terms,
                                          limit).items():
        expected[key] = expected.get(key, 0) + c
    assert out == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0, 1, -2, 3, Fraction(1, 2)]),
                          polys(TALL, ("L", "M"), 1), st.integers(1, 3)),
                max_size=4))
def test_linear_product_equals_the_product_of_its_factors(factors):
    # forms of degree 1 only: the constant goes in as c
    factors = [(c, form - form.constant_term(), mult)
               for c, form, mult in factors]
    expected = TALL.one
    for c, form, mult in factors:
        expected = expected * (c + form) ** mult
    product = _linear_product(TALL, [(c, form._terms, mult)
                                     for c, form, mult in factors])
    assert TALL._finish(product) == expected


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
    """Degrees 0 to 4 (at 1 the constant of each factor of ``S`` is 0),
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
