"""Hypersurface fibrations: Q classes, Euler characteristics, strata."""

import copy
import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relchern import (BundleSpec, ChowError, ChowPoly, ChowRing, ContextError,
                      FermatFamily, FormalBase, HypersurfaceSpec, ModeError, ProjClass,
                      ProjectiveSpaceBase, StratumData, Symbol,
                      SymbolError, UnsupportedDegreeError,
                      alpha_class, euler_characteristic, expand_ratio,
                      normalize_twist,
                      pushforward_closed_form, pushforward_series, q_class,
                      q_class_display, q_rational, relative_chern_class,
                      smooth_hypersurface_euler, specialize, svw_components)
from relchern import fibration, pushforward
from relchern.ring import _mul_into, _negated_table
from tests import golden_cases
from tests.randgen import (DIVISORS, in_powers_of, random_base, random_bundle,
                           random_form, random_proj_class)


def weierstrass(base):
    """Cubic in P(O + L^2 + L^3) with hypersurface class 3H + 6L."""
    ring = base.ring
    L = ring.sym("L")
    bundle = BundleSpec([ring.zero, 2 * L, 3 * L])
    return HypersurfaceSpec(3, 6 * L, bundle)


def weierstrass_over_projective(dim, multiple):
    base = ProjectiveSpaceBase(dim, multiple=multiple)
    h = base.hyperplane()
    ell = multiple * h
    bundle = BundleSpec([base.ring.zero, 2 * ell, 3 * ell])
    return HypersurfaceSpec(3, 6 * ell, bundle), base


# -- hypersurface construction --------------------------------------------


def test_hypersurface_validation():
    base = FormalBase(3)
    ring = base.ring
    L = ring.sym("L")
    bundle = BundleSpec([ring.zero, 2 * L])
    with pytest.raises(ValueError):
        HypersurfaceSpec(-1, L, bundle)
    with pytest.raises(ValueError):
        HypersurfaceSpec(True, L, bundle)  # a bool is not a degree
    with pytest.raises(ValueError):
        HypersurfaceSpec(2, L ** 2, bundle)  # beta must be a divisor
    with pytest.raises(TypeError):
        HypersurfaceSpec(2, L, [ring.zero, 2 * L])  # a root list, not a bundle
    hyp = HypersurfaceSpec(2, L, bundle)
    expected = 2 * ProjClass.hyperplane(bundle) + ProjClass.from_base(bundle, L)
    assert hyp.divisor_class() == expected


def test_from_roots_twists_beta():
    base = FormalBase(3)
    L = base.ring.sym("L")
    # same geometry presented with an untwisted root list
    hyp = HypersurfaceSpec.from_roots(3, 9 * L, [L, 3 * L, 4 * L])
    assert hyp.beta == 9 * L - 3 * L  # degree * first root is absorbed
    assert hyp.bundle.roots[1:] == ((2 * L, 1), (3 * L, 1))
    reference = weierstrass(base)
    assert q_class(hyp) == q_class(reference)
    # bare roots or (root, multiplicity) pairs, an integer beta, and a beta
    # from an equal ring built separately
    ring = base.ring
    other = FormalBase(3).ring
    assert other == ring and other is not ring
    for beta in (9 * L, 9 * other.sym("L")):
        assert HypersurfaceSpec.from_roots(3, beta, [L, 3 * L, 4 * L]) == reference
        assert HypersurfaceSpec.from_roots(
            3, beta, [(L, 1), (3 * L, 1), (4 * L, 1)]) == reference
    zero_beta = HypersurfaceSpec.from_roots(2, 0, [L, 3 * L])
    assert zero_beta == HypersurfaceSpec(2, -2 * L, BundleSpec([ring.zero, 2 * L]))
    assert zero_beta.beta.ring is ring


def test_from_roots_reads_its_bundle_and_beta_from_normalize_twist():
    # d*H + beta, with H read as H - M_0 on the twisted bundle, has the
    # coefficients (beta - d*M_0, d): from_roots must agree with it
    rng = random.Random(29)
    for _ in range(30):
        ring = random_base(rng).ring
        first = random_form(rng, ring)
        pool = [first, random_form(rng, ring, nonzero=False),
                random_form(rng, ring, nonzero=False)]
        roots = [(first, rng.randint(1, 2))]
        roots += [(rng.choice(pool), rng.randint(1, 2))
                  for _ in range(rng.randint(1, 3))]
        degree = rng.randint(0, 4)
        beta = random_form(rng, ring, nonzero=False)
        hyp = HypersurfaceSpec.from_roots(degree, beta, roots)
        bundle, h = normalize_twist(roots)
        cls = in_powers_of([beta, degree], h)
        assert hyp.bundle == bundle
        assert hyp.beta == cls.coeff(0)
        assert cls.coeff(1) == degree
        assert hyp.divisor_class() == cls


def test_from_roots_checks_the_roots_once_and_compares_no_classes(monkeypatch):
    # the roots are checked once, repeats merge by term map with no
    # ChowPoly ==, and a zero first root is subtracted from no root
    ring = FormalBase(4, ("L", "M")).ring
    L, M = ring.sym("L"), ring.sym("M")
    twisted = [L, (M, 2), L + M, (M + L, 1), L, (3 * L, 3)]
    untwisted = [ring.zero, (M, 2), L + M, (M + L, 1), (ring.zero, 1), (3 * L, 3)]
    cases = [(twisted, len(twisted), HypersurfaceSpec(3, -L + M, BundleSpec(
                 [ring.zero, (M - L, 2), (M, 2), ring.zero, (2 * L, 3)]))),
             (untwisted, 0, HypersurfaceSpec(3, 2 * L + M, BundleSpec(untwisted)))]
    calls = {}

    def counting(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(pushforward, "_root_entries",
                        counting("_root_entries", pushforward._root_entries))
    for name in ("__eq__", "__sub__"):
        monkeypatch.setattr(ChowPoly, name, counting(name, getattr(ChowPoly, name)))
    for roots, subtractions, expected in cases:
        calls.update(_root_entries=0, __eq__=0, __sub__=0)
        hyp = HypersurfaceSpec.from_roots(3, 2 * L + M, roots)
        assert calls == {"_root_entries": 1, "__eq__": 0, "__sub__": subtractions}
        assert hyp == expected


@pytest.mark.parametrize("degree", [1.5, "a", None, True, -1])
def test_from_roots_validates_the_degree_first(degree):
    L = FormalBase(3).ring.sym("L")
    with pytest.raises(ValueError,
                       match="hypersurface degree must be a nonnegative integer"):
        HypersurfaceSpec.from_roots(degree, 9 * L, [L, 3 * L])


def test_the_q_routes_run_no_generic_projclass_product(monkeypatch):
    base = FormalBase(4)
    L = base.ring.sym("L")
    roots = [L, 3 * L, (4 * L, 2)]
    expected = HypersurfaceSpec.from_roots(3, 9 * L, roots)
    alpha = alpha_class(expected)
    q, q_reduced = q_class(expected), q_class_display(expected)

    def refuse(*args):
        raise AssertionError("a generic ProjClass product ran")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(ProjClass, name, refuse)
    hyp = HypersurfaceSpec.from_roots(3, 9 * L, roots)
    assert hyp == expected
    assert alpha_class(hyp) == alpha
    assert q_class(hyp) == q == q_reduced
    assert q_class_display(hyp) == q_reduced


def test_alpha_class_and_q_rational_run_one_product_pass(monkeypatch):
    # alpha is C - C/(1 + y) from the cached c(E): one unit division and no
    # ProjClass product by y, nor a ProjClass quotient; q_rational builds D
    # alone and scales its graded pieces into N: one product pass, none per root
    base = FormalBase(4, ("L", "M"))
    L, M = base.ring.sym("L"), base.ring.sym("M")
    hyp = HypersurfaceSpec.from_roots(3, 2 * L + M,
                                      [L, (M, 2), L + M, (3 * L, 3)])
    calls = {"__mul__": 0, "__truediv__": 0, "_unit_divider": 0,
             "divide": 0, "_linear_product": 0}

    def counting(name, inner):
        def wrapper(*args):
            calls[name] += 1
            result = inner(*args)
            return counting("divide", result) if name == "_unit_divider" else result
        return wrapper

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(ProjClass, name, counting(
            name.replace("__r", "__"), getattr(ProjClass, name)))
    for name in ("_unit_divider", "_linear_product"):
        monkeypatch.setattr(fibration, name,
                            counting(name, getattr(fibration, name)))
    alpha_class(hyp)
    assert calls == {"__mul__": 0, "__truediv__": 0, "_unit_divider": 1,
                     "divide": 1, "_linear_product": 0}
    q_rational(hyp)
    assert calls == {"__mul__": 0, "__truediv__": 0, "_unit_divider": 1,
                     "divide": 1, "_linear_product": 1}


# -- alpha ------------------------------------------------------------------


def test_alpha_weierstrass_frozen_expansion():
    base = FormalBase(3)
    L = base.ring.sym("L")
    alpha = alpha_class(weierstrass(base))
    assert alpha.coeff(0) == 6 * L - 6 * L ** 2 + 72 * L ** 3
    assert alpha.coeff(1) == 3 - 3 * L + 114 * L ** 2 - 864 * L ** 3
    assert alpha.coeff(2) == 57 * L - 636 * L ** 2 + 6408 * L ** 3
    assert alpha.coeff(2).component(0) == 0
    assert alpha.coeff(3) == 9 - 204 * L + 3132 * L ** 2
    assert alpha.coeff(4) == -24 + 756 * L
    assert alpha.coeff(5) == base.ring.const(72)
    assert alpha.coeff(6) == 0


def test_alpha_at_zero_structural_identity():
    # substituting H = 0 must leave prod(1 + L_i) * beta / (1 + beta)
    rng = random.Random(3)
    base = FormalBase(3, divisors=("L", "M"))
    ring = base.ring
    for _ in range(20):
        L = ring.linear({"L": rng.randint(-2, 2), "M": rng.randint(-2, 2)})
        bundle = BundleSpec([ring.zero, (L, rng.randint(1, 2))])
        d = rng.randint(0, 4)
        beta = rng.randint(-3, 3) * ring.sym("L")
        hyp = HypersurfaceSpec(d, beta, bundle)
        if beta.is_zero():
            expected = ring.zero
        else:
            expected = bundle.total_chern() * expand_ratio(beta, 1 + beta)
        assert alpha_class(hyp).coeff(0) == expected


def test_alpha_empty_hypersurface():
    base = FormalBase(2)
    L = base.ring.sym("L")
    bundle = BundleSpec([base.ring.zero, L])
    hyp = HypersurfaceSpec(0, base.ring.zero, bundle)
    assert alpha_class(hyp).is_zero()
    assert q_class(hyp) == 0


def test_alpha_class_is_built_once_and_no_route_changes_it():
    cases = [hyp for _, _, hyp in golden_cases.anchors()]
    cases += [weierstrass(FormalBase(dim)) for dim in (0, 12, 60)]
    for hyp in cases:
        alpha = alpha_class(hyp)
        assert alpha_class(hyp) is alpha
        before = [dict(c._terms) for c in alpha.coeffs]
        q = q_class(hyp)
        assert q_class_display(hyp) == q
        assert alpha.reduce().coeff(hyp.bundle.fiber_dim) == q
        assert pushforward_closed_form(alpha) == q
        assert alpha_class(hyp) is alpha
        assert [c._terms for c in alpha.coeffs] == before, hyp


def test_hypersurface_spec_fields_are_fixed():
    hyp = weierstrass(FormalBase(3))
    for name in ("degree", "beta", "bundle", "_alpha"):
        with pytest.raises(AttributeError):
            setattr(hyp, name, getattr(hyp, name))
        with pytest.raises(AttributeError):
            delattr(hyp, name)
    with pytest.raises(AttributeError):
        hyp.extra = 0
    assert hyp == weierstrass(FormalBase(3))


def test_spec_equality_repr_and_copies_ignore_the_cached_class():
    hyp, twin = weierstrass(FormalBase(4)), weierstrass(FormalBase(4))
    text = repr(hyp)
    alpha = alpha_class(hyp)
    assert hyp == twin and twin == hyp and repr(hyp) == repr(twin) == text
    assert hyp != weierstrass(FormalBase(5))
    for copied in (copy.copy(hyp), pickle.loads(pickle.dumps(hyp))):
        assert copied == hyp and repr(copied) == text
        assert alpha_class(copied) == alpha and alpha_class(copied) is not alpha


# -- Q ----------------------------------------------------------------------


def test_q_weierstrass():
    base = FormalBase(3)
    L = base.ring.sym("L")
    hyp = weierstrass(base)
    expected = expand_ratio(12 * L, 1 + 6 * L)
    assert q_class(hyp) == expected
    assert q_class_display(hyp) == expected


def test_q_family_closed_form_grid():
    for n in range(1, 6):
        for d in range(2, 7):
            fam = FermatFamily(n, d, base_dim=3)
            hyp = fam.hypersurface()
            closed = fam.q_closed_form()
            assert q_class(hyp) == closed, (n, d)
            assert q_class_display(hyp) == closed, (n, d)


def q_by_residues(hyp):
    return expand_ratio(*q_rational(hyp))


def test_q_rational_weierstrass():
    base = FormalBase(3)
    L = base.ring.sym("L")
    num, den = q_rational(weierstrass(base))
    # 12L(1 - 3L) / ((1 + 6L)(1 - 3L)): the root 3L leaves a common factor
    assert num == 12 * L * (1 - 3 * L)
    assert den == (1 + 6 * L) * (1 - 3 * L)
    assert expand_ratio(num, den) == expand_ratio(12 * L, 1 + 6 * L)


def randomized_suite():
    """``(trial, hypersurface)``: the bundles of acceptance criterion 5,
    drawn from its seed and in its order; each gets a hypersurface of
    degree 0..5 from a second stream."""
    rng = random.Random(1123581321)
    for trial in range(210):
        bundle = random_bundle(rng, random_base(rng))
        random_proj_class(rng, bundle)  # keeps the stream of criterion 5
        extra = random.Random(trial)
        yield trial, HypersurfaceSpec(
            extra.randint(0, 5), random_form(extra, bundle.ring, nonzero=False),
            bundle)


def test_q_rational_matches_the_series_route_on_the_randomized_suite():
    for trial, hyp in randomized_suite():
        assert q_by_residues(hyp) == q_class(hyp), (trial, hyp)


def test_q_rational_matches_the_series_route_on_the_anchors():
    for case_id, _, hyp in golden_cases.anchors():
        assert q_by_residues(hyp) == q_class(hyp), case_id


def test_q_rational_degree_zero():
    base = FormalBase(3)
    ring = base.ring
    L = ring.sym("L")
    bundle = BundleSpec([(ring.zero, 2), (L, 1)])
    empty = HypersurfaceSpec(0, ring.zero, bundle)
    assert q_rational(empty) == (ring.zero, ring.one)
    assert q_by_residues(empty) == q_class(empty) == 0
    hyp = HypersurfaceSpec(0, 2 * L, bundle)
    assert q_rational(hyp) == (3 * 2 * L, 1 + 2 * L)
    assert q_by_residues(hyp) == q_class(hyp)


def test_q_rational_over_projective_space():
    for dim, d, beta in itertools.product(range(1, 5), range(6), (0, 1, -2)):
        base = ProjectiveSpaceBase(dim)
        h = base.hyperplane()
        for roots in ([(0, 1), (2, 1), (3, 1)], [(0, 2), (1, 2), (-2, 1)]):
            bundle = BundleSpec([(m * h, mult) for m, mult in roots])
            hyp = HypersurfaceSpec(d, beta * h, bundle)
            assert q_by_residues(hyp) == q_class(hyp), (dim, d, beta, roots)
            assert euler_characteristic(hyp, base) == base.integrate(
                (q_class(hyp) * base.chern_polynomial()).component(dim))


def test_q_rational_on_the_fermat_grid():
    for n, d in itertools.product(range(2, 5), repeat=2):
        fam = FermatFamily(n, d)
        assert q_by_residues(fam.hypersurface()) == fam.q_closed_form(), (n, d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), degree=st.integers(0, 5),
       dim=st.integers(1, 8))
def test_q_rational_property(seed, degree, dim):
    rng = random.Random(seed)
    base = FormalBase(dim, divisors=DIVISORS)
    bundle = random_bundle(rng, base, max_rank=6)
    hyp = HypersurfaceSpec(degree, random_form(rng, base, nonzero=False),
                           bundle)
    num, den = q_rational(hyp)
    assert not any(num.components()[bundle.rank + 1:])
    assert den.constant_term() == 1
    assert expand_ratio(num, den) == q_class(hyp)


def test_q_family_examples():
    fam = FermatFamily(3, 3, base_dim=3)
    L = fam.formal_base().ring.sym("L")
    assert smooth_hypersurface_euler(3, 3) == 9
    assert fam.q_closed_form() == expand_ratio(9 + 3 * L, 1 + 3 * L)
    fam2 = FermatFamily(2, 3, base_dim=3)
    L2 = fam2.formal_base().ring.sym("L")
    assert fam2.q_closed_form() == expand_ratio(12 * L2, 1 + 3 * L2)


def test_smooth_hypersurface_euler_table():
    for n in range(1, 7):
        assert smooth_hypersurface_euler(n, 1) == n
    assert smooth_hypersurface_euler(2, 3) == 0  # elliptic curve
    assert smooth_hypersurface_euler(3, 4) == 24  # quartic surface
    assert smooth_hypersurface_euler(2, 2) == 2  # conic, a line pair smoothed
    assert smooth_hypersurface_euler(4, 5) == -200  # quintic threefold
    with pytest.raises(ValueError):
        smooth_hypersurface_euler(-1, 3)
    for n, d in ((True, 2), (2, True), (False, 2)):
        with pytest.raises(ValueError):
            smooth_hypersurface_euler(n, d)


# -- relative Chern class ----------------------------------------------------


def test_relative_chern_weierstrass_formal():
    base = FormalBase(3)
    ring = base.ring
    L, c1, c2 = ring.sym("L"), ring.sym("c1"), ring.sym("c2")
    rc = relative_chern_class(weierstrass(base), base)
    assert rc.component(3) == 12 * L * (c2 - 6 * L * c1 + 36 * L ** 2)
    assert rc.component(1) == 12 * L
    assert rc.component(2) == 12 * L * c1 - 72 * L ** 2


def test_relative_chern_weierstrass_fano():
    base = FormalBase(3, fano=True)
    c1, c2 = base.chern_symbol(1), base.chern_symbol(2)
    rc = base.apply_binding(relative_chern_class(weierstrass(base), base))
    assert rc.component(3) == 12 * c1 * c2 + 360 * c1 ** 3
    assert rc.component(1) == 12 * c1
    assert rc.component(2) == -60 * c1 ** 2


def test_relative_chern_linear_sections_give_projective_subbundle():
    # degree-1 hypersurface in P(O^(n+1)), beta = 0: fibers are P^(n-1)
    for n in (1, 2, 3):
        base = FormalBase(2)
        bundle = BundleSpec([(base.ring.zero, n + 1)])
        hyp = HypersurfaceSpec(1, base.ring.zero, bundle)
        rc = relative_chern_class(hyp, base)
        assert rc == n * base.chern_polynomial()
        assert smooth_hypersurface_euler(n, 1) == n


def test_relative_chern_rejects_foreign_base():
    base = FormalBase(3)
    other = FormalBase(2)
    with pytest.raises(ContextError):
        relative_chern_class(weierstrass(base), other)


def test_relative_chern_codim0_is_generic_fiber_euler():
    for n in range(1, 5):
        for d in range(2, 6):
            fam = FermatFamily(n, d, base_dim=2)
            base = fam.formal_base()
            rc = relative_chern_class(fam.hypersurface(), base)
            assert rc.component(0) == smooth_hypersurface_euler(n, d), (n, d)


# -- Euler characteristics -----------------------------------------------


def test_euler_weierstrass_p3():
    hyp, base = weierstrass_over_projective(3, 4)
    chi = euler_characteristic(hyp, base)
    assert chi == 23328 and isinstance(chi, int)


def test_euler_weierstrass_p2():
    hyp, base = weierstrass_over_projective(2, 3)
    assert euler_characteristic(hyp, base) == -540


def test_euler_weierstrass_formal_fano():
    base = FormalBase(3, fano=True)
    c1, c2 = base.chern_symbol(1), base.chern_symbol(2)
    top = base.apply_binding(euler_characteristic(weierstrass(base), base))
    assert top == 12 * c1 * c2 + 360 * c1 ** 3


def test_euler_cubic_plane_curve_family_p2():
    # same elliptic fibers presented as cubics in P(O + L + L)
    base = ProjectiveSpaceBase(2, multiple=3)
    ell = 3 * base.hyperplane()
    bundle = BundleSpec([base.ring.zero, (ell, 2)])
    hyp = HypersurfaceSpec(3, 3 * ell, bundle)
    assert euler_characteristic(hyp, base) == -216


def test_euler_modes():
    base = FormalBase(2)
    hyp = weierstrass(base)
    with pytest.raises(ModeError):
        euler_characteristic(hyp, base, as_integer=True)
    symbolic = euler_characteristic(hyp, base)
    assert symbolic.is_homogeneous(2)
    proj_hyp, proj = weierstrass_over_projective(2, 3)
    cls = euler_characteristic(proj_hyp, proj, as_integer=False)
    assert cls == -540 * proj.hyperplane() ** 2


def test_euler_as_integer_is_none_or_a_bool():
    formal = FormalBase(2)
    proj_hyp, proj = weierstrass_over_projective(2, 3)
    for hyp, base in ((weierstrass(formal), formal), (proj_hyp, proj)):
        for value in (0, 1, "", "no", 0.0, Fraction(1)):
            with pytest.raises(TypeError, match="as_integer"):
                euler_characteristic(hyp, base, as_integer=value)
    assert euler_characteristic(proj_hyp, proj, as_integer=True) == -540


def test_euler_over_projective_space_refuses_a_non_integral_degree():
    # roots 0, h/3, h and the class 3H + h/3: the top class has degree
    # -212/3, which no Euler characteristic is; the class itself is returned
    # on request
    base = ProjectiveSpaceBase(2)
    h = base.hyperplane()
    third = Fraction(1, 3) * h
    hyp = HypersurfaceSpec(3, third, BundleSpec([base.ring.zero, third, h]))
    for as_integer in (None, True):
        with pytest.raises(ChowError) as caught:
            euler_characteristic(hyp, base, as_integer=as_integer)
        assert str(caught.value) == "non-integral Euler characteristic -212/3"
    top = euler_characteristic(hyp, base, as_integer=False)
    assert top == Fraction(-212, 3) * h ** 2
    assert str(top) == "-212/3*h^2"


def random_hypersurface_over(rng, base):
    """A random hypersurface spec over a formal or projective base: a
    rank-2..5 bundle of integral roots and an integral divisor class."""
    ring = base.ring
    if isinstance(base, ProjectiveSpaceBase):
        h = base.hyperplane()
        roots = [(ring.zero, rng.randint(1, 2))]
        roots += [(m * h, rng.randint(1, 2)) for m in rng.sample(range(-3, 4), 2) if m]
        return HypersurfaceSpec(rng.randint(0, 4), rng.randint(-3, 3) * h,
                                BundleSpec(roots))
    if base.dim == 0:  # every divisor is zero on a point
        bundle = BundleSpec([(ring.zero, rng.randint(2, 5))])
    else:
        bundle = random_bundle(rng, base)
    return HypersurfaceSpec(rng.randint(0, 4), random_form(rng, base, nonzero=False),
                            bundle)


def test_euler_characteristic_is_the_top_piece_of_the_relative_class():
    # only the top piece is built, from the graded pieces of Q; the whole
    # product Q * c(B) is the reference
    rng = random.Random(3401)
    bases = [FormalBase(dim, DIVISORS) for dim in range(9)]
    bases += [ProjectiveSpaceBase(dim) for dim in range(7)]
    for base in bases:
        for _ in range(6):
            hyp = random_hypersurface_over(rng, base)
            top = relative_chern_class(hyp, base).component(base.dim)
            assert euler_characteristic(hyp, base, as_integer=False) == top, hyp
            if isinstance(base, ProjectiveSpaceBase):
                chi = base.integrate(top)
                for as_integer in (None, True):
                    value = euler_characteristic(hyp, base, as_integer=as_integer)
                    assert value == chi and isinstance(value, int), hyp
            else:
                assert euler_characteristic(hyp, base) == top, hyp
                with pytest.raises(ModeError):
                    euler_characteristic(hyp, base, as_integer=True)


def test_euler_characteristic_builds_only_the_top_piece():
    # the whole product Q * c(B) over a formal base has about dim**2 / 2
    # terms: 28.7 MB traced at dim 400, against 0.5 MB for the top piece
    base = FormalBase(400)
    hyp = weierstrass(base)
    base.chern_polynomial()
    tracemalloc.start()
    try:
        top = euler_characteristic(hyp, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(top.terms()) == 400
    assert peak < 4_000_000, peak


@pytest.mark.parametrize("fano", [False, True])
def test_euler_characteristic_reads_each_chern_class_of_a_formal_base_as_its_symbol(fano):
    # c_k(B) is the symbol c<k>, so the lazy c(B) is never built
    for dim in (0, 1, 3, 40):
        base = FormalBase(dim, fano=fano)
        top = euler_characteristic(weierstrass(base), base)
        assert base._chern is None, dim
        assert top == relative_chern_class(weierstrass(base), base).component(dim)


def test_euler_specialization_commutes():
    for dim, multiple in ((2, 3), (3, 4), (3, 2), (4, 1)):
        formal = FormalBase(dim)
        target = ProjectiveSpaceBase(dim, multiple=multiple)
        symbolic = euler_characteristic(weierstrass(formal), formal)
        via_formal = target.integrate(specialize(symbolic, target))
        hyp, base = weierstrass_over_projective(dim, multiple)
        assert via_formal == euler_characteristic(hyp, base), (dim, multiple)


# -- SVW components ---------------------------------------------------------


def test_svw_components_weierstrass():
    base = FormalBase(3, fano=True)
    c1, c2 = base.chern_symbol(1), base.chern_symbol(2)
    pieces = [base.apply_binding(p)
              for p in svw_components(weierstrass(base), base)]
    assert pieces == [12 * c1, -60 * c1 ** 2, 12 * c1 * c2 + 360 * c1 ** 3]


def test_svw_components_empty_for_empty_class():
    base = FormalBase(3)
    bundle = BundleSpec([base.ring.zero, base.ring.sym("L")])
    hyp = HypersurfaceSpec(0, base.ring.zero, bundle)
    assert svw_components(hyp, base) == []


def test_svw_components_resum():
    rng = random.Random(77)
    for _ in range(10):
        dim = rng.randint(1, 4)
        base = FormalBase(dim)
        L = base.ring.sym("L")
        bundle = BundleSpec([base.ring.zero, (L, rng.randint(1, 3))])
        hyp = HypersurfaceSpec(rng.randint(1, 4), rng.randint(0, 3) * L, bundle)
        rc = relative_chern_class(hyp, base)
        total = sum(svw_components(hyp, base), base.ring.zero)
        assert total == rc - rc.component(0)


# -- stratified route ---------------------------------------------------------


def test_strata_data_invariants():
    fam = FermatFamily(3, 4, base_dim=3)
    base = fam.formal_base()
    L = base.ring.sym("L")
    s = fam.strata()
    assert s.chi0 == smooth_hypersurface_euler(3, 4) == 24
    assert s.chi1 == s.chi0 + (-1) ** 3 * 3 ** 2 == 15
    assert s.chi2 == s.chi0 + (-1) ** 3 * 3 ** 3 == -3
    assert s.class_f == 3 * L
    assert s.class_g == 4 * L
    assert s.class_discriminant == 12 * L


def test_strata_milnor_jumps_general():
    for n in range(1, 5):
        for d in range(2, 6):
            s = FermatFamily(n, d, base_dim=1).strata()
            assert s.chi1 - s.chi0 == (-1) ** n * (d - 1) ** (n - 1)
            assert s.chi2 - s.chi0 == (-1) ** n * (d - 1) ** n


def test_csm_discriminant_degree_two_collapses():
    fam = FermatFamily(3, 2, base_dim=3)
    base = fam.formal_base()
    ring = base.ring
    s = fam.strata()
    delta = s.class_discriminant
    expected = base.chern_polynomial() * expand_ratio(delta, ring.one + delta)
    assert s.csm_discriminant == expected


def test_dual_route_grid():
    for n in range(2, 5):
        for d in range(2, 6):
            for dim in range(1, 5):
                fam = FermatFamily(n, d, base_dim=dim)
                base = fam.formal_base()
                stratified = fam.chern_by_strata(base)
                pushed = relative_chern_class(fam.hypersurface(base), base)
                assert stratified == pushed, (
                    f"stratified and pushforward routes disagree at "
                    f"n={n}, d={d}, base_dim={dim}: "
                    f"{stratified} != {pushed}")


def strata_as_written_out(fam, base):
    # the strata with every CSM class formed as c(B) times a ratio, the
    # formulas written out before the multipliers in L were factored out
    L = base.ring.sym(fam.divisor)
    n, d = fam.n, fam.degree
    one = base.ring.one
    cX = base.chern_polynomial()
    chi0 = smooth_hypersurface_euler(n, d)
    chi1 = chi0 + (-1) ** n * (d - 1) ** (n - 1)
    chi2 = chi0 + (-1) ** n * (d - 1) ** n
    f = (d - 1) * L
    g = d * L
    delta = d * (d - 1) * L
    chern_common_zero = cX * f * g / ((one + f) * (one + g))
    csm_discriminant = cX * (
        delta / (one + delta)
        + ((d - 2) * (d - 1)) * f * g
        / ((one + delta) * (one + delta + (1 - d) * f) * (one + delta + (2 - d) * g)))
    return StratumData(chi0, chi1, chi2, f, g, delta,
                       csm_discriminant, chern_common_zero)


def test_chern_by_strata_is_the_weighted_sum_of_the_strata():
    for n, d, dim in itertools.product(range(1, 5), range(2, 6), range(9)):
        fam = FermatFamily(n, d, base_dim=dim)
        base = fam.formal_base()
        s = fam.strata(base)
        assert s == strata_as_written_out(fam, base), (n, d, dim)
        assembled = (s.chi0 * base.chern_polynomial()
                     + (s.chi1 - s.chi0) * s.csm_discriminant
                     + (s.chi2 - s.chi1) * s.chern_common_zero)
        assert fam.chern_by_strata(base) == assembled, (n, d, dim)


def test_dual_route_integrated_example():
    # n=2, d=3 over a formal surface: both routes give the same chi
    fam = FermatFamily(2, 3, base_dim=2)
    base = fam.formal_base()
    top = fam.chern_by_strata().component(2)
    assert top == euler_characteristic(fam.hypersurface(base), base)


def test_family_rejects_low_degree():
    with pytest.raises(UnsupportedDegreeError):
        FermatFamily(3, 1)
    with pytest.raises(UnsupportedDegreeError):
        FermatFamily(2, 0)
    with pytest.raises(UnsupportedDegreeError):
        FermatFamily(2, True)
    with pytest.raises(ValueError):
        FermatFamily(True, 2)
    with pytest.raises(ValueError):
        FermatFamily(2, 3, base_dim=True)
    # the plain pushforward route still supports low degrees
    base = FormalBase(2)
    L = base.ring.sym("L")
    bundle = BundleSpec([base.ring.zero, (L, 2)])
    hyp = HypersurfaceSpec(1, L, bundle)
    assert not q_class(hyp).is_zero()


def test_family_checks_its_divisor_name():
    # as the bases do, when the family is built: H is the hyperplane class
    # of P(E), and c2, c3 are Chern classes of degree above 1
    for name in ("1x", "", "L M", 3, "H", "c2", "c3"):
        with pytest.raises(SymbolError):
            FermatFamily(2, 3, divisor=name)
    assert FermatFamily(2, 3, divisor="c4").formal_base() == FormalBase(3, ("c4",))
    # c1 is the anticanonical class of the base
    anticanonical = FermatFamily(2, 3, divisor="c1")
    base = anticanonical.formal_base()
    assert base == FormalBase(3, ())
    assert anticanonical.chern_by_strata() == relative_chern_class(
        anticanonical.hypersurface(), base)
    assert FermatFamily(2, 3, 0, "c1").formal_base() == FormalBase(0, ("c1",))
    assert FermatFamily(2, 3, divisor="M").formal_base() == FormalBase(3, ("M",))


def test_family_base_dimension_must_agree():
    fam = FermatFamily(2, 3, base_dim=2)
    with pytest.raises(ContextError):
        fam.hypersurface(FormalBase(3))


def euler_on_the_projectivization(hyp, base):
    """chi integrated on P(E) itself, with no pushforward formula: c(X) times
    alpha, reduced by the Grothendieck relation, has its top class
    ``h^k H^(r-1)`` in the ``H^(r-1)`` coefficient, and that class has
    degree 1."""
    bundle = hyp.bundle
    total = ProjClass.from_base(bundle, base.chern_polynomial()) * alpha_class(hyp)
    return base.integrate(total.reduce().coeff(bundle.fiber_dim))


def test_integer_oracle_on_the_projectivization():
    hyp3, p3 = weierstrass_over_projective(3, 4)
    assert euler_on_the_projectivization(hyp3, p3) == 23328
    hyp2, p2 = weierstrass_over_projective(2, 3)
    assert euler_on_the_projectivization(hyp2, p2) == -540
    for n, d, dim in itertools.product(range(2, 5), range(2, 5), range(1, 4)):
        base = ProjectiveSpaceBase(dim)
        hyp = FermatFamily(n, d, base_dim=dim, divisor="h").hypersurface(base)
        assert euler_on_the_projectivization(hyp, base) == \
            euler_characteristic(hyp, base), (n, d, dim)


def test_three_routes_agree_on_anchors_and_the_fermat_grid():
    cases = [(case_id, hyp) for case_id, _, hyp in golden_cases.anchors()]
    for n, d, dim in itertools.product(range(2, 5), range(2, 5), range(1, 5)):
        fam = FermatFamily(n, d, base_dim=dim)
        cases.append(((n, d, dim), fam.hypersurface()))
    cases.append(("weierstrass-60", weierstrass(FormalBase(60))))
    for label, hyp in cases:
        reduced = alpha_class(hyp).reduce()
        q = q_class(hyp)
        assert len(reduced.coeffs) <= hyp.bundle.rank, label
        assert reduced.coeff(hyp.bundle.fiber_dim) == q, label
        assert pushforward_closed_form(reduced) == q, label
        assert q_class_display(hyp) == q, label


def test_q_class_display_runs_no_divided_difference(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the divided-difference route ran")

    for name in ("divided_difference", "pushforward_closed_form"):
        monkeypatch.setattr(f"relchern.pushforward.{name}", refuse)
    for case_id, _, hyp in golden_cases.anchors():
        assert q_class_display(hyp) == q_class(hyp), case_id


def reference_reduce(cls):
    """``ProjClass.reduce`` as it was before ``q_class_display`` stopped the
    reduction at ``H**(r-1)``: every target below it is rewritten too."""
    bundle = cls.bundle
    ring = bundle.ring
    rank = bundle.rank
    negated = _negated_table(bundle.total_chern().components()[:rank + 1])
    out = [dict(a._terms) for a in cls.coeffs]
    for n in range(len(out) - 1, rank - 1, -1):
        for k, ck in negated:
            _mul_into(out[n - k], out[n], ck, ring.bound)
    return ProjClass._normalized(bundle,
                                 [ring._finish(terms) for terms in out[:rank]])


def test_q_class_display_is_the_full_reduction_stopped_at_h_rank_minus_1():
    # the randomized suite, then the anchors at formal dims 0..12 and 60
    cases = list(randomized_suite())
    for dim in range(13):
        cases += [((name, dim), build(dim)[1]) for name, build in
                  (("weierstrass", golden_cases._weierstrass),
                   ("M3", golden_cases._m3), ("M4", golden_cases._m4))]
        cases += [(("fermat", n, d, dim), FermatFamily(n, d, dim).hypersurface())
                  for n in (2, 3, 4) for d in (2, 3, 4)]
    cases.append((("weierstrass", 60), golden_cases._weierstrass(60)[1]))
    for label, hyp in cases:
        alpha = alpha_class(hyp)
        reduced = alpha.reduce()
        assert reduced == reference_reduce(alpha), label
        assert q_class_display(hyp) == reduced.coeff(hyp.bundle.fiber_dim), label


def test_reduced_alpha_has_width_rank_at_high_dimension():
    for dim in (7, 60, 200):
        base = FormalBase(dim)
        hyp = weierstrass(base)
        alpha = alpha_class(hyp)
        reduced = alpha.reduce()
        assert len(alpha.coeffs) == dim + 3 and len(reduced.coeffs) == 3, dim
        assert reduced.coeff(2) == pushforward_series(alpha), dim


def test_family_cy_degree_matches_weierstrass_numbers():
    # swapping the rank-3 CY fiber data for the Weierstrass presentation
    # reproduces the same chi over every test base
    hyp3, p3 = weierstrass_over_projective(3, 4)
    assert euler_characteristic(hyp3, p3) == 23328
    hyp2, p2 = weierstrass_over_projective(2, 3)
    assert euler_characteristic(hyp2, p2) == -540
