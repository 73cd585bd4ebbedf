"""Base-variety models: formal Chern symbols and projective space."""

import copy
import pickle
import random

import pytest

from relchern import (FormalBase, GradeError, ProjectiveSpaceBase,
                      SpecializationError, SymbolError, specialize)
from tests.randgen import random_poly


def test_projective_chern_polynomials():
    p3 = ProjectiveSpaceBase(3)
    h = p3.hyperplane()
    assert p3.chern_polynomial() == 1 + 4 * h + 6 * h ** 2 + 4 * h ** 3
    p1 = ProjectiveSpaceBase(1)
    assert p1.chern_polynomial() == 1 + 2 * p1.hyperplane()
    assert p3.chern_polynomial().component(2) == 6 * h ** 2


def test_projective_chern_polynomial_is_the_power_of_one_plus_h():
    # built from a running binomial; the square-and-multiply power is the reference
    for k in range(41):
        base = ProjectiveSpaceBase(k)
        assert base.chern_polynomial() == (1 + base.hyperplane()) ** (k + 1), k


def test_formal_chern_polynomial():
    base = FormalBase(2)
    assert base.chern_polynomial() == 1 + base.chern_symbol(1) + base.chern_symbol(2)
    with pytest.raises(SymbolError):
        base.chern_symbol(3)
    with pytest.raises(SymbolError):
        base.chern_symbol(0)


@pytest.mark.parametrize("base", [FormalBase(4, ("L", "M")),
                                  ProjectiveSpaceBase(4, 3)], ids=repr)
def test_chern_polynomial_is_built_once_per_base(base):
    cB = base.chern_polynomial()
    assert base.chern_polynomial() is cB
    # the kept class is no field: equality, hashing, repr and copies skip it
    for clone in (pickle.loads(pickle.dumps(base)), copy.copy(base),
                  copy.deepcopy(base)):
        assert clone == base and hash(clone) == hash(base)
        assert repr(clone) == repr(base)
        rebuilt = clone.chern_polynomial()
        assert rebuilt == cB and rebuilt is not cB
        assert rebuilt.ring is clone.ring
        assert clone.chern_polynomial() is rebuilt


def test_an_oversized_formal_dimension_fails_before_any_symbol_is_built(
        monkeypatch):
    def no_symbol(*args):
        raise AssertionError("a symbol was built before the bound was checked")

    monkeypatch.setattr("relchern.bases.Symbol", no_symbol)
    for dim in (2 ** 31, 99999999999):
        with pytest.raises(GradeError):
            FormalBase(dim)


def test_integrate_examples():
    p3 = ProjectiveSpaceBase(3)
    h = p3.hyperplane()
    assert p3.integrate(h ** 3) == 1
    assert p3.integrate(360 * (4 * h) ** 3 + 12 * (4 * h) * (6 * h ** 2)) == 23328
    p2 = ProjectiveSpaceBase(2)
    k = p2.hyperplane()
    assert p2.integrate(-60 * (3 * k) ** 2) == -540
    assert p2.integrate(k) == 0  # not a top class


def test_integrate_rejects_foreign_symbols():
    p3 = ProjectiveSpaceBase(3)
    base = FormalBase(3)
    with pytest.raises(SpecializationError):
        p3.integrate(base.chern_symbol(1))


def test_divisor_binding():
    bound = ProjectiveSpaceBase(3, multiple=4)
    assert bound.divisor_class() == 4 * bound.hyperplane()
    unbound = ProjectiveSpaceBase(3)
    with pytest.raises(SpecializationError):
        unbound.divisor_class()


def test_specialize_examples():
    base = FormalBase(3)
    p3 = ProjectiveSpaceBase(3, multiple=4)
    h = p3.hyperplane()
    c1, c2 = base.chern_symbol(1), base.chern_symbol(2)
    assert specialize(c1, p3) == 4 * h
    assert specialize(12 * c1 * c2 + 360 * c1 ** 3, p3) == 23328 * h ** 3
    assert specialize(base.ring.sym("L"), p3) == 4 * h


def test_specialize_sends_chern_classes_above_the_target_dimension_to_zero():
    base = FormalBase(5)
    p3 = ProjectiveSpaceBase(3, multiple=4)
    h = p3.hyperplane()
    c1, c2, c4, c5 = (base.chern_symbol(i) for i in (1, 2, 4, 5))
    assert specialize(c4, p3) == 0 and specialize(c5, p3) == 0
    assert specialize(c1 + 2 * c4 + c2 * c5, p3) == 4 * h
    p4 = ProjectiveSpaceBase(4)
    assert specialize(c4 + c5, p4) == 5 * p4.hyperplane() ** 4
    assert specialize(3 + c1 * c4, ProjectiveSpaceBase(0)) == 3


def test_specialize_unknown_symbol():
    base = FormalBase(2, divisors=("L", "M"))
    p2 = ProjectiveSpaceBase(2, multiple=3)
    with pytest.raises(SpecializationError):
        specialize(base.ring.sym("M"), p2)
    with pytest.raises(SpecializationError,
                       match="divisor 'L' has no bound multiple of h"):
        specialize(base.ring.sym("L"), ProjectiveSpaceBase(2))
    with pytest.raises(TypeError):
        specialize(base.ring.sym("L"), FormalBase(2))


def test_specialize_reads_the_divisor_from_bindings(monkeypatch):
    p3 = ProjectiveSpaceBase(3, multiple=4)
    h = p3.hyperplane()
    L = FormalBase(3).ring.sym("L")
    monkeypatch.setattr(ProjectiveSpaceBase, "bindings",
                        lambda self: {"L": 5 * self.hyperplane()})
    assert specialize(L ** 2, p3) == 25 * h ** 2
    monkeypatch.undo()
    assert specialize(L ** 2, p3) == 16 * h ** 2
    # h is never rebound, even when it is the named divisor
    on_h = FormalBase(3, divisors=("h",)).ring.sym("h")
    assert specialize(on_h, ProjectiveSpaceBase(3, multiple=2, divisor="h")) == h
    # c0 and c01 are divisor names: a formal base's Chern symbols are c1..c3
    for name in ("c0", "c01"):
        D = FormalBase(3, divisors=(name,)).ring.sym(name)
        assert specialize(D, ProjectiveSpaceBase(3, multiple=2, divisor=name)) == 2 * h


def test_specialize_reads_c_i_as_a_chern_class_only_at_degree_i():
    # c5 of degree 1 is a divisor on a dimension-2 base, not the Chern class c5
    D = FormalBase(2, ("c5",)).ring.sym("c5")
    p2 = ProjectiveSpaceBase(2, 3, "c5")
    h = p2.hyperplane()
    assert specialize(D, p2) == 3 * h
    assert specialize(D ** 2 + 2 * D, p2) == 9 * h ** 2 + 6 * h
    with pytest.raises(SpecializationError,
                       match="divisor 'c5' has no bound multiple of h"):
        specialize(D, ProjectiveSpaceBase(2, divisor="c5"))
    with pytest.raises(SpecializationError, match="cannot specialize symbol 'c5'"):
        specialize(D, ProjectiveSpaceBase(2, 3))
    # the Chern symbols c1..c_dim still map to the Chern classes of P^dim
    base = FormalBase(3, ("c5",))
    p3 = ProjectiveSpaceBase(3, 2, "c5")
    h = p3.hyperplane()
    c1, c2, c3 = (base.chern_symbol(i) for i in (1, 2, 3))
    assert specialize(c1, p3) == 4 * h
    assert specialize(c2, p3) == 6 * h ** 2
    assert specialize(c3 + c1 * c2 + base.ring.sym("c5"), p3) == 28 * h ** 3 + 2 * h


def test_specialize_is_ring_homomorphism():
    rng = random.Random(101)
    base = FormalBase(3)
    p3 = ProjectiveSpaceBase(3, multiple=4)
    for _ in range(40):
        a = random_poly(rng, base.ring, max_factors=3)
        b = random_poly(rng, base.ring, max_factors=3)
        assert specialize(a + b, p3) == specialize(a, p3) + specialize(b, p3)
        assert specialize(a * b, p3) == specialize(a, p3) * specialize(b, p3)


def test_fano_binding_is_render_time():
    base = FormalBase(3, fano=True)
    L = base.ring.sym("L")
    c1 = base.chern_symbol(1)
    # the ring itself stays free
    assert L != c1
    assert base.apply_binding(12 * L + L * c1) == 12 * c1 + c1 ** 2
    plain = FormalBase(3)
    assert plain.apply_binding(12 * L) == 12 * plain.ring.sym("L")


def test_fano_binding_renames_on_packed_keys():
    # the binding must agree with a term-by-term reference, also where L and
    # c1 meet in one term and where bound terms collide with existing ones
    rng = random.Random(9)
    met = 0
    for _ in range(200):
        base = FormalBase(rng.randint(1, 4), divisors=("L", "M"), fano=True)
        c1 = base.chern_symbol(1)
        mixed = base.ring.sym("L") + rng.randint(-2, 2) * c1
        cls = (random_poly(rng, base.ring, max_factors=4, terms=6)
               + random_poly(rng, base.ring, max_factors=3) * mixed)
        met += any({"L", "c1"} <= {n for n, _ in mono} for mono, _ in cls.terms())
        reference = base.ring.zero
        for mono, c in cls.terms():
            term = base.ring.const(c)
            for name, e in mono:
                term = term * (c1 if name == "L" else base.ring.sym(name)) ** e
            reference = reference + term
        assert base.apply_binding(cls) == reference
    assert met > 25
    base = FormalBase(3, fano=True)
    L, c1 = base.ring.sym("L"), base.chern_symbol(1)
    assert base.apply_binding((L + c1) ** 3 - 8 * c1 ** 3) == 0
    assert base.apply_binding(L ** 2 * c1 - L * c1 ** 2) == 0


def test_bindings_name_the_divisor_a_base_reads_as_another_class():
    assert FormalBase(0, fano=True).bindings() == {}
    fano = FormalBase(3, fano=True)
    assert fano.bindings() == {"L": fano.chern_symbol(1)}
    assert FormalBase(3).bindings() == {}
    assert ProjectiveSpaceBase(3).bindings() == {}
    p3 = ProjectiveSpaceBase(3, multiple=4)
    assert p3.bindings() == {"L": 4 * p3.hyperplane()}
    assert ProjectiveSpaceBase(3, multiple=2, divisor="h").bindings() == {}


def test_a_fano_base_needs_a_divisor():
    with pytest.raises(ValueError, match="fano"):
        FormalBase(2, divisors=(), fano=True)
    assert FormalBase(2, divisors=()).divisors == ()
    assert FormalBase(2, divisors=iter(["L"]), fano=True).divisors == ("L",)


def test_base_equality_and_validation():
    assert FormalBase(2) == FormalBase(2)
    assert FormalBase(2) != FormalBase(2, fano=True)
    assert ProjectiveSpaceBase(3, multiple=4) == ProjectiveSpaceBase(3, multiple=4)
    assert ProjectiveSpaceBase(3) != ProjectiveSpaceBase(2)
    with pytest.raises(ValueError):
        FormalBase(-1)
    with pytest.raises(ValueError):
        ProjectiveSpaceBase(2, multiple=1.5)
    # a bool is not an integer argument
    for make in (lambda: FormalBase(True), lambda: ProjectiveSpaceBase(True),
                 lambda: ProjectiveSpaceBase(2, multiple=True)):
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("name", ["1x", "", 5, None, "L-1"])
def test_a_projective_divisor_name_is_a_symbol_name(name):
    with pytest.raises(SymbolError, match="invalid symbol name"):
        ProjectiveSpaceBase(3, 2, name)


def test_a_divisor_is_not_named_h_or_after_a_chern_symbol():
    # H is the hyperplane class of every P(E); c1..c_dim are the Chern
    # symbols of a formal base, so a projective base may use those names
    for make in (lambda name: FormalBase(2, ("L", name)),
                 lambda name: ProjectiveSpaceBase(2, 3, name)):
        with pytest.raises(SymbolError, match="the divisor name H is reserved"):
            make("H")
    for name in ("c1", "c2"):
        with pytest.raises(SymbolError, match="unique within a ring"):
            FormalBase(2, (name,))
    # the ring finds a clash only once every name has passed the rule, so
    # an invalid name is reported first
    with pytest.raises(SymbolError, match="invalid symbol name '1x'"):
        FormalBase(2, ("c1", "1x"))
    assert FormalBase(2, ("h", "c3", "c0", "c01")).divisors == ("h", "c3", "c0", "c01")
    assert ProjectiveSpaceBase(2, 3, "c1").bindings() == {
        "c1": 3 * ProjectiveSpaceBase(2).hyperplane()}


def test_zero_dimensional_point():
    pt = ProjectiveSpaceBase(0)
    assert pt.integrate(pt.ring.const(7)) == 7
    assert pt.chern_polynomial() == 1
