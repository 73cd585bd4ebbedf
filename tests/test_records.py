"""The package's immutable records: symbols, expression nodes, the
Fermat-type family with its strata, rings, formal and projective bases,
bundles and hypersurface specs.  They compare and hash by their fields, copy
and pickle through their constructors, refuse assignment, and load without
``dataclasses`` (or ``inspect``) on the import path.  Symbols, nodes and the
family print as constructor calls; rings, projective bases, bundles and
hypersurface specs keep a shorter form of their own."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from relchern import (FermatFamily, FormalBase, HypersurfaceSpec,
                      ProjectiveSpaceBase, StratumData, Symbol, alpha_class)
from relchern.expressions import BinOp, Neg, Num, Pow, Sym

ROOT = pathlib.Path(__file__).resolve().parents[1]

RECORDS = [
    (lambda: Symbol("c2", 2), "Symbol(name='c2', degree=2)"),
    (lambda: Symbol("L"), "Symbol(name='L', degree=1)"),
    (lambda: Num(7), "Num(value=7)"),
    (lambda: Sym("H"), "Sym(name='H')"),
    (lambda: Neg(Num(1)), "Neg(operand=Num(value=1))"),
    (lambda: BinOp("/", Sym("L"), Num(2)),
     "BinOp(op='/', left=Sym(name='L'), right=Num(value=2))"),
    (lambda: Pow(Sym("H"), 3), "Pow(base=Sym(name='H'), exponent=3)"),
    (lambda: FermatFamily(2, 3),
     "FermatFamily(n=2, degree=3, base_dim=3, divisor='L')"),
    (lambda: FermatFamily(1, 4, base_dim=2, divisor="M"),
     "FermatFamily(n=1, degree=4, base_dim=2, divisor='M')"),
]


@pytest.mark.parametrize("make, text", RECORDS)
def test_records_compare_hash_and_print_by_their_fields(make, text):
    value = make()
    twin = make()
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert repr(value) == text
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert value != text and value != ()


@pytest.mark.parametrize("make, text", RECORDS)
def test_records_are_immutable(make, text):
    value = make()
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert repr(value) == text


def test_records_of_different_types_differ():
    assert Num(1) != Sym(1)
    assert Symbol("L", 1) != Symbol("L", 2)
    assert Symbol("L") == Symbol(name="L", degree=1)
    assert BinOp("+", Num(1), Num(2)) != BinOp("-", Num(1), Num(2))
    assert FermatFamily(2, 3) != FermatFamily(2, 3, base_dim=4)
    assert len({Symbol("L"), Symbol("L"), Symbol("M")}) == 2


def test_strata_compare_by_value_and_are_immutable():
    family = FermatFamily(2, 3)
    strata = family.strata(FormalBase(3))
    assert isinstance(strata, StratumData)
    assert strata == family.strata(FormalBase(3))
    assert strata != FermatFamily(2, 4).strata(FormalBase(3))
    assert repr(strata).startswith("StratumData(chi0=0, chi1=2, chi2=4, "
                                   "class_f=ChowPoly(2*L), ")
    with pytest.raises(TypeError):
        hash(strata)  # ChowPoly values are unhashable
    with pytest.raises(AttributeError):
        strata.chi0 = 1


def weierstrass():
    ring = FormalBase(3).ring
    L = ring.sym("L")
    return HypersurfaceSpec.from_roots(3, 6 * L, [ring.zero, 2 * L, 3 * L])


def twisted():
    # a nonzero first root and a repeated one
    ring = FormalBase(2, ("L", "M")).ring
    L, M = ring.sym("L"), ring.sym("M")
    return HypersurfaceSpec.from_roots(2, L + M, [L, (M, 2), 2 * L])


# records whose slots also keep state derived from their fields:
# (make, repr, a field, hashable)
VALUES = [
    (lambda: FormalBase(3), "FormalBase(dim=3, divisors=('L',), fano=False)",
     "dim", True),
    (lambda: FormalBase(2, ("L", "M"), fano=True),
     "FormalBase(dim=2, divisors=('L', 'M'), fano=True)", "fano", True),
    (lambda: ProjectiveSpaceBase(3, 4), "ProjectiveSpaceBase(dim=3, L=4*h)",
     "multiple", True),
    (lambda: ProjectiveSpaceBase(2), "ProjectiveSpaceBase(dim=2, L unbound)",
     "divisor", True),
    (lambda: FormalBase(3).ring, "ChowRing(L,c1,c2,c3; bound=3)", "bound", True),
    (lambda: FormalBase(1).ring.with_formal(["x", "_y"]),
     "ChowRing(L,c1;_y,x; bound=1)", "formal", True),
    (lambda: weierstrass().bundle, "BundleSpec[(0)^1, (2*L)^1, (3*L)^1]",
     "roots", False),
    (weierstrass,
     "HypersurfaceSpec(3*H + 6*L in BundleSpec[(0)^1, (2*L)^1, (3*L)^1])",
     "beta", False),
    (twisted,
     "HypersurfaceSpec(2*H - L + M in BundleSpec[(0)^1, (-L + M)^2, (L)^1])",
     "degree", False),
]


@pytest.mark.parametrize("make, text, field, hashable", VALUES)
def test_values_compare_copy_and_print_by_their_fields(make, text, field,
                                                      hashable):
    value = make()
    twin = make()
    assert value is not twin
    assert value == twin and not value != twin and value == value
    assert repr(value) == text
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert clone == value and repr(clone) == text
    if hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)  # ChowPoly values are unhashable
    assert value != text and value != ()


@pytest.mark.parametrize("make, text, field, hashable", VALUES)
def test_values_are_immutable(make, text, field, hashable):
    value = make()
    derived = {"ChowRing": "_degrees",
               "HypersurfaceSpec": "_alpha"}.get(type(value).__name__, "ring")
    for name in (field, derived):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert value == make() and repr(value) == text


def test_values_differ_by_any_field():
    assert FormalBase(3) != FormalBase(3, fano=True)
    assert FormalBase(3) != FormalBase(3, ("M",))
    assert FormalBase(2) != ProjectiveSpaceBase(2)
    assert ProjectiveSpaceBase(3, 4) != ProjectiveSpaceBase(3, 4, "M")
    assert FormalBase(3).ring != FormalBase(2).ring
    assert FormalBase(3).ring != FormalBase(3).ring.with_formal(["x"])
    assert len({FormalBase(3), FormalBase(3), FormalBase(3).ring,
                FormalBase(3).ring}) == 2
    assert weierstrass().bundle != twisted().bundle
    assert weierstrass() != twisted()


def test_a_copied_hypersurface_spec_builds_its_own_alpha_class():
    hyp = weierstrass()
    alpha = alpha_class(hyp)
    assert hyp._alpha is alpha
    for clone in (copy.copy(hyp), copy.deepcopy(hyp),
                  pickle.loads(pickle.dumps(hyp))):
        assert clone == hyp and clone._alpha is None
        assert alpha_class(clone) == alpha and clone._alpha is not alpha


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import relchern.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
