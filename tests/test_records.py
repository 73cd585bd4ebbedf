"""The package's immutable records: symbols, expression nodes, the
Fermat-type family with its strata, rings, formal and projective bases,
bundles and hypersurface specs.  They compare and hash by their fields, copy
and pickle through their constructors, refuse assignment, and load without
``dataclasses`` (or ``inspect``) on the import path.  Symbols, nodes and the
family print as constructor calls; rings, projective bases, bundles and
hypersurface specs keep a shorter form of their own."""

import copy
import gc
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from relchern import (ChowRing, FermatFamily, FormalBase, HypersurfaceSpec,
                      ProjectiveSpaceBase, StratumData, Symbol, alpha_class,
                      class_to_json, euler_characteristic, expand_ratio,
                      q_class, q_class_display, q_rational, specialize,
                      svw_components, to_latex, to_text)
from relchern import cli
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
    (lambda: Num(value=8), "Num(value=8)"),
    (lambda: BinOp("+", Sym("L"), right=Num(2)),
     "BinOp(op='+', left=Sym(name='L'), right=Num(value=2))"),
    (lambda: Pow(exponent=4, base=Sym("H")),
     "Pow(base=Sym(name='H'), exponent=4)"),
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


# records that take their fields as they are, through _Frozen's constructor
PLAIN = [
    lambda: Num(7),
    lambda: Sym("H"),
    lambda: Neg(Num(1)),
    lambda: BinOp("/", Sym("L"), Num(2)),
    lambda: Pow(Sym("H"), 3),
    lambda: FermatFamily(2, 3).strata(FormalBase(3)),
]


@pytest.mark.parametrize("make", PLAIN)
def test_plain_records_take_their_fields_by_position_or_by_name(make):
    value = make()
    cls, names = type(value), value.__slots__
    assert "__init__" not in vars(cls)
    fields = [getattr(value, name) for name in names]
    assert cls(*fields) == value == cls(**dict(zip(names, fields)))
    assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) == value
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value
        assert repr(clone) == repr(value)


# a field left out, given twice, or not a field at all
@pytest.mark.parametrize("call", [
    lambda: Num(),
    lambda: Num(1, 2),
    lambda: Num(1, value=2),
    lambda: Num(valu=1),
    lambda: Num(1, valu=2),
    lambda: BinOp("+", Num(1)),
    lambda: BinOp("+", Num(1), Num(2), right=Num(3)),
    lambda: StratumData(*range(7)),
    lambda: StratumData(*range(9)),
])
def test_plain_records_take_each_field_exactly_once(call):
    with pytest.raises(TypeError):
        call()


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
    (lambda: ChowRing(FormalBase(1).ring.symbols, 2),
     "ChowRing(L,c1; bound=2)", "symbols", True),
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


def test_a_ring_has_two_fields():
    ring = FormalBase(2).ring
    assert ring._fields == (ring.symbols, 2)
    assert pickle.loads(pickle.dumps(ring)) == ChowRing(ring.symbols, 2)
    with pytest.raises(TypeError):
        ChowRing(ring.symbols, 2, ())


def test_values_differ_by_any_field():
    assert FormalBase(3) != FormalBase(3, fano=True)
    assert FormalBase(3) != FormalBase(3, ("M",))
    assert FormalBase(2) != ProjectiveSpaceBase(2)
    assert ProjectiveSpaceBase(3, 4) != ProjectiveSpaceBase(3, 4, "M")
    assert FormalBase(3).ring != FormalBase(2).ring
    assert FormalBase(3).ring != ChowRing(FormalBase(3).ring.symbols, 4)
    assert FormalBase(3).ring != FormalBase(3, ("M",)).ring
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


def test_filled_caches_leave_rings_and_bundles_as_fresh_ones():
    # a ring's factor table, filled as its values are decoded, is kept in a
    # slot that no comparison, hash, repr, copy or pickle reads; a bundle
    # builds c(E) with its roots, so a fresh bundle and every copy of one
    # hold an equal c(E) from construction
    ring, fresh_ring = FormalBase(3).ring, FormalBase(3).ring
    assert not ring._walk[1]
    assert str(ring.sym("L") * ring.sym("c2")) == "L*c2"
    assert ring.sym("L") == ring.sym("L") and ring.sym("c2") == ring.sym("c2")
    assert hash(ring) == hash(fresh_ring)
    assert pickle.dumps(ring) == pickle.dumps(fresh_ring)
    assert ring._walk[1] and not fresh_ring._walk[1]
    assert ring == fresh_ring and repr(ring) == repr(fresh_ring)
    for clone in (copy.copy(ring), copy.deepcopy(ring),
                  pickle.loads(pickle.dumps(ring))):
        assert clone == fresh_ring and repr(clone) == repr(fresh_ring)
        assert not clone._walk[1]
    bundle = weierstrass().bundle
    L = bundle.ring.sym("L")
    chern = bundle._chern
    assert chern == (1 + 2 * L) * (1 + 3 * L)
    assert bundle.total_chern() is chern
    for clone in (weierstrass().bundle, copy.copy(bundle), copy.deepcopy(bundle),
                  pickle.loads(pickle.dumps(bundle))):
        assert clone._chern == chern and clone.total_chern() is clone._chern
        assert clone._chern.ring == clone.ring
        assert clone == bundle and repr(clone) == repr(bundle)
    with pytest.raises(TypeError):
        hash(bundle)  # ChowPoly roots are unhashable


def run_the_weierstrass_job(parsed):
    """The Weierstrass job through the library's routes, over a formal base
    and over P^3, its classes rendered three ways, and through the CLI's
    job runner for each parsed command line in ``parsed``; nothing it builds
    is kept."""
    hyp, base = weierstrass(), FormalBase(3)
    pieces = svw_components(hyp, base)
    classes = [q_class(hyp), q_class_display(hyp),
               expand_ratio(*q_rational(hyp)), *pieces]
    p3 = ProjectiveSpaceBase(3, 4)
    ell = 4 * p3.hyperplane()
    concrete = HypersurfaceSpec.from_roots(3, 6 * ell,
                                           [p3.ring.zero, 2 * ell, 3 * ell])
    assert euler_characteristic(concrete, p3) == 23328
    assert p3.integrate(specialize(pieces[2], p3)) == 23328
    for value in classes:
        assert to_text(value) and to_latex(value) and json.dumps(class_to_json(value))
    for args in parsed:
        # compact: the standard library's indenting encoder is cyclic itself
        result = cli._run(cli._load_config(args))
        assert json.dumps(cli._json_result(result))
        assert cli._text_result(result, "text") and cli._text_result(result, "latex")


def test_a_job_leaves_nothing_for_the_cycle_collector():
    # no value points back at itself, its ring or its job, so with the
    # collector off all a finished job built is freed by reference counts;
    # the parser, which is cyclic, is built before the collector stops
    job = str(ROOT / "demos" / "weierstrass.json")
    argv = [[command, "--config", job] for command in ("qclass", "euler", "svw", "epoly")]
    argv.append(["push", "--config", job, "--class", "H^3/(1+L) + L^2/(1+L)"])
    parsed = [cli._build_parser().parse_args(args) for args in argv]
    gc.collect()
    gc.disable()
    try:
        run_the_weierstrass_job(parsed)
        assert gc.collect() == 0
    finally:
        gc.enable()
