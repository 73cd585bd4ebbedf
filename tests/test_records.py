"""The package's immutable records: symbols, expression nodes and the
Fermat-type family with its strata.  They compare and hash by their fields,
print as constructor calls, refuse assignment, and load without
``dataclasses`` (or ``inspect``) on the import path."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from relchern import FermatFamily, FormalBase, StratumData, Symbol
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
