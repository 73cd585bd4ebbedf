"""The names the package exports, and the ones the benchmark's jobs call.

``perfbench/workloads.py`` reaches the library only through ``rc.<name>``
attributes of the package; a name removed from the package would break the
benchmark's jobs without failing any other test here.
"""

import pathlib
import re

import pytest

import relchern as rc

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
PACKAGE = ROOT / "src" / "relchern"
# an attribute that reads how ring.py packs a monomial into an integer key
KEY_LAYOUT = re.compile(r"\._(mask|unit|shift|bits|guard|by_field|degrees)\b")


def _workload_references():
    text = WORKLOADS.read_text(encoding="utf-8")
    return sorted(set(re.findall(r"\brc\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text)))


@pytest.mark.parametrize("name", rc.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(rc, name)


def test_workloads_reference_the_package():
    assert "import relchern as rc" in WORKLOADS.read_text(encoding="utf-8")
    assert len(_workload_references()) > 10


@pytest.mark.parametrize("path", _workload_references())
def test_benchmark_names_exist(path):
    owner = rc
    for part in path.split("."):
        assert hasattr(owner, part), f"relchern.{path} is missing"
        owner = getattr(owner, part)


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "ring.py"))
def test_only_ring_reads_the_key_layout(name):
    lines = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
    hits = [f"{name}:{i}: {line.strip()}" for i, line in enumerate(lines, 1)
            if KEY_LAYOUT.search(line)]
    assert not hits, "\n".join(hits)
