"""The names the package exports, and the ones the benchmark's jobs call.

``perfbench/workloads.py`` reaches the library only through ``rc.<name>``
attributes of the package; a name removed from the package would break the
benchmark's jobs without failing any other test here.
"""

import pathlib
import re

import pytest

import relchern as rc

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
