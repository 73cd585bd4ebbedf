"""Byte-for-byte output pins: anchor renderings, CLI documents and demos,
and the sha256 digests of wide renderings.

The expected bytes live in ``tests/data`` and were produced by
``tests/golden_cases.py``; a speed-up of the ring or the pushforward routes
must leave every one of them unchanged.
"""

import json

import pytest

from tests import golden_cases

with open(golden_cases.GOLDEN, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

ANCHORS = {case_id: (base, hyp)
           for case_id, base, hyp in golden_cases.anchors()}


def test_golden_file_covers_every_anchor():
    assert sorted(GOLDEN["anchors"]) == sorted(ANCHORS)


@pytest.mark.parametrize("case_id", sorted(ANCHORS))
def test_anchor_outputs_match(case_id):
    base, hyp = ANCHORS[case_id]
    assert golden_cases.case_outputs(base, hyp) == GOLDEN["anchors"][case_id]


def test_cli_outputs_match():
    assert golden_cases.cli_outputs() == GOLDEN["cli"]


@pytest.mark.parametrize("name", golden_cases.demo_names())
def test_demo_stdout_matches(name):
    path = f"{golden_cases.DATA}/demos/{name}.out"
    with open(path, encoding="utf-8") as handle:
        expected = handle.read()
    assert golden_cases.demo_stdout(name) == expected


def test_render_digests_match():
    # the svw pieces of the wide jobs have keys of 7-, 8- and 9-bit fields,
    # where golden.json's jobs stop at 4 bits; the CLI's svw at trunc 128
    with open(golden_cases.DIGESTS, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert golden_cases.render_digests() == expected
