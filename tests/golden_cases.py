"""Golden outputs: exact text, LaTeX and JSON renderings on the anchor jobs.

``tests/test_golden.py`` recomputes these outputs and compares them byte for
byte with ``tests/data/golden.json`` and with the demo transcripts under
``tests/data/demos``, and compares the sha256 digests of the renderings of
wide jobs, whose keys have fields of 7 to 9 bits, with
``tests/data/render_digests.json``.  Regenerate the files only from a tree
whose outputs are known to be right::

    PYTHONPATH=src python3 -m tests.golden_cases            # all of them
    PYTHONPATH=src python3 -m tests.golden_cases digests    # the digests only
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

from relchern import (BundleSpec, FermatFamily, FormalBase, HypersurfaceSpec,
                      q_class, q_class_display, relative_chern_class,
                      svw_components)
from relchern.cli import main
from relchern.render import class_to_json, to_latex, to_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
GOLDEN = os.path.join(DATA, "golden.json")
DIGESTS = os.path.join(DATA, "render_digests.json")
DEMOS = os.path.join(ROOT, "demos")


def _weierstrass(dim):
    base = FormalBase(dim)
    L = base.ring.sym("L")
    bundle = BundleSpec([base.ring.zero, 2 * L, 3 * L])
    return base, HypersurfaceSpec(3, 6 * L, bundle)


def _m3(dim):
    base = FormalBase(dim, divisors=("L", "M", "N"))
    L, M, N = (base.ring.sym(n) for n in "LMN")
    bundle = BundleSpec([base.ring.zero, L, M, N, L + M])
    return base, HypersurfaceSpec(4, 2 * L + M, bundle)


def _m4(dim):
    base = FormalBase(dim, divisors=("A", "B", "C", "D"))
    A, B, C, D = (base.ring.sym(n) for n in "ABCD")
    bundle = BundleSpec([base.ring.zero, A, B, C, D, A + B])
    return base, HypersurfaceSpec(3, A + C, bundle)


def _fermat(n, d, dim=3):
    family = FermatFamily(n, d, dim)
    base = family.formal_base()
    return base, family.hypersurface(base)


def _four_divisors(dim):
    # four divisors, the root B three times over
    base = FormalBase(dim, divisors=("A", "B", "C", "D"))
    A, B, C, D = (base.ring.sym(n) for n in "ABCD")
    roots = [base.ring.zero, A, B, C, D, A + B, (B, 2)]
    return base, HypersurfaceSpec.from_roots(3, A + C, roots)


def anchors():
    """``(case id, base, hypersurface)`` for every ROADMAP anchor."""
    cases = [(f"weierstrass-d{dim}", *_weierstrass(dim)) for dim in (3, 7)]
    cases += [(f"M3-d{dim}", *_m3(dim)) for dim in (3, 5)]
    cases.append(("M4-d4", *_m4(4)))
    cases += [(f"fermat-n{n}-d{d}", *_fermat(n, d))
              for n in (2, 3, 4) for d in (2, 3, 4)]
    return cases


def renderings(cls):
    return {"text": to_text(cls), "latex": to_latex(cls),
            "json": json.dumps(class_to_json(cls))}


def case_outputs(base, hyp):
    return {
        "q_class": renderings(q_class(hyp)),
        "q_class_display": renderings(q_class_display(hyp)),
        "relative_chern_class": renderings(relative_chern_class(hyp, base)),
        "svw_components": [renderings(c) for c in svw_components(hyp, base)],
    }


WEIERSTRASS_JOB = {
    "base": {"kind": "formal", "dim": 3, "fano": True},
    "bundle": {"roots": [{"form": {}}, {"form": {"L": 2}}, {"form": {"L": 3}}]},
    "hypersurface": {"degree": 3, "beta": {"L": 6}},
}

M3_JOB = {
    "base": {"kind": "formal", "dim": 3, "divisors": ["L", "M", "N"]},
    "bundle": {"roots": [{"form": {}}, {"form": {"L": 1}}, {"form": {"M": 1}},
                         {"form": {"N": 1}}, {"form": {"L": 1, "M": 1}}]},
    "hypersurface": {"degree": 4, "beta": {"L": 2, "M": 1}},
}

PROJECTIVE_JOB = {
    "base": {"kind": "projective", "dim": 3, "bind": {"L": 4}},
    "bundle": {"roots": [{"form": {}}, {"form": {"L": 2}}, {"form": {"L": 3}}]},
    "hypersurface": {"degree": 3, "beta": {"L": 6}},
}

FERMAT_JOB = {
    "base": {"kind": "formal", "dim": 3},
    "bundle": {"roots": [{"form": {}}, {"form": {"L": 1}, "mult": 2}]},
    "hypersurface": {"degree": 3, "beta": {"L": 3}},
}

# (case id, job, extra arguments); every case runs in text and json format
CLI_CASES = (
    ("qclass-weierstrass", WEIERSTRASS_JOB, ("qclass",)),
    ("svw-weierstrass", WEIERSTRASS_JOB, ("svw",)),
    ("euler-weierstrass", WEIERSTRASS_JOB, ("euler",)),
    ("svw-m3", M3_JOB, ("svw",)),
    ("push-m3", M3_JOB, ("push", "--class", "(H+L)^4*(1+M)/(1-N)")),
    ("push-fraction", M3_JOB, ("push", "--class", "H^5*(L+M)^2/(2-4)")),
    ("euler-projective", PROJECTIVE_JOB, ("euler",)),
    ("svw-projective", PROJECTIVE_JOB, ("svw",)),
    ("csm-check-fermat", FERMAT_JOB, ("csm-check",)),
    ("epoly-fermat", FERMAT_JOB, ("epoly",)),
)


def cli_outputs():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case_id, job, argv in CLI_CASES:
            path = os.path.join(tmp, f"{case_id}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(job, handle)
            for fmt in ("text", "json"):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main([*argv, "--config", path, "--format", fmt])
                out[f"{case_id}/{fmt}"] = {"exit": code,
                                           "stdout": stdout.getvalue()}
    return out


def golden_outputs():
    return {"anchors": {case_id: case_outputs(base, hyp)
                        for case_id, base, hyp in anchors()},
            "cli": cli_outputs()}


def demo_names():
    return sorted(name[:-3] for name in os.listdir(DEMOS)
                  if name.endswith(".py"))


def demo_stdout(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name + ".py")],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return proc.stdout


def digest_cases():
    """``(case id, base, hypersurface)`` for the wide jobs whose ``svw``
    pieces are pinned by digest: the Weierstrass anchor on either side of
    the 7- to 8-bit and 8- to 9-bit field widths, four divisors with a
    repeated root, and a Fermat grid point at dim 40."""
    cases = [(f"weierstrass-d{dim}", *_weierstrass(dim))
             for dim in (63, 64, 127, 128)]
    cases.append(("four-divisors-d8", *_four_divisors(8)))
    cases.append(("fermat-n3-d4-d40", *_fermat(3, 4, 40)))
    return cases


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# the CLI's svw on the demo job at a trunc whose fields are 9 bits wide, in
# every format: its stdout, as the stdlib-only CI job also checks it
CLI_DIGEST_ID = "svw-weierstrass-trunc128"
CLI_DIGEST_ARGV = ("svw", "--config", os.path.join(DEMOS, "weierstrass.json"),
                   "--trunc", "128")


def render_digests():
    pieces = {case_id: [{name: sha256(text)
                         for name, text in renderings(piece).items()}
                        for piece in svw_components(hyp, base)]
              for case_id, base, hyp in digest_cases()}
    cli = {}
    for fmt in ("text", "latex", "json"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*CLI_DIGEST_ARGV, "--format", fmt])
        if code:
            raise RuntimeError(f"svw --format {fmt} exited {code}")
        cli[fmt] = sha256(stdout.getvalue())
    return {"pieces": pieces, "cli": {CLI_DIGEST_ID: cli}}


def write_digests():
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(render_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")


def write_all():
    os.makedirs(os.path.join(DATA, "demos"), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden_outputs(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name in demo_names():
        path = os.path.join(DATA, "demos", name + ".out")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(demo_stdout(name))
    write_digests()


if __name__ == "__main__":
    if sys.argv[1:] == ["digests"]:
        write_digests()
    else:
        write_all()
