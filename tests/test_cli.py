"""End-to-end CLI contract: configs in, documents out, exit codes."""

import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relchern import (BundleSpec, ChowPoly, FermatFamily, FormalBase,
                      HypersurfaceSpec, ProjClass, class_to_json, q_class,
                      relative_chern_class, to_text)
from relchern import cli
from relchern import ring as ring_module
from relchern.cli import main
from relchern.expressions import (BinOp, Neg, Pow, Sym, evaluate,
                                  parse_class_expr, render_expr)
from relchern.pushforward import normalize_twist, pushforward_series
from relchern.render import all_digits as lifted_digit_limit
from tests import golden_cases
from tests.randgen import random_expr

ROOT = pathlib.Path(__file__).resolve().parents[1]
WEIERSTRASS_JOB_FILE = ROOT / "demos" / "weierstrass.json"

WEIERSTRASS_FORMAL = {
    "base": {"kind": "formal", "dim": 3},
    "bundle": {"roots": [{"form": {}},
                         {"form": {"L": 2}},
                         {"form": {"L": 3}}]},
    "hypersurface": {"degree": 3, "beta": {"L": 6}},
}

CUBIC_FAMILY_DIM2 = {
    "base": {"kind": "formal", "dim": 2},
    "bundle": {"roots": [{"form": {}},
                         {"form": {"L": 1}, "mult": 2}]},
    "hypersurface": {"degree": 3, "beta": {"L": 3}},
}


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qclass_text(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, out, err = run_cli(capsys, ["qclass", "--config", cfg])
    assert code == 0 and err == ""
    assert out.strip() == "12*L - 72*L^2 + 432*L^3"


def test_qclass_latex(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, out, _ = run_cli(capsys, ["qclass", "--config", cfg,
                                    "--format", "latex"])
    assert code == 0
    assert out.strip() == "12 L - 72 L^{2} + 432 L^{3}"


def test_qclass_json_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, out, _ = run_cli(capsys, ["qclass", "--config", cfg,
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "qclass"
    assert doc["result"]["class"] == [
        {"codim": 1, "terms": [{"monomial": {"L": 1},
                                "coeff": {"numerator": "12", "denominator": "1"}}]},
        {"codim": 2, "terms": [{"monomial": {"L": 2},
                                "coeff": {"numerator": "-72", "denominator": "1"}}]},
        {"codim": 3, "terms": [{"monomial": {"L": 3},
                                "coeff": {"numerator": "432", "denominator": "1"}}]},
    ]


def test_trunc_flag_extends_the_expansion(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, out, _ = run_cli(capsys, ["qclass", "--config", cfg, "--trunc", "6"])
    assert code == 0
    assert out.strip() == ("12*L - 72*L^2 + 432*L^3 - 2592*L^4 "
                           "+ 15552*L^5 - 93312*L^6")


def projective_weierstrass(dim, multiple):
    return {
        "base": {"kind": "projective", "dim": dim, "bind": {"L": multiple}},
        "bundle": WEIERSTRASS_FORMAL["bundle"],
        "hypersurface": WEIERSTRASS_FORMAL["hypersurface"],
    }


def test_euler_integers(tmp_path, capsys):
    cfg3 = write_config(tmp_path, projective_weierstrass(3, 4), "p3.json")
    code, out, _ = run_cli(capsys, ["euler", "--config", cfg3])
    assert (code, out.strip()) == (0, "23328")
    cfg2 = write_config(tmp_path, projective_weierstrass(2, 3), "p2.json")
    code, out, _ = run_cli(capsys, ["euler", "--config", cfg2])
    assert (code, out.strip()) == (0, "-540")


def test_euler_json_document(tmp_path, capsys):
    cfg = write_config(tmp_path, projective_weierstrass(3, 4))
    code, out, _ = run_cli(capsys, ["euler", "--config", cfg,
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"euler_characteristic": "23328"}


def test_euler_formal_symbolic(tmp_path, capsys):
    payload = dict(WEIERSTRASS_FORMAL)
    payload["base"] = {"kind": "formal", "dim": 3, "fano": True}
    cfg = write_config(tmp_path, payload)
    code, out, _ = run_cli(capsys, ["euler", "--config", cfg])
    assert code == 0
    assert out.strip() == "360*c1^3 + 12*c1*c2"


def test_svw_text_and_json(tmp_path, capsys):
    payload = dict(WEIERSTRASS_FORMAL)
    payload["base"] = {"kind": "formal", "dim": 3, "fano": True}
    cfg = write_config(tmp_path, payload)
    code, out, _ = run_cli(capsys, ["svw", "--config", cfg])
    assert code == 0
    assert out.splitlines() == [
        "codim 1: 12*c1",
        "codim 2: -60*c1^2",
        "codim 3: 360*c1^3 + 12*c1*c2",
    ]
    code, out, _ = run_cli(capsys, ["svw", "--config", cfg, "--format", "json"])
    doc = json.loads(out)
    assert [c["codim"] for c in doc["result"]["components"]] == [1, 2, 3]


def test_push_matches_qclass(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    expr = "(1+H)*(1+H+2*L)*(1+H+3*L)*(3*H+6*L)/(1+3*H+6*L)"
    code, out, _ = run_cli(capsys, ["push", "--config", cfg, "--class", expr])
    assert code == 0
    assert out.strip() == "12*L - 72*L^2 + 432*L^3"
    # at --trunc 40 the projectivization is 42-dimensional, so the products
    # and the division are cut by ambient_dim - n, not only by the base bound
    wide = ["--config", cfg, "--trunc", "40"]
    code, out, _ = run_cli(capsys, ["push", *wide, "--class", expr])
    assert code == 0
    assert (0, out, "") == run_cli(capsys, ["qclass", *wide])


def test_a_fano_job_computes_in_c1_from_the_start(tmp_path, capsys,
                                                  monkeypatch):
    # the fano binding happens when the job is read: no class is rewritten
    # after it is computed, and the output is what it always was
    job = json.loads(WEIERSTRASS_JOB_FILE.read_text(encoding="utf-8"))
    weierstrass = str(WEIERSTRASS_JOB_FILE)
    fermat = write_config(tmp_path, dict(CUBIC_FAMILY_DIM2, base=job["base"]))
    q = "12*c1 - 72*c1^2 + 432*c1^3"
    cases = [
        (["qclass", "--config", weierstrass], q),
        (["euler", "--config", weierstrass], "360*c1^3 + 12*c1*c2"),
        (["svw", "--config", weierstrass],
         "codim 1: 12*c1\ncodim 2: -60*c1^2\ncodim 3: 360*c1^3 + 12*c1*c2"),
        (["push", "--config", weierstrass, "--class",
          "(1+H)*(1+H+2*L)*(1+H+3*L)*(3*H+6*L)/(1+3*H+6*L)"], q),
        (["csm-check", "--config", fermat], "EQUAL"),
    ]
    docs = [run_cli(capsys, argv + ["--format", "json"]) for argv, _ in cases]

    def refuse(*args):
        raise AssertionError("a computed class was rewritten")

    monkeypatch.setattr(FormalBase, "apply_binding", refuse)
    monkeypatch.setattr(ChowPoly, "rewrite", refuse)
    for (argv, text), doc in zip(cases, docs):
        assert run_cli(capsys, argv) == (0, text + "\n", "")
        assert run_cli(capsys, argv + ["--format", "json"]) == doc
        assert doc[0] == 0 and '"L"' not in doc[1]


# the same job twice: roots L, 3L, 4L (twice) with beta 9L, and the same
# roots and beta after the twist by the first root, 0, 2L, 3L (twice) and 6L
UNTWISTED = {
    "base": {"kind": "formal", "dim": 5},
    "bundle": {"roots": [{"form": {"L": 1}}, {"form": {"L": 3}},
                         {"form": {"L": 4}, "mult": 2}]},
    "hypersurface": {"degree": 3, "beta": {"L": 9}},
}
PRE_TWISTED = {
    "base": {"kind": "formal", "dim": 5},
    "bundle": {"roots": [{"form": {}}, {"form": {"L": 2}},
                         {"form": {"L": 3}, "mult": 2}]},
    "hypersurface": {"degree": 3, "beta": {"L": 6}},
}
UNTWISTED_CLASS = "H^4 + L*H^3/(1+H)"
PRE_TWISTED_CLASS = "(H-L)^4 + L*(H-L)^3/(1+H-L)"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_job_with_a_nonzero_first_root_matches_its_twist(tmp_path, capsys,
                                                           fmt):
    untwisted = write_config(tmp_path, UNTWISTED, "untwisted.json")
    twisted = write_config(tmp_path, PRE_TWISTED, "twisted.json")
    for command in ("qclass", "euler", "svw", "epoly"):
        result = run_cli(capsys, [command, "--config", untwisted, "--format", fmt])
        assert result[0] == 0
        assert result == run_cli(capsys, [command, "--config", twisted,
                                          "--format", fmt])
    result = run_cli(capsys, ["push", "--config", untwisted, "--format", fmt,
                              "--class", UNTWISTED_CLASS])
    assert result[0] == 0 and result[1].strip() not in ("0", "")
    assert result == run_cli(capsys, ["push", "--config", twisted, "--format",
                                      fmt, "--class", PRE_TWISTED_CLASS])


def test_the_cli_runs_no_generic_projclass_product_outside_push(tmp_path,
                                                                capsys,
                                                                monkeypatch):
    cfg = write_config(tmp_path, UNTWISTED)
    argvs = [[command, "--config", cfg] for command in
             ("qclass", "euler", "svw", "epoly")]
    push = ["push", "--config", cfg, "--class", UNTWISTED_CLASS]
    expected = [run_cli(capsys, argv) for argv in argvs + [push]]

    def refuse(*args):
        raise AssertionError("a generic ProjClass product ran")

    # push evaluates its expression by ProjClass arithmetic; the other
    # commands run no ProjClass product
    monkeypatch.setattr(ProjClass, "__mul__", refuse)
    monkeypatch.setattr(ProjClass, "__rmul__", refuse)
    assert [run_cli(capsys, argv) for argv in argvs] == expected[:-1]
    assert all(code == 0 for code, _, _ in expected)


# four push jobs: a fano formal base; a formal base with two divisors and a
# nonzero first root; a projective base with L bound to 2h and a nonzero
# first root; and an unbound projective base, where L is an unknown name
PUSH_JOBS = {
    "weierstrass": json.loads(WEIERSTRASS_JOB_FILE.read_text(encoding="utf-8")),
    "formal-two-divisors": {
        "base": {"kind": "formal", "dim": 3, "divisors": ["L", "M"]},
        "bundle": {"roots": [{"form": {"L": 1}}, {"form": {"M": 2}},
                             {"form": {"L": 1, "M": -1}, "mult": 2}]},
    },
    "projective-bound": {
        "base": {"kind": "projective", "dim": 3, "bind": {"L": 2}},
        "bundle": {"roots": [{"form": {"L": 1}}, {"form": {"h": 1}},
                             {"form": {"h": -1}}]},
    },
    "projective-unbound": {
        "base": {"kind": "projective", "dim": 2},
        "bundle": {"roots": [{"form": {"h": 1}}, {"form": {"h": 3}, "mult": 2}]},
    },
}
# on a projective base the pool's M and c1 read as h, so its one class is used
PROJECTIVE_NAMES = {"M": "h", "c1": "h"}
ZERO_JSON = json.dumps({"command": "push", "result": {"class": []}}, indent=2) + "\n"


def renamed(node, names):
    """The tree ``node`` with each symbol renamed through ``names``."""
    if isinstance(node, Sym):
        return Sym(names.get(node.name, node.name))
    if isinstance(node, Neg):
        return Neg(renamed(node.operand, names))
    if isinstance(node, Pow):
        return Pow(renamed(node.base, names), node.exponent)
    if isinstance(node, BinOp):
        return BinOp(node.op, renamed(node.left, names),
                     renamed(node.right, names))
    return node


def run_lifting_every_name(cfg, run=cli._run):
    """``cli._run`` with a push class evaluated on P(E) throughout: every
    name lifted by ``ProjClass.from_base`` and every literal by
    ``ProjClass.constant``.  ``run``, bound when this is defined, is the
    unpatched ``cli._run`` for the other commands."""
    if cfg["command"] != "push":
        return run(cfg)
    cli._require(isinstance(cfg["class"], str) and cfg["class"].strip(),
                 "push needs a class expression (--class or config 'class')")
    base = cli._build_base(cfg)
    names = cli._names(base)
    bundle, h = normalize_twist(cli._build_roots(cfg, base, names))
    env = {name: ProjClass.from_base(bundle, cls) for name, cls in names.items()}
    env["H"] = h
    value = evaluate(parse_class_expr(cfg["class"]), env,
                     lambda v: ProjClass.constant(bundle, v))
    return {"class": pushforward_series(value)}


@pytest.mark.parametrize("job", sorted(PUSH_JOBS))
def test_push_lifting_only_h_matches_lifting_every_name(tmp_path, capsys,
                                                        monkeypatch, job):
    cfg = write_config(tmp_path, PUSH_JOBS[job])
    names = PROJECTIVE_NAMES if job.startswith("projective") else {}
    rng = random.Random(f"push-lift-{job}")
    codes, pushed = set(), 0
    for trial in range(150):
        tree = renamed(random_expr(rng, depth=4), names)
        if trial % 2:  # H^3 times the class, which then pushes to nonzero
            tree = BinOp("*", Pow(Sym("H"), 3), tree)
        expr = render_expr(tree)
        for fmt in ("text", "json"):
            argv = ["push", "--config", cfg, f"--class={expr}", "--format", fmt]
            got = run_cli(capsys, argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_run", run_lifting_every_name)
                assert got == run_cli(capsys, argv), (trial, expr, fmt)
            codes.add(got[0])
            pushed += got[0] == 0 and got[1] not in ("0\n", ZERO_JSON)
    # the battery reaches nonzero pushes and refusals
    assert codes == {0, 2} and pushed >= 40


def test_push_lifts_only_h_to_the_projectivization(tmp_path, capsys,
                                                   monkeypatch):
    # at --trunc 200 a class on P(E) of the demo job has 203 coefficients in
    # H; a base subexpression stays in the base ring, and dividing H^3 by a
    # base unit runs the divider once per coefficient of H^3
    argv = ["push", "--config", str(WEIERSTRASS_JOB_FILE), "--trunc", "200",
            "--class"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_run", run_lifting_every_name)
        expected = [run_cli(capsys, argv + [expr])
                    for expr in ("L^2/(1+L)", "H^3/(1+L)")]
    calls = {"from_base": 0, "truediv": 0, "divide_unit": 0}
    from_base, truediv = ProjClass.from_base.__func__, ProjClass.__truediv__
    divide_unit = ring_module._divide_unit

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ProjClass, "from_base",
                        classmethod(counted("from_base", from_base)))
    monkeypatch.setattr(ProjClass, "__truediv__", counted("truediv", truediv))
    monkeypatch.setattr(ring_module, "_divide_unit",
                        counted("divide_unit", divide_unit))
    assert run_cli(capsys, argv + ["L^2/(1+L)"]) == expected[0] == (0, "0\n", "")
    assert calls["from_base"] <= 1 and calls["truediv"] == 0
    calls.update(dict.fromkeys(calls, 0))
    assert run_cli(capsys, argv + ["H^3/(1+L)"]) == expected[1]
    # 4 quotient coefficients, and 1/c(E) for the push
    assert calls["divide_unit"] == 5 and calls["truediv"] == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_projective_binding_of_h_is_refused(tmp_path, capsys, fmt):
    payload = json.loads(WEIERSTRASS_JOB_FILE.read_text(encoding="utf-8"))
    payload["base"] = {"kind": "projective", "dim": 2, "bind": {"h": 3}}
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(capsys, ["euler", "--config", cfg,
                                      "--format", fmt])
    message = "h is the hyperplane class; it cannot be bound"
    assert (code, err) == (2, f"error: {message}\n")
    if fmt == "json":
        assert json.loads(out)["error"] == {
            "exit_code": 2, "type": "ValidationError", "message": message}
    else:
        assert out == ""
    payload["base"]["bind"] = {"H": 3}  # the reserved name keeps its message
    code, _, err = run_cli(capsys, ["euler", "--config",
                                    write_config(tmp_path, payload)])
    assert (code, err) == (2, "error: the divisor name H is reserved\n")


def test_push_simple_powers(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, out, _ = run_cli(capsys, ["push", "--config", cfg, "--class", "H^2"])
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run_cli(capsys, ["push", "--config", cfg, "--class", "H"])
    assert (code, out.strip()) == (0, "0")


def test_push_requires_expression(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, _, err = run_cli(capsys, ["push", "--config", cfg])
    assert code == 2 and "class expression" in err


def test_csm_check_reports_equal(tmp_path, capsys):
    cfg = write_config(tmp_path, CUBIC_FAMILY_DIM2)
    code, out, _ = run_cli(capsys, ["csm-check", "--config", cfg])
    assert (code, out.strip()) == (0, "EQUAL")
    code, out, _ = run_cli(capsys, ["csm-check", "--config", cfg,
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"] == {"equal": True}


def test_csm_check_rejects_other_shapes(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, _, err = run_cli(capsys, ["csm-check", "--config", cfg])
    assert code == 2 and "O + L^n" in err


def test_csm_check_needs_degree_two(tmp_path, capsys):
    payload = {"base": {"kind": "formal", "dim": 2},
               "bundle": {"roots": [{"form": {}}, {"form": {"L": 1}}]},
               "hypersurface": {"degree": 1, "beta": {"L": 1}}}
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(capsys, ["csm-check", "--config", cfg])
    assert (code, out) == (2, "")
    assert err == "error: csm-check needs degree at least 2\n"


def test_csm_check_reports_a_disagreement(tmp_path, capsys, monkeypatch):
    stratified = FermatFamily.chern_by_strata
    monkeypatch.setattr(FermatFamily, "chern_by_strata",
                        lambda self, base: stratified(self, base)
                        + base.ring.sym("L") ** 2)
    base = FormalBase(2)
    L = base.ring.sym("L")
    hyp = HypersurfaceSpec(3, 3 * L, BundleSpec([base.ring.zero, (L, 2)]))
    right = relative_chern_class(hyp, base)
    left = right + L ** 2
    cfg = write_config(tmp_path, CUBIC_FAMILY_DIM2)
    code, out, _ = run_cli(capsys, ["csm-check", "--config", cfg])
    assert code == 0
    assert out == ("NOT EQUAL\n"
                   f"stratified:  {to_text(left)}\n"
                   f"pushforward: {to_text(right)}\n"
                   "difference:  L^2\n")
    code, out, _ = run_cli(capsys, ["csm-check", "--config", cfg,
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"] == {
        "equal": False, "stratified": class_to_json(left),
        "pushforward": class_to_json(right),
        "difference": class_to_json(L ** 2)}


def test_epoly(tmp_path, capsys):
    cfg = write_config(tmp_path, CUBIC_FAMILY_DIM2)
    code, out, _ = run_cli(capsys, ["epoly", "--config", cfg])
    assert (code, out.strip()) == (0, "0")  # elliptic fibers
    cfg2 = write_config(tmp_path, WEIERSTRASS_FORMAL, "w.json")
    code, out, _ = run_cli(capsys, ["epoly", "--config", cfg2])
    assert (code, out.strip()) == (0, "0")


def test_stdin_config(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(WEIERSTRASS_FORMAL)))
    code, out, _ = run_cli(capsys, ["qclass", "--config", "-"])
    assert (code, out.strip()) == (0, "12*L - 72*L^2 + 432*L^3")


def test_validation_failures_exit_2(tmp_path, capsys):
    bad = dict(WEIERSTRASS_FORMAL)
    bad["bundle"] = {"roots": [{"form": {}}, {"form": {"Q": 1}}]}
    cfg = write_config(tmp_path, bad)
    code, out, err = run_cli(capsys, ["qclass", "--config", cfg])
    assert code == 2 and "unknown symbol" in err and out == ""
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["qclass", "--config", str(broken)])
    assert code == 2
    code, _, err = run_cli(capsys, ["qclass", "--config",
                                    str(tmp_path / "missing.json")])
    assert code == 2


def test_nonunit_denominator_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, _, err = run_cli(capsys, ["push", "--config", cfg,
                                    "--class", "1/(2+L)"])
    assert code == 2 and "constant term 1" in err


def test_json_error_object(tmp_path, capsys):
    payload = dict(WEIERSTRASS_FORMAL)
    payload["format"] = "json"
    payload["integrate"] = True
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(capsys, ["euler", "--config", cfg])
    assert code == 3 and err.startswith("error:")
    doc = json.loads(out)
    assert doc["error"]["exit_code"] == 3
    assert doc["error"]["type"] == "ModeError"


def test_unknown_config_command_rejected(tmp_path, capsys):
    payload = dict(WEIERSTRASS_FORMAL)
    payload["command"] = "frobnicate"
    cfg = write_config(tmp_path, payload)
    code, _, err = run_cli(capsys, ["qclass", "--config", cfg])
    assert code == 2 and "not a command" in err


def test_config_command_is_advisory(tmp_path, capsys):
    # one saved job file can drive several subcommands
    payload = dict(WEIERSTRASS_FORMAL)
    payload["command"] = "euler"
    cfg = write_config(tmp_path, payload)
    code, out, _ = run_cli(capsys, ["qclass", "--config", cfg])
    assert (code, out.strip()) == (0, "12*L - 72*L^2 + 432*L^3")


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, projective_weierstrass(3, 4))
    proc = subprocess.run([sys.executable, "-m", "relchern", "euler",
                           "--config", cfg],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "23328"


# how a process reaches the entry: python -m relchern, and the console
# script, which imports its [project.scripts] target and exits with what it
# returns. An atexit hook reports the collector's freeze count on stderr.
_SCRIPT_TARGET = re.search(
    r'^relchern = "([\w.]+):(\w+)"$',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M).groups()
_LAUNCHERS = {
    "module": 'runpy.run_module("relchern", run_name="__main__")',
    "script": "sys.exit(getattr(importlib.import_module({!r}), {!r})())".format(
        *_SCRIPT_TARGET),
}
_FREEZE_PROBE = """\
import atexit, gc, importlib, runpy, sys
atexit.register(lambda: print("freeze count", gc.get_freeze_count(), file=sys.stderr))
"""


@pytest.mark.parametrize("launcher", sorted(_LAUNCHERS))
@pytest.mark.parametrize("argv, exit_code", [
    (["qclass", "--config", str(WEIERSTRASS_JOB_FILE)], 0),
    (["qclass", "--config", str(WEIERSTRASS_JOB_FILE), "--format", "json"], 0),
    (["qclass", "--config", "{tmp}/missing.json", "--format", "json"], 2),
    (["euler", "--config", "{tmp}/integrate.json"], 3),
    (["qclass", "--config", str(WEIERSTRASS_JOB_FILE), "--bogus"], 2),
], ids=["text", "json", "missing-config", "formal-integrate", "unknown-option"])
def test_the_process_entry_freezes_the_collector_after_the_job(
        tmp_path, capsys, launcher, argv, exit_code):
    # the entry ends the process with the collector frozen, whatever the exit
    # path (argparse's SystemExit included), and prints what cli.main prints
    write_config(tmp_path, {**WEIERSTRASS_FORMAL, "integrate": True},
                 "integrate.json")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    try:
        expected = run_cli(capsys, argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        expected = exc.code, captured.out, captured.err
    assert expected[0] == exit_code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE + _LAUNCHERS[launcher], *argv],
        env=env, capture_output=True, text=True, timeout=60)
    *err, probe = proc.stderr.splitlines(keepends=True)
    assert (proc.returncode, proc.stdout, "".join(err)) == expected, proc.stderr
    assert re.fullmatch(r"freeze count [1-9][0-9]*\n", probe), proc.stderr


def test_committed_weierstrass_job_is_the_golden_one():
    job = json.loads(WEIERSTRASS_JOB_FILE.read_text(encoding="utf-8"))
    assert job == golden_cases.WEIERSTRASS_JOB


def test_qclass_at_a_large_trunc_is_fast():
    # Q comes from one rational expression, not from a pushforward of a
    # class 2000 + 3 coefficients wide
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "relchern", "qclass",
                           "--config", str(WEIERSTRASS_JOB_FILE),
                           "--trunc", "2000", "--format", "json"],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and proc.stderr == ""
    pieces = json.loads(proc.stdout)["result"]["class"]
    assert [p["codim"] for p in pieces] == list(range(1, 2001))
    assert elapsed < 10, elapsed


def test_qclass_matches_the_series_route_byte_for_byte(capsys):
    code, out, err = run_cli(capsys, ["qclass", "--config",
                                      str(WEIERSTRASS_JOB_FILE),
                                      "--trunc", "300"])
    base = FormalBase(300, fano=True)
    L = base.ring.sym("L")
    hyp = HypersurfaceSpec(3, 6 * L, BundleSpec([base.ring.zero, 2 * L, 3 * L]))
    assert (code, err) == (0, "")
    assert out == to_text(base.apply_binding(q_class(hyp))) + "\n"


@pytest.mark.parametrize("expr", ["H/0", "H/(2-2)", "(1+L)/(L-L)"])
def test_division_by_the_zero_class_exits_2(tmp_path, capsys, expr):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, out, err = run_cli(capsys, ["push", "--config", cfg, "--class", expr])
    assert (code, out, err) == (2, "", "error: division of a class by zero\n")
    code, out, err = run_cli(capsys, ["push", "--config", cfg, "--class", expr,
                                      "--format", "json"])
    assert code == 2 and err == "error: division of a class by zero\n"
    assert json.loads(out) == {"error": {
        "exit_code": 2, "type": "ZeroDivisionError",
        "message": "division of a class by zero"}}


def test_division_by_the_zero_class_has_no_traceback(tmp_path):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    proc = subprocess.run([sys.executable, "-m", "relchern", "push",
                           "--config", cfg, "--class", "H/0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr


def all_digits(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_exact_integers_print_beyond_the_digit_limit(tmp_path, capsys, fmt):
    # H^2 pushes forward to 1 on a rank-3 bundle, so the class is the
    # 6021-digit integer itself; the interpreter's default limit is 4300
    limit = sys.get_int_max_str_digits()
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, out, err = run_cli(capsys, ["push", "--config", cfg, "--format", fmt,
                                      "--class", "H^2*2^20000"])
    digits = all_digits(2 ** 20000)
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    if fmt == "json":
        assert json.loads(out)["result"]["class"] == [
            {"codim": 0, "terms": [{"monomial": {}, "coeff": {
                "numerator": digits, "denominator": "1"}}]}]
    else:
        assert out == digits + "\n"


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_exact_fractions_print_beyond_the_digit_limit(tmp_path, capsys, fmt):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, out, _ = run_cli(capsys, ["push", "--config", cfg, "--format", fmt,
                                    "--class", "H^2*L*2^20000/3^10000"])
    num, den = all_digits(2 ** 20000), all_digits(3 ** 10000)
    assert code == 0
    if fmt == "json":
        term = json.loads(out)["result"]["class"][0]["terms"][0]
        assert term == {"monomial": {"L": 1},
                        "coeff": {"numerator": num, "denominator": den}}
    elif fmt == "latex":
        assert out == f"\\tfrac{{{num}}}{{{den}}} L\n"
    else:
        assert out == f"{num}/{den}*L\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_job_integers_read_beyond_the_digit_limit(tmp_path, capsys, fmt):
    # a 5001-digit beta coefficient; the interpreter's default limit is 4300
    limit = sys.get_int_max_str_digits()
    big = 7 * 10 ** 5000 + 1
    with lifted_digit_limit():
        payload = json.loads(json.dumps(WEIERSTRASS_FORMAL))
        payload["hypersurface"]["beta"] = {"L": big}
        cfg = write_config(tmp_path, payload)
        base = FormalBase(3)
        L = base.ring.sym("L")
        hyp = HypersurfaceSpec.from_roots(3, big * L,
                                          [base.ring.zero, 2 * L, 3 * L])
        expected = q_class(hyp)
        text, terms = to_text(expected), class_to_json(expected)
    assert len(text) > 5000
    code, out, err = run_cli(capsys, ["qclass", "--config", cfg,
                                      "--format", fmt])
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    if fmt == "json":
        assert json.loads(out)["result"]["class"] == terms
    else:
        assert out == text + "\n"
    # the usage-error path reads the same job for its format
    payload["format"] = "json"
    with lifted_digit_limit():
        cfg = write_config(tmp_path, payload)
    with pytest.raises(SystemExit) as exc:
        main(["qclass", "--config", cfg, "--trunc", "x"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().out)["error"]["exit_code"] == 2
    assert sys.get_int_max_str_digits() == limit


DEEP_JOB = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("where", ["top", "key"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_deeply_nested_job_file_is_a_validation_error(tmp_path, capsys,
                                                        monkeypatch, where,
                                                        source):
    text = DEEP_JOB if where == "top" else '{"base": ' + DEEP_JOB + "}"
    cfg = tmp_path / "deep.json"
    cfg.write_text(text, encoding="utf-8")
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        cfg = "-"
    code, out, err = run_cli(capsys, ["qclass", "--config", str(cfg),
                                      "--format", "json"])
    message = "the job file is nested too deeply"
    assert (code, err) == (2, f"error: {message}\n")
    assert json.loads(out)["error"] == {
        "exit_code": 2, "type": "ValidationError", "message": message}
    # a usage error counts such a job file as unreadable, so as text
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    with pytest.raises(SystemExit) as exc:
        main(["qclass", "--config", str(cfg), "--trunc", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "invalid int value: 'x'" in captured.err


def test_a_deeply_nested_job_file_has_no_traceback(tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text(DEEP_JOB, encoding="utf-8")
    for options in (["--format", "json"], ["--trunc", "x"]):
        proc = subprocess.run([sys.executable, "-m", "relchern", "qclass",
                               "--config", str(cfg)] + options,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        if "json" in options:
            assert json.loads(proc.stdout)["error"]["exit_code"] == 2


def test_a_projective_binding_needs_a_symbol_name(tmp_path, capsys):
    payload = json.loads(WEIERSTRASS_JOB_FILE.read_text(encoding="utf-8"))
    payload["base"] = {"kind": "projective", "dim": 3, "bind": {"1x": 2}}
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(capsys, ["qclass", "--config", cfg,
                                      "--format", "json"])
    assert (code, err) == (2, "error: invalid symbol name '1x'\n")
    assert json.loads(out)["error"]["type"] == "SymbolError"


def test_an_unknown_base_kind_is_a_validation_error(tmp_path, capsys):
    payload = json.loads(WEIERSTRASS_JOB_FILE.read_text(encoding="utf-8"))
    payload["base"] = {"kind": "torus", "dim": 3}
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(capsys, ["qclass", "--config", cfg,
                                      "--format", "json"])
    message = "base.kind must be 'formal' or 'projective'"
    assert (code, err) == (2, f"error: {message}\n")
    assert json.loads(out)["error"] == {
        "exit_code": 2, "type": "ValidationError", "message": message}


FLAT_SUM = "+".join(["H^2"] * 3000)  # H^2 pushes forward to 1 on a rank-3 bundle
DEEP = "(" * 2000 + "H^2" + ")" * 2000


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_long_sums_evaluate_without_recursion(tmp_path, capsys, fmt):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, out, err = run_cli(capsys, ["push", "--config", cfg, "--format", fmt,
                                      f"--class={FLAT_SUM}"])
    assert code == 0 and err == ""
    if fmt == "json":
        assert json.loads(out)["result"]["class"] == [
            {"codim": 0, "terms": [{"monomial": {}, "coeff": {
                "numerator": "3000", "denominator": "1"}}]}]
    else:
        assert out == "3000\n"
    code, out, _ = run_cli(capsys, ["push", "--config", cfg,
                                    "--class=" + "*".join(["(1+L)"] * 3000) + "*H^2"])
    assert (code, out) == (0, "1 + 3000*L + 4498500*L^2 + 4495501000*L^3\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_over_deep_nesting_is_a_parse_error(tmp_path, capsys, fmt):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    code, out, err = run_cli(capsys, ["push", "--config", cfg, "--format", fmt,
                                      f"--class={DEEP}"])
    message = "line 1, column 101: parentheses nested deeper than 100 levels"
    assert code == 2 and err == f"error: {message}\n"
    if fmt == "json":
        assert json.loads(out)["error"] == {"exit_code": 2, "type": "ParseError",
                                            "message": message}
    nested = "(" * 100 + "H^2" + ")" * 100
    code, out, _ = run_cli(capsys, ["push", "--config", cfg, f"--class={nested}"])
    assert (code, out) == (0, "1\n")


@pytest.mark.parametrize("expr, exit_code", [(FLAT_SUM, 0), (DEEP, 2)],
                         ids=["flat-sum", "deep-nesting"])
def test_long_and_deep_expressions_have_no_traceback(tmp_path, expr, exit_code):
    cfg = write_config(tmp_path, WEIERSTRASS_FORMAL)
    proc = subprocess.run([sys.executable, "-m", "relchern", "push",
                           "--config", cfg, f"--class={expr}"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == exit_code and "Traceback" not in proc.stderr


@pytest.mark.parametrize("where, value", [
    ("integrate", "false"), ("integrate", 1), ("integrate", None),
    ("fano", "no"), ("fano", 0), ("fano", "true")])
def test_booleans_must_be_json_booleans(tmp_path, capsys, where, value):
    payload = json.loads(json.dumps(WEIERSTRASS_FORMAL))
    if where == "fano":
        payload["base"]["fano"] = value
    else:
        payload[where] = value
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(capsys, ["euler", "--config", cfg])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must be true or false" in err
    code, out, _ = run_cli(capsys, ["euler", "--config", cfg, "--format", "json"])
    assert code == 2 and json.loads(out)["error"]["type"] == "ValidationError"


def test_json_booleans_keep_their_meaning(tmp_path, capsys):
    payload = json.loads(json.dumps(WEIERSTRASS_FORMAL))
    payload["integrate"] = False
    payload["base"]["fano"] = False
    cfg = write_config(tmp_path, payload)
    code, out, _ = run_cli(capsys, ["euler", "--config", cfg])
    assert (code, out) == (0, "432*L^3 - 72*L^2*c1 + 12*L*c2\n")


# -- render once -------------------------------------------------------------

# (command, job, extra options, whether the stratified route is made to
# disagree): every command, with class and integer results
RENDER_ONCE_JOBS = [
    ("push", WEIERSTRASS_FORMAL, ["--class", "H^3/(1+L)"], False),
    ("qclass", WEIERSTRASS_FORMAL, [], False),
    ("euler", WEIERSTRASS_FORMAL, [], False),
    ("euler", projective_weierstrass(3, 4), [], False),
    ("svw", WEIERSTRASS_FORMAL, [], False),
    ("csm-check", CUBIC_FAMILY_DIM2, [], False),
    ("csm-check", CUBIC_FAMILY_DIM2, [], True),
    ("epoly", WEIERSTRASS_FORMAL, [], False),
]


@pytest.mark.parametrize("fmt, unwanted", [
    ("text", ["class_to_json"]), ("latex", ["class_to_json"]),
    ("json", ["to_text", "to_latex"])])
@pytest.mark.parametrize("command, job, options, disagree", RENDER_ONCE_JOBS)
def test_only_the_requested_format_is_built(tmp_path, capsys, monkeypatch,
                                            fmt, unwanted, command, job,
                                            options, disagree):
    if disagree:
        stratified = FermatFamily.chern_by_strata
        monkeypatch.setattr(FermatFamily, "chern_by_strata",
                            lambda self, base: stratified(self, base)
                            + base.ring.sym("L") ** 2)
    argv = [command, "--config", write_config(tmp_path, job),
            "--format", fmt] + options
    expected = run_cli(capsys, argv)
    assert expected[0] == 0 and expected[1].strip()

    def refuse(*args):
        raise AssertionError(f"{fmt} mode built another format")

    for name in unwanted:
        monkeypatch.setattr(cli, name, refuse)
    assert run_cli(capsys, argv) == expected


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_reader_that_closes_the_pipe_early_leaves_exit_code_0(fmt):
    # about 320 KB of text, far more than a pipe holds: the CLI is still
    # writing when the reader goes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "relchern", "svw", "--config",
         str(WEIERSTRASS_JOB_FILE), "--trunc", "120", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert len(head) == 10
    assert code == 0, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_a_failing_job_keeps_exit_code_2_when_its_reader_is_gone(tmp_path):
    # stdout and stderr share one pipe, closed before the CLI writes to
    # either: the error message and the JSON error object are lost, the
    # exit code is not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "relchern", "qclass", "--config",
         str(tmp_path / "missing.json"), "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    proc.stdout.close()
    try:
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()


# -- fuzz of the exit-code contract ------------------------------------------

_TOKENS = ["H", "L", "M", "c1", "c2", "x", "0", "1", "2", "7",
           "+", "-", "*", "/", "^", "(", ")", " ", "^2", "1+"]


def _expressions():
    tokens = st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join)
    # a short piece, repeated as a long sum or product or nested deeply
    piece = st.sampled_from(["H", "H^2", "L", "(1+L)", "2", "H/(1+L)"])
    # lengths spread evenly on a log scale, from 1 to 3000
    sizes = st.integers(0, 12).map(lambda k: min(2 ** k, 3000))
    repeated = st.builds(lambda p, op, n: op.join([p] * n), piece,
                         st.sampled_from("+-*"), sizes)
    nested = st.builds(lambda p, n: "(" * n + p + ")" * n, piece, sizes)
    return st.one_of(tokens, repeated, nested)


_WILD_FORMS = st.one_of(
    st.dictionaries(st.sampled_from(["L", "M", "c1", "H", "Q"]),
                    st.one_of(st.integers(-3, 3), st.just("2")), max_size=2),
    st.just("L"), st.none())
_WILD_JOBS = st.fixed_dictionaries({
    "base": st.one_of(
        st.fixed_dictionaries({"kind": st.just("formal"),
                               "dim": st.one_of(st.integers(-1, 3), st.just("3")),
                               "fano": st.one_of(st.booleans(), st.just("no"))}),
        st.fixed_dictionaries({"kind": st.sampled_from(["projective", "torus"]),
                               "dim": st.integers(0, 3),
                               "bind": st.dictionaries(st.sampled_from(["L", "H"]),
                                                       st.integers(-2, 5),
                                                       max_size=2)}),
        st.none()),
    "bundle": st.fixed_dictionaries({"roots": st.lists(
        st.fixed_dictionaries({"form": _WILD_FORMS,
                               "mult": st.one_of(st.integers(0, 2), st.just(True))}),
        max_size=4)}),
    "hypersurface": st.fixed_dictionaries({
        "degree": st.one_of(st.integers(-1, 4), st.none()),
        "beta": _WILD_FORMS}),
    "integrate": st.one_of(st.booleans(), st.just("false")),
    "class": _expressions(),
})
# well-formed jobs, so that expressions and computations are reached too
_L_FORMS = st.dictionaries(st.just("L"), st.integers(-3, 3))
_VALID_JOBS = st.fixed_dictionaries({
    "base": st.one_of(
        st.fixed_dictionaries({"kind": st.just("formal"), "dim": st.integers(0, 3)}),
        st.fixed_dictionaries({"kind": st.just("projective"),
                               "dim": st.integers(0, 3),
                               "bind": st.dictionaries(st.just("L"),
                                                       st.integers(1, 4))})),
    "bundle": st.fixed_dictionaries({"roots": st.lists(
        st.fixed_dictionaries({"form": _L_FORMS, "mult": st.integers(1, 2)}),
        min_size=1, max_size=3).map(lambda roots: [{"form": {}}] + roots)}),
    "hypersurface": st.fixed_dictionaries({"degree": st.integers(0, 4),
                                           "beta": _L_FORMS}),
    "integrate": st.booleans(),
})


def assert_contract(capsys, argv, fmt):
    code, out, err = run_cli(capsys, argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if fmt == "json":
        json.loads(out)


_FORMATS = st.sampled_from(["text", "latex", "json"])
_FUZZ = settings(max_examples=50, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(fmt=_FORMATS, job=_VALID_JOBS, expr=_expressions())
def test_fuzzed_expressions_keep_the_exit_code_contract(tmp_path, capsys, fmt,
                                                        job, expr):
    assert_contract(capsys, ["push", "--config", write_config(tmp_path, job),
                             "--format", fmt, f"--class={expr}"], fmt)


@_FUZZ
@given(command=st.sampled_from(["push", "euler", "svw", "qclass", "csm-check",
                                "epoly"]),
       fmt=_FORMATS, job=st.one_of(_VALID_JOBS, _WILD_JOBS))
def test_fuzzed_jobs_keep_the_exit_code_contract(tmp_path, capsys, command, fmt,
                                                  job):
    assert_contract(capsys, [command, "--config", write_config(tmp_path, job),
                             "--format", fmt], fmt)


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nosuch"], "argument command: invalid choice: 'nosuch'"),
])
def test_a_missing_or_unknown_command_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("options", [
    ["--format", "json", "--trunc", "x"],
    ["--format=json", "--bogus"],
    ["--format", "json", "--trunc"],
    ["--form", "json", "--trunc", "x"],
], ids=["invalid-value", "unknown-option", "missing-value", "abbreviated"])
def test_usage_errors_keep_the_json_contract(capsys, options):
    with pytest.raises(SystemExit) as exc:
        main(["qclass", "--config", str(WEIERSTRASS_JOB_FILE)] + options)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["exit_code"] == 2
    assert "usage: relchern" in captured.err
    assert f"relchern: error: {error['message']}" in captured.err


def test_the_usage_error_scan_resolves_abbreviations_as_argparse_does():
    # every prefix of every long option, in both spellings: _last_value
    # finds the value exactly where the real parser does, and nothing
    # where argparse calls the prefix ambiguous (--c)
    parser = cli._build_parser()
    actions = {option: action for action in parser._actions
               for option in action.option_strings if action.dest != "help"}
    assert sorted(actions) == sorted(cli._OPTIONS)
    checks = 0
    for option, action in actions.items():
        value = action.choices[-1] if action.choices else "1"
        for end in range(3, len(option) + 1):
            for spelling in ([option[:end], value], [f"{option[:end]}={value}"]):
                argv = parser.argv = ["qclass"] + spelling
                try:
                    args = parser.parse_args(argv)
                    (resolved,) = [o for o, a in actions.items()
                                   if getattr(args, a.dest) is not None]
                except SystemExit:
                    resolved = None
                for asked in actions:
                    expected = value if asked == resolved else None
                    assert cli._last_value(argv, asked) == expected, (argv, asked)
                    checks += 1
    assert checks == 176  # 22 prefixes, 2 spellings, 4 options asked


def test_a_parser_whose_argv_was_never_set_exits_2(capsys):
    # the ambiguous --c is a usage error, and the usage-error scan reads
    # the parser's default argv
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(["qclass", "--c", "x"])
    assert exc.value.code == 2
    assert "ambiguous option: --c" in capsys.readouterr().err


def json_job(tmp_path):
    payload = json.loads(WEIERSTRASS_JOB_FILE.read_text(encoding="utf-8"))
    payload["format"] = "json"
    return write_config(tmp_path, payload)


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("options", [
    ["--trunc", "x"],
    ["--bogus"],
    ["--trunc"],
], ids=["invalid-value", "unknown-option", "missing-value"])
def test_usage_errors_read_the_format_from_the_job(tmp_path, capsys,
                                                   monkeypatch, source, options):
    cfg = json_job(tmp_path)
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO(pathlib.Path(cfg).read_text("utf-8")))
        cfg = "-"
    with pytest.raises(SystemExit) as exc:
        main(["qclass", "--config", cfg] + options)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert (error["exit_code"], error["type"]) == (2, "UsageError")
    assert f"relchern: error: {error['message']}" in captured.err


@pytest.mark.parametrize("argv", [
    ["--format", "text", "--trunc", "x"],
    ["--config", "no-such-job.json", "--trunc", "x"],
], ids=["command-line-format", "unreadable-job"])
def test_usage_errors_in_text_print_nothing_on_stdout(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["qclass", "--config", json_job(tmp_path)] + argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["qclass", "euler", "svw", "epoly"])
def test_a_zero_dimensional_fano_base_prints_as_without_fano(tmp_path, capsys,
                                                              command):
    # cubic surfaces over a point: Q and chi are 9, not 0
    outputs = []
    for fano in (True, False):
        payload = {"base": {"kind": "formal", "dim": 0, "fano": fano},
                   "bundle": {"roots": [{"form": {}},
                                        {"form": {"L": 1}, "mult": 3}]},
                   "hypersurface": {"degree": 3, "beta": {"L": 3}}}
        cfg = write_config(tmp_path, payload)
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, [command, "--config", cfg,
                                              "--format", fmt])
            assert code == 0, err
            outputs.append(out)
    assert outputs[:2] == outputs[2:]


def test_a_fano_base_without_divisors_is_a_json_error(tmp_path, capsys):
    payload = dict(WEIERSTRASS_FORMAL)
    payload["base"] = {"kind": "formal", "dim": 2, "divisors": [], "fano": True}
    cfg = write_config(tmp_path, payload)
    code, out, err = run_cli(capsys, ["qclass", "--config", cfg,
                                      "--format", "json"])
    assert code == 2 and "Traceback" not in err
    error = json.loads(out)["error"]
    assert (error["exit_code"], error["type"]) == (2, "ValueError")
    assert "fano" in error["message"]
