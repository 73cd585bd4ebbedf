"""Running one job of each workload, and checking its answer.

Library jobs (``dual-route``, ``series-svw``) build their base, bundle and
hypersurface from the generated config inside the timed call, as a user's
fresh job would, and return ``None`` or a description of the check that
failed.  ``cli-jobs`` run one ``python -m relchern`` child per job; their
output is checked against the exit-code/JSON contract and against the
library's answer for the same job, computed once before timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

# Library calls go through the package attributes, so the traced run's
# wrappers, installed there, see them.
import relchern as rc

CONTRACT_EXITS = (0, 2, 3)


# -- building library objects from a generated config ------------------------


def build_base(desc):
    if desc["kind"] == "formal":
        return rc.FormalBase(desc["dim"], tuple(desc.get("divisors", ["L"])))
    (divisor, multiple), = desc["bind"].items()
    return rc.ProjectiveSpaceBase(desc["dim"], multiple, divisor)


def build_form(mapping, base):
    ring = base.ring
    out = ring.zero
    for name, coeff in mapping.items():
        if isinstance(base, rc.ProjectiveSpaceBase) and name == base.divisor:
            out = out + coeff * base.divisor_class()
        else:
            out = out + coeff * ring.sym(name)
    return out


def build_roots(config, base):
    return [(build_form(r["form"], base), r.get("mult", 1))
            for r in config["bundle"]["roots"]]


def build(config, base=None):
    """Base and hypersurface of a job config (``base`` overrides its base)."""
    if base is None:
        base = build_base(config["base"])
    hyp_desc = config["hypersurface"]
    hyp = rc.HypersurfaceSpec.from_roots(
        hyp_desc["degree"], build_form(hyp_desc.get("beta", {}), base),
        build_roots(config, base))
    return base, hyp


# -- library jobs ------------------------------------------------------------


def run_dual(job):
    """Series route against the divided-difference route, then ``Q*c(X)``."""
    base, hyp = build(job["config"])
    series = rc.q_class(hyp)
    closed = rc.q_class_display(hyp)
    if series != closed:
        return "q_class and q_class_display disagree"
    total = rc.relative_chern_class(hyp, base)
    if total.is_zero() or series.is_zero():
        return "zero pushed-down Chern class"
    return None


def run_svw(job):
    """Series route, graded pieces rendered three ways, and a cross-check
    through an independent route."""
    base, hyp = build(job["config"])
    alpha = rc.alpha_class(hyp)
    q = rc.pushforward_series(alpha)
    total = q * base.chern_polynomial()
    pieces = rc.svw_components(hyp, base)
    for piece in pieces:
        rendered = (rc.to_text(piece), rc.to_latex(piece),
                    json.dumps(rc.class_to_json(piece)))
        if not all(rendered):
            return "empty rendering"
    if pieces != [total.component(j) for j in range(1, base.dim + 1)]:
        return "svw_components disagree with Q*c(X)"
    if job["kind"] == "fermat":
        family = rc.FermatFamily(job["n"], job["d"], base.dim, "L")
        if family.chern_by_strata(base) != total:
            return "stratified route disagrees with the pushforward"
        return None
    for check in job["checks"]:
        target = rc.ProjectiveSpaceBase(check["dim"], multiple=check["bind"])
        _, concrete = build(job["config"], target)
        chi = rc.euler_characteristic(concrete, target)
        piece = pieces[check["dim"] - 1]
        via_formal = target.integrate(rc.specialize(piece, target))
        if chi != via_formal:
            return f"specialize+integrate {via_formal} != euler {chi}"
        if check["expect"] is not None and chi != check["expect"]:
            return f"euler {chi} != known {check['expect']}"
    return None


LIBRARY_JOBS = {"dual": run_dual, "weierstrass": run_svw, "fermat": run_svw}


# -- cli jobs ----------------------------------------------------------------


def _render(cls, fmt):
    return rc.to_latex(cls) if fmt == "latex" else rc.to_text(cls)


def _reference_result(config, command, fmt, class_expr):
    base = build_base(config["base"])
    if command == "push":
        entries = build_roots(config, base)
        m0 = entries[0][0]
        bundle, _ = rc.normalize_twist(entries)
        env = {s.name: rc.ProjClass.from_base(bundle, base.ring.sym(s.name))
               for s in base.ring.symbols}
        if isinstance(base, rc.ProjectiveSpaceBase) and base.divisor not in env:
            env[base.divisor] = rc.ProjClass.from_base(bundle, base.divisor_class())
        env["H"] = rc.ProjClass.hyperplane(bundle) - rc.ProjClass.from_base(bundle, m0)
        value = rc.evaluate(rc.parse_class_expr(class_expr), env,
                            lambda v: rc.ProjClass.constant(bundle, v))
        pushed = rc.pushforward_series(value)
        return {"class": rc.class_to_json(pushed)}, _render(pushed, fmt)
    _, hyp = build(config, base)
    if command == "epoly":
        value = rc.smooth_hypersurface_euler(hyp.bundle.fiber_dim, hyp.degree)
        return {"value": str(value)}, str(value)
    if command == "qclass":
        out = rc.q_class(hyp)
        return {"class": rc.class_to_json(out)}, _render(out, fmt)
    if command == "euler":
        value = rc.euler_characteristic(
            hyp, base, as_integer=True if config.get("integrate") else None)
        if isinstance(value, int):
            return {"euler_characteristic": str(value)}, str(value)
        return {"class": rc.class_to_json(value)}, _render(value, fmt)
    if command == "svw":
        pieces = rc.svw_components(hyp, base)
        parts = [(rc.class_to_json(p) or [{"codim": j, "terms": []}])[0]
                 for j, p in enumerate(pieces, start=1)]
        lines = [f"codim {j}: {_render(p, fmt)}"
                 for j, p in enumerate(pieces, start=1)]
        return {"components": parts}, "\n".join(lines)
    if command == "csm-check":
        (_, _), (_, n) = hyp.bundle.roots
        family = rc.FermatFamily(n, hyp.degree, base.dim, "L")
        pushed = rc.relative_chern_class(hyp, base)
        equal = family.chern_by_strata(base) == pushed
        return {"equal": equal}, "EQUAL" if equal else "NOT EQUAL"
    raise ValueError(f"unknown command {command!r}")


def cli_reference(job):
    """``(exit_code, json_document, text)`` the contract asks of this job.

    Invalid jobs carry their contracted exit code.  For the others the
    library computes the answer; a library error maps to the exit code the
    contract gives it (``ModeError`` 3, any other rejected input 2).  A
    class that divides by the zero class raises ``ZeroDivisionError``, which
    the caller handles (see ``jobs.KNOWN_DEFECT``).
    """
    if job["expect_exit"] is not None:
        return job["expect_exit"], None, None
    command = job["command"]
    config = json.loads(job["config_text"])
    try:
        result, text = _reference_result(config, command, job["format"],
                                          job["class"])
    except rc.ModeError:
        return 3, None, None
    except (rc.ChowError, ValueError):
        return 2, None, None
    return 0, {"command": command, "result": result}, text


def check_cli(job, expected, code, stdout, stderr):
    """``(contract_ok, answer_ok, why)`` for one child's output."""
    fmt = job["format"]
    if "Traceback" in stderr:
        return False, True, "traceback on stderr"
    if code not in CONTRACT_EXITS:
        return False, True, f"exit code {code} outside the contract"
    doc = None
    if fmt == "json":
        try:
            doc = json.loads(stdout)
        except ValueError:
            return False, True, "json stdout does not parse"
        error = doc.get("error") if isinstance(doc, dict) else None
        if code and not (isinstance(error, dict)
                         and error.get("exit_code") == code):
            return False, True, "json error object missing"
    want_code, want_doc, want_text = expected
    if code != want_code:
        return True, False, f"exit code {code}, expected {want_code}"
    if code == 0:
        if fmt == "json" and doc != want_doc:
            return True, False, "json result differs from the library"
        if fmt != "json" and stdout != want_text + "\n":
            return True, False, "text result differs from the library"
    return True, True, None


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(args, env, cwd):
    """Run one child to completion; ``(exit_code, stdout, stderr)``."""
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr
