"""Command-line interface.

Usage::

    relchern <command> [--config FILE] [--class EXPR] [--format text|latex|json] [--trunc N]

Commands: ``push`` (pushforward of a class expression), ``qclass`` (the
multiplier class of a hypersurface), ``euler`` (Euler characteristic or its
symbolic top class), ``svw`` (all graded pieces of the pushed-down Chern
class), ``csm-check`` (stratified route versus pushforward route for the
Fermat-type family) and ``epoly`` (Euler characteristic of a smooth
hypersurface of the configured degree and fiber dimension).  ``push`` reads
every name but ``H`` as a base class, lifted to ``P(E)`` where it meets ``H``.

The job is a JSON object (``--config FILE``, or ``-`` for stdin) with keys
``base``, ``bundle``, ``hypersurface``, ``command``, ``format``, ``class``,
``trunc`` and ``integrate``; command-line flags override config values.
Exit codes: 0 success, 2 parse or validation failure (a division by the
zero class included), 3 mode error (an output mode the chosen base cannot
provide).  In JSON mode a failure also prints an ``{"error": {...}}`` object
on stdout.  So does a usage error, when ``--format json`` is on the command
line or, with no ``--format`` there, when the ``--config`` job asks for JSON.
Only the requested format is built: text mode builds no JSON document, and
JSON mode renders no class as text.  A reader that closes the pipe before
the output ends (``relchern ... | head``) loses the rest of it, and the exit
code stays that of the job, with no traceback: 0 when the job succeeded.
The same holds for an error message on a stderr whose reader has gone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bases import FormalBase, ModeError, ProjectiveSpaceBase
from .expressions import evaluate, parse_class_expr
from .fibration import (FermatFamily, HypersurfaceSpec, UnsupportedDegreeError,
                        euler_characteristic, q_rational, relative_chern_class,
                        smooth_hypersurface_euler, svw_components)
from .pushforward import ProjClass, normalize_twist, pushforward_series
from .render import all_digits, class_to_json, to_latex, to_text
from .ring import ChowError, ChowPoly, _is_int, expand_ratio

COMMANDS = ("push", "euler", "svw", "qclass", "csm-check", "epoly")


class ValidationError(ChowError):
    """Malformed job configuration."""


class _Parser(argparse.ArgumentParser):
    """Usage errors print the usage on stderr and exit 2; when the job asks
    for JSON (see :func:`_asks_for_json`) they also print the error object
    on stdout."""

    argv = ()

    def error(self, message):
        if _asks_for_json(self.argv):
            _print_error(2, "UsageError", message)
        super().error(message)


# each option and its add_argument keywords; the usage-error scan
# (_last_value) resolves abbreviations against the same names as argparse
_OPTIONS = {
    "--config": {"help": "JSON job file, or - for stdin"},
    "--class": {"dest": "class_expr", "help": "class expression (push command)"},
    "--format": {"choices": ("text", "latex", "json")},
    "--trunc": {"type": int, "help": "override the truncation bound (base dimension)"},
}


def _build_parser():
    parser = _Parser(
        prog="relchern",
        description="exact pushforwards and Euler characteristics for "
                    "hypersurface fibrations in projective bundles")
    parser.add_argument("command", choices=COMMANDS)
    for option, keywords in _OPTIONS.items():
        parser.add_argument(option, **keywords)
    return parser


def _require(condition, message):
    if not condition:
        raise ValidationError(message)


def _as_int(value, what, minimum=None):
    _require(_is_int(value), f"{what} must be an integer")
    if minimum is not None:
        _require(value >= minimum, f"{what} must be at least {minimum}")
    return value


def _as_bool(value, what):
    _require(isinstance(value, bool), f"{what} must be true or false")
    return value


def _read_job(path):
    """The JSON document of the job file at ``path`` (``-`` for stdin)."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:
        raise ValidationError("the job file is nested too deeply") from None


def _load_config(args):
    raw = {} if args.config is None else _read_job(args.config)
    _require(isinstance(raw, dict), "config must be a JSON object")
    if "command" in raw:
        _require(raw["command"] in COMMANDS,
                 f"config command {raw['command']!r} is not a command")
    fmt = args.format if args.format is not None else raw.get("format", "text")
    formats = _OPTIONS["--format"]["choices"]
    _require(fmt in formats, f"format must be {', '.join(formats[:-1])} or {formats[-1]}")
    trunc = args.trunc if args.trunc is not None else raw.get("trunc")
    if trunc is not None:
        trunc = _as_int(trunc, "trunc", 0)
    class_expr = (args.class_expr if args.class_expr is not None
                  else raw.get("class"))
    return {
        "command": args.command,
        "format": fmt,
        "trunc": trunc,
        "class": class_expr,
        "integrate": _as_bool(raw.get("integrate", False), "integrate"),
        "base": raw.get("base"),
        "bundle": raw.get("bundle"),
        "hypersurface": raw.get("hypersurface"),
    }


def _build_base(cfg):
    desc = cfg["base"]
    _require(isinstance(desc, dict), "config key 'base' must be an object")
    dim = cfg["trunc"] if cfg["trunc"] is not None else desc.get("dim")
    dim = _as_int(dim, "base dimension", 0)
    kind = desc.get("kind")
    if kind == "formal":
        divisors = desc.get("divisors", ["L"])
        _require(isinstance(divisors, list) and
                 all(isinstance(d, str) for d in divisors),
                 "base.divisors must be a list of symbol names")
        _require("H" not in divisors, "the divisor name H is reserved")
        return FormalBase(dim, tuple(divisors),
                          _as_bool(desc.get("fano", False), "base.fano"))
    if kind == "projective":
        bind = desc.get("bind", {})
        _require(isinstance(bind, dict) and len(bind) <= 1,
                 "base.bind must map at most one divisor name to an integer")
        divisor, multiple = "L", None
        for name, value in bind.items():
            _require(name != "H", "the divisor name H is reserved")
            _require(name != "h", "h is the hyperplane class; it cannot be bound")
            divisor, multiple = name, _as_int(value, f"binding of {name}")
        return ProjectiveSpaceBase(dim, multiple, divisor)
    raise ValidationError("base.kind must be 'formal' or 'projective'")


def _names(base):
    """The class of each name a job may use: the base ring's symbols,
    overridden by ``base.bindings()``."""
    return {**{s.name: base.ring.sym(s.name) for s in base.ring.symbols},
            **base.bindings()}


def _form(mapping, base, names):
    """The linear form ``mapping``, each name read through ``names``, the
    job's :func:`_names` table."""
    _require(isinstance(mapping, dict), "a linear form must be an object")
    out = base.ring.zero
    for name, coeff in mapping.items():
        coeff = _as_int(coeff, f"coefficient of {name}")
        if name in names:
            out = out + coeff * names[name]
        elif isinstance(base, ProjectiveSpaceBase) and name == base.divisor:
            out = out + coeff * base.divisor_class()  # unbound: raises
        else:
            raise ValidationError(f"unknown symbol {name!r} in a form")
    return out


def _build_roots(cfg, base, names):
    desc = cfg["bundle"]
    _require(isinstance(desc, dict) and isinstance(desc.get("roots"), list)
             and desc["roots"], "config key 'bundle' needs a nonempty 'roots' list")
    entries = []
    for item in desc["roots"]:
        _require(isinstance(item, dict) and "form" in item,
                 "each root is an object with a 'form'")
        mult = _as_int(item.get("mult", 1), "root multiplicity", 1)
        entries.append((_form(item["form"], base, names), mult))
    return entries


def _build_hypersurface(cfg, base, names):
    entries = _build_roots(cfg, base, names)
    desc = cfg["hypersurface"]
    _require(isinstance(desc, dict), "config key 'hypersurface' must be an object")
    degree = _as_int(desc.get("degree"), "hypersurface degree", 0)
    beta = _form(desc.get("beta", {}), base, names)
    return HypersurfaceSpec.from_roots(degree, beta, entries)


def _family_from(hyp, base):
    _require(isinstance(base, FormalBase),
             "csm-check needs a formal base (free Chern symbols)")
    roots = hyp.bundle.roots
    _require(len(roots) == 2 and roots[0][1] == 1,
             "csm-check needs a bundle of shape O + L^n")
    form, mult = roots[1]
    names = form.symbols_used()
    _require(len(names) == 1, "the twisting root must be a single divisor")
    name = names.pop()
    _require(form == base.ring.sym(name),
             "the twisting root must be a divisor with coefficient 1")
    _require(hyp.beta == hyp.degree * form,
             "the hypersurface class must be d*(H + L)")
    if hyp.degree < 2:
        raise UnsupportedDegreeError("csm-check needs degree at least 2")
    return FermatFamily(mult, hyp.degree, base.dim, name)


def _run(cfg):
    """The result of the job: its fields as the JSON document names them,
    each holding its value unrendered (a class, an integer or a flag), so
    only the requested format is ever built."""
    command = cfg["command"]
    base = _build_base(cfg)
    names = _names(base)

    if command == "push":
        _require(isinstance(cfg["class"], str) and cfg["class"].strip(),
                 "push needs a class expression (--class or config 'class')")
        # the expression's H is the untwisted hyperplane class, H - M_0 here
        bundle, h = normalize_twist(_build_roots(cfg, base, names))
        tree = parse_class_expr(cfg["class"])
        value = evaluate(tree, {**names, "H": h}, base.ring.const)
        if isinstance(value, ChowPoly):
            value = ProjClass.from_base(bundle, value)
        return {"class": pushforward_series(value)}

    hyp = _build_hypersurface(cfg, base, names)

    if command == "epoly":
        return {"value": smooth_hypersurface_euler(hyp.bundle.fiber_dim,
                                                   hyp.degree)}

    if command == "qclass":
        return {"class": expand_ratio(*q_rational(hyp))}

    if command == "euler":
        value = euler_characteristic(hyp, base,
                                     as_integer=True if cfg["integrate"] else None)
        if isinstance(value, int):
            return {"euler_characteristic": value}
        return {"class": value}

    if command == "svw":
        return {"components": svw_components(hyp, base)}

    if command == "csm-check":
        family = _family_from(hyp, base)
        left = family.chern_by_strata(base)
        right = relative_chern_class(hyp, base)
        if left == right:
            return {"equal": True}
        return {"equal": False, "stratified": left, "pushforward": right,
                "difference": left - right}

    raise ValidationError(f"unknown command {command!r}")


def _json_result(result):
    """The ``result`` object of the JSON document: classes as
    :func:`class_to_json` term lists, integers as decimal strings."""
    out = {}
    for key, value in result.items():
        if key == "components":
            # each piece is homogeneous: one graded entry, or none if zero
            value = [(class_to_json(piece) or [{"codim": j, "terms": []}])[0]
                     for j, piece in enumerate(value, start=1)]
        elif isinstance(value, ChowPoly):
            value = class_to_json(value)
        elif not isinstance(value, bool):
            value = str(value)
        out[key] = value
    return out


def _text_result(result, fmt):
    """The text or LaTeX rendering of the result."""
    render = to_latex if fmt == "latex" else to_text
    if "components" in result:
        return "\n".join(f"codim {j}: {render(piece)}" for j, piece
                         in enumerate(result["components"], start=1))
    if "equal" in result:
        if result["equal"]:
            return "EQUAL"
        return ("NOT EQUAL\n"
                f"stratified:  {render(result['stratified'])}\n"
                f"pushforward: {render(result['pushforward'])}\n"
                f"difference:  {render(result['difference'])}")
    (value,) = result.values()
    return render(value) if isinstance(value, ChowPoly) else str(value)


def _emit(stream, text):
    """Print ``text`` on ``stream``.  A reader that closed the pipe early
    (``relchern ... | head``) ends the output there: the stream's file
    descriptor is pointed at the null device, so the flush at exit cannot
    fail again, and the exit code stays that of the job."""
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _print_error(code, kind, message):
    payload = {"error": {"exit_code": code, "type": kind, "message": message}}
    _emit(sys.stdout, json.dumps(payload, indent=2))


def _fail(fmt, exc, code):
    _emit(sys.stderr, f"error: {exc}")
    if fmt == "json":
        _print_error(code, type(exc).__name__, str(exc))
    return code


def _last_value(argv, option):
    """The value of the last ``option`` on the command line, written as
    argparse reads it (``--format json``, ``--format=json`` or an
    unambiguous prefix such as ``--form``), or ``None``."""
    value = None
    for arg, after in zip(argv, (*argv[1:], None)):
        name, eq, rest = arg.partition("=")
        if [o for o in _OPTIONS if o.startswith(name)] == [option]:
            value = rest if eq else after
    return value


def _asks_for_json(argv):
    """Whether the job asks for JSON: the last ``--format`` on the command
    line is ``json``, or, with no ``--format`` there, the job file named by
    the last ``--config`` says ``"format": "json"``.  A job file that cannot
    be read or parsed counts as text."""
    fmt = _last_value(argv, "--format")
    config = _last_value(argv, "--config")
    if fmt is None and config is not None:
        try:
            with all_digits():
                raw = _read_job(config)
        except (OSError, ValueError, ValidationError):
            raw = None
        fmt = raw.get("format") if isinstance(raw, dict) else None
    return fmt == "json"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    parser.argv = argv
    args = parser.parse_args(argv)
    fmt = args.format or "text"
    try:
        with all_digits():
            cfg = _load_config(args)
            fmt = cfg["format"]
            result = _run(cfg)
            if fmt == "json":
                out = json.dumps({"command": cfg["command"],
                                  "result": _json_result(result)}, indent=2)
            else:
                out = _text_result(result, fmt)
    except ModeError as exc:
        return _fail(fmt, exc, 3)
    except (ChowError, ValueError, OSError, ZeroDivisionError) as exc:
        return _fail(fmt, exc, 2)
    _emit(sys.stdout, out)
    return 0
