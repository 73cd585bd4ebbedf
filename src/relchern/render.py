"""Output renderings: plain text, LaTeX and a JSON term structure."""

from __future__ import annotations

import contextlib
import functools
import re
import sys


@contextlib.contextmanager
def all_digits():
    """Lift the interpreter's limit on converting long integers to and from
    decimal text (Python 3.10.7 and later) inside the block, so exact values
    print and parse at any size; the limit is restored on leaving it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def format_terms(items, coeff, power, sep):
    """Join ``(monomial, coefficient)`` pairs into ``a + b - c`` form, with
    ``coeff(q)`` for coefficients, ``power(name, exp)`` for factors and
    ``sep`` between the factors of a term and before its monomial."""
    if not items:
        return "0"
    parts = []
    with all_digits():
        for mono, c in items:
            mono_s = sep.join(power(n, e) for n, e in mono)
            if not mono_s:
                parts.append(coeff(c))
            elif c == 1:
                parts.append(mono_s)
            elif c == -1:
                parts.append("-" + mono_s)
            else:
                parts.append(f"{coeff(c)}{sep}{mono_s}")
    text = parts[0]
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


def to_text(cls):
    """Canonical text; round-trips through the expression parser."""
    return str(cls)


_SUBSCRIPT_RE = re.compile(r"([A-Za-z]+)_?(\d+)\Z")


@functools.lru_cache(maxsize=1024)
def _latex_power(name, exp):
    match = _SUBSCRIPT_RE.match(name)
    if match:
        name = f"{match.group(1)}_{{{match.group(2)}}}"
    return name if exp == 1 else f"{name}^{{{exp}}}"


def _latex_coeff(q):
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q.numerator < 0 else ""
    return f"{sign}\\tfrac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def to_latex(cls):
    return format_terms(cls._canonical()[1], _latex_coeff, _latex_power, " ")


def rational_json(q):
    return {"numerator": str(q.numerator), "denominator": str(q.denominator)}


def class_to_json(cls):
    """Codimension-graded term list.

    Every nonzero graded piece becomes ``{"codim": k, "terms": [...]}`` with
    terms as ``{"monomial": {name: exp}, "coeff": {...}}`` in canonical
    order; numerators and denominators are decimal strings so arbitrary
    precision survives any JSON reader.
    """
    pieces = {}
    with all_digits():
        for k, (mono, c) in zip(*cls._canonical()):
            pieces.setdefault(k, []).append({"monomial": dict(mono),
                                             "coeff": rational_json(c)})
    return [{"codim": k, "terms": pieces[k]} for k in sorted(pieces)]
