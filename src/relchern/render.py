"""Output renderings: plain text, LaTeX and a JSON term structure.

A term is rendered from cached factor strings: ``_text_power`` and
``_latex_power`` remember the string of each ``(name, exponent)`` factor,
so a monomial costs one join, and a class one more.
"""

from __future__ import annotations

import functools
import re
import sys
from itertools import starmap

_get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: none


class all_digits:
    """Lift the interpreter's limit on converting long integers to and from
    decimal text (Python 3.10.7 and later) inside the block, so exact values
    print and parse at any size; the limit is restored on leaving it.
    Renderers enter it once per class, and a plain class costs half as much
    to enter and leave as a generator-based context manager."""

    __slots__ = ("_limit",)

    def __enter__(self):
        self._limit = limit = _get_limit()
        if limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self._limit:
            sys.set_int_max_str_digits(self._limit)


def format_terms(items, coeff, power, sep):
    """Join ``(monomial, coefficient)`` pairs into ``a + b - c`` form, with
    ``coeff(q)`` for coefficients, ``power(name, exp)`` for factors and
    ``sep`` between the factors of a term and before its monomial.

    No part contains ``+``, so turning ``" + -"`` into ``" - "`` after the
    join touches only the joints before negative terms."""
    if not items:
        return "0"
    parts = []
    append, join = parts.append, sep.join
    with all_digits():
        for mono, c in items:
            if not mono:
                append(coeff(c))
            elif c == 1:
                append(join(starmap(power, mono)))
            elif c == -1:
                append("-" + join(starmap(power, mono)))
            else:
                append(coeff(c) + sep + join(starmap(power, mono)))
    return " + ".join(parts).replace(" + -", " - ")


@functools.lru_cache(maxsize=1024)
def _text_power(name, exp):
    return name if exp == 1 else f"{name}^{exp}"


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


def class_to_json(cls):
    """Codimension-graded term list.

    Every nonzero graded piece becomes ``{"codim": k, "terms": [...]}`` with
    terms as ``{"monomial": {name: exp}, "coeff": {...}}`` in canonical
    order; numerators and denominators are decimal strings so arbitrary
    precision survives any JSON reader.  Formal variables count towards the
    degree that orders terms but not towards codimension, so the pieces'
    terms may interleave in canonical order.
    """
    pieces = {}
    with all_digits():
        for k, (mono, c) in zip(*cls._canonical()):
            pieces.setdefault(k, []).append({
                "monomial": dict(mono),
                "coeff": {"numerator": str(c.numerator),
                          "denominator": str(c.denominator)}})
    return [{"codim": k, "terms": pieces[k]} for k in sorted(pieces)]
