"""Output renderings: plain text, LaTeX and a JSON term structure.

A term is rendered from cached factor strings, one table per format keyed
by the ``(name, exponent)`` tuples rings decode, so a monomial costs one
join, and a class one more.
"""

from __future__ import annotations

import functools
import re
import sys

_get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: none


class all_digits:
    """Lift the interpreter's limit on converting long integers to and from
    decimal text (Python 3.10.7 and later) inside the block, so exact values
    print and parse at any size; the limit is restored on leaving it.
    A plain class costs half as much to enter and leave as a
    generator-based context manager."""

    __slots__ = ("_limit",)

    def __enter__(self):
        self._limit = limit = _get_limit()
        if limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self._limit:
            sys.set_int_max_str_digits(self._limit)


def _lifting(render):
    """``render``, run again inside :class:`all_digits` only if it met an
    integer past the digit limit; rendering is pure, so this equals one
    lifted run."""
    @functools.wraps(render)
    def wrapper(*args):
        try:
            return render(*args)
        except ValueError:
            with all_digits():
                return render(*args)
    return wrapper


class _FactorStrings(dict):
    """``(name, exp) -> power(name, exp)``, filled on a miss; a full table
    starts again empty, so it holds at most ``limit`` strings."""

    __slots__ = ("power", "limit")

    def __init__(self, power, limit):
        self.power, self.limit = power, limit

    def __missing__(self, factor):
        if len(self) >= self.limit:
            self.clear()
        text = self[factor] = self.power(*factor)
        return text


@_lifting
def format_terms(items, coeff, strings, sep):
    """Join ``(monomial, coefficient)`` pairs into ``a + b - c`` form, with
    ``str`` for ``int`` and ``coeff(q)`` for other coefficients,
    ``strings[factor]`` for factors and ``sep`` between the factors of a
    term and before its monomial.

    No part contains ``+``, so turning ``" + -"`` into ``" - "`` after the
    join touches only the joints before negative terms."""
    if not items:
        return "0"
    parts = []
    append, join, get = parts.append, sep.join, strings.__getitem__
    for mono, c in items:
        # "1" and "-1" are the coefficients 1 and -1 in every renderer
        text = str(c) if c.__class__ is int else coeff(c)
        if not mono:
            append(text)
        elif text == "1":
            append(join(map(get, mono)))
        elif text == "-1":
            append("-" + join(map(get, mono)))
        else:
            append(f"{text}{sep}{join(map(get, mono))}")
    return " + ".join(parts).replace(" + -", " - ")


def _text_power(name, exp):
    return name if exp == 1 else f"{name}^{exp}"


_text_strings = _FactorStrings(_text_power, 1024)


def to_text(cls):
    """Canonical text; round-trips through the expression parser."""
    return str(cls)


_SUBSCRIPT_RE = re.compile(r"([A-Za-z]+)_?(\d+)\Z")


def _latex_power(name, exp):
    match = _SUBSCRIPT_RE.match(name)
    if match:
        name = f"{match.group(1)}_{{{match.group(2)}}}"
    elif name.count("_") > 1:
        # one subscript: a_b_c is a_{b\_c}, never the double a_b_c
        head, _, rest = name.partition("_")
        rest = rest.replace("_", r"\_")
        name = f"{head or '{}'}_{{{rest}}}"
    return name if exp == 1 else f"{name}^{{{exp}}}"


_latex_strings = _FactorStrings(_latex_power, 1024)


def _latex_coeff(q):
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q.numerator < 0 else ""
    return f"{sign}\\tfrac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def to_latex(cls):
    return format_terms(cls._canonical()[1], _latex_coeff, _latex_strings, " ")


def _fraction_json(q):
    return {"numerator": str(q.numerator), "denominator": str(q.denominator)}


@_lifting
def class_to_json(cls):
    """Codimension-graded term list.

    Every nonzero graded piece becomes ``{"codim": k, "terms": [...]}`` with
    terms as ``{"monomial": {name: exp}, "coeff": {...}}`` in canonical
    order; numerators and denominators are decimal strings so arbitrary
    precision survives any JSON reader.
    """
    codims, terms = cls._canonical()
    entries = [{"monomial": dict(mono),
                "coeff": {"numerator": str(c), "denominator": "1"}
                if c.__class__ is int else _fraction_json(c)}
               for mono, c in terms]
    if not entries:
        return []
    if codims.count(codims[0]) == len(codims):  # as for a graded piece
        return [{"codim": codims[0], "terms": entries}]
    pieces = {}  # codims ascend in canonical order
    for k, entry in zip(codims, entries):
        pieces.setdefault(k, []).append(entry)
    return [{"codim": k, "terms": terms} for k, terms in pieces.items()]
