"""Exact arithmetic for truncated graded polynomials in named class symbols.

Intersection classes on a smooth variety of dimension ``m`` are represented
as sparse polynomials in a fixed set of graded symbols: divisor classes have
degree 1, a Chern-class symbol ``c_i`` has degree ``i``.  Every term whose
total symbol degree exceeds the ring's truncation bound is dropped at
construction time, which realizes working modulo classes of codimension
greater than ``m``.  That degree is a term's codimension.

Coefficients are exact rationals: an ``int`` when integral, otherwise a
:class:`fractions.Fraction` (the two compare and hash equal); floats are
rejected so every identity holds exactly.  A ring may carry extra *formal*
variables, which count 0 towards the truncated degree (so no power of them
truncates away), host intermediate divided-difference computations and
never appear in results.

A monomial is stored as its exponent vector packed into one integer of
32-bit fields: field 0 holds the degree that truncation counts, field
``i + 1`` the exponent of the ring's ``i``-th variable in ``(degree, name)``
order.  A product of monomials is then one integer addition,
and a term's degree is read off without looking at its symbols.

Values are immutable and operations are pure.
"""

from __future__ import annotations

import functools
import operator
import re
from bisect import bisect_right
from fractions import Fraction

from .render import _text_power, format_terms

_BITS = 32
_FIELD = (1 << _BITS) - 1
_MAX_EXP = _FIELD >> 1  # a field's top bit stays clear, so sums never carry


class ChowError(Exception):
    """Base class for errors raised by this package."""


class ContextError(ChowError):
    """Operands live in different ring contexts."""


class NonUnitError(ChowError):
    """Division by a class that is not a unit: its constant term is not 1."""


class SymbolError(ChowError):
    """Unknown symbol, or an operation reserved for formal variables."""


class GradeError(ChowError):
    """Graded-component index outside ``[0, bound]``."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _is_int(value):
    """An ``int`` that is not a ``bool``, as every integer argument must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rational(value):
    # floats are banned: exactness is the whole point
    if _is_int(value):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact rational expected, got {value!r}")


class _Frozen:
    """An immutable record of the fields named in ``__slots__``, compared,
    hashed and shown by those fields as a frozen dataclass would be, without
    the import and class-creation cost of :mod:`dataclasses`.  Subclasses
    set their slots once, in ``__init__``, through :meth:`_set`.

    A record whose slots also hold state derived from its fields names the
    constructor's arguments with the class keyword ``fields=(...)``; they
    come first in ``__slots__``, and only they are compared, hashed, shown
    and passed to the constructor again by ``copy`` and ``pickle``."""

    __slots__ = ()

    def __init_subclass__(cls, fields=None):
        names = cls.__slots__ if fields is None else fields
        cls._names = names
        # the tuple of field values in one C call, not a generator:
        # ChowRing compares and hashes its tuple of symbols
        get = operator.attrgetter(*names)
        cls._fields = property(get if len(names) > 1
                               else lambda self: (get(self),))

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields


class Symbol(_Frozen):
    """A named generator with a codimension weight."""

    __slots__ = ("name", "degree")

    def __init__(self, name, degree=1):
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise SymbolError(f"invalid symbol name {name!r}")
        if not _is_int(degree) or degree < 1:
            raise SymbolError("symbol degree must be a positive integer")
        self._set(name, degree)


class ChowRing(_Frozen, fields=("symbols", "bound", "formal")):
    """A symbol table, a truncation bound and optional formal variables.

    The bound is the dimension of the underlying variety.  A term's
    codimension is its truncated degree, field 0 of its packed key: the sum
    of its symbols' degrees, with formal variables counting 0.  Two rings are
    interchangeable contexts exactly when their symbol tables, bounds and
    formal variables agree.
    """

    __slots__ = ("symbols", "bound", "formal", "_degrees", "_formal_set",
                 "_shift", "_unit", "_guard", "_factors", "_by_field")

    def __init__(self, symbols, bound, formal=()):
        if not _is_int(bound) or not 0 <= bound <= _MAX_EXP:
            raise GradeError(f"truncation bound must be an integer in [0, {_MAX_EXP}]")
        syms = [s if isinstance(s, Symbol) else Symbol(*s) for s in symbols]
        syms.sort(key=lambda s: (s.degree, s.name))
        formal = tuple(sorted(formal))
        names = [s.name for s in syms]
        if len(set(names) | set(formal)) != len(names) + len(formal):
            raise SymbolError("symbol names must be unique within a ring")
        degrees = {s.name: s.degree for s in syms}
        for name in formal:
            Symbol(name)  # validates the identifier
            degrees[name] = 1
        formal_set = frozenset(formal)
        # fields follow the (degree, name) order of printed monomials
        order = sorted(degrees, key=lambda n: (degrees[n], n))
        shift = {name: _BITS * (i + 1) for i, name in enumerate(order)}
        unit = {name: (0 if name in formal_set else degrees[name])
                + (1 << shift[name]) for name in order}
        guard = sum(1 << (shift[name] + _BITS - 1) for name in formal)
        # field i + 1: its name, its degree and its exponent's shift in a rank
        by_field = [(name, degrees[name], _BITS * (len(order) - i - 1))
                    for i, name in enumerate(order)]
        # _factors: (name, exp) -> one shared tuple, see _decode
        self._set(tuple(syms), bound, formal, degrees, formal_set, shift,
                  unit, guard, {}, by_field)

    def __repr__(self):
        names = ",".join(s.name for s in self.symbols)
        if self.formal:
            names += ";" + ",".join(self.formal)
        return f"ChowRing({names}; bound={self.bound})"

    # -- symbol table -------------------------------------------------

    def degree_of(self, name):
        try:
            return self._degrees[name]
        except KeyError:
            raise SymbolError(f"unknown symbol {name!r}") from None

    def is_formal(self, name):
        return name in self._formal_set

    def _require_formal(self, name):
        if name not in self._formal_set:
            raise SymbolError(f"{name!r} is not a formal variable of this ring")

    @property
    def zero(self):
        return ChowPoly(self, {})

    @property
    def one(self):
        return self.const(1)

    def const(self, value):
        q = _rational(value)
        return ChowPoly(self, {0: q} if q else {})

    def sym(self, name):
        self.degree_of(name)
        return self._from_monomials({((name, 1),): 1})

    def linear(self, coeffs):
        """Linear combination of symbols from a ``{name: rational}`` map."""
        return sum((self.sym(name) * _rational(c) for name, c in coeffs.items()),
                   self.zero)

    # -- derived contexts ----------------------------------------------

    def with_formal(self, names):
        return ChowRing(self.symbols, self.bound, self.formal + tuple(names))

    def with_bound(self, bound):
        return ChowRing(self.symbols, bound, self.formal)

    def convert(self, value):
        """Reinterpret a value in this ring, truncating to this bound.

        Every symbol used by the value must exist here with the same degree;
        mismatched degrees raise :class:`ContextError`.
        """
        if isinstance(value, (int, Fraction)):
            return self.const(value)
        if not isinstance(value, ChowPoly):
            raise TypeError(f"cannot convert {value!r} to a class")
        src = value.ring
        if src is self or src == self:
            return value if src is self else ChowPoly(self, value._terms)
        for name in value.symbols_used():
            if name not in self._degrees:
                raise SymbolError(f"symbol {name!r} does not exist in the target ring")
            if self._degrees[name] != src._degrees[name]:
                raise ContextError(f"symbol {name!r} changes degree between rings")
        return self._from_monomials({src._decode(key)[1]: c
                                     for key, c in value._terms.items()})

    # -- monomials -----------------------------------------------------

    def _from_monomials(self, terms):
        # {((name, exp), ...): coeff} -> value; drops terms above the bound
        out = {}
        for mono, c in terms.items():
            if sum(e * self._degrees[n] for n, e in mono
                   if n not in self._formal_set) <= self.bound:
                out[sum(e * self._unit[n] for n, e in mono)] = c
        return self._finish(out)

    def _decode(self, key):
        """``(rank, ((name, exp), ...))`` of a packed key.  Ranks sort keys in
        canonical order: total degree, then exponents in field order, larger first.
        Equal factors share one tuple, since values keep their decoded terms.
        Only the nonzero fields are visited: each step jumps to the field of
        the lowest set bit."""
        mono = []
        degree = rank = 0
        key >>= _BITS
        while key:
            i = ((key & -key).bit_length() - 1) // _BITS
            e = key >> _BITS * i & _FIELD
            key -= e << _BITS * i
            name, weight, shift = self._by_field[i]
            degree += e * weight
            rank -= e << shift
            factor = (name, e)
            mono.append(self._factors.setdefault(factor, factor))
        return (degree, rank), tuple(mono)

    def _finish(self, terms):
        # drops zero terms and stores integral coefficients as int
        out = {}
        for key, c in terms.items():
            if c:
                out[key] = (c.numerator if c.__class__ is Fraction
                            and c.denominator == 1 else c)
        if self._guard and any(key & self._guard for key in out):
            raise ChowError(f"formal exponent above {_MAX_EXP}")
        return ChowPoly(self, out)


def _split(terms, top):
    """The term map split by degree: one map for each degree ``0..top``;
    terms above ``top`` are dropped."""
    pieces = [{} for _ in range(top + 1)]
    for key, c in terms.items():
        d = key & _FIELD
        if d <= top:
            pieces[d][key] = c
    return pieces


def _by_degree(terms):
    """Terms sorted by degree, and the degree of each."""
    items = sorted(terms.items(), key=lambda kc: kc[0] & _FIELD)
    return items, [key & _FIELD for key, _ in items]


def _mul_into(out, left, right, limit):
    """Add the product of ``left`` (a term map) and ``right`` (from
    :func:`_by_degree`) to ``out``, skipping pairs whose degree would pass
    ``limit``.  The pairs skipped are exactly those truncation would drop.

    A left term whose room reaches the right operand's top degree pairs with
    all of ``right`` as it stands, with no search and no slice; that is every
    term of a product by a linear factor but those at the limit."""
    items, degrees = right
    if not items:
        return
    top = degrees[-1]
    get = out.get
    for k1, c1 in left.items():
        room = limit - (k1 & _FIELD)
        if room >= top:
            pairs = items
        elif room < 0:
            continue
        else:
            pairs = items[:bisect_right(degrees, room)]
        for k2, c2 in pairs:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2


def _coerced(method):
    """A binary operator whose other operand goes through ``_coerce``; an
    operand of a foreign type gives ``NotImplemented``."""
    @functools.wraps(method)
    def wrapper(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else method(self, other)
    return wrapper


def _nonzero_rational(value):
    q = _rational(value)
    if not q:
        raise ZeroDivisionError("division of a class by zero")
    return q


def _power(base, exponent, one):
    """``base ** exponent`` by square-and-multiply."""
    if not _is_int(exponent) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def _divide_unit(num, tail, limit):
    """The term map of ``num / (1 + tail)``, dropping terms of degree above
    ``limit``; every term of ``tail`` must have positive degree.

    The quotient is finished degree by degree: once all lower degrees have
    pushed ``-term * tail`` into it, degree ``d`` holds exactly the
    quotient's degree-``d`` terms, which then push into higher degrees in
    turn.  The cost is one pass over the pairs of a quotient term and a tail
    term whose degree stays within ``limit``.
    """
    buckets = _split(num, limit)
    negated = [(e, [(key, -c) for key, c in part.items()])
               for e, part in enumerate(_split(tail, limit)) if part]
    out = {}
    for d, bucket in enumerate(buckets):
        room = limit - d
        for key, c in bucket.items():
            if not c:
                continue
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            out[key] = c
            for e, pairs in negated:
                if e > room:
                    break
                target = buckets[d + e]
                get = target.get
                for k2, c2 in pairs:
                    k = key + k2
                    target[k] = get(k, 0) + c * c2
    return out


class ChowPoly:
    """Immutable truncated graded polynomial with exact rational coefficients.

    Build values through :class:`ChowRing` (``ring.sym``, ``ring.const``,
    ``ring.linear``) and combine them with ``+ - * / **``.  Division accepts
    a nonzero rational constant (exact scalar division) or a class with
    constant term 1 (exact division by a unit, see :func:`expand_ratio`);
    anything else raises :class:`NonUnitError`.

    A value never changes once built: its canonical term list and graded
    pieces are computed at most once, on first use, and callers get copies.
    """

    __slots__ = ("ring", "_terms", "_canon", "_pieces")

    def __init__(self, ring, terms):
        # internal: ``terms`` maps packed monomial keys to nonzero coefficients
        self.ring = ring
        self._terms = terms
        self._canon = self._pieces = None

    # -- inspection -----------------------------------------------------

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def is_constant(self):
        return all(key == 0 for key in self._terms)

    def constant_term(self):
        return self._terms.get(0, 0)

    def symbols_used(self):
        seen = 0
        for key in self._terms:
            seen |= key
        return {name for name, shift in self.ring._shift.items()
                if seen >> shift & _FIELD}

    def uses_formal(self):
        return any(self.ring.is_formal(n) for n in self.symbols_used())

    def is_homogeneous(self, degree=None):
        degs = {key & _FIELD for key in self._terms}
        return len(degs) <= 1 and (degree is None or degs <= {degree})

    def coefficient(self, exponents):
        """Exact coefficient of the monomial given as ``{name: exp}``."""
        exponents = dict(exponents)
        for name in exponents:
            self.ring.degree_of(name)  # an unknown name is a SymbolError
        mono = tuple((n, e) for n, e in exponents.items() if e)
        if not all(0 < e <= _MAX_EXP for _, e in mono):
            return 0
        key = self.ring._from_monomials({mono: 1})._terms
        return self._terms.get(next(iter(key), -1), 0)  # -1: truncated away

    def terms(self):
        """Terms as ``(monomial, coefficient)`` pairs in canonical order."""
        return list(self._canonical()[1])

    def _canonical(self):
        """``(codims, terms)``: :meth:`terms` sorted once, and field 0 of each key."""
        if self._canon is None:
            decode = self.ring._decode
            items = [decode(key) + (key & _FIELD, c)
                     for key, c in self._terms.items()]
            items.sort()
            self._canon = ([t[2] for t in items], [(t[1], t[3]) for t in items])
        return self._canon

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        if isinstance(other, ChowPoly):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise ContextError("operands belong to different ring contexts")
        return None

    @_coerced
    def __add__(self, other):
        terms = dict(self._terms)
        for key, c in other._terms.items():
            terms[key] = terms.get(key, 0) + c
        return self.ring._finish(terms)

    __radd__ = __add__

    def __neg__(self):
        return ChowPoly(self.ring, {key: -c for key, c in self._terms.items()})

    @_coerced
    def __sub__(self, other):
        return self + (-other)

    @_coerced
    def __rsub__(self, other):
        return other + (-self)

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, (int, Fraction)):
            q = _rational(other)
            return ring._finish({key: c * q for key, c in self._terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        _mul_into(out, self._terms, _by_degree(other._terms), ring.bound)
        return ring._finish(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        return _power(self, exponent, self.ring.one)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, _nonzero_rational(other))
        if isinstance(other, ChowPoly):
            if other.is_constant():
                return self.__truediv__(other.constant_term())
            return expand_ratio(self, other)
        return NotImplemented

    @_coerced
    def __rtruediv__(self, other):
        return other.__truediv__(self)

    def __eq__(self, other):
        if _is_int(other) or isinstance(other, Fraction):
            other = self.ring.const(other)
        if not isinstance(other, ChowPoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    # -- graded structure ---------------------------------------------

    def component(self, codim):
        """The homogeneous piece of the given codimension, the truncated
        degree (formal variables count 0).

        The index must lie in ``[0, bound]``; anything else is a
        :class:`GradeError` rather than silently zero.
        """
        if not _is_int(codim) or codim < 0 or codim > self.ring.bound:
            raise GradeError(f"component index {codim} outside [0, {self.ring.bound}]")
        return (self._pieces or self.components())[codim]

    def components(self):
        """The homogeneous pieces of codimension ``0..bound``, adding up to the
        value; codimension is the truncated degree (formal variables count 0)."""
        if self._pieces is None:
            self._pieces = [ChowPoly(self.ring, piece)
                            for piece in _split(self._terms, self.ring.bound)]
        return list(self._pieces)

    def truncate(self, degree):
        """Drop all terms of codimension above ``degree``."""
        if degree >= self.ring.bound:
            return self
        return ChowPoly(self.ring, {key: c for key, c in self._terms.items()
                                    if key & _FIELD <= degree})

    # -- formal-variable calculus ---------------------------------------

    def _by_power(self, name):
        """``{e: {key without name: coeff}}``: the terms grouped by their
        exponent of the formal variable ``name``."""
        self.ring._require_formal(name)
        shift = self.ring._shift[name]
        groups = {}
        for key, c in self._terms.items():
            e = key >> shift & _FIELD
            groups.setdefault(e, {})[key - (e << shift)] = c
        return groups

    def derivative(self, name):
        """Partial derivative with respect to a formal variable."""
        groups = self._by_power(name)
        unit = self.ring._unit[name]
        return self.ring._finish({key + (e - 1) * unit: c * e
                                  for e, part in groups.items() if e
                                  for key, c in part.items()})

    def substitute(self, name, value):
        """Replace a formal variable by a class of the same ring."""
        self.ring._require_formal(name)
        return self.rewrite({name: value})

    def rewrite(self, mapping, ring=None):
        """Substitute every symbol via ``mapping`` (defaulting to itself),
        landing in ``ring`` (defaulting to this one)."""
        target = ring if ring is not None else self.ring
        powers = {}  # name -> [1, value, value**2, ...], grown as needed
        out = {}
        for key, c in self._terms.items():
            term = target.const(c)
            for name, e in self.ring._decode(key)[1]:
                if name not in powers:
                    value = mapping.get(name)
                    value = target.sym(name) if value is None else target.convert(value)
                    powers[name] = [target.one, value]
                pw = powers[name]
                while len(pw) <= e:
                    pw.append(pw[-1] * pw[1])
                term = term * pw[e]
            for k, v in term._terms.items():
                out[k] = out.get(k, 0) + v
        return target._finish(out)

    # -- rendering -------------------------------------------------------

    def __str__(self):
        return format_terms(self._canonical()[1], str, _text_power, "*")

    def __repr__(self):
        return f"ChowPoly({self})"


def expand_ratio(numerator, denominator):
    """``numerator / denominator``, exact in the truncated ring.

    The denominator must have constant term 1, which makes it a unit of the
    truncated ring; the quotient is computed degree by degree
    (:func:`_divide_unit`).  Formal variables are not allowed in the
    denominator, as no power of them ever truncates away.
    """
    if isinstance(denominator, (int, Fraction)):
        denominator = numerator.ring.const(denominator)
    numerator = denominator._coerce(numerator)
    if denominator.constant_term() != 1:
        raise NonUnitError("division requires a denominator with constant term 1")
    if denominator.uses_formal():
        raise SymbolError("division by a class in formal variables is not available")
    ring = numerator.ring
    tail = {key: c for key, c in denominator._terms.items() if key}
    return ChowPoly(ring, _divide_unit(numerator._terms, tail, ring.bound))
