"""Exact arithmetic for truncated graded polynomials in named class symbols.

Intersection classes on a smooth variety of dimension ``m`` are represented
as sparse polynomials in a fixed set of graded symbols: divisor classes have
degree 1, a Chern-class symbol ``c_i`` has degree ``i``.  Every term whose
total symbol degree exceeds the ring's truncation bound is dropped at
construction time, which realizes working modulo classes of codimension
greater than ``m``.  That degree is a term's codimension.

Coefficients are exact rationals: an ``int`` when integral, otherwise a
:class:`fractions.Fraction` (the two compare and hash equal); floats are
rejected so every identity holds exactly.

A monomial is stored as its exponent vector packed into one integer of
fixed-width fields: field 0 holds the degree that truncation counts, field
``i + 1`` the exponent of the ring's ``i``-th symbol in ``(degree, name)``
order.  A product of monomials is then one integer addition,
and a term's degree is read off without looking at its symbols.

Every field has ``bound.bit_length() + 1`` bits: no term a ring keeps has a
degree or an exponent above ``bound``, and the kernels add two keys only
while the sum's degree stays within a limit of at most ``bound``.  Every
field of a valid key then has its top bit clear, so a sum of two keys never
carries into the next field, and a key stays a few machine digits long: a
divisor-only class of a dimension-60 base fits in one 30-bit digit.  Equal
rings get equal widths; a value changes rings through its decoded monomials
(:meth:`ChowRing._flat_terms`).

Values are immutable and operations are pure.
"""

from __future__ import annotations

import functools
import operator
import re
from bisect import bisect_right
from fractions import Fraction

from .render import _text_strings, format_terms

# the largest bound: its fields are 32 bits wide
_MAX_BOUND = (1 << 31) - 1


class ChowError(Exception):
    """Base class for errors raised by this package."""


class ContextError(ChowError):
    """Operands live in different ring contexts."""


class NonUnitError(ChowError):
    """Division by a class that is not a unit: its constant term is not 1."""


class SymbolError(ChowError):
    """Unknown, invalid or repeated symbol."""


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


def _check_bound(bound):
    """A truncation bound is an ``int`` in ``[0, _MAX_BOUND]``."""
    if not _is_int(bound) or not 0 <= bound <= _MAX_BOUND:
        raise GradeError(f"truncation bound must be an integer in [0, {_MAX_BOUND}]")


class _Frozen:
    """An immutable record of the fields named in ``__slots__``, compared,
    hashed and shown by those fields as a frozen dataclass would be, without
    the import and class-creation cost of :mod:`dataclasses`.  A plain record
    takes its fields by position or by name, each once; a record that checks
    them or derives state sets its slots in its own ``__init__`` (:meth:`_set`).

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

    def __init__(self, *args, **kwargs):
        names = self._names
        # an extra or repeated field makes the dict shorter than the arguments
        values = dict(zip(names, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{', '.join(names)}, each exactly once")
        self._set(*map(values.__getitem__, names))

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


class _Factors(dict):
    """``exp + (i << step) -> (name, exp)`` for the ``i``-th of ``names``,
    filled on a miss, so each factor a ring decodes is one tuple."""

    __slots__ = ("names", "step")

    def __init__(self, names, step):
        self.names, self.step = names, step

    def __missing__(self, index):
        factor = self[index] = (self.names[index >> self.step],
                                index & (1 << self.step) - 1)
        return factor


class ChowRing(_Frozen, fields=("symbols", "bound")):
    """A symbol table and a truncation bound.

    The bound is the dimension of the underlying variety.  A term's
    codimension is its truncated degree, field 0 of its packed key: the sum
    of its symbols' degrees.  Two rings are interchangeable contexts exactly
    when their symbol tables and bounds agree.  Those also fix the width of
    every field of a key, ``_bits``; ``_mask`` reads one field, and
    ``key & _mask`` is the degree.  Every slot, the decode table ``_walk``
    too, is set in ``__init__``, and nothing a ring holds refers back to it.
    """

    __slots__ = ("symbols", "bound", "_degrees", "_bits", "_mask", "_shift",
                 "_unit", "_walk")

    def __init__(self, symbols, bound):
        _check_bound(bound)
        syms = list(symbols)
        for s in syms:
            if not isinstance(s, Symbol):
                raise SymbolError(f"a ring's symbols must be Symbol records, not {s!r}")
        syms.sort(key=lambda s: (s.degree, s.name))
        degrees = {s.name: s.degree for s in syms}
        if len(degrees) != len(syms):
            raise SymbolError("symbol names must be unique within a ring")
        # fields in (degree, name) order, none above the bound (module
        # docstring); _walk gives _flat_terms each one's low bit, weight and tag
        bits, names = bound.bit_length() + 1, list(degrees)
        shift = {name: bits * (i + 1) for i, name in enumerate(names)}
        unit = {name: degrees[name] + (1 << shift[name]) for name in names}
        top = bits * len(names)
        fields = [(bits * i, (degrees[name] << top) - (1 << top - shift[name]),
                   i << bits - 1) for i, name in enumerate(names)]
        self._set(tuple(syms), bound, degrees, bits, (1 << bits) - 1, shift,
                  unit, (fields, _Factors(names, bits - 1)))

    def __repr__(self):
        names = ",".join(s.name for s in self.symbols)
        return f"ChowRing({names}; bound={self.bound})"

    # -- symbol table -------------------------------------------------

    def degree_of(self, name):
        try:
            return self._degrees[name]
        except KeyError:
            raise SymbolError(f"unknown symbol {name!r}") from None

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
        terms = {self._unit[name]: 1} if self.degree_of(name) <= self.bound else {}
        return ChowPoly(self, terms)  # one term keyed by _unit; none past the bound

    def linear(self, coeffs):
        """Linear combination of symbols from a ``{name: rational}`` map."""
        return sum((self.sym(name) * _rational(c) for name, c in coeffs.items()),
                   self.zero)

    # -- conversion ----------------------------------------------------

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
        return self._from_monomials({mono: c for _, _, mono, c
                                     in src._flat_terms(value._terms)})

    # -- monomials -----------------------------------------------------

    def _from_monomials(self, terms):
        # {((name, exp), ...): coeff} -> value; drops terms above the bound
        out = {}
        for mono, c in terms.items():
            if sum(e * self._degrees[n] for n, e in mono) <= self.bound:
                out[sum(e * self._unit[n] for n, e in mono)] = c
        return self._finish(out)

    def _flat_terms(self, terms):
        """``[(order, codim, monomial, coeff), ...]`` for the term map
        ``terms``, in its order.  ``order``, the degree times
        ``2**(bits * fields)`` plus the rank, is unique to the key and sorts
        in canonical order: total degree first, then exponents in field
        order, larger first.  The rank is
        ``-sum(exp << bits * (fields - i))`` over the variables' fields ``i``
        from 1.  The walk goes from the top nonzero field down: no field's
        top bit is set, so that field is ``key.bit_length() // bits``.
        Equal factors are one tuple, as values keep their decoded terms."""
        fields, factors = self._walk
        bits, mask = self._bits, self._mask
        out = []
        append = out.append
        for key, c in terms.items():
            codim = key & mask
            key >>= bits
            order = 0
            mono = []
            while key:
                low, weight, tag = fields[key.bit_length() // bits]
                e = key >> low
                key ^= e << low
                order += e * weight
                mono.append(factors[e + tag])
            mono.reverse()
            append((order, codim, tuple(mono), c))
        return out

    def _finish(self, terms):
        """The value of the term map ``terms``, taking ownership of the
        dict: zero coefficients are deleted and integral ``Fraction``s
        become ``int`` in place, so the surviving terms keep their order.
        Pass only a dict built for this call, never a value's ``_terms``."""
        zeros = []
        for key, c in terms.items():
            if not c:
                zeros.append(key)
            elif c.__class__ is Fraction and c.denominator == 1:
                terms[key] = c.numerator
        for key in zeros:
            del terms[key]
        return ChowPoly(self, terms)


def _split(terms, top, mask):
    """The term map split by degree: one map for each degree ``0..top``;
    terms above ``top`` are dropped.  ``mask`` is the ring's ``_mask``."""
    pieces = [{} for _ in range(top + 1)]
    for key, c in terms.items():
        d = key & mask
        if d <= top:
            pieces[d][key] = c
    return pieces


def _by_degree(terms, mask):
    """Terms sorted by degree, the degree of each, and the ring's ``_mask``
    that reads it."""
    items = sorted(terms.items(), key=lambda kc: kc[0] & mask)
    return items, [key & mask for key, _ in items], mask


def _negated_table(coeffs):
    """``(k, -coeffs[k])`` for each nonzero class after the first, with
    ``-coeffs[k]`` in the form :func:`_mul_into` takes."""
    return [(k, _by_degree({key: -c for key, c in u._terms.items()},
                           u.ring._mask))
            for k, u in enumerate(coeffs) if k and u]


def _mul_into(out, left, right, limit):
    """Add the product of ``left`` (a term map) and ``right`` (from
    :func:`_by_degree`) to ``out``, skipping pairs whose degree would pass
    ``limit``.  The pairs skipped are exactly those truncation would drop.

    A left term whose room reaches the right operand's top degree pairs with
    all of ``right`` as it stands, with no search and no slice; that is every
    term of a product by a linear factor but those at the limit.  A right
    operand of one term whose key is 0, a constant, scales the left terms
    within the limit in one pass."""
    items, degrees, mask = right
    if not items:
        return
    get = out.get
    if len(items) == 1 and not items[0][0]:
        c2 = items[0][1]
        for k1, c1 in left.items():
            if k1 & mask <= limit:
                out[k1] = get(k1, 0) + c1 * c2
        return
    top = degrees[-1]
    for k1, c1 in left.items():
        room = limit - (k1 & mask)
        if room >= top:
            pairs = items
        elif room < 0:
            continue
        else:
            pairs = items[:bisect_right(degrees, room)]
        for k2, c2 in pairs:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2


def _linear_product(ring, factors):
    """The term map of ``prod (1 + form)**mult`` over the ``(form, mult)``
    in ``factors``: ``form`` the term map of a class of ``ring`` with no
    constant term.  Each factor multiplies the running map once per unit of
    ``mult`` through :func:`_mul_into`, so no term above the bound is formed
    and no value is built.  ``ring._finish`` drops the map's zeros and
    converts integral ``Fraction``s."""
    out = {0: 1}
    for form, mult in factors:
        right = _by_degree({0: 1, **form}, ring._mask)
        for _ in range(mult):
            product = {}
            _mul_into(product, out, right, ring.bound)
            out = product
    return out


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


def _negated_tail(tail, limit, mask):
    """The terms of ``tail`` up to degree ``limit``, negated and grouped by
    degree: ``(degree, [(key, -coeff), ...])`` for each degree that has
    terms, lowest first, as :func:`_divide_unit` takes them.  ``mask`` is
    the ring's ``_mask``."""
    return [(e, [(key, -c) for key, c in part.items()])
            for e, part in enumerate(_split(tail, limit, mask)) if part]


def _divide_unit(negated, mask, nums, limits, step=0):
    """The term maps ``z_n = (nums[n] + step*z_(n-1)) / (1 + tail)``, the
    ``H**n`` coefficients of ``sum nums[n] H**n / (1 + tail - step*H)``,
    one for each of the limits, which must not increase, and without terms
    of degree above ``limits[n]``.  ``negated`` is :func:`_negated_tail` of
    ``tail``, split at ``limits[0]`` or above, every term of ``tail`` must
    have positive degree, and ``mask`` is the ring's ``_mask``.

    Each ``z_n`` is finished degree by degree, in one pass over buckets that
    ``nums[n]`` and ``step*z_(n-1)`` seeded: once all lower degrees have
    pushed ``-term * tail`` into it, degree ``d`` holds exactly the
    degree-``d`` terms of ``z_n``, which push into higher degrees in turn
    and, times ``step``, into degree ``d`` of ``z_(n+1)``.  Tail terms above
    the room of a quotient term are never reached, so one split serves all.
    """
    limits, nums = [*limits, -1], [*nums, *[{}] * (len(limits) + 1)]
    quotient, later = [], _split(nums[0], limits[0], mask)
    for n, limit in enumerate(limits[:-1]):
        buckets, later = later, _split(nums[n + 1], limits[n + 1], mask)
        top = limits[n + 1] if step else -1
        out = {}
        for d, bucket in enumerate(buckets):
            room = limit - d
            for key, c in bucket.items():
                if not c:
                    continue
                if c.__class__ is Fraction and c.denominator == 1:
                    c = c.numerator
                out[key] = c
                if d <= top:
                    target = later[d]
                    target[key] = target.get(key, 0) + step * c
                for e, pairs in negated:
                    if e > room:
                        break
                    target = buckets[d + e]
                    get = target.get
                    for k2, c2 in pairs:
                        k = key + k2
                        target[k] = get(k, 0) + c * c2
        quotient.append(out)
    return quotient


def _unit_divider(unit):
    """``divide(nums, limits, step=0)``: :func:`_divide_unit` by ``unit``.
    ``unit`` must have constant term 1; its tail is split once, at the
    bound, for every limit."""
    ring = unit.ring
    if unit.constant_term() != 1:
        raise NonUnitError("division requires a denominator with constant term 1")
    negated = _negated_tail({key: c for key, c in unit._terms.items() if key},
                            ring.bound, ring._mask)
    return functools.partial(_divide_unit, negated, ring._mask)


_codim, _term = operator.itemgetter(1), operator.itemgetter(2, 3)


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
        mask = self.ring._mask
        return {name for name, shift in self.ring._shift.items()
                if seen >> shift & mask}

    def is_homogeneous(self, degree):
        """Whether every term has codimension ``degree``; zero has every
        codimension."""
        mask = self.ring._mask
        return {key & mask for key in self._terms} <= {degree}

    def coefficient(self, exponents):
        """Exact coefficient of the monomial ``{name: exp}``, exponents integers."""
        exponents = dict(exponents)
        for name, e in exponents.items():
            self.ring.degree_of(name)  # an unknown name is a SymbolError
            if not _is_int(e):
                raise ValueError("exponent must be an integer")
        mono = tuple((n, e) for n, e in exponents.items() if e)
        if not all(0 < e <= self.ring.bound for _, e in mono):
            return 0
        key = self.ring._from_monomials({mono: 1})._terms
        return self._terms.get(next(iter(key), -1), 0)  # -1: truncated away

    def terms(self):
        """Terms as ``(monomial, coefficient)`` pairs in canonical order."""
        return list(self._canonical()[1])

    def _canonical(self):
        """``(codims, terms)``: :meth:`terms` sorted once, and field 0 of each
        key; the sort compares one integer per term."""
        if self._canon is None:
            items = self.ring._flat_terms(self._terms)
            items.sort()
            self._canon = list(map(_codim, items)), list(map(_term, items))
        return self._canon

    def _degree_table(self):
        """The terms as the right operand of :func:`_mul_into` takes them."""
        return _by_degree(self._terms, self.ring._mask)

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
        _mul_into(out, self._terms, _by_degree(other._terms, ring._mask),
                  ring.bound)
        return ring._finish(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        return _power(self, exponent, self.ring.one)

    @_coerced
    def __truediv__(self, other):
        if other.is_constant():
            return self * Fraction(1, _nonzero_rational(other.constant_term()))
        return expand_ratio(self, other)

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
        """The homogeneous piece of the given codimension.

        The index must lie in ``[0, bound]``; anything else is a
        :class:`GradeError` rather than silently zero.
        """
        if not _is_int(codim) or codim < 0 or codim > self.ring.bound:
            raise GradeError(f"component index {codim} outside [0, {self.ring.bound}]")
        piece = (self._pieces or self._graded()).get(codim)
        return self.ring.zero if piece is None else piece

    def components(self):
        """The homogeneous pieces of codimension ``0..bound``, adding up to the
        value."""
        pieces, zero = self._pieces or self._graded(), self.ring.zero
        return [pieces.get(k, zero) for k in range(self.ring.bound + 1)]

    def _graded(self):
        """``{codim: piece}`` for each codimension that has terms, grouped in
        one pass over the terms on first use and kept: a read of one piece
        costs nothing per empty codimension, whatever the bound."""
        if self._pieces is None:
            mask, groups = self.ring._mask, {}
            for key, c in self._terms.items():
                group = groups.get(key & mask)
                if group is None:
                    groups[key & mask] = {key: c}
                else:
                    group[key] = c
            self._pieces = {k: ChowPoly(self.ring, terms)
                            for k, terms in groups.items()}
        return self._pieces

    def _graded_scale(self, weights):
        """The class whose codimension-``k`` piece is ``weights[k]`` times this
        one's, in one pass over the terms; pieces from ``len(weights)`` on drop."""
        top, mask = len(weights), self.ring._mask
        return self.ring._finish({key: c * weights[key & mask]
                                  for key, c in self._terms.items()
                                  if key & mask < top})

    def truncate(self, degree):
        """Drop all terms of codimension above ``degree``."""
        if degree >= self.ring.bound:
            return self
        mask = self.ring._mask
        return ChowPoly(self.ring, {key: c for key, c in self._terms.items()
                                    if key & mask <= degree})

    def substitute(self, name, value):
        """Replace the symbol ``name`` by a class of this ring or an exact
        rational."""
        self.ring.degree_of(name)  # an unknown name is a SymbolError
        return self.rewrite({name: value})

    def rewrite(self, mapping, ring=None):
        """Substitute every symbol via ``mapping`` (defaulting to itself),
        landing in ``ring`` (defaulting to this one)."""
        target = ring if ring is not None else self.ring
        powers = {}  # name -> [1, value, value**2, ...], grown as needed
        out = {}
        for _, _, mono, c in self.ring._flat_terms(self._terms):
            term = target.const(c)
            for name, e in mono:
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
        return format_terms(self._canonical()[1], str, _text_strings, "*")

    def __repr__(self):
        return f"ChowPoly({self})"


def expand_ratio(numerator, denominator):
    """``numerator / denominator``, exact in the truncated ring.

    The denominator must have constant term 1, which makes it a unit of the
    truncated ring; the quotient is computed degree by degree
    (:func:`_divide_unit`).  Either operand, but not both, may be an exact
    rational.
    """
    if isinstance(numerator, ChowPoly):
        denominator = numerator._coerce(denominator)
    elif isinstance(denominator, ChowPoly):
        numerator = denominator._coerce(numerator)
    if not (isinstance(numerator, ChowPoly) and isinstance(denominator, ChowPoly)):
        raise TypeError("expand_ratio takes classes and exact rationals, "
                        "at least one of them a class")
    ring = numerator.ring
    return ChowPoly(ring, *_unit_divider(denominator)([numerator._terms], [ring.bound]))
