"""Base-variety models.

The formula asks two things of a base: ``chern_class(k)``, its ``c_k(B)``,
and ``integrate(cls)``, which gives the degree of a top class or refuses.
A :class:`FormalBase` keeps the Chern classes of the base as free symbols
``c1..cm`` alongside named divisor symbols, so one computation answers the
question for every smooth base of that dimension at once, and refuses to
integrate.  A :class:`ProjectiveSpaceBase` works in the hyperplane class
``h`` and integrates, turning top classes into integers.
:func:`specialize` maps formal answers into projective space and commutes
with the whole pipeline.
"""

from __future__ import annotations

import re

from .ring import (ChowError, ChowRing, Symbol, SymbolError, _check_bound,
                   _Frozen, _is_int)


class SpecializationError(ChowError):
    """A symbol survived that the target base cannot interpret."""


class ModeError(ChowError):
    """Requested output mode is unavailable for this base model."""


# c1..c(2**31 - 1), the Chern symbols of a formal base of the largest bound
_CHERN_RE = re.compile(r"c([1-9][0-9]{0,9})\Z")


def _divisor_symbol(name, chern=()):
    """The degree-1 symbol of a divisor: ``name`` is a symbol name, not ``H``,
    the hyperplane class of every ``P(E)``, nor ``c<i>`` for ``i`` in ``chern``."""
    symbol = Symbol(name)  # validates the identifier
    if name == "H":
        raise SymbolError("the divisor name H is reserved")
    index = _CHERN_RE.match(name)
    if index and int(index[1]) in chern:
        raise SymbolError("symbol names must be unique within a ring")
    return symbol


class FormalBase(_Frozen, fields=("dim", "divisors", "fano")):
    """Smooth base of dimension ``dim`` with free Chern symbols.

    ``divisors`` adds degree-1 symbols (``("L",)`` by default) other than
    ``H`` and ``c1..c{dim}``.  With ``fano=True`` the first divisor is the
    anticanonical class: :meth:`bindings` reads it as ``c1``, so a job that
    names it computes in ``c1`` from the start.  A fano base needs at least
    one divisor.  :meth:`chern_class` is the symbol ``c<k>`` and
    :meth:`integrate` refuses.  :meth:`chern_polynomial` is built on first
    use, as its keys are as wide as the ring and most jobs never read it,
    and kept in a slot that no comparison, hash, ``repr``, copy or pickle
    reads.
    """

    __slots__ = ("dim", "divisors", "fano", "ring", "_chern")

    def __init__(self, dim, divisors=("L",), fano=False):
        if not _is_int(dim) or dim < 0:
            raise ValueError("base dimension must be a nonnegative integer")
        divisors = tuple(divisors)
        if fano and not divisors:
            raise ValueError("a fano base needs a divisor to stand for the "
                             "anticanonical class")
        _check_bound(dim)  # before c1..c_dim are built, one per dimension
        symbols = [Symbol(f"c{i}", i) for i in range(1, dim + 1)]
        symbols += [_divisor_symbol(name) for name in divisors]
        self._set(dim, divisors, bool(fano), ChowRing(symbols, dim), None)

    def chern_symbol(self, i):
        if not _is_int(i):
            raise SymbolError(f"a Chern symbol index must be an integer, not {i!r}")
        if not 1 <= i <= self.dim:
            raise SymbolError(f"c{i} does not exist on a dimension-{self.dim} base")
        return self.ring.sym(f"c{i}")

    def chern_class(self, k):
        """``c_k(B)``: 1 at ``k = 0``, the symbol ``c<k>`` up to ``dim`` and
        zero above; :meth:`chern_polynomial` is not built."""
        if not _is_int(k) or k < 0:
            raise ValueError("a Chern class index must be a nonnegative integer")
        if k == 0:
            return self.ring.one
        return self.chern_symbol(k) if k <= self.dim else self.ring.zero

    def chern_polynomial(self):
        if self._chern is None:
            terms = {((f"c{i}", 1),): 1 for i in range(1, self.dim + 1)}
            terms[()] = 1
            object.__setattr__(self, "_chern", self.ring._from_monomials(terms))
        return self._chern

    def bindings(self):
        """``{name: class}`` for the divisor this base reads as another
        class: the first divisor is ``c1`` when ``fano`` is set.  A point
        has no ``c1``, and there every class is a constant."""
        if not self.fano or self.dim == 0:
            return {}
        return {self.divisors[0]: self.chern_symbol(1)}

    def apply_binding(self, cls):
        """``cls`` with each name of :meth:`bindings` replaced by its class."""
        return cls.rewrite(self.bindings())

    def integrate(self, cls):
        """Refused with :class:`ModeError`: free Chern symbols cannot be
        integrated, so a formal base only yields the symbolic class."""
        raise ModeError("integration needs a projective-space base; "
                        "a formal base only yields the symbolic class")


class ProjectiveSpaceBase(_Frozen, fields=("dim", "multiple", "divisor")):
    """Projective space of dimension ``dim``; classes are polynomials in the
    hyperplane class ``h``.

    ``multiple`` optionally binds a divisor name (``"L"`` by default) to
    ``multiple * h`` so bundle data written in terms of that divisor can be
    interpreted here.  The divisor name is a symbol name other than ``H``.
    ``c(P^dim) = sum_i binom(dim + 1, i) h^i`` is built with the base and
    kept as by :class:`FormalBase`; :meth:`chern_class` reads its graded
    pieces, and :meth:`integrate` takes the degree of a top class.
    """

    __slots__ = ("dim", "multiple", "divisor", "ring", "_chern")

    def __init__(self, dim, multiple=None, divisor="L"):
        if not _is_int(dim) or dim < 0:
            raise ValueError("base dimension must be a nonnegative integer")
        if multiple is not None and not _is_int(multiple):
            raise ValueError("divisor multiple must be an integer")
        _divisor_symbol(divisor)
        ring, terms, binomial = ChowRing([Symbol("h", 1)], dim), {}, 1
        for i in range(dim + 1):
            terms[(("h", i),)] = binomial
            binomial = binomial * (dim + 1 - i) // (i + 1)
        self._set(dim, multiple, divisor, ring, ring._from_monomials(terms))

    def hyperplane(self):
        return self.ring.sym("h")

    def chern_polynomial(self):
        return self._chern

    def chern_class(self, k):
        """``c_k(P^dim) = binom(dim + 1, k) h^k``, zero above ``dim``."""
        if not _is_int(k) or k < 0:
            raise ValueError("a Chern class index must be a nonnegative integer")
        return self._chern.component(k) if k <= self.dim else self.ring.zero

    def bindings(self):
        """``{divisor: multiple*h}`` once a multiple is bound; ``h`` itself
        is never rebound."""
        if self.multiple is None or self.divisor == "h":
            return {}
        return {self.divisor: self.divisor_class()}

    def divisor_class(self):
        if self.multiple is None:
            raise SpecializationError(
                f"divisor {self.divisor!r} has no bound multiple of h")
        return self.multiple * self.hyperplane()

    def integrate(self, cls):
        """Degree of a class: the coefficient of ``h**dim``."""
        try:
            cls = self.ring.convert(cls)
        except SymbolError as exc:
            raise SpecializationError(str(exc)) from None
        exponents = {"h": self.dim} if self.dim else {}
        return cls.coefficient(exponents)

    def __repr__(self):
        binding = (f"{self.divisor} unbound" if self.multiple is None
                   else f"{self.divisor}={self.multiple}*h")
        return f"ProjectiveSpaceBase(dim={self.dim}, {binding})"


def specialize(cls, base):
    """Map a formal-base class into projective space.

    Chern symbols ``c_i``, the symbols ``c<i>`` of degree ``i``, become the
    target's ``chern_class(i)`` (0 for ``i > dim``), the bound divisor
    becomes its class in :meth:`ProjectiveSpaceBase.bindings` (``h`` is never
    rebound), and the result is truncated at the target dimension.  An unbound
    divisor, or any other surviving symbol, raises :class:`SpecializationError`;
    a target that is not a :class:`ProjectiveSpaceBase` is a :class:`TypeError`.
    """
    if not isinstance(base, ProjectiveSpaceBase):
        raise TypeError("specialize targets a ProjectiveSpaceBase")
    mapping = {"h": base.hyperplane(), **base.bindings()}
    for name in cls.symbols_used():
        match = _CHERN_RE.match(name)
        if match and cls.ring.degree_of(name) == int(match[1]):
            mapping[name] = base.chern_class(int(match[1]))
        elif name == base.divisor and name not in mapping:
            base.divisor_class()  # unbound, so this raises
        elif name not in mapping:
            raise SpecializationError(f"cannot specialize symbol {name!r}")
    return cls.rewrite(mapping, base.ring)
