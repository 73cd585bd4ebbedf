"""Base-variety models.

A :class:`FormalBase` keeps the Chern classes of the base as free symbols
``c1..cm`` alongside named divisor symbols, so one computation answers the
question for every smooth base of that dimension at once.  A
:class:`ProjectiveSpaceBase` works in the hyperplane class ``h`` and can
integrate, turning top classes into integers.  :func:`specialize` maps
formal answers into projective space and commutes with the whole pipeline.
"""

from __future__ import annotations

import math
import re

from .ring import ChowError, ChowRing, Symbol, SymbolError, _Frozen, _is_int


class SpecializationError(ChowError):
    """A symbol survived that the target base cannot interpret."""


class ModeError(ChowError):
    """Requested output mode is unavailable for this base model."""


_CHERN_RE = re.compile(r"c(\d+)\Z")


class FormalBase(_Frozen, fields=("dim", "divisors", "fano")):
    """Smooth base of dimension ``dim`` with free Chern symbols.

    ``divisors`` adds degree-1 symbols (``("L",)`` by default).  With
    ``fano=True`` the first divisor is declared to be the anticanonical
    class: :meth:`bindings` reads it as ``c1``, so a job that names it
    computes in ``c1`` from the start.  A fano base needs at least one
    divisor.
    """

    __slots__ = ("dim", "divisors", "fano", "ring")

    def __init__(self, dim, divisors=("L",), fano=False):
        if not _is_int(dim) or dim < 0:
            raise ValueError("base dimension must be a nonnegative integer")
        divisors = tuple(divisors)
        if fano and not divisors:
            raise ValueError("a fano base needs a divisor to stand for the "
                             "anticanonical class")
        symbols = [Symbol(f"c{i}", i) for i in range(1, dim + 1)]
        symbols += [Symbol(name, 1) for name in divisors]
        self._set(dim, divisors, bool(fano), ChowRing(symbols, dim))

    def chern_symbol(self, i):
        if not 1 <= i <= self.dim:
            raise SymbolError(f"c{i} does not exist on a dimension-{self.dim} base")
        return self.ring.sym(f"c{i}")

    def chern_polynomial(self):
        terms = {((f"c{i}", 1),): 1 for i in range(1, self.dim + 1)}
        terms[()] = 1
        return self.ring._from_monomials(terms)

    def divisor(self, name=None):
        return self.ring.sym(name if name is not None else self.divisors[0])

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


class ProjectiveSpaceBase(_Frozen, fields=("dim", "multiple", "divisor")):
    """Projective space of dimension ``dim``; classes are polynomials in the
    hyperplane class ``h``.

    ``multiple`` optionally binds a divisor name (``"L"`` by default) to
    ``multiple * h`` so bundle data written in terms of that divisor can be
    interpreted here.  The divisor name follows the rule of
    :class:`~relchern.ring.Symbol` names.
    """

    __slots__ = ("dim", "multiple", "divisor", "ring")

    def __init__(self, dim, multiple=None, divisor="L"):
        if not _is_int(dim) or dim < 0:
            raise ValueError("base dimension must be a nonnegative integer")
        if multiple is not None and not _is_int(multiple):
            raise ValueError("divisor multiple must be an integer")
        Symbol(divisor)  # validates the identifier
        self._set(dim, multiple, divisor, ChowRing([Symbol("h", 1)], dim))

    def hyperplane(self):
        return self.ring.sym("h")

    def chern_polynomial(self):
        return (self.ring.one + self.hyperplane()) ** (self.dim + 1)

    def chern_component(self, i):
        return math.comb(self.dim + 1, i) * self.hyperplane() ** i

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

    Chern symbols ``c_i`` become the Chern components of projective space,
    the bound divisor becomes its class in :meth:`ProjectiveSpaceBase.bindings`
    (``h`` is never rebound), and the result is truncated at the target
    dimension.  An unbound divisor, or any other surviving symbol, raises
    :class:`SpecializationError`.
    """
    if not isinstance(base, ProjectiveSpaceBase):
        raise TypeError("specialize targets a ProjectiveSpaceBase")
    mapping = {"h": base.hyperplane(), **base.bindings()}
    for name in cls.symbols_used():
        match = _CHERN_RE.match(name)
        if match:
            mapping[name] = base.chern_component(int(match.group(1)))
        elif name == base.divisor and name not in mapping:
            base.divisor_class()  # unbound, so this raises
        elif name not in mapping:
            raise SpecializationError(f"cannot specialize symbol {name!r}")
    return cls.rewrite(mapping, base.ring)
