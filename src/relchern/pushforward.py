"""Proper pushforward of classes from a projective bundle to its base.

A rank-``r`` bundle is recorded through its Chern roots, twisted by
:func:`normalize_twist` so that the first root ``M_0`` is zero; classes on the
bundle's projectivization are polynomials in the hyperplane class ``H`` with
base coefficients (:class:`ProjClass`).  :func:`normalize_twist` also returns
the untwisted ``H``, the class ``h = H - M_0``, and a caller reads a class
given in the untwisted ``H`` as a polynomial in ``h``.

Three mathematically independent evaluations of the pushforward are
provided.  The series route applies the projection formula monomial by
monomial: ``H**(r-1+k)`` pushes to the codimension-``k`` part of the inverse
total Chern class of the bundle.  The closed-form route is one call of
:func:`divided_difference`: the Newton divided difference of the
coefficients' polynomial at the negated roots, each repeated by its
multiplicity, by synthetic division in the base ring.
The reduction route rewrites a class by the Grothendieck relation
``H**r + c_1(E) H**(r-1) + ... + c_r(E) = 0`` until it has at most ``r``
coefficients (:meth:`ProjClass.reduce`); its ``H**(r-1)`` coefficient is
the pushforward.  The three agree identically, so comparing them is a
strong correctness check on each.  ``q_class`` and the CLI's ``push`` take
the series route and ``q_class_display`` the reduction route; the
closed-form route is the reference that tests run on full-width classes.

For the multiplier class ``Q`` of a hypersurface there is a fourth route,
with no pushforward at all (:func:`relchern.fibration.q_rational`): the
pushforward of ``f(H)`` is the sum of the residues of
``f(H) / prod (H + M_j)^m_j`` at the negated roots, and for ``Q`` the residue
theorem trades that sum for the residues at infinity and at ``y = -1``,
which give one exact rational expression in the roots, ``d`` and ``beta``.
"""

from __future__ import annotations

from .ring import (ChowError, ChowPoly, ContextError, Fraction, _coerced, _Frozen,
                   _is_int, _linear_product, _mul_into, _negated_table,
                   _nonzero_rational, _power, _unit_divider, expand_ratio)


class BundleError(ChowError):
    """Malformed bundle description."""


def _root_entries(roots):
    entries = []
    for item in roots:
        if isinstance(item, ChowPoly):
            item = (item, 1)
        try:
            form, mult = item
        except (TypeError, ValueError):
            raise BundleError("each Chern root is a class or a "
                              "(class, multiplicity) pair") from None
        if not isinstance(form, ChowPoly):
            raise BundleError("each Chern root must be a class (use ring.zero for 0)")
        if not _is_int(mult) or mult < 1:
            raise BundleError("root multiplicity must be a positive integer")
        entries.append((form, mult))
    if not entries:
        raise BundleError("at least one Chern root is required")
    ring = entries[0][0].ring
    for form, _ in entries:
        if form.ring != ring:
            raise ContextError("Chern roots belong to different ring contexts")
        if not form.is_homogeneous(1):
            raise BundleError(f"Chern root {form} is not homogeneous of codimension 1")
    return entries, ring


class BundleSpec(_Frozen, fields=("roots",)):
    """Chern roots of a vector bundle, normalized so one root is zero.

    The roots are checked once (``_root_entries``).  Construction then merges
    repeated forms into a single entry with summed multiplicity, keyed by
    their term maps, so no two classes are compared; it orders roots
    canonically (zero first).  A root list without a zero entry is rejected;
    apply :func:`normalize_twist` first.  ``rank`` and the private
    ``_chern`` (:meth:`total_chern`) are slots set with the roots; equality,
    ``repr`` and copies ignore them.
    """

    __slots__ = ("roots", "ring", "rank", "_chern")

    def __init__(self, roots):
        self._merge(*_root_entries(roots))

    def _merge(self, entries, ring):
        # entries checked by _root_entries.  Equal classes of one ring have
        # equal term maps, as a value stores no zero coefficient
        merged = {}
        for form, mult in entries:
            key = frozenset(form._terms.items())
            seen = merged.get(key)
            merged[key] = (form, mult) if seen is None else (seen[0], seen[1] + mult)
        zero = merged.pop(frozenset(), None)
        if zero is None:
            raise BundleError("no zero Chern root; normalize_twist twists the "
                              "first root to zero and builds the bundle")
        rank = sum(m for _, m in entries)
        if rank < 2:
            raise BundleError("bundle rank must be at least 2")
        nonzero = sorted(merged.values(), key=lambda e: str(e[0]))
        chern = _linear_product(ring, [(form._terms, mult) for form, mult in nonzero])
        self._set((zero, *nonzero), ring, rank, ring._finish(chern))

    @property
    def fiber_dim(self):
        """Dimension of the projectivized fiber: rank - 1."""
        return self.rank - 1

    @property
    def ambient_dim(self):
        """Dimension of the projectivization: base dim + fiber dim."""
        return self.ring.bound + self.fiber_dim

    def total_chern(self):
        return self._chern

    def __repr__(self):
        body = ", ".join(f"({form})^{mult}" for form, mult in self.roots)
        return f"BundleSpec[{body}]"


class ProjClass:
    """A class on the projectivization: a polynomial in ``H`` whose
    coefficients live in the base ring.

    Coefficients are truncated so each term respects the dimension of the
    total space; the representative is unique under that truncation.
    """

    __slots__ = ("bundle", "coeffs")

    def __init__(self, bundle, coeffs):
        dmax = bundle.ambient_dim
        self._store(bundle, [bundle.ring.convert(a).truncate(dmax - j)
                             for j, a in zip(range(dmax + 1), coeffs)])

    def _store(self, bundle, coeffs):
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.bundle = bundle
        self.coeffs = tuple(coeffs)

    @classmethod
    def _normalized(cls, bundle, coeffs):
        # a list of classes of the base ring, at most ambient_dim + 1 long,
        # whose H^j coefficient has codimension <= ambient_dim - j already;
        # only the trailing zeros are dropped
        out = object.__new__(cls)
        out._store(bundle, coeffs)
        return out

    @classmethod
    def constant(cls, bundle, value):
        return cls(bundle, [bundle.ring.const(value)])

    @classmethod
    def from_base(cls, bundle, value):
        return cls(bundle, [value])

    @classmethod
    def hyperplane(cls, bundle):
        return cls(bundle, [bundle.ring.zero, bundle.ring.one])

    def coeff(self, j):
        if not _is_int(j):
            raise TypeError(f"a coefficient index must be an integer, not {j!r}")
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return self.bundle.ring.zero

    def is_zero(self):
        return not self.coeffs

    def constant_term(self):
        return self.coeff(0).constant_term()

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ProjClass):
            if other.bundle != self.bundle:
                raise ContextError("classes live on different projectivizations")
            return other
        if isinstance(other, ChowPoly) and other.ring != self.bundle.ring:
            raise ContextError("operands belong to different ring contexts")
        if isinstance(other, (int, Fraction, ChowPoly)):
            return ProjClass(self.bundle, [other])
        return None

    @_coerced
    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return ProjClass._normalized(
            self.bundle, [self.coeff(j) + other.coeff(j) for j in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return ProjClass._normalized(self.bundle, [-a for a in self.coeffs])

    @_coerced
    def __sub__(self, other):
        return self + (-other)

    @_coerced
    def __rsub__(self, other):
        return other + (-self)

    @_coerced
    def __mul__(self, other):
        ring, dmax = self.bundle.ring, self.bundle.ambient_dim
        # widths m and n reach only the slots H^0 .. H^(m + n - 2)
        width = min(dmax + 1, len(self.coeffs) + len(other.coeffs) - 1)
        out = [{} for _ in range(width)]
        right = [b._degree_table() for b in other.coeffs]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(right[:dmax + 1 - i]):
                # the H^(i+j) coefficient keeps codimension <= dmax - i - j
                _mul_into(out[i + j], a._terms, b, min(ring.bound, dmax - i - j))
        return ProjClass._normalized(self.bundle, [ring._finish(t) for t in out])

    __rmul__ = __mul__

    def __pow__(self, exponent):
        return _power(self, exponent, ProjClass.constant(self.bundle, 1))

    def inverse(self):
        """``1 / self``: the inverse of a nonzero rational constant or of a
        class with constant term 1."""
        return ProjClass.constant(self.bundle, 1) / self

    @_coerced
    def __truediv__(self, other):
        """Division by a nonzero rational constant, or exact division by a
        class with constant term 1, a unit of the truncated ring.

        The quotient ``z`` is found coefficient by coefficient in ``H``,
        ``z_n = (a_n - sum_(k >= 1) u_k z_(n-k)) / u_0`` truncated at the
        codimension ``H**n`` leaves room for, by one divider by ``u_0``
        checked to be a unit; a ``u`` with no ``H`` keeps ``a``'s width."""
        if len(other.coeffs) <= 1 and other.coeff(0).is_constant():
            return self * Fraction(1, _nonzero_rational(other.constant_term()))
        ring, dmax = self.bundle.ring, self.bundle.ambient_dim
        divide = _unit_divider(other.coeffs[0])
        negated, quotient = _negated_table(other.coeffs), []
        for n in range(dmax + 1 if negated else len(self.coeffs)):
            limit = min(ring.bound, dmax - n)
            z = dict(self.coeffs[n]._terms) if n < len(self.coeffs) else {}
            for k, u in negated:
                if k > n:
                    break
                _mul_into(z, quotient[n - k], u, limit)
            quotient += divide([z], [limit])
        return ProjClass._normalized(self.bundle, [ChowPoly(ring, z) for z in quotient])

    @_coerced
    def __rtruediv__(self, other):
        return other.__truediv__(self)

    def __eq__(self, other):
        if isinstance(other, ChowPoly) and other.ring != self.bundle.ring:
            return False
        if _is_int(other) or isinstance(other, (Fraction, ChowPoly)):
            other = ProjClass(self.bundle, [other])
        if not isinstance(other, ProjClass):
            return NotImplemented
        return self.bundle == other.bundle and self.coeffs == other.coeffs

    def reduce(self):
        """The same class in the Chow ring of the projectivization, written
        with at most ``rank`` coefficients.

        The Grothendieck relation ``H**r + c_1(E) H**(r-1) + ... + c_r(E) = 0``
        rewrites ``H**n`` for each ``n >= r``, from the top down, as
        ``-sum_k c_k(E) H**(n-k)``.  The pushforward of the result is its
        ``H**(r-1)`` coefficient, as the lower powers push to zero; what is
        added below it never reaches it, so ``q_class_display`` skips that.
        """
        return ProjClass._normalized(self.bundle, self._reduced(0))

    def _reduced(self, low):
        # the H^low .. H^(rank-1) coefficients of reduce(), [0] if none; no
        # target below H^low is written, as nothing added there reaches H^low
        ring, rank = self.bundle.ring, self.bundle.rank
        negated = _negated_table(self.bundle.total_chern().components()[:rank + 1])
        out = [{}] * low + [dict(a._terms) for a in self.coeffs[low:]]
        for n in range(len(out) - 1, rank - 1, -1):
            for k, ck in negated:
                # codimension <= ambient_dim - n in H^n, times c_k, stays
                # within the room of H^(n-k), so only the base bound truncates
                if n - k >= low:
                    _mul_into(out[n - k], out[n], ck, ring.bound)
        return [ring._finish(terms) for terms in out[low:rank]] or [ring.zero]

    def __str__(self):
        parts = []
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            h = "" if j == 0 else ("H" if j == 1 else f"H^{j}")
            parts.append(f"({a}){'*' + h if h else ''}")
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"ProjClass({self})"


def normalize_twist(roots):
    """Twist so the first listed root becomes zero.

    Every root ``M_i`` becomes ``M_i - M_0``; pushforwards are invariant
    under this change of presentation.  The roots are checked once, and the
    twisted ones go straight to the bundle, which merges them by term map;
    a zero ``M_0`` leaves them as they are.  Returns the normalized
    ``BundleSpec`` and the untwisted hyperplane class ``h = H - M_0``, in
    which a class ``sum a_k H**k`` of the untwisted bundle reads
    ``sum a_k h**k``.
    """
    entries, ring = _root_entries(roots)
    m0 = entries[0][0]
    if m0:
        entries = [(form - m0, mult) for form, mult in entries]
    bundle = object.__new__(BundleSpec)
    bundle._merge(entries, ring)
    return bundle, ProjClass._normalized(bundle, [-m0, ring.one])


# -- series route -------------------------------------------------------


def inverse_total_chern(bundle):
    """Inverse of the bundle's total Chern class, truncated at the base dim."""
    return expand_ratio(bundle.ring.one, bundle.total_chern())


def pushforward_power(bundle, exponent):
    """Pushforward of a bare power of the hyperplane class.

    ``H**(fiber_dim + k)`` maps to the codimension-``k`` component of the
    inverse total Chern class; powers below the fiber dimension (and
    components beyond the base dimension) vanish.
    """
    if not _is_int(exponent) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    k = exponent - bundle.fiber_dim
    if k < 0 or k > bundle.ring.bound:
        return bundle.ring.zero
    return inverse_total_chern(bundle).component(k)


def pushforward_series(cls):
    """Pushforward by the projection formula, as in :func:`pushforward_power`."""
    bundle = cls.bundle
    ring = bundle.ring
    pieces = inverse_total_chern(bundle).components()
    out = {}
    for a, piece in zip(cls.coeffs[bundle.fiber_dim:], pieces):
        _mul_into(out, a._terms, piece._degree_table(), ring.bound)
    return ring._finish(out)


# -- divided-difference route --------------------------------------------


def divided_difference(coeffs, nodes):
    """Newton divided difference of ``sum(coeffs[k] * t**k)`` at ``nodes``.

    The nodes are classes of one ring; each coefficient is a class of that
    ring or an exact rational.  The order of the difference is
    ``len(nodes) - 1``; the result is symmetric in the nodes and truncated
    at the ring's bound, and a node repeated ``k + 1`` times gives the
    confluent value, the ``k``-th derivative there over ``k!``.

    Synthetic division divides ``f`` by ``t - x_1``, the quotient by
    ``t - x_2`` and so on: ``g`` by ``t - x`` leaves the quotient
    ``q_(k-1) = g_k + x*q_k`` and the remainder ``g_0 + x*q_0 = g(x)``.
    The first quotient is ``f[x_1, t]``, so the last remainder is the
    difference.  Every product is truncated at the ring's bound.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValueError("at least one node is required")
    if not all(isinstance(x, ChowPoly) for x in nodes):
        raise TypeError("the nodes must be classes")
    ring = nodes[0].ring
    lifted = list(map(ring.zero._coerce, [*nodes, *coeffs]))
    if any(c is None for c in lifted):
        raise TypeError("the coefficients must be classes or exact rationals")
    coeffs, carry = [c._terms for c in lifted[len(nodes):]], {}
    for node in lifted[:len(nodes)]:
        x, carry, quotient = node._degree_table(), {}, []
        for g in reversed(coeffs):
            quotient.append(carry)
            carry = dict(g)
            _mul_into(carry, quotient[-1], x, ring.bound)
        coeffs = quotient[:0:-1]  # q_0 .. q_(n-1)
    return ring._finish(carry)


def pushforward_closed_form(cls):
    """Pushforward via exact divided differences.

    The pushforward of ``f(H)`` is the divided difference of ``f`` at the
    ``rank`` negated Chern roots, each repeated by its multiplicity, the
    zero root included: ``H**(rank-1+k)`` gives the complete homogeneous
    polynomial of degree ``k`` in them, the codimension-``k`` part of
    ``1/c(E)``.  The result equals :func:`pushforward_series`.
    """
    nodes = [-form for form, mult in cls.bundle.roots for _ in range(mult)]
    return divided_difference(cls.coeffs, nodes)
