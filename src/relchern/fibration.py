"""Hypersurface fibrations in projective bundles and their Chern numbers.

A fibration is cut out inside the projectivization of a bundle by a divisor
of class ``d*H + beta``.  Pushing the total Chern class of the fibration
down to the base factors it as a multiplier class ``Q`` (a function of the
bundle's rank and ``c(E)``, ``d`` and ``beta`` alone) times ``c(B)``;
the top graded piece of that product integrates to the Euler characteristic
of the total space, the Sethi-Vafa-Witten formula.

``Q`` is computed three ways.  :func:`q_class` pushes :func:`alpha_class`
forward by the series route; :func:`q_class_display` reduces it by the
Grothendieck relation.  The two share one build of the class, made once
per spec from the bundle's cached ``c(E)`` and kept on the spec: with ``C``
the total Chern class of the relative tangent bundle, the class
``C*y/(1 + y)`` is built as ``C - C/(1 + y)``, one division by a unit and
no product by ``y``.
:func:`q_rational` needs no pushforward: with
``M_j`` the roots (multiplicities ``m_j``, ``r`` in all) and
``y = d*H + beta``, ``Q`` is the sum of the residues at ``H = -M_j`` of
``g = prod ((1 + H + M_j) / (H + M_j))^m_j * y / (1 + y)``.  By the residue
theorem that sum is minus the residues at infinity and at ``y = -1``, so

    Q = r - 1/d + (1/d) prod ((1 + beta - d - d*M_j) / (1 + beta - d*M_j))^m_j

for ``d >= 1``, and ``Q = r*beta / (1 + beta)`` for ``d = 0``: one exact
ratio of base classes, whatever the base dimension.  In Chern classes the
product's denominator is ``D = sum_k (-d)^k c_k(E) (1 + beta)^(r-k)``,
evaluated by Horner's rule in ``1 + beta``; its numerator is the same sum
in ``1 + beta - d``.
:func:`relative_chern_class` (and with it :func:`svw_components` and
:func:`euler_characteristic`) expands that ratio.

For the built-in family whose fibers are Fermat-type degree-``d``
hypersurfaces in a ``O + L^n`` bundle, the same class is recomputed along a
completely different route: the singular fibers are stratified by the
discriminant, fiberwise Euler characteristics weight the
Chern-Schwartz-MacPherson classes of the strata, and the weighted sum must
reproduce the pushforward answer.  That agreement is the package's
strongest end-to-end check.
"""

from __future__ import annotations

import math

from .bases import FormalBase, ModeError, _divisor_symbol
from .pushforward import BundleSpec, ProjClass, normalize_twist, pushforward_series
from .render import _text_strings, format_terms
from .ring import (ChowError, ChowPoly, ContextError, _Frozen, _is_int,
                   _mul_into, _unit_divider, expand_ratio)


class UnsupportedDegreeError(ChowError):
    """The stratified route needs fiber degree at least 2."""


def _check_degree(degree):
    if not _is_int(degree) or degree < 0:
        raise ValueError("hypersurface degree must be a nonnegative integer")


class HypersurfaceSpec(_Frozen, fields=("degree", "beta", "bundle")):
    """A hypersurface of class ``degree*H + beta`` in a projectivization.

    The fields are fixed at construction.  The private slot ``_alpha`` keeps
    :func:`alpha_class` once built; equality, ``repr`` and copies ignore it.
    """

    __slots__ = ("degree", "beta", "bundle", "_alpha")

    def __init__(self, degree, beta, bundle):
        _check_degree(degree)
        if not isinstance(bundle, BundleSpec):
            raise TypeError("bundle must be a BundleSpec")
        beta = bundle.ring.convert(beta)
        if not beta.is_homogeneous(1):
            raise ValueError("beta must be zero or homogeneous of codimension 1")
        self._set(degree, beta, bundle, None)

    @classmethod
    def from_roots(cls, degree, beta, roots):
        """Build from an untwisted root list; ``beta`` is adjusted by the
        twist that makes the first root vanish."""
        # beta + degree*H for the untwisted H = h: degree*h.coeff(0) joins beta
        _check_degree(degree)
        bundle, h = normalize_twist(roots)
        return cls(degree, bundle.ring.convert(beta) + degree * h.coeff(0), bundle)

    def divisor_class(self):
        return ProjClass.hyperplane(self.bundle) * self.degree + self.beta

    def __repr__(self):
        # degree*H leads the terms of beta, in the text of any class
        terms = [((("H", 1),), self.degree)] if self.degree else []
        cls = format_terms(terms + self.beta.terms(), str, _text_strings, "*")
        return f"HypersurfaceSpec({cls} in {self.bundle!r})"


def alpha_class(hyp):
    """The class on the projectivization whose pushforward is ``Q``.

    Writing ``y`` for the hypersurface class, this is
    ``(1 + H)^k0 * prod (1 + H + L_i)^ki * y / (1 + y)``: the total Chern
    class ``C`` of the ambient relative tangent bundle times the adjunction
    factor of the hypersurface.  It is built once per spec and kept there
    (no route changes a class it is given).  By the relative Euler sequence
    ``C = sum_i c_i(E) (1 + H)^(r-i)``, so the ``H^k`` coefficient of ``C``
    scales the graded pieces of :meth:`BundleSpec.total_chern`:
    ``sum_i binom(r-i, k) c_i(E)``.  As ``y / (1 + y) = 1 - 1 / (1 + y)``,
    the class is ``C - C / (1 + y)``: ``-C`` is divided by ``1 + y`` in one
    pass over the powers of ``H`` (:func:`~relchern.ring._divide_unit`), and
    ``C`` is added back into the ``H^0 .. H^r`` coefficients; no product by
    ``y`` runs.
    """
    if hyp._alpha is not None:
        return hyp._alpha
    bundle, ring, beta = hyp.bundle, hyp.bundle.ring, hyp.beta
    chern, r, dmax = bundle.total_chern(), bundle.rank, bundle.ambient_dim
    negated = [chern._graded_scale([-math.comb(r - i, k)
                                    for i in range(r - k + 1)])._terms
               for k in range(min(r, dmax) + 1)]
    # H^n keeps codimension <= dmax - n; by 1 + y = 1 + beta + d*H, the
    # H^n coefficient of -C/(1 + y) is (-C_n - d*z_(n-1)) / (1 + beta)
    limits = [min(ring.bound, dmax - n) for n in range(dmax + 1)]
    quotient = _unit_divider(ring.one + beta)(negated, limits, -hyp.degree)
    for z, terms in zip(quotient, negated):
        for key, c in terms.items():
            z[key] = z.get(key, 0) - c
    # the quotient comes finished; adding C back may cancel terms
    low = len(negated)
    alpha = ProjClass._normalized(
        bundle, [*map(ring._finish, quotient[:low]),
                 *(ChowPoly(ring, z) for z in quotient[low:])])
    object.__setattr__(hyp, "_alpha", alpha)
    return alpha


def q_class(hyp):
    """The multiplier class ``Q``: pushforward of :func:`alpha_class`."""
    return pushforward_series(alpha_class(hyp))


def q_rational(hyp):
    """``Q`` as a ratio ``(N, D)`` of classes of the base ring, from the
    residue theorem (see the module docstring), with no pushforward.

    For ``d >= 1``, ``D = sum_k (-d)^k c_k(E) (1 + beta)^(r-k)``, built from
    the bundle's ``c(E)`` by Horner's rule in ``1 + beta`` on term maps; the
    same sum ``S`` in ``1 - d + beta`` has ``S_k = (1 - d)^(r-k) D_k``, so
    ``N = r*D + (S - D)/d`` scales ``D_k`` by ``r + ((1 - d)^(r-k) - 1) / d``,
    an integer as ``(1 - d)^m`` is 1 modulo ``d``.  For ``d = 0``,
    ``N = r*beta`` and ``D = 1 + beta``.  ``expand_ratio(N, D)`` equals
    :func:`q_class`.
    """
    ring, beta, d = hyp.bundle.ring, hyp.beta, hyp.degree
    rank = hyp.bundle.rank
    if d == 0:
        return rank * beta, ring.one + beta
    scaled = {k: {key: (-d) ** k * c for key, c in piece._terms.items()}
              for k, piece in hyp.bundle.total_chern()._graded().items()}
    step, den = (ring.one + beta)._degree_table(), scaled[0]
    for k in range(1, rank + 1):  # D <- D*(1 + beta) + (-d)^k c_k(E)
        den, last = scaled.get(k, {}), den
        _mul_into(den, last, step, ring.bound)
    den = ring._finish(den)
    weights = [rank + ((1 - d) ** (rank - k) - 1) // d
               for k in range(min(rank, ring.bound) + 1)]
    return den._graded_scale(weights), den


def q_class_display(hyp):
    """``Q`` again, by a route independent of :func:`q_class`: the class
    reduced by the Grothendieck relation (:meth:`ProjClass.reduce`) has at
    most ``rank`` coefficients, and the ``H**(rank-1)`` one is ``Q``."""
    return alpha_class(hyp)._reduced(hyp.bundle.fiber_dim)[0]


def relative_chern_class(hyp, base):
    """Pushed-down total Chern class of the fibration: ``Q * c(base)``, with
    ``Q`` expanded from :func:`q_rational`."""
    if hyp.bundle.ring != base.ring:
        raise ContextError("hypersurface and base use different ring contexts")
    return expand_ratio(*q_rational(hyp)) * base.chern_polynomial()


def euler_characteristic(hyp, base, as_integer=None):
    """Top graded piece of the pushed-down Chern class, built alone as
    ``sum_m Q_m * c_(dim-m)(B)`` over the graded pieces ``Q_m`` of ``Q``,
    with each ``c_k(B)`` from ``base.chern_class(k)``.

    The piece goes to ``base.integrate``: over projective space it becomes
    an ``int`` (pass ``as_integer=False`` for the class instead).  A formal
    base refuses with :class:`ModeError`, and the symbolic class is
    returned, unless ``as_integer=True`` asked for the integer.
    ``as_integer`` is ``None``, ``True`` or ``False``; any other value is a
    :class:`TypeError`.
    """
    if as_integer is not None and not isinstance(as_integer, bool):
        raise TypeError(f"as_integer must be None, True or False, not {as_integer!r}")
    if hyp.bundle.ring != base.ring:
        raise ContextError("hypersurface and base use different ring contexts")
    dim, terms = base.dim, {}
    for m, piece in expand_ratio(*q_rational(hyp))._graded().items():
        _mul_into(terms, piece._terms, base.chern_class(dim - m)._degree_table(), dim)
    top = base.ring._finish(terms)
    if as_integer is False:
        return top
    try:
        value = base.integrate(top)
    except ModeError:
        if as_integer:
            raise
        return top
    if value.denominator != 1:
        raise ChowError(f"non-integral Euler characteristic {value}")
    return int(value)


def svw_components(hyp, base):
    """Graded pieces of the pushed-down Chern class, codimension 1 up to the
    base dimension; integrating the top one gives the Euler characteristic.

    The identically-zero class (a degree-0 hypersurface with zero ``beta``)
    yields an empty list.
    """
    full = relative_chern_class(hyp, base)
    if full.is_zero():
        return []
    return full.components()[1:]


def smooth_hypersurface_euler(n, d):
    """Euler characteristic of a smooth degree-``d`` hypersurface in
    projective ``n``-space, as an exact integer."""
    if not _is_int(n) or n < 0:
        raise ValueError("ambient projective dimension must be a nonnegative integer")
    _check_degree(d)
    # -sum_(k<n) binom(n+1, k) (-d)^(n-k); (1 - d)^(n+1) is 1 modulo d
    return n + 1 + ((1 - d) ** (n + 1) - 1) // d if d else 0


class StratumData(_Frozen):
    """Fiberwise Euler characteristics and base classes feeding the
    stratified Chern-class computation.

    ``chi0``/``chi1``/``chi2`` are the Euler characteristics of the fibers
    over the three strata: off the discriminant, on the discriminant away
    from the deeper locus, and on the locus where both coefficient sections
    vanish.  The singular fibers each carry one isolated singular point,
    so the jumps are signed Milnor numbers.
    """

    __slots__ = ("chi0", "chi1", "chi2", "class_f", "class_g",
                 "class_discriminant", "csm_discriminant", "chern_common_zero")


class FermatFamily(_Frozen):
    """Degree-``d`` fibrations with Fermat-type fibers.

    The fiber equation is a degree-``d`` power sum in the ``L``-twisted
    coordinates perturbed by two coefficient sections of ``L^(d-1)`` and
    ``L^d``; the ambient bundle is ``O + L^n`` and the hypersurface class is
    ``d*H + d*L``.  Degrees below 2 do not pin down the stratification, so
    they are rejected here (the plain pushforward route still handles them
    through :class:`HypersurfaceSpec` directly).
    """

    __slots__ = ("n", "degree", "base_dim", "divisor")

    def __init__(self, n, degree, base_dim=3, divisor="L"):
        if not _is_int(n) or n < 1:
            raise ValueError("fiber dimension n must be a positive integer")
        if not _is_int(degree) or degree < 2:
            raise UnsupportedDegreeError("the family needs degree at least 2")
        if not _is_int(base_dim) or base_dim < 0:
            raise ValueError("base dimension must be a nonnegative integer")
        _divisor_symbol(divisor, range(2, base_dim + 1))  # c1 has degree 1
        self._set(n, degree, base_dim, divisor)

    def formal_base(self):
        """The formal base of the family's dimension.  A divisor ``c1`` is its
        anticanonical class, as a csm-check job on a fano base names it."""
        anticanonical = self.divisor == "c1" and self.base_dim > 0
        return FormalBase(self.base_dim, () if anticanonical else (self.divisor,))

    def _resolve(self, base):
        if base is None:
            base = self.formal_base()
        if base.dim != self.base_dim:
            raise ContextError("base dimension disagrees with the family")
        L = base.ring.sym(self.divisor)
        return base, L

    def hypersurface(self, base=None):
        base, L = self._resolve(base)
        bundle = BundleSpec([(base.ring.zero, 1), (L, self.n)])
        return HypersurfaceSpec(self.degree, self.degree * L, bundle)

    def q_closed_form(self, base=None):
        """``Q`` from the family's closed formula: writing ``e_k`` for the
        smooth-hypersurface Euler characteristics,
        ``(e_n + (e_{n-1} + 1) d L) / (1 + d L)``."""
        base, L = self._resolve(base)
        d = self.degree
        e_n = smooth_hypersurface_euler(self.n, d)
        e_prev = smooth_hypersurface_euler(self.n - 1, d)
        return (e_n + (e_prev + 1) * d * L) / (base.ring.one + d * L)

    def _by_divisor(self, L):
        """The fields of :meth:`strata`, but with the CSM classes of the
        discriminant and of the common zero locus divided by ``c(B)``: every
        class here is a class in ``L`` alone, of at most ``bound + 1`` terms."""
        n, d = self.n, self.degree
        one = L.ring.one
        chi0 = smooth_hypersurface_euler(n, d)
        chi1 = chi0 + (-1) ** n * (d - 1) ** (n - 1)
        chi2 = chi0 + (-1) ** n * (d - 1) ** n
        f = (d - 1) * L
        g = d * L
        delta = d * (d - 1) * L
        common_zero = f * g / ((one + f) * (one + g))
        discriminant = (
            delta / (one + delta)
            + ((d - 2) * (d - 1)) * f * g
            / ((one + delta) * (one + delta + (1 - d) * f) * (one + delta + (2 - d) * g)))
        return chi0, chi1, chi2, f, g, delta, discriminant, common_zero

    def strata(self, base=None):
        base, L = self._resolve(base)
        *fields, discriminant, common_zero = self._by_divisor(L)
        cX = base.chern_polynomial()
        return StratumData(*fields, cX * discriminant, cX * common_zero)

    def chern_by_strata(self, base=None):
        """Pushed-down Chern class assembled from the stratification: fibers
        of constant Euler characteristic weight the CSM classes of their
        strata.  Must equal ``relative_chern_class`` of the induced
        hypersurface.

        Every CSM class is ``c(B)`` times a class in the divisor, so the sum
        of the divisor classes is multiplied by ``c(B)`` once."""
        base, L = self._resolve(base)
        chi0, chi1, chi2, _, _, _, discriminant, common_zero = self._by_divisor(L)
        return base.chern_polynomial() * (chi0 + (chi1 - chi0) * discriminant
                                          + (chi2 - chi1) * common_zero)
