"""Deterministic random generators shared by the property and acceptance tests."""

from fractions import Fraction

from relchern import BundleSpec, FormalBase, ProjClass
from relchern.expressions import BinOp, Neg, Num, Pow, Sym

DIVISORS = ("L", "M")


def random_base(rng, max_dim=4):
    return FormalBase(rng.randint(1, max_dim), divisors=DIVISORS)


def _ring_of(base_or_ring):
    return getattr(base_or_ring, "ring", base_or_ring)


def random_form(rng, base_or_ring, nonzero=True):
    ring = _ring_of(base_or_ring)
    # checked without drawing, so no seeded stream depends on it
    if nonzero and all(ring.sym(name).is_zero() for name in DIVISORS):
        raise ValueError("every linear form is zero in this ring")
    while True:
        form = ring.linear({name: rng.randint(-3, 3) for name in DIVISORS})
        if not (nonzero and form.is_zero()):
            return form


def random_bundle(rng, base_or_ring, max_rank=5):
    """Random normalized bundle; repeated roots appear regularly."""
    ring = _ring_of(base_or_ring)
    while True:
        zero_mult = rng.randint(1, 2)
        count = rng.randint(0, 3)
        forms = []
        while len(forms) < count:
            form = random_form(rng, ring)
            if all(form != other for other in forms):
                forms.append(form)
        entries = [(ring.zero, zero_mult)]
        entries += [(form, rng.randint(1, 2)) for form in forms]
        rank = sum(mult for _, mult in entries)
        if 2 <= rank <= max_rank:
            return BundleSpec(entries)


def random_poly(rng, ring, max_factors=2, terms=3):
    names = [s.name for s in ring.symbols]
    poly = ring.zero
    for _ in range(rng.randint(0, terms)):
        term = ring.const(rng.randint(-3, 3))
        for name in rng.choices(names, k=rng.randint(0, max_factors)):
            term = term * ring.sym(name)
        poly = poly + term
    return poly


def random_proj_class(rng, bundle):
    width = rng.randint(1, bundle.ambient_dim + 1)
    return ProjClass(bundle, [random_poly(rng, bundle.ring) for _ in range(width)])


def in_powers_of(coeffs, x):
    """``sum coeffs[k] * x**k`` for a ``ProjClass`` ``x``, by Horner's rule in
    generic ``ProjClass`` arithmetic; each coefficient is a base class or an
    exact rational."""
    out = ProjClass.constant(x.bundle, 0)
    for a in reversed(coeffs):
        out = out * x + a
    return out


def shifted(cls, delta):
    """``cls`` with ``H`` read as ``H + delta``: a reference for the twist."""
    x = ProjClass.hyperplane(cls.bundle) + ProjClass.from_base(cls.bundle, delta)
    return in_powers_of(cls.coeffs, x)


def random_setup(rng, max_rank=5, max_dim=4):
    base = random_base(rng, max_dim)
    bundle = random_bundle(rng, base, max_rank)
    return base, bundle, random_proj_class(rng, bundle)


SYMBOL_POOL = ("L", "M", "H", "c1", "c2")


def random_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(rng.randint(0, 12))
        return Sym(rng.choice(SYMBOL_POOL))
    roll = rng.random()
    if roll < 0.15:
        return Neg(random_expr(rng, depth - 1))
    if roll < 0.3:
        return Pow(random_expr(rng, depth - 1), rng.randint(0, 4))
    op = rng.choice("+-*/")
    return BinOp(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
