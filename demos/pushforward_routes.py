"""Two independent evaluations of the bundle pushforward, side by side.

A class on the projectivization P(E) is a polynomial in the relative
hyperplane class H with coefficients pulled back from the base.  Its proper
pushforward to the base can be computed two ways:

  * the series route: H^(rank-1+k) maps to the codimension-k piece of
    1/c(E), then the projection formula handles the coefficients;
  * the closed-form route: a Newton divided difference at the negated
    Chern roots, each repeated by its multiplicity, by synthetic division.

The two implementations share no code beyond the ring, so their agreement
on random inputs is a strong correctness check.  This script shows them
agreeing on hand-sized cases.
"""

import random

from relchern import (BundleSpec, ChowRing, ProjClass, Symbol,
                      inverse_total_chern, pushforward_closed_form,
                      pushforward_series)


def random_setup(rng):
    ring = ChowRing([Symbol("L"), Symbol("M")], rng.randint(1, 4))
    entries = [(ring.zero, rng.randint(1, 2))]
    for _ in range(rng.randint(0, 2)):
        form = ring.linear({"L": rng.randint(-3, 3), "M": rng.randint(-3, 3)})
        if not form.is_zero():
            entries.append((form, rng.randint(1, 2)))
    if sum(m for _, m in entries) < 2:
        entries.append((ring.sym("L"), 1))
    bundle = BundleSpec(entries)
    coeffs = []
    for _ in range(rng.randint(1, bundle.ambient_dim + 1)):
        poly = ring.const(rng.randint(-3, 3))
        for name in rng.choices(("L", "M"), k=rng.randint(0, 2)):
            poly = poly * ring.sym(name)
        coeffs.append(poly)
    return bundle, ProjClass(bundle, coeffs)


def show(label, bundle, cls):
    series = pushforward_series(cls)
    closed = pushforward_closed_form(cls)
    flag = "agree" if series == closed else "DISAGREE"
    print(f"{label}:")
    print(f"  series route : {series}")
    print(f"  closed form  : {closed}   [{flag}]")


def main():
    ring = ChowRing([Symbol("L")], bound=3)
    L = ring.sym("L")

    # distinct roots: O + L^2 + L^3, the Weierstrass ambient bundle
    distinct = BundleSpec([ring.zero, 2 * L, 3 * L])
    print("inverse total Chern class of O + L^2 + L^3:")
    print("  ", inverse_total_chern(distinct))
    H = ProjClass.hyperplane(distinct)
    show("\npush of H^2 (top fiber power)", distinct, H ** 2)
    show("push of H^4", distinct, H ** 4)

    # a repeated root is a repeated node: the confluent divided difference
    repeated = BundleSpec([ring.zero, (L, 2)])
    G = ProjClass.hyperplane(repeated)
    show("\npush of H^3 on O + L + L (repeated root)", repeated, G ** 3)
    show("push of L*H^4 on O + L + L", repeated,
         ProjClass.from_base(repeated, L) * G ** 4)

    # and a quick randomized agreement sweep
    rng = random.Random(8)
    trials = 40
    for _ in range(trials):
        bundle, cls = random_setup(rng)
        assert pushforward_series(cls) == pushforward_closed_form(cls)
    print(f"\n{trials} random (bundle, class) pairs: routes agree on all")


if __name__ == "__main__":
    main()
