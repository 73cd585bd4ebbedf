"""Tour of the truncated class ring: exact arithmetic, inversion, grading.

Classes live in a polynomial ring over the rationals where every symbol
carries a codimension and anything beyond the ambient dimension is dropped
at construction time.  That single rule is what turns geometric series into
finite, exact expansions.
"""

from fractions import Fraction

from relchern import ChowRing, Symbol, expand_ratio


def main():
    # a threefold with one divisor class L
    ring = ChowRing([Symbol("L")], bound=3)
    L = ring.sym("L")

    print("truncation at work:")
    print("  (1 + L)^5       =", (1 + L) ** 5)
    print("  L^3 * L         =", L ** 3 * L)

    print("\nexact series inversion (terminates because L^4 = 0):")
    inv = expand_ratio(ring.one, 1 + 6 * L)
    print("  1/(1+6L)        =", inv)
    print("  check           =", inv * (1 + 6 * L))
    print("  12L/(1+6L)      =", 12 * L / (1 + 6 * L))

    print("\neverything is a fraction, nothing is a float:")
    half = Fraction(1, 2) * L
    print("  L/2 + L/3       =", half + Fraction(1, 3) * L)

    print("\ngraded components:")
    p = (1 + L) ** 3
    for k in range(ring.bound + 1):
        print(f"  codim {k}:", p.component(k))

    # formal variables are exempt from truncation; divided_difference
    # takes its points among them
    formal = ring.with_formal(["x"])
    x = formal.sym("x")
    tall = x ** 7 + formal.convert(L) * x ** 5
    print("\nformal variables outlive the bound:")
    print("  x^7 + L*x^5     =", tall)
    print("  d/dx of that    =", tall.derivative("x"))


if __name__ == "__main__":
    main()
