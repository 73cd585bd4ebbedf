"""Tour of the truncated class ring: exact arithmetic, inversion, grading.

Classes live in a polynomial ring over the rationals where every symbol
carries a codimension and anything beyond the ambient dimension is dropped
at construction time.  That single rule is what turns geometric series into
finite, exact expansions.
"""

from fractions import Fraction

from relchern import ChowRing, Symbol, divided_difference, expand_ratio


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

    # the divided difference of t^3 at two classes; a repeated node gives
    # the confluent value, the derivative 3t^2 at L
    cube = [0, 0, 0, 1]
    print("\ndivided differences at classes:")
    print("  t^3 at [L, 2L]  =", divided_difference(cube, [L, 2 * L]))
    print("  t^3 at [L, L]   =", divided_difference(cube, [L, L]))

if __name__ == "__main__":
    main()
