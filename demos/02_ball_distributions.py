"""Counting atom distributions with cycle indices.

Once a connection graph fixes the shared atoms, the remaining "loner"
atoms are distributed freely over the coatoms — but two distributions
related by a symmetry of the graph give the same lattice.  The classic
cycle-index substitution counts the distinct distributions exactly.
"""

from fractions import Fraction

import rank3


def main():
    print("=== the path on four coatoms ===")
    g = rank3.BicoloredGraph(4, [{0, 1}, {1, 2}, {2, 3}])
    group = rank3.automorphism_group_on_coatoms(g)
    print("automorphisms:", sorted(group.elements))

    z = rank3.cycle_index(group)
    print("cycle index terms:")
    for exponents, coeff in z.terms:
        monomial = "*".join("t%d^%d" % (j + 1, m)
                            for j, m in enumerate(exponents) if m)
        print("   %s * %s" % (coeff, monomial))

    seq = rank3.group_balls(z, 4, 10)
    print("distributions of n extra atoms, n = 0..10:")
    print("  ", seq)

    print()
    print("=== sanity checks against textbook counts ===")
    import itertools
    import math

    trivial = rank3.PermGroup(3, [(0, 1, 2)])
    vals = rank3.group_balls(rank3.cycle_index(trivial), 3, 8)
    print("no symmetry, 3 boxes:   ", vals)
    print("stars and bars:         ",
          [math.comb(n + 2, 2) for n in range(9)])

    full = rank3.PermGroup(3, list(itertools.permutations(range(3))))
    vals = rank3.group_balls(rank3.cycle_index(full), 3, 8)
    print("full symmetry, 3 boxes: ", vals)
    print("partitions, <= 3 parts: ", [rank3.p3(n) for n in range(9)])

    print()
    print("=== the averaging stays exact ===")
    # coefficients are rationals with the group order in the denominator;
    # the orbit counts themselves must come out integral
    counts = rank3.group_balls(z, 4, 6)
    print("series coefficients:", counts)
    print("coefficient type:   ", type(counts[0]).__name__)
    print("sum of cycle-index coefficients:",
          sum(Fraction(c) for _, c in z.terms))


if __name__ == "__main__":
    main()
