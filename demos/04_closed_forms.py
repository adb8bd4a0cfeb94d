"""Rediscovering closed forms from the computed tables.

For a fixed coatom count the counts eventually follow a quasipolynomial:
one polynomial per residue class of the atom count modulo a fixed period.
A class of the exact table is a polynomial of degree d exactly when its
(d+1)-th forward differences vanish; the Newton form of its leading
differences then gives the coefficients, which are the published
formulas, coefficient for coefficient.
"""

import json

import rank3


def main():
    print("=== three coatoms ===")
    table = rank3.count_lattices(3, 40)
    fit = rank3.fit_for_coatoms(table, 3)
    print("period %d, degree %d, valid from a = %d (observed from %d)"
          % (fit.period, fit.degree, fit.threshold, fit.observed_threshold))
    for k, coeffs in enumerate(fit.constituents):
        print("  a = %d mod %d:  %s" % (k, fit.period,
                                        " + ".join("(%s) x^%d" % (c, i)
                                                   for i, c in enumerate(coeffs))))
    print("floor form check: R(3,a) == (9a^2+4a+3) // 12 for a = 1..40:",
          all(table.values[a] == (9 * a * a + 4 * a + 3) // 12
              for a in range(1, 41)))

    print()
    print("=== four coatoms, exported as JSON ===")
    table4 = rank3.count_lattices(4, 60)
    fit4 = rank3.fit_for_coatoms(table4, 4)
    blob = rank3.quasipolynomial_to_json(fit4, 4)
    print(json.dumps(blob["normalized"], indent=2)[:400])
    print("...")

    print()
    print("=== evaluation far beyond the table ===")
    table5 = rank3.count_lattices(5, 320)
    fit5 = rank3.fit_for_coatoms(table5, 5)
    for atoms in (10 ** 3, 10 ** 6, 10 ** 9):
        print("R(5, 10^%d) = %d" % (len(str(atoms)) - 1,
                                    rank3.eval_quasipolynomial(fit5, atoms)))

    print()
    print("=== all published identities at once ===")
    tables = {c: rank3.count_lattices(c, 320) for c in range(2, 6)}
    print(rank3.verify_theorems(tables))


if __name__ == "__main__":
    main()
