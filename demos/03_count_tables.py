"""Exact lattice count tables.

Summing each graph's distribution count (shifted by the atoms its
connectors and bare coatoms already consume) gives R(c, a): the number of
unlabeled graded rank-3 lattices with c coatoms and a atoms.  Everything
is big-integer exact; no value in the table is ever rounded.
"""

import rank3


def main():
    print("=== R(c, a) for small parameters ===")
    tables = {c: rank3.count_lattices(c, 12) for c in range(1, 7)}
    header = "  a |" + "".join("%10s" % ("c=%d" % c) for c in tables)
    print(header)
    print("-" * len(header))
    for a in range(1, 13):
        print(" %2d |" % a + "".join("%10d" % tables[c].values[a] for c in tables))

    print()
    print("=== the table is symmetric in coatoms and atoms ===")
    for c, a in [(3, 5), (4, 6), (2, 6)]:
        print("R(%d,%d) = %-6d R(%d,%d) = %d"
              % (c, a, tables[c].values[a], a, c, tables[a].values[c]))

    print()
    print("=== graphs reduce to few cycle indices ===")
    # the census statistics need the graphs: a count without them lists none
    for c in range(2, 7):
        _, stats = rank3.count_lattices_stats(c, 12, rank3.generate_connection_graphs(c))
        print("c = %d: %5d graphs share %3d distinct cycle indices "
              "(%d with no symmetry at all)"
              % (c, stats.graphs_processed, stats.distinct_cycle_indices,
                 stats.trivial_action_graphs))

    print()
    print("=== large atom counts stay cheap ===")
    import time
    t0 = time.time()
    big = rank3.count_lattices(5, 1000)
    print("R(5, 1000) = %d  (computed in %.2fs)"
          % (big.values[1000], time.time() - t0))

    print()
    print("=== tables travel as plain CSV ===")
    import tempfile
    import os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c4.csv")
        rank3.write_csv(tables[4], path)
        with open(path) as fh:
            for line in list(fh)[:5]:
                print("  " + line.rstrip())
        back = rank3.read_csv(path, 4)
        print("roundtrip intact:", back.values == tables[4].values)


if __name__ == "__main__":
    main()
