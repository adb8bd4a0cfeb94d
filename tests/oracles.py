"""Plain oracles shared by the test files: coatom relabelling and the labelled families."""


def map_mask(mask, perm):
    """Oracle: the image of a coatom mask under a relabelling, bit by bit."""
    return sum(1 << image for i, image in enumerate(perm) if mask >> i & 1)


def labelled_connection_families(c):
    """Every set of pairwise-compatible connector masks on c labelled coatoms,
    as ascending mask tuples.

    A depth-first search over the mask pool: each family is extended only
    by larger masks that share at most one coatom with all of its members.
    """
    def extend(family, candidates):
        yield family
        for k, m in enumerate(candidates):
            yield from extend(family + (m,), [x for x in candidates[k + 1:]
                                              if (x & m).bit_count() <= 1])

    return extend((), [m for m in range(1 << c) if m.bit_count() >= 2])
