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


def plain_validate_connection_graph(graph):
    """Oracle: the connection-graph checks with every connector pair compared
    directly, raising the same first error as validate_connection_graph."""
    c = graph.coatom_count
    masks = graph.connector_masks
    if len(masks) > c * (c - 1) // 2:
        raise ValueError("%d connectors exceed the maximum %d for %d coatoms"
                         % (len(masks), c * (c - 1) // 2, c))
    for j, m in enumerate(masks):
        if m.bit_count() < 2:
            raise ValueError("connector %d covers fewer than two coatoms" % j)
        for k in range(j):
            if (m & masks[k]).bit_count() > 1:
                raise ValueError(
                    "connectors %d and %d share more than one coatom" % (k, j))
