"""Plain oracles shared by the test files: coatom relabelling, the labelled
families, a search's automorphisms, the generator's candidate scan, the
orbits of connectors and the cycle-type substitution."""

import functools
from itertools import accumulate

from rank3.bigraph import _coatom_search, _members, _pairs, _symmetric


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


def linear_orbits_by_members(perm):
    """Oracle: polya._linear_orbits(perm), each mask's image summed from its
    members' images and each orbit walked until it repeats: for every mask
    in ascending order that touches a point perm moves, has two or more
    points and is in no orbit listed yet, (pairs covered, size) of its
    orbit when no two members share two points."""
    image = [1 << p for p in perm]
    moved = sum(1 << i for i, p in enumerate(perm) if p != i)
    orbits, seen = [], set()
    for m in range(1 << len(perm)):
        if not m & moved or m.bit_count() < 2 or m in seen:
            continue
        orbit, x = [], m
        while x not in orbit:
            orbit.append(x)
            x = sum(image[i] for i in _members(x))
        seen.update(orbit)
        pairs = list(map(_pairs, orbit))
        covered = functools.reduce(int.__or__, pairs)
        if covered == sum(pairs):
            orbits.append((covered, len(orbit)))
    return orbits


def automorphisms_of_winners(winners):
    """Oracle: the automorphisms of a canonical form other than the identity,
    read off the winners of the coatom search that produced it: q∘p0⁻¹ for
    each later winner q, p0 the first, as the tuple of the canonical labels'
    images, composed label by label."""
    p0 = winners[0]
    inverse = {image: i for i, image in enumerate(p0)}
    return tuple(tuple(q[inverse[j]] for j in range(len(p0))) for q in winners[1:])


def extended_by_pool_loop(c, parent):
    """Oracle: genconn._extended's list for parent, a (family, group) class on
    c coatoms, from a loop that walks the whole pool, largest masks first,
    stops at the first mask smaller than the family's largest, skips each
    mask that shares a coatom pair with the family and maps each mask by
    map_mask: under S_c, a group None, a mask is least in its orbit iff it
    is the least of its size.  The canonical parent is tested on the
    search's winners themselves: some winner must map the mask to the
    least canonical mask of its rank."""
    pool = sorted((m for m in range(1 << c) if m.bit_count() >= 2),
                  key=int.bit_count, reverse=True)
    fam, group = parent
    covered = 0
    for x in fam:
        covered |= _pairs(x)
    top = max((x.bit_count() for x in fam), default=0)
    kept = [(x, sum(1 for y in fam if x & y) - 1) for x in fam if x.bit_count() == top]
    found = []
    for m in pool:
        size = m.bit_count()
        if size < top:
            break
        if _pairs(m) & covered:
            continue
        mem = _members(m)
        orbit_least = (m == (1 << size) - 1 if group is None
                       else all(map_mask(m, s) >= m for s in group))
        if not orbit_least:
            continue
        ties = []
        if size == top:
            met = sum(1 for x in fam if x & m)
            if any(k + (x & m != 0) > met for x, k in kept):
                continue
            ties = [x for x, k in kept if k + (x & m != 0) == met]
        grown = fam + (m,)
        if _symmetric(c, grown):
            found.append((tuple(sorted(grown)), None))
            continue
        form, winners = _coatom_search(c, grown)
        if ties:
            p0 = winners[0]
            least = min(sum(1 << p0[i] for i in _members(x)) for x in ties + [m])
            if all(sum(1 << q[i] for i in mem) != least for q in winners):
                continue
        found.append((form, automorphisms_of_winners(winners)))
    return found


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


def substitute_per_cell(cells, divisor, length):
    """Oracle: (1/divisor) * sum of n x^(r+s) prod_i (1 - x^i)^(-m_i) over
    the cells of a cell table {cycle type: {(r, s): n}}, each cell's series
    expanded over its type's own denominator by m_i running sums of step i,
    truncated to ``length`` terms; the division is checked exact."""
    total = [0] * length
    for expo, by_cell in cells.items():
        for (r, s), n in by_cell.items():
            term = [0] * length
            if r + s < length:
                term[r + s] = n
            for stride, m in enumerate(expo, 1):
                for _ in range(m):
                    for start in range(stride):
                        term[start::stride] = accumulate(term[start::stride])
            total = [t + x for t, x in zip(total, term)]
    out = []
    for value in total:
        q, rem = divmod(value, divisor)
        if rem:
            raise ArithmeticError("coefficient %d not divisible by %d" % (value, divisor))
        out.append(q)
    return out
