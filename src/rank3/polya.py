"""Counting up to symmetry: box fillings by cycle index, and the labelled
families each permutation of S_c fixes.

Distributing n unlabelled balls into c boxes, two fillings being equal
when a permutation group G on the boxes maps one to the other, is counted
by substituting the occupancy series 1 + x + x^2 + ... into the cycle
index of G, kept as integers: |G| and the number of elements of each
cycle type.  One substitution serves group_balls and the count tables
alike: one_denominator takes a cell table, the shape fixed_family_counts
returns (group_balls gives each type one cell), sums each type's cells
into its polynomial and puts every cycle type over one denominator
D = prod_i (1 - x^i)^M_i, M_i the largest multiplicity of i among the
types (each polynomial packed into one integer, so that its product by
D / D_m is one integer product), so the sum is one finite numerator N
over D, and expand_rational expands it by sum_i M_i running-sum passes
instead of one pass per cycle of every type: 10 against 20 for S_5, 27
against 192 for S_10.
Its division is checked exact, so a bug upstream surfaces as an
integrality failure, not a rounding one.  As D(0) = 1 that is a check
on N, which is divided before the passes, so no term of the series is
divided.  extend_rational continues a series from the last terms each
pass wrote, its carries: pipeline keeps N, the series and its carries
per coatom count for the process, so a longer series pays only the
passes over its new terms; the substitution caches nothing.

fixed_family_counts counts, without a census, the labelled families each
cycle type of S_c fixes, per connector count and uncovered coatoms: by
Burnside's lemma these are the count's polynomials, so a count without
graphs needs no census, no search and no module of the graph layer
(bigraph, genconn), and genconn.check_graphs gates a list of graphs on
them: its fold must give the same cells.  It keeps no cells per c (pipeline keeps one
entry per c); what it keeps for the process, shared by every c, is each
sub-type's fixed families covering or not (_fixed_families, keyed by the
cycle type without trailing zero multiplicities, so a sub-type of S_4
serves S_5 as well: 139 entries up to c = 10), from which a call
assembles its cells afresh, in one flat list per type.  The
point-elimination memo (_linear_families) is freed when each count
returns or raises.  A count that fails its gate frees the sub-type
counts too.  ROADMAP.md, "Where it stands", gives its times and peaks.

Every count imports this module, and where Python caches no bytecode
(PYTHONDONTWRITEBYTECODE=1) every process compiles it again, about 4.5
ms on a 2-core VM: each line added here shows in a cold start.
"""

import functools
import math
import operator
from collections import Counter, namedtuple
from itertools import accumulate, compress, product


class CycleIndex(namedtuple("CycleIndex", "degree order counts")):
    """Cycle index (1/order) * sum of count * t_1^m_1 ... t_c^m_c.

    ``counts`` is the sorted tuple of (cycle type, number of elements of
    that type), a cycle type being the exponent tuple (m_1, ..., m_c), and
    ``order`` is |G|.  The fields are a normal form: only the identity has
    type t_1^c, so its coefficient 1/|G| fixes the order, and equal cycle
    indices have equal fields.
    """

    __slots__ = ()


def cycle_index(group) -> CycleIndex:
    """Cycle index of ``group``, a bigraph.PermGroup: element counts per cycle
    type, and |G|."""
    degree = group.degree
    if group.order == 0:
        raise ValueError("group must contain at least the identity")
    counts = Counter()
    for perm in group:
        expo = [0] * degree
        seen = [False] * degree
        for start in range(degree):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
                length += 1
            expo[length - 1] += 1
        counts[tuple(expo)] += 1
    return CycleIndex(degree, group.order, tuple(sorted(counts.items())))


def _partitions(n: int, largest: int):
    """The partitions of n into parts of at most ``largest``, largest part first."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def symmetric_cycle_index(degree: int) -> CycleIndex:
    """Cycle index of the full symmetric group on ``degree`` points, from the
    class sizes n!/prod i^m_i m_i!, without listing the n! permutations."""
    order = math.factorial(degree)
    counts = []
    for parts in _partitions(degree, degree):
        expo = [parts.count(i) for i in range(1, degree + 1)]
        centraliser = math.prod(i ** m * math.factorial(m) for i, m in enumerate(expo, 1))
        counts.append((tuple(expo), order // centraliser))
    return CycleIndex(degree, order, tuple(sorted(counts)))


def _geometric_mul(coeffs: list[int], stride: int, first: int = 0) -> None:
    """Multiply a truncated series, in place, by 1 + x^stride + x^(2 stride) + ...,
    from index ``first`` on.

    That product is a running sum with step ``stride``, which keeps the
    cycle-index substitution linear in the truncation order instead of
    quadratic.  Each residue class modulo ``stride`` is summed on its own.
    """
    for start in range(first, first + stride):
        coeffs[start::stride] = accumulate(coeffs[start::stride])


def one_denominator(cells) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(N, (M_1, ..., M_c)): the cell table ``cells`` over one denominator.

    ``cells`` is {cycle type: {(r, s): n}}, as fixed_family_counts gives
    it.  Each type (m_1, ..., m_c) stands for Q(x) / D_m with
    D_m = prod_i (1 - x^i)^m_i, Q[k] the sum of its cells with r + s = k.
    Over D = prod_i (1 - x^i)^M_i, M_i the largest m_i of any type, their
    sum is N / D with the finite polynomial N = sum of Q * D / D_m.
    """
    top = [max(m) for m in zip(*cells)]
    # every polynomial packed into one integer, term k at bit k * width, so
    # that the products by D / D_m are integer products (Kronecker
    # substitution): a term of N is below the cells' absolute sum times
    # 2^sum(M_i), so width bits hold it with its sign
    width = sum(abs(n) for by_cell in cells.values() for n in by_cell.values()).bit_length()
    width += sum(top) + 1
    packed = length = 0
    for expo, by_cell in cells.items():
        gap = [(i, most - m) for i, (most, m) in enumerate(zip(top, expo), 1)]
        length = max(length, max(map(sum, by_cell), default=-1) + 1 + sum(i * k for i, k in gap))
        packed += (sum(n << (r + s) * width for (r, s), n in by_cell.items())
                   * math.prod((1 - (1 << i * width)) ** k for i, k in gap))
    numerator, half = [], 1 << width - 1
    for _ in range(length):
        numerator.append((packed + half & (1 << width) - 1) - half)
        packed = (packed - numerator[-1]) >> width
    return tuple(numerator), tuple(top)


def start_carries(exponents) -> list[list[int]]:
    """The carries of a series not begun, for extend_rational: i zeros for
    each of the M_i running-sum passes of stride i, strides ascending."""
    return [[0] * stride for stride, m in enumerate(exponents, 1) for _ in range(m)]


def expand_rational(numerator, exponents, divisor: int, length: int) -> list[int]:
    """The first ``length`` terms of (1/divisor) N / prod_i (1 - x^i)^M_i.

    N is ``numerator`` and (M_1, ..., M_c) ``exponents``, as one_denominator
    gives them: extend_rational from term 0.
    """
    if length < 0:
        raise ValueError("series length must be nonnegative")
    return extend_rational(numerator, start_carries(exponents), divisor, range(length))[0]


def extend_rational(numerator, carries, divisor: int, terms: range) -> tuple[list[int], list]:
    """(The terms ``terms`` of (1/divisor) N / D, the carries at terms.stop).

    ``carries`` holds, per running-sum pass of D in start_carries' order,
    the last i terms the pass of stride i wrote before terms.start.  A
    pass at index k reads only indices up to k, so the new terms need the
    new terms of N and the carries alone.  The division is checked exact
    on the new terms of N: D(0) = 1, so with the earlier terms of N
    multiples of the divisor, the new terms of N / D are multiples exactly
    when those of N are, and N is divided before the passes.  Otherwise
    the error names the first term of N / D that is not one, as a call
    from term 0 would.
    """
    head = numerator[terms.start:terms.stop]
    exact = not any(value % divisor for value in head)
    width = max(map(len, carries), default=0)
    total = [0] * width
    total += [value // divisor for value in head] if exact else head
    total += [0] * (len(terms) - len(head))
    kept = []
    for carry in carries:
        # the pass's own terms before the new ones, undivided if N is not divided
        stride = len(carry)
        total[width - stride:width] = carry if exact else [value * divisor for value in carry]
        _geometric_mul(total, stride, width - stride)
        kept.append(total[-stride:])
    del total[:width]
    if not exact:
        value = next(value for value in total if value % divisor)
        raise ArithmeticError("coefficient %d not divisible by %d" % (value, divisor))
    return total, kept


def group_balls(zindex: CycleIndex, boxes: int, max_balls: int) -> list[int]:
    """Numbers of orbit-distinct fillings of ``boxes`` boxes with 0..max_balls balls.

    Entry k counts the ways to distribute k unlabelled balls into the
    boxes, two distributions identified when some group element (via the
    cycle index) carries one to the other.  This is the substitution
    Z(A(x), A(x^2), ..., A(x^c)) with A(x) = 1 + x + x^2 + ..., truncated
    at max_balls.  Each cycle type is weighted by its element count, and
    the sum is divided by |G|, asserting exact divisibility.
    """
    if max_balls < 0:
        raise ValueError("maximum ball count must be nonnegative")
    if zindex.degree != boxes:
        raise ValueError("cycle index has degree %d, not %d" % (zindex.degree, boxes))
    for expo, _count in zindex.counts:
        if len(expo) != boxes or sum(i * m for i, m in enumerate(expo, 1)) != boxes:
            raise ValueError("exponent tuple %r is no cycle type of degree %d" % (expo, boxes))
    cells = {expo: {(0, 0): count} for expo, count in zindex.counts}
    return expand_rational(*one_denominator(cells), zindex.order, max_balls + 1)


# -- fixed labelled families ---------------------------------------------------
#
# By Burnside's lemma the classes with r connectors and s uncovered
# coatoms are 1/c! times the sum over sigma in S_c of the labelled
# families of that kind that sigma fixes (Harary & Palmer, "Graphical
# Enumeration", 1973, ch. 1-2; Bergeron, Labelle & Leroux, "Combinatorial
# Species", 1998, ch. 1); the identity fixes all of them, L_c(r, s).
#
# A fixed family is a union of sigma-orbits of connectors.  The orbits that
# touch a point sigma moves are listed, walked through a table of every
# mask's image (none for the identity), those linear inside themselves
# kept, and their compatible unions tallied, keyed by the pairs a union
# holds inside the fixed points F and its connector count.  Two orbits
# conflict when they hold a common pair, so the tally is the independence
# polynomial of the conflict graph: the product of its components', each
# by deleting an orbit of most conflicts (Gutman & Harary, "Generalizations
# of the matching polynomial", Utilitas Math. 24, 1983; Knuth, TAOCP 4A,
# 7.1.4).  The connectors on F are then any linear family on F that avoids
# those pairs: A(H), H the graph of the pairs, in closed form on at most
# _CLOSED points, else counted by eliminating points.  The connectors through a point v are v plus disjoint blocks,
# H-independent sets of v's non-neighbours, and each choice leaves its
# blocks as cliques in H on the points left; a v of largest degree keeps
# the choices few, and the points left are relabelled by degree before
# each memo lookup.  Swapping two twins among v's non-neighbours (points
# of one open or one closed neighbourhood in H) is an automorphism of H
# fixing v, so the choices are taken once per orbit of such swaps, by how
# many points each block takes of each twin class, and weighted by the
# orbit's size.
#
# That counts the fixed families covering or not.  The coatoms a fixed
# family leaves bare are a union of sigma's cycles, so the families with
# s bare come by inclusion-exclusion over the cycles (Stanley, "Enumerative
# Combinatorics I", 2.1): k_i of the m_i cycles of length i kept bare
# weigh the covering-or-not families of the other cycles by C(m_i, k_i)
# [x^s] prod (x^i - 1)^k_i, each (x^i - 1)^k expanded once per count.  The
# identity's L_c(r, s) is this sum with all c cycles fixed points.
#
# A connector is its coatom mask, bit i for coatom i; _members and _pairs
# read masks for bigraph and genconn as well.


@functools.cache
def _members(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending (cached: immutable, and a
    census on c coatoms has at most 2^c distinct masks)."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@functools.cache
def _pairs(mask: int) -> int:
    """One bit per coatom pair that ``mask`` covers, pair (i, k) with k < i at
    bit i(i-1)/2 + k: two masks share two coatoms iff their pairs meet."""
    mem = _members(mask)
    return sum(1 << i * (i - 1) // 2 + k for a, i in enumerate(mem) for k in mem[:a])


def _twin_classes(adj, free) -> list:
    """The points of ``free`` in twin classes of H (``adj``, one neighbour mask
    per point): (points ascending, most of them one block takes) each.
    Points with one open neighbourhood are pairwise apart, so a block may
    take all of them; points with one closed neighbourhood are pairwise
    joined, so a block takes one.  No point has twins of both kinds."""
    by_open, by_closed = {}, {}
    for u in _members(free):
        by_open.setdefault(adj[u], []).append(u)
    classes = []
    for points in by_open.values():
        if len(points) > 1:
            classes.append((points, len(points)))
        else:
            by_closed.setdefault(adj[points[0]] | 1 << points[0], []).append(points[0])
    return classes + [(points, 1) for points in by_closed.values()]


# _linear_families counts a graph on at most this many points in closed form
_CLOSED = 4


def _by_degree(adj) -> tuple[int, ...]:
    """The same graph with its points relabelled in ascending degree, for
    _linear_families' memo; a graph it counts in closed form as it is."""
    if len(adj) <= _CLOSED:
        return tuple(adj)
    order = sorted(range(len(adj)), key=[m.bit_count() for m in adj].__getitem__)
    bit = [0] * len(adj)
    for new, old in enumerate(order):
        bit[old] = 1 << new
    return tuple(sum(map(bit.__getitem__, _members(adj[old]))) for old in order)


@functools.cache
def _linear_families(adj) -> tuple[int, ...]:
    """A(H) by connector count r <= n(n-1)/2, n the points of H: the labelled
    linear families on those points that cover no pair joined in H."""
    n = len(adj)
    degree = [m.bit_count() for m in adj]
    if n <= _CLOSED:
        # a set of the pairs H leaves, or one connector of three or more
        # points that covers no joined pair: all n points alone, or on four
        # points the three but some d, with any pairs through d
        joined = sum(degree) // 2
        got = [math.comb(n * (n - 1) // 2 - joined, r) for r in range(n * (n - 1) // 2 + 1)]
        if n >= 3 and not joined:
            got[1] += 1
        for d in degree:
            if n == 4 and d == joined:
                for r in range(4 - d):
                    got[r + 1] += math.comb(3 - d, r)
        return tuple(got)
    got = [0] * (n * (n - 1) // 2 + 1)
    v = degree.index(max(degree))
    # H without v, the points above it moved down by one: v's non-neighbours
    # have no edge to v, so their twin classes are the same in it
    low = (1 << v) - 1
    rest = tuple(m & low | m >> 1 & ~low for m in adj[:v] + adj[v + 1:])
    free = (1 << n - 1) - 1 & ~(adj[v] & low | adj[v] >> 1 & ~low)
    classes = _twin_classes(rest, free)
    # every block: (class, points taken) over classes pairwise apart, two
    # classes being joined in full or not at all
    apart = [sum(1 << j for j, (other, _most) in enumerate(classes)
                 if not rest[points[0]] >> other[0] & 1) for points, _most in classes]
    blocks, stack = [], [((), (1 << len(classes)) - 1)]
    while stack:
        block, later = stack.pop()
        blocks += [block] if block else []
        for i in _members(later):
            # -(2 << i) keeps the classes after i
            stack += [(block + ((i, b),), later & apart[i] & -(2 << i))
                      for b in range(1, classes[i][1] + 1)]
    # every choice, its blocks in ascending order: realised by the lowest
    # points left in their classes, each made a clique of H - v; t repeats
    # of one block weigh 1/t!
    bits = [[1 << p for p in points] for points, _most in classes]
    choices = {}
    stack = [(0, 0, tuple(map(len, bits)), 1, rest, 0)]
    while stack:
        first, t, left, ways, after, k = stack.pop()
        choices[after, k] = choices.get((after, k), 0) + ways
        for j in range(first, len(blocks)):
            block = blocks[j]
            if any(left[i] < b for i, b in block):
                continue
            mask, left_now, more = 0, list(left), ways
            for i, b in block:
                used = len(bits[i]) - left_now[i]
                mask |= sum(bits[i][used:used + b])
                more *= math.comb(left_now[i], b)
                left_now[i] -= b
            clique = after
            if mask & mask - 1:
                clique = list(after)
                for p in _members(mask):
                    clique[p] |= mask ^ 1 << p
                clique = tuple(clique)
            times = t + 1 if j == first else 1
            stack.append((j, times, tuple(left_now), more // times, clique, k + 1))
    for (after, k), ways in choices.items():
        for r, x in enumerate(_linear_families(_by_degree(after)), k):
            got[r] += ways * x
    return tuple(got)


def _linear_orbits(perm) -> list:
    """The orbits under perm (a list of images) of the connectors that touch
    a point perm moves, only those with no two members sharing two points:
    (pairs covered, size) each, in the order of their least masks."""
    moved = sum(1 << i for i, p in enumerate(perm) if p != i)
    if not moved:
        return []
    # every mask's image, the masks with point i those without it plus i's image
    image = [0]
    for p in perm:
        image += [x | 1 << p for x in image]
    orbits, seen = [], bytearray(len(image))
    for m in range(len(image)):
        if not m & moved or m.bit_count() < 2 or seen[m]:
            continue
        pairs, x = [], m
        while not seen[x]:
            seen[x] = 1
            pairs.append(_pairs(x))
            x = image[x]
        covered = functools.reduce(int.__or__, pairs)
        if covered == sum(pairs):    # no pair held twice
            orbits.append((covered, len(pairs)))
    return orbits


# a connected set of at most this many orbits has at most 2^11 + 1 pairwise
# compatible subsets (a star), so _orbit_unions lists them.  That is kept for
# the small counts that answer queries: with _LISTED = 1 perfbench's queries
# wall_s rose 5.2 % (6 of 6 pairs, 2-core VM); c = 9 and 10 were no slower
_LISTED = 12


def _orbit_unions(keys, conflicts) -> dict:
    """{key: ways} over the sets of pairwise compatible orbits, a set's key
    the sum of its orbits' keys: the independence polynomial of the
    conflict graph, conflicts[j] the mask of the orbits that orbit j
    conflicts with.

    A set's tally is the product of its connected components'.  A
    connected set of at most _LISTED orbits lists its compatible subsets.
    A larger one drops its orbit v of most conflicts, adding v's key times
    the tally of the rest without v's conflicts, and goes on with the rest
    while that stays connected, larger and untallied.  Each connected
    set's tally is kept until the call returns, and the sets wait on a
    list, not on the call stack, so no chain of dropped orbits recurses."""
    def parts(s):
        # the connected components of s
        out = []
        while s:
            part = front = s & -s
            while front:
                reach = 0
                while front:
                    low = front & -front
                    front ^= low
                    reach |= conflicts[low.bit_length() - 1]
                front = reach & s & ~part
                part |= front
            out.append(part)
            s ^= part
        return out

    def product(key, sets):
        # the product of the tallies of sets, key added to each of its keys
        if not sets:
            return {key: 1}
        tally = {key + other: ways for other, ways in memo[sets[0]].items()}
        for s in sets[1:]:
            got = {}
            for have, ways in tally.items():
                for other, more in memo[s].items():
                    got[have + other] = got.get(have + other, 0) + ways * more
            tally = got
        return tally

    memo, plans, whole = {}, {}, parts((1 << len(keys)) - 1)
    todo = list(whole)
    while todo:
        s = todo.pop()
        if s in memo:
            continue
        if s in plans:
            # back on top, so every part it waited on is tallied
            chain, split = plans.pop(s)
            tally = product(0, split)
            for key, joined in chain:
                for other, ways in product(key, joined).items():
                    tally[other] = tally.get(other, 0) + ways
            memo[s] = tally
            continue
        if s.bit_count() <= _LISTED:
            # its pairwise compatible subsets listed, each by its least orbit
            tally, stack = {}, [(s, 0)]
            while stack:
                cand, key = stack.pop()
                tally[key] = tally.get(key, 0) + 1
                while cand:
                    low = cand & -cand
                    cand ^= low
                    j = low.bit_length() - 1
                    stack.append((cand & ~conflicts[j], key + keys[j]))
            memo[s] = tally
            continue
        chain, rest = [], s
        while True:
            most, x = -1, rest
            while x:
                low = x & -x
                x ^= low
                j = low.bit_length() - 1
                met = (conflicts[j] & rest).bit_count()
                if met > most:
                    most, v = met, j
            rest &= ~(1 << v)
            chain.append((keys[v], parts(rest & ~conflicts[v])))
            split = parts(rest)
            if len(split) > 1 or split[0] in memo or rest.bit_count() <= _LISTED:
                break
        plans[s] = chain, split
        todo += [s, *split, *(part for _key, joined in chain for part in joined)]
    return product(0, whole)


@functools.cache
def _fixed_families(expo) -> tuple:
    """The nonzero (r, n): n labelled linear families with r connectors,
    covering or not, that one permutation of cycle type expo fixes, its
    fixed points first.  expo has no trailing zero multiplicity, so one
    entry serves every coatom count."""
    perm = []
    for length, m in enumerate(expo, 1):
        for start in range(len(perm), len(perm) + m * length, length):
            perm += [*range(start + 1, start + length), start]
    fixed = expo[0] if expo else 0
    top = len(perm) * (len(perm) - 1) // 2 + 1
    orbits = _linear_orbits(perm)
    # a union's tally key: its connector count r in the low bits, the pairs
    # it holds inside the fixed points F above them; compatible orbits hold
    # disjoint pairs, so a union's key is the sum of its orbits'
    # the pairs inside F are bits 0 .. fixed(fixed - 1)/2 - 1, pair (i, k)
    # at bit i(i - 1)/2 + k
    ends = [(i, k) for i in range(fixed) for k in range(i)]
    shift, inside = top.bit_length(), (1 << len(ends)) - 1
    keys = [(pairs & inside) << shift | size for pairs, size in orbits]
    conflicts = [0] * len(orbits)
    for j, (pairs, _size) in enumerate(orbits):
        for k in range(j):
            if pairs & orbits[k][0]:
                conflicts[j] |= 1 << k
                conflicts[k] |= 1 << j
    out, on_fixed = [0] * top, {}
    for key, ways in _orbit_unions(keys, conflicts).items():
        held, r = key >> shift, key & (1 << shift) - 1
        families = on_fixed.get(held)
        if families is None:
            adj, x = [0] * fixed, held
            while x:
                i, k = ends[(x & -x).bit_length() - 1]
                x &= x - 1
                adj[i] |= 1 << k
                adj[k] |= 1 << i
            families = on_fixed[held] = _linear_families(_by_degree(adj))
        for rf, n in enumerate(families[:top - r], r):
            out[rf] += ways * n
    return tuple((r, n) for r, n in enumerate(out) if n)


# bound once, so a failed gate empties this cache even while the name is rebound
_forget_fixed_families = _fixed_families.cache_clear


def fixed_family_counts(coatom_count: int) -> dict:
    """{cycle type: {(r, s): |C| fix(r, s)}}, nonzero cells only, new on every call.

    For each cycle type (m_1, ..., m_c) of S_c, |C| is its class size and
    fix(r, s) the labelled families with r connectors and s uncovered
    coatoms fixed by one permutation of that type; summed over r + s = k
    this is the Q[k] of pipeline's count, by Burnside's lemma, without a
    census or a search.  The module docstring says what it keeps for the
    process.  Each (r, s) must sum, over the types, to c! times its classes
    (the orbit-counting identity); a cell that does not raises
    ArithmeticError, and no sub-type's count is kept.
    """
    c = coatom_count
    if c < 1:
        raise ValueError("coatom count must be positive")
    # (x^i - 1)^k = sum_j C(k, j) (-1)^(k - j) x^(ij) for i k <= c, as
    # (s, coefficient) pairs: powers[i - 1][k]
    powers = [[[(i * j, (-1) ** (k - j) * math.comb(k, j)) for j in range(k + 1)]
               for k in range(c // i + 1)] for i in range(1, c + 1)]
    # a type's cells in one flat list, cell (r, s) at r(c + 1) + s
    width = c + 1
    names = [divmod(j, width) for j in range(width * (c * (c - 1) // 2 + 1))]
    out, cells = {}, [0] * len(names)
    try:
        for expo, size in symmetric_cycle_index(c).counts:
            tally = [0] * len(names)
            # inclusion-exclusion over the cycles kept bare (see above), k of
            # the m cycles of each length i + 1 present
            present = [i for i, m in enumerate(expo) if m]
            most = [expo[i] for i in present]
            for bare in product(*(range(m + 1) for m in most)):
                poly = [(0, size * math.prod(map(math.comb, most, bare)))]
                rest = list(expo[:present[-1] + 1])
                for i, k in zip(present, bare):
                    if k:
                        rest[i] -= k
                        poly = [(s + t, n * p) for s, n in poly for t, p in powers[i][k]]
                while rest and not rest[-1]:
                    rest.pop()
                for r, n in _fixed_families(tuple(rest)):
                    at = r * width
                    for s, p in poly:
                        tally[at + s] += n * p
            out[expo] = dict(compress(zip(names, tally), tally))    # the nonzero cells
            cells = list(map(operator.add, cells, tally))
    finally:
        _linear_families.cache_clear()
    order = math.factorial(c)
    for j, n in enumerate(cells):
        if n % order:
            _forget_fixed_families()
            raise ArithmeticError("the cycle types' fixed families with %d connectors and %d "
                                  "uncovered coatoms add up to %d, which %d! does not divide"
                                  % (*divmod(j, width), n, c))
    return out
