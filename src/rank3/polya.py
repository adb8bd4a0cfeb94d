"""Counting box fillings up to symmetry via cycle indices.

Distributing n unlabelled balls into c boxes, two fillings being equal
when a permutation group G on the boxes maps one to the other, is counted
by substituting the occupancy series 1 + x + x^2 + ... into the cycle
index of G, kept as integers: |G| and the number of elements of each
cycle type.  One substitution serves group_balls and the count tables
alike: one_denominator puts every cycle type over one denominator
D = prod_i (1 - x^i)^M_i, M_i the largest multiplicity of i among the
types, so the sum is one finite numerator N over D, and expand_rational
expands it by sum_i M_i running-sum passes instead of one pass per
cycle of every type: 10 against 20 for S_5, 27 against 192 for S_10.
Its division is checked exact, so a bug upstream surfaces as an
integrality failure, not a rounding one.  As D(0) = 1 that is a check
on N, which is divided before the passes, so no term of the series is
divided.  pipeline keeps N and D's exponents per coatom count for the
process, so a longer series pays only the passes; nothing here is
cached.
"""

import math
from collections import Counter
from itertools import accumulate
from typing import NamedTuple

from .bigraph import PermGroup


class CycleIndex(NamedTuple):
    """Cycle index (1/order) * sum of count * t_1^m_1 ... t_c^m_c.

    ``counts`` is the sorted tuple of (cycle type, number of elements of
    that type), a cycle type being the exponent tuple (m_1, ..., m_c), and
    ``order`` is |G|.  The fields are a normal form: only the identity has
    type t_1^c, so its coefficient 1/|G| fixes the order, and equal cycle
    indices have equal fields.
    """

    degree: int
    order: int
    counts: tuple


def cycle_index(group: PermGroup) -> CycleIndex:
    """Cycle index of ``group``: element counts per cycle type, and |G|."""
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


def _geometric_mul(coeffs: list[int], stride: int) -> None:
    """Multiply a truncated series, in place, by 1 + x^stride + x^(2 stride) + ...

    That product is a running sum with step ``stride``, which keeps the
    cycle-index substitution linear in the truncation order instead of
    quadratic.  Each residue class modulo ``stride`` is summed on its own.
    """
    for start in range(stride):
        coeffs[start::stride] = accumulate(coeffs[start::stride])


def one_denominator(terms) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(N, (M_1, ..., M_c)): the (cycle type, Q) ``terms`` over one denominator.

    Each type (m_1, ..., m_c) stands for Q(x) / D_m with D_m = prod_i (1 - x^i)^m_i.
    Over D = prod_i (1 - x^i)^M_i, M_i the largest m_i of any type, their
    sum is N / D with the finite polynomial N = sum of Q * D / D_m.
    """
    terms = [(expo, list(q)) for expo, q in terms]
    top = [max(m) for m in zip(*(expo for expo, _q in terms))]
    numerator = []
    for expo, poly in terms:
        for i, (most, m) in enumerate(zip(top, expo), 1):
            for _ in range(most - m):    # poly times 1 - x^i
                poly = [a - b for a, b in zip(poly + [0] * i, [0] * i + poly)]
        numerator += [0] * (len(poly) - len(numerator))
        numerator[:len(poly)] = [a + b for a, b in zip(numerator, poly)]
    return tuple(numerator), tuple(top)


def expand_rational(numerator, exponents, divisor: int, length: int) -> list[int]:
    """The first ``length`` terms of (1/divisor) N / prod_i (1 - x^i)^M_i.

    N is ``numerator`` and (M_1, ..., M_c) ``exponents``, as one_denominator
    gives them.  Each geometric pass at index k reads only indices up to k,
    so N is truncated to ``length`` first.  The division is checked exact:
    D(0) = 1, so the first terms of N / D are multiples of the divisor
    exactly when those of N are, and N is divided before the passes.
    Otherwise the error names the first term of N / D that is not one.
    """
    if length < 0:
        raise ValueError("series length must be nonnegative")
    head = numerator[:length]
    exact = not any(value % divisor for value in head)
    if exact:
        head = [value // divisor for value in head]
    total = list(head) + [0] * (length - len(head))
    for stride, m in enumerate(exponents, 1):
        for _ in range(m):
            _geometric_mul(total, stride)
    if not exact:
        value = next(value for value in total if value % divisor)
        raise ArithmeticError("coefficient %d not divisible by %d" % (value, divisor))
    return total


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
    terms = [(expo, [count]) for expo, count in zindex.counts]
    return expand_rational(*one_denominator(terms), zindex.order, max_balls + 1)
