"""Counting box fillings up to symmetry via cycle indices.

Distributing n unlabelled balls into c boxes, two fillings being equal
when a permutation group G on the boxes maps one to the other, is counted
by substituting the occupancy series 1 + x + x^2 + ... into the cycle
index of G, kept as integers: |G| and the number of elements of each
cycle type.  substitute_cycle_types is the one such substitution, for
group_balls and the count tables alike; its division is checked exact,
so a bug upstream surfaces as an integrality failure, not a rounding one.
"""

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
    indices have equal fields.  Instances serve as memo keys.
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


def _geometric_mul(coeffs: list[int], stride: int) -> None:
    """Multiply a truncated series, in place, by 1 + x^stride + x^(2 stride) + ...

    That product is a running sum with step ``stride``, which keeps the
    cycle-index substitution linear in the truncation order instead of
    quadratic.  Each residue class modulo ``stride`` is summed on its own.
    """
    for start in range(stride):
        coeffs[start::stride] = accumulate(coeffs[start::stride])


def substitute_cycle_types(terms, divisor: int, length: int) -> list[int]:
    """(1/divisor) * sum of Q(x) * prod_i (1 - x^i)^(-m_i) over (cycle type, Q) ``terms``.

    A cycle type is the exponent tuple (m_1, ..., m_c).  The sum is
    truncated to ``length`` terms, and its division is checked exact.
    """
    total = [0] * length
    for expo, coeffs in terms:
        term = list(coeffs[:length]) + [0] * (length - len(coeffs))
        for stride, m in enumerate(expo, 1):
            for _ in range(m):
                _geometric_mul(term, stride)
        total = [t + x for t, x in zip(total, term)]
    out = []
    for value in total:
        q, rem = divmod(value, divisor)
        if rem:
            raise ArithmeticError("coefficient %d not divisible by %d" % (value, divisor))
        out.append(q)
    return out


def group_balls(zindex: CycleIndex, boxes: int, max_balls: int) -> list[int]:
    """Numbers of orbit-distinct fillings of ``boxes`` boxes with 0..max_balls balls.

    Entry k counts the ways to distribute k unlabelled balls into the
    boxes, two distributions identified when some group element (via the
    cycle index) carries one to the other.  This is the substitution
    Z(A(x), A(x^2), ..., A(x^c)) with A(x) = 1 + x + x^2 + ..., truncated
    at max_balls.  Each cycle type's series is weighted by its element
    count, and the sum is divided by |G|, asserting exact divisibility.
    """
    if zindex.degree != boxes:
        raise ValueError("cycle index has degree %d, not %d" % (zindex.degree, boxes))
    for expo, _count in zindex.counts:
        if len(expo) != boxes:
            raise ValueError("exponent tuple %r does not have degree %d" % (expo, boxes))
    return substitute_cycle_types(((expo, [count]) for expo, count in zindex.counts),
                                  zindex.order, max_balls + 1)
