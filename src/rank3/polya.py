"""Counting box fillings up to symmetry via cycle indices.

Distributing n unlabelled balls into c boxes, two fillings being equal
when a permutation group G on the boxes maps one to the other, is counted
by substituting the occupancy series 1 + x + x^2 + ... into the cycle
index of G.  Everything here is exact: coefficients are arbitrary-size
integers and the averaging over |G| is checked to divide evenly, so any
bug upstream surfaces as an integrality failure instead of a rounding
artifact.
"""

from fractions import Fraction
from itertools import accumulate
from math import lcm

from .bigraph import PermGroup


class CycleIndex:
    """Cycle index of a permutation group, in a normalized form.

    ``terms`` maps each distinct cycle-type monomial to its rational
    coefficient; a monomial is the exponent tuple (m_1, ..., m_c) meaning
    t_1^m_1 ... t_c^m_c.  Terms are stored sorted, so equal polynomials
    compare and hash equal and instances serve as memo keys.
    """

    __slots__ = ("degree", "terms", "_hash")

    def __init__(self, degree: int, terms):
        items = []
        for expo, coeff in (terms.items() if isinstance(terms, dict) else terms):
            expo = tuple(expo)
            if len(expo) != degree:
                raise ValueError("exponent tuple %r does not have degree %d" % (expo, degree))
            coeff = Fraction(coeff)
            if coeff != 0:
                items.append((expo, coeff))
        items.sort()
        self.degree = degree
        self.terms = tuple(items)
        # profile keys are hashed for every graph, and hashing Fractions is slow
        self._hash = hash((degree, self.terms))

    def __eq__(self, other):
        if not isinstance(other, CycleIndex):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __repr__(self):
        parts = []
        for expo, coeff in self.terms:
            mono = "*".join("t%d^%d" % (i + 1, m) for i, m in enumerate(expo) if m)
            parts.append("%s*%s" % (coeff, mono or "1"))
        return "CycleIndex(%d, %s)" % (self.degree, " + ".join(parts) or "0")


def cycle_index(group: PermGroup) -> CycleIndex:
    """Cycle index (1/|G|) sum over g of t_1^m_1(g) ... t_c^m_c(g)."""
    degree = group.degree
    if len(group) == 0:
        raise ValueError("group must contain at least the identity")
    counts: dict[tuple, int] = {}
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
        key = tuple(expo)
        counts[key] = counts.get(key, 0) + 1
    order = len(group)
    return CycleIndex(degree, {expo: Fraction(n, order) for expo, n in counts.items()})


def _geometric_mul(coeffs: list[int], stride: int) -> None:
    """Multiply a truncated series, in place, by 1 + x^stride + x^(2 stride) + ...

    That product is a running sum with step ``stride``, which keeps the
    cycle-index substitution linear in the truncation order instead of
    quadratic.  Each residue class modulo ``stride`` is summed on its own.
    """
    for start in range(stride):
        coeffs[start::stride] = accumulate(coeffs[start::stride])


def group_balls(zindex: CycleIndex, boxes: int, max_balls: int) -> list[int]:
    """Numbers of orbit-distinct fillings of ``boxes`` boxes with 0..max_balls balls.

    Entry k counts the ways to distribute k unlabelled balls into the
    boxes, two distributions identified when some group element (via the
    cycle index) carries one to the other.  This is the substitution
    Z(A(x), A(x^2), ..., A(x^c)) with A(x) = 1 + x + x^2 + ..., truncated
    at max_balls.  The rational average is accumulated as an integer
    combination scaled by the common denominator and divided back out at
    the end, asserting exact divisibility.
    """
    if zindex.degree != boxes:
        raise ValueError("cycle index has degree %d, not %d" % (zindex.degree, boxes))
    denom = lcm(*(coeff.denominator for _, coeff in zindex.terms))
    total = [0] * (max_balls + 1)
    for expo, coeff in zindex.terms:
        term = [1] + [0] * max_balls
        for i, m in enumerate(expo):
            for _ in range(m):
                _geometric_mul(term, i + 1)
        weight = coeff.numerator * (denom // coeff.denominator)
        total = [t + weight * x for t, x in zip(total, term)]
    out = []
    for value in total:
        q, rem = divmod(value, denom)
        if rem:
            raise ArithmeticError("coefficient %d not divisible by %d" % (value, denom))
        out.append(q)
    return out
