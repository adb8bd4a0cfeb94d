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


def cycle_index(group: PermGroup, degree: int | None = None) -> CycleIndex:
    """Cycle index (1/|G|) sum over g of t_1^m_1(g) ... t_c^m_c(g)."""
    if degree is None:
        degree = group.degree
    if degree != group.degree:
        raise ValueError("group acts on %d points, not %d" % (group.degree, degree))
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


class Series:
    """Power series truncated at degree n_max with integer coefficients."""

    __slots__ = ("n_max", "coeffs")

    def __init__(self, n_max: int, coeffs):
        coeffs = list(coeffs)[:n_max + 1]
        coeffs += [0] * (n_max + 1 - len(coeffs))
        self.n_max = n_max
        self.coeffs = coeffs

    @classmethod
    def one(cls, n_max: int) -> "Series":
        return cls(n_max, [1])

    @classmethod
    def geometric(cls, stride: int, n_max: int) -> "Series":
        """Truncation of 1 + x^stride + x^(2 stride) + ... (occupancy series)."""
        if stride < 1:
            raise ValueError("stride must be positive")
        coeffs = [0] * (n_max + 1)
        for k in range(0, n_max + 1, stride):
            coeffs[k] = 1
        return cls(n_max, coeffs)

    def __add__(self, other):
        self._check(other)
        return Series(self.n_max, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        """Schoolbook product, truncated at n_max."""
        if isinstance(other, int):
            return Series(self.n_max, [other * a for a in self.coeffs])
        self._check(other)
        n = self.n_max
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series(n, out)

    __rmul__ = __mul__

    def exact_div(self, k: int) -> "Series":
        out = []
        for a in self.coeffs:
            q, rem = divmod(a, k)
            if rem:
                raise ArithmeticError("coefficient %d not divisible by %d" % (a, k))
            out.append(q)
        return Series(self.n_max, out)

    def geometric_mul(self, stride: int) -> "Series":
        """Product with the occupancy series of one cycle of length ``stride``.

        Multiplying by 1 + x^s + x^(2s) + ... is a running sum with step s,
        which keeps the cycle-index substitution linear in n_max instead of
        quadratic.  Agrees with __mul__ against Series.geometric by
        construction; the test suite checks that.
        """
        if stride < 1:
            raise ValueError("stride must be positive")
        out = list(self.coeffs)
        for k in range(stride, self.n_max + 1):
            out[k] += out[k - stride]
        return Series(self.n_max, out)

    def _check(self, other):
        if not isinstance(other, Series) or other.n_max != self.n_max:
            raise ValueError("series truncation orders differ")

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.n_max == other.n_max and self.coeffs == other.coeffs

    def __repr__(self):
        return "Series(%d, %r%s)" % (self.n_max, self.coeffs[:8],
                                     "..." if self.n_max > 7 else "")


def function_counting_series(zindex: CycleIndex, max_degree: int) -> Series:
    """Substitute the occupancy series into a cycle index.

    Evaluates Z(A(x), A(x^2), ..., A(x^c)) with A(x) = 1 + x + x^2 + ...
    truncated at max_degree.  The rational average is accumulated as an
    integer combination scaled by the common denominator and divided back
    out at the end, asserting exact divisibility.
    """
    denom = lcm(*(coeff.denominator for _, coeff in zindex.terms)) if zindex.terms else 1
    total = Series(max_degree, [])
    for expo, coeff in zindex.terms:
        term = Series.one(max_degree)
        for i, m in enumerate(expo):
            for _ in range(m):
                term = term.geometric_mul(i + 1)
        weight = coeff * denom
        assert weight.denominator == 1
        total = total + term * int(weight)
    return total.exact_div(denom)


def group_balls(zindex: CycleIndex, boxes: int, max_balls: int) -> list[int]:
    """Numbers of orbit-distinct fillings of ``boxes`` boxes with 0..max_balls balls.

    Entry k counts the ways to distribute k unlabelled balls into the
    boxes, two distributions identified when some group element (via the
    cycle index) carries one to the other.
    """
    if zindex.degree != boxes:
        raise ValueError("cycle index has degree %d, not %d" % (zindex.degree, boxes))
    return list(function_counting_series(zindex, max_balls).coeffs)
