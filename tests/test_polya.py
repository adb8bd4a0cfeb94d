"""Cycle indices and exact generating-series arithmetic."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank3
from rank3.polya import _geometric_mul

from oracles import substitute_per_cell
from reference_values import PATH4_BALLS


def orbit_count_oracle(group, total):
    """Burnside-free oracle: orbits of ball placements, by canonical tuples."""
    boxes = group.degree
    orbits = set()
    for tup in itertools.product(range(total + 1), repeat=boxes):
        if sum(tup) != total:
            continue
        orbits.add(min(tuple(tup[p[i]] for i in range(boxes))
                       for p in group.elements))
    return len(orbits)


def symmetric_group(n):
    return rank3.PermGroup(n, list(itertools.permutations(range(n))))


def generated_group(degree, generators):
    """The permutation group on degree points that generators generate."""
    elements, frontier = {tuple(range(degree))}, [tuple(range(degree))]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[i] for i in p)
            if q not in elements:
                elements.add(q)
                frontier.append(q)
    return rank3.PermGroup(degree, sorted(elements))


def outcome(substitute, *args):
    """The substitution's series, or the message of its ArithmeticError."""
    try:
        return substitute(*args)
    except ArithmeticError as exc:
        return str(exc)


def coefficients(z):
    """The cycle index as {cycle type: rational coefficient}."""
    return {expo: Fraction(n, z.order) for expo, n in z.counts}


class TestCycleIndex:
    def test_symmetric_group_s3(self):
        z = rank3.cycle_index(symmetric_group(3))
        expected = {
            (3, 0, 0): Fraction(1, 6),
            (1, 1, 0): Fraction(1, 2),
            (0, 0, 1): Fraction(1, 3),
        }
        assert coefficients(z) == expected

    def test_symmetric_group_from_class_sizes(self):
        # S_n's cycle index from n!/prod i^m_i m_i!, against all n! permutations
        for n in range(1, 8):
            assert rank3.polya.symmetric_cycle_index(n) == rank3.cycle_index(symmetric_group(n))

    def test_symmetric_winners_take_the_class_sizes(self):
        # the fold gives the graphs S_c maps onto themselves S_c's index from
        # its class sizes, with no search; the group listed for the bare
        # coatoms, every relabelling, gives the same index
        for c in range(1, 8):
            group = rank3.automorphism_group_on_coatoms(rank3.BicoloredGraph(c))
            assert group.order == math.factorial(c)
            assert rank3.cycle_index(group) == rank3.polya.symmetric_cycle_index(c)

    def test_path_graph_group(self):
        g = rank3.BicoloredGraph(4, [{0, 1}, {1, 2}, {2, 3}])
        z = rank3.cycle_index(rank3.automorphism_group_on_coatoms(g))
        expected = {
            (4, 0, 0, 0): Fraction(1, 2),
            (0, 2, 0, 0): Fraction(1, 2),
        }
        assert coefficients(z) == expected

    def test_coefficients_sum_to_one(self, graphs_by_c):
        for graphs in graphs_by_c.values():
            for g in graphs:
                grp = rank3.automorphism_group_on_coatoms(g)
                z = rank3.cycle_index(grp)
                assert sum(n for _, n in z.counts) == z.order == grp.order

    def test_terms_partition_the_degree(self, graphs_by_c):
        for c, graphs in graphs_by_c.items():
            for g in graphs:
                z = rank3.cycle_index(rank3.automorphism_group_on_coatoms(g))
                for exps, _ in z.counts:
                    assert sum((j + 1) * m for j, m in enumerate(exps)) == c

    def test_normalization_ignores_term_order(self):
        group = symmetric_group(3)
        a = rank3.cycle_index(group)
        b = rank3.cycle_index(rank3.PermGroup(3, reversed(group.elements)))
        assert a == b and hash(a) == hash(b)

    def test_rejects_wrong_exponent_arity(self):
        z = rank3.CycleIndex(3, 1, (((2, 0), 1),))
        with pytest.raises(ValueError):
            rank3.group_balls(z, 3, 4)
        # right length, but the cycles cover one box of three
        z = rank3.CycleIndex(3, 1, (((1, 0, 0), 1),))
        with pytest.raises(ValueError):
            rank3.group_balls(z, 3, 5)


class TestGroupBalls:
    def test_two_boxes_swap(self):
        z = rank3.cycle_index(symmetric_group(2))
        assert rank3.group_balls(z, 2, 4) == [1, 1, 2, 2, 3]

    def test_partitions_into_at_most_three_parts(self):
        z = rank3.cycle_index(symmetric_group(3))
        values = rank3.group_balls(z, 3, 8)
        # brute-force partition count with at most 3 parts
        for n, got in enumerate(values):
            want = sum(1 for p in itertools.product(range(n + 1), repeat=3)
                       if sum(p) == n and list(p) == sorted(p, reverse=True))
            assert got == want
        assert values[6] == 7

    def test_path_graph_sequence(self):
        g = rank3.BicoloredGraph(4, [{0, 1}, {1, 2}, {2, 3}])
        z = rank3.cycle_index(rank3.automorphism_group_on_coatoms(g))
        assert rank3.group_balls(z, 4, 10) == PATH4_BALLS

    def test_matches_orbit_oracle(self, graphs_by_c):
        for c in range(1, 5):
            for g in graphs_by_c[c]:
                grp = rank3.automorphism_group_on_coatoms(g)
                z = rank3.cycle_index(grp)
                values = rank3.group_balls(z, c, 6)
                for n in range(7):
                    assert values[n] == orbit_count_oracle(grp, n)

    @pytest.mark.parametrize("max_balls", [-1, -2, -5])
    def test_negative_ball_count_rejected(self, max_balls):
        # a negative count once sliced N by a negative length: for S_3, -2
        # gave [1, 1, 2, 3, 4] and -5 gave [1, 1]; no balls is one filling
        z = rank3.cycle_index(symmetric_group(3))
        with pytest.raises(ValueError):
            rank3.group_balls(z, 3, max_balls)
        with pytest.raises(ValueError):
            rank3.polya.expand_rational((1,), (3,), 1, max_balls)
        assert rank3.group_balls(z, 3, 0) == [1]

    def test_degree_mismatch_rejected(self):
        z = rank3.cycle_index(symmetric_group(2))
        with pytest.raises(ValueError):
            rank3.group_balls(z, 3, 4)


class TestSeries:
    """Truncated power series as plain integer lists."""

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=24),
        stride=st.integers(1, 8),
    )
    def test_geometric_mul_matches_schoolbook(self, coeffs, stride):
        n_max = len(coeffs) - 1
        fast = list(coeffs)
        _geometric_mul(fast, stride)
        occupancy = [int(k % stride == 0) for k in range(n_max + 1)]
        slow = [sum(coeffs[i] * occupancy[k - i] for i in range(k + 1))
                for k in range(n_max + 1)]
        assert fast == slow


class TestFunctionCountingSeries:
    """group_balls is the cycle index with the occupancy series substituted."""

    def test_trivial_group_is_compositions(self):
        z = rank3.cycle_index(rank3.PermGroup(2, [(0, 1)]))
        # two distinguishable boxes: n+1 ways
        assert rank3.group_balls(z, 2, 5) == [1, 2, 3, 4, 5, 6]

    def test_integrality_enforced(self):
        # cycle index (1/2) t1 is not a group cycle index; averaging over it
        # yields non-integers, which must be reported rather than truncated
        z = rank3.CycleIndex(1, 2, (((1,), 1),))
        with pytest.raises(ArithmeticError):
            rank3.group_balls(z, 1, 3)


class TestOneDenominator:
    """expand_rational of one_denominator puts every type of a cell table
    over one denominator; the oracle expands each cell over its type's own."""

    @staticmethod
    def draw_cells(data):
        degree = data.draw(st.integers(1, 5))
        expo = st.tuples(*[st.integers(0, 3)] * degree)
        # each type's cells up to r + s = 11, several on one r + s
        by_cell = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 5)),
                                  st.integers(-40, 40), max_size=12)
        return data.draw(st.dictionaries(expo, by_cell, max_size=6))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_per_type_substitution(self, data):
        cells = self.draw_cells(data)
        numerator, _exponents = rank3.polya.one_denominator(cells)
        # lengths on both sides of N's length, where truncating N first matters
        length = data.draw(st.integers(0, len(numerator) + 6))
        divisor = data.draw(st.integers(1, 4))
        assert outcome(rank3.polya.expand_rational, *rank3.polya.one_denominator(cells),
                       divisor, length) == outcome(substitute_per_cell, cells, divisor, length)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_continued_series_equals_one_from_term_0(self, data):
        # grown in steps from its carries, the series is the one expanded
        # from term 0, or a step raises the error a call from term 0 raises
        polya = rank3.polya
        numerator, exponents = polya.one_denominator(self.draw_cells(data))
        divisor = data.draw(st.integers(1, 4))
        stops = sorted(data.draw(st.lists(st.integers(0, len(numerator) + 8), max_size=4)))
        carries, series = polya.start_carries(exponents), []
        for stop in stops:
            want = outcome(polya.expand_rational, numerator, exponents, divisor, stop)
            got = outcome(polya.extend_rational, numerator, carries, divisor,
                          range(len(series), stop))
            if isinstance(want, str):
                assert got == want
                break
            terms, carries = got
            series += terms
            assert series == want

    def test_divides_first_up_to_the_first_coefficient_it_cannot(self):
        # N is divided before the running sums when its first ``length``
        # terms are multiples of the divisor: up to the first term that is
        # not, the series equals the oracle's, and from it on the error
        # names the oracle's coefficient
        # Q = 3 + 6x^2 over (1 - x)^2 and 3x + 4x^3 over 1 - x^2
        cells = {(2, 0): {(0, 0): 3, (1, 1): 6}, (0, 1): {(1, 0): 3, (2, 1): 4}}
        numerator, exponents = rank3.polya.one_denominator(cells)
        first = next(k for k, value in enumerate(numerator) if value % 3)
        assert first > 1
        series = rank3.polya.expand_rational(numerator, exponents, 3, first)
        assert series == substitute_per_cell(cells, 3, first)
        with pytest.raises(ArithmeticError) as info:
            rank3.polya.expand_rational(numerator, exponents, 3, first + 1)
        assert str(info.value) == outcome(substitute_per_cell, cells, 3, first + 1)
        assert str(info.value).startswith("coefficient ")
        # continued from the carries at ``first``, the series names the same coefficient
        carries = rank3.polya.extend_rational(numerator, rank3.polya.start_carries(exponents),
                                              3, range(first))[1]
        with pytest.raises(ArithmeticError) as grown:
            rank3.polya.extend_rational(numerator, carries, 3, range(first, first + 1))
        assert str(grown.value) == str(info.value)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_group_balls_equal_per_type_substitution(self, data):
        degree = data.draw(st.integers(1, 5))
        generators = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
        z = rank3.cycle_index(generated_group(degree, generators))
        max_balls = data.draw(st.integers(0, 30))
        cells = {expo: {(0, 0): count} for expo, count in z.counts}
        assert rank3.group_balls(z, degree, max_balls) == \
            substitute_per_cell(cells, z.order, max_balls + 1)
