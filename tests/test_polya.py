"""Cycle indices and exact generating-series arithmetic."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank3
from rank3.polya import _geometric_mul

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


class TestCycleIndex:
    def test_symmetric_group_s3(self):
        z = rank3.cycle_index(symmetric_group(3))
        expected = {
            (3, 0, 0): Fraction(1, 6),
            (1, 1, 0): Fraction(1, 2),
            (0, 0, 1): Fraction(1, 3),
        }
        assert dict(z.terms) == expected

    def test_path_graph_group(self):
        g = rank3.BicoloredGraph(4, [{0, 1}, {1, 2}, {2, 3}])
        z = rank3.cycle_index(rank3.automorphism_group_on_coatoms(g))
        expected = {
            (4, 0, 0, 0): Fraction(1, 2),
            (0, 2, 0, 0): Fraction(1, 2),
        }
        assert dict(z.terms) == expected

    def test_coefficients_sum_to_one(self, graphs_by_c):
        for graphs in graphs_by_c.values():
            for g in graphs:
                z = rank3.cycle_index(rank3.automorphism_group_on_coatoms(g))
                assert sum(coeff for _, coeff in z.terms) == 1

    def test_terms_partition_the_degree(self, graphs_by_c):
        for c, graphs in graphs_by_c.items():
            for g in graphs:
                z = rank3.cycle_index(rank3.automorphism_group_on_coatoms(g))
                for exps, _ in z.terms:
                    assert sum((j + 1) * m for j, m in enumerate(exps)) == c

    def test_normalization_ignores_term_order(self):
        a = rank3.CycleIndex(2, [((2, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 2))])
        b = rank3.CycleIndex(2, [((0, 1), Fraction(1, 2)), ((2, 0), Fraction(1, 2))])
        assert a == b and hash(a) == hash(b)

    def test_zero_terms_dropped(self):
        a = rank3.CycleIndex(2, [((2, 0), Fraction(1)), ((0, 1), Fraction(0))])
        assert a == rank3.CycleIndex(2, [((2, 0), Fraction(1))])

    def test_rejects_wrong_exponent_arity(self):
        with pytest.raises(ValueError):
            rank3.CycleIndex(3, [((2, 0), Fraction(1))])


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
        z = rank3.CycleIndex(1, [((1,), Fraction(1, 2))])
        with pytest.raises(ArithmeticError):
            rank3.group_balls(z, 1, 3)
