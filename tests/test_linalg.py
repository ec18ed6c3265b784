"""Exact echelon arithmetic underneath the subalgebra machinery."""

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from grasskit.linalg import rank_of, reduce_against, rref

F = Fraction


def _rows(*data):
    return [[F(x) for x in row] for row in data]


def test_rref_known_matrix():
    rows, pivots = rref(_rows([2, 4, 6], [1, 2, 4], [0, 0, 1]))
    assert rows == _rows([1, 2, 0], [0, 0, 1])
    assert pivots == [0, 2]


def test_rref_fraction_pivots():
    rows, pivots = rref(_rows(["1/2", "1/3"], ["1/4", "1/5"]))
    assert rows == _rows([1, 0], [0, 1])
    assert pivots == [0, 1]


def test_rref_drops_zero_rows():
    rows, pivots = rref(_rows([1, 1], [2, 2], [0, 0]))
    assert rows == _rows([1, 1])
    assert pivots == [0]


def test_rref_is_idempotent():
    rng = random.Random(201)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        raw = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        rows, pivots = rref(raw)
        again, again_pivots = rref(rows)
        assert again == rows
        assert again_pivots == pivots


def test_rref_pivots_strictly_increase_and_are_cleared():
    rng = random.Random(202)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        raw = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        rows, pivots = rref(raw)
        assert pivots == sorted(set(pivots))
        for r, p in enumerate(pivots):
            assert rows[r][p] == 1
            for other in range(len(rows)):
                if other != r:
                    assert rows[other][p] == 0


def test_original_rows_lie_in_reduced_span():
    rng = random.Random(203)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        raw = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        rows, pivots = rref(raw)
        for row in raw:
            residue = reduce_against(rows, pivots, row)
            assert all(x == 0 for x in residue)


def test_reduce_against_detects_new_directions():
    rows, pivots = rref(_rows([1, 0, 0], [0, 1, 0]))
    residue = reduce_against(rows, pivots, [F(3), F(5), F(7)])
    assert residue == [F(0), F(0), F(7)]


def test_rank_of():
    assert rank_of(_rows([1, 2], [2, 4])) == 1
    assert rank_of(_rows([1, 0], [0, 1])) == 2
    assert rank_of([]) == 0
    assert rank_of(_rows([0, 0])) == 0


_entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@given(
    st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(_entries, min_size=cols, max_size=cols), max_size=6)
    )
)
def test_rank_of_matches_rref(rows):
    assert rank_of(rows) == len(rref(rows)[0])


def test_rank_of_takes_integer_rows():
    assert rank_of([[2, 4, 6], [1, 2, 3], [0, 1, 1]]) == 2
    assert rank_of([[F(1, 3), F(1, 2)], [2, 3]]) == 1
