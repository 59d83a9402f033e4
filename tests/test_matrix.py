import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from g2rigid.matrix import Matrix, partition_from_ranks, rational_matrix

sq3 = st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
               min_size=3, max_size=3)


def _det3(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


@given(sq3)
def test_inverse_or_singular(a):
    A = rational_matrix(a)
    if _det3(a) == 0:
        assert A.rank() < 3
        with pytest.raises(ZeroDivisionError):
            A.inverse()
        return
    assert (A * A.inverse()).is_identity()


@given(sq3)
def test_rank_transpose_invariant(a):
    A = rational_matrix(a)
    assert A.rank() == rational_matrix(list(zip(*a))).rank()


def test_jordan_partition_of_jordan_blocks():
    # Jordan blocks of sizes 3, 2, 2 for the eigenvalue 1
    J = Matrix([[int(i == j or (j == i + 1 and i not in (2, 4)))
                 for j in range(7)] for i in range(7)])
    assert partition_from_ranks(7, J.power_ranks(1)) == (3, 2, 2)
    assert partition_from_ranks(7, J.power_ranks(5)) == ()


def test_nullspace_dimension():
    A = rational_matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    ns = A.nullspace()
    assert len(ns) == 1
    v = ns[0]
    out = [sum(A.data[i][j] * v[j] for j in range(3)) for i in range(3)]
    assert all(x == 0 for x in out)


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


def _rational_rows(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def rational_matrices(draw):
    """Rational matrices up to 5 x 5, half of them products through an
    inner dimension below 4, so that rank deficiency is common."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        inner = draw(st.integers(1, 3))
        return (rational_matrix(draw(_rational_rows(rows, inner)))
                * rational_matrix(draw(_rational_rows(inner, cols))))
    return rational_matrix(draw(_rational_rows(rows, cols)))


@given(rational_matrices())
def test_rational_elimination_properties(A):
    m, pivots, d = A._echelon()
    reduced = [[Fraction(x, d) for x in row] for row in m]
    rank = len(pivots)
    assert A.rank() == rank
    # reduced echelon form: increasing pivots equal to 1, the only nonzero
    # entry of their column, nothing left of them, zero rows below the rank
    assert pivots == sorted(set(pivots))
    for r, pc in enumerate(pivots):
        assert reduced[r][pc] == 1
        assert all(reduced[i][pc] == 0 for i in range(A.rows) if i != r)
        assert all(x == 0 for x in reduced[r][:pc])
    assert all(x == 0 for row in reduced[rank:] for x in row)
    # same row space: row i of A is sum_r A[i][pivot_r] * reduced row r,
    # which with the shape above pins the unique reduced echelon form
    for row in A.data:
        assert row == [sum(row[pc] * reduced[r][j]
                           for r, pc in enumerate(pivots))
                       for j in range(A.cols)]
    null = A.nullspace()
    assert rank + len(null) == A.cols
    for v in null:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A.data)
    if A.is_square() and rank == A.rows:
        assert (A * A.inverse()).is_identity()
    elif A.is_square():
        with pytest.raises(ZeroDivisionError):
            A.inverse()


# a plain-Fraction reference for the integer representation

def _ref_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _ref_rref(a):
    """Gauss-Jordan on Fractions: (reduced rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _ref_inverse(a):
    n = len(a)
    m, pivots = _ref_rref([list(row) + [int(i == j) for j in range(n)]
                           for i, row in enumerate(a)])
    return [row[n:] for row in m] if pivots == list(range(n)) else None


@given(rational_matrices(), st.data())
def test_matrix_matches_fraction_reference(A, data):
    a = A.data
    # one common denominator in lowest terms, so == compares values
    assert A.den == math.lcm(*(x.denominator for row in a for x in row))
    assert rational_matrix(a) == A and rational_matrix(a).data == a
    b = data.draw(_rational_rows(A.cols, data.draw(st.integers(1, 4))))
    assert (A * rational_matrix(b)).data == _ref_product(a, b)
    reduced, pivots = _ref_rref(a)
    assert A.rank() == len(pivots)
    m, got_pivots, d = A._echelon()
    assert got_pivots == pivots
    assert [[Fraction(x, d) for x in row] for row in m] == reduced
    if A.is_square():
        inverse = _ref_inverse(a)
        if inverse is None:
            with pytest.raises(ZeroDivisionError):
                A.inverse()
        else:
            assert A.inverse().data == inverse


def test_matrix_scale_and_difference_keep_lowest_terms():
    A = rational_matrix([[Fraction(1, 2), Fraction(1, 3)], [0, 1]])
    assert A.den == 6
    assert A.scale(6) == Matrix([[3, 2], [0, 6]])
    assert (A - A).den == 1 and (A - A) == Matrix([[0, 0], [0, 0]])
    assert A.scale(Fraction(-3, 4)).data == [[Fraction(-3, 8),
                                              Fraction(-1, 4)],
                                             [0, Fraction(-3, 4)]]


def test_scalar_matrices_are_not_the_identity():
    """is_identity reads the denominator: c*I with c != 1 is not I."""
    assert Matrix([[1]]).is_identity()
    assert not Matrix([[1]], 2).is_identity()
    assert not Matrix([[2, 0], [0, 2]], 3).is_identity()
    assert not rational_matrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]) \
        .is_identity()
