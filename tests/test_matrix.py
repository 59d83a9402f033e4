from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from g2rigid.matrix import Matrix, NotAnEigenvalue, rational_matrix
from g2rigid.rings import PrimeField, QQ

F13 = PrimeField(13)


def _mat13(data):
    return Matrix.from_ints(F13, data)


sq3 = st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
               min_size=3, max_size=3)


@given(sq3, sq3)
def test_det_multiplicative_mod_13(a, b):
    A, B = _mat13(a), _mat13(b)
    assert (A * B).det() == F13.mul(A.det(), B.det())


@given(sq3)
def test_inverse_or_singular(a):
    A = _mat13(a)
    if A.det() == 0:
        assert A.rank() < 3
        return
    assert (A * A.inverse()).is_identity()


@given(sq3)
def test_charpoly_cayley_hamilton(a):
    A = _mat13(a)
    assert A.eval_poly(A.charpoly()).is_zero_matrix()


def test_charpoly_known_rational():
    A = rational_matrix([[2, 1], [0, 3]])
    # (x-2)(x-3) = x^2 - 5x + 6, low degree first
    assert A.charpoly() == (Fraction(6), Fraction(-5), Fraction(1))


def test_jordan_partition_of_jordan_blocks():
    J = Matrix.block_diag(QQ, [
        Matrix.jordan_block(QQ, 3, Fraction(1)),
        Matrix.jordan_block(QQ, 2, Fraction(1)),
        Matrix.jordan_block(QQ, 2, Fraction(1)),
    ])
    assert J.jordan_partition(Fraction(1)) == (3, 2, 2)
    with pytest.raises(NotAnEigenvalue):
        J.jordan_partition(Fraction(5))


def test_nullspace_dimension():
    A = rational_matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    ns = A.nullspace()
    assert len(ns) == 1
    v = ns[0]
    out = [sum(A.data[i][j] * v[j] for j in range(3)) for i in range(3)]
    assert all(x == 0 for x in out)


def test_solve_right():
    A = rational_matrix([[2, 0], [1, 3]])
    rhs = rational_matrix([[4], [11]])
    x = A.solve_right(rhs)
    assert (A * x) == rhs and x.data == [[Fraction(2)], [Fraction(3)]]


@given(sq3)
def test_rank_transpose_invariant(a):
    A = _mat13(a)
    assert A.rank() == A.transpose().rank()


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
        return (Matrix(QQ, draw(_rational_rows(rows, inner)))
                * Matrix(QQ, draw(_rational_rows(inner, cols))))
    return Matrix(QQ, draw(_rational_rows(rows, cols)))


@given(rational_matrices())
def test_rational_elimination_properties(A):
    reduced, pivots = A._echelon()
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
