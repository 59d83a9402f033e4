"""Dense exact matrices over Q.

A matrix is an integer numerator matrix and one positive common
denominator, kept in lowest terms.  Products are integer dot products;
rank, nullspace and inverse come from one fraction-free (Bareiss)
Gauss-Jordan elimination on the numerators, and Jordan partitions from
the ranks of the powers of A - eigenvalue.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class Matrix:
    """The matrix num / den: ``num`` a list of integer rows, ``den`` a
    positive integer; both are divided by their common gcd."""

    __slots__ = ("num", "den", "rows", "cols")

    def __init__(self, num, den=1):
        self.num = [list(row) for row in num]
        self.rows = len(self.num)
        self.cols = len(self.num[0]) if self.num else 0
        for row in self.num:
            if len(row) != self.cols:
                raise ValueError("ragged matrix data")
        if den != 1:
            g = math.gcd(den, *(x for row in self.num for x in row))
            if g > 1:
                self.num = [[x // g for x in row] for row in self.num]
                den //= g
        self.den = den

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def data(self):
        """The entries as rows of Fractions."""
        return [[Fraction(x, self.den) for x in row] for row in self.num]

    # -- basic algebra ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.den == other.den
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.num == other.num)

    def __sub__(self, other):
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Matrix([[a * x - b * y for x, y in zip(ra, rb)]
                       for ra, rb in zip(self.num, other.num)], den)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = list(zip(*other.num))
        return Matrix([[sum(map(operator.mul, row, col)) for col in cols]
                       for row in self.num], self.den * other.den)

    def scale(self, c):
        """c times the matrix, for a rational c."""
        c = Fraction(c)
        return Matrix([[c.numerator * x for x in row] for row in self.num],
                      self.den * c.denominator)

    def is_square(self):
        return self.rows == self.cols

    def is_identity(self):
        return self.is_square() and self == Matrix.identity(self.rows)

    # -- elimination --------------------------------------------------------

    def _echelon(self):
        """Reduced row echelon form of the numerators (the same as that of
        the matrix): (integer rows m, pivot columns, d), the form being m / d.
        """
        return _rref(self.num, self.cols)

    def rank(self):
        return len(self._echelon()[1])

    def nullspace(self):
        """Basis of the right kernel as a list of column vectors (lists of
        Fractions), one per free column, with a 1 in that column."""
        m, pivots, d = self._echelon()
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivot_set:
                continue
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = Fraction(-m[r][fc], d)
            basis.append(v)
        return basis

    def inverse(self):
        """The inverse, from the reduced form of [num | den I]."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = Matrix([row + [self.den * (i == j) for j in range(n)]
                      for i, row in enumerate(self.num)])
        m, pivots, d = aug._echelon()
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix([row[n:] for row in m], d)

    def power_ranks(self, eigenvalue):
        """Ranks of (self - eigenvalue)^j for j = 1, 2, ... (endless)."""
        ev = Fraction(eigenvalue)
        # the integer matrix ev.den * den * (self - ev) has the same ranks
        shift = Matrix([[ev.denominator * x
                         - ev.numerator * self.den * (i == j)
                         for j, x in enumerate(row)]
                        for i, row in enumerate(self.num)])
        power = shift
        while True:
            yield power.rank()
            power = power * shift

    def to_str_rows(self):
        return [[str(x) for x in row] for row in self.data]

    def __repr__(self):
        return f"Matrix({self.to_str_rows()})"


def _rref(rows, cols):
    """Reduced row echelon form of integer rows, computed on integers.

    Fraction-free Gauss-Jordan elimination (Bareiss): with pivot p in
    column c and previous pivot d, every other row becomes
    (p * row - row[c] * pivot row) / d.  Each such state is d times the
    state of the elimination over Q, so every entry is an integer (a
    minor of the matrix, up to sign) and the division is exact; each
    pivot row ends with the last pivot on its pivot.  Returns (rows m,
    pivot columns, d) with m / d the reduced form over Q; the rows below
    the rank are zero.
    """
    m = [list(row) for row in rows]
    n = len(m)
    pivots = []
    d = 1
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, n) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(n):
            f = m[i][c]
            if i == r or (f == 0 and p == d):
                continue
            if f:
                m[i] = [(p * x - f * y) // d for x, y in zip(m[i], prow)]
            else:
                m[i] = [p * x // d for x in m[i]]
        d = p
        pivots.append(c)
        r += 1
        if r == n:
            break
    if d < 0:
        m, d = [[-x for x in row] for row in m], -d
    return m, pivots, d


def partition_from_ranks(n, ranks):
    """Jordan block sizes (decreasing) of one eigenvalue of an n x n matrix.

    ``ranks`` yields r_j, the rank of (matrix - eigenvalue)^j, for j = 1,
    2, ...; it is read until two consecutive ranks agree (r_0 = n).  There
    are r_{j-1} - 2 r_j + r_{j+1} blocks of size j, none when the value is
    no eigenvalue.
    """
    r = [n]
    for rank in ranks:
        r.append(rank)
        if rank == r[-2]:
            break
    r += [r[-1]] * (n + 2 - len(r))
    parts = []
    for j in range(1, n + 1):
        parts.extend([j] * (r[j - 1] - 2 * r[j] + r[j + 1]))
    return tuple(sorted(parts, reverse=True))


def rational_matrix(data) -> Matrix:
    """Matrix of rows of rationals (ints or Fractions)."""
    den = math.lcm(*(x.denominator for row in data for x in row))
    return Matrix([[x.numerator * (den // x.denominator) for x in row]
                   for row in data], den)
