"""Dense exact matrices over a ring object from :mod:`g2rigid.rings`.

Covers the linear algebra the certificates need: product/inverse, rank and
nullspace by exact elimination (fraction-free on integers over Q), a
division-free characteristic polynomial (Berkowitz), and unipotent/Jordan
structure via rank sequences.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotAnEigenvalue
from .rings import QQ


class Matrix:
    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix data")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)]
                          for i in range(n)])

    @classmethod
    def zero(cls, ring, rows, cols):
        return cls(ring, [[ring.zero] * cols for _ in range(rows)])

    @classmethod
    def from_ints(cls, ring, data):
        return cls(ring, [[ring.from_int(x) for x in row] for row in data])

    @classmethod
    def scalar(cls, ring, n, c):
        m = cls.zero(ring, n, n)
        for i in range(n):
            m.data[i][i] = c
        return m

    @classmethod
    def block_diag(cls, ring, blocks):
        n = sum(b.rows for b in blocks)
        m = cls.zero(ring, n, n)
        off = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    m.data[off + i][off + j] = b.data[i][j]
            off += b.rows
        return m

    @classmethod
    def jordan_block(cls, ring, n, eigenvalue):
        m = cls.scalar(ring, n, eigenvalue)
        for i in range(n - 1):
            m.data[i][i + 1] = ring.one
        return m

    # -- basic algebra ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix) or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        R = self.ring
        return all(R.eq(a, b) for ra, rb in zip(self.data, other.data)
                   for a, b in zip(ra, rb))

    def __add__(self, other):
        R = self.ring
        return Matrix(R, [[R.add(a, b) for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        R = self.ring
        return Matrix(R, [[R.sub(a, b) for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)])

    def __neg__(self):
        R = self.ring
        return Matrix(R, [[R.neg(a) for a in row] for row in self.data])

    def __mul__(self, other):
        R = self.ring
        if not isinstance(other, Matrix):
            return Matrix(R, [[R.mul(a, other) for a in row] for row in self.data])
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        bt = list(zip(*other.data))
        out = []
        for row in self.data:
            out_row = []
            for col in bt:
                acc = R.zero
                for a, b in zip(row, col):
                    if not R.is_zero(a) and not R.is_zero(b):
                        acc = R.add(acc, R.mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix(R, out)

    def scale(self, c):
        R = self.ring
        return Matrix(R, [[R.mul(c, a) for a in row] for row in self.data])

    def transpose(self):
        return Matrix(self.ring, list(zip(*self.data)))

    def is_square(self):
        return self.rows == self.cols

    def is_identity(self):
        R = self.ring
        if not self.is_square():
            return False
        return all(R.eq(self.data[i][j], R.one if i == j else R.zero)
                   for i in range(self.rows) for j in range(self.cols))

    def is_zero_matrix(self):
        R = self.ring
        return all(R.is_zero(a) for row in self.data for a in row)

    # -- elimination --------------------------------------------------------

    def _echelon(self):
        """Row-reduce a copy; returns (reduced rows, pivot column list).

        Over Q this is the fraction-free elimination of ``_rref_rational``;
        other rings run their field operations.
        """
        R = self.ring
        if R is QQ:
            return _rref_rational(self.data, self.cols)
        m = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if not R.is_zero(m[i][c]):
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = R.inv(m[r][c])
            m[r] = [R.mul(inv, x) for x in m[r]]
            for i in range(self.rows):
                if i != r and not R.is_zero(m[i][c]):
                    f = m[i][c]
                    m[i] = [R.sub(x, R.mul(f, y)) for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rank(self):
        return len(self._echelon()[1])

    def nullspace(self):
        """Basis of the right kernel as a list of column vectors (lists)."""
        R = self.ring
        m, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [R.zero] * self.cols
            v[fc] = R.one
            for r, pc in enumerate(pivots):
                v[pc] = R.neg(m[r][fc])
            basis.append(v)
        return basis

    def inverse(self):
        R = self.ring
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = [list(row) + [R.one if i == j else R.zero for j in range(n)]
               for i, row in enumerate(self.data)]
        work = Matrix(R, aug)
        m, pivots = work._echelon()
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix(R, [row[n:] for row in m[:n]])

    def solve_right(self, rhs):
        """One solution of self * x = rhs (rhs a Matrix), or None."""
        R = self.ring
        aug = [list(row) + list(brow) for row, brow in zip(self.data, rhs.data)]
        m, pivots = Matrix(R, aug)._echelon()
        for r in range(len(pivots), self.rows):
            if any(not R.is_zero(x) for x in m[r][self.cols:]):
                return None
        sol = Matrix.zero(R, self.cols, rhs.cols)
        for r, pc in enumerate(pivots):
            if pc >= self.cols:
                return None
            for j in range(rhs.cols):
                sol.data[pc][j] = m[r][self.cols + j]
        return sol

    # -- characteristic polynomial ------------------------------------------

    def charpoly(self):
        """Monic characteristic polynomial det(T*I - M), little-endian coeffs.

        Berkowitz' division-free algorithm, so it works verbatim over Q and
        over any F_q without pivoting concerns.
        """
        if not self.is_square():
            raise ValueError("charpoly of non-square matrix")
        R = self.ring
        n = self.rows
        if n == 0:
            return (R.one,)
        A = self.data
        # vector of coefficients, highest degree first; start with 1x1 block
        C = [R.one, R.neg(A[0][0])]
        for i in range(1, n):
            # Toeplitz column for the leading (i+1)x(i+1) principal block
            a = A[i][i]
            row = A[i][:i]
            col = [A[r][i] for r in range(i)]
            Ablk = [r_[:i] for r_ in A[:i]]
            # s_j = row * Ablk^j * col for j = 0 .. i-1
            s = []
            v = col
            for _ in range(i):
                s.append(_dot(R, row, v))
                v = _matvec(R, Ablk, v)
            # Toeplitz vector: [1, -a, -s_0, -s_1, ...]
            T = [R.one, R.neg(a)] + [R.neg(x) for x in s]
            newC = [R.zero] * (len(C) + 1)
            for j, cj in enumerate(C):
                if R.is_zero(cj):
                    continue
                for k, tk in enumerate(T):
                    if j + k <= len(C):
                        newC[j + k] = R.add(newC[j + k], R.mul(cj, tk))
            C = newC
        C.reverse()
        return tuple(C)

    def charpoly_eval(self, value):
        """Evaluate charpoly at a ring element (Horner)."""
        R = self.ring
        acc = R.zero
        for c in reversed(self.charpoly()):
            acc = R.add(R.mul(acc, value), c)
        return acc

    def eval_poly(self, coeffs):
        """Evaluate a polynomial (little-endian) at this matrix."""
        R = self.ring
        n = self.rows
        acc = Matrix.zero(R, n, n)
        for c in reversed(coeffs):
            acc = acc * self + Matrix.scalar(R, n, c)
        return acc

    def det(self):
        R = self.ring
        cp = self.charpoly()
        d = cp[0]
        if self.rows % 2 == 1:
            d = R.neg(d)
        return d

    # -- Jordan structure ---------------------------------------------------

    def jordan_partition(self, eigenvalue):
        """Partition of Jordan block sizes of ``eigenvalue`` (decreasing)."""
        R = self.ring
        if not self.is_square():
            raise ValueError("jordan_partition of non-square matrix")
        if not R.is_zero(self.charpoly_eval(eigenvalue)):
            raise NotAnEigenvalue(f"{eigenvalue!r} is not an eigenvalue")
        return partition_from_ranks(self.rows, self.power_ranks(eigenvalue))

    def power_ranks(self, eigenvalue):
        """Ranks of (self - eigenvalue)^j for j = 1, 2, ... (endless)."""
        shift = self - Matrix.scalar(self.ring, self.rows, eigenvalue)
        power = shift
        while True:
            yield power.rank()
            power = power * shift

    def to_str_rows(self):
        R = self.ring
        return [[R.to_str(a) for a in row] for row in self.data]

    def __repr__(self):
        return f"Matrix({self.ring!r}, {self.to_str_rows()})"


def _rref_rational(data, cols):
    """Reduced row echelon form of rational rows, computed on integers.

    Each row is scaled by the lcm of its denominators, then reduced by
    fraction-free Gauss-Jordan elimination (Bareiss): with pivot p in
    column c and previous pivot d, every other row becomes
    (p * row - row[c] * pivot row) / d.  Each such state is d times the
    state of the elimination over Q, so every entry is an integer (a
    minor of the scaled matrix, up to sign) and the division is exact;
    each pivot row ends with the last pivot on its pivot, which is
    divided back out.  Returns (reduced rows as Fractions, pivot columns).
    """
    m = []
    for row in data:
        den = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    rows = len(m)
    pivots = []
    d = 1
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(rows):
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
        if r == rows:
            break
    zero = Fraction(0)
    reduced = [[Fraction(x, d) if x else zero for x in row] for row in m[:r]]
    reduced += [[zero] * cols for _ in range(rows - r)]
    return reduced, pivots


def _dot(R, u, v):
    acc = R.zero
    for a, b in zip(u, v):
        if not R.is_zero(a) and not R.is_zero(b):
            acc = R.add(acc, R.mul(a, b))
    return acc


def _matvec(R, M, v):
    return [_dot(R, row, v) for row in M]


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
    return Matrix.from_ints(QQ, data)


def columns_to_matrix(ring, vectors) -> Matrix:
    """Matrix whose columns are the given vectors."""
    if not vectors:
        return Matrix.zero(ring, 0, 0)
    n = len(vectors[0])
    return Matrix(ring, [[v[i] for v in vectors] for i in range(n)])
