"""Dickson trilinear / bilinear forms, invariance certificates, and the
mod-l generation certificate for the realized rank-7 triple.

Basis order throughout: (x0, x1, x2, x3, x1', x2', x3'), so the primed
coordinates sit at indices 4, 5, 6.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .convolution import RigidTuple, is_g2_profile, point_profile
from .errors import DenominatorClash, WrongRank
from .matrix import Matrix, partition_from_ranks, rational_matrix
from .modlinalg import enveloping_dim, matmul_mod, mod_array, np, rank_mod
from .rings import require_odd_prime

DIM = 7

# printed monomials of the cubic form, as index triples
_DICKSON_MONOMIALS = ((0, 1, 4), (0, 2, 5), (0, 3, 6), (1, 2, 3), (4, 5, 6))


def _perm_sign(a, b):
    """Sign of the permutation taking tuple a to tuple b (distinct entries)."""
    perm = [a.index(x) for x in b]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class TrilinearForm:
    """Alternating 7x7x7 coefficient tensor over Q.

    A wedge monomial x_i x_j x_k (i < j < k) stands for the alternating
    tensor with coefficient +1 at (i,j,k) and the sign of the permutation
    at the other orderings.
    """

    def __init__(self, entries, alternating=True):
        self.entries = dict(entries)  # (i,j,k) -> nonzero coefficient
        self.alternating = alternating
        if alternating and not self.is_alternating():
            raise ValueError("tensor marked alternating is not")

    def coeff(self, i, j, k):
        return self.entries.get((i, j, k), 0)

    def is_alternating(self):
        for (i, j, k), v in self.entries.items():
            if len({i, j, k}) < 3:
                return False
            for perm in itertools.permutations((i, j, k)):
                if self.entries.get(perm, 0) != _perm_sign((i, j, k), perm) * v:
                    return False
        return True

    def evaluate(self, u, v, w):
        return sum(c * u[i] * v[j] * w[k]
                   for (i, j, k), c in self.entries.items())

    def transform(self, M: Matrix) -> "TrilinearForm":
        """Pullback c(Mx, My, Mz), exact: the pullback by the numerators
        of M, divided by the cube of its denominator."""
        out = {}
        for (a, b, c), v in self.entries.items():
            row_a, row_b, row_c = M.num[a], M.num[b], M.num[c]
            for i in range(DIM):
                if not row_a[i]:
                    continue
                va = v * row_a[i]
                for j in range(DIM):
                    if not row_b[j]:
                        continue
                    vab = va * row_b[j]
                    for k in range(DIM):
                        if row_c[k]:
                            key = (i, j, k)
                            out[key] = out.get(key, 0) + vab * row_c[k]
        cube = M.den ** 3
        return TrilinearForm({k: Fraction(v, cube) for k, v in out.items()
                              if v}, alternating=False)

    def equals(self, other) -> bool:
        keys = set(self.entries) | set(other.entries)
        return all(self.coeff(*k) == other.coeff(*k) for k in keys)


class BilinearForm:
    """Symmetric 7x7 Gram matrix over Q."""

    def __init__(self, gram: Matrix):
        self.gram = gram
        if gram != gram.transpose():
            raise ValueError("bilinear form must be symmetric")

    def transform(self, M: Matrix) -> "BilinearForm":
        return BilinearForm(M.transpose() * self.gram * M)

    def equals(self, other) -> bool:
        return self.gram == other.gram


def dickson_form() -> TrilinearForm:
    """The Dickson trilinear form as an alternating tensor: each wedge
    monomial contributes +1 in its written order and the permutation sign
    on the other orderings."""
    return TrilinearForm({perm: _perm_sign(mono, perm)
                          for mono in _DICKSON_MONOMIALS
                          for perm in itertools.permutations(mono)})


def g2_bilinear() -> BilinearForm:
    """Gram matrix of -2 x0^2 + x1 x1' + x2 x2' + x3 x3'.

    The cross terms are read directly as Gram entries (coefficient 1 at
    both (i, i') positions); this normalization is the one invariant
    under the full stabilizer algebra of the trilinear form.
    """
    g = [[0] * DIM for _ in range(DIM)]
    g[0][0] = -2
    for i, j in ((1, 4), (2, 5), (3, 6)):
        g[i][j] = g[j][i] = 1
    return BilinearForm(Matrix(g))


def stabilizes(M: Matrix, forms) -> bool:
    """True iff M preserves both forms as exact tensor identities."""
    tri, bil = forms
    M.inverse()  # invertibility is part of the contract
    return tri.transform(M).equals(tri) and bil.transform(M).equals(bil)


# ---------------------------------------------------------------------------
# invariant-form spaces of a tuple

def _sym2_basis():
    return [(i, j) for i in range(DIM) for j in range(i, DIM)]


def _alt3_basis():
    return [(i, j, k) for i in range(DIM) for j in range(i + 1, DIM)
            for k in range(j + 1, DIM)]


def _permanent(A, rows, cols):
    """Permanent of the 2 x 2 submatrix of A on ``rows`` and ``cols``."""
    (a, b), (i, j) = rows, cols
    return A[a][i] * A[b][j] + A[b][i] * A[a][j]


def _determinant(A, rows, cols):
    """Determinant of the 3 x 3 submatrix of A on ``rows`` and ``cols``."""
    (a, b, c), (i, j, k) = rows, cols
    return (A[a][i] * (A[b][j] * A[c][k] - A[b][k] * A[c][j])
            - A[a][j] * (A[b][i] * A[c][k] - A[b][k] * A[c][i])
            + A[a][k] * (A[b][i] * A[c][j] - A[b][j] * A[c][i]))


def _invariance_system(mats, degree, dens):
    """Linear system whose kernel is the space of forms of the given degree
    fixed by every matrix A = N / d, N in ``mats`` and d in ``dens``.

    Unknowns are coefficients on the basis tensors T_c: e_k e_l^T + e_l
    e_k^T for c = (k, l) in degree 2, the alternating tensors of the
    monomials c = (i, j, k) in degree 3.  The block of A has at row r and
    column c the entry at index r of the pullback of T_c by A, minus that
    of T_c, times d^degree: f(N[c, r]) - d^degree f(I[c, r]), where f is
    the permanent (degree 2) or the determinant (degree 3) of the
    submatrix on rows c and columns r.  The matrices are nested lists of
    ints and so is the system, exact whatever the size of the entries.
    """
    if degree not in (2, 3):
        raise ValueError("degree must be 2 or 3")
    basis = _sym2_basis() if degree == 2 else _alt3_basis()
    f = _permanent if degree == 2 else _determinant
    ident = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    eye = [[f(ident, c, r) for c in basis] for r in basis]
    return [[f(N, c, r) - d ** degree * e for c, e in zip(basis, eye_row)]
            for N, d in zip(mats, dens) for r, eye_row in zip(basis, eye)]


def invariant_form_space(t: RigidTuple, degree: int):
    """Dimension and basis of tuple-invariant forms.

    Solves the linear system "tensor fixed by every A_i" inside the
    symmetric square (dimension 28) for degree 2, or the alternating cube
    (dimension 35) for degree 3, which is where the trilinear invariant
    of the rank-7 representation lives.  The system is written on the
    integer numerators of the A_i.
    """
    if t.n != DIM:
        raise WrongRank("invariant forms implemented for rank 7")
    system = _invariance_system([A.num for A in t.matrices], degree,
                                [A.den for A in t.matrices])
    null = Matrix(system).nullspace()
    forms = []
    if degree == 2:
        for v in null:
            # same basis tensors as the system: e_k e_l^T + e_l e_k^T
            S = [[0] * DIM for _ in range(DIM)]
            for coeff, (k, l) in zip(v, _sym2_basis()):
                S[k][l] += coeff
                S[l][k] += coeff
            forms.append(BilinearForm(rational_matrix(S)))
        return len(null), forms
    for v in null:
        entries = {}
        for coeff, mono in zip(v, _alt3_basis()):
            if coeff:
                for perm in itertools.permutations(mono):
                    entries[perm] = _perm_sign(mono, perm) * coeff
        forms.append(TrilinearForm(entries))
    return len(null), forms


def lie_stabilizer_dim(forms) -> int:
    """dim of the matrix Lie algebra annihilating both forms.

    Unknown X ranges over 7x7 matrices; the bilinear condition is
    b(Xu,v) + b(u,Xv) = 0 and the trilinear one is the three-slot
    derivation identity.  The pair may be given in either order.
    """
    tri, bil = forms
    if isinstance(tri, BilinearForm):
        tri, bil = bil, tri
    B = bil.gram.num  # the bilinear rows scaled by the Gram denominator
    rows = []
    # bilinear: sum_a B_{aj} X_{ai} + B_{ia} X_{aj} = 0
    for i in range(DIM):
        for j in range(i, DIM):
            row = [0] * (DIM * DIM)
            for a in range(DIM):
                row[a * DIM + i] += B[a][j]
                row[a * DIM + j] += B[i][a]
            rows.append(row)
    # trilinear: sum_a X_{ai} c_{ajk} + X_{aj} c_{iak} + X_{ak} c_{ija} = 0
    # (for an alternating tensor the strictly increasing triples suffice)
    for (i, j, k) in _alt3_basis():
        row = [0] * (DIM * DIM)
        for a in range(DIM):
            row[a * DIM + i] += tri.coeff(a, j, k)
            row[a * DIM + j] += tri.coeff(i, a, k)
            row[a * DIM + k] += tri.coeff(i, j, a)
        rows.append(row)
    return DIM * DIM - rational_matrix(rows).rank()


# ---------------------------------------------------------------------------
# reduction mod l and generation

@dataclass
class ReducedTuple:
    """A tuple over Q reduced mod ell: A_1, ..., A_r and A_inf (last) as
    an (r + 1, n, n) int64 stack with entries in [0, ell)."""

    ell: int
    points: np.ndarray


def reduce_mod(t: RigidTuple, ell: int) -> ReducedTuple:
    """Entrywise reduction of a tuple over Q, A_inf included, to F_ell
    (ell an odd prime below 2^31 that divides no denominator)."""
    require_odd_prime(ell)
    N = t.denominator()
    if N % ell == 0:
        raise DenominatorClash(f"{ell} divides the tuple denominator {N}")

    def red(m):
        inv = pow(m.den, -1, ell)
        return [[x * inv % ell for x in row] for row in m.num]

    return ReducedTuple(ell, mod_array([red(m) for m in t.all_points()], ell))


def _profile_mod(points, ell):
    """``local_profile`` of reduced points: the Jordan partitions of the
    eigenvalues 1 and -1 (labelled ell - 1) from the ranks of the powers
    of A - eps I."""
    n = points.shape[1]
    return tuple(
        point_profile(n, [(str(eps), partition_from_ranks(
            n, _power_ranks_mod(A, eps, ell))) for eps in (1, ell - 1)])
        for A in points)


def _power_ranks_mod(A, eps, ell):
    """Ranks mod ell of (A - eps I)^j for j = 1, 2, ... (endless)."""
    shift = (A - eps * np.eye(A.shape[0], dtype=np.int64)) % ell
    power = shift
    while True:
        yield rank_mod(power, ell)
        power = matmul_mod(power, shift, ell)


def _invariant_dim_mod(mats, degree, ell):
    """Dimension of the forms of the given degree fixed by ``mats`` mod ell."""
    system = _invariance_system([A.tolist() for A in mats], degree,
                                [1] * len(mats))
    return len(system[0]) - rank_mod(
        [[x % ell for x in row] for row in system], ell)


@dataclass
class GenerationReport:
    """Certificate data for mod-l generation of the target group."""

    ell: int
    profile: tuple
    ell_gt_5: bool
    product_ok: bool
    profile_ok: bool
    enveloping: int
    invariant_form_dims: tuple
    verdict: str
    reasons: list = field(default_factory=list)

    def to_json(self):
        return {
            "ell": str(self.ell),
            "profile": _profile_json(self.profile),
            "ell_gt_5": self.ell_gt_5,
            "product_ok": self.product_ok,
            "profile_ok": self.profile_ok,
            "enveloping_dim": str(self.enveloping),
            "invariant_form_dims": [str(d) for d in self.invariant_form_dims],
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }


def _profile_json(profile):
    return [[[ev, [str(x) for x in part]] for ev, part in point]
            for point in profile]


def generation_certificate(t: ReducedTuple) -> GenerationReport:
    """Feit--Fong--Thompson style certificate for a triple over F_ell.

    Generates iff ell > 5, the Jordan profile is (involution, [3,2,2]
    unipotent, [7] unipotent), the product relation holds, the enveloping
    algebra is all of 7x7 matrices, and invariant forms of degree 2 and 3
    exist mod ell.
    """
    if not isinstance(t, ReducedTuple):
        raise ValueError("generation certificate expects a tuple over F_ell")
    ell, points = t.ell, t.points
    n = points.shape[1]
    finite = points[:-1]
    reasons = []
    profile = _profile_mod(points, ell)
    ell_gt_5 = ell > 5
    if not ell_gt_5:
        reasons.append(f"criterion requires ell > 5, got {ell}")
    product = functools.reduce(lambda a, b: matmul_mod(a, b, ell), points)
    product_ok = np.array_equal(product, np.eye(n, dtype=np.int64))
    if not product_ok:
        reasons.append("product relation fails")
    profile_ok = is_g2_profile(profile)
    if not profile_ok:
        reasons.append("Jordan profile differs from the target triple")
    env = enveloping_dim(finite, ell)
    if env != 49:
        reasons.append(f"enveloping algebra has dimension {env}, not 49")
    d2, d3 = (_invariant_dim_mod(finite, degree, ell) if n == DIM else 0
              for degree in (2, 3))
    if d2 < 1:
        reasons.append("no invariant bilinear form mod ell")
    if d3 < 1:
        reasons.append("no invariant trilinear form mod ell")

    hard_fail = (not product_ok) or (not profile_ok) or env != 49 \
        or d2 < 1 or d3 < 1
    if hard_fail:
        verdict = "Fails"
    elif not ell_gt_5:
        verdict = "Inconclusive"
    else:
        verdict = "Generates"
    return GenerationReport(ell=ell, profile=profile, ell_gt_5=ell_gt_5,
                            product_ok=product_ok, profile_ok=profile_ok,
                            enveloping=env, invariant_form_dims=(d2, d3),
                            verdict=verdict, reasons=reasons)
