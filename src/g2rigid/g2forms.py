"""Dickson trilinear / bilinear forms, invariance certificates, and the
mod-l generation certificate for the realized rank-7 triple.

Basis order throughout: (x0, x1, x2, x3, x1', x2', x3'), so the primed
coordinates sit at indices 4, 5, 6.

A form is its coefficient vector on the basis tensors of
``_invariance_system``, the one pullback of a form by a matrix: 28
coefficients in degree 2, 35 in degree 3.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .convolution import (RigidTuple, is_g2_profile, point_profile,
                          profile_json)
from .errors import DenominatorClash, WrongRank
from .matrix import Matrix, partition_from_ranks, rational_matrix
from .modlinalg import enveloping_dim, matmul_mod, mod_array, np, rank_mod
from .rings import require_odd_prime

DIM = 7


def _sym2_basis():
    return [(i, j) for i in range(DIM) for j in range(i, DIM)]


def _alt3_basis():
    return [(i, j, k) for i in range(DIM) for j in range(i + 1, DIM)
            for k in range(j + 1, DIM)]


_ALT3_INDEX = {c: n for n, c in enumerate(_alt3_basis())}

# printed monomials of the cubic form, as index triples
_DICKSON_MONOMIALS = ((0, 1, 4), (0, 2, 5), (0, 3, 6), (1, 2, 3), (4, 5, 6))


def dickson_form():
    """The Dickson trilinear form: 1 on each printed wedge monomial."""
    return [int(c in _DICKSON_MONOMIALS) for c in _alt3_basis()]


def g2_bilinear():
    """-2 x0^2 + x1 x1' + x2 x2' + x3 x3', the Gram matrix with -2 at
    (0, 0) and 1 at both (i, i') positions.

    This normalization is the one invariant under the full stabilizer
    algebra of the trilinear form.
    """
    coeffs = {(0, 0): -1, (1, 4): 1, (2, 5): 1, (3, 6): 1}
    return [coeffs.get(c, 0) for c in _sym2_basis()]


def stabilizes(M: Matrix, forms) -> bool:
    """True iff M preserves every form: each coefficient vector lies in
    the kernel of M's invariance system."""
    M.inverse()  # invertibility is part of the contract
    return all(
        not sum(a * x for a, x in zip(row, v)) for v in forms
        for row in _invariance_system(
            [M.num], 2 if len(v) == len(_sym2_basis()) else 3, [M.den]))


# ---------------------------------------------------------------------------
# invariant-form spaces of a tuple

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

    Solves the linear system "form fixed by every A_i" inside the
    symmetric square (dimension 28) for degree 2, or the alternating cube
    (dimension 35) for degree 3, which is where the trilinear invariant
    of the rank-7 representation lives.  The system is written on the
    integer numerators of the A_i; the basis vectors are its kernel.
    """
    if t.n != DIM:
        raise WrongRank("invariant forms implemented for rank 7")
    system = _invariance_system([A.num for A in t.matrices], degree,
                                [A.den for A in t.matrices])
    null = Matrix(system).nullspace()
    return len(null), null


def _triple_coeff(tri, i, j, k):
    """Coefficient of the alternating tensor ``tri`` at (i, j, k): the
    sign of the Vandermonde product (0 on a repeated index) times the
    coefficient of the sorted monomial."""
    sign = (j - i) * (k - i) * (k - j)
    if not sign:
        return 0
    c = tri[_ALT3_INDEX[tuple(sorted((i, j, k)))]]
    return c if sign > 0 else -c


def lie_stabilizer_dim(forms) -> int:
    """dim of the matrix Lie algebra annihilating both forms.

    Unknown X ranges over 7x7 matrices; the bilinear condition is
    b(Xu,v) + b(u,Xv) = 0 and the trilinear one is the three-slot
    derivation identity.  The pair may be given in either order.
    """
    bil, tri = sorted(forms, key=len)
    B = [[0] * DIM for _ in range(DIM)]  # Gram matrix of bil
    for v, (k, l) in zip(bil, _sym2_basis()):
        B[k][l] += v
        B[l][k] += v
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
            row[a * DIM + i] += _triple_coeff(tri, a, j, k)
            row[a * DIM + j] += _triple_coeff(tri, i, a, k)
            row[a * DIM + k] += _triple_coeff(tri, i, j, a)
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
    if any(m.den % ell == 0 for m in t.all_points()):  # no factoring
        raise DenominatorClash(
            f"{ell} divides the tuple denominator {t.denominator()}")

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
            "profile": profile_json(self.profile),
            "ell_gt_5": self.ell_gt_5,
            "product_ok": self.product_ok,
            "profile_ok": self.profile_ok,
            "enveloping_dim": str(self.enveloping),
            "invariant_form_dims": [str(d) for d in self.invariant_form_dims],
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }


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
