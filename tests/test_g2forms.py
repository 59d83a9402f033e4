import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2rigid.convolution import RigidTuple
from g2rigid.errors import DenominatorClash, InvalidCharacteristic
from g2rigid.g2forms import (_invariance_system, _invariant_dim_mod,
                             _triple_coeff, dickson_form, g2_bilinear,
                             generation_certificate, invariant_form_space,
                             lie_stabilizer_dim, reduce_mod, stabilizes)
from g2rigid.matrix import Matrix, rational_matrix
from g2rigid.modlinalg import enveloping_dim, inv_mod, matmul_mod


def test_triple_coeff_is_alternating():
    """The signed coefficient of a generic vector flips under each
    transposition of the slots, is 0 on a repeated index, and is the
    vector itself on the increasing triples."""
    tri = list(range(1, 36))
    for i, j, k in itertools.product(range(7), repeat=3):
        c = _triple_coeff(tri, i, j, k)
        if len({i, j, k}) < 3:
            assert c == 0
            continue
        assert c == -_triple_coeff(tri, j, i, k) \
            == -_triple_coeff(tri, i, k, j) == -_triple_coeff(tri, k, j, i)
    assert [_triple_coeff(tri, *c) for c in _basis(3)] == tri


def test_dickson_form_is_the_printed_monomials():
    """Supported exactly on x0 x1 x1', x0 x2 x2', x0 x3 x3', x1 x2 x3 and
    x1' x2' x3', each with coefficient 1."""
    support = {c: v for c, v in zip(_basis(3), dickson_form()) if v}
    assert support == {(0, 1, 4): 1, (0, 2, 5): 1, (0, 3, 6): 1,
                       (1, 2, 3): 1, (4, 5, 6): 1}


def test_dickson_pair_stabilizer_is_g2():
    assert lie_stabilizer_dim((dickson_form(), g2_bilinear())) == 14


def test_single_form_stabilizers():
    no_tri, no_bil = [0] * 35, [0] * 28
    assert lie_stabilizer_dim((dickson_form(), no_bil)) == 14
    assert lie_stabilizer_dim((no_tri, g2_bilinear())) == 21
    assert lie_stabilizer_dim((no_tri, no_bil)) == 49


def test_invariant_form_space_dims(triple):
    """Each solved form is fixed, by the test's own pullback, by A0, A1
    and by A_inf, which the solved system does not contain."""
    for degree in (2, 3):
        dim, forms = invariant_form_space(triple, degree)
        assert dim == 1
        for m in triple.matrices + [triple.a_infinity()]:
            system = _reference_system([m.num], degree, [m.den])
            assert all(sum(a * x for a, x in zip(row, forms[0])) == 0
                       for row in system)


def test_invariant_form_dims_of_the_identity_tuple():
    """The identity fixes every form: 28 symmetric, 35 alternating, over Q
    and mod ell alike (the degree-2 system subtracts the basis tensors
    themselves, 2 e_k e_k^T on the diagonal)."""
    ident = RigidTuple([Matrix.identity(7)] * 2)
    assert [invariant_form_space(ident, d)[0] for d in (2, 3)] == [28, 35]
    rep = generation_certificate(reduce_mod(ident, 7))
    assert rep.invariant_form_dims == (28, 35)


def _basis(degree):
    return list(itertools.combinations_with_replacement(range(7), 2)
                if degree == 2 else itertools.combinations(range(7), 3))


def _basis_tensor(c):
    """T_c as {index tuple: coefficient}: e_k e_l^T + e_l e_k^T for a pair
    (2 e_k e_k^T when k = l), the alternating tensor of a monomial for a
    triple."""
    tensor = {}
    for perm in itertools.permutations(range(len(c))):
        inversions = sum(perm[i] > perm[j] for i, j in
                         itertools.combinations(range(len(c)), 2))
        sign = 1 if len(c) == 2 else (-1) ** inversions
        key = tuple(c[s] for s in perm)
        tensor[key] = tensor.get(key, 0) + sign
    return tensor


def _reference_system(mats, degree, dens):
    """Row r of the block of N / d, column c: the pullback of T_c by N at
    index r, minus d^degree T_c at r, each pullback summed over the
    support of the tensor."""
    basis = _basis(degree)
    tensors = [_basis_tensor(c) for c in basis]
    rows = []
    for N, d in zip(mats, dens):
        for r in basis:
            row = []
            for tensor in tensors:
                pulled = 0
                for idx, v in tensor.items():
                    term = v
                    for a, i in zip(idx, r):
                        term *= N[a][i]
                    pulled += term
                row.append(pulled - d ** degree * tensor.get(r, 0))
            rows.append(row)
    return rows


def _rank_mod(rows, p):
    """Rank mod p by Gaussian elimination on Python ints."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _square(entries):
    return st.lists(st.lists(entries, min_size=7, max_size=7),
                    min_size=7, max_size=7)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(_square(st.integers(-10 ** 6, 10 ** 6)),
                          st.integers(1, 10 ** 3)), min_size=1, max_size=3),
       st.sampled_from([2, 3]))
def test_invariance_system_is_the_tensor_pullback(pairs, degree):
    mats = [N for N, _ in pairs]
    dens = [d for _, d in pairs]
    assert _invariance_system(mats, degree, dens) == \
        _reference_system(mats, degree, dens)


def _signed_permutation(perm, signs):
    m = [[0] * 7 for _ in range(7)]
    for i, (j, s) in enumerate(zip(perm, signs)):
        m[j][i] = s
    return m


@st.composite
def _matrices_mod(draw, ell):
    """One to three 7 x 7 matrices with entries in [0, ell): dense random
    ones, and signed permutations, which fix forms of both degrees."""
    signed = st.builds(_signed_permutation, st.permutations(range(7)),
                       st.lists(st.sampled_from([1, -1]), min_size=7,
                                max_size=7))
    mats = draw(st.lists(st.one_of(_square(st.integers(0, ell - 1)),
                                   signed), min_size=1, max_size=3))
    return [[[x % ell for x in row] for row in m] for m in mats]


@pytest.mark.parametrize("ell", [7, 101, 2147483647])
@pytest.mark.parametrize("degree", [2, 3])
@settings(deadline=None, max_examples=15)
@given(st.data())
def test_invariant_dim_mod_is_the_nullity_of_the_reference(ell, degree,
                                                           data):
    mats = data.draw(_matrices_mod(ell))
    system = _reference_system(mats, degree, [1] * len(mats))
    nullity = len(system[0]) - _rank_mod(system, ell)
    assert _invariant_dim_mod(np.array(mats, dtype=np.int64), degree,
                              ell) == nullity


def test_triple_stabilizer_is_g2(triple):
    d2, forms2 = invariant_form_space(triple, 2)
    d3, forms3 = invariant_form_space(triple, 3)
    assert lie_stabilizer_dim((forms3[0], forms2[0])) == 14


def test_enveloping_dim_full(triple):
    t7 = reduce_mod(triple, 7)
    assert enveloping_dim(t7.points[:-1], 7) == 49


def test_enveloping_dim_small_example():
    diag = np.array([[2, 0], [0, 3]])
    assert enveloping_dim([diag], 7) == 2  # commutative algebra of diagonals


def _unit(n, i, j):
    m = np.zeros((n, n), dtype=np.int64)
    m[i, j] = 1
    return m


@pytest.mark.parametrize("blocks,gens,dim", [
    # E12, E21 give the 2 x 2 block; E23 then gives E13, E23; E33 = I - E11
    # - E22.  Block upper triangular with blocks (2, 1): 4 + 2 + 1 = 7 < 9
    ((2, 1), [(0, 1), (1, 0), (1, 2)], 7),
    # blocks (2, 2): both diagonal blocks plus the upper-right block
    # (E13 times the matrix units of the blocks): 4 + 4 + 4 = 12 < 16
    ((2, 2), [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)], 12),
])
def test_enveloping_dim_block_upper_triangular(blocks, gens, dim):
    p = 11
    n = sum(blocks)
    mats = [_unit(n, i, j) for i, j in gens]
    assert enveloping_dim(mats, p) == dim
    # the dimension does not depend on the basis: conjugate by a fixed
    # invertible matrix with generic entries
    P = np.array([[(3 * i + 5 * j + i * j + 1) % 11 if i <= j
                   else (i + 2 * j) % 11 for j in range(n)]
                  for i in range(n)])
    Pi = inv_mod(P, p)
    assert enveloping_dim([matmul_mod(matmul_mod(P, m, p), Pi, p)
                           for m in mats], p) == dim


@pytest.mark.parametrize("ell", [7, 11, 13])
def test_generation_certificate_generates(triple, ell):
    rep = generation_certificate(reduce_mod(triple, ell))
    assert rep.verdict == "Generates"
    assert rep.enveloping == 49
    assert rep.invariant_form_dims == (1, 1)
    assert rep.reasons == []


def test_generation_certificate_inconclusive_at_5(triple):
    rep = generation_certificate(reduce_mod(triple, 5))
    assert rep.verdict == "Inconclusive"
    assert rep.ell_gt_5 is False


def test_reduce_mod_rejects_denominator_primes(triple):
    n = triple.denominator()
    bad = next(p for p in (2, 3, 5, 7, 11, 13) if n % p == 0) \
        if any(n % p == 0 for p in (2, 3, 5, 7, 11, 13)) else None
    if bad is None:
        pytest.skip("realized denominator is a unit at all small primes")
    if bad == 2:
        with pytest.raises((DenominatorClash, InvalidCharacteristic)):
            reduce_mod(triple, bad)
    else:
        with pytest.raises(DenominatorClash):
            reduce_mod(triple, bad)


def test_reduce_mod_2_rejected(triple):
    with pytest.raises(InvalidCharacteristic):
        reduce_mod(triple, 2)


def test_generation_certificate_requires_finite_field(triple):
    with pytest.raises(ValueError):
        generation_certificate(triple)


def test_stabilizes_the_triple_and_a_torus_element(triple):
    forms = [invariant_form_space(triple, d)[1][0] for d in (3, 2)]
    assert all(stabilizes(m, forms)
               for m in triple.matrices + [triple.a_infinity()])
    # diag(1, t1, t2, t3, 1/t1, 1/t2, 1/t3) with t1 t2 t3 = 1 lies in G2
    ts = [Fraction(2), Fraction(3), Fraction(1, 6)]
    torus = rational_matrix([[([1] + ts + [1 / t for t in ts])[i]
                              if i == j else 0 for j in range(7)]
                             for i in range(7)])
    assert stabilizes(torus, (dickson_form(), g2_bilinear()))


def test_stabilizes_detects_failure():
    bad = rational_matrix([[2 if i == j else 0 for j in range(7)]
                           for i in range(7)])
    assert not stabilizes(bad, (dickson_form(), g2_bilinear()))
