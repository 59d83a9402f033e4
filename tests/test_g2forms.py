from fractions import Fraction

import numpy as np
import pytest

from g2rigid.convolution import RigidTuple
from g2rigid.errors import DenominatorClash, InvalidCharacteristic
from g2rigid.g2forms import (dickson_form, g2_bilinear, enveloping_dim,
                             generation_certificate, invariant_form_space,
                             lie_stabilizer_dim, reduce_mod, stabilizes)
from g2rigid.matrix import Matrix, rational_matrix
from g2rigid.modlinalg import inv_mod, matmul_mod


def test_dickson_form_is_alternating():
    tri = dickson_form()
    assert tri.is_alternating()
    e = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
    assert tri.evaluate(e[0], e[1], e[3]) == -tri.evaluate(e[1], e[0], e[3])
    assert tri.evaluate(e[0], e[0], e[3]) == 0


def test_dickson_pair_stabilizer_is_g2():
    assert lie_stabilizer_dim((dickson_form(), g2_bilinear())) == 14


def test_single_form_stabilizers():
    from g2rigid.g2forms import TrilinearForm
    from g2rigid.matrix import Matrix as M
    no_tri = TrilinearForm({})
    no_bil = g2_bilinear().__class__(M([[0] * 7 for _ in range(7)]))
    assert lie_stabilizer_dim((dickson_form(), no_bil)) == 14
    assert lie_stabilizer_dim((no_tri, g2_bilinear())) == 21
    assert lie_stabilizer_dim((no_tri, no_bil)) == 49


def test_invariant_form_space_dims(triple):
    d2, forms2 = invariant_form_space(triple, 2)
    d3, forms3 = invariant_form_space(triple, 3)
    assert (d2, d3) == (1, 1)
    for m in triple.matrices + [triple.a_infinity()]:
        assert stabilizes(m, (forms3[0], forms2[0]))


def test_invariant_form_dims_of_the_identity_tuple():
    """The identity fixes every form: 28 symmetric, 35 alternating, over Q
    and mod ell alike (the degree-2 system subtracts the basis tensors
    themselves, 2 e_k e_k^T on the diagonal)."""
    ident = RigidTuple([Matrix.identity(7)] * 2)
    assert [invariant_form_space(ident, d)[0] for d in (2, 3)] == [28, 35]
    rep = generation_certificate(reduce_mod(ident, 7))
    assert rep.invariant_form_dims == (28, 35)


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


def test_stabilizes_detects_failure():
    bad = rational_matrix([[2 if i == j else 0 for j in range(7)]
                           for i in range(7)])
    assert not stabilizes(bad, (dickson_form(), g2_bilinear()))
