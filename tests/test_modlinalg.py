import numpy as np
import pytest

from g2rigid.errors import TooLarge
from g2rigid import modlinalg
from g2rigid.modlinalg import (MAX_MODULUS, annihilator, extend_basis,
                               matmul_mod, nullspace_mod, row_basis,
                               singular_shifts, span_closure)

P30 = 1073741789  # the largest prime below 2^30


def _python_product(a, b, p):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % p
             for col in zip(*b.tolist())] for row in a.tolist()]


def test_matmul_mod_exact_near_2_30():
    # (p - 1)^2 is about 2^60, so a 40-term inner sum overflows int64
    # unless it is reduced in chunks
    rng = np.random.default_rng(5)
    a = rng.integers(P30 - 1000, P30, (6, 40), dtype=np.int64)
    b = rng.integers(P30 - 1000, P30, (40, 5), dtype=np.int64)
    assert (a @ b % P30).tolist() != _python_product(a, b, P30)
    assert matmul_mod(a, b, P30).tolist() == _python_product(a, b, P30)
    # a matrix-vector product and a batched product take the same path
    assert matmul_mod(a, b[:, 0], P30).tolist() == \
        [row[0] for row in _python_product(a, b, P30)]
    stacked = matmul_mod(np.stack([a, a[::-1]]), b, P30)
    assert stacked[1].tolist() == _python_product(a[::-1], b, P30)


def test_matmul_mod_refuses_modulus_from_2_31():
    a = np.ones((2, 2), dtype=np.int64)
    assert matmul_mod(a, a, MAX_MODULUS - 1).tolist() == [[2, 2], [2, 2]]
    with pytest.raises(TooLarge):
        matmul_mod(a, a, 2147483659)


def _brute_singular(theta, p):
    eye = np.eye(theta.shape[0], dtype=np.int64)
    return [a for a in range(p)
            if nullspace_mod((theta - a * eye) % p, p)]


@pytest.mark.parametrize("p,d", [(7, 1), (11, 4), (29, 7), (13, 9)])
def test_singular_shifts_match_per_shift_nullspaces(monkeypatch, p, d):
    rng = np.random.default_rng(p * d)
    for trial in range(4):
        theta = rng.integers(0, p, (d, d), dtype=np.int64)
        if trial == 0:  # a repeated eigenvalue and a non-split part
            theta[:, 0] = 0
        assert list(singular_shifts(theta, p)) == _brute_singular(theta, p)
    # shifts tested in several small blocks give the same answer
    monkeypatch.setattr(modlinalg, "_SHIFT_BLOCK_ENTRIES", 2 * d * d)
    assert list(singular_shifts(theta, p)) == _brute_singular(theta, p)


def test_extend_basis_keeps_reduced_echelon_form():
    p = 11
    rng = np.random.default_rng(3)
    basis = np.zeros((0, 8), dtype=np.int64)
    rows = []
    for _ in range(5):
        block = rng.integers(0, p, (2, 8), dtype=np.int64)
        block[:, :2] = 0
        rows.append(block)
        basis, new = extend_basis(basis, block, p)
        joint = np.concatenate(rows)
        assert basis.tolist() == row_basis(joint, p).tolist()
        assert new.shape[0] <= block.shape[0]
    # nothing new once the rows are already spanned
    basis2, new = extend_basis(basis, rows[0], p)
    assert new.shape[0] == 0 and basis2.tolist() == basis.tolist()


def test_span_closure_and_annihilator():
    p = 7
    shift = np.roll(np.eye(5, dtype=np.int64), 1, axis=0)  # e_i -> e_{i+1}
    start = np.eye(5, dtype=np.int64)[:1]
    full = span_closure(start, lambda f: (f @ shift.T) % p, p)
    assert full.tolist() == np.eye(5, dtype=np.int64).tolist()
    # e_3 under the nilpotent shift e_i -> e_{i+1} (e_4 -> 0) spans e_3, e_4
    nil = shift.copy()
    nil[0, 4] = 0
    sub = span_closure(np.eye(5, dtype=np.int64)[3:4],
                       lambda f: (f @ nil.T) % p, p)
    assert sub.tolist() == np.eye(5, dtype=np.int64)[3:].tolist()
    assert annihilator(sub, p).tolist() == np.eye(5, dtype=np.int64)[:3].tolist()
    assert annihilator(np.eye(5, dtype=np.int64), p).shape == (0, 5)
