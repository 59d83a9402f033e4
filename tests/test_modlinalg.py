import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2rigid.errors import TooLarge
from g2rigid.finitegroups import adjoint_action, build_h56, conjugacy_classes
from g2rigid.modlinalg import (MAX_MODULUS, annihilator, charpoly_mod,
                               extend_basis, matmul_mod, nullspace_mod,
                               row_basis, singular_shifts, span_closure)

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
            if len(nullspace_mod((theta - a * eye) % p, p))]


def _shifts(theta, p):
    """The a of ``singular_shifts(theta, p)``, each checked to come with
    theta - a I mod p."""
    eye = np.eye(theta.shape[0], dtype=np.int64)
    out = []
    for a, shifted in singular_shifts(theta, p):
        assert shifted.tolist() == ((theta - a * eye) % p).tolist()
        out.append(a)
    return out


@pytest.mark.parametrize("p,d", [(7, 1), (11, 4), (29, 7), (13, 9), (2, 5),
                                 (3, 6)])
def test_singular_shifts_match_per_shift_nullspaces(p, d):
    rng = np.random.default_rng(p * d)
    for trial in range(4):
        theta = rng.integers(0, p, (d, d), dtype=np.int64)
        if trial == 0:  # a repeated eigenvalue and a non-split part
            theta[:, 0] = 0
        assert _shifts(theta, p) == _brute_singular(theta, p)


def _det_mod(a, p):
    """Determinant mod p by Gaussian elimination on Python integers."""
    a = [[int(x) % p for x in row] for row in a.tolist()]
    det = 1
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, len(a)):
            f = a[r][c] * inv % p
            a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def _check_charpoly(a, p):
    """chi = charpoly_mod(a, p) is monic of degree n, chi(a) = 0 (Cayley-
    Hamilton) and chi(x) = det(x I - a) at x = 0 and one more point."""
    n = a.shape[0]
    chi = charpoly_mod(a, p)
    assert chi.shape == (n + 1,) and chi[-1] == 1
    eye = np.eye(n, dtype=np.int64)
    at_a = np.zeros((n, n), dtype=np.int64)
    for c in chi[::-1].tolist():
        at_a = (matmul_mod(at_a, a, p) + c * eye) % p
    assert not at_a.any()
    for x in (0, p // 2 + 1):
        value = sum(c * pow(x, i, p) for i, c in enumerate(chi.tolist())) % p
        assert value == _det_mod((x * eye - a) % p, p)


@st.composite
def _square_mod(draw):
    """(p, a): an n x n matrix mod p, n in 1..12, its entries drawn near p
    to exercise the int64 products, or with a column of zeros or from a
    few values for repeated and missing eigenvalues."""
    p = draw(st.sampled_from([3, 29, 101, 2 ** 31 - 1]))
    n = draw(st.integers(1, 12))
    entry = draw(st.sampled_from([st.integers(max(0, p - 4), p - 1),
                                  st.integers(0, p - 1),
                                  st.integers(0, 1)]))
    a = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=n, max_size=n)), dtype=np.int64)
    if draw(st.booleans()):
        a[:, draw(st.integers(0, n - 1))] = 0
    return p, a


@settings(deadline=None, max_examples=60)
@given(_square_mod())
def test_charpoly_is_the_characteristic_polynomial(case):
    p, a = case
    _check_charpoly(a, p)
    if p < 2 ** 31 - 1:  # the brute force scans every shift
        assert _shifts(a, p) == _brute_singular(a, p)


def test_charpoly_of_an_h56_class_sum_combination():
    """The 49 x 49 operator the H56 decomposition splits the adjoint
    module with at 29: a combination of the class-sum operators."""
    p = 29
    group = build_h56(p)
    elements = group.materialize()
    ops = [sum(adjoint_action(elements[i], p) for i in cls) % p
           for cls in conjugacy_classes(group)]
    theta = sum(pow(2, i + 1, p) * op for i, op in enumerate(ops)) % p
    _check_charpoly(theta, p)
    assert _shifts(theta, p) == _brute_singular(theta, p)


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
    assert annihilator(sub, p).tolist() \
        == np.eye(5, dtype=np.int64)[:3].tolist()
    assert annihilator(np.eye(5, dtype=np.int64), p).shape == (0, 5)
