import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from g2rigid import finitegroups, modlinalg
from g2rigid.errors import (BadCharacteristic, BadResidue, NegativePower,
                            NotOrdinary, TooLarge, TooSmallPrime)
from g2rigid.finitegroups import (FiniteMatrixGroup, adjoint_action,
                                  adjoint_decomposition, bigness_check,
                                  build_h56, conjugacy_classes,
                                  fixed_space_dim, h1_dim, sym_power_rep)
from g2rigid.g2forms import generation_certificate, reduce_mod
from g2rigid.matrix import Matrix
from g2rigid.modlinalg import enveloping_dim, inv_mod, matmul_mod, rank_mod


@pytest.fixture(scope="module")
def h29():
    return build_h56(29)


def test_h_order_and_classes(h29):
    assert h29.order == 56
    classes = conjugacy_classes(h29)
    assert len(classes) == 8
    assert sorted(len(c) for c in classes) == [1, 7, 8, 8, 8, 8, 8, 8]


def test_h_class_equation(h29):
    classes = conjugacy_classes(h29)
    assert sum(len(c) for c in classes) == 56


def test_h_adjoint_decomposition(h29):
    rep = adjoint_decomposition(h29)
    assert rep.dimension == 49
    assert rep.pairs == ((1, 7), (7, 6))


def test_h_requires_seventh_roots():
    # the monomial model needs a primitive 7th root of unity mod ellprime
    with pytest.raises(BadResidue):
        build_h56(31)
    with pytest.raises(BadResidue):
        build_h56(7)


def test_materialize_refuses_a_group_past_the_order_bound(monkeypatch):
    monkeypatch.setattr(finitegroups, "ORDER_BOUND", 55)
    with pytest.raises(TooLarge, match="order bound 55"):
        build_h56(29).materialize()


def test_h_cohomology_vanishes(h29):
    assert fixed_space_dim(h29) == 0
    assert h1_dim(h29) == 0


def _h1_full_propagation(group):
    """dim H^1(G, trace-zero conjugation module), propagating the symbolic
    generator values over every edge of the right Cayley graph and taking
    the rank of all the consistency equations at the end."""
    p, gens, elements = group.p, group.generators, group.materialize()
    n2 = gens.shape[1] ** 2
    unknowns = len(gens) * n2
    index = {e.tobytes(): i for i, e in enumerate(elements)}
    acts = [adjoint_action(inv_mod(g, p), p) for g in gens]
    rows = [np.kron(np.eye(len(gens), dtype=np.int64),
                    np.eye(gens.shape[1], dtype=np.int64).reshape(1, -1))]
    expr = {0: np.zeros((n2, unknowns), dtype=np.int64)}
    queue = [0]
    for gi in queue:
        for si, g in enumerate(gens):
            hi = index[matmul_mod(elements[gi], g, p).tobytes()]
            cand = matmul_mod(acts[si], expr[gi], p)
            cand[:, si * n2:(si + 1) * n2] += np.eye(n2, dtype=np.int64)
            cand %= p
            if hi in expr:
                rows.append((expr[hi] - cand) % p)
            else:
                expr[hi] = cand
                queue.append(hi)
    z1 = unknowns - rank_mod(np.concatenate(rows), p)
    return z1 - ((n2 - 1) - fixed_space_dim(group))


def _upper_unitriangular_f3():
    gens = []
    for i, j in ((0, 1), (1, 2)):
        g = np.eye(3, dtype=np.int64)
        g[i, j] = 1
        gens.append(g)
    return FiniteMatrixGroup(3, gens)


def _s3_permutations_mod3():
    swap = np.eye(3, dtype=np.int64)[[1, 0, 2]]
    cycle = np.eye(3, dtype=np.int64)[[1, 2, 0]]
    return FiniteMatrixGroup(3, [swap, cycle])


@pytest.mark.parametrize("ellprime", [29, 43, 71])
def test_h56_h1_is_the_full_propagation(ellprime):
    """H^1 vanishes, so the propagation stops early; the answer is the one
    over the whole Cayley graph."""
    group = build_h56(ellprime)
    assert h1_dim(group) == _h1_full_propagation(group) == 0


@pytest.mark.parametrize("group, expected", [
    (FiniteMatrixGroup(5, [np.array([[1, 1], [0, 1]])]), 1),
    (_upper_unitriangular_f3(), 5),
    (_s3_permutations_mod3(), 1),
], ids=["unipotent-f5", "unitriangular-f3", "s3-mod3"])
def test_nonzero_h1_is_the_full_propagation(group, expected):
    """Where H^1 does not vanish the relations never reach the rank of
    B^1, so every edge is propagated; the answer is the reference one."""
    assert h1_dim(group) == _h1_full_propagation(group) == expected


def test_h_bigness_honest_failure(h29):
    """Adjoint H^0 and H^1 vanish and every 7-dimensional summand has an
    eigenspace witness, but the six summands on which the group acts by a
    nontrivial character admit none: every candidate element of order 7
    scales such a line by a nontrivial root of unity, so each corner
    functional vanishes there identically.  The verdict is Fails."""
    rep = bigness_check(h29)
    assert rep.h0_ad0_dim == 0
    assert rep.h1_ad0_dim == 0
    witnessed_dims = sorted(int(d) for _, d, _, _ in rep.witnesses)
    assert witnessed_dims.count(7) == 6
    assert rep.failures  # the character-line summands
    assert all("dimension 1" in f or "1-dimensional" in f
               for f in rep.failures if "no eigenspace witness" in f)
    assert rep.verdict == "Fails"


@pytest.mark.parametrize("ellprime", [29, 43])
def test_bigness_over_class_representatives_is_the_full_scan(ellprime):
    """Witnesses are sought over one element per conjugacy class; with
    every element its own class (the scan over all elements) the report
    is the same."""
    group = build_h56(ellprime)
    classes = conjugacy_classes(group)
    decomp = adjoint_decomposition(group, classes)
    full = bigness_check(group, decomposition=decomp,
                         classes=[[i] for i in range(group.order)])
    assert bigness_check(group, decomposition=decomp,
                         classes=classes).to_json() == full.to_json()


def test_scalar_group_bigness_trivial_case():
    group = FiniteMatrixGroup(29, [-np.eye(2, dtype=np.int64)])
    assert group.order == 2
    assert h1_dim(group) == 0
    # adjoint action is trivial, so H^0(ad^0) is the full trace-zero space
    assert fixed_space_dim(group) == 3


def test_sl2_sym6_adjoint_constituents():
    rep = sym_power_rep(17, 6)
    d = adjoint_decomposition(rep)
    assert d.dimension == 49
    assert d.pairs == ((1, 1), (3, 1), (5, 1), (7, 1), (9, 1), (11, 1),
                       (13, 1))


def test_sl2_sym2_adjoint_constituents():
    rep = sym_power_rep(11, 2)
    d = adjoint_decomposition(rep)
    assert d.dimension == 9
    assert d.pairs == ((1, 1), (3, 1), (5, 1))


def test_sl2_rejects_small_characteristic():
    with pytest.raises(TooSmallPrime):
        sym_power_rep(13, 6)  # needs ell > 2m + 1 headroom for splitting
    with pytest.raises(BadCharacteristic):
        sym_power_rep(4, 2)


def test_sl2_refuses_a_negative_power():
    with pytest.raises(NegativePower):
        sym_power_rep(17, -1)


def test_f_ell_certificates_run_without_the_q_backend(triple, monkeypatch):
    """From the reduction of the Q triple, and from the group generators,
    to the verdict, no F_ell certificate multiplies, inverts or
    row-reduces a ``Matrix``."""
    def refuse(*args):
        raise AssertionError("Matrix arithmetic on an F_ell path")

    for name in ("__mul__", "_echelon", "inverse"):
        monkeypatch.setattr(Matrix, name, refuse)
    assert generation_certificate(reduce_mod(triple, 7)).verdict == \
        "Generates"
    big = bigness_check(build_h56(29))
    assert (big.h0_ad0_dim, big.h1_ad0_dim) == (0, 0)
    assert adjoint_decomposition(sym_power_rep(17, 6)).pairs == (
        (1, 1), (3, 1), (5, 1), (7, 1), (9, 1), (11, 1), (13, 1))


def _count_calls(monkeypatch, name):
    """Record each call of ``finitegroups.<name>``, still made."""
    calls = []
    original = getattr(finitegroups, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(finitegroups, name, counted)
    return calls


@pytest.mark.parametrize("ell,m", [(17, 6), (23, 10), (11, 2)])
def test_irreducible_leaf_takes_two_spins_and_no_burnside_test(
        monkeypatch, ell, m):
    """Sym^m is absolutely irreducible for ell > m: the first kernel
    vector spins to the module, its kernel is a line, and the spin of a
    kernel vector of the transpose fills the dual, so Norton's test ends
    the search without Burnside's."""
    gens = list(sym_power_rep(ell, m).generators)
    spins = _count_calls(monkeypatch, "_spin")
    burnside = _count_calls(monkeypatch, "enveloping_dim")
    assert finitegroups._composition_dims(gens, ell) == [m + 1]
    assert (len(spins), len(burnside)) == (2, 0)


@pytest.mark.parametrize("p,c", [(3, 2), (5, 3), (7, 6)])
def test_module_irreducible_only_over_f_p_is_not_certified(p, c):
    """x^2 - c has no root mod p, so <[[0, c], [1, 0]]> is irreducible over
    F_p but splits over F_p^2: its endomorphisms are F_p^2.  Every word
    element is then a scalar or invertible, so no one-dimensional kernel
    reaches Norton's test, and Burnside's fallback refuses it."""
    with pytest.raises(NotOrdinary):
        finitegroups._composition_dims(
            [np.array([[0, c], [1, 0]], dtype=np.int64)], p)


@pytest.mark.parametrize("gens, failures", [
    ([np.diag([1, -1])],
     ["no eigenspace witness for summand 2 (dimension 1)",
      "no eigenspace witness for summand 3 (dimension 1)",
      "component 1: 2-dimensional stable subspace admits no witness for "
      "any of its submodules"]),
    ([np.diag([1, 2, 4])],
     ["no eigenspace witness for summand 1 (dimension 1)",
      "no eigenspace witness for summand 2 (dimension 1)",
      "no eigenspace witness for summand 4 (dimension 1)",
      "no eigenspace witness for summand 5 (dimension 1)",
      "component 0: 4-dimensional stable subspace admits no witness for "
      "any of its submodules",
      "no eigenspace witness for summand 7 (dimension 1)",
      "no eigenspace witness for summand 8 (dimension 1)",
      "component 1: 2-dimensional stable subspace admits no witness for "
      "any of its submodules"]),
], ids=["sign", "order-28"])
def test_uncovered_part_of_a_component_with_several_summands(gens,
                                                             failures):
    """Diagonal groups mod 29 split the adjoint module into components of
    several one-dimensional summands.  The corner functionals of the
    diagonal generator witness some of them; the uncovered part is the
    largest submodule on which all of them vanish: 4 of the 7 dimensions
    of component 0 in the order-28 case."""
    rep = bigness_check(FiniteMatrixGroup(29, gens))
    assert (rep.failures, rep.verdict) == (failures, "Fails")


def test_large_primes_give_the_small_prime_reports():
    """The module certificates at ell' = 100003 and ell = 10007 give the
    constituents, H^0/H^1, verdict and failure lines of ell' = 29 and
    ell = 17.  Eigenvalues cost O(p n) evaluations here, under a second
    for both; an elimination per shift, O(p n^3), took over two minutes
    at 100003 on a 2-CPU machine."""
    def hmodule(ellprime):
        group = build_h56(ellprime)
        classes = conjugacy_classes(group)
        decomp = adjoint_decomposition(group, classes)
        big = bigness_check(group, decomposition=decomp, classes=classes)
        return (decomp.pairs, big.h0_ad0_dim, big.h1_ad0_dim, big.verdict,
                big.failures)

    assert hmodule(100003) == hmodule(29)
    assert adjoint_decomposition(sym_power_rep(10007, 6)).pairs == \
        adjoint_decomposition(sym_power_rep(17, 6)).pairs


def _corner_functionals_by_definition(h, p):
    """(alpha, lam) from the generalized eigenspace ker (h - alpha)^n and
    its complement im (h - alpha)^n, for every alpha in F_p."""
    n = h.shape[0]
    out = []
    for alpha in range(p):
        b = (h - alpha * np.eye(n, dtype=np.int64)) % p
        power = np.eye(n, dtype=np.int64)
        for _ in range(n):
            power = matmul_mod(power, b, p)
        kernel = modlinalg.nullspace_mod(power, p)
        if len(kernel) != 1:
            continue
        t = np.concatenate([kernel[0].reshape(1, -1),
                            modlinalg.row_basis(power.T, p)], axis=0).T
        out.append((alpha, (np.outer(inv_mod(t, p)[0], t[:, 0])
                            .reshape(-1) % p).tolist()))
    return out


@st.composite
def _matrix_with_jordan_blocks(draw):
    """(p, h): h = q j q^-1 mod p, j upper bidiagonal with eigenvalues
    from a small set and ones or zeros above the diagonal, so simple
    eigenvalues, repeated semisimple ones and Jordan blocks all occur."""
    p = draw(st.sampled_from([3, 7, 29]))
    n = draw(st.integers(1, 6))
    j = np.diag(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    if n > 1:
        j += np.diag(draw(st.lists(st.integers(0, 1), min_size=n - 1,
                                   max_size=n - 1)), 1)
    q = np.array(draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n,
                                        max_size=n),
                               min_size=n, max_size=n)), dtype=np.int64)
    assume(rank_mod(q, p) == n)
    return p, matmul_mod(matmul_mod(q, j % p, p), inv_mod(q, p), p)


@settings(deadline=None, max_examples=60)
@given(_matrix_with_jordan_blocks())
def test_corner_functionals_match_their_definition(case):
    """The left/right eigenvector pair gives the corner functional of each
    one-dimensional generalized eigenspace, and skips an eigenvalue whose
    Jordan block is larger than one."""
    p, h = case
    got = [(alpha, lam.tolist())
           for alpha, lam in finitegroups._eigen_functionals(h, p)]
    assert got == _corner_functionals_by_definition(h, p)


def _count_pivots(monkeypatch):
    """Running total of the pivots of every ``modlinalg.rref_mod`` call."""
    total = [0]
    original = modlinalg.rref_mod

    def counted(rows, p):
        reduced, pivots = original(rows, p)
        total[0] += len(pivots)
        return reduced, pivots

    monkeypatch.setattr(modlinalg, "rref_mod", counted)
    return total


def test_module_certificates_stay_within_their_elimination_work(
        monkeypatch):
    """The H56 decomposition and bigness check at ell' = 29 and the Sym^6
    decomposition at ell = 17 eliminate no more pivots than the
    characteristic-polynomial eigenvalues, Norton's test, the eigenvector
    pairs of the corner functionals and the dual strengthening need (3693
    and 915 with per-shift eliminations, Burnside's test at every leaf,
    a matrix power and inverse per functional and a strengthening loop per
    candidate).  The counts are exact, so this guards the work without
    timing noise."""
    group = build_h56(29)
    classes = conjugacy_classes(group)
    pivots = _count_pivots(monkeypatch)
    decomp = adjoint_decomposition(group, classes)
    bigness_check(group, decomposition=decomp, classes=classes)
    assert pivots[0] <= 1915
    pivots[0] = 0
    adjoint_decomposition(sym_power_rep(17, 6))
    assert pivots[0] <= 551


@st.composite
def _block_triangular(draw):
    """(p, block sizes, two generators): block upper triangular mod p with
    random entries, each diagonal block generating its full matrix
    algebra, so the blocks are the composition factors."""
    p = draw(st.sampled_from([3, 11, 101]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    mats = [np.array(draw(st.lists(row, min_size=n, max_size=n)),
                     dtype=np.int64) for _ in range(2)]
    start = 0
    for size in sizes:
        stop = start + size
        for m in mats:
            m[stop:, start:stop] = 0
        assume(enveloping_dim([m[start:stop, start:stop] for m in mats], p)
               == size * size)
        start = stop
    return p, sizes, mats


@settings(deadline=None, max_examples=40)
@given(_block_triangular())
def test_composition_factors_of_a_block_triangular_module(case):
    p, sizes, mats = case
    assert sorted(finitegroups._composition_dims(mats, p)) == sorted(sizes)
