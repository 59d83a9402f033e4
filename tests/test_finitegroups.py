import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from g2rigid import finitegroups
from g2rigid.errors import (BadCharacteristic, BadResidue, NegativePower,
                            TooLarge, TooSmallPrime)
from g2rigid.finitegroups import (FiniteMatrixGroup, adjoint_decomposition,
                                  bigness_check, build_h56,
                                  conjugacy_classes, fixed_space_dim, h1_dim,
                                  sym_power_rep)
from g2rigid.g2forms import generation_certificate, reduce_mod
from g2rigid.matrix import Matrix
from g2rigid.modlinalg import enveloping_dim


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
def test_irreducible_leaf_takes_one_spin_and_one_burnside_test(
        monkeypatch, ell, m):
    """Sym^m is absolutely irreducible for ell > m: the first spin fills
    it, and the Burnside test then made ends the search."""
    gens = list(sym_power_rep(ell, m).generators)
    spins = _count_calls(monkeypatch, "_spin")
    burnside = _count_calls(monkeypatch, "enveloping_dim")
    assert finitegroups._composition_dims(gens, ell) == [m + 1]
    assert (len(spins), len(burnside)) == (1, 1)


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
