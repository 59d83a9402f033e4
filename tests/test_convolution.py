from fractions import Fraction

import pytest

import g2rigid
from g2rigid import cli, convolution
from g2rigid.convolution import (_POINT_PERMS, G2_RECIPE_LINES, Recipe,
                                 RigidTuple,
                                 _permute_profile, centralizer_dim,
                                 g2_recipe, g2_triple, jordan_centralizer_dim,
                                 local_profile, matches_g2_profile,
                                 middle_convolution, realize,
                                 rigidity_index, rotate_points,
                                 scalar_twist, search_g2_recipe, seed_tuple,
                                 swap_points)
from g2rigid.errors import (DegenerateInput, InvalidLambda, InvalidScalar,
                            RecipeFormatError)
from g2rigid.matrix import rational_matrix


def test_recipe_roundtrip():
    r = g2_recipe()
    assert tuple(r.to_lines()) == G2_RECIPE_LINES
    assert Recipe.from_lines(r.to_lines()) == r


@pytest.mark.parametrize("lines", [
    [],
    ["mc -1"],
    ["seed -1"],
    ["seed -1 -1", "mc"],
    ["seed -1 -1", "frobnicate 3"],
])
def test_recipe_bad_lines(lines):
    with pytest.raises(RecipeFormatError):
        Recipe.from_lines(lines)


@pytest.mark.parametrize("lines", [
    ["seed 1/2 1/2", "mc -1"],
    ["seed -1 -1", "twist -1/2 -1/2", "mc -1"],
])
def test_scalar_points_other_than_one_convolve(lines):
    """A tuple of points c*I with c != 1 is not all-identity, so MC_{-1}
    applies; both recipes give the same rank-2 rigid tuple."""
    t = realize(Recipe.from_lines(lines))
    half = Fraction(1, 2)
    assert [m.data for m in t.all_points()] == [
        [[-half, half], [0, 1]], [[1, 0], [-half, -half]],
        [[-2, 1], [2, -3]]]
    assert rigidity_index(t) == 2


def test_triple_product_is_identity(triple):
    assert triple.product_relation_holds()
    prod = triple.matrices[0] * triple.matrices[1] * triple.a_infinity()
    assert prod.is_identity()


def test_triple_rank_and_rigidity(triple):
    assert triple.n == 7
    assert rigidity_index(triple) == 2


def test_triple_jordan_profile(triple):
    involution, unipotent, regular = local_profile(triple)
    # involution eigenvalue multiplicities: four -1s, three +1s
    assert involution == (("-1", (1, 1, 1, 1)), ("1", (1, 1, 1)))
    assert unipotent == (("1", (3, 2, 2)),)
    assert regular == (("1", (7,)),)
    assert matches_g2_profile(triple)


def test_denominator_has_no_large_primes(triple):
    n = triple.denominator()
    assert n >= 1
    for ell in (7, 11, 13, 101):
        assert n % ell != 0


def test_middle_convolution_rank_identity_on_seed():
    t = seed_tuple((Fraction(-1), Fraction(-1)))
    u = middle_convolution(t, Fraction(-1))
    assert u.n == 2
    assert u.product_relation_holds()
    assert rigidity_index(u) == 2


def test_seed_rejects_a_zero_scalar():
    for seed in ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))):
        with pytest.raises(InvalidScalar):
            seed_tuple(seed)


def test_middle_convolution_rejects_lambda_one():
    t = seed_tuple((Fraction(-1), Fraction(-1)))
    with pytest.raises(InvalidLambda):
        middle_convolution(t, Fraction(1))
    with pytest.raises(InvalidLambda):
        middle_convolution(t, Fraction(0))


def test_recipe_prefixes_stay_rigid():
    """Every prefix of the pinned recipe realizes a rigid tuple."""
    lines = list(G2_RECIPE_LINES)
    ranks = []
    for i in range(1, len(lines) + 1):
        t = realize(Recipe.from_lines(lines[:i]))
        ranks.append(t.n)
        assert t.product_relation_holds()
        if t.n > 1:
            assert rigidity_index(t) == 2
    assert ranks[0] == 1 and ranks[-1] == 7
    assert ranks == sorted(ranks)  # middle convolution never loses rank here


def test_relabelings_preserve_invariants(triple):
    for f in (rotate_points, swap_points):
        u = f(triple)
        assert u.product_relation_holds()
        assert rigidity_index(u) == 2
        assert sorted(local_profile(u)) == sorted(local_profile(triple))


def test_rotate_order_three_swap_order_two(triple):
    t3 = rotate_points(rotate_points(rotate_points(triple)))
    assert local_profile(t3) == local_profile(triple)
    t2 = swap_points(swap_points(triple))
    assert local_profile(t2) == local_profile(triple)


def test_scalar_twist_changes_determinants(triple):
    u = scalar_twist(triple, [Fraction(-1), Fraction(1)])
    assert u.matrices[0] == triple.matrices[0].scale(-1)
    assert u.matrices[1] == triple.matrices[1]


def test_degenerate_rigid_tuple_rejected():
    m = rational_matrix([[1, 0], [0, 1]])
    with pytest.raises(DegenerateInput):
        middle_convolution(RigidTuple([m, m]), Fraction(-1))


def test_realize_is_deterministic(triple):
    again = realize(g2_recipe())
    assert [m.data for m in again.matrices] == \
        [m.data for m in triple.matrices]


def _recipe_prefixes():
    lines = list(G2_RECIPE_LINES)
    return [realize(Recipe.from_lines(lines[:i]))
            for i in range(1, len(lines) + 1)]


def _relabel(t, perm):
    for kind, _ in perm:
        t = rotate_points(t) if kind == "rotate" else swap_points(t)
    return t


def test_relabeling_permutes_point_profiles():
    """The search tests a relabeled tuple by permuting its profile."""
    for t in _recipe_prefixes():
        profile = local_profile(t)
        for perm in _POINT_PERMS:
            assert local_profile(_relabel(t, perm)) == \
                _permute_profile(profile, perm)


def test_jordan_centralizer_dim_matches_linear_system():
    for t in _recipe_prefixes():
        for u in (t, rotate_points(t), swap_points(t)):
            for m, point in zip(u.all_points(), local_profile(u)):
                assert jordan_centralizer_dim(point) == centralizer_dim(m)


@pytest.mark.parametrize("lines", [
    ["seed -1 -1", "twist 2 1"],
    ["seed -1 -1", "twist 2 1", "mc -1"],
    ["seed -1 -1", "mc -1", "twist -1 3", "mc 1/2"],
])
def test_rigidity_index_falls_back_off_plus_minus_one(lines, monkeypatch):
    """Points with eigenvalues besides +-1 take the linear system."""
    t = realize(Recipe.from_lines(lines))
    profile = local_profile(t)
    others = sum(jordan_centralizer_dim(point) is None for point in profile)
    assert others > 0
    want = (2 - len(profile)) * t.n ** 2 + sum(
        centralizer_dim(m) for m in t.all_points())
    calls = []
    monkeypatch.setattr(convolution, "centralizer_dim",
                        lambda m: calls.append(m) or centralizer_dim(m))
    assert rigidity_index(t) == want == 2
    assert len(calls) == others


def test_search_propagates_an_assertion_error(monkeypatch):
    """An AssertionError in a middle convolution is a lost invariant, not
    a dead end of the search."""
    def lose_an_invariant(t, lam):
        raise AssertionError("product relation lost in middle convolution")

    monkeypatch.setattr(convolution, "middle_convolution", lose_an_invariant)
    with pytest.raises(AssertionError, match="product relation lost"):
        search_g2_recipe()


def test_pinned_recipe_lines_have_one_definition():
    """The package defines the pinned lines, so that the command line
    keys its records without executing ``convolution``."""
    assert g2rigid.G2_RECIPE_LINES is convolution.G2_RECIPE_LINES


def test_search_rediscovers_pinned_recipe():
    assert tuple(search_g2_recipe().to_lines()) == G2_RECIPE_LINES


@pytest.mark.parametrize("build", [
    lambda: cli._compute_triple_record(g2_recipe()),
    g2_triple,
], ids=["triple-record", "g2_triple"])
def test_each_replayed_tuple_gets_one_profile(build, monkeypatch):
    """One profile per replay step: the rigidity guard's profile of the
    final tuple is the one the profile check reads."""
    calls = []
    original = convolution.point_profile
    monkeypatch.setattr(convolution, "point_profile",
                        lambda *a: calls.append(a) or original(*a))
    build()
    assert len(calls) == 3 * len(g2_recipe().steps)
