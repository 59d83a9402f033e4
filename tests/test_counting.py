import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from g2rigid import counting
from g2rigid.counting import (_chi_table, count_naive, count_transfer,
                              fiber_factors, quad_char, series_term)
from g2rigid.errors import NotInBase, TooLarge
from g2rigid.rings import ext_field

F3 = ext_field(3, 1)
F5 = ext_field(5, 1)


def _brute(field_, s, variant="consecutive"):
    """Independent oracle: evaluate the factored fiber polynomial pointwise."""
    ff = fiber_factors(s, ring=field_, variant=variant)
    nz = 0
    tchi = 0
    for point in itertools.product(field_.elements(), repeat=6):
        v = ff.value_at(field_, list(point))
        c = quad_char(field_, v)
        if c:
            nz += 1
        tchi += c
    return nz, tchi


def test_f3_worked_example():
    # spot value frozen from the independent pointwise oracle
    assert _brute(F3, F3.from_int(2)) == (5, -1)


@pytest.mark.parametrize("field_,svals", [
    (F3, [2]),
    (F5, [2, 3, 4]),
])
def test_naive_matches_brute(field_, svals):
    for s in svals:
        se = field_.from_int(s)
        assert count_naive(field_, se) == _brute(field_, se)


@pytest.mark.parametrize("field_,svals", [
    (F3, [2]),
    (F5, [2, 3, 4]),
    (ext_field(7, 1), [3]),
    (ext_field(11, 1), [3]),
])
def test_transfer_matches_naive(field_, svals):
    for s in svals:
        se = field_.from_int(s)
        _, tchi = count_naive(field_, se)
        assert count_transfer(field_, se) == tchi


def test_transfer_matches_naive_extensions():
    F9 = ext_field(3, 2)
    s9 = F9.from_int(2)
    _, t9 = count_naive(F9, s9)
    assert count_transfer(F9, s9) == t9 == 277

    F25 = ext_field(5, 2)
    s25 = F25.from_int(2)
    assert count_transfer(F25, s25) == -5051


@pytest.mark.parametrize("field_", [ext_field(3, 1)]
                         + [ext_field(3, k) for k in range(2, 7)]
                         + [ext_field(5, 3), ext_field(7, 2)])
def test_chi_table_matches_quad_char(field_):
    expected = [quad_char(field_, x) for x in field_.elements()]
    assert _chi_table(field_).tolist() == expected


@pytest.mark.parametrize("field_", [ext_field(3, 7), ext_field(5, 4),
                                    ext_field(7, 3)])
def test_blocked_chi_table_matches_quad_char(monkeypatch, field_):
    """Squared about 100 elements at a time, with a last partial block,
    the table is still Euler's criterion."""
    monkeypatch.setattr(counting, "_CHI_BLOCK", 100)
    expected = [quad_char(field_, x) for x in field_.elements()]
    assert _chi_table(field_).tolist() == expected


@pytest.mark.parametrize("field_,s,variant,trivial", [
    (ext_field(3, 2), 2, "consecutive", False),
    (ext_field(3, 5), 2, "consecutive", False),
    (ext_field(5, 3), 3, "consecutive", False),
    (ext_field(7, 2), 4, "cyclic", False),
    (ext_field(3, 4), 2, "consecutive", True),
    (ext_field(11, 1), 3, "cyclic", True),
])
def test_transfer_on_two_workers_is_the_one_worker_transfer(monkeypatch,
                                                            field_, s,
                                                            variant, trivial):
    monkeypatch.setattr(counting, "_POOL_MIN_SIZE", 1)  # pool on small fields
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)  # one core each
    one, two = (count_transfer(field_, s, variant=variant,
                               trivial_character=trivial, workers=w)
                for w in (1, 2))
    assert one == two


@pytest.mark.parametrize("cpus, k, workers, admitted", [
    (2, 9, 4, 2), (1, 9, 4, 1), (None, 9, 4, 1), (8, 9, 4, 4), (8, 9, 2, 2),
    (8, 15, 4, 1),  # the memory model admits one worker at k = 15
])
def test_transfer_workers_never_exceed_the_cpus(monkeypatch, cpus, k,
                                                workers, admitted):
    """More threads than cores run a term slower, so the workers are
    capped at the CPUs (one when the count is unknown) as well as by the
    memory model."""
    monkeypatch.setattr(counting.os, "cpu_count", lambda: cpus)
    assert counting.transfer_workers(3, k, workers) == admitted


def test_cyclic_variant_consistent():
    s = F5.from_int(3)
    n_nz, n_chi = count_naive(F5, s, variant="cyclic")
    assert count_transfer(F5, s, variant="cyclic") == n_chi
    assert _brute(F5, s, variant="cyclic") == (n_nz, n_chi)
    for q in (7, 11):
        F = ext_field(q, 1)
        _, tchi = count_naive(F, F.from_int(3), variant="cyclic")
        assert count_transfer(F, F.from_int(3), variant="cyclic") == tchi


def test_trivial_character_counts_nonzero_fibers():
    s = F5.from_int(2)
    n_nz, _ = count_naive(F5, s)
    t_triv = count_transfer(F5, s, trivial_character=True)
    # with chi replaced by the trivial character the sum counts points
    # where every factor is nonzero
    assert t_triv == count_naive(F5, s, trivial_character=True)[1]
    assert t_triv <= 5 ** 6


def test_chi_plus_trivial_double_counts_squares():
    # N_square-fibers relation: (triv + chi)/2 counts points with f_s a
    # nonzero square
    s = F3.from_int(2)
    _, tchi = count_naive(F3, s)
    ttriv = count_naive(F3, s, trivial_character=True)[1]
    assert (ttriv + tchi) % 2 == 0
    ff = fiber_factors(s, ring=F3)
    squares = sum(
        1 for point in itertools.product(F3.elements(), repeat=6)
        if quad_char(F3, ff.value_at(F3, list(point))) == 1)
    assert (ttriv + tchi) // 2 == squares


def test_modulus_independence():
    # p = 5 and 7 use other NTT primes than p = 3
    for q, k in ((3, 3), (5, 3), (7, 2)):
        t0, _ = series_term(q, 2, k)
        t1, _ = series_term(q, 2, k, modulus_skip=1)
        assert t0 == t1


def test_series_term_k9_under_two_moduli():
    # a second field presentation checks the value independently
    t0, crossed = series_term(3, 2, 9)
    t1, _ = series_term(3, 2, 9, modulus_skip=1)
    assert t0 == t1 == 28478369915423 and not crossed


def test_series_term_cross_check_flags():
    t1, crossed1 = series_term(3, 2, 1)
    assert crossed1 and t1 == -1
    t4, crossed4 = series_term(3, 2, 4, naive_budget=10 ** 5)
    assert not crossed4  # 3^8 points exceed the budget for the naive pass


def test_bad_parameters():
    with pytest.raises(NotInBase):
        count_transfer(F3, 0)
    with pytest.raises(NotInBase):
        count_transfer(F3, 1)
    # the modelled term at F_3^16 does not fit with one worker; it is
    # refused before a degree-16 modulus is searched for
    with pytest.raises(TooLarge, match=r"F_3\^16 needs about \d+ bytes"):
        series_term(3, 2, 16)


def test_chi_series_refuses_an_oversized_term_before_the_first(monkeypatch):
    """Every term of a series is sized before the first runs: k = 16 is
    refused without computing k = 1..15."""
    def refuse(*args, **kwargs):
        raise AssertionError("a term was computed")

    monkeypatch.setattr(counting, "series_term", refuse)
    with pytest.raises(TooLarge, match=r"F_3\^16 needs about \d+ bytes"):
        counting.chi_series(3, 2, k_max=16)


def test_check_terms_stops_at_the_first_refused_term():
    """Sizing is a loop, not one check of the largest k: at q = 131 the
    budget 131^6 admits a naive count at k = 1 only, whose buffer is
    refused, while k = 2 fits.  A range to any bound ends at its first
    refusal."""
    counting.check_terms(131, 2, range(2, 3), naive_budget=131 ** 6)
    with pytest.raises(TooLarge, match=r"naive count over F_131\^1 "):
        counting.check_terms(131, 2, range(1, 3), naive_budget=131 ** 6)
    with pytest.raises(TooLarge, match=r"transfer over F_3\^16 "):
        counting.check_terms(3, 2, range(1, 10 ** 18))


def test_naive_refuses_a_buffer_over_the_byte_bound(monkeypatch):
    """On F_131 the budget 131^6 admits the naive count, but its two
    131^4-byte arrays exceed TRANSFER_BYTE_BOUND; it is refused before any
    character table is built.  F_127 is the largest prime field that fits.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(counting, "_factor_table", refuse)
    monkeypatch.setattr(counting, "fiber_factors", refuse)
    F131 = ext_field(131, 1)
    with pytest.raises(TooLarge, match=rf"F_131\^1 needs about "
                                       rf"{2 * 131 ** 4} bytes"):
        count_naive(F131, F131.from_int(2), budget=131 ** 6)
    assert 2 * 131 ** 4 > counting.TRANSFER_BYTE_BOUND >= 2 * 127 ** 4


def test_fiber_factor_count_and_degree():
    ff = fiber_factors(F5.from_int(2), ring=F5)
    assert len(ff.factors) == 13
    ffc = fiber_factors(F5.from_int(2), ring=F5, variant="cyclic")
    assert len(ffc.factors) == 14


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 4))
def test_quad_char_multiplicative(a):
    F = F5
    x, y = F.from_int(a), F.from_int(3)
    assert quad_char(F, F.mul(x, y)) == quad_char(F, x) * quad_char(F, y)


# (field, s, variant, (N_nonzero, T_chi)), frozen from the enumeration
# that gathered f_s from multiplication and addition tables
PINNED_NAIVE = [
    (ext_field(3, 2), 2, "consecutive", (111749, 277)),
    (ext_field(3, 2), 2, "cyclic", (95784, -88)),
    (ext_field(7, 1), 3, "cyclic", (12208, 64)),
]


def test_naive_f27_pinned():
    F27 = ext_field(3, 3)
    assert count_naive(F27, F27.from_int(2)) == (236269301, -2521)


# (N_nonzero, T_chi) frozen from the enumeration over one n^5 array
@pytest.mark.parametrize("q, k, want", [
    (3, 3, (236269301, -2521)),
    (5, 2, (142953189, -5051)),
], ids=["F27", "F25"])
def test_naive_memory_is_below_three_n4_bytes(q, k, want):
    """The naive count enumerates in (x1, x2) blocks: its traced peak stays
    below 3 n^4 bytes, where one array over x2..x6 would need n^5."""
    field_ = ext_field(q, k)
    tracemalloc.start()
    try:
        got = count_naive(field_, field_.from_int(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 3 * field_.size ** 4


def test_naive_is_independent_of_the_transfer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the naive oracle reached the transfer path")

    for name in ("_chi_table", "_transfer_residue", "count_transfer"):
        monkeypatch.setattr(counting, name, refuse)
    for field_, s, variant, want in PINNED_NAIVE:
        assert count_naive(field_, field_.from_int(s), variant=variant) == want
