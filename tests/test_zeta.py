import ast
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import g2rigid.zeta
from g2rigid.counting import chi_series
from g2rigid.errors import NotInBase
from g2rigid.zeta import (MODULUS_REL_TOL, local_type_prediction,
                          min_recurrence, poly_roots, solve_complex,
                          zeta_analysis)


def _power_sums(spectrum, k_max):
    """sum of count * lam^k for k = 1..k_max; the analysis oracle."""
    return [sum(c * lam ** k for lam, c in spectrum)
            for k in range(1, k_max + 1)]


def test_min_recurrence_geometric():
    assert min_recurrence([27 ** k for k in range(1, 8)]) == [27]


def test_min_recurrence_two_eigenvalues():
    terms = _power_sums([(27, 2), (9, 1)], 8)
    rec = min_recurrence(terms)
    assert rec == [36, -243]  # x^2 - 36x + 243 = (x-27)(x-9)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
       st.lists(st.integers(2, 9), min_size=3, max_size=3, unique=True))
def test_min_recurrence_reconstructs_power_sums(counts, lams):
    spectrum = [(l, c) for l, c in zip(lams, counts) if c]
    terms = _power_sums(spectrum, 10)
    rec = min_recurrence(terms)
    assert len(rec) <= len(spectrum)
    # the recurrence must reproduce the whole series
    for n in range(len(rec), len(terms)):
        assert terms[n] == sum(Fraction(rec[i]) * terms[n - 1 - i]
                               for i in range(len(rec)))


def _analysis(terms, q=3, s=2):
    return zeta_analysis(q, s, terms)


def test_zeta_analysis_pure_weight6():
    rep = _analysis(_power_sums([(27, 2), (9, 1)], 8))
    assert rep.model_length == 2
    assert not rep.underdetermined and not rep.inconsistent
    assert rep.weil_ok
    assert rep.weight6_count == 1
    assert rep.q3_present
    sig = sorted((round(m), c) for m, c, _ in rep.eigenvalues)
    assert sig == [(9, 1), (27, 2)]


def test_zeta_analysis_detects_weil_violation():
    rep = _analysis(_power_sums([(28, 1)], 8))
    assert not rep.weil_ok and not rep.underdetermined


def test_zeta_analysis_underdetermined_flag():
    # five distinct eigenvalues but only seven terms: 2L > len(terms)
    spectrum = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1)]
    rep = _analysis(_power_sums(spectrum, 7))
    # seven terms cannot determine a length-5 model; the fit comes out
    # shorter and is flagged
    assert rep.model_length >= 4
    assert rep.underdetermined


def test_real_series_analysis():
    series = chi_series(3, 2, k_max=7)
    assert series.terms == [-1, 277, -2521, -334283, -28103281,
                            1524488437, 480968375]
    rep = zeta_analysis(series.q, series.s, series.terms)
    assert not rep.inconsistent
    # at k_max = 7 the exact fit is shorter than the true model and is
    # flagged as underdetermined; the raw growth stays inside weight 6
    assert rep.weil_ok or rep.underdetermined
    assert all(r <= 7.0 for r in rep.term_ratios)


@st.composite
def _spectra(draw):
    """Distinct nonzero Gaussian integers closed under conjugation: some
    integers, some +-a pairs and some conjugate pairs a +- bi, b > 0."""
    ints = draw(st.sets(st.integers(-30, 30).filter(bool), max_size=3))
    pm = draw(st.sets(st.integers(1, 30), max_size=2))
    pairs = draw(st.sets(st.tuples(st.integers(-30, 30), st.integers(1, 30)),
                         max_size=2))
    reals = sorted(ints | pm | {-a for a in pm})
    return reals, sorted(pairs)


def _gauss_pow(a, b, k):
    """(a + bi)^k as an exact pair of integers."""
    re, im = 1, 0
    for _ in range(k):
        re, im = re * a - im * b, re * b + im * a
    return re, im


def _poly(reals, pairs, zeros):
    """Coefficients after the leading 1 of the monic integer polynomial
    with these roots."""
    poly = [1]
    factors = ([[1, -r] for r in reals]
               + [[1, -2 * a, a * a + b * b] for a, b in pairs]
               + [[1, 0]] * zeros)
    for f in factors:
        out = [0] * (len(poly) + len(f) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(f):
                out[i + j] += x * y
        poly = out
    return poly[1:]


def _assert_roots(found, reals, pairs):
    """Found roots are the expected ones: moduli within MODULUS_REL_TOL,
    real roots with imaginary part +0.0, conjugate pairs exact."""
    expected = [complex(r) for r in reals] + [
        complex(a, s * b) for a, b in pairs for s in (1, -1)]
    assert len(found) == len(expected)
    assert all(abs(x - y) <= MODULUS_REL_TOL * abs(y) for x, y in zip(
        sorted(map(abs, found)), sorted(map(abs, expected))))
    for z in found:
        e = min(expected, key=lambda e: abs(e - z))
        assert abs(z - e) <= MODULUS_REL_TOL * abs(e)
        if e.imag == 0:
            assert z.imag == 0.0 and math.copysign(1, z.imag) == 1
        else:
            assert found.count(z.conjugate()) == found.count(z)


@settings(deadline=None, max_examples=60)
@given(_spectra(), st.integers(0, 2))
def test_poly_roots_of_known_roots(spectrum, zeros):
    reals, pairs = spectrum
    found = poly_roots(_poly(reals, pairs, zeros))
    nonzero = [z for z in found if z != 0]
    assert len(found) - len(nonzero) == zeros
    # zero roots come from trailing zero coefficients, exactly
    assert all(repr(z) == "0j" for z in found if z == 0)
    _assert_roots(nonzero, reals, pairs)


@settings(deadline=None, max_examples=40)
@given(_spectra(), st.data())
def test_zeta_analysis_recovers_a_known_spectrum(spectrum, data):
    """Power sums of known eigenvalues and counts, with an explicit 0 that
    no term sees, give back the eigenvalues and their signed counts."""
    reals, pairs = spectrum
    count = st.integers(-3, 3).filter(bool)
    real_counts = {r: data.draw(count) for r in reals + [0]}
    pair_counts = {ab: data.draw(count) for ab in pairs}
    length = len(reals) + 2 * len(pairs)
    terms = [sum(c * r ** k for r, c in real_counts.items())
             + sum(2 * c * _gauss_pow(a, b, k)[0]
                   for (a, b), c in pair_counts.items())
             for k in range(1, 2 * length + 3)]
    rep = _analysis(terms, q=5)
    assert rep.model_length == length
    assert not rep.underdetermined and not rep.inconsistent
    found = [z for _, _, z in rep.eigenvalues]
    _assert_roots(found, reals, pairs)
    for _, c, z in rep.eigenvalues:
        e = complex(round(z.real), round(z.imag))
        assert c == (real_counts[e.real] if e.imag == 0
                     else pair_counts[(e.real, abs(e.imag))])


def test_constant_term_zero_recurrence_has_exact_zero_root():
    # 1, 1, 2, 4, 8, ...: t_n = 2 t_(n-1) only from n = 3 on
    terms = [1] + [2 ** k for k in range(7)]
    assert min_recurrence(terms) == [2, 0]
    rep = _analysis(terms)
    assert [z for _, _, z in rep.eigenvalues] == [2, 0]
    assert repr(rep.eigenvalues[1][2]) == "0j"
    # the Vandermonde system has a zero column: every count reads 0
    assert solve_complex([[2, 0], [4, 0]], terms[:2]) is None
    assert [c for _, c, _ in rep.eigenvalues] == [0, 0]


def test_zeta_computes_without_numpy():
    """zeta finds roots and counts in pure Python: no ``np`` and no
    import of numpy or of the array backend."""
    path = pathlib.Path(g2rigid.zeta.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names}
    modules |= {n.module for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)}
    assert "np" not in names and not hasattr(g2rigid.zeta, "np")
    assert not modules & {"numpy", "modlinalg"}


def test_local_type_prediction_examples():
    rep = local_type_prediction(Fraction(8, 5))
    assert rep.shape_ok
    by_p = {p: t for p, t, _, _ in rep.entries}
    assert by_p == {3: "U(3)+U(2)+U(2)", 5: "Steinberg-U(7)"}

    rep = local_type_prediction(Fraction(10))
    by_p = {p: t for p, t, _, _ in rep.entries}
    assert by_p == {3: "U(3)+U(2)+U(2)", 5: "none"}
    assert not rep.shape_ok

    rep = local_type_prediction(Fraction(1, 2))
    assert rep.entries == []
    assert not rep.shape_ok


def test_local_type_prediction_rejects_degenerate():
    for bad in (Fraction(0), Fraction(1)):
        with pytest.raises(NotInBase):
            local_type_prediction(bad)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 200), st.integers(1, 200))
def test_prediction_types_follow_valuations(num, den):
    s = Fraction(num, den)
    if s in (0, 1):
        return
    rep = local_type_prediction(s)
    for p, t, vs, vm in rep.entries:
        assert p % 2 == 1
        if vs < 0:
            assert t == "Steinberg-U(7)"
        elif vm > 0:
            assert t == "U(3)+U(2)+U(2)"
        else:
            assert t == "none"
