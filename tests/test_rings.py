import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from g2rigid.errors import InvalidCharacteristic
from g2rigid.rings import (ExtField, PrimeField, QQ, ext_field,
                           is_irreducible, is_prime, poly_gcd, poly_mod,
                           poly_mul, poly_trim, smallest_irreducible)


def _trial_division_irreducible(f, p):
    """Reference: f has no monic factor of degree 1 .. deg(f)/2."""
    f = poly_trim(f)
    k = len(f) - 1
    if k < 1:
        return False
    return all(poly_mod(f, g + (1,), p)
               for d in range(1, k // 2 + 1)
               for g in itertools.product(range(p), repeat=d))


def _monic(p, k):
    """Monic polynomials of degree k over F_p, in the order in which
    ``smallest_irreducible`` takes its candidates: (a_0, ..., a_{k-1})
    lexicographically."""
    return (g + (1,) for g in itertools.product(range(p), repeat=k))


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


def test_prime_field_rejects_bad_characteristic():
    with pytest.raises(InvalidCharacteristic):
        PrimeField(2)
    with pytest.raises(InvalidCharacteristic):
        PrimeField(9)


def test_rationals_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert QQ.is_zero(QQ.sub(QQ.one, QQ.one))


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_prime_field_matches_integer_arithmetic(a, b):
    F = PrimeField(13)
    x, y = F.from_int(a), F.from_int(b)
    assert F.add(x, y) == (a + b) % 13
    assert F.mul(x, y) == (a * b) % 13
    assert F.sub(x, y) == (a - b) % 13
    assert F.pow(x, abs(b)) == pow(a, abs(b), 13)
    assert F.decode(F.encode(x)) == x == a % 13 and F.k == 1


@given(st.integers(1, 12))
def test_prime_field_inverse(a):
    F = PrimeField(13)
    assert F.mul(a, F.inv(a)) == F.one


def test_smallest_irreducible_is_irreducible():
    for p, k in [(3, 2), (3, 3), (5, 2), (3, 7)]:
        f = smallest_irreducible(p, k)
        assert len(f) == k + 1 and f[-1] == 1
        assert is_irreducible(f, p)


@pytest.mark.parametrize("p", [3, 5])
def test_rabin_matches_trial_division(p):
    for k in range(5):
        for f in _monic(p, k):
            assert is_irreducible(f, p) == _trial_division_irreducible(f, p)


def test_smallest_irreducible_matches_trial_division_search():
    for k in range(1, 11):
        first_two = list(itertools.islice(
            (f for f in _monic(3, k) if _trial_division_irreducible(f, 3)), 2))
        assert [smallest_irreducible(3, k, skip) for skip in (0, 1)] == \
            first_two


def test_smallest_irreducible_skip_differs():
    f0 = smallest_irreducible(3, 3)
    f1 = smallest_irreducible(3, 3, skip=1)
    assert f0 != f1 and is_irreducible(f1, 3)


def _ext_elems(F):
    return list(F.elements())


def test_ext_field_size_and_encoding_roundtrip():
    F = ext_field(3, 2)
    elems = _ext_elems(F)
    assert F.size == 9 and len(elems) == 9
    codes = sorted(F.encode(e) for e in elems)
    assert codes == list(range(9))
    for e in elems:
        assert F.eq(F.decode(F.encode(e)), e)


@given(st.integers(0, 26), st.integers(0, 26))
def test_ext_field_f27_ring_axioms(i, j):
    F = ext_field(3, 3)
    a, b = F.decode(i), F.decode(j)
    assert F.eq(F.add(a, b), F.add(b, a))
    assert F.eq(F.mul(a, b), F.mul(b, a))
    assert F.eq(F.sub(F.add(a, b), b), a)
    if not F.is_zero(b):
        assert F.eq(F.mul(F.div(a, b), b), a)


def test_ext_field_multiplicative_order():
    F = ext_field(5, 2)
    x = F.decode(5)  # the generator polynomial "x"
    assert F.eq(F.pow(x, 24), F.one)
    orders = {d for d in range(1, 25) if F.eq(F.pow(x, d), F.one)}
    assert min(orders) == 24 or 24 % min(orders) == 0


@given(st.lists(st.integers(0, 2), min_size=1, max_size=4),
       st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_poly_gcd_divides_both(a, b):
    from g2rigid.rings import poly_divmod, poly_trim
    if not any(a) or not any(b):
        return
    g = poly_gcd(a, b, 3)
    assert g
    for f in (a, b):
        _, r = poly_divmod(poly_trim(list(f)), g, 3)
        assert not r
    assert poly_mul(a, b, 3)  # product of nonzero polys is nonzero


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        ExtField(3, 2, modulus=(0, 0, 1))  # x^2, reducible
