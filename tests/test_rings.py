import itertools

import pytest
from hypothesis import given, settings, strategies as st

from g2rigid import counting
from g2rigid.errors import InvalidCharacteristic, TooLarge
from g2rigid.rings import (MILLER_RABIN_BOUND, TRIAL_DIVISION_BOUND,
                           FiniteField, ext_field, is_irreducible, is_prime,
                           poly_gcd, poly_mod, poly_mul, poly_roots,
                           poly_trim, prime_factors, smallest_irreducible)


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


def _trial_division_prime(n):
    """Reference: n > 1 has no divisor d with 1 < d <= sqrt(n)."""
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_is_trial_division_below_10_5():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division_prime(n)]


def test_prime_factors_is_trial_division_below_2000():
    for n in range(1, 2000):
        assert prime_factors(-n) == prime_factors(n) == \
            [p for p in range(2, n + 1) if n % p == 0
             and _trial_division_prime(p)]


@pytest.mark.parametrize("n, primes", [
    (2 ** 61 - 1, [2 ** 61 - 1]),
    (45 * (2 ** 61 - 1), [3, 5, 2 ** 61 - 1]),
    (1048573 ** 2, [1048573]),  # the largest prime below the bound, squared
    (8 * 1048583 ** 2, "composite with no prime factor up to 1048576"),
    (1000000007 * 1000000009, "composite with no prime factor up to"),
    ((2 ** 61 - 1) ** 2, "primality of .* is not decided"),
])
def test_prime_factors_past_the_trial_division_bound(n, primes):
    """A cofactor with no factor up to the bound is one prime when it is
    prime, and refused otherwise."""
    assert TRIAL_DIVISION_BOUND == 1048576
    if isinstance(primes, str):
        with pytest.raises(TooLarge, match=primes):
            prime_factors(n)
    else:
        assert prime_factors(n) == primes


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17])
def test_ntt_primes_are_those_of_trial_division(monkeypatch, p):
    """Candidates near sqrt(2^63 / p) are tested by Miller-Rabin; trial
    division picks the same primes, for a bound that needs several of
    them."""
    bound = 2 * (p ** 4) ** 6
    fast = counting._ntt_primes(p, bound)
    monkeypatch.setattr(counting, "is_prime", _trial_division_prime)
    assert counting._ntt_primes(p, bound) == fast
    assert len(fast) > 1


@pytest.mark.parametrize("q, k", [(3, 1), (3, 12), (3, 15), (5, 7),
                                  (7, 6), (13, 2), (101, 1)])
def test_ntt_primes_fit_int64_and_recover_the_sum(q, k):
    """Each prime is 1 mod q with a primitive q-th root of unity, a q-term
    sum of reduced products fits in int64, and together they exceed
    2 q^{6k}, twice the largest |T_k|."""
    primes = counting._ntt_primes(q, 2 * q ** (6 * k))
    product = 1
    for P, omega in primes:
        assert is_prime(P) and P % q == 1
        assert q * (P - 1) ** 2 < 2 ** 63
        assert omega != 1 and pow(omega, q, P) == 1
        product *= P
    assert product > 2 * q ** (6 * k)


def test_is_prime_on_strong_pseudoprimes():
    """The least strong pseudoprimes to the bases 2..31 and 2..37 are
    composite; the one to 2..41, the bound, is refused."""
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    with pytest.raises(TooLarge):
        is_prime(MILLER_RABIN_BOUND)
    assert not is_prime(MILLER_RABIN_BOUND + 1)  # even


def test_prime_field_rejects_bad_characteristic():
    with pytest.raises(InvalidCharacteristic):
        ext_field(2, 1)
    with pytest.raises(InvalidCharacteristic):
        ext_field(9, 1)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_prime_field_matches_integer_arithmetic(a, b):
    F = ext_field(13, 1)
    x, y = F.from_int(a), F.from_int(b)
    assert F.add(x, y) == (a + b) % 13
    assert F.mul(x, y) == (a * b) % 13
    assert F.add(x, F.neg(y)) == (a - b) % 13
    assert F.pow(x, abs(b)) == pow(a, abs(b), 13)
    assert x == a % 13 and F.k == 1 and F.size == 13


@given(st.integers(1, 12))
def test_prime_field_inverse(a):
    F = ext_field(13, 1)
    assert F.mul(a, F.pow(a, F.size - 2)) == 1


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


def test_ext_field_codes_are_base_p_digits():
    F = ext_field(3, 2)
    assert F.size == 9 and list(F.elements()) == list(range(9))
    assert F.modulus == smallest_irreducible(3, 2)
    # code 5 = 2 + 1*3 is T + 2 and code 3 is T; sums add digits without
    # carry, and T*T reduces by the modulus
    assert F.add(5, 5) == 3 * 2 + 1
    assert F.neg(5) == 3 * 2 + 1
    t_squared = tuple((-c) % 3 for c in F.modulus[:2])  # T^2 mod modulus
    assert F.mul(3, 3) == t_squared[0] + 3 * t_squared[1]


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_ext_field_f27_ring_axioms(a, b, c):
    F = ext_field(3, 3)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), F.neg(b)) == a
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    if b != 0:
        assert F.mul(b, F.pow(b, F.size - 2)) == 1


def test_ext_field_multiplicative_order():
    F = ext_field(5, 2)
    x = 5  # the code of the generator polynomial "x"
    assert F.pow(x, 24) == 1
    orders = {d for d in range(1, 25) if F.pow(x, d) == 1}
    assert min(orders) == 24 or 24 % min(orders) == 0


@given(st.lists(st.integers(0, 2), min_size=1, max_size=4),
       st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_poly_gcd_divides_both(a, b):
    from g2rigid.rings import poly_trim
    if not any(a) or not any(b):
        return
    g = poly_gcd(a, b, 3)
    assert g
    for f in (a, b):
        assert not poly_mod(poly_trim(list(f)), g, 3)
    assert poly_mul(a, b, 3)  # product of nonzero polys is nonzero


def _roots_by_evaluation(f, p):
    """Reference: the r in F_p with f(r) = 0."""
    return [r for r in range(p)
            if sum(c * pow(r, i, p) for i, c in enumerate(f)) % p == 0]


def _product_of_linear_factors(roots, p):
    """The product of x - r over ``roots``, repeats kept."""
    f = (1,)
    for r in roots:
        f = poly_mul(f, (-r % p, 1), p)
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 29])
def test_poly_roots_are_the_roots_by_evaluation(p):
    """Distinct, repeated and zero roots, an irreducible quadratic with
    none, alone and times linear factors, and constants."""
    quadratic = smallest_irreducible(p, 2)
    cases = {
        "distinct": [1, p - 1, 3 % p, 7 % p, 11 % p],
        "repeated": [1, 1, p - 1, 3 % p, 3 % p, 3 % p],
        "zero": [0, 0, 1, 5 % p],
    }
    for roots in cases.values():
        f = _product_of_linear_factors(roots, p)
        assert poly_roots(f, p) == _roots_by_evaluation(f, p) == \
            sorted(set(roots))
        g = poly_mul(f, quadratic, p)
        assert poly_roots(g, p) == _roots_by_evaluation(g, p) == \
            sorted(set(roots))
    assert poly_roots(quadratic, p) == _roots_by_evaluation(quadratic, p) \
        == []
    for constant in {(1,), (p - 1,)}:
        assert poly_roots(constant, p) == []
    every_point = _product_of_linear_factors(range(p), p)
    assert poly_roots(every_point, p) == list(range(p))


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 5, 29]),
       st.lists(st.integers(0, 28), min_size=1, max_size=9))
def test_poly_roots_of_any_polynomial(p, coeffs):
    f = poly_trim([c % p for c in coeffs])
    if f:
        assert poly_roots(f, p) == _roots_by_evaluation(f, p)


def test_poly_roots_near_2_31():
    """At p = 2^31 - 1 the chosen roots, 0 and p - 1 among them, come back
    ascending, repeats once, past an irreducible quadratic factor (x^2 + 1,
    since p = 3 mod 4); no scan of F_p could check this."""
    p = 2 ** 31 - 1
    roots = [0, 1, 2, 65537, p // 2, p - 2, p - 1]
    f = _product_of_linear_factors(roots + [0, p - 1, 65537], p)
    assert poly_roots(f, p) == roots
    assert is_irreducible((1, 0, 1), p)
    assert poly_roots(poly_mul(f, (1, 0, 1), p), p) == roots
    assert poly_roots((1, 0, 1), p) == []


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FiniteField(3, (0, 0, 1))  # x^2, reducible
    with pytest.raises(ValueError):
        ext_field(3, 0)
