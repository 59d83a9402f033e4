"""Finite fields F_{p^k} on integer codes, the polynomials over F_p that
present them, and the marker QQ for the rational coefficient domain.

Every finite field is ``ext_field(p, k)``, F_p included (k = 1).  Its
elements are plain ints, the codes in [0, p^k) whose base-p digits are
the coefficients; the field object carries the arithmetic.  Everything
is immutable, so fields and elements can be shared between threads.
"""

from __future__ import annotations

import itertools

from .errors import InvalidCharacteristic, TooLarge


# the first thirteen primes; as Miller-Rabin bases they decide primality
# exactly below MILLER_RABIN_BOUND, the least strong pseudoprime to all of
# them (Sorenson and Webster, Math. Comp. 86, 2017, about 3.3 * 10^24)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; TooLarge past MILLER_RABIN_BOUND, where
    these bases no longer decide."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    if n >= MILLER_RABIN_BOUND:
        raise TooLarge(f"primality of {n} is not decided above "
                       f"{MILLER_RABIN_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


TRIAL_DIVISION_BOUND = 2 ** 20


def prime_factors(n: int) -> list:
    """The distinct prime factors of a nonzero integer, increasing.

    Trial division by 2 and the odd f up to TRIAL_DIVISION_BOUND; a
    cofactor left past it is one prime when ``is_prime`` says so, and is
    refused otherwise (TooLarge)."""
    n = abs(n)
    primes = []
    for f in itertools.chain((2,), range(3, TRIAL_DIVISION_BOUND + 1, 2)):
        if f * f > n:
            break
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
    else:
        if n > 1 and not is_prime(n):
            raise TooLarge(f"{n} is composite with no prime factor up to "
                           f"{TRIAL_DIVISION_BOUND}: not factored")
    return primes + [n] if n > 1 else primes


def require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise InvalidCharacteristic(f"need an odd prime, got {p}")


class Rationals:
    """The coefficient domain Q of the rational triple; it carries no
    arithmetic (``Matrix`` computes over Q on integer numerators)."""

    def __repr__(self):
        return "QQ"


QQ = Rationals()


# ---------------------------------------------------------------------------
# polynomials over F_p: little-endian coefficient tuples, used to find and
# test extension field moduli, to multiply in F_{p^k} and to find the
# eigenvalues in F_p of a matrix, the roots of modlinalg.charpoly_mod

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj  # exact ints, reduced once at the end
    return poly_trim([c % p for c in out])


def poly_mod(a, b, p):
    """Remainder of a on division by b over F_p."""
    a = list(a)
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    for top in range(len(a) - 1, len(b) - 2, -1):  # clear a[top]
        coef = a[top] * inv_lead % p
        for i, bi in enumerate(b, top - len(b) + 1):
            a[i] -= coef * bi
    return poly_trim([c % p for c in a[:len(b) - 1]])


def poly_gcd(a, b, p):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = tuple((c * inv_lead) % p for c in a)
    return a


def _frobenius_gcd(f, xq, p):
    """gcd(f, x^q - x) over F_p, from xq = x^q mod f."""
    diff = list(xq) + [0, 0]
    diff[1] = (diff[1] - 1) % p
    return poly_gcd(f, diff, p)


def poly_powmod(a, e, f, p):
    """a^e mod f over F_p (deg f >= 1), by square-and-multiply."""
    result, base = (1,), poly_mod(a, f, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), f, p)
        base = poly_mod(poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def is_irreducible(f, p: int) -> bool:
    """Rabin's test: f of degree k >= 1 is irreducible over F_p iff f
    divides x^(p^k) - x and gcd(x^(p^(k/r)) - x, f) = 1 for every prime
    r dividing k.  Costs O(k) powerings by p modulo f."""
    f = poly_trim(f)
    k = len(f) - 1
    if k < 1:
        return False
    x = (0, 1)
    frobenius = [poly_mod(x, f, p)]  # x^(p^i) mod f for i = 0..k
    for _ in range(k):
        frobenius.append(poly_powmod(frobenius[-1], p, f, p))
    if frobenius[k] != frobenius[0]:
        return False
    for r in range(2, k + 1):
        if k % r == 0 and is_prime(r):
            if len(_frobenius_gcd(f, frobenius[k // r], p)) != 1:
                return False
    return True


def poly_roots(f, p: int) -> list:
    """The distinct roots in F_p of a nonzero f over F_p, ascending.

    g = gcd(f, x^p - x) is their product, split as Cantor and Zassenhaus
    do (Math. Comp. 36, 1981): a factor h of degree >= 2 splits into its
    gcds with t, t - 1 and t + 1 for t = (x + c)^((p - 1)/2) mod h, which
    part x + c, if -c is a root, and the other roots r by the quadratic
    character of r + c; each piece goes on with c + 1.  c = -r splits r
    off, so c stays below p, and c starts at 0, not at random, so the work
    is reproducible: O(deg(f)^2 log p) field operations for the usual few
    c.  At p = 2 the exponent is 0, and g is read off directly."""
    g = _frobenius_gcd(f, poly_powmod((0, 1), p, f, p), p)
    if p == 2:
        return [r for r in (0, 1) if not poly_mod(g, (r, 1), p)]
    roots, pending = [], [(g, 0)]
    while pending:
        h, c = pending.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
        elif len(h) > 2:
            t = poly_powmod((c, 1), (p - 1) // 2, h, p)
            pending += [(poly_gcd(h, ((t[0] - s) % p,) + t[1:], p), c + 1)
                        for s in (0, 1, -1)]
    return sorted(roots)


def smallest_irreducible(p: int, k: int, skip: int = 0) -> tuple:
    """The first monic irreducible of degree k over F_p, skipping ``skip``.

    Candidates x^k + a_{k-1} x^{k-1} + ... + a_0 come in lexicographic
    order of (a_0, a_1, ..., a_{k-1}), so the choice is deterministic.
    ``skip`` selects later moduli in the same order (used to cross-check
    field-presentation independence).
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    count = 0
    # a_0 = 0 makes x a factor once k > 1: that block of p^(k-1) candidates
    # is passed over without a test
    first = range(1 if k > 1 else 0, p)
    for coeffs in itertools.product(first, *[range(p)] * (k - 1)):
        f = coeffs + (1,)
        if is_irreducible(f, p):
            if count == skip:
                return f
            count += 1
    raise ValueError(f"no irreducible of degree {k} over F_{p}")


class FiniteField:
    """F_q = F_p[T]/(modulus) for an odd prime p, of degree k and size
    q = p^k.

    An element is its code: the int in [0, q) whose base-p digits,
    constant first, are its coefficients in T.  Codes are canonical, so
    0, 1 and == are the field's zero, one and equality, and with k = 1
    (modulus T) the codes are the residues mod p.
    """

    def __init__(self, p: int, modulus: tuple):
        require_odd_prime(p)
        modulus = poly_trim(modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = self.char = p
        self.k = len(modulus) - 1
        self.modulus = modulus
        self.size = p ** self.k

    def _digits(self, a):
        digits = []
        for _ in range(self.k):
            a, d = divmod(a, self.p)
            digits.append(d)
        return digits

    def _code(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d % self.p
        return a

    def from_int(self, n):
        return n % self.p

    # the codes [0, p) are the prime field F_p, where + and * are mod p

    def add(self, a, b):
        if a < self.p and b < self.p:
            return (a + b) % self.p
        return self._code([x + y for x, y in zip(self._digits(a),
                                                 self._digits(b))])

    def neg(self, a):
        return self._code([-x for x in self._digits(a)])

    def mul(self, a, b):
        p = self.p
        if a < p and b < p:
            return a * b % p
        product = poly_mul(self._digits(a), self._digits(b), p)
        return self._code(poly_mod(product, self.modulus, p))

    def pow(self, a, e):
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def elements(self):
        return range(self.size)

    def __repr__(self):
        return f"F{self.p}^{self.k}/{list(self.modulus)}"


def ext_field(p: int, k: int, skip: int = 0) -> FiniteField:
    """Deterministic F_{p^k}: lexicographically smallest irreducible
    modulus, or the ``skip``-th after it; ext_field(p, 1) is F_p."""
    require_odd_prime(p)
    return FiniteField(p, smallest_irreducible(p, k, skip=skip))
