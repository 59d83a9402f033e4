"""Exact coefficient rings: rationals, prime fields, and small extension fields.

Elements are plain Python values (Fraction, int, tuple of ints); the ring
object carries the arithmetic.  Everything is immutable and hashable, so
values can be shared freely between threads.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InvalidCharacteristic


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise InvalidCharacteristic(f"need an odd prime, got {p}")


class Rationals:
    """The field Q with Fraction elements."""

    name = "QQ"
    char = 0

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


QQ = Rationals()


class PrimeField:
    """F_p for an odd prime p; elements are ints in [0, p)."""

    k = 1

    def __init__(self, p: int):
        require_odd_prime(p)
        self.p = p
        self.char = p
        self.size = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def pow(self, a, e):
        return pow(a, e, self.p)

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def is_zero(self, a):
        return a % self.p == 0

    def encode(self, a) -> int:
        """The element as an int in [0, p), as ExtField encodes with k = 1."""
        return a % self.p

    def decode(self, n: int):
        return n % self.p

    def elements(self):
        return range(self.p)

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


# ---------------------------------------------------------------------------
# polynomials over F_p: little-endian coefficient tuples, used for extension
# field moduli and for characteristic polynomial handling

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
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_divmod(a, b, p):
    """Monic-leading division of a by b over F_p."""
    a = list(a)
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(poly_trim(a)) >= len(b):
        a = list(poly_trim(a))
        shift = len(a) - len(b)
        coef = (a[-1] * inv_lead) % p
        q[shift] = coef
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
    return poly_trim(q), poly_trim(a)


def poly_mod(a, b, p):
    return poly_divmod(a, b, p)[1]


def poly_gcd(a, b, p):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = tuple((c * inv_lead) % p for c in a)
    return a


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
            diff = list(frobenius[k // r]) + [0, 0]  # x^(p^(k/r)) - x
            diff[1] = (diff[1] - 1) % p
            if len(poly_gcd(diff, f, p)) != 1:
                return False
    return True


def smallest_irreducible(p: int, k: int, skip: int = 0) -> tuple:
    """The first monic irreducible of degree k over F_p, skipping ``skip``.

    Candidates x^k + a_{k-1} x^{k-1} + ... + a_0 come in lexicographic
    order of (a_0, a_1, ..., a_{k-1}), so the choice is deterministic.
    ``skip`` selects later moduli in the same order (used to cross-check
    field-presentation independence).
    """
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


class ExtField:
    """F_{p^k} as F_p[T]/(modulus); elements are little-endian int tuples."""

    def __init__(self, p: int, k: int, modulus: tuple | None = None):
        if p == 2 or not is_prime(p):
            raise InvalidCharacteristic(f"need an odd prime, got {p}")
        if k < 1:
            raise ValueError("degree must be >= 1")
        if modulus is None:
            modulus = smallest_irreducible(p, k)
        modulus = poly_trim(modulus)
        if len(modulus) - 1 != k or modulus[-1] != 1:
            raise ValueError("modulus must be monic of the stated degree")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.char = p
        self.modulus = modulus
        self.size = p ** k
        self.name = f"F{p}^{k}"
        self.zero = (0,) * k
        self.one = tuple([1] + [0] * (k - 1))

    def from_int(self, n):
        return tuple([n % self.p] + [0] * (self.k - 1))

    def _pad(self, c):
        return tuple(c) + (0,) * (self.k - len(c))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return self._pad(poly_mod(poly_mul(poly_trim(a), poly_trim(b), self.p),
                                  self.modulus, self.p))

    def pow(self, a, e):
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return self.pow(a, self.size - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b):
        return all((x - y) % self.p == 0 for x, y in zip(a, b))

    def is_zero(self, a):
        return all(x % self.p == 0 for x in a)

    def encode(self, a) -> int:
        """Base-p digit encoding of an element as an int in [0, p^k)."""
        v = 0
        for c in reversed(a):
            v = v * self.p + (c % self.p)
        return v

    def decode(self, n: int):
        digits = []
        for _ in range(self.k):
            digits.append(n % self.p)
            n //= self.p
        return tuple(digits)

    def elements(self):
        return (self.decode(i) for i in range(self.size))

    def to_str(self, a):
        return str(self.encode(a))

    def __repr__(self):
        return f"{self.name}/{list(self.modulus)}"

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.p == self.p
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("Fq", self.p, self.modulus))


def ext_field(p: int, k: int, skip: int = 0) -> ExtField:
    """Deterministic F_{p^k}: lexicographically smallest irreducible modulus."""
    if p == 2 or not is_prime(p):
        raise InvalidCharacteristic(f"need an odd prime, got {p}")
    return ExtField(p, k, smallest_irreducible(p, k, skip=skip))
