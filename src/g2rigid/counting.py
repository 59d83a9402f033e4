"""Quadratic-character point counts for the double-cover fiber family.

The fiber over a parameter s is the double cover Y^2 = f_s(x_1, ..., x_6),
where f_s is a product of affine-linear factors chaining consecutive
variables.  Counting points reduces to the character sum
T = sum over x of chi(f_s(x)) with chi the quadratic character
(chi(0) = 0).  The naive oracle forms the product of chi over the factors
at every point, from one small character table per factor; it checks a
fast transfer path that convolves one variable at a time.  The transfer
runs each convolution in the Fourier domain of (F_{p^k}, +) = (Z/p)^k,
exactly modulo several primes, and recovers T by the Chinese remainder
theorem.  Both work on the field's integer codes in [0, p^k) (see
``rings``), so every character table is indexed by the element itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

from . import DEFAULT_SERIES_NAIVE_BUDGET
from .errors import NotInBase, TooLarge
from .modlinalg import np
from .rings import ext_field, is_prime, require_odd_prime

DEFAULT_NAIVE_BUDGET = 10 ** 9
TRANSFER_BYTE_BOUND = 2 ** 29  # bytes of the transfer's largest array


# ---------------------------------------------------------------------------
# the factor list of the fiber polynomial

@dataclass(frozen=True)
class LinearFactor:
    """Affine-linear form: constant + sum of coeffs[i] * x_i (1-based)."""

    constant: object
    coeffs: tuple  # ((variable index, coefficient), ...)

    def value(self, ring, point):
        acc = self.constant
        for i, c in self.coeffs:
            acc = ring.add(acc, ring.mul(c, point[i - 1]))
        return acc


@dataclass(frozen=True)
class FiberFactorList:
    """The linear factors of f_s, with the constant multiplier s."""

    constant: object
    factors: tuple

    def value_at(self, ring, point):
        """Exact evaluation of f_s at a 6-tuple of coordinates."""
        acc = self.constant
        for f in self.factors:
            acc = ring.mul(acc, f.value(ring, point))
        return acc


def fiber_factors(s, ring, variant="consecutive") -> FiberFactorList:
    """Factor list of the fiber polynomial with the last coordinate at s.

    The default ("consecutive") reading takes the six differences of
    consecutive coordinates, closing with (s - x6); the "cyclic" variant
    additionally wraps around with (x1 - s).  Coordinate factors sit at
    x1, x3, x5 and the constant s; shifted factors at x1, x2, x4, x6.
    """
    if variant not in ("consecutive", "cyclic"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_s(s)
    neg_one = ring.neg(1)
    factors = []
    for i in range(1, 6):
        factors.append(LinearFactor(0, ((i + 1, 1), (i, neg_one))))
    factors.append(LinearFactor(s, ((6, neg_one),)))
    if variant == "cyclic":
        factors.append(LinearFactor(ring.neg(s), ((1, 1),)))
    for i in (1, 3, 5):
        factors.append(LinearFactor(0, ((i, 1),)))
    for i in (1, 2, 4, 6):
        factors.append(LinearFactor(neg_one, ((i, 1),)))
    return FiberFactorList(constant=s, factors=tuple(factors))


# ---------------------------------------------------------------------------
# quadratic character and field tables

def quad_char(field_, u) -> int:
    """Quadratic character value in {-1, 0, +1}; zero maps to 0."""
    if u == 0:
        return 0
    t = field_.pow(u, (field_.size - 1) // 2)
    return 1 if t == 1 else -1


def _digits(codes, p, k):
    """Base-p digit vectors (constant coefficient first) of element codes."""
    return np.asarray(codes, dtype=np.int64)[:, None] // p ** np.arange(k) % p


def _chi_table(field_):
    """Quadratic character of every element, from the squaring map.

    All elements are squared at once as digit polynomials and reduced by
    the field modulus; the image is +1, every other element -1, and
    chi(0) = 0.
    """
    p, k = field_.char, field_.k
    n = p ** k
    digits = _digits(np.arange(n), p, k)
    square = np.zeros((n, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        square[:, i:i + k] += digits[:, i:i + 1] * digits
    # row m: digits of T^m reduced by the modulus, m = 0 .. 2k - 2
    powers = [1]
    for _ in range(2 * k - 2):
        powers.append(field_.mul(powers[-1], p))  # the code p is T
    reduce_ = _digits(powers, p, k)
    squares = (square @ reduce_ % p) @ p ** np.arange(k)
    chi = np.full(n, -1, dtype=np.int64)
    chi[squares] = 1
    chi[0] = 0
    return chi


def _check_transfer_size(p, k):
    """TooLarge unless the squaring map's (p^k, 2k - 1) products and the
    p x p transform, the transfer's largest arrays, fit the byte bound."""
    need = 8 * max(p ** k * (2 * k - 1), p * p)
    if need > TRANSFER_BYTE_BOUND:
        raise TooLarge(f"the transfer over F_{p}^{k} needs {need} bytes, "
                       f"over the bound {TRANSFER_BYTE_BOUND}")


def _check_s(s):
    if s in (0, 1):
        raise NotInBase("the parameter s must avoid 0 and 1")


# ---------------------------------------------------------------------------
# counting

def _factor_table(field_, factor, chi):
    """chi(factor) on the grid of the coordinates the factor reads, as an
    int8 array of full rank 6: axis i - 1 has length n for each x_i read,
    length 1 otherwise.  ``chi`` lists the character by element."""
    axes = sorted(i for i, _ in factor.coeffs)
    shape = [1] * 6
    for i in axes:
        shape[i - 1] = field_.size
    point = [0] * 6
    values = []
    for coords in itertools.product(field_.elements(), repeat=len(axes)):
        for i, x in zip(axes, coords):
            point[i - 1] = x
        values.append(chi[factor.value(field_, point)])
    return np.array(values, dtype=np.int8).reshape(shape)


def count_naive(field_, s, budget=DEFAULT_NAIVE_BUDGET, variant="consecutive",
                trivial_character=False):
    """Full enumeration over the 6-dimensional affine space.

    Returns (N_nonzero, T_chi): the number of points where the fiber
    polynomial is nonzero and the quadratic-character sum.  The fiber of
    the double cover has N_nonzero + T_chi points (chi = +1 contributes
    two square roots, chi = -1 none).  With ``trivial_character`` the
    engine sums the indicator of nonvanishing instead, which must equal
    N_nonzero (self-test hook).

    chi is multiplicative, so chi(f_s(x)) = chi(s) * prod chi(factor(x)).
    Each factor reads at most two coordinates; its chi table over them
    comes from ``LinearFactor.value`` and quad_char, independently of the
    transfer path.  For each x1 the int8 product of the tables is formed
    by broadcasting at every point of the remaining five axes and summed;
    the products at full size are taken in place in one buffer.
    """
    n = field_.size
    if n ** 6 > budget:
        raise TooLarge(f"{n}^6 points exceed the budget {budget}")
    factors = fiber_factors(s, ring=field_, variant=variant)
    chi = [int(u != 0) if trivial_character
           else quad_char(field_, u) for u in field_.elements()]
    tables = [_factor_table(field_, f, chi) for f in factors.factors]
    # tables reading x2 come last: only they are multiplied at full size
    tables.sort(key=lambda t: t.shape[1:])
    sign = np.int8(chi[s])
    full = (n,) * 5
    buffer = np.empty(full, dtype=np.int8)
    n_nonzero = t_chi = 0
    for x1 in range(n):
        prod = sign
        for t in tables:
            row = t[x1 if t.shape[0] == n else 0]
            if np.broadcast_shapes(np.shape(prod), row.shape) == full:
                prod = np.multiply(prod, row, out=buffer)
            else:
                prod = prod * row
        n_nonzero += int(np.count_nonzero(prod))
        t_chi += int(prod.sum(dtype=np.int64))
    return n_nonzero, t_chi


def _ntt_primes(p: int, bound: int):
    """Primes P = 1 (mod p), largest first, whose product exceeds bound,
    each with a primitive p-th root of unity omega mod P.

    p (P - 1)^2 < 2^63, so a p-term sum of reduced products fits in int64
    (for p < 128 that holds for every P < 2^28).
    """
    top = min(2 ** 28, isqrt((2 ** 63 - 1) // p))
    primes = []
    product = 1
    for P in range(top - 1 - (top - 2) % (2 * p), 1, -2 * p):
        if product > bound:
            return primes
        if is_prime(P):
            omega = next(w for w in (pow(g, (P - 1) // p, P)
                                     for g in range(2, P)) if w != 1)
            primes.append((P, omega))
            product *= P
    raise TooLarge(f"too few primes P = 1 (mod {p}) below {top}")


def _transfer_residue(P, omega, p, k, chi, first, locals_):
    """The transfer chain modulo P, every convolution in the Fourier domain.

    The length-p DFT along each of the k digit axes of (F_{p^k}, +) =
    (Z/p)^k diagonalizes the convolution with chi.
    """
    j = np.arange(p)
    omega_pow = np.array([pow(omega, e, P) for e in range(p)], dtype=np.int64)
    forward = omega_pow[j[:, None] * j % p]
    inverse = omega_pow[-j[:, None] * j % p]

    def transform(v, w):
        for d in range(k):
            v = np.matmul(w, v.reshape(p ** d, p, -1)) % P
        return v.reshape(-1)

    # the inverse transform's 1/n is folded into the transform of chi
    chi_hat = transform(chi % P, forward) * pow(chi.size, -1, P) % P
    v = first % P
    for loc in locals_:
        v = transform(transform(v, forward) * chi_hat % P, inverse) * loc % P
    return int(v.sum()) % P


def count_transfer(field_, s, variant="consecutive",
                   trivial_character=False) -> int:
    """T_chi by sequential convolution along the variable chain.

    The character sum factorizes through the chain of difference factors:
    a vector indexed by the current variable is convolved with the
    difference kernel chi(b - a) and multiplied pointwise by the local
    coordinate/shift factors, one variable at a time.  Each convolution
    is a pointwise product in the Fourier domain of (F_{p^k}, +), computed
    exactly modulo primes P = 1 (mod p); since |T| <= q^{6k}, enough
    primes to exceed 2 q^{6k} recover T by the Chinese remainder theorem.
    The largest array must fit in TRANSFER_BYTE_BOUND bytes, else
    TooLarge.  Agrees with count_naive wherever both run.
    """
    _check_s(s)
    if variant not in ("consecutive", "cyclic"):
        raise ValueError(f"unknown variant {variant!r}")
    p, k = field_.char, field_.k
    _check_transfer_size(p, k)
    n = p ** k
    chi = ((np.arange(n) != 0).astype(np.int64) if trivial_character
           else _chi_table(field_))

    def minus(c):  # x -> chi(x - c): a shift along every digit axis
        shift = tuple(_digits([c], p, k)[0, ::-1])
        return np.roll(chi.reshape((p,) * k), shift,
                       axis=tuple(range(k))).reshape(n)

    chi_xm1 = minus(1)
    chi_xms = minus(s)
    # chi(s) chi(s - x) = chi(s) chi(-1) chi(x - s) closes the chain
    sign = chi[s] * chi[field_.neg(1)]
    first = chi * chi_xm1 * (chi_xms if variant == "cyclic" else 1)
    locals_ = [chi_xm1, chi, chi_xm1, chi, chi_xm1 * chi_xms * sign]
    total, modulus = 0, 1
    for P, omega in _ntt_primes(p, 2 * n ** 6):
        r = _transfer_residue(P, omega, p, k, chi, first, locals_)
        total += modulus * ((r - total) * pow(modulus, -1, P) % P)
        modulus *= P
    return total - modulus if 2 * total > modulus else total


# ---------------------------------------------------------------------------
# extension-field series

def chi_series(q: int, s: int, k_max: int = 7, variant="consecutive",
               naive_budget=DEFAULT_SERIES_NAIVE_BUDGET,
               modulus_skip: int = 0):
    """T_k = sum of chi(f_s) over F_{q^k}^6 for k = 1..k_max, as a
    ``zeta.ChiSeries``.

    Uses the transfer path, cross-checked against the naive oracle on
    every extension small enough for ``naive_budget``.  The extension
    fields use the deterministic smallest irreducible modulus;
    ``modulus_skip`` selects a later modulus to assert presentation
    independence.
    """
    from .zeta import ChiSeries  # zeta executes only for a series
    terms = []
    checked = []
    for k in range(1, k_max + 1):
        t, crossed = series_term(q, s, k, variant=variant,
                                 naive_budget=naive_budget,
                                 modulus_skip=modulus_skip)
        terms.append(t)
        if crossed:
            checked.append(k)
    return ChiSeries(q=q, s=s % q, variant=variant, terms=terms,
                     cross_checked=checked)


def series_term(q: int, s: int, k: int, variant="consecutive",
                naive_budget=DEFAULT_SERIES_NAIVE_BUDGET,
                modulus_skip: int = 0):
    """One series term T_k, with a naive cross-check where affordable.

    Returns (T_k, cross_checked).  Raises AssertionError on a
    transfer/naive mismatch.
    """
    require_odd_prime(q)
    s %= q
    _check_s(s)
    _check_transfer_size(q, k)  # before searching for a degree-k modulus
    fk = ext_field(q, k, skip=modulus_skip)
    t = count_transfer(fk, s, variant=variant)
    crossed = False
    if fk.size ** 6 <= naive_budget:
        _, t_naive = count_naive(fk, s, budget=naive_budget, variant=variant)
        if t_naive != t:
            raise AssertionError(
                f"transfer/naive mismatch at k={k}: {t} vs {t_naive}")
        crossed = True
    return t, crossed
