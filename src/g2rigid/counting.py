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
``series_terms`` is the one loop over the terms T_k of a series, under
``chi_series`` and the CLI's ``count`` and ``zeta``: it sizes every term
(``check_terms``) before the first runs.  The CLI reads the cached terms,
keyed by s mod q, in k order and calls ``check_terms`` on the first
missing term and every later one before it reads any further record.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from math import isqrt

from . import DEFAULT_SERIES_NAIVE_BUDGET
from .errors import NotInBase, TooLarge
from .modlinalg import np
from .rings import ext_field, is_prime, require_odd_prime

DEFAULT_NAIVE_BUDGET = 10 ** 9


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


def _digits(codes, p, k, dtype=np.int64):
    """Base-p digit vectors (constant coefficient first) of element codes."""
    return np.asarray(codes, dtype=dtype)[:, None] // \
        p ** np.arange(k, dtype=dtype) % p


_CHI_BLOCK = 2 ** 16  # elements squared at once by _chi_table


def _chi_table(field_):
    """Quadratic character of every element, from the squaring map, as
    int8.

    x and -x have one square, and one of them leads with a digit in
    1 .. (p - 1)/2, so the codes [p^j, (p + 1)/2 p^j), j < k, square to
    every nonzero square.  They are squared _CHI_BLOCK at a time as digit
    polynomials and reduced by the field modulus; the image is +1, every
    other element -1, and chi(0) = 0.  The digit arithmetic runs in int32
    whenever its largest sum, (2k - 1) k (p - 1)^3, fits.
    """
    p, k = field_.char, field_.k
    dtype = np.int32 if (2 * k - 1) * k * (p - 1) ** 3 < 2 ** 31 \
        else np.int64
    # row m: digits of T^m reduced by the modulus, m = 0 .. 2k - 2
    powers = [1]
    for _ in range(2 * k - 2):
        powers.append(field_.mul(powers[-1], p))  # the code p is T
    reduce_ = _digits(powers, p, k, dtype)
    place = p ** np.arange(k, dtype=dtype)
    chi = np.full(p ** k, -1, dtype=np.int8)
    for j in range(k):
        top = (p + 1) // 2 * p ** j
        for start in range(p ** j, top, _CHI_BLOCK):
            digits = _digits(np.arange(start, min(start + _CHI_BLOCK, top)),
                             p, k, dtype)
            square = np.zeros((len(digits), 2 * k - 1), dtype=dtype)
            for i in range(k):
                square[:, i:i + k] += digits[:, i:i + 1] * digits
            chi[(square @ reduce_ % p) @ place] = 1
    chi[0] = 0
    return chi


TRANSFER_BYTE_BOUND = 2 ** 29
# below this field size a residue's numpy calls are too short to release
# the GIL for long, and two threads run the residues slower than one
_POOL_MIN_SIZE = 2 ** 14


def transfer_bytes(p, k, workers):
    """The modelled peak RSS of one transfer term over F_{p^k}, n = p^k,
    on ``workers`` threads: 48 MB for the interpreter, numpy and the
    blocks of _chi_table, 5 n for the int8 tables the residues share, and
    per worker 24 n for a residue's three int64 vectors and 32 p^2 for its
    p x p transform matrices.

    Fitted to the peak RSS (os.wait4) of fresh ``series_term(3, 2, k)``
    processes on a 2-CPU machine, as (k, workers, MiB): (11, 1, 42.2),
    (12, 1, 47.3), (13, 1, 72.6), (14, 1, 160.7), (15, 1, 425.3),
    (12, 2, 61.1), (13, 2, 109.9), (14, 2, 271.3), (15, 2, 754.8),
    (13, 4, 183.2), (14, 4, 490.3); the model lies 7-18 MiB above each.
    """
    n = p ** k
    return 48 * 10 ** 6 + 5 * n + workers * (24 * n + 32 * p * p)


def _check_bytes(what, p, k, need):
    """TooLarge if the ``what`` over F_{p^k} needs over TRANSFER_BYTE_BOUND
    bytes."""
    if need > TRANSFER_BYTE_BOUND:
        raise TooLarge(f"the {what} over F_{p}^{k} needs about {need} "
                       f"bytes, over the bound {TRANSFER_BYTE_BOUND}")


def transfer_workers(p, k, workers):
    """The most workers, at most ``workers`` and at most the CPUs, whose
    modelled term fits TRANSFER_BYTE_BOUND; TooLarge if one worker does
    not fit.  More threads than cores run a term slower, not faster."""
    _check_bytes("transfer", p, k, transfer_bytes(p, k, 1))
    workers = min(workers, os.cpu_count() or 1)
    while transfer_bytes(p, k, workers) > TRANSFER_BYTE_BOUND:
        workers -= 1
    return workers


def check_term(q, s, k, naive_budget=DEFAULT_SERIES_NAIVE_BUDGET):
    """Refuse series term k before any of it runs: a q that is no odd
    prime, an s that is 0 or 1 mod q, and a transfer or an admitted naive
    cross-check over F_{q^k} over TRANSFER_BYTE_BOUND (TooLarge)."""
    require_odd_prime(q)
    _check_s(s % q)
    transfer_workers(q, k, 1)
    if q ** (6 * k) <= naive_budget:
        _check_bytes("naive count", q, k, naive_bytes(q ** k))


def check_terms(q, s, ks, naive_budget=DEFAULT_SERIES_NAIVE_BUDGET):
    """``check_term`` for each k of ``ks`` in order, up to the first k it
    refuses.

    A loop, not one check of the largest k: a term can be refused below
    one that is admitted (q = 131 with the budget 131^6 refuses k = 1
    for its naive buffer and admits k = 2), and sizing term k computes
    q^k.  Every q is refused by k = 16, so ``ks`` may be a range to any
    bound.
    """
    for k in ks:
        check_term(q, s, k, naive_budget)


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


def naive_bytes(n):
    """The bytes of the naive count's two int8 arrays over an n-element
    field: the fixed product over x3..x6 and the block buffer, n^4 each."""
    return 2 * n ** 4


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
    transfer path.  The space is enumerated in blocks, one per (x1, x2):
    the tables that read only x1 and x2 give one integer per block, and a
    block where it is 0 is skipped; those that read only x3..x6 are
    multiplied once, with chi(s), into a fixed n^4 product; those that
    read both give one small row per block.  In each block the product is
    formed at every point of x3..x6 in one n^4 buffer, and its nonzero
    entries and its sum are counted there, so the count holds
    naive_bytes(n) = 2 n^4 bytes of int8 arrays.
    """
    n = field_.size
    if n ** 6 > budget:
        raise TooLarge(f"{n}^6 points exceed the budget {budget}")
    _check_bytes("naive count", field_.char, field_.k, naive_bytes(n))
    factors = fiber_factors(s, ring=field_, variant=variant)
    chi = [int(u != 0) if trivial_character
           else quad_char(field_, u) for u in field_.elements()]
    weight = np.ones((n, n), dtype=np.int8)  # one sign per (x1, x2)
    fixed = np.full((n,) * 4, chi[s], dtype=np.int8)  # over x3..x6
    mixed = []
    for f in factors.factors:
        t = _factor_table(field_, f, chi)
        if t.shape[2:] == (1,) * 4:
            weight *= t[:, :, 0, 0, 0, 0]
        elif t.shape[:2] == (1, 1):
            fixed *= t[0, 0]
        else:
            mixed.append(t)
    buffer = np.empty_like(fixed)
    negative = buffer.view(np.bool_)
    n_nonzero = t_chi = 0
    for x1, x2 in zip(*np.nonzero(weight)):
        row = weight[x1, x2]
        for t in mixed:
            row = row * t[x1 if t.shape[0] == n else 0,
                          x2 if t.shape[1] == n else 0]
        np.multiply(fixed, row, out=buffer)
        nonzero = int(np.count_nonzero(buffer))
        # the product lies in {-1, 0, 1}: its sum is the nonzero count
        # less twice the count of -1, marked in place over the buffer
        np.less(buffer, 0, out=negative)
        n_nonzero += nonzero
        t_chi += nonzero - 2 * int(np.count_nonzero(negative))
    return n_nonzero, t_chi


def _ntt_primes(p: int, bound: int):
    """Primes P = 1 (mod p), largest first, whose product exceeds bound,
    each with a primitive p-th root of unity omega mod P.

    p (P - 1)^2 < 2^63, so a p-term sum of reduced products fits in int64,
    and so does a pointwise product, (P - 1)^2 < 2^63.
    """
    top = isqrt((2 ** 63 - 1) // p)
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
    (Z/p)^k diagonalizes the convolution with chi.  The int8 tables are
    widened to int64 here, and the transforms run in place, so a residue
    holds three int64 vectors: the transform of chi, the chain vector and
    the transform's scratch.
    """
    j = np.arange(p)
    omega_pow = np.array([pow(omega, e, P) for e in range(p)], dtype=np.int64)
    forward = omega_pow[j[:, None] * j % p]
    inverse = omega_pow[-j[:, None] * j % p]
    tmp = np.empty(chi.size, dtype=np.int64)

    def transform(v, w):  # in place, through tmp
        for d in range(k):
            np.matmul(w, v.reshape(p ** d, p, -1),
                      out=tmp.reshape(p ** d, p, -1))
            np.remainder(tmp, P, out=v)

    # the inverse transform's 1/n is folded into the transform of chi
    chi_hat = chi.astype(np.int64)
    chi_hat %= P
    transform(chi_hat, forward)
    chi_hat *= pow(chi.size, -1, P)
    chi_hat %= P
    v = first.astype(np.int64)
    v %= P
    for loc in locals_:
        transform(v, forward)
        v *= chi_hat
        v %= P
        transform(v, inverse)
        v *= loc
        v %= P
    return int(v.sum()) % P


def count_transfer(field_, s, variant="consecutive",
                   trivial_character=False, workers=1) -> int:
    """T_chi by sequential convolution along the variable chain.

    The character sum factorizes through the chain of difference factors:
    a vector indexed by the current variable is convolved with the
    difference kernel chi(b - a) and multiplied pointwise by the local
    coordinate/shift factors, one variable at a time.  Each convolution
    is a pointwise product in the Fourier domain of (F_{p^k}, +), computed
    exactly modulo primes P = 1 (mod p); since |T| <= q^{6k}, enough
    primes to exceed 2 q^{6k} recover T by the Chinese remainder theorem.
    The residues are independent: with two primes or more, on a field of
    at least _POOL_MIN_SIZE elements, they run on a pool of up to
    ``workers`` threads, as many as ``transfer_workers`` admits (TooLarge
    if one does not fit), and are combined in prime order.  Agrees with
    count_naive wherever both run.
    """
    _check_s(s)
    if variant not in ("consecutive", "cyclic"):
        raise ValueError(f"unknown variant {variant!r}")
    p, k = field_.char, field_.k
    workers = transfer_workers(p, k, workers)
    n = p ** k
    chi = ((np.arange(n) != 0).astype(np.int8) if trivial_character
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
    primes = _ntt_primes(p, 2 * n ** 6)

    def residue(prime):
        return _transfer_residue(*prime, p, k, chi, first, locals_)

    if workers > 1 and len(primes) > 1 and n >= _POOL_MIN_SIZE:
        import concurrent.futures
        with concurrent.futures.ThreadPoolExecutor(
                min(workers, len(primes))) as pool:
            residues = list(pool.map(residue, primes))
    else:
        residues = map(residue, primes)
    total, modulus = 0, 1
    for (P, _), r in zip(primes, residues):
        total += modulus * ((r - total) * pow(modulus, -1, P) % P)
        modulus *= P
    return total - modulus if 2 * total > modulus else total


# ---------------------------------------------------------------------------
# extension-field series

@dataclass
class ChiSeries:
    """Character sums T_k over the degree-k extensions of F_q."""

    q: int
    s: int
    variant: str
    terms: list
    cross_checked: list


def chi_series(q: int, s: int, k_max: int = 7, variant="consecutive",
               naive_budget=DEFAULT_SERIES_NAIVE_BUDGET,
               modulus_skip: int = 0) -> ChiSeries:
    """T_k = sum of chi(f_s) over F_{q^k}^6 for k = 1..k_max, from
    ``series_terms``: no term runs unless every one fits its bounds."""
    run = list(series_terms(q, s, range(1, k_max + 1), variant,
                            naive_budget, modulus_skip))
    return ChiSeries(q=q, s=s % q, variant=variant,
                     terms=[t for _, t, _ in run],
                     cross_checked=[k for k, _, crossed in run if crossed])


def series_terms(q: int, s: int, ks, variant="consecutive",
                 naive_budget=DEFAULT_SERIES_NAIVE_BUDGET,
                 modulus_skip: int = 0, workers=1):
    """(k, T_k, cross_checked) for each k in the sequence ``ks``, by
    ``series_term``.

    Every k is refused or admitted by ``check_terms`` before the first
    term runs, so an oversized term fails at once, not after the smaller
    ones.  The terms then run one after another, so one term's arrays
    are live at a time; the transfer's residues of each run on up to
    ``workers`` threads.
    """
    check_terms(q, s, ks, naive_budget)
    for k in ks:
        yield (k, *series_term(q, s, k, variant=variant,
                               naive_budget=naive_budget,
                               modulus_skip=modulus_skip, workers=workers))


def series_term(q: int, s: int, k: int, variant="consecutive",
                naive_budget=DEFAULT_SERIES_NAIVE_BUDGET,
                modulus_skip: int = 0, workers=1):
    """One series term T_k, with a naive cross-check where affordable.

    Returns (T_k, cross_checked).  F_{q^k} is presented by the smallest
    irreducible modulus, or by the ``modulus_skip``-th after it to assert
    presentation independence.  The transfer's residues run on up to
    ``workers`` threads.  Raises AssertionError on a transfer/naive
    mismatch.
    """
    check_term(q, s, k, naive_budget)  # before searching for a modulus
    s %= q
    fk = ext_field(q, k, skip=modulus_skip)
    t = count_transfer(fk, s, variant=variant, workers=workers)
    crossed = False
    if fk.size ** 6 <= naive_budget:
        _, t_naive = count_naive(fk, s, budget=naive_budget, variant=variant)
        if t_naive != t:
            raise AssertionError(
                f"transfer/naive mismatch at k={k}: {t} vs {t_naive}")
        crossed = True
    return t, crossed
