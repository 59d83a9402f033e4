"""Spectral analysis of character-sum series and local-type predictions.

The sums T_k over growing extensions are exact integers of the shape
sum of eps_i * lambda_i^k for Frobenius eigenvalues lambda_i with signs
eps_i.  A minimal-length exact linear recurrence (Berlekamp-Massey over
the rationals) recovers the model; only the root extraction is numeric.
It runs in pure Python on ``complex``, without numpy: Aberth-Ehrlich
iteration for the roots (``poly_roots``), then Gaussian elimination of
the Vandermonde system for the signed counts (``solve_complex``).
Weight bounds cap every |lambda_i| at q^3.  The analysis reads the
terms alone, so analysing cached terms does not execute ``counting``,
which computes them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInBase

MODULUS_REL_TOL = 1e-6
ROOT_MAX_ITER = 100  # iteration cap of each loop in the root finder


def min_recurrence(terms):
    """Minimal linear recurrence satisfied by the sequence, over Q.

    Returns the coefficient list c of length L with
    t_n = c[0] t_{n-1} + ... + c[L-1] t_{n-L} for all fitted n
    (Berlekamp-Massey with exact rational arithmetic).
    """
    s = [Fraction(t) for t in terms]
    c = [Fraction(1)]  # connection polynomial, constant term first
    b = [Fraction(1)]
    l = 0
    m = 1
    bb = Fraction(1)
    for n in range(len(s)):
        d = s[n]
        for i in range(1, l + 1):
            d += c[i] * s[n - i]
        if d == 0:
            m += 1
            continue
        t = list(c)
        coef = d / bb
        c = c + [Fraction(0)] * (len(b) + m - len(c))
        for i, bi in enumerate(b):
            c[i + m] -= coef * bi
        if 2 * l <= n:
            l = n + 1 - l
            b = t
            bb = d
            m = 1
        else:
            m += 1
    return [-x for x in c[1:l + 1]]


def poly_roots(coeffs):
    """Roots of x^n + coeffs[0] x^(n-1) + ... + coeffs[n-1], real coeffs.

    Trailing zero coefficients give exact zero roots, as ``numpy.roots``
    does.  The other roots come from Aberth-Ehrlich simultaneous
    iteration (Aberth 1973) started from n points on the Cauchy-bound
    circle, and are then paired by ``_pair_conjugates``: conjugate roots
    are exact conjugates and a real root has imaginary part 0.0.
    """
    a = [float(x) for x in coeffs]
    zeros = 0
    while a and a[-1] == 0:
        a.pop()
        zeros += 1
    roots = _pair_conjugates(_aberth(a)) if a else []
    return roots + [0j] * zeros


def _aberth(a):
    """Aberth-Ehrlich iteration for the roots of x^n + a[0] x^(n-1) + ...,
    with a[-1] nonzero.

    The start points sit on the circle of Cauchy's radius, the positive
    root of x^n - |a[0]| x^(n-1) - ... - |a[-1]|, which bounds every root
    modulus.  Each root is updated in turn (Gauss-Seidel) and frozen after
    a step taken where |p(z)| is within Horner's rounding error, or a step
    below the last bit of z.
    """
    n = len(a)
    eps = 2.0 ** -52
    mags = [abs(x) for x in a]
    # Newton from 2 max |a[i-1]|^(1/i), which lies above Cauchy's radius
    # by at most a factor 2; the polynomial is increasing and convex there
    r = 2 * max(m ** (1 / i) for i, m in enumerate(mags, 1))
    for _ in range(ROOT_MAX_ITER):
        f, df = 1.0, 0.0
        for m in mags:
            df = df * r + f
            f = f * r - m
        step = f / df
        r -= step
        if step <= 1e-3 * r:
            break
    z = [cmath.rect(r, 2 * math.pi * k / n + math.pi / (2 * n))
         for k in range(n)]
    active = list(range(n))
    for _ in range(ROOT_MAX_ITER):
        still = []
        for i in active:
            zi = z[i]
            p, dp, bound = 1.0 + 0j, 0j, 1.0
            for x, m in zip(a, mags):
                dp = dp * zi + p
                p = p * zi + x
                bound = bound * abs(zi) + m
            if p == 0:
                continue
            pull = sum(1 / (zi - z[j]) for j in range(n) if j != i)
            w = p / (dp - p * pull)
            z[i] = zi - w
            if abs(w) > eps * abs(z[i]) and abs(p) > 4 * n * eps * bound:
                still.append(i)
        active = still
        if not active:
            break
    return z


def _pair_conjugates(roots):
    """Make the roots of a real polynomial closed under conjugation.

    Taken by decreasing |Im|, a root z is paired with the remaining root
    w nearest its conjugate when w is closer to conj(z) than z itself
    is; the pair becomes m, conj(m) for m the mean of z and conj(w).  An
    unpaired root is real: its imaginary part becomes exactly 0.0.
    """
    rest = sorted(roots, key=lambda z: -abs(z.imag))
    out = []
    while rest:
        z = rest.pop(0)
        if rest:
            j = min(range(len(rest)),
                    key=lambda j: abs(rest[j] - z.conjugate()))
            if abs(rest[j] - z.conjugate()) < 2 * abs(z.imag):
                m = (z + rest.pop(j).conjugate()) / 2
                out += [m, m.conjugate()]
                continue
        out.append(complex(z.real, 0.0))
    return out


def solve_complex(a, b):
    """x with a x = b, by Gaussian elimination with partial pivoting.

    ``a`` is a square list of rows of complex numbers; returns None when
    a pivot is exactly zero (a singular system).
    """
    n = len(b)
    m = [list(row) + [bi] for row, bi in zip(a, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    x = [0j] * n
    for r in range(n - 1, -1, -1):
        x[r] = (m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))) \
            / m[r][r]
    return x


@dataclass
class ZetaReport:
    """Fitted eigenvalue model of a character-sum series."""

    q: int
    s: int
    model_length: int
    eigenvalues: list  # (modulus, signed integer count, complex value)
    max_modulus: float
    weight6_count: int  # eigenvalues with |lambda| = q^3 (relative tol)
    q3_present: bool  # the real eigenvalue q^3 itself
    weil_ok: bool  # every modulus <= q^3 (1 + tol)
    underdetermined: bool  # under 2L + 2 terms, or a non-integral recurrence
    inconsistent: bool  # no exact recurrence reproduces all terms
    term_ratios: list  # |T_k| / q^(3k), a direct weight-6 growth check

    def to_json(self):
        return {
            "q": str(self.q),
            "s": str(self.s),
            "model_length": str(self.model_length),
            "eigenvalues": [
                {"modulus": repr(m), "signed_count": str(c),
                 "re": repr(z.real), "im": repr(z.imag)}
                for m, c, z in self.eigenvalues],
            "max_modulus": repr(self.max_modulus),
            "weight6_count": str(self.weight6_count),
            "q3_present": self.q3_present,
            "weil_ok": self.weil_ok,
            "underdetermined": self.underdetermined,
            "inconsistent": self.inconsistent,
            "term_ratios": [repr(r) for r in self.term_ratios],
        }


def zeta_analysis(q, s, terms) -> ZetaReport:
    """Fit the terms T_1, T_2, ... of the series of F_q and the parameter
    s as a signed power sum and report eigenvalue moduli.

    The fit is exact-first: the minimal rational recurrence is computed
    from the integer terms, and checked against every term; numerical
    work is confined to extracting the roots of the connection
    polynomial.  A model of length L is determined only by at least
    2L + 2 terms and only with integer recurrence coefficients: T_k is a
    signed power sum over a Galois-stable set of algebraic integers, so
    its minimal recurrence is monic over Z.  Any other fit is flagged as
    underdetermined, not rejected, and its moduli give no Weil verdict.
    """
    terms = list(terms)
    rec = min_recurrence(terms)
    length = len(rec)
    # consistency of the recurrence against every term
    inconsistent = False
    for n in range(length, len(terms)):
        pred = sum(rec[i] * terms[n - 1 - i] for i in range(length))
        if pred != terms[n]:
            inconsistent = True
            break
    underdetermined = (len(terms) < 2 * length + 2
                       or any(c.denominator != 1 for c in rec))
    # connection polynomial x^L - rec[0] x^(L-1) - ... - rec[L-1]
    roots = poly_roots([-float(c) for c in rec])
    # signed counts from the Vandermonde system on the first L terms
    counts = []
    if length:
        coef = solve_complex([[r ** k for r in roots]
                              for k in range(1, length + 1)],
                             [complex(t) for t in terms[:length]])
        # a singular system (an exactly zero pivot) gives every count 0
        counts = [0] * length if coef is None else [
            int(round(c.real)) if math.isfinite(c.real) else 0
            for c in coef]
    q3 = float(q) ** 3
    eigenvalues = []
    for r, c in zip(roots, counts):
        eigenvalues.append((abs(r), c, r))
    eigenvalues.sort(key=lambda e: (-e[0], e[2].real, e[2].imag))
    max_mod = max((m for m, _, _ in eigenvalues), default=0.0)
    weight6 = sum(1 for m, _, _ in eigenvalues
                  if abs(m - q3) <= MODULUS_REL_TOL * q3)
    q3_present = any(
        abs(z.imag) <= MODULUS_REL_TOL * q3
        and abs(z.real - q3) <= MODULUS_REL_TOL * q3
        for _, _, z in eigenvalues)
    weil_ok = max_mod <= q3 * (1 + MODULUS_REL_TOL)
    ratios = [abs(t) / q3 ** k for k, t in enumerate(terms, 1)]
    return ZetaReport(q=q, s=s, model_length=length,
                      eigenvalues=eigenvalues, max_modulus=max_mod,
                      weight6_count=weight6, q3_present=q3_present,
                      weil_ok=weil_ok, underdetermined=underdetermined,
                      inconsistent=inconsistent, term_ratios=ratios)


# ---------------------------------------------------------------------------
# local-type predictions from valuations of the parameter

def _nu(p: int, x: Fraction) -> int:
    """p-adic valuation of a nonzero rational."""
    n, d = x.numerator, x.denominator
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


@dataclass
class LocalTypePrediction:
    """Predicted local monodromy types at the odd primes touching s."""

    s: Fraction
    entries: list  # (p, type, nu_p(s), nu_p(1 - s))
    shape_ok: bool  # s = 1 + a/b with a and b each having an odd prime factor

    def to_json(self):
        return {
            "s": f"{self.s.numerator}/{self.s.denominator}",
            "entries": [
                {"p": str(p), "type": t, "nu_s": str(vs), "nu_1ms": str(vm)}
                for p, t, vs, vm in self.entries],
            "shape_ok": self.shape_ok,
        }


def local_type_prediction(s: Fraction) -> LocalTypePrediction:
    """Steinberg/unipotent local types from the valuations of s and 1 - s.

    At an odd prime p: type "Steinberg-U(7)" exactly when nu_p(s) < 0
    (the parameter is p-adically large), type "U(3)+U(2)+U(2)" exactly
    when nu_p(1 - s) > 0 (the parameter degenerates to 1); the prime 2 is
    always excluded.  The primes come from ``rings.prime_factors``, which
    refuses a number it cannot factor within its trial-division bound
    (TooLarge).
    """
    from .rings import prime_factors  # a warm zeta executes zeta only
    s = Fraction(s)
    if s == 0 or s == 1:
        raise NotInBase("the parameter s must avoid 0 and 1")
    one_minus = 1 - s
    # s and 1 - s share their denominator
    top_s, top_1ms, bottom = ({p for p in prime_factors(n) if p != 2}
                              for n in (s.numerator, one_minus.numerator,
                                        s.denominator))
    entries = []
    for p in sorted(top_s | top_1ms | bottom):
        vs = _nu(p, s)
        vm = _nu(p, one_minus)
        if vs < 0:
            t = "Steinberg-U(7)"
        elif vm > 0:
            t = "U(3)+U(2)+U(2)"
        else:
            t = "none"
        entries.append((p, t, vs, vm))
    # s - 1 = -(1 - s)
    shape_ok = bool(top_1ms and bottom)
    return LocalTypePrediction(s=s, entries=entries, shape_ok=shape_ok)
