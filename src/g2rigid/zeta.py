"""Spectral analysis of character-sum series and local-type predictions.

The sums T_k over growing extensions are exact integers of the shape
sum of eps_i * lambda_i^k for Frobenius eigenvalues lambda_i with signs
eps_i.  A minimal-length exact linear recurrence (Berlekamp-Massey over
the rationals) recovers the model; only the root extraction is numeric.
Weight bounds cap every |lambda_i| at q^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInBase
from .modlinalg import np

MODULUS_REL_TOL = 1e-6


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
        elif 2 * l <= n:
            t = list(c)
            coef = d / bb
            c = c + [Fraction(0)] * (len(b) + m - len(c))
            for i, bi in enumerate(b):
                c[i + m] -= coef * bi
            l = n + 1 - l
            b = t
            bb = d
            m = 1
        else:
            coef = d / bb
            c = c + [Fraction(0)] * (len(b) + m - len(c))
            for i, bi in enumerate(b):
                c[i + m] -= coef * bi
            m += 1
    return [-x for x in c[1:l + 1]]


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


def zeta_analysis(series) -> ZetaReport:
    """Fit the series as a signed power sum and report eigenvalue moduli.

    The fit is exact-first: the minimal rational recurrence is computed
    from the integer terms, and checked against every term; numerical
    work is confined to extracting the roots of the connection
    polynomial.  A model of length L is determined only by at least
    2L + 2 terms and only with integer recurrence coefficients: T_k is a
    signed power sum over a Galois-stable set of algebraic integers, so
    its minimal recurrence is monic over Z.  Any other fit is flagged as
    underdetermined, not rejected, and its moduli give no Weil verdict.
    """
    terms = list(series.terms)
    q = series.q
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
    poly = [1.0] + [-float(c) for c in rec]
    roots = np.roots(poly) if length else np.array([])
    # signed counts from the Vandermonde system on the first L terms
    counts = []
    if length:
        v = np.array([[complex(r) ** k for r in roots]
                      for k in range(1, length + 1)])
        rhs = np.array([complex(t) for t in terms[:length]])
        try:
            coef = np.linalg.solve(v, rhs)
        except np.linalg.LinAlgError:
            coef = np.full(length, np.nan)
        counts = [int(round(c.real)) if np.isfinite(c.real) else 0
                  for c in coef]
    q3 = float(q) ** 3
    eigenvalues = []
    for r, c in zip(roots, counts):
        eigenvalues.append((abs(complex(r)), c, complex(r)))
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
    return ZetaReport(q=q, s=series.s, model_length=length,
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


def _odd_prime_factors(n: int):
    n = abs(n)
    out = []
    while n % 2 == 0:
        n //= 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out


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
    always excluded.
    """
    s = Fraction(s)
    if s == 0 or s == 1:
        raise NotInBase("the parameter s must avoid 0 and 1")
    one_minus = 1 - s
    primes = set()
    for x in (s, one_minus):
        primes.update(_odd_prime_factors(x.numerator))
        primes.update(_odd_prime_factors(x.denominator))
    entries = []
    for p in sorted(primes):
        vs = _nu(p, s)
        vm = _nu(p, one_minus)
        if vs < 0:
            t = "Steinberg-U(7)"
        elif vm > 0:
            t = "U(3)+U(2)+U(2)"
        else:
            t = "none"
        entries.append((p, t, vs, vm))
    frac = s - 1
    shape_ok = bool(_odd_prime_factors(frac.numerator)
                    and _odd_prime_factors(frac.denominator))
    return LocalTypePrediction(s=s, entries=entries, shape_ok=shape_ok)
