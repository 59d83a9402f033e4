"""Correctness checks on CLI reports, computed apart from the program.

Nothing here imports g2rigid.  Matrices are checked with this module's
own exact rational and mod-l arithmetic, group data against class
equations and Clebsch-Gordan, and character sums against a pointwise
enumeration over fields built here (or, beyond what enumeration can
afford, against a stored reference that bench/make_reference.py
regenerates under a second field modulus).

Each check returns a list of problems; an empty list means the operation
passed.  A problem that starts with KNOWN_FAULT is the one fault the
benchmark expects today (see bench/README.md); it fails the operation
without making the run incorrect.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

from workloads import DEFAULT_SERIES_NAIVE_BUDGET, options

KNOWN_FAULT = "known fault: "
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_series.json")
# largest number of points the pointwise enumeration visits (17^6 fits)
ENUMERATION_LIMIT = 25 * 10 ** 6
# the two forms of a bigness failure on a 1-dimensional character summand
CHARACTER_LINE_FAILURE = re.compile(
    r"no eigenspace witness for summand \d+ \(dimension 1\)"
    r"|component \d+: 1-dimensional stable subspace admits no witness "
    r"for any of its submodules")
WEIL_REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# exact matrices over Q and F_l

def parse_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def mat_add_scalar(a, c):
    return [[x + (c if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(a)]


def rank(m):
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [list(r) for r in m]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def unipotent_partition(a):
    """Jordan type of a unipotent matrix from the ranks of (A - I)^j.

    Returns None when A - I is not nilpotent.
    """
    n = len(a)
    nil = mat_add_scalar(a, -1)
    ranks = [n]
    power = identity(n)
    for _ in range(n):
        power = mat_mul(power, nil)
        ranks.append(rank(power))
    if ranks[-1]:
        return None
    at_least = [ranks[j - 1] - ranks[j] for j in range(1, n + 1)] + [0]
    parts = []
    for size in range(n, 0, -1):
        parts += [size] * (at_least[size - 1] - at_least[size])
    return tuple(parts)


def centralizer_dim(jordan):
    """dim of the centralizer from Jordan data {eigenvalue: partition}."""
    return sum(min(a, b) for part in jordan.values() for a in part
               for b in part)


def reduce_mod(m, ell):
    out = []
    for row in m:
        new = []
        for x in row:
            if x.denominator % ell == 0:
                return None
            new.append(x.numerator * pow(x.denominator, -1, ell) % ell)
        out.append(new)
    return out


def mat_mul_mod(a, b, ell):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % ell for col in cols]
            for row in a]


# ---------------------------------------------------------------------------
# per-command checks

def check_triple(out):
    problems = []
    a0, a1 = (parse_matrix(m) for m in out["matrices"])
    ainf = parse_matrix(out["a_infinity"])
    n = len(a0)
    ident = identity(n)
    if mat_mul(a0, a0) != ident:
        problems.append("A0^2 != I")
    if mat_mul(mat_mul(a0, a1), ainf) != ident:
        problems.append("A0 A1 Ainf != I")
    plus = n - rank(mat_add_scalar(a0, -1))
    minus = n - rank(mat_add_scalar(a0, 1))
    if plus + minus != n or 0 in (plus, minus):
        problems.append(f"A0 is not a proper involution ({plus}, {minus})")
    j1 = unipotent_partition(a1)
    jinf = unipotent_partition(ainf)
    if j1 != (3, 2, 2):
        problems.append(f"A1 Jordan type {j1}, expected (3, 2, 2)")
    if jinf != (7,):
        problems.append(f"Ainf Jordan type {jinf}, expected (7,)")
    if not problems:
        points = [{"1": (1,) * plus, "-1": (1,) * minus},
                  {"1": j1}, {"1": jinf}]
        rigidity = (2 - len(points)) * n * n + sum(
            centralizer_dim(p) for p in points)
        if rigidity != 2:
            problems.append(f"rigidity index from Jordan data {rigidity}")
        if out["rigidity_index"] != str(rigidity):
            problems.append(f"reported rigidity {out['rigidity_index']}, "
                            f"Jordan data gives {rigidity}")
        reported = [{ev: tuple(sorted((int(x) for x in part), reverse=True))
                     for ev, part in point} for point in out["profile"]]
        expected = [{ev: part for ev, part in p.items() if part}
                    for p in points]
        if reported != expected:
            problems.append(f"reported profile {out['profile']}")
    # the paper's constants: unique invariant forms, stabilizer g2
    if out["invariant_form_dims"] != ["1", "1"]:
        problems.append(f"invariant form dims {out['invariant_form_dims']}")
    if out["lie_stabilizer_dim"] != "14":
        problems.append(f"stabilizer dim {out['lie_stabilizer_dim']} != 14")
    return problems


def check_certify(out, triple, ells):
    problems = []
    if triple is None:
        return ["no triple report to reduce"]
    mats = [parse_matrix(m) for m in triple["matrices"]]
    mats.append(parse_matrix(triple["a_infinity"]))
    recs = out["per_ell"]
    if [r.get("ell") for r in recs] != [str(e) for e in ells]:
        problems.append(f"certified primes {[r.get('ell') for r in recs]}")
    for ell, rec in zip(ells, recs):
        red = [reduce_mod(m, ell) for m in mats]
        if any(m is None for m in red):
            problems.append(f"ell={ell} divides a denominator")
            continue
        prod = mat_mul_mod(mat_mul_mod(red[0], red[1], ell), red[2], ell)
        if prod != [[int(i == j) for j in range(len(prod))]
                    for i in range(len(prod))]:
            problems.append(f"product relation fails mod {ell}")
        if rec.get("verdict") != "Generates":
            problems.append(f"ell={ell}: verdict {rec.get('verdict')}")
        if rec.get("enveloping_dim") != "49":
            problems.append(f"ell={ell}: enveloping dim "
                            f"{rec.get('enveloping_dim')}")
    if out["summary"] != "Generates":
        problems.append(f"summary {out['summary']}")
    return problems


def check_hmodule(out, ellprime):
    problems = []
    if out["ellprime"] != str(ellprime):
        problems.append(f"ellprime {out['ellprime']}")
    sizes = sorted(int(x) for x in out["class_sizes"])
    if sizes != [1, 7] + [8] * 6 or sum(sizes) != int(out["order"]) \
            or out["order"] != "56" or out["num_conjugacy_classes"] != "8":
        problems.append(f"class equation fails: {sizes} vs {out['order']}")
    dec = out["decomposition"]
    pairs = [[int(d), int(m)] for d, m in dec["constituents"]]
    if pairs != [[1, 7], [7, 6]] or \
            sum(d * m for d, m in pairs) != int(dec["module_dimension"]) \
            or dec["module_dimension"] != "49":
        problems.append(f"decomposition {dec}")
    big = out["bigness"]
    if big["h0_ad0_dim"] != "0" or big["h1_ad0_dim"] != "0":
        problems.append(f"h0={big['h0_ad0_dim']} h1={big['h1_ad0_dim']}")
    seven = {w[0] for w in big["witnesses"] if w[1] == "7"}
    if len(seven) != 6:
        problems.append(f"{len(seven)} witnesses for 7-dim summands")
    # the documented finding: only the character lines lack a witness
    if big["verdict"] != "Fails" or not big["failures"] or not all(
            CHARACTER_LINE_FAILURE.fullmatch(f) for f in big["failures"]):
        problems.append(f"bigness verdict {big['verdict']}: "
                        f"{big['failures']}")
    return problems


def check_sl2(out, ell, power):
    # Clebsch-Gordan: Sym^m (x) Sym^m = Sym^0 + Sym^2 + ... + Sym^2m
    expected = [[str(2 * j + 1), "1"] for j in range(power + 1)]
    dec = out["decomposition"]
    problems = []
    if out["ell"] != str(ell) or out["power"] != str(power):
        problems.append(f"echoed ell={out['ell']} power={out['power']}")
    if dec["constituents"] != expected or \
            dec["module_dimension"] != str((power + 1) ** 2):
        problems.append(f"decomposition {dec}")
    return problems


def check_terms(terms, q, s, variant):
    problems = []
    for k, t in enumerate(terms, 1):
        want = expected_term(q, s % q, variant, k)
        if want is None:
            problems.append(f"no independent value for T_{k}")
        elif int(t) != want:
            problems.append(f"T_{k} = {t}, expected {want}")
    return problems


def check_count(out, q, s, variant, kmax, budget):
    problems = []
    if (out["q"], out["s"], out["variant"]) != (str(q), str(s % q), variant):
        problems.append(f"echoed q={out['q']} s={out['s']}")
    if len(out["terms"]) != kmax:
        problems.append(f"{len(out['terms'])} terms for kmax={kmax}")
    problems += check_terms(out["terms"], q, s, variant)
    # the naive oracle runs on every field whose 6-space fits the budget
    crossed = [str(k) for k in range(1, kmax + 1) if q ** (6 * k) <= budget]
    if out["cross_checked_k"] != crossed:
        problems.append(f"cross-checked k {out['cross_checked_k']}, "
                        f"expected {crossed}")
    return problems


def check_zeta(out, q, s, variant, kmax):
    problems = check_terms(out["series"]["terms"], q, s, variant)
    if len(out["series"]["terms"]) != kmax:
        problems.append(f"{len(out['series']['terms'])} terms")
    analysis = out["analysis"]
    if not analysis["underdetermined"] and \
            float(analysis["max_modulus"]) > q ** 3 * (1 + WEIL_REL_TOL):
        # a real series never exceeds the weight-6 bound q^3
        problems.append(
            f"{KNOWN_FAULT}zeta treats a {analysis['model_length']}-term "
            f"fit to {len(out['series']['terms'])} terms as determined and "
            f"reports modulus {float(analysis['max_modulus']):.4g} > {q ** 3}")
    elif analysis["inconsistent"]:
        problems.append("no recurrence reproduces the terms")
    return problems


def check_report(cmd, rc, stdout, context):
    """Problems with one CLI invocation's report.

    ``context`` carries what earlier commands of the same pass produced:
    the triple report, which certify's check reduces mod l.
    """
    try:
        env = json.loads(stdout)
    except ValueError:
        return [f"exit {rc}, stdout is not a JSON report"]
    name = cmd[0]
    if env.get("command") != name or rc != (0 if env["passed"] else 1):
        return [f"exit {rc} with command={env.get('command')} "
                f"passed={env.get('passed')}"]
    out = env["outputs"]
    if "error" in out:
        return [f"error report: {out['error']}"]
    opt = options(cmd)
    if name == "triple":
        context["triple"] = out
        problems = check_triple(out)
        expect_passed = True
    elif name == "certify":
        ells = [int(x) for x in opt["--ell"].split(",")]
        problems = check_certify(out, context.get("triple"), ells)
        expect_passed = True
    elif name == "hmodule":
        problems = check_hmodule(out, int(opt["--ellprime"]))
        expect_passed = False  # the bigness finding: exit 1 by design
    elif name == "sl2":
        problems = check_sl2(out, int(opt["--ell"]), int(opt["--power"]))
        expect_passed = True
    elif name in ("count", "zeta"):
        q, s = int(opt["--q"]), int(opt["--s"])
        variant = opt.get("--variant", "consecutive")
        kmax = int(opt.get("--kmax", 7))
        if name == "count":
            budget = int(opt.get("--budget", DEFAULT_SERIES_NAIVE_BUDGET))
            problems = check_count(out, q, s, variant, kmax, budget)
        else:
            problems = check_zeta(out, q, s, variant, kmax)
        expect_passed = True
    else:
        return [f"no check for command {name}"]
    if env["passed"] != expect_passed and not any(
            p.startswith(KNOWN_FAULT) for p in problems):
        problems.append(f"passed={env['passed']}")
    return problems


def strip_duration(stdout):
    env = json.loads(stdout)
    env.pop("duration_s", None)
    return env


# ---------------------------------------------------------------------------
# character sums by pointwise enumeration

def _no_root(f, q):
    return all(sum(c * x ** i for i, c in enumerate(f)) % q
               for x in range(q))


@lru_cache(maxsize=None)
def field_tables(q, k):
    """(add, mul) tables of F_{q^k}, elements encoded as sum c_i q^i.

    Built from polynomial arithmetic modulo a monic polynomial of degree
    k without roots in F_q, which is irreducible for k <= 3.  The search
    runs from the largest constant term down, so the presentation differs
    from the program's smallest-modulus choice.
    """
    if k > 3:
        raise ValueError("enumeration fields stop at degree 3")
    n = q ** k
    modulus = None
    if k > 1:
        for code in range(q ** k - 1, -1, -1):
            f = [(code // q ** i) % q for i in range(k)] + [1]
            if _no_root(f, q):
                modulus = f
                break
    digits = [[(e // q ** i) % q for i in range(k)] for e in range(n)]

    def encode(c):
        return sum(x * q ** i for i, x in enumerate(c))

    def polymul(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):  # reduce by the monic modulus
            c = prod[d]
            if c:
                for i in range(k + 1):
                    prod[d - k + i] -= c * modulus[i]
        return [x % q for x in prod[:k]]

    add = np.array([[encode([(x + y) % q for x, y in zip(a, b)])
                     for b in digits] for a in digits], dtype=np.int64)
    mul = np.array([[encode(polymul(a, b)) for b in digits]
                    for a in digits], dtype=np.int64)
    return add, mul


def enumerate_t(q, k, s, variant="consecutive"):
    """T = sum over F_{q^k}^6 of chi(f_s(x)), evaluated point by point.

    f_s = s (x2-x1)(x3-x2)(x4-x3)(x5-x4)(x6-x5)(s-x6) [(x1-s) if cyclic]
          x1 x3 x5 (x1-1)(x2-1)(x4-1)(x6-1).
    The factors in x3..x6 alone are evaluated once on the n^4 grid; for
    each (x1, x2) the remaining factors multiply that grid, so f_s is
    still evaluated at every one of the n^6 points.
    """
    add, mul = field_tables(q, k)
    n = q ** k
    neg = np.array([int(np.flatnonzero(add[a] == 0)[0]) for a in range(n)])
    sub = add[:, neg]  # sub[a, b] = a - b
    squares = set(int(mul[x, x]) for x in range(1, n))
    chi = np.array([0] + [1 if u in squares else -1 for u in range(1, n)])
    one = 1
    s = s % q  # s lies in the prime field, encoded as itself
    x = np.arange(n)
    g = np.meshgrid(x, x, x, x, indexing="ij")  # x3, x4, x5, x6
    x3, x4, x5, x6 = (a.reshape(-1) for a in g)
    inner = mul[sub[x4, x3], sub[x5, x4]]
    for f in (sub[x6, x5], sub[s, x6], x3, x5, sub[x4, one], sub[x6, one]):
        inner = mul[inner, f]
    total = 0
    for x2 in range(n):
        linked = mul[sub[x3, x2], inner]
        for x1 in range(n):
            c = mul[mul[s, sub[x2, x1]], mul[x1, sub[x1, one]]]
            c = mul[c, sub[x2, one]]
            if variant == "cyclic":
                c = mul[c, sub[x1, s]]
            total += int(chi[mul[c, linked]].sum())
    return total


@lru_cache(maxsize=None)
def stored_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def expected_term(q, s, variant, k):
    """Independent T_k: enumerated where affordable, else the stored value."""
    if (q ** k) ** 6 <= ENUMERATION_LIMIT:
        return enumerate_t(q, k, s, variant)
    ref = stored_reference()
    if (ref["q"], ref["s"], ref["variant"]) == (q, s % q, variant) \
            and k <= len(ref["terms"]):
        return int(ref["terms"][k - 1])
    return None
