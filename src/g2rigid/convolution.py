"""Matrix-tuple middle convolution and the search for the rank-7 triple.

A tuple holds the matrices at the finite points 0 and 1 (generally r finite
points); the matrix at infinity is the inverse of their ordered product, so
the product relation holds by construction and is re-verified after every
operation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import G2_RECIPE_LINES
from .errors import (DegenerateInput, InvalidLambda, InvalidScalar,
                     RecipeFormatError, RecipeNotFound, TooLarge)
from .matrix import Matrix, partition_from_ranks, rational_matrix
from .rings import QQ, prime_factors


class RigidTuple:
    """Invertible matrices (A_1, ..., A_r) with A_inf = (A_1 ... A_r)^-1.

    Invertibility is not rechecked here: the seed refuses a zero entry,
    and every operation maps invertible tuples to invertible tuples.
    """

    ring = QQ

    def __init__(self, matrices):
        if not matrices:
            raise ValueError("empty tuple")
        self.matrices = list(matrices)
        self.n = matrices[0].rows
        self._a_infinity = None
        self._profile = None
        for m in self.matrices:
            if not m.is_square() or m.rows != self.n:
                raise ValueError("tuple matrices must share one dimension")

    @property
    def r(self):
        return len(self.matrices)

    def a_infinity(self) -> Matrix:
        """(A_1 ... A_r)^-1, computed once per tuple."""
        if self._a_infinity is None:
            prod = Matrix.identity(self.n)
            for m in self.matrices:
                prod = prod * m
            self._a_infinity = prod.inverse()
        return self._a_infinity

    def all_points(self):
        return self.matrices + [self.a_infinity()]

    def product_relation_holds(self) -> bool:
        prod = Matrix.identity(self.n)
        for m in self.all_points():
            prod = prod * m
        return prod.is_identity()

    def is_all_identity(self) -> bool:
        return all(m.is_identity() for m in self.matrices)

    def denominator(self) -> int:
        """Least squarefree N with all entries (incl. A_inf) in Z[1/N]: the
        product of the primes dividing a matrix's common denominator
        (``rings.prime_factors``: TooLarge past its bound)."""
        return math.prod(prime_factors(
            math.lcm(*(m.den for m in self.all_points()))))

    def __repr__(self):
        return f"RigidTuple(n={self.n}, r={self.r})"


# ---------------------------------------------------------------------------
# rigidity bookkeeping

def centralizer_dim(M: Matrix) -> int:
    """dim {X : XM = MX}, via the n^2-dimensional commutator system.

    The fallback of ``rigidity_index`` and the oracle its Jordan-data
    formula is tested against.  The system is written on the numerators
    of M, which scales it by the denominator and keeps its rank."""
    N = M.num
    n = M.rows
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for l in range(n):
                row[i * n + l] += N[l][j]
            for k in range(n):
                row[k * n + j] -= N[i][k]
            rows.append(row)
    return n * n - Matrix(rows).rank()


def jordan_centralizer_dim(point) -> int | None:
    """Centralizer dimension of a matrix from one point of its
    ``local_profile``: the sum over eigenvalues of sum_{i,j}
    min(lambda_i, lambda_j) over the Jordan partition lambda (Katz, Rigid
    Local Systems, ch. 1).  None when the point has an 'other' entry,
    whose Jordan data the profile does not resolve."""
    if any(label == "other" for label, _ in point):
        return None
    return sum(min(a, b) for _, part in point for a in part for b in part)


def rigidity_index(t: RigidTuple) -> int:
    """(2-k) n^2 + sum of centralizer dimensions over all k singular points.

    Each point's centralizer dimension comes from its Jordan data in
    ``local_profile(t)``; a point with an 'other' entry, an eigenvalue
    besides +-1, falls back to the linear system of ``centralizer_dim``.
    """
    pts = t.all_points()
    k = len(pts)
    total = 0
    for m, point in zip(pts, local_profile(t)):
        dim = jordan_centralizer_dim(point)
        total += centralizer_dim(m) if dim is None else dim
    return (2 - k) * t.n * t.n + total


# ---------------------------------------------------------------------------
# local Jordan data

def local_profile(t: RigidTuple):
    """Eigenvalue/partition data at every point, A_inf last; computed once
    per tuple.

    Only the eigenvalues +-1 are resolved (all the tuples this artifact
    builds stay in that regime); the rest of the dimension is reported as
    ('other', leftover degree).
    """
    if t._profile is None:
        t._profile = tuple(
            point_profile(m.rows, [(str(ev), partition_from_ranks(
                m.rows, m.power_ranks(ev))) for ev in (1, -1)])
            for m in t.all_points())
    return t._profile


def point_profile(n, partitions):
    """Profile of one n x n point from its (eigenvalue label, Jordan
    partition) pairs: the nonempty pairs, plus ('other', leftover degree)
    when they do not fill the n dimensions, sorted."""
    entries = [(label, part) for label, part in partitions if part]
    accounted = sum(sum(part) for _, part in entries)
    if accounted < n:
        entries.append(("other", (n - accounted,)))
    return tuple(sorted(entries))


def profile_json(profile):
    """A ``point_profile`` tuple per point as JSON: labels and the parts
    of each partition as strings."""
    return [[[ev, [str(x) for x in part]] for ev, part in point]
            for point in profile]


def is_g2_profile(profile) -> bool:
    """Whether a ``local_profile`` is the target one: an involution at 0
    (two eigenvalue entries with all-ones partitions, no 'other'), a
    unipotent [3,2,2] at 1 and a unipotent [7] at infinity."""
    if len(profile) != 3:
        return False
    involution, unipotent, regular = profile
    return (len(involution) == 2
            and all(label != "other" and set(part) == {1}
                    for label, part in involution)
            and unipotent == (("1", (3, 2, 2)),)
            and regular == (("1", (7,)),))


def matches_g2_profile(t: RigidTuple) -> bool:
    """Rank 7; involution at 0; unipotent [3,2,2] at 1; [7] at inf."""
    return is_g2_profile(local_profile(t))


# ---------------------------------------------------------------------------
# operations

def scalar_twist(t: RigidTuple, scalars) -> RigidTuple:
    if len(scalars) != t.r:
        raise InvalidScalar("one scalar per finite point required")
    if any(c == 0 for c in scalars):
        raise InvalidScalar("twist scalars must be nonzero")
    return RigidTuple([m.scale(c) for m, c in zip(t.matrices, scalars)])


def rotate_points(t: RigidTuple) -> RigidTuple:
    """Relabel the punctures cyclically: (A_1, A_2) -> (A_inf, A_1).

    The new tuple has A_inf' = A_2; this is the tuple of the same local
    system pulled back along a Moebius transformation permuting {0,1,inf}.
    """
    if t.r != 2:
        raise ValueError("point relabeling implemented for triples only")
    return RigidTuple([t.a_infinity(), t.matrices[0]])


def swap_points(t: RigidTuple) -> RigidTuple:
    """Relabel the punctures 0 <-> 1: (A_1, A_2) -> (A_1 A_2 A_1^-1, A_1)."""
    if t.r != 2:
        raise ValueError("point relabeling implemented for triples only")
    a1, a2 = t.matrices
    return RigidTuple([a1 * a2 * a1.inverse(), a1])


def middle_convolution(t: RigidTuple, lam) -> RigidTuple:
    if lam == 0 or lam == 1:
        raise InvalidLambda("lambda must differ from 0 and 1")
    if t.is_all_identity():
        raise DegenerateInput("all-identity tuple has no middle convolution")
    r, n = t.r, t.n
    N = r * n
    I = Matrix.identity(n)

    bigs = []
    cond_rows = []
    for k in range(r):
        # k-th block row of B_k: (A_1-1, ..., A_{k-1}-1, lam*A_k,
        #                         lam*(A_{k+1}-1), ..., lam*(A_r-1)),
        # on one denominator; B_k is the identity elsewhere
        blocks = [t.matrices[j] - I if j < k
                  else t.matrices[j].scale(lam) if j == k
                  else (t.matrices[j] - I).scale(lam) for j in range(r)]
        den = math.lcm(*(b.den for b in blocks))
        block_row = [[x * (den // b.den) for b in blocks for x in b.num[a]]
                     for a in range(n)]
        rows = [[den * (i == j) for j in range(N)] for i in range(N)]
        rows[k * n:(k + 1) * n] = block_row
        bigs.append(Matrix(rows, den))
        # the k-th block row of B_k - 1, up to the factor den
        cond_rows += [[x - den * (j == k * n + a) for j, x in enumerate(row)]
                      for a, row in enumerate(block_row)]

    # invariant subspace K: kernels of A_k - 1, sitting in the k-th block;
    # invariant subspace L: common fixed space of the B_k
    kl_vectors = [[0] * (k * n) + v + [0] * ((r - k - 1) * n)
                  for k in range(r) for v in (t.matrices[k] - I).nullspace()]
    kl_vectors += Matrix(cond_rows).nullspace()

    # independent spanning set of K + L: the reduced rows m[:m_dim] / d
    m, pivots, d = (rational_matrix(kl_vectors)._echelon() if kl_vectors
                    else ([], [], 1))
    m_dim = len(pivots)
    if m_dim == N:
        raise DegenerateInput("middle convolution collapses to rank 0")

    pivot_set = set(pivots)
    # change of basis: columns = K+L basis, then complementary standard vectors
    cols = m[:m_dim] + [[d * (i == c) for i in range(N)]
                        for c in range(N) if c not in pivot_set]
    P = Matrix(zip(*cols), d)
    Pinv = P.inverse()

    new_mats = []
    for B in bigs:
        C = Pinv * B * P
        # K+L is invariant, so the lower-left block must vanish
        if any(x for row in C.num[m_dim:] for x in row[:m_dim]):
            raise AssertionError("invariant subspace not respected")
        new_mats.append(Matrix([row[m_dim:] for row in C.num[m_dim:]], C.den))
    out = RigidTuple(new_mats)
    if not out.product_relation_holds():
        raise AssertionError("product relation lost in middle convolution")
    return out


# ---------------------------------------------------------------------------
# recipes

@dataclass(frozen=True)
class Recipe:
    """Replayable construction: a rank-1 seed followed by twist / mc steps."""

    seed: tuple  # (c1, c2) in {+-1}
    steps: tuple = ()  # of ("twist", (c1, c2)) or ("mc", Fraction)

    def to_lines(self):
        lines = [f"seed {self.seed[0]} {self.seed[1]}"]
        for kind, arg in self.steps:
            if kind == "twist":
                lines.append(f"twist {arg[0]} {arg[1]}")
            elif kind == "mc":
                lines.append(f"mc {arg}")
            else:
                lines.append(kind)
        return lines

    @classmethod
    def from_lines(cls, lines):
        lines = [ln.strip() for ln in lines if ln.strip()]
        if not lines or not lines[0].startswith("seed "):
            raise RecipeFormatError(
                "recipe must start with a 'seed c1 c2' line")
        parts = lines[0].split()
        if len(parts) != 3:
            raise RecipeFormatError(f"bad seed line: {lines[0]!r}")
        seed = (_fraction(parts[1], lines[0]), _fraction(parts[2], lines[0]))
        steps = []
        for ln in lines[1:]:
            parts = ln.split()
            if parts[0] == "twist" and len(parts) == 3:
                steps.append(("twist", (_fraction(parts[1], ln),
                                        _fraction(parts[2], ln))))
            elif parts[0] == "mc" and len(parts) == 2:
                steps.append(("mc", _fraction(parts[1], ln)))
            elif parts[0] in ("rotate", "swap") and len(parts) == 1:
                steps.append((parts[0], None))
            else:
                raise RecipeFormatError(f"bad recipe line: {ln!r}")
        return cls(seed=seed, steps=tuple(steps))


def _fraction(text, line):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise RecipeFormatError(f"bad recipe line: {line!r}") from None


def seed_tuple(seed) -> RigidTuple:
    if any(c == 0 for c in seed):
        raise InvalidScalar("seed scalars must be nonzero")
    return RigidTuple([rational_matrix([[Fraction(c)]]) for c in seed])


# the largest rank a replayed recipe or a tuple kept by
# ``search_g2_recipe`` may reach: the rank of the G2 triple
MAX_RANK = 7


def realize(recipe: Recipe) -> RigidTuple:
    """Deterministic replay of a recipe over Q.  A step's cost grows
    about as the fourth power of the rank, so the first step that takes
    the tuple past MAX_RANK raises TooLarge."""
    t = seed_tuple(recipe.seed)
    for i, (kind, arg) in enumerate(recipe.steps, 1):
        if kind == "twist":
            t = scalar_twist(t, [Fraction(a) for a in arg])
        elif kind == "mc":
            t = middle_convolution(t, Fraction(arg))
        elif kind == "rotate":
            t = rotate_points(t)
        elif kind == "swap":
            t = swap_points(t)
        else:
            raise RecipeFormatError(f"unknown step {kind!r}")
        if t.n > MAX_RANK:
            raise TooLarge(f"recipe step {i} ({kind}) takes the tuple to "
                           f"rank {t.n}, past the bound {MAX_RANK}")
        if not t.product_relation_holds():
            raise AssertionError("product relation lost during replay")
        if t.n > 1 and rigidity_index(t) != 2:
            raise AssertionError("rigidity index drifted during replay")
    return t


# the bounds of ``search_g2_recipe`` besides MAX_RANK: middle
# convolutions along a path, and the tuples visited
SEARCH_MAX_MC_STEPS = 8
SEARCH_MAX_NODES = 20000


_SEEDS = ((Fraction(-1), Fraction(-1)), (Fraction(-1), Fraction(1)),
          (Fraction(1), Fraction(-1)))
_TWISTS = ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)),
           (Fraction(-1), Fraction(-1)))


# the six relabelings of {0, 1, inf}, as rotate/swap step sequences
_POINT_PERMS = (
    (),
    (("rotate", None),),
    (("rotate", None), ("rotate", None)),
    (("swap", None),),
    (("swap", None), ("rotate", None)),
    (("swap", None), ("rotate", None), ("rotate", None)),
)

# a relabeling step moves the point profiles (p_0, p_1, p_inf): rotate
# gives (p_inf, p_0, p_1); swap gives (p_1, p_0, p_inf), as A_1 A_2 A_1^-1
# is conjugate to A_2 and the new A_inf is the old one
_STEP_ORDER = {"rotate": (2, 0, 1), "swap": (1, 0, 2)}


def _permute_profile(profile, perm):
    """``local_profile`` of a triple relabeled by the steps ``perm``."""
    for kind, _ in perm:
        profile = tuple(profile[i] for i in _STEP_ORDER[kind])
    return profile


def g2_recipe() -> Recipe:
    return Recipe.from_lines(G2_RECIPE_LINES)


def g2_triple() -> RigidTuple:
    """The rank-7 triple: involution, unipotent [3,2,2], unipotent [7]."""
    t = realize(g2_recipe())
    if not matches_g2_profile(t):
        raise AssertionError("frozen recipe no longer realizes the triple")
    return t


def search_g2_recipe() -> Recipe:
    """Breadth-first search over {+-1}-twists and MC_{-1} steps.

    Every visited tuple's profile is tested against the target in all six
    labelings of the punctures; the matching relabeling is appended to the
    recipe as rotate/swap steps.  Returns the first hit in deterministic
    expansion order.
    """
    lam = Fraction(-1)
    queue = deque()
    seen = set()
    for seed in _SEEDS:
        t = seed_tuple(seed)
        queue.append((Recipe(seed=seed), t, 0))
    nodes = 0
    while queue:
        recipe, t, mc_used = queue.popleft()
        nodes += 1
        if nodes > SEARCH_MAX_NODES:
            break
        profile = local_profile(t)
        for perm in _POINT_PERMS:
            if is_g2_profile(_permute_profile(profile, perm)):
                return Recipe(recipe.seed, recipe.steps + perm)
        if mc_used >= SEARCH_MAX_MC_STEPS:
            continue
        # convolve directly, then after each nontrivial twist
        pre_steps = [()] + [(("twist", tw),) for tw in _TWISTS]
        for pre in pre_steps:
            base = t
            for _kind, arg in pre:
                base = scalar_twist(base, list(arg))
            if base.is_all_identity():
                continue
            try:
                conv = middle_convolution(base, lam)
            except DegenerateInput:
                continue
            if conv.n > MAX_RANK:
                continue
            key = (conv.n, local_profile(conv))
            if key in seen:
                continue
            seen.add(key)
            queue.append((Recipe(recipe.seed,
                                 recipe.steps + pre + (("mc", lam),)),
                          conv, mc_used + 1))
    raise RecipeNotFound(
        f"no recipe found within bounds (visited {nodes} nodes)")
