"""Finite matrix groups and adjoint-module certificates.

Covers the order-56 monomial group (the additive group of the field with
eight elements extended by its multiplicative group), the symmetric-power
representations of SL2, decomposition of conjugation modules, and the
"bigness" conditions: adjoint cohomology vanishing in degrees 0 and 1
plus the one-dimensional-eigenspace witness condition.

Generators, group elements and modules are int64 arrays mod p
(``modlinalg``) from construction on, which bounds p below 2^31.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (BadCharacteristic, BadResidue, NegativePower,
                     NotOrdinary, TooLarge, TooSmallPrime)
from .modlinalg import (annihilator, enveloping_dim, extend_basis,
                        in_rowspace, inv_mod, matmul_mod, mod_array, np,
                        nullspace_mod, pivot_columns, rank_mod, row_basis,
                        singular_shifts, span_closure)
from .rings import is_prime

ORDER_BOUND = 100000  # materialize refuses a larger group


class FiniteMatrixGroup:
    """Group of n x n matrices mod p given by a (k, n, n) generator stack;
    elements materialized on demand."""

    def __init__(self, p, generators):
        self.p = p
        self.generators = mod_array(generators, p)
        self._elements = None

    def materialize(self):
        """Element stack, closed under products, breadth-first from the
        identity (element 0); TooLarge past ORDER_BOUND elements."""
        if self._elements is not None:
            return self._elements
        n = self.generators.shape[1]
        ident = np.eye(n, dtype=np.int64)
        seen = {ident.tobytes()}
        order = [ident]
        frontier = [ident]
        while frontier:
            front = np.stack(frontier)
            # products m * g, by frontier element m, then generator g
            prods = np.stack([matmul_mod(front, g, self.p)
                              for g in self.generators], axis=1)
            frontier = []
            for prod in prods.reshape(-1, n, n):
                key = prod.tobytes()
                if key not in seen:
                    if len(order) >= ORDER_BOUND:
                        raise TooLarge(
                            f"group exceeds order bound {ORDER_BOUND}")
                    seen.add(key)
                    order.append(prod)
                    frontier.append(prod)
        self._elements = np.stack(order)
        return self._elements

    @property
    def order(self):
        return len(self.materialize())


def _positions(elements, mats):
    """Index in the element stack of each matrix of the stack ``mats``."""
    index = {m.tobytes(): i for i, m in enumerate(elements)}
    return [index[m.tobytes()] for m in mats]


def conjugacy_classes(group: FiniteMatrixGroup):
    """Partition of the element list into conjugacy classes (orbit search)."""
    p = group.p
    elements = group.materialize()
    conj = []  # conj[s][i]: index of g_s x_i g_s^-1
    for g in group.generators:
        # g X as (X^T g^T)^T: matmul_mod takes the batch on the left
        left = matmul_mod(elements.transpose(0, 2, 1), g.T, p)
        conj.append(_positions(elements, matmul_mod(
            left.transpose(0, 2, 1), inv_mod(g, p), p)))
    assigned = [False] * len(elements)
    classes = []
    for i in range(len(elements)):
        if assigned[i]:
            continue
        cls = [i]
        assigned[i] = True
        frontier = [i]
        while frontier:
            x = frontier.pop()
            for perm in conj:
                j = perm[x]
                if not assigned[j]:
                    assigned[j] = True
                    cls.append(j)
                    frontier.append(j)
        classes.append(sorted(cls))
    return classes


# ---------------------------------------------------------------------------
# the order-56 monomial group

_F8_MODULUS = 0b1011  # z^3 + z + 1, primitive over F_2


def _f8_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0b1000:
            a ^= _F8_MODULUS
    return acc


def _f8_trace(a: int) -> int:
    t = a ^ _f8_mul(a, a) ^ _f8_mul(_f8_mul(a, a), _f8_mul(a, a))
    # the trace lands in {0, 1}
    return t & 1


def _f8_inv(a: int) -> int:
    for b in range(1, 8):
        if _f8_mul(a, b) == 1:
            return b
    raise ZeroDivisionError("inverse of 0 in the field of eight elements")


def build_h56(ellprime: int) -> FiniteMatrixGroup:
    """The order-56 monomial group in GL_7(F_ellprime).

    Basis indexed by the seven nontrivial additive characters of the field
    with eight elements; the additive part acts diagonally by character
    values (signs), the multiplicative part permutes the basis cyclically.
    """
    if not is_prime(ellprime) or ellprime % 7 != 1:
        raise BadResidue(f"{ellprime} is not a prime congruent to 1 mod 7")
    if 56 % ellprime == 0:
        raise BadCharacteristic(f"{ellprime} divides the group order 56")
    gen = 2  # the class of z generates the multiplicative group
    labels = []
    t = 1
    for _ in range(7):
        labels.append(t)
        t = _f8_mul(t, gen)
    pos = {t: i for i, t in enumerate(labels)}
    # translation by u = 1: diagonal of character values psi_t(1) = (-1)^tr(t)
    diag = np.diag([-1 if _f8_trace(t) else 1 for t in labels])
    # multiplication by gen: e_t -> e_{t * gen^-1}
    gi = _f8_inv(gen)
    perm = np.zeros((7, 7), dtype=np.int64)
    for i, t in enumerate(labels):
        perm[pos[_f8_mul(t, gi)], i] = 1
    return FiniteMatrixGroup(ellprime, [diag, perm])


# ---------------------------------------------------------------------------
# symmetric powers of the standard SL2 representation

@dataclass
class Sl2SymRep:
    """SL2(F_ell) on degree-m binary forms, given by two unipotent
    generators (a (2, m + 1, m + 1) int64 stack mod ell)."""

    p: int
    generators: np.ndarray
    m: int


def _sym_power_matrix(a, b, c, d, m, p):
    """Action of [[a,b],[c,d]] on the basis x^(m-i) y^i, columns = images."""
    out = np.zeros((m + 1, m + 1), dtype=np.int64)
    for i in range(m + 1):
        # (a x + c y)^(m-i) (b x + d y)^i, coefficients by degree in y
        poly = np.ones(1, dtype=np.int64)
        for u, v in [(a, c)] * (m - i) + [(b, d)] * i:
            poly = np.convolve(poly, [u, v]) % p
        out[:, i] = poly
    return out


def sym_power_rep(ell: int, m: int) -> Sl2SymRep:
    if m < 0:
        raise NegativePower(f"need a power m >= 0, got {m}")
    if not is_prime(ell) or ell == 2:
        raise BadCharacteristic(f"need an odd prime, got {ell}")
    if ell <= 2 * m + 1:
        raise TooSmallPrime(f"need ell > {2 * m + 1}, got {ell}")
    upper = _sym_power_matrix(1, 1, 0, 1, m, ell)
    lower = _sym_power_matrix(1, 0, 1, 1, m, ell)
    return Sl2SymRep(p=ell, generators=mod_array([upper, lower], ell), m=m)


# ---------------------------------------------------------------------------
# conjugation (adjoint) modules

def adjoint_action(g, p):
    """Conjugation X -> g X g^-1 on row-flattened n x n matrices.

    Entry (i n + j, k n + l) is g[i, k] g^-1[l, j], i.e. kron(g, g^-T).
    """
    return np.kron(g, inv_mod(g, p).T) % p


def _log_unipotent(U, p):
    """log of a unipotent matrix via the truncated series (char > nilpotency)."""
    eye = np.eye(U.shape[0], dtype=np.int64)
    N = (U - eye) % p
    acc = np.zeros_like(U)
    power = eye
    k = 1
    while True:
        power = matmul_mod(power, N, p)
        if not power.any():
            break
        if k >= p:
            raise NotOrdinary("unipotent log undefined: nilpotency >= char")
        coeff = (-1 if k % 2 == 0 else 1) * pow(k, p - 2, p) % p
        acc = (acc + coeff * power) % p
        k += 1
    return acc


def _casimir_on_adjoint(gens, p):
    """EF + FE + H^2/2 built from logs of the two unipotent generators."""
    E, Fo = (_log_unipotent(adjoint_action(g, p), p) for g in gens)
    EF = matmul_mod(E, Fo, p)
    FE = matmul_mod(Fo, E, p)
    H = (EF - FE) % p
    half = pow(2, p - 2, p)
    return (EF + FE + half * matmul_mod(H, H, p) % p) % p


def _shift(theta, a, p):
    return (theta - a * np.eye(theta.shape[0], dtype=np.int64)) % p


def _eigen_split(theta, p):
    """G-stable eigenspace decomposition of the ambient space, or None.

    Returns row bases (reduced echelon) of the eigenspaces, by ascending
    eigenvalue, whose dimensions sum to the full space exactly when theta
    is diagonalizable with all eigenvalues in the ground field.
    """
    n = theta.shape[0]
    spaces = []
    total = 0
    for a in singular_shifts(theta, p):
        space = row_basis(nullspace_mod(_shift(theta, a, p), p), p)
        spaces.append(space)
        total += space.shape[0]
        if total == n:
            return spaces
    return None


def _restrict(mats, basis, p):
    """Action matrices restricted to the invariant span of the rows of
    ``basis`` (reduced echelon), in the coordinates of those rows."""
    pivots = pivot_columns(basis)
    out = []
    for M in mats:
        images = matmul_mod(basis, M.T, p)  # row i: M applied to row i
        coords = images[:, pivots]
        if (matmul_mod(coords, basis, p) != images).any():
            raise AssertionError("subspace is not invariant")
        out.append(coords.T)
    return out


def _quotient(mats, sub, p):
    """Action on the quotient by the invariant span of the rows of ``sub``
    (reduced echelon), in the standard coordinates off its pivots."""
    pivots = pivot_columns(sub)
    taken = set(pivots.tolist())  # np.setdiff1d would import numpy.ma
    compl = np.array([j for j in range(sub.shape[1]) if j not in taken],
                     dtype=np.intp)
    lift = sub[:, compl].T
    return [(M[np.ix_(compl, compl)]
             - matmul_mod(lift, M[np.ix_(pivots, compl)], p)) % p
            for M in mats]


def _spin(mats, rows, p):
    """Row basis (reduced echelon) of the submodule generated by ``rows``."""
    return span_closure(
        rows, lambda front: np.concatenate(
            [matmul_mod(front, M.T, p) for M in mats]), p)


def _word_elements(mats, p, tries):
    """Deterministic sequence of algebra elements built from generator words."""
    n = mats[0].shape[0]
    state = 1
    for _ in range(tries):
        acc = np.zeros((n, n), dtype=np.int64)
        word = np.eye(n, dtype=np.int64)
        for _step in range(4):
            state = (state * 48271) % 2147483647
            word = matmul_mod(word, mats[state % len(mats)], p)
            state = (state * 48271) % 2147483647
            acc = (acc + (1 + state % (p - 1)) * word) % p
        yield acc


def _composition_dims(mats, p, tries=12):
    """Composition factor dimensions of the module with given action.

    A vector in the kernel of theta - a I, for each singular shift a of
    each word element theta in turn, is spun up; a proper submodule
    splits the module into it and its quotient.  When the spin fills the
    module and that kernel is one-dimensional, Norton's test decides:
    a vector of the kernel of (theta - a I)^T is spun under the
    transposed generators.  A proper spin there is the annihilator of a
    proper submodule, which splits the module; a full one certifies it
    irreducible, and absolutely so, since End(M) is a division algebra
    acting on the one-dimensional kernel, hence F_p.  A module no kernel
    decided is tested by Burnside's criterion at the end: an enveloping
    algebra of all dim x dim matrices.
    """
    dim = mats[0].shape[0]
    if dim == 1:
        return [1]
    for theta in _word_elements(mats, p, tries):
        for a in singular_shifts(theta, p):
            shifted = _shift(theta, a, p)
            kernel = nullspace_mod(shifted, p)
            sub = _spin(mats, kernel[0].reshape(1, -1), p)
            if sub.shape[0] == dim and len(kernel) == 1:
                dual = _spin([M.T for M in mats],
                             nullspace_mod(shifted.T, p)[0].reshape(1, -1), p)
                if dual.shape[0] == dim:
                    return [dim]
                sub = annihilator(dual, p)
            if sub.shape[0] < dim:
                return (_composition_dims(_restrict(mats, sub, p), p)
                        + _composition_dims(_quotient(mats, sub, p), p))
    if enveloping_dim(mats, p) == dim * dim:
        return [dim]
    raise NotOrdinary("module neither splits nor certifies irreducible")


@dataclass
class DecompositionReport:
    """Histogram of direct-summand dimensions of a conjugation module."""

    dimension: int
    pairs: tuple  # sorted ((constituent dim, number of summands), ...)
    # (row basis of the eigenspace, constituent dim or None if mixed)
    isotypic: list = field(default_factory=list)

    def to_json(self):
        return {
            "module_dimension": str(self.dimension),
            "constituents": [[str(d), str(m)] for d, m in self.pairs],
        }


def adjoint_decomposition(rep, classes=None) -> DecompositionReport:
    """Direct-sum decomposition of the conjugation action on n x n matrices.

    The module is split along eigenspaces of explicit equivariant
    operators (class sums in the ordinary case; a Casimir operator built
    from generator logs for the symmetric-power SL2 case), and each piece
    is certified by composition splitting, with Norton's test (or, failing
    that, the full-matrix-algebra criterion) for the irreducible leaves.

    ``classes`` are the group's ``conjugacy_classes`` when the caller
    already has them; otherwise they are computed here.
    """
    if isinstance(rep, Sl2SymRep):
        p, gens = rep.p, rep.generators
        ops = [_casimir_on_adjoint(gens, p)]
    elif isinstance(rep, FiniteMatrixGroup):
        p, gens, elements = rep.p, rep.generators, rep.materialize()
        if len(elements) % p == 0:
            raise NotOrdinary(
                f"characteristic {p} divides the group order {len(elements)}")
        if classes is None:
            classes = conjugacy_classes(rep)
        ops = [sum(adjoint_action(elements[i], p) for i in cls) % p
               for cls in classes]
    else:
        raise TypeError("expected a matrix group or symmetric-power rep")

    ad_gens = [adjoint_action(g, p) for g in gens]
    n2 = ad_gens[0].shape[0]
    # deterministic generic combinations of the equivariant operators,
    # then the operators individually as a fallback
    combos = [sum(pow(w, i + 1, p) * op % p for i, op in enumerate(ops)) % p
              for w in range(2, 5)]
    combos.extend(ops)
    split = None
    for theta in combos:
        spaces = _eigen_split(theta, p)
        if spaces is not None and (split is None or len(spaces) > len(split)):
            split = spaces
            if len(split) > 1:
                break
    if split is None:
        raise NotOrdinary("no equivariant operator split the module")

    pairs = {}
    isotypic = []
    for basis in split:
        dims = _composition_dims(_restrict(ad_gens, basis, p), p)
        if len(set(dims)) != 1:
            # mixed eigenspace: record factors individually
            for d in dims:
                pairs[d] = pairs.get(d, 0) + 1
            isotypic.append((basis, None))
            continue
        d = dims[0]
        pairs[d] = pairs.get(d, 0) + len(dims)
        isotypic.append((basis, d))
    total = sum(d * m for d, m in pairs.items())
    if total != n2:
        raise AssertionError("decomposition does not fill the module")
    return DecompositionReport(dimension=n2,
                               pairs=tuple(sorted(pairs.items())),
                               isotypic=isotypic)


# ---------------------------------------------------------------------------
# adjoint cohomology and the bigness certificate

def fixed_space_dim(group: FiniteMatrixGroup) -> int:
    """Dimension of the conjugation-fixed subspace of trace-zero matrices."""
    p = group.p
    n = group.generators.shape[1]
    eye = np.eye(n * n, dtype=np.int64)
    rows = [(adjoint_action(g, p) - eye) % p for g in group.generators]
    rows.append(np.eye(n, dtype=np.int64).reshape(1, -1))  # the trace
    return n * n - rank_mod(np.concatenate(rows), p)


def h1_dim(group: FiniteMatrixGroup, h0=None) -> int:
    """dim H^1(G, trace-zero conjugation module) by cocycle propagation.

    A cocycle f with f(gh) = f(g)·h + f(h) is determined by its values on
    the generators; propagating those symbolic values over the Cayley
    graph and collecting the consistency equations cuts out the cocycle
    space, from which the coboundary dimension is subtracted.  B^1 lies in
    Z^1, so the relations never cut Z^1 below B^1: once they reach that
    rank, H^1 = 0 and the propagation stops.  ``h0`` is
    ``fixed_space_dim(group)`` when the caller already has it.
    """
    p = group.p
    gens, elements = group.generators, group.materialize()
    n = gens.shape[1]
    n2 = n * n
    k = len(gens)
    if h0 is None:
        h0 = fixed_space_dim(group)
    b1 = (n2 - 1) - h0
    # right Cayley graph: times[si][gi] is the index of element gi * gen si
    times = [_positions(elements, matmul_mod(elements, s, p)) for s in gens]
    # right action matrices X -> g^-1 X g
    acts = [adjoint_action(inv_mod(g, p), p) for g in gens]
    unknowns = k * n2
    # trace-zero constraint on the generator values, then the consistency
    # equations met while propagating, inserted into one echelon basis
    trace_rows = np.zeros((k, unknowns), dtype=np.int64)
    for si in range(k):
        for i in range(n):
            trace_rows[si, si * n2 + i * n + i] = 1
    relations = row_basis(trace_rows, p)
    expr = [None] * len(elements)
    expr[0] = np.zeros((n2, unknowns), dtype=np.int64)  # the identity
    frontier = [0]
    while frontier:
        nxt = []
        for gi in frontier:
            for si in range(k):
                hi = times[si][gi]
                block = np.zeros((n2, unknowns), dtype=np.int64)
                block[:, si * n2:(si + 1) * n2] = np.eye(n2, dtype=np.int64)
                cand = (matmul_mod(acts[si], expr[gi], p) + block) % p
                if expr[hi] is None:
                    expr[hi] = cand
                    nxt.append(hi)
                else:
                    diff = (expr[hi] - cand) % p
                    if diff.any():
                        relations, _ = extend_basis(relations, diff, p)
                        if unknowns - relations.shape[0] == b1:
                            return 0
        frontier = nxt
    return unknowns - relations.shape[0] - b1


def _eigen_functionals(h, p: int):
    """Corner functionals of the one-dimensional generalized eigenspaces of h.

    For each eigenvalue alpha of h whose generalized eigenspace is
    one-dimensional this yields (alpha, lam), where lam is the vector of
    the functional w -> (corner entry of w in an adapted basis) on
    row-flattened n x n matrices: the composition of the h-equivariant
    injection of the eigenline, the endomorphism w, and the h-equivariant
    projection back to the eigenline.

    With b = h - alpha I of rank n - 1, a right kernel vector v and a left
    one u, alpha is a simple root exactly when u.v != 0 (otherwise v lies
    in the image of b, which u cuts out).  The eigenline is then spanned
    by v, the image of b is its h-stable complement, and the projection
    is u / (u.v).
    """
    for alpha in singular_shifts(h, p):
        b = _shift(h, alpha, p)
        right = nullspace_mod(b, p)
        if len(right) != 1:
            continue
        v, u = right[0], nullspace_mod(b.T, p)[0]
        uv = int(matmul_mod(u, v, p))
        if uv == 0:
            continue
        lam = np.outer(u * pow(uv, p - 2, p) % p, v).reshape(-1) % p
        yield alpha, lam


def _split_into_summands(ad_mats, component, p):
    """Greedy direct-sum decomposition of a component into submodules.

    ``component`` holds basis vectors as rows; each returned summand is
    the submodule spun up from one basis vector not yet covered.
    """
    summands = []
    covered = np.zeros((0, component.shape[1]), dtype=np.int64)
    for v in component:
        if in_rowspace(covered, v, p):
            continue
        w = _spin(ad_mats, v.reshape(1, -1), p)
        joint, new = extend_basis(covered, w, p)
        if new.shape[0] != w.shape[0]:
            continue  # not transverse to what is already covered
        summands.append(w)
        covered = joint
        if covered.shape[0] == component.shape[0]:
            break
    if covered.shape[0] != component.shape[0]:
        raise NotOrdinary("component did not split into a direct sum")
    return summands


@dataclass
class BignessReport:
    """Certificate data for the adjoint-cohomology/eigenspace conditions."""

    h0_ad0_dim: int
    h1_ad0_dim: int
    witnesses: list  # (summand index, constituent dim, element idx, alpha)
    failures: list
    verdict: str

    def to_json(self):
        return {
            "h0_ad0_dim": str(self.h0_ad0_dim),
            "h1_ad0_dim": str(self.h1_ad0_dim),
            "witnesses": [[str(c), str(d), str(h), str(a)]
                          for c, d, h, a in self.witnesses],
            "failures": list(self.failures),
            "verdict": self.verdict,
        }


def bigness_check(group: FiniteMatrixGroup, decomposition=None,
                  classes=None) -> BignessReport:
    """Adjoint H^0/H^1 vanishing plus the eigenspace-witness condition.

    The conjugation module is split into an explicit direct sum of
    irreducible summands.  A witness for a summand W is a pair (h, alpha)
    such that h has a one-dimensional generalized alpha-eigenspace and the
    corner functional of that eigenline does not vanish on W.  On top of
    the per-summand search, each isotypic piece W is checked against *all*
    of its irreducible submodules at once: the largest submodule of W on
    which every candidate functional vanishes must be zero, otherwise a
    submodule with no witness exists and is reported.  That submodule is
    the annihilator of the spin of the functionals' restrictions to W
    under the transposed action on W, so one spin in the dual of W per
    piece gives its dimension.  An irreducible piece needs no spin: it is
    uncovered exactly when its one summand has no witness.

    A one-dimensional summand on which every candidate element acts by a
    nontrivial scalar can never have a witness: the corner functional is
    invariant under conjugation by its own element h, so it vanishes on
    any line h scales nontrivially.  Such summands are reported as
    failures rather than silently skipped.

    Candidates come from one element per conjugacy class, its first
    (smallest) index.  Every summand and isotypic component is stable
    under the group, and the corner functionals satisfy
    lambda_{g h g^-1}(w) = lambda_h(g^-1 w g), so being a witness for a
    summand depends only on the class of h, and the functionals of a
    class lie in one spin: the first witness found over representatives
    is the first over all elements, and the uncovered submodule is the
    same.

    ``decomposition`` and ``classes`` are the group's
    ``adjoint_decomposition`` and ``conjugacy_classes`` when the caller
    already has them; otherwise they are computed here.
    """
    p, gens, elements = group.p, group.generators, group.materialize()
    if classes is None:
        classes = conjugacy_classes(group)
    h0 = fixed_space_dim(group)
    h1 = h1_dim(group, h0)
    if decomposition is None:
        try:
            decomposition = adjoint_decomposition(group, classes)
        except NotOrdinary as exc:
            return BignessReport(h0_ad0_dim=h0, h1_ad0_dim=h1, witnesses=[],
                                 failures=[f"decomposition failed: {exc}"],
                                 verdict="Fails")
    ad_mats = [adjoint_action(g, p) for g in gens]
    # candidate (element index, alpha, functional) triples
    candidates = [(hi, alpha, lam) for hi in sorted(c[0] for c in classes)
                  for alpha, lam in _eigen_functionals(elements[hi], p)]
    lams = np.array([lam for _, _, lam in candidates],
                    dtype=np.int64).reshape(len(candidates), len(ad_mats[0]))
    witnesses = []
    failures = []
    summand_id = 0
    for ci, (component, d) in enumerate(decomposition.isotypic):
        for w in _split_into_summands(ad_mats, component, p):
            found = False
            for hi, alpha, lam in candidates:
                if matmul_mod(w, lam, p).any():
                    witnesses.append((summand_id, w.shape[0], hi, alpha))
                    found = True
                    break
            if not found:
                failures.append(
                    f"no eigenspace witness for summand {summand_id} "
                    f"(dimension {w.shape[0]})")
            summand_id += 1
        # strengthen to every irreducible submodule of the isotypic piece:
        # the largest submodule on which every candidate vanishes is the
        # annihilator of the candidates' spin in the dual of the piece;
        # for an irreducible piece that is the piece or nothing
        if d == component.shape[0]:
            uncovered = 0 if found else d
        else:
            dual = [r.T for r in _restrict(ad_mats, component, p)]
            spanned = _spin(dual, matmul_mod(lams, component.T, p), p)
            uncovered = component.shape[0] - spanned.shape[0]
        if uncovered:
            failures.append(
                f"component {ci}: {uncovered}-dimensional stable "
                "subspace admits no witness for any of its submodules")
    verdict = "Big" if (h0 == 0 and h1 == 0 and not failures) else "Fails"
    return BignessReport(h0_ad0_dim=h0, h1_ad0_dim=h1, witnesses=witnesses,
                         failures=failures, verdict=verdict)
