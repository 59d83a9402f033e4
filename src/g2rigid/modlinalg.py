"""Dense linear algebra over F_p on numpy int64 arrays.

This is the one backend for F_p: the groups and their adjoint modules,
spin-up, the enveloping algebra, the bigness certificate and the mod-l
generation certificate all run on int64 arrays with entries in [0, p),
from the generators (or the reduction of a tuple over Q) to the verdict.
Every matrix product goes through ``matmul_mod``, which is exact for any
prime p < 2^31 (``MAX_MODULUS``); larger moduli are refused with
``TooLarge``, since there a single product (p - 1)^2 overflows int64.

``enveloping_dim`` lives here, not in a certificate layer: it is the
full-algebra condition of the generation certificate in ``g2forms`` and
the Burnside fallback of the composition search in ``finitegroups`` (for
a module no Norton test decided), and neither of those layers imports
the other, so a module certificate does not execute the Q layer.

numpy is loaded here, on first use, for the whole package: ``np`` below
stands in for the module, and the layers that compute on arrays
(``counting``, ``finitegroups``, ``g2forms``) import it from here.  A
command served from the cache computes on no array, so it does not pay
the import of numpy, about 135 ms on a 2-CPU machine.  The deferral goes
through the ``import`` statement, which holds the per-module import lock, so
threads that first touch numpy together wait for one complete import;
``importlib.util.LazyLoader`` gives no such guarantee.  ``count`` first
touches numpy on the main thread, where it builds a term's character
table, before its worker threads split the term's residues.  The layer
modules themselves, this one included, are registered lazily by ``cli``
with ``LazyLoader``, and each is first touched on the main thread.
"""

from __future__ import annotations

from .errors import TooLarge
from .rings import poly_roots


class _Numpy:
    """numpy, imported at the first attribute read; each attribute read
    is then stored on the instance, so later reads are plain lookups."""

    def __getattr__(self, name):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()

MAX_MODULUS = 2 ** 31
_INT64_MAX = 2 ** 63 - 1


def _check_modulus(p):
    if p >= MAX_MODULUS:
        raise TooLarge(f"modulus {p} is not below 2^31: int64 products "
                       "would overflow")


def matmul_mod(a, b, p):
    """a @ b mod p for entries in [0, p), exact for every p < 2^31.

    ``b`` is a vector or a matrix; ``a`` may carry leading batch axes.
    The inner dimension is summed in chunks short enough that a partial
    sum plus the reduced accumulator stays below 2^63.
    """
    _check_modulus(p)
    chunk = (_INT64_MAX - p) // max(1, (p - 1) ** 2)
    inner = a.shape[-1]
    if inner <= chunk:
        return (a @ b) % p
    out = 0
    for s in range(0, inner, chunk):
        out = (out + a[..., s:s + chunk] @ b[s:s + chunk]) % p
    return out


def mod_array(rows, p):
    """Integer entries (a vector becomes one row) as an int64 array mod p;
    refuses p >= 2^31."""
    _check_modulus(p)
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return np.mod(a, p)


def rref_mod(rows, p):
    """Reduced row echelon form mod p; returns (array, pivot columns)."""
    a = mod_array(rows, p)
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        row = a[r] * pow(int(a[r, c]), p - 2, p) % p
        a[r] = row
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, row)
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


def rank_mod(rows, p) -> int:
    return len(rref_mod(rows, p)[1])


def nullspace_mod(rows, p):
    """Basis of the right kernel, as the rows of an int64 array: per free
    column, 1 there and minus that column of the echelon form at pivots."""
    a, pivots = rref_mod(rows, p)
    taken = set(pivots)
    free = [c for c in range(a.shape[1]) if c not in taken]
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -a[:len(pivots), free].T % p
    return basis


def annihilator(rows, p):
    """Reduced echelon basis of the right kernel of ``rows``, as rows."""
    return row_basis(nullspace_mod(rows, p), p)


def inv_mod(a, p):
    """Inverse of a square matrix mod p; ZeroDivisionError if singular."""
    a = mod_array(a, p)
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref_mod(aug, p)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular mod p")
    return r[:, n:]


def row_basis(rows, p):
    """Echelonized basis of the row space (zero rows dropped)."""
    a, pivots = rref_mod(rows, p)
    return a[: len(pivots)]


def pivot_columns(basis):
    """Leading column of each row of an echelon basis without zero rows."""
    return np.argmax(basis != 0, axis=1)


def _residue(basis, rows, p):
    """Rows (or one vector) minus their part in the span of a reduced
    echelon basis, read off at its pivot columns; zero iff spanned."""
    return (rows - matmul_mod(rows[..., pivot_columns(basis)], basis, p)) % p


def in_rowspace(basis, v, p):
    """Whether vector v lies in the row space of a reduced echelon basis."""
    return not _residue(basis, v, p).any()


def extend_basis(basis, rows, p):
    """Echelon insertion of a block of rows into a reduced echelon basis.

    Returns the reduced echelon basis of the joint span and a reduced
    echelon basis of ``rows`` modulo the old span (empty when nothing is
    new), which spans a complement of the old span in the new one.
    """
    new, new_pivots = rref_mod(_residue(basis, rows, p), p)
    new = new[:len(new_pivots)]
    if not new_pivots:
        return basis, new
    # clear the new pivot columns from the old rows, then sort by pivot
    basis = (basis - matmul_mod(basis[:, new_pivots], new, p)) % p
    order = np.argsort(np.concatenate([pivot_columns(basis), new_pivots]))
    return np.concatenate([basis, new])[order], new


def span_closure(rows, images, p):
    """Smallest subspace containing ``rows`` and closed under ``images``.

    ``images`` maps a block of rows to the block of their images under
    every generator.  The span grows level by level: one echelon
    insertion per level of images, applied only to the rows that were
    new at the previous level.  Returns a reduced echelon basis.
    """
    basis, frontier = extend_basis(
        np.zeros((0, rows.shape[1]), dtype=np.int64), rows, p)
    while frontier.shape[0] and basis.shape[0] < basis.shape[1]:
        basis, frontier = extend_basis(basis, images(frontier), p)
    return basis


def enveloping_dim(mats, p) -> int:
    """Dimension of the matrix algebra generated by the given matrices.

    ``mats`` are int64 arrays mod ``p``.  The algebra is spanned level by
    level from the identity: each level is the new part of the previous
    one times every generator.
    """
    if len(mats) == 0:
        return 0
    n = mats[0].shape[0]

    def products(front):
        blocks = front.reshape(-1, n, n)
        return np.concatenate([matmul_mod(blocks, g, p).reshape(-1, n * n)
                               for g in mats])

    identity = np.eye(n, dtype=np.int64).reshape(1, -1)
    return span_closure(identity, products, p).shape[0]


def charpoly_mod(a, p):
    """Coefficients of det(x I - a) mod p, constant term first (monic).

    ``a`` is reduced to upper Hessenberg form h by similarity: for each
    column, a row swap and a column swap bring a nonzero subdiagonal entry
    up, and the entries below it are cleared by one outer-product row
    update, undone on the columns by one matrix-vector product.  The
    leading k x k blocks of h then have characteristic polynomials
    chi_k = (x - h[k-1, k-1]) chi_{k-1}
            - sum_i h[k-1-i, k-1] h[k-1, k-2] ... h[k-i, k-i-1] chi_{k-1-i},
    one vectorized product per k (Cohen, Alg. 2.2.9).
    """
    h = mod_array(a, p)
    n = h.shape[0]
    for m in range(n - 2):
        nz = np.nonzero(h[m + 1:, m])[0]
        if nz.size == 0:
            continue
        i = m + 1 + int(nz[0])
        if i != m + 1:
            h[[m + 1, i]] = h[[i, m + 1]]
            h[:, [m + 1, i]] = h[:, [i, m + 1]]
        u = h[m + 2:, m] * pow(int(h[m + 1, m]), p - 2, p) % p
        # rows i > m + 1 lose u_i times row m + 1; column m + 1 gains
        # u_i times column i, so the result stays similar to ``a``
        h[m + 2:] = (h[m + 2:] - np.outer(u, h[m + 1])) % p
        h[:, m + 1] = (h[:, m + 1] + matmul_mod(h[:, m + 2:], u, p)) % p
    h = h.tolist()
    chi = np.zeros((n + 1, n + 1), dtype=np.int64)  # row k: chi_k
    chi[0, 0] = 1
    for k in range(1, n + 1):
        chi[k, 1:] = chi[k - 1, :-1]
        chi[k] = (chi[k] - h[k - 1][k - 1] * chi[k - 1]) % p
        # weights[i - 1] = h[k-1-i][k-1] times the subdiagonal run above
        weights = []
        run = 1
        for i in range(1, k):
            run = run * h[k - i][k - i - 1] % p
            weights.append(h[k - 1 - i][k - 1] * run % p)
        if weights:
            chi[k] = (chi[k] - matmul_mod(np.array(weights, dtype=np.int64),
                                          chi[k - 2::-1], p)) % p
    return chi[n]


def singular_shifts(theta, p):
    """(a, theta - a I mod p) for the a in F_p, ascending, at which it is
    singular: the roots of ``charpoly_mod(theta, p)``, by ``poly_roots`` in
    O(n^2 log p) field operations, so p near 2^31 costs little more."""
    eye = np.eye(theta.shape[0], dtype=np.int64)
    for a in poly_roots(tuple(charpoly_mod(theta, p).tolist()), p):
        yield a, (theta - a * eye) % p
