"""Moment relaxations of polynomial constraint systems and SoS certificates.

Compiles a constraint system into a moment-matrix SDP (one PSD block for the
main moment matrix, one per auxiliary matrix variable, one linear equality
per equality-times-multiplier pair), extracts pseudo-distributions from the
solution, searches for sum-of-squares certificates by Gram-matrix SDP, and
verifies a certificate in the Gram form the search returns, by expanding its
identity on exponent rows and checking each Gram matrix.

Both SDP builders, `relax` and `find_sos_combination` (on
`coefficient_matrix`), match monomials through one kernel on integer
exponent arrays: a basis's pair products (`_pair_products`), polynomial
terms as exponent rows (`_flatten`), and exact lookup by each row's bytes,
with the distinct rows in grlex order (`_MonomialTable`); equal rows are
summed by `_merge`.  `verify_certificate` expands a certificate's identity
on the same kernel, but not on the search's matrix.  Both builders write their
equality rows as entry arrays (row, column, value) on the packed SDP
entries (`sdp.pack`), then the free scalars (the affine equalities' free
variables, equality-multiplier coefficients and margins), and hand them to
`presolve`.  It eliminates the free scalars, which `find_sos_combination`
reads back from the PSD blocks after the solve, and leaves out the rows
that vanish and those the others imply, naming any contradiction among
them; `SdpProblem` takes the CSR matrix of what is left as it is, so every
SDP posed here has PSD blocks only.

The moment block is solved on its face.  An equality g whose product with a
monomial m has every monomial in the basis gives a coefficient vector v with
X v = 0 for every feasible moment matrix X, so no feasible X is strictly
positive definite.  `relax` collects those vectors in the same pass that
enumerates the multiplier rows, and `face_basis` returns an echelon basis V
of their orthogonal complement: V[f] = I on r free coordinates f, and the
other rows express each remaining coordinate in them (the identity when
there are none).  The kernel vectors are nearly all coordinate merges, so V
is nearly a 0/+-1 selection and keeps the moment rows sparse on Z.  `relax`
poses the block as X = V Z V^T, so that Z = X[f, f], and maps each row onto
Z before the presolve.  `MomentRelaxation.extract` lifts Z back before
reading moments.

The face implies some rows outright, and `relax` does not build them: the
multiplier row of g with multiplier b*m, for b in the basis and m a kernel
multiplier of g, reads through the Hankel rows as
    E~[b*m*g] = sum_gamma g_gamma X[b, m*gamma] = (X v)_b,
and (X v)_b = (V Z V^T v)_b = 0 for every Z, because V^T v = 0.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .polycore import (
    DEFAULT_MONOMIAL_CAP,
    MonomialCapError,
    Polynomial,
    enumerate_monomials,
    index_multiplicity,
    monomials_of_degree,
)
from .sdp import DEFAULT_CONSTRAINT_CAP, SdpConfig, SdpProblem, pack, unpack, upper_indices
from .sdp import lapack_eigh, lapack_eigvalsh, lapack_solve
from .sdp import solve as sdp_solve


class RelaxationSizeError(ValueError):
    """A relaxation block or constraint family exceeded its sizing cap."""


def _check_block_size(size, what):
    """Refuse a PSD block whose upper triangle exceeds the monomial cap."""
    if size * (size + 1) // 2 > DEFAULT_MONOMIAL_CAP:
        raise RelaxationSizeError(
            f"{what} over {size} basis monomials exceeds the cap "
            f"({DEFAULT_MONOMIAL_CAP} entries)"
        )


def _packed_width(sizes):
    """The number of packed entries of symmetric blocks of these sizes."""
    return sum(s * (s + 1) // 2 for s in sizes)


# ---------------------------------------------------------------------------
# constraint systems


@dataclass
class ConstraintSystem:
    """Polynomial equalities, imposed under every multiplier, and affine
    equalities, each imposed once.

    Affine equality r reads E~[affine_polys[r]] + affine_rows[r] . (x, z) = 0:
    it couples pseudo-moments to auxiliary PSD blocks of `psd_sizes`, which
    carry no moments of their own, and to free scalars z.  The columns of
    `affine_rows` are those blocks' packed entries x, in `sdp.pack` order
    with each off-diagonal coefficient written once, as `pack(..., off=2)`
    writes it, then the free scalars; `num_free` is what the columns leave
    for them.  `relax` eliminates the free scalars; they get no SDP block.
    None for `affine_rows` means no coefficient on any block or scalar.
    """

    num_vars: int
    relaxation_degree: int
    equalities: list = field(default_factory=list)
    affine_polys: list = field(default_factory=list)
    psd_sizes: list = field(default_factory=list)
    affine_rows: np.ndarray = None

    def __post_init__(self):
        ell = self.relaxation_degree
        if ell % 2 != 0 or ell < 2:
            raise ValueError("relaxation degree must be even and >= 2")
        for poly in list(self.equalities) + list(self.affine_polys):
            self._check(poly)
        if any(s != int(s) or s < 1 for s in self.psd_sizes):
            raise ValueError(f"psd block sizes {list(self.psd_sizes)}: want positive integers")
        entries = _packed_width(self.psd_sizes)
        if self.affine_rows is None:
            self.affine_rows = np.zeros((len(self.affine_polys), entries))
        self.affine_rows = np.asarray(self.affine_rows, dtype=float)
        shape = self.affine_rows.shape
        if len(shape) != 2 or shape[0] != len(self.affine_polys) or shape[1] < entries:
            raise ValueError(
                f"affine rows of shape {shape}: want one row per affine polynomial "
                f"({len(self.affine_polys)}), each with at least the {entries} "
                "packed psd block entries"
            )

    @property
    def num_free(self):
        return self.affine_rows.shape[1] - _packed_width(self.psd_sizes)

    def _check(self, poly):
        if poly.dimension != self.num_vars:
            raise ValueError(
                f"polynomial over {poly.dimension} variables in a "
                f"{self.num_vars}-variable system"
            )
        if poly.degree() > self.relaxation_degree:
            raise ValueError("constraint degree exceeds the relaxation degree")


# ---------------------------------------------------------------------------
# pseudo-distributions


class PseudoDistribution:
    """Level-ell pseudo-moments over a monomial basis.

    The (Hankel-exact) moment matrix over `basis` is held as `upper`, its
    upper triangle packed as `sdp.pack` packs it, and the basis as one
    small-integer exponent array, about half the memory of the full matrix
    and the basis tuples; `moment_matrix` and `basis` rebuild them on each
    read.  `pseudo_moments` maps each product of two basis monomials to its
    pseudo-moment; it is built when first read.
    """

    def __init__(self, num_vars, degree, basis, upper):
        self.num_vars = num_vars
        self.degree = degree
        top = max((max(b) for b in basis), default=0)
        self._exponents = np.array(basis, dtype=np.min_scalar_type(top))
        self.upper = upper

    @property
    def basis(self):
        return list(map(tuple, self._exponents.tolist()))

    @property
    def moment_matrix(self):
        return unpack(self.upper, [len(self._exponents)])[0]

    @functools.cached_property
    def pseudo_moments(self):
        products = _pair_products(self._exponents.astype(int))[2]
        moments = {}
        for mono, val in zip(map(tuple, products.tolist()), self.upper.tolist()):
            moments.setdefault(mono, val)
        return moments

    @classmethod
    def from_support(cls, points, weights=None, degree=2, basis=None):
        """Embed a true finitely-supported distribution (exact moments)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        npts, nv = pts.shape
        if weights is None:
            w = np.full(npts, 1.0 / npts)
        else:
            w = np.asarray(weights, dtype=float)
            w = w / math.fsum(w)
        if basis is None:
            basis = enumerate_monomials(nv, degree // 2)
        B = np.array(basis, dtype=int).reshape(-1, nv)
        upper = w @ np.prod(pts[:, None, :] ** _pair_products(B)[2], axis=2)
        return cls(nv, degree, basis, upper)

    def pseudo_expectation(self, f):
        if f.degree() > self.degree:
            raise ValueError(
                f"degree {f.degree()} exceeds pseudo-distribution level {self.degree}"
            )
        total = 0.0
        for mono, coef in f.terms.items():
            if mono not in self.pseudo_moments:
                raise ValueError(f"monomial {mono} not represented at this level")
            total += coef * self.pseudo_moments[mono]
        return total

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.moment_matrix).min())


# ---------------------------------------------------------------------------
# the presolve every SDP here is posed through

_FREE_TOL = 1e-12  # a free column below this share of its own scale is absent
_FILL_TOL = 1e-14  # reduced entries below this share of the largest are zeroed
_DEPENDENT_TOL = 1e-12  # squared distance of a unit row from the rows kept
_TIE_TOL = 1e-12  # residuals this close to the largest, as a share, tie


def _csr(rows, cols, vals, shape):
    """The CSR matrix of the entries (rows, cols, vals), each row's entries
    in the order given; within a row they must be by column ascending."""
    index = np.int32 if max(shape[1], len(vals)) < 2**31 else np.int64  # as scipy picks
    order = rows.argsort(kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=index)
    indptr[1:] = np.bincount(rows, minlength=shape[0]).cumsum()
    return sparse.csr_matrix((vals[order], cols[order].astype(index), indptr), shape=shape)


def _pivoted_cholesky(G, tol, tie=0.0):
    """Pivots and factor of a pivoted Cholesky of the Gram matrix G.

    Each step takes the row with the largest residual diagonal, its squared
    distance from the span of the rows taken so far, and stops once that is
    at most `tol`.  Residuals within `tie` of the largest, as a share of it,
    count as equal, and the lowest-indexed of them is taken: rows equally
    far from the span in exact arithmetic are then chosen by their order,
    not by the last bits of G.  Returns (pivots in pivot order, L) with
    L L^T = G on the pivot rows and L[:, :len(pivots)] the coordinates of
    every row in an orthonormal basis of their span.
    """
    n = len(G)
    L = np.zeros((n, n))
    resid = G.diagonal().copy()
    pivots, taken = [], np.zeros(n, dtype=bool)  # the rows taken, in order and as a mask
    for step in range(n):
        top = resid[resid.argmax()]  # the largest, NaN if any is
        if top <= tol:
            break
        p = int((resid >= top * (1.0 - tie)).argmax())
        col = G[:, p] - L[:, :step] @ L[p, :step]
        col /= math.sqrt(resid[p])
        col[taken] = 0.0
        L[:, step] = col
        col *= col
        resid -= col
        resid[p] = -np.inf
        taken[p] = True
        pivots.append(p)
    return pivots, L[:, :len(pivots)]


@dataclass
class Presolved:
    """Equality rows on SDP entries, as `presolve` leaves them.

    `rows` (CSR, on the packed entry columns) and `rhs` are the rows kept,
    in input order, and `objective` the reduced objective on those columns,
    its constant dropped: what `SdpProblem` takes, and stores as it is.
    `pivots` hold (free column, dense pivot row, rhs) for back-substitution.
    `vanished` and `dependent` count the rows left out, and `contradiction`
    names a left-out row whose rhs the kept rows do not reproduce, or is
    None.
    """

    rows: sparse.csr_matrix
    rhs: np.ndarray
    objective: np.ndarray
    pivots: list
    num_free: int
    vanished: int
    dependent: int
    contradiction: str | None

    def free_values(self, x):
        """The free scalars at entry values x, by back-substitution in
        reverse pivot order; absent columns are 0."""
        y = np.concatenate([x, np.zeros(self.num_free)])
        for col, row, rhs in reversed(self.pivots):
            y[col] = rhs - row @ y  # row[col] = 1 multiplies y[col] = 0 here
        return y[len(x):]


def presolve(A, b, num_free, objective=None):
    """Reduce the equality rows A y = b, y = (x, z), to rows on x alone.

    A is a CSR matrix with one entry per column in each row, by column, and
    it is not changed.  Its columns are the SDP entries x, packed as `pack`
    packs them, then `num_free` free scalars z.  `objective` is a linear
    objective on y (dense) to minimize, or None.

    Only the rows that hold a free column are reduced, as one dense block
    read from and written back to their entries.  For each free column in
    turn the pivot is the live row with the largest |coefficient| (partial
    pivoting); it is subtracted from every other row and from the
    objective, and kept for back-substitution.  A column whose
    largest remaining coefficient is below `_FREE_TOL` of its own scale is
    absent and takes the value 0; an absent column that still has an
    objective coefficient is unbounded and raises ValueError.  (Anjos and
    Burer, SIAM J. Optim. 18(4), 2007; Lofberg, IEEE TAC 54(5), 2009.)

    Of the rows left, those with no coefficient vanish, and those in the
    span of the others are dependent, found by a pivoted Cholesky of the
    Gram matrix of the unit-scaled rows, formed on their entries; both are
    left out.  A left-out row whose rhs the kept rows do not reproduce
    makes the system infeasible.  (Andersen and Andersen, Math. Prog. 71,
    1995, presolve sparse rows the same way.)
    """
    row_of = np.arange(A.shape[0]).repeat(A.indptr[1:] - A.indptr[:-1])
    return _presolve(row_of, A.indices, A.data, A.shape, b, num_free, objective)


def _presolve(row_of, cols, vals, shape, b, num_free, objective):
    """`presolve` on A's entries (row_of, cols, vals), at most one for each
    row and column, each row's by column: the builders hand theirs over as
    they make them, without a CSR matrix."""
    m, width = shape
    n = width - num_free
    b = np.array(b, dtype=float)
    c = np.zeros(width) if objective is None else np.array(objective, dtype=float)
    holds = np.bincount(row_of[cols >= n], minlength=m) > 0
    touched, mine = holds.nonzero()[0], holds[row_of]
    T, bt = np.zeros((len(touched), width)), b[touched]
    T[holds.cumsum()[row_of[mine]] - 1, cols[mine]] = vals[mine]
    col_scale = np.abs(T).max(axis=0, initial=0.0)
    c_scale = np.abs(c).max(initial=0.0)
    fill_floor = _FILL_TOL * col_scale.max(initial=0.0)
    live = np.ones(len(touched), dtype=bool)
    pivots = []
    for col in range(n, width):
        height = np.where(live, np.abs(T[:, col]), 0.0)
        if height.max(initial=0.0) <= _FREE_TOL * col_scale[col]:
            if abs(c[col]) > _FREE_TOL * c_scale:
                raise ValueError(
                    f"free scalar {col - n} has an objective coefficient but "
                    "no constraint row: the objective is unbounded"
                )
            T[:, col] = 0.0
            continue
        p = int(height.argmax())
        live[p] = False
        row, rhs = T[p] / T[p, col], bt[p] / T[p, col]
        others = (live & (T[:, col] != 0.0)).nonzero()[0]
        lam = T[others, col]
        T[others] -= lam[:, None] * row
        T[others, col] = 0.0
        bt[others] -= lam * rhs
        c -= c[col] * row
        pivots.append((col, row, rhs))
    T[np.abs(T) <= fill_floor] = 0.0
    b[touched] = bt
    c[np.abs(c) <= _FILL_TOL * c_scale] = 0.0

    # the rows on x: the reduced rows in place of those that held a free
    # column, the pivot rows left out; every entry is in a row left
    T = T[live, :n]
    tr, tc = T.nonzero()
    rows = np.concatenate([row_of[~mine], touched[live][tr]])
    cols = np.concatenate([cols[~mine], tc])
    vals = np.concatenate([vals[~mine], T[tr, tc]])
    left = np.ones(m, dtype=bool)
    left[touched[~live]] = False
    norms = np.sqrt(np.bincount(rows, weights=vals * vals, minlength=m))
    vanished = (left & (norms == 0.0)).nonzero()[0]
    contradiction = None
    if (np.abs(b[vanished]) > 1e-12).any():
        contradiction = "an equality row vanishes but demands %r" % (
            b[vanished][np.argmax(np.abs(b[vanished]))]
        )
    rest = (left & (norms > 0.0)).nonzero()[0]
    bu = b[rest] / norms[rest]
    G = _gram(rest.searchsorted(rows), cols, vals / norms[rows], len(rest))
    kept, L = _pivoted_cholesky(G, _DEPENDENT_TOL, _TIE_TOL)
    dependent = sorted(set(range(len(rest))) - set(kept))
    if dependent and contradiction is None:
        # each dependent row is alpha . (kept rows) with Lk^T alpha = L[row]
        alpha = lapack_solve(L[kept].T, L[dependent].T)
        want = bu[kept] @ alpha
        spread = 1.0 + np.abs(bu[kept]) @ np.abs(alpha)
        bad = np.abs(bu[dependent] - want) > 1e-9 * spread
        if np.any(bad):
            k = np.argmax(bad)
            scale = norms[rest[dependent[k]]]
            contradiction = "dependent equality rows demand %r and %r" % (
                float(bu[dependent[k]] * scale), float(want[k] * scale)
            )
    kept = rest[sorted(kept)]
    is_kept = np.zeros(m, dtype=bool)
    is_kept[kept] = True
    take = is_kept[rows]
    return Presolved(
        _csr(kept.searchsorted(rows[take]), cols[take], vals[take], (len(kept), n)),
        b[kept], c[:n], pivots, num_free, len(vanished), len(dependent), contradiction,
    )


def _gram(rows, cols, vals, size):
    """The Gram matrix of the `size` rows of the entries (rows, cols, vals):
    every pair of entries in a column adds its product, the columns taken
    in ascending order."""
    order = cols.argsort(kind="stable")
    count = np.bincount(cols)
    g, k, _ = _segments(count * count)
    p, q = np.divmod(k, count[g])
    first = (count.cumsum() - count)[g]
    i, j = order[first + p], order[first + q]
    G = np.bincount(rows[i] * size + rows[j], weights=vals[i] * vals[j], minlength=size * size)
    return G.reshape(size, size)


# ---------------------------------------------------------------------------
# facial reduction of the moment block

_FACE_TOL = 1e-10  # eigenvalues of K^T K below this share of the largest are 0
_VANISH_TOL = 1e-10  # a mapped row below this share of its own scale vanishes


def _grlex_order(E):
    """The stable order that sorts the exponent rows of E in grlex order:
    by total degree, then by each exponent in turn, largest first."""
    return np.lexsort([*(~E[:, ::-1].T), E.sum(axis=1)])


def _pair_products(B):
    """The pairs i <= j of the basis exponent rows B, row-major, and their
    products B[i] + B[j]."""
    iu, ju = upper_indices(len(B))
    return iu, ju, B[iu] + B[ju]


def _flatten(polys, nv):
    """The polynomials' terms in order, as (exponent rows, coefficients,
    term count of each); ValueError for one not over nv variables."""
    for p in polys:
        if p.dimension != nv:
            raise ValueError(f"polynomial over {p.dimension} variables in a "
                             f"{nv}-variable problem")
    E = np.array([m for p in polys for m in p.terms], dtype=int).reshape(-1, nv)
    coefs = np.array([c for p in polys for c in p.terms.values()], dtype=float)
    return E, coefs, np.array([len(p.terms) for p in polys], dtype=int)


def _segments(counts):
    """Segments of the given lengths laid end to end: each element's
    segment, its offset within that segment, and each segment's start."""
    starts = counts.cumsum() - counts
    owner = np.arange(len(counts)).repeat(counts)
    return owner, np.arange(len(owner)) - starts[owner], starts


def _row_keys(E):
    """One exact key per row of a 2-D integer array: the row's bytes, as a
    numpy void scalar.  Equal keys are equal rows, so nothing can collide."""
    E = np.ascontiguousarray(E)
    return E.view(np.dtype((np.void, E.shape[1] * E.itemsize))).reshape(len(E))


class _MonomialTable:
    """Exact lookup of exponent rows among the rows of a fixed array.

    The row keys are sorted stably, so a row that occurs more than once is
    found at its first occurrence; `first` holds that index for each row of
    the array itself, read off the starts of the runs of equal keys.
    """

    def __init__(self, E):
        self.rows, self.width, self.dtype = E, E.shape[1], E.dtype
        keys = _row_keys(E)
        self.order = keys.argsort(kind="stable")
        self.keys = keys[self.order]
        starts = np.ones(len(keys), dtype=bool)
        starts[1:] = self.keys[1:] != self.keys[:-1]
        self.first = np.empty(len(keys), dtype=self.order.dtype)
        self.first[self.order] = self.order[starts][starts.cumsum() - 1]

    def grlex(self):
        """The distinct rows in grlex order, and each row's index among them."""
        canon = (self.first == np.arange(len(self.first))).nonzero()[0]
        canon = canon[_grlex_order(self.rows[canon])]
        rank = np.empty(len(self.first), dtype=int)
        rank[canon] = np.arange(len(canon))
        return self.rows[canon], rank[self.first]

    def find(self, E):
        """Index of each row of E (any leading shape, the table's dtype) in
        the table, -1 where it is absent."""
        if not len(self.keys):
            return np.full(E.shape[:-1], -1)
        q = _row_keys(E.reshape(-1, self.width))
        pos = np.minimum(self.keys.searchsorted(q), len(self.keys) - 1)
        found = np.where(self.keys[pos] == q, self.order[pos], -1)
        return found.reshape(E.shape[:-1])

    def index(self, E):
        """Index of each exponent row of E (integers, any leading shape) in
        the table; ValueError naming a row that is absent.  A row with an
        exponent outside the table's dtype is absent: it is never cast."""
        E = np.asarray(E)
        fits = np.all((E >= 0) & (E <= np.iinfo(self.dtype).max), axis=-1)
        at = self.find(np.where(fits[..., None], E, 0).astype(self.dtype))
        at[~fits] = -1
        if (at < 0).any():
            mono = E.reshape(-1, self.width)[np.argmax(at.ravel() < 0)]
            raise ValueError(f"monomial {tuple(mono.tolist())} not representable "
                             "on the moment matrix")
        return at


def face_basis(K):
    """Echelon basis V of the face that the kernel vectors K cut out.

    Each row v of K is the coefficient vector of m*g on the basis, for an
    equality g and a kernel multiplier m of g (`relax` finds them): every
    monomial of m*g lies in the basis, and every multiplier b*m, b in the
    basis, within the multiplier degree ell - deg g.  The multiplier rows
    E~[b*m*g] = 0 then say Xv = 0, so every feasible moment matrix X has
    the form V Z V^T with V spanning the orthogonal complement of the rows
    of K.  (Permenter and Parrilo, Math. Prog. 171, 2018; Waki and
    Muramatsu, JOTA 158, 2013.)

    With P the projector onto that complement (from an eigendecomposition
    of K^T K), a pivoted Cholesky of P picks r coordinates f, r = rank P,
    and V = P[:, f] P[f, f]^{-1}: the same face, with V[f] = I exactly and
    entries below `_FACE_TOL` zeroed.  When every kernel vector merges
    coordinates (w_i^2 = w_i, x = y) V is a 0/+-1 selection, so the rows
    mapped onto Z stay as sparse as the moment rows.  (Zhu, Pataki and
    Tran-Dinh, Math. Prog. Comp. 11, 2019, keep faces of coordinate form
    sparse the same way.)  V is the identity when K has no rows.
    """
    if not len(K):
        return np.eye(K.shape[1])
    lam, U = lapack_eigh(K.T @ K)
    U = U[:, lam <= _FACE_TOL * lam[-1]]
    P = U @ U.T
    free = sorted(_pivoted_cholesky(P, _FACE_TOL)[0])
    V = lapack_solve(P[free][:, free], P[free]).T
    V[np.abs(V) <= _FACE_TOL] = 0.0
    V[free] = np.eye(len(free))
    return V


def _face_rows(V, num_rows, moment):
    """The rows' moment parts on Z's packed entry columns, as entry arrays
    (rows, cols, vals) grouped by row in ascending order, each row's
    entries by column.

    `moment` is a k x 4 array of entries (row, i, j, value) that read the
    unordered entry X0[i, j], grouped by row in ascending order.  Block 0
    is Z with X0 = V Z V^T, so a row's X0 part <A, X0> becomes
    <V^T A V, Z>: each entry adds value * V[i, a] * V[j, b] to Z's packed
    column of (min(a, b), max(a, b)), for every nonzero V[i, a] and
    V[j, b] (the halves of A's two orientations meet the off-diagonal
    weight 2 of `pack(..., off=2)`).  A sum below `_FILL_TOL` of the row's
    largest |value| is dropped, and a row whose sums all stay below
    `_VANISH_TOL` of it vanishes on the face.
    """
    r = V.shape[1]
    row, I, J = moment[:, :3].astype(int).T
    W = moment[:, 3]
    nz_row, nz_col = V.nonzero()
    count = np.bincount(nz_row, minlength=len(V))
    start = count.cumsum() - count
    # each entry's products of a nonzero of V[i] with one of V[j]
    e, k, _ = _segments(count[I] * count[J])
    ka, kb = np.divmod(k, count[J][e])
    a, b = nz_col[start[I][e] + ka], nz_col[start[J][e] + kb]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    col = lo * r - lo * (lo - 1) // 2 + hi - lo
    keys, at = np.unique(row[e] * (r * (r + 1) // 2) + col, return_inverse=True)
    coef = np.bincount(at, weights=W[e] * V[I[e], a] * V[J[e], b], minlength=len(keys))
    rows, cols = np.divmod(keys, r * (r + 1) // 2)
    scale = _row_max(row, np.abs(W), num_rows)[rows]
    keep = np.abs(coef) > _FILL_TOL * scale
    keep &= _row_max(rows[keep], np.abs(coef[keep]), num_rows)[rows] > _VANISH_TOL * scale
    return rows[keep], cols[keep], coef[keep]


def _row_max(rows, vals, num_rows):
    """The largest of the values in each row, 0 in a row without one."""
    out = np.zeros(num_rows)
    np.maximum.at(out, rows, vals)
    return out


# ---------------------------------------------------------------------------
# the relaxation compiler


class MomentRelaxation:
    """A compiled system: the SDP plus the maps needed to read answers back.

    `pairs` is the table of the moment matrix's upper-triangle pairs (i, j),
    i <= j, in row-major order, keyed on the product of their two basis
    monomials; `pairs.index(E)` gives, for each exponent row of E, the
    first pair that holds it, which is also its entry of the packed
    `PseudoDistribution.upper`.  `moment_gather` gives, for each pair, the
    flat index of the first pair with its monomial:
    X0.ravel()[moment_gather] is the packed upper triangle of the
    Hankel-exact moment matrix.  `face` is the echelon basis V of the
    moment block's face, built by `face_basis` from the kernel vectors
    `relax` finds, and block 0 of the SDP is Z with X0 = V Z V^T; the
    auxiliary PSD blocks follow it.  `problem` is posed on `presolve`'s
    CSR rows, rhs and objective as they are: the rows are never held as a
    dense rows x packed-width matrix.  `free_eliminated` counts the free
    scalars the presolve eliminated, `rows_implied` the multiplier rows not
    built because the face implies them, `rows_vanished` and
    `rows_dependent` the built rows the presolve left out, and `nnz` the
    entries stored in the SDP's row matrix `problem.A`.
    """

    def __init__(self, system, basis, problem, pairs, gather, presolved, face,
                 rows_implied, trivially_infeasible):
        self.system = system
        self.basis = basis
        self.problem = problem
        self.pairs = pairs
        self.moment_gather = gather
        self.face = face
        self.free_eliminated = len(presolved.pivots)
        self.rows_implied = rows_implied
        self.rows_vanished = presolved.vanished
        self.rows_dependent = presolved.dependent
        self.trivially_infeasible = trivially_infeasible or presolved.contradiction
        self.nnz = problem.A.nnz

    def extract(self, solution):
        """The pseudo-distribution of a solution: X0 = V Z V^T, read
        Hankel-exact."""
        Z = solution.primal_blocks[0]
        return PseudoDistribution(
            self.system.num_vars, self.system.relaxation_degree, self.basis,
            (self.face @ Z @ self.face.T).ravel()[self.moment_gather])


def relax(system, objective=None, sense="min", basis=None):
    """Compile a constraint system into a moment-matrix SDP.

    `basis` overrides the default full monomial basis of degree ell/2; a
    reduced basis relaxes further (only multipliers whose products remain
    representable are imposed).  Feasible X of the returned problem are the
    moment matrices of degree-ell pseudo-distributions satisfying the system.

    One batched pass over all equalities finds, for each g, the multipliers
    m of degree <= ell - deg g whose products with the terms of g are all
    representable, each giving the row E~[m*g] = 0; rows go by equality,
    then by m in grlex order.  Among them are g's kernel multipliers: those
    whose products all lie in the basis, with every b*m, b in the basis,
    still within that degree.  Their coefficient vectors are the kernel
    vectors from which `face_basis` builds the echelon basis V, and the
    moment block is posed on that face: X0 = V Z V^T, and block 0 of the
    returned problem is Z = X0[f, f] on the face's free coordinates f.  The
    rows E~[b*m*g] = 0 with b in the basis and m a kernel multiplier of g
    are not built: with the Hankel rows each reads (X0 v)_b = 0, which
    V^T v = 0 makes hold for every Z (`rows_implied` counts them).  The
    rows built, and the objective as one more row, are mapped onto Z as
    entry arrays (`_face_rows`); with the affine rows' entries on the
    auxiliary blocks and free scalars, as columns after Z's, they are the
    entries `presolve` reduces: it eliminates the free scalars and leaves
    out the rows that vanish on the face and those dependent on the rest.
    The relaxation is `trivially_infeasible`, and no SDP needs solving,
    when the face leaves out the constant monomial or the presolve finds a
    contradiction.  The constraint cap counts the rows built.
    """
    nv = system.num_vars
    ell = system.relaxation_degree
    if basis is None:
        try:
            basis = enumerate_monomials(nv, ell // 2)
        except MonomialCapError as exc:
            raise RelaxationSizeError(f"moment-matrix basis: {exc}") from exc
    else:
        basis = [tuple(b) for b in basis]
        if len(set(basis)) != len(basis):
            raise ValueError("duplicate basis monomials")
        if basis[0] != (0,) * nv:
            raise ValueError("basis must start with the constant monomial")
    bsize = len(basis)
    _check_block_size(bsize, "moment matrix")

    # the moment matrix's upper-triangle pairs (i, j) in row-major order;
    # each monomial sits at the first pair that gives it, and a Hankel row
    # equates every later pair with that one.  Exponents are held in a dtype
    # just wide enough for every sum formed below, so a row key is short.
    eqs = [g for g in system.equalities if g.terms]
    B = np.array(basis, dtype=int).reshape(-1, nv)
    T, coefs, counts = _flatten(eqs, nv)
    key = np.min_scalar_type(max(3 * int(B.max()) + int(T.max(initial=0)), len(eqs)))
    B, T = B.astype(key), T.astype(key)
    iu, ju, products = _pair_products(B)
    pairs = _MonomialTable(products)
    first = pairs.first
    gather = iu[first] * bsize + ju[first]

    # the rows' entries on X0, (row, i, j, value) with rows ascending, as
    # `_face_rows` takes them: row 0 is E~[1] = 1, then the Hankel rows
    later = (first != np.arange(len(iu))).nonzero()[0]
    later = later[first[later].argsort(kind="stable")]
    at = np.column_stack([first[later], later]).ravel()
    moment = [np.array([[0, 0, 0, 1.0]]), np.column_stack([
        np.repeat(np.arange(1, 1 + len(later)), 2), iu[at], ju[at],
        np.tile([1.0, -1.0], len(later))])]
    num_rows = 1 + len(later)

    # the multipliers of every g: the quotients of the representable
    # monomials, sorted into grlex order once, by g's leading term.  m is
    # imposed when every product with a term of g is representable, and a
    # kernel multiplier when each lies in the basis (its first pair is in
    # row 0, basis[0] = 1) and deg b*m <= ell - deg g for every b.
    top = int(B.sum(axis=1).max())
    t_owner, _, t_start = _segments(counts)
    t_deg = T.sum(axis=1, dtype=int)
    lead = np.lexsort((-t_deg, t_owner))[t_start]  # g's first term of top degree
    by_grlex = pairs.grlex()[0]
    excluded = np.tile(by_grlex.sum(axis=1) > ell, (len(eqs), 1))  # deg m > ell - deg g
    eq, col = T[lead].nonzero()  # divisibility matters only where lead > 0
    np.logical_or.at(excluded, eq, by_grlex[:, col].T < T[lead[eq], col, None])
    g_of, m_of = (~excluded).nonzero()
    mult = by_grlex[m_of] - T[lead[g_of]]
    owner, offset, starts = _segments(counts[g_of])
    term = t_start[g_of][owner] + offset
    at = pairs.find(mult[owner] + T[term])
    built = np.logical_and.reduceat(at >= 0, starts)
    kern = (built & np.logical_and.reduceat(iu[at] == 0, starts)
            & (mult.sum(axis=1, dtype=int) <= ell - t_deg[lead[g_of]] - top))
    # kernel vectors by equality, then by the basis index of m times g's
    # first term; the implied multipliers keyed on (equality, monomial)
    kc, in_k = kern.nonzero()[0], kern[owner]
    K = np.zeros((len(kc), bsize))
    K[kern.cumsum()[owner[in_k]] - 1, ju[at[in_k]]] = coefs[term[in_k]]
    K = K[np.lexsort((ju[at[starts[kc]]], g_of[kc]))]
    implied = _MonomialTable(np.column_stack(
        [np.repeat(g_of[kc], bsize), (mult[kc, None] + B).reshape(-1, nv)]).astype(key))
    skip = built & (implied.find(np.column_stack([g_of, mult]).astype(key)) >= 0)
    rows_implied = int(np.count_nonzero(skip))
    emit = built & ~skip
    keep = emit[owner]
    at = at[keep]
    moment.append(np.column_stack([num_rows + emit.cumsum()[owner[keep]] - 1,
                                   iu[at], ju[at], coefs[term[keep]]]))
    num_rows += int(np.count_nonzero(emit))

    V = face_basis(K)
    trivially_infeasible = None
    if np.linalg.norm(V[0]) <= _FACE_TOL:
        # no SDP to solve; the block is posed whole, for the record
        V = np.eye(bsize)
        trivially_infeasible = (
            "the equalities force E~[1] = 0: the face leaves out the constant"
        )
    block_sizes = [V.shape[1]] + list(system.psd_sizes)

    # the affine rows and the objective row: their X0 entries, at the first
    # pair of each monomial (one lookup)
    affine = num_rows
    num_rows += len(system.affine_polys)
    if num_rows > DEFAULT_CONSTRAINT_CAP:
        raise RelaxationSizeError(
            f"{num_rows} linear constraints exceed the cap {DEFAULT_CONSTRAINT_CAP} "
            f"(moment block of size {bsize})"
        )
    E, coefs, counts = _flatten(
        list(system.affine_polys) + ([] if objective is None else [objective]), nv)
    rows = affine + _segments(counts)[0]
    coefs[rows == num_rows] *= -1.0 if sense == "max" else 1.0
    at = pairs.index(E)
    moment = np.concatenate(moment + [np.column_stack([rows, iu[at], ju[at], coefs])])
    # the affine rows' columns on the auxiliary blocks and the free scalars
    # follow Z's
    z_width = _packed_width(block_sizes[:1])
    width = z_width + system.affine_rows.shape[1]
    rows, cols, vals = _face_rows(V, num_rows + 1, moment)
    objective = np.zeros(width)
    last = rows == num_rows  # the objective row, the last, has Z entries only
    objective[cols[last]] = vals[last]
    # each row's Z entries, then its entries on the blocks and scalars
    ar, ac = system.affine_rows.nonzero()
    rhs = np.zeros(num_rows)
    rhs[0] = 1.0
    presolved = _presolve(
        np.concatenate([rows[~last], affine + ar]), np.concatenate([cols[~last], z_width + ac]),
        np.concatenate([vals[~last], system.affine_rows[ar, ac]]), (num_rows, width),
        rhs, system.num_free, objective)
    problem = SdpProblem(block_sizes, presolved.rows, presolved.rhs, presolved.objective)
    return MomentRelaxation(
        system, basis, problem, pairs, gather, presolved, V, rows_implied,
        trivially_infeasible,
    )


@dataclass
class SystemSolution:
    status: str  # Optimal | Infeasible | MaxIterations
    pseudo: PseudoDistribution | None
    objective_value: float | None
    sdp: object
    relaxation: MomentRelaxation
    detail: str = ""


def solve_system(system, objective=None, sense="min", basis=None, config=None):
    relaxation = relax(system, objective=objective, sense=sense, basis=basis)
    solution = None
    if relaxation.trivially_infeasible is None:
        solution = sdp_solve(relaxation.problem, config)
    if solution is None or solution.status == "Infeasible":
        return SystemSolution(
            status="Infeasible", pseudo=None, objective_value=None, sdp=solution,
            relaxation=relaxation,
            detail=relaxation.trivially_infeasible if solution is None else solution.detail,
        )
    pd = relaxation.extract(solution)
    obj_val = None
    if objective is not None:
        E, coefs, _ = _flatten([objective], system.num_vars)
        obj_val = math.fsum((coefs * pd.upper[relaxation.pairs.index(E)]).tolist())
    return SystemSolution(
        status=solution.status, pseudo=pd, objective_value=obj_val, sdp=solution,
        relaxation=relaxation,
        detail=solution.detail,
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class SosCertificate:
    """Witness of a polynomial inequality: the identity

        base = sum_S p_S * (b_S^T G_S b_S) + sum_j q_j * e_j

    with each G_S PSD.  `sos_terms` holds (premise p_S, basis b_S as
    exponent tuples, Gram matrix G_S), `multipliers` holds (equality e_j,
    multiplier q_j).  A sphere certificate is premise 1 with the multiplier
    of |u|^2 - 1.
    """

    num_vars: int
    base_polynomial: Polynomial
    sos_terms: list = field(default_factory=list)
    multipliers: list = field(default_factory=list)

    def to_json(self):
        def poly_terms(p):
            return [[list(m), c] for m, c in sorted(p.terms.items())]

        payload = {
            "num_vars": self.num_vars,
            "base_polynomial": poly_terms(self.base_polynomial),
            "sos_terms": [
                {"premise": poly_terms(p), "basis": [list(m) for m in basis],
                 "gram": np.asarray(G, dtype=float).tolist()}
                for p, basis, G in self.sos_terms
            ],
            "multipliers": [
                {"equality": poly_terms(e), "multiplier": poly_terms(q)}
                for e, q in self.multipliers
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text):
        """The certificate `to_json` wrote.  A monomial that is not a list
        of `num_vars` exponents raises ValueError naming its field; a Gram
        that is not a matrix is kept as read, for `verify_certificate`."""
        payload = json.loads(text)
        nv = payload["num_vars"]

        def monomial(m, where):
            if not isinstance(m, list) or len(m) != nv:
                raise ValueError(f"{where}: {m!r} is not a list of {nv} exponents")
            return tuple(m)

        def poly(terms, where):
            return Polynomial(nv, {monomial(m, f"{where} term {k}"): c
                                   for k, (m, c) in enumerate(terms)})

        def gram(rows):
            try:
                return np.array(rows, dtype=float)
            except (TypeError, ValueError):
                return rows  # not a matrix: verify_certificate names the fault

        return cls(
            num_vars=nv,
            base_polynomial=poly(payload["base_polynomial"], "base_polynomial"),
            sos_terms=[
                (poly(t["premise"], f"sos_terms[{s}].premise"),
                 [monomial(m, f"sos_terms[{s}].basis[{k}]") for k, m in enumerate(t["basis"])],
                 gram(t["gram"]))
                for s, t in enumerate(payload["sos_terms"])
            ],
            multipliers=[
                (poly(t["equality"], f"multipliers[{j}].equality"),
                 poly(t["multiplier"], f"multipliers[{j}].multiplier"))
                for j, t in enumerate(payload["multipliers"])
            ],
        )


@dataclass
class VerifyResult:
    valid: bool
    residual: float
    detail: str = ""

    @property
    def label(self):
        return "Valid" if self.valid else "Invalid"


def sphere_polynomial(nv):
    """|u|^2 - 1, whose zero set is the unit sphere in nv variables."""
    return Polynomial(
        nv, {tuple(2 if i == j else 0 for j in range(nv)): 1.0 for i in range(nv)}
    ) - 1.0


def _merge(E, coefs):
    """The distinct rows of E in grlex order, each with the sum of its
    coefficients."""
    rows, at = _MonomialTable(E).grlex()
    return rows, np.bincount(at, weights=coefs, minlength=len(rows))


def _times(E, coefs, F, gains):
    """Every product of a term (E, coefs) with a term (F, gains), as
    exponent rows and coefficients."""
    return ((E[:, None] + F[None]).reshape(-1, E.shape[1]),
            np.outer(coefs, gains).ravel())


def _read_gram(basis, G, nv):
    """The basis as exponent rows and G as a float array, and why they are
    not a Gram matrix over that basis (None when they are)."""
    try:
        B = np.array(basis, dtype=int).reshape(len(basis), nv)
        G = np.asarray(G, dtype=float)
    except (TypeError, ValueError):
        return None, None, f"basis or gram is not a numeric array over {nv} variables"
    if G.shape != (len(B), len(B)):
        return B, G, f"gram of shape {G.shape} over a basis of {len(B)}"
    if not np.all(np.isfinite(G)):
        return B, G, "gram has a non-finite entry"
    if not np.array_equal(G, G.T):
        return B, G, "gram is not symmetric"
    return B, G, None


def verify_certificate(cert, tolerance=1e-8):
    """Valid iff base - sum_S p_S b_S^T G_S b_S - sum_j q_j e_j has every
    coefficient at most `tolerance` in magnitude, and every G_S is finite,
    square over its basis and symmetric, with lambda_min >= -tolerance.

    The identity is expanded on exponent rows: each Gram entry of the upper
    triangle, weighted 2 off the diagonal, times each premise term, and each
    multiplier term times each equality term, with equal rows merged.  A
    Gram that cannot be read makes the certificate Invalid, with infinite
    residual and the fault named in `detail`.
    """
    nv = cert.num_vars
    E, coefs, _ = _flatten([cert.base_polynomial], nv)
    parts, min_eig = [(E, coefs)], math.inf
    for s, (premise, basis, G) in enumerate(cert.sos_terms):
        B, G, fault = _read_gram(basis, G, nv)
        if fault:
            return VerifyResult(False, math.inf, f"sos term {s}: {fault}")
        iu, ju, products = _pair_products(B)
        weights = np.where(iu == ju, -1.0, -2.0) * G[iu, ju]
        parts.append(_times(products, weights, *_flatten([premise], nv)[:2]))
        if len(G):
            min_eig = min(min_eig, float(lapack_eigvalsh(G)[0]))
    for equality, multiplier in cert.multipliers:
        E, coefs, counts = _flatten([equality, multiplier], nv)
        parts.append(_times(E[:counts[0]], -coefs[:counts[0]], E[counts[0]:],
                            coefs[counts[0]:]))
    _, diff = _merge(*map(np.concatenate, zip(*parts)))
    residual = float(np.max(np.abs(diff), initial=0.0))
    ok = residual <= tolerance and min_eig >= -tolerance
    detail = "" if ok else f"identity residual {residual:.3e}, gram min eig {min_eig:.3e}"
    return VerifyResult(valid=ok, residual=residual, detail=detail)


# ---------------------------------------------------------------------------
# certificate search


@dataclass
class SosSearchResult:
    status: str
    margin_value: float | None
    grams: list  # (basis monomials, matrix) per sos premise
    free_polys: list  # one Polynomial per equality premise
    residual: float
    detail: str = ""


def coefficient_matrix(nv, degree, sos_premises, equality_premises=(),
                       homogeneous=False):
    """Coefficient-matching matrix of sum_S p_S*premise_S + sum_j q_j*eq_j.

    Returns (rows, A, bases, free_monos).  `rows` is an integer exponent
    array of distinct monomials in grlex order (by degree, then by each
    exponent in turn, largest first).  Row r of A gives the coefficient of
    the monomial rows[r] as a linear function of the unknowns: each Gram
    upper-triangle entry over bases[S], weighted 2 off the diagonal, then
    each coefficient of q_j on free_monos[j].  Each multiplier takes the
    largest degree that keeps the identity within `degree` (exactly that
    degree when `homogeneous`).  A premise over other than nv variables, or
    of a degree no multiplier fits, raises ValueError.  Both
    `find_sos_combination` and `estimators.build_B` pose their identities
    on this matrix.  A Gram basis over the cap of `relax`'s moment block
    raises RelaxationSizeError before anything is allocated.
    """
    premises = list(sos_premises) + list(equality_premises)
    T, coefs, counts = _flatten(premises, nv)
    multipliers = monomials_of_degree if homogeneous else enumerate_monomials
    # per column, after an empty first entry: its monomial shift and weight;
    # its entry in the row of shift*tau is weight * premise[tau]
    shifts, weights, bases, free_monos = [np.zeros((0, nv), int)], [np.zeros(0)], [], []
    for p in sos_premises:
        excess = degree - p.degree()
        if excess < 0 or (homogeneous and excess % 2 != 0):
            raise ValueError("premise degree incompatible with identity degree")
        bases.append(multipliers(nv, excess // 2))
        if not bases[-1]:
            raise ValueError("empty Gram basis for a premise")
        _check_block_size(len(bases[-1]), "Gram matrix")
        iu, ju, products = _pair_products(np.array(bases[-1], dtype=int).reshape(-1, nv))
        shifts.append(products)
        weights.append(np.where(iu == ju, 1.0, 2.0))
    for e in equality_premises:
        if e.degree() > degree:
            raise ValueError("premise degree incompatible with identity degree")
        free_monos.append(multipliers(nv, degree - e.degree()))
        shifts.append(np.array(free_monos[-1], dtype=int).reshape(-1, nv))
        weights.append(np.ones(len(free_monos[-1])))

    # every (column, premise term) product, by column then term
    shift, weight = np.concatenate(shifts), np.concatenate(weights)
    col_premise = np.repeat(np.arange(len(premises)), [len(w) for w in weights[1:]])
    col, offset, _ = _segments(counts[col_premise])
    term = _segments(counts)[2][col_premise[col]] + offset
    rows, at = _MonomialTable(shift[col] + T[term]).grlex()
    A = np.zeros((len(rows), len(weight)))
    A[at, col] = weight[col] * coefs[term]
    return rows, A, bases, free_monos


def find_sos_combination(target, sos_premises, equality_premises=(), degree=None,
                         margin=None, homogeneous=False):
    """Search for target = sum_S p_S*premise_S + sum_j q_j*eq_j (+ t*margin).

    p_S are SOS (Gram PSD blocks), q_j are free polynomials, and t is
    maximized when a margin polynomial is given (a zero margin raises
    ValueError: t would be unbounded).  A premise or margin not over the
    target's variables, or a premise of a degree no multiplier fits, raises
    ValueError.  Returns the pieces of the identity: each Gram block over
    its basis, each multiplier and t, which a certificate holds as they are.

    The identity is posed on the matrix of `coefficient_matrix`, extended by
    a margin column and by a row for each margin or target monomial that no
    multiplier reaches, all in grlex order.  `presolve` takes its entries:
    it removes the free columns (the coefficients of q_j and t), so the SDP
    has only the Gram blocks and maximizes t as a linear objective on them,
    and it names a coefficient the identity cannot match; q_j and t come
    back by back-substitution.  After the solve the identity is polished by
    least squares on A, with the Grams projected to the PSD cone, and
    `residual` is the largest coefficient error max|b - A x| of the polished
    identity, and `grams` are those polished Grams, exactly symmetric.  A
    small residual is not a certificate: what a caller builds from the
    pieces is gated by `verify_certificate`.
    """
    nv = target.dimension
    if degree is None:
        degree = target.degree()
    if degree % 2 != 0:
        raise ValueError("identity degree must be even")

    rows, A_sos, bases, free_monos = coefficient_matrix(
        nv, degree, sos_premises, equality_premises, homogeneous
    )
    # the target's terms, then the margin's, join the rows
    E, coefs, counts = _flatten([target] + ([] if margin is None else [margin]), nv)
    gammas, at = _MonomialTable(np.concatenate([rows, E])).grlex()
    at_sos, at_target, at_margin = np.split(at, np.cumsum([len(rows), counts[0]]))
    A = np.zeros((len(gammas), A_sos.shape[1] + (margin is not None)))
    A[at_sos, :A_sos.shape[1]] = A_sos
    if margin is not None:
        A[at_margin, -1] = coefs[len(at_target):]
    b = np.zeros(len(gammas))
    b[at_target] = coefs[:len(at_target)]

    # the Gram entries, then the free columns: multiplier coefficients and
    # the margin, which is maximized
    sizes = [len(bas) for bas in bases]
    num_free = sum(len(monos) for monos in free_monos) + (margin is not None)
    n_gram = A.shape[1] - num_free
    objective = np.zeros(A.shape[1])
    if margin is not None:
        objective[-1] = -1.0
    nz = A.nonzero()
    presolved = _presolve(*nz, A[nz], A.shape, b, num_free, objective)
    solution = None
    if presolved.contradiction is None:
        problem = SdpProblem(sizes, presolved.rows, presolved.rhs, presolved.objective)
        solution = sdp_solve(problem, SdpConfig(tol=1e-9, max_iters=300))
    if solution is None or solution.status == "Infeasible":
        return SosSearchResult(
            status="Infeasible", margin_value=None, grams=[], free_polys=[],
            residual=float("inf"),
            detail=presolved.contradiction if solution is None else solution.detail,
        )

    x = pack(solution.primal_blocks)
    vec = np.concatenate([x, presolved.free_values(x)])
    for _ in range(3):
        resid = b - A @ vec
        if np.max(np.abs(resid), initial=0.0) < 1e-14:
            break
        delta, *_ = np.linalg.lstsq(A, resid, rcond=None)
        vec = vec + delta
        # unpack, project grams to the PSD cone, repack
        grams = []
        for H in unpack(vec[:n_gram], sizes):
            w, V = lapack_eigh(H)
            grams.append((V * np.clip(w, 0.0, None)) @ V.T)
        vec = np.concatenate([pack(grams), vec[n_gram:]])

    grams, free_polys, k = unpack(vec[:n_gram], sizes), [], n_gram
    for monos in free_monos:
        free_polys.append(Polynomial(nv, dict(zip(monos, vec[k: k + len(monos)]))))
        k += len(monos)
    return SosSearchResult(
        status=solution.status,
        margin_value=None if margin is None else float(vec[-1]),
        grams=list(zip(bases, grams)), free_polys=free_polys,
        residual=float(np.max(np.abs(b - A @ vec), initial=0.0)),
        detail=solution.detail,
    )


# ---------------------------------------------------------------------------
# the certificate toolkit


def _toolkit_check_k(k):
    if k % 2 != 0 or not 2 <= k <= 8:
        raise ValueError("toolkit certificates support even k with 2 <= k <= 8")


def build_toolkit_certificate(kind, k, delta=None):
    """Construct and pre-verify a library certificate.

    Kinds: "Binomial" (2^{k-1}(a^k+b^k) >= (a+b)^k), "AmGm"
    (product <= mean of k-th powers), "PowerReduction" ({f^k<=1} |- {f<=1}),
    "IntervalFromPower" ({(f-1)^k <= d^k (f+1)^k} |- {f <= 1+100d}; the
    companion lower bound comes from build_interval_certificates).  k is
    even, 2 <= k <= 8, except "AmGm" at k = 8, whose Gram basis of 330
    forms exceeds the size cap: it raises RelaxationSizeError.
    """
    _toolkit_check_k(k)
    if kind == "Binomial":
        cert = _binomial_certificate(k)
    elif kind == "AmGm":
        cert = _amgm_certificate(k)
    elif kind == "PowerReduction":
        cert = _power_reduction_certificate(k)
    elif kind == "IntervalFromPower":
        if delta is None:
            raise ValueError("IntervalFromPower needs delta")
        cert, _ = build_interval_certificates(k, delta)
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    check = verify_certificate(cert, tolerance=1e-8)
    if not check.valid:
        raise RuntimeError(
            f"certificate search for {kind}(k={k}) produced an invalid "
            f"certificate ({check.detail}); this is a bug signal"
        )
    return cert


def _binomial_certificate(k):
    a = Polynomial.variable(2, 0)
    b = Polynomial.variable(2, 1)
    target = (2 ** (k - 1)) * (a ** k + b ** k) - (a + b) ** k
    if k == 2:
        return SosCertificate(2, target, [(Polynomial.constant(2, 1.0), [(1, 0), (0, 1)],
                                           np.array([[1.0, -1.0], [-1.0, 1.0]]))])
    return _homogeneous_sos_certificate(target, k, "binomial")


def _amgm_certificate(k):
    nv = k
    power_sum = Polynomial.constant(nv, 0.0)
    product = Polynomial.constant(nv, 1.0)
    for i in range(nv):
        w = Polynomial.variable(nv, i)
        power_sum = power_sum + w ** k
        product = product * w
    target = power_sum * (1.0 / k) - product
    if k == 2:
        return SosCertificate(2, target, [(Polynomial.constant(2, 1.0), [(1, 0), (0, 1)],
                                           np.array([[0.5, -0.5], [-0.5, 0.5]]))])
    return _homogeneous_sos_certificate(target, k, "am-gm")


def _homogeneous_sos_certificate(target, k, name):
    """target as one sum of squares of forms of degree k / 2."""
    nv = target.dimension
    one = Polynomial.constant(nv, 1.0)
    result = find_sos_combination(target, sos_premises=[one], degree=k, homogeneous=True)
    if result.status != "Optimal":
        raise RuntimeError(f"{name} certificate search failed: {result.detail}")
    return SosCertificate(nv, target, [(one, *result.grams[0])])


def _power_reduction_certificate(k):
    f = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1.0)
    if k == 2:
        # 2 - 2f = (1 - f^2) + (1 - f)^2, exactly
        return SosCertificate(1, 2.0 - 2.0 * f, [
            (one - f * f, [(0,)], np.array([[1.0]])),
            (one, [(0,), (1,)], np.array([[1.0, -1.0], [-1.0, 1.0]])),
        ])
    cert, detail = _premise_certificate(one - f, one - f ** k, [k])
    if cert is None:
        raise RuntimeError(f"power reduction certificate search failed: {detail}")
    return cert


def _premise_certificate(target, premise, degrees, max_residual=math.inf):
    """The certificate target = s0 + s1 * premise in one variable, s0 and s1
    sums of squares, from the first identity degree in `degrees` whose
    search ends Optimal with residual <= max_residual (None if none does),
    and the last search's detail."""
    one = Polynomial.constant(1, 1.0)
    detail = ""
    for degree in degrees:
        result = find_sos_combination(target, sos_premises=[one, premise], degree=degree)
        detail = result.detail
        if result.status == "Optimal" and result.residual <= max_residual:
            return SosCertificate(1, target, [
                (p, basis, G) for p, (basis, G) in zip([one, premise], result.grams)
            ]), detail
    return None, detail


def build_interval_certificates(k, delta):
    """Certs for {(f-1)^k <= delta^k (f+1)^k} |- {1-100delta <= f <= 1+100delta}."""
    _toolkit_check_k(k)
    if not 0 < delta < 0.01:
        raise ValueError("delta must lie in (0, 0.01) so that 100*delta < 1")
    f = Polynomial.variable(1, 0)
    premise = (delta ** k) * (f + 1.0) ** k - (f - 1.0) ** k
    dprime = 100.0 * delta
    out = []
    for target in [(1.0 + dprime) - f, f - (1.0 - dprime)]:
        cert, last = _premise_certificate(target, premise, (k, k + 2, k + 4), 1e-7)
        if cert is None:
            raise RuntimeError(
                f"interval certificate search failed for k={k}, delta={delta}: {last}"
            )
        out.append(cert)
    return tuple(out)


# ---------------------------------------------------------------------------
# sos norm


def tensor_form(tensor):
    """The polynomial u -> <T, u^{x order}> of a symmetric tensor."""
    d = tensor.dimension
    poly_terms = {}
    for idx in tensor.indices():
        mono = [0] * d
        for i in idx:
            mono[i] += 1
        poly_terms[tuple(mono)] = tensor.get(idx) * index_multiplicity(idx)
    return Polynomial(d, poly_terms)


def sos_norm(tensor, degree=None):
    """Degree-2t relaxation of the injective norm: the 2t-th root of the
    maximum of E~<T, u^{x 2t}> over degree-2t pseudo-distributions on the
    sphere.

    The maximum is read from the dual side of the SDP `relax` poses, so the
    value returned bounds it from above whatever the solver's accuracy
    (Jansson, Chaykin and Keil, SIAM J. Numer. Anal. 46(1), 2007).  The
    posed SDP is min <C, Z> s.t. A(Z) = b, Z PSD, with -E~<T, u^{x 2t}> as
    its objective.  For any y, with S = C - A^T y,
        <C, Z> = b.y + <S, Z> >= b.y + lambda_min(S) tr Z,
    so its maximum is at most -b.y + max(0, -lambda_min(S)) * max tr Z.
    The trace is at most |basis|: V[f] = I on the face's free coordinates f
    (`face_basis`), so Z = X0[f, f] and tr Z sums E~[b^2] over basis
    monomials b.  Each is at most 1, because 1 - b^2 is SoS modulo the
    sphere within the relaxation degree: for b = u^alpha, |alpha| = k,
    1 = (|u|^2)^k there, and (|u|^2)^k - u^{2 alpha} is a nonnegative
    combination of squares u^{2 beta}.  An all-zero form has norm 0 and
    is not solved.
    """
    order = tensor.order
    if order % 2 != 0:
        raise ValueError("sos_norm needs an even-order tensor")
    if degree is None:
        degree = order
    if degree < order or degree % 2 != 0:
        raise ValueError("relaxation degree must be even and >= tensor order")
    d = tensor.dimension
    system = ConstraintSystem(
        num_vars=d, relaxation_degree=degree, equalities=[sphere_polynomial(d)],
    )
    form = tensor_form(tensor)
    if not any(form.terms.values()):
        return 0.0
    result = solve_system(system, objective=form, sense="max")
    if result.status != "Optimal":
        raise RuntimeError(f"sos_norm relaxation did not converge: {result.detail}")
    problem, y = result.relaxation.problem, result.sdp.dual
    # A^T y summed as `problem.A.T @ y` sums it, row by row, without
    # building the transpose
    A = problem.A
    At_y = np.bincount(A.indices, A.data * np.repeat(y, A.indptr[1:] - A.indptr[:-1]),
                       A.shape[1])
    slack = unpack(problem.c - At_y, problem.block_sizes, off=0.5)
    lam = min(float(lapack_eigvalsh(S)[0]) for S in slack)
    value = -float(problem.rhs @ y) + len(result.relaxation.basis) * max(0.0, -lam)
    if value <= 0.0:
        return 0.0
    return value ** (1.0 / order)
