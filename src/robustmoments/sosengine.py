"""Moment relaxations of polynomial constraint systems and SoS certificates.

Compiles a constraint system into a moment-matrix SDP (one PSD block for the
main moment matrix, one per auxiliary matrix variable, one linear equality
per equality-times-multiplier pair), extracts pseudo-distributions from the
solution, searches for sum-of-squares certificates by Gram-matrix SDP, and
verifies certificates by explicit polynomial expansion.

Both SDP builders, `relax` and `find_sos_combination`, write their equality
rows as one dense matrix on the packed SDP entries (`sdp.pack`) and then
the free scalars (the affine equalities' free variables, equality-multiplier
coefficients and margins), and hand it to `presolve`.  It eliminates the
free scalars, which come back from the PSD blocks after the solve, and
leaves out the rows that vanish and those the others imply, naming any
contradiction among them; `SdpProblem.from_packed` takes what is left, so
every SDP posed here has PSD blocks only.

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
and (X v)_b = (V Z V^T v)_b = 0 for every Z, because V^T v = 0.  The
multiplier rows are enumerated on integer exponent arrays, with each
monomial's bytes as its exact lookup key.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .polycore import (
    DEFAULT_MONOMIAL_CAP,
    MonomialCapError,
    Polynomial,
    enumerate_monomials,
    index_multiplicity,
    monomial_mul,
    monomials_of_degree,
)
from .sdp import DEFAULT_CONSTRAINT_CAP, SdpConfig, SdpProblem, pack, unpack
from .sdp import solve as sdp_solve


class RelaxationSizeError(ValueError):
    """A relaxation block or constraint family exceeded its sizing cap."""


def _grlex_key(mono):
    return (sum(mono), tuple(-e for e in mono))


def _zero_mono(nv):
    return (0,) * nv


# ---------------------------------------------------------------------------
# constraint systems


@dataclass(frozen=True)
class PsdVarBlock:
    """Auxiliary PSD matrix variable (e.g. a Gram matrix) of a given size."""

    name: str
    size: int


class AffineEquality:
    """Scalar equality  E~[poly] + sum(free) + sum(psd entries) = 0.

    `free` maps free-variable index -> coefficient; `psd` maps
    (block name, i, j) with i <= j -> coefficient on that single unordered
    matrix entry.  Unlike plain polynomial equalities these are imposed once
    (no multiplier expansion): they couple pseudo-moments to auxiliary
    variables that carry no moments of their own.  `relax` eliminates the
    free variables from these rows; they get no SDP block.
    """

    def __init__(self, poly, free=None, psd=None):
        self.poly = poly
        self.free = dict(free or {})
        self.psd = {}
        for (name, i, j), coef in (psd or {}).items():
            if i > j:
                i, j = j, i
            self.psd[(name, i, j)] = self.psd.get((name, i, j), 0.0) + float(coef)


@dataclass
class ConstraintSystem:
    num_vars: int
    relaxation_degree: int
    equalities: list = field(default_factory=list)
    affine_equalities: list = field(default_factory=list)
    psd_blocks: list = field(default_factory=list)
    num_free: int = 0

    def __post_init__(self):
        ell = self.relaxation_degree
        if ell % 2 != 0 or ell < 2:
            raise ValueError("relaxation degree must be even and >= 2")
        for poly in self.equalities:
            self._check(poly)
        sizes = {b.name: b.size for b in self.psd_blocks}
        if len(sizes) != len(self.psd_blocks):
            raise ValueError("duplicate psd block name")
        for aff in self.affine_equalities:
            self._check(aff.poly)
            for name, i, j in aff.psd:
                if name not in sizes:
                    raise ValueError(f"affine equality names no psd block {name!r}")
                if not 0 <= i <= j < sizes[name]:
                    raise ValueError(
                        f"entry ({i}, {j}) outside psd block {name!r} of size "
                        f"{sizes[name]}"
                    )
            for f in aff.free:
                if not 0 <= f < self.num_free:
                    raise ValueError(f"free index {f} outside 0..{self.num_free - 1}")

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

    The (Hankel-exact) moment matrix is held as its packed upper triangle
    and the basis as one small-integer exponent array, about half the memory
    of the full matrix and the basis tuples; `moment_matrix` and `basis`
    rebuild them on each read.  `pseudo_moments` maps each product of two
    basis monomials to its pseudo-moment; it is built when first read.
    """

    def __init__(self, num_vars, degree, pseudo_moments, basis):
        basis = list(basis)
        M = [[pseudo_moments[monomial_mul(a, b)] for b in basis] for a in basis]
        self._store(num_vars, degree, basis, pack([np.array(M, dtype=float)]))

    @classmethod
    def from_upper_triangle(cls, num_vars, degree, basis, upper):
        """The distribution whose Hankel-exact moment matrix over `basis` has
        the upper triangle `upper`, packed as `sdp.pack` packs it."""
        pd = cls.__new__(cls)
        pd._store(num_vars, degree, basis, upper)
        return pd

    def _store(self, num_vars, degree, basis, upper):
        self.num_vars = num_vars
        self.degree = degree
        top = max((max(b) for b in basis), default=0)
        self._exponents = np.array(basis, dtype=np.min_scalar_type(top))
        self._upper = upper

    @property
    def basis(self):
        return list(map(tuple, self._exponents.tolist()))

    @property
    def moment_matrix(self):
        return unpack(self._upper, [len(self._exponents)])[0]

    @functools.cached_property
    def pseudo_moments(self):
        basis = self.basis
        moments = {}
        iu, ju = np.triu_indices(len(basis))
        for i, j, val in zip(iu.tolist(), ju.tolist(), self._upper.tolist()):
            moments.setdefault(monomial_mul(basis[i], basis[j]), val)
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
        moments = {}
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                mono = monomial_mul(basis[i], basis[j])
                if mono in moments:
                    continue
                vals = np.prod(pts ** np.array(mono), axis=1)
                moments[mono] = float(np.dot(w, vals))
        return cls(nv, degree, moments, basis)

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


def pseudo_expectation(pd, f):
    return pd.pseudo_expectation(f)


# ---------------------------------------------------------------------------
# the presolve every SDP here is posed through

_FREE_TOL = 1e-12  # a free column below this share of its own scale is absent
_FILL_TOL = 1e-14  # reduced entries below this share of the largest are zeroed
_DEPENDENT_TOL = 1e-12  # squared distance of a unit row from the rows kept


def _pivoted_cholesky(G, tol):
    """Pivots and factor of a pivoted Cholesky of the Gram matrix G.

    Each step takes the row with the largest residual diagonal, its squared
    distance from the span of the rows taken so far, and stops once that is
    at most `tol`.  Returns (pivots in pivot order, L) with L L^T = G on the
    pivot rows and L[:, :len(pivots)] the coordinates of every row in an
    orthonormal basis of their span.
    """
    n = len(G)
    L = np.zeros((n, n))
    resid = G.diagonal().copy()
    pivots = []
    for step in range(n):
        p = int(np.argmax(resid))
        if resid[p] <= tol:
            break
        col = (G[:, p] - L[:, :step] @ L[p, :step]) / math.sqrt(resid[p])
        col[pivots] = 0.0
        L[:, step] = col
        resid -= col * col
        resid[p] = -np.inf
        pivots.append(p)
    return pivots, L[:, :len(pivots)]


@dataclass
class Presolved:
    """Equality rows on SDP entries, as `presolve` leaves them.

    `rows` (dense, on the packed entry columns) and `rhs` are the rows kept,
    in input order, and `objective` the reduced objective on those columns,
    its constant dropped: what `SdpProblem.from_packed` takes.  `pivots`
    hold (free column, pivot row, rhs) for back-substitution.  `vanished`
    and `dependent` count the rows left out, and `contradiction` names a
    left-out row whose rhs the kept rows do not reproduce, or is None.
    """

    rows: np.ndarray
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

    The columns of A are the SDP entries x, packed as `sdp.pack` packs
    them, then `num_free` free scalars z.  `objective` is a linear
    objective on y to minimize, or None.  The rows that hold a free column
    are reduced in A in place.

    For each free column in turn the pivot is the live row with the largest
    |coefficient| (partial pivoting); it is subtracted from every other row
    and from the objective, and kept for back-substitution.  A column whose
    largest remaining coefficient is below `_FREE_TOL` of its own scale is
    absent and takes the value 0; an absent column that still has an
    objective coefficient is unbounded and raises ValueError.  (Anjos and
    Burer, SIAM J. Optim. 18(4), 2007; Lofberg, IEEE TAC 54(5), 2009.)

    Of the rows left, those with no coefficient vanish, and those in the
    span of the others are dependent, found by a pivoted Cholesky of the
    Gram matrix of the unit-scaled rows; both are left out.  A left-out row
    whose rhs the kept rows do not reproduce makes the system infeasible.
    """
    width = A.shape[1]
    n = width - num_free
    b = np.array(b, dtype=float)
    c = np.zeros(width) if objective is None else np.array(objective, dtype=float)
    touched = np.flatnonzero(np.any(A[:, n:] != 0.0, axis=1))
    T, bt = A[touched], b[touched]
    col_scale = np.max(np.abs(T), axis=0, initial=0.0)
    c_scale = np.max(np.abs(c), initial=0.0)
    fill_floor = _FILL_TOL * np.max(col_scale, initial=0.0)
    live = np.ones(len(touched), dtype=bool)
    pivots = []
    for col in range(n, width):
        height = np.where(live, np.abs(T[:, col]), 0.0)
        if np.max(height, initial=0.0) <= _FREE_TOL * col_scale[col]:
            if abs(c[col]) > _FREE_TOL * c_scale:
                raise ValueError(
                    f"free scalar {col - n} has an objective coefficient but "
                    "no constraint row: the objective is unbounded"
                )
            T[:, col] = 0.0
            continue
        p = int(np.argmax(height))
        live[p] = False
        row, rhs = T[p] / T[p, col], bt[p] / T[p, col]
        others = np.flatnonzero(live & (T[:, col] != 0.0))
        lam = T[others, col]
        T[others] -= np.outer(lam, row)
        T[others, col] = 0.0
        bt[others] -= lam * rhs
        c -= c[col] * row
        pivots.append((col, row, rhs))
    T[np.abs(T) <= fill_floor] = 0.0
    A[touched], b[touched] = T, bt
    c[np.abs(c) <= _FILL_TOL * c_scale] = 0.0

    left = np.ones(len(A), dtype=bool)
    left[touched[~live]] = False
    X = A[:, :n]
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    vanished = np.flatnonzero(left & (norms == 0.0))
    contradiction = None
    if np.any(np.abs(b[vanished]) > 1e-12):
        contradiction = "an equality row vanishes but demands %r" % (
            b[vanished][np.argmax(np.abs(b[vanished]))]
        )
    rest = np.flatnonzero(left & (norms > 0.0))
    unit = X[rest] / norms[rest, None]
    bu = b[rest] / norms[rest]
    kept, L = _pivoted_cholesky(unit @ unit.T, _DEPENDENT_TOL)
    dependent = sorted(set(range(len(rest))) - set(kept))
    if dependent and contradiction is None:
        # each dependent row is alpha . (kept rows) with Lk^T alpha = L[row]
        alpha = np.linalg.solve(L[kept].T, L[dependent].T)
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
    return Presolved(
        X[kept], b[kept], c[:n], pivots, num_free, len(vanished), len(dependent),
        contradiction,
    )


# ---------------------------------------------------------------------------
# facial reduction of the moment block

_FACE_TOL = 1e-10  # eigenvalues of K^T K below this share of the largest are 0
_VANISH_TOL = 1e-10  # a mapped row below this share of its own scale vanishes
_ROW_CHUNK_FLOATS = 1 << 20  # floats in one row-mapping temporary, at most


def _exponents(monos, nv):
    """The monomials as rows of an integer exponent array."""
    return np.array(monos, dtype=np.int64).reshape(-1, nv)


def _row_keys(E):
    """One exact key per row of a 2-D integer array: the row's bytes, as a
    numpy void scalar.  Equal keys are equal rows, so nothing can collide."""
    E = np.ascontiguousarray(E, dtype=np.int64)
    return E.view(np.dtype((np.void, E.shape[1] * E.itemsize))).reshape(len(E))


class _MonomialTable:
    """Exact lookup of exponent rows among the rows of a fixed array.

    The row keys are sorted stably, so a row that occurs more than once is
    found at its first occurrence.
    """

    def __init__(self, E):
        self.width = E.shape[1]
        keys = _row_keys(E)
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def find(self, E):
        """Index of each row of E (any leading shape) in the table, -1 where
        it is absent."""
        if not len(self.keys):
            return np.full(E.shape[:-1], -1)
        q = _row_keys(E.reshape(-1, self.width))
        pos = np.minimum(np.searchsorted(self.keys, q), len(self.keys) - 1)
        found = np.where(self.keys[pos] == q, self.order[pos], -1)
        return found.reshape(E.shape[:-1])


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
    lam, U = np.linalg.eigh(K.T @ K)
    U = U[:, lam <= _FACE_TOL * lam[-1]]
    P = U @ U.T
    free = sorted(_pivoted_cholesky(P, _FACE_TOL)[0])
    V = np.linalg.solve(P[np.ix_(free, free)], P[free]).T
    V[np.abs(V) <= _FACE_TOL] = 0.0
    V[free] = np.eye(len(free))
    return V


def _face_rows(V, sizes, num_free, num_rows, moment, other):
    """The rows as one dense matrix for `presolve`.

    The columns are the packed entries of the blocks of `sizes`, then the
    free scalars.  `moment` is a k x 4 array of entries (row, i, j, value)
    that read the unordered entry X0[i, j], grouped by row in ascending
    order; `other` lists entries (row, column, value) on the other blocks'
    packed columns and the free scalars, added in turn.  Block 0 is Z with
    X0 = V Z V^T, so a row's X0 part <A, X0> becomes <V^T A V, Z>, on Z's
    upper triangle; a part below `_VANISH_TOL` of its own scale vanishes on
    the face and is zeroed.
    """
    r = V.shape[1]
    width = sum(s * (s + 1) // 2 for s in sizes)
    R = np.zeros((num_rows, width + num_free))
    rows, cols, values = np.reshape(other, (-1, 3)).T
    np.add.at(R, (rows.astype(int), cols.astype(int)), values)
    counts = np.bincount(moment[:, 0].astype(int), minlength=num_rows)
    starts = np.cumsum(counts) - counts

    # rows grouped by X0 entry count: with H the sum of
    # value/2 * V[i]^T V[j], V^T A V = H + H^T
    for q in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == q)
        step = max(1, _ROW_CHUNK_FLOATS // (q * r * r))
        for chunk in (group[lo:lo + step] for lo in range(0, len(group), step)):
            ijv = moment[starts[chunk][:, None] + np.arange(q), 1:]  # chunk x q x 3
            I, J, W = ijv[..., 0].astype(int), ijv[..., 1].astype(int), ijv[..., 2]
            H = np.matmul((V[I] * (0.5 * W[..., None])).transpose(0, 2, 1), V[J])
            H += H.transpose(0, 2, 1)  # V^T A V, without a second chunk-sized copy
            coef = pack([H], off=2.0)
            scale = np.max(np.abs(W), axis=1, keepdims=True)
            coef[np.abs(coef) <= _FILL_TOL * scale] = 0.0
            coef[np.max(np.abs(coef), axis=1) <= _VANISH_TOL * scale[:, 0]] = 0.0
            R[chunk, :coef.shape[1]] = coef
    return R


# ---------------------------------------------------------------------------
# the relaxation compiler


class MomentRelaxation:
    """A compiled system: the SDP plus the maps needed to read answers back.

    `moment_positions` maps each representable monomial to the entry (i, j),
    i <= j, of the moment matrix that holds it, and `moment_gather` gives,
    for each upper-triangle entry in row-major order, the flat index of the
    entry that holds its monomial: X0.ravel()[moment_gather] is the packed
    upper triangle of the Hankel-exact moment matrix.  `face` is the
    echelon basis V of the moment block's face, built by `face_basis` from
    the kernel vectors `relax` finds, and block 0 of the SDP is Z with
    X0 = V Z V^T.  `aux_block_index` maps each auxiliary PSD block's name
    to its SDP block.  `problem` is posed on `presolve`'s rows,
    rhs and objective as they are; `presolved` keeps the rest, the pivots
    that give back the free scalars (`extract`).
    `rows_implied` counts the multiplier rows not built because the face
    implies them, `rows_vanished` and `rows_dependent` the built rows the
    presolve left out, and `nnz` the entries stored in the SDP's row matrix
    `problem.A`.
    """

    def __init__(self, system, basis, problem, positions, gather, aux_index,
                 presolved, face, rows_implied, trivially_infeasible):
        self.system = system
        self.basis = basis
        self.problem = problem
        self.moment_positions = positions
        self.moment_gather = gather
        self.aux_block_index = aux_index
        self.presolved = replace(presolved, rows=None, rhs=None, objective=None)
        self.face = face
        self.rows_implied = rows_implied
        self.rows_vanished = presolved.vanished
        self.rows_dependent = presolved.dependent
        self.trivially_infeasible = trivially_infeasible or presolved.contradiction
        self.nnz = problem.A.nnz

    def extract(self, solution):
        blocks = solution.primal_blocks
        free = self.presolved.free_values(pack(blocks)).tolist()
        pd = PseudoDistribution.from_upper_triangle(
            self.system.num_vars, self.system.relaxation_degree, self.basis,
            (self.face @ blocks[0] @ self.face.T).ravel()[self.moment_gather],
        )
        aux = {name: np.array(blocks[idx]) for name, idx in self.aux_block_index.items()}
        return pd, aux, free


def _objective_terms(objective, nv):
    if objective is None:
        return {}
    if isinstance(objective, Polynomial):
        if objective.dimension != nv:
            raise ValueError("objective dimension mismatch")
        return dict(objective.terms)
    return {tuple(m): float(c) for m, c in objective.items()}


def relax(system, objective=None, sense="min", basis=None):
    """Compile a constraint system into a moment-matrix SDP.

    `basis` overrides the default full monomial basis of degree ell/2; a
    reduced basis relaxes further (only multipliers whose products remain
    representable are imposed).  Feasible X of the returned problem are the
    moment matrices of degree-ell pseudo-distributions satisfying the system.

    One pass over the equalities enumerates, for each g, the multipliers m
    of degree <= ell - deg g whose products with the terms of g are all
    representable, each giving the row E~[m*g] = 0.  Among them are g's
    kernel multipliers: those whose products all lie in the basis, with
    every b*m, b in the basis, still within that degree.  Their coefficient
    vectors are the kernel vectors from which `face_basis` builds the
    echelon basis V, and the moment block is posed on that face: X0 =
    V Z V^T, and block 0 of the returned problem is Z = X0[f, f] on the
    face's free coordinates f.  The multiplier rows E~[b*m*g] = 0 with b in
    the basis and m a kernel multiplier of g are not built: with the Hankel
    rows each reads (X0 v)_b = 0, which V^T v = 0 makes hold for every Z
    (`rows_implied` counts them).  The rows built, and the objective as one
    more row, are held as entry arrays and mapped onto Z in one dense
    matrix (`_face_rows`), and `presolve` eliminates the free scalars and
    leaves out the rows that vanish on the face and those dependent on the
    rest.  The relaxation is `trivially_infeasible`, and no SDP needs
    solving, when the face leaves out the constant monomial or the presolve
    finds a contradiction.  The constraint cap counts the rows built.
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
        if basis[0] != _zero_mono(nv):
            raise ValueError("basis must start with the constant monomial")
    bsize = len(basis)
    if bsize * (bsize + 1) // 2 > DEFAULT_MONOMIAL_CAP:
        raise RelaxationSizeError(
            f"moment matrix over {bsize} basis monomials exceeds the cap "
            f"({DEFAULT_MONOMIAL_CAP} entries)"
        )

    # the moment matrix's upper-triangle pairs (i, j) in row-major order;
    # each monomial sits at the first pair that gives it, and a Hankel row
    # equates every later pair with that one
    B = _exponents(basis, nv)
    iu, ju = np.triu_indices(bsize)
    products = B[iu] + B[ju]
    pairs = _MonomialTable(products)
    first = pairs.find(products)
    canon = np.flatnonzero(first == np.arange(len(iu)))
    monos = products[canon]
    iu_list, ju_list = iu.tolist(), ju.tolist()
    positions = {
        mono: (iu_list[p], ju_list[p])
        for mono, p in zip(map(tuple, monos.tolist()), canon.tolist())
    }
    gather = iu[first] * bsize + ju[first]

    # the rows' entries on X0, (row, i, j, value) with rows ascending, as
    # `_face_rows` takes them: row 0 is E~[1] = 1, then the Hankel rows
    def on_pairs(start, at, coefs):
        """Rows start, start + 1, ..., one per row of `at`, each reading
        coefs[t] on the pair at[., t]."""
        rows = np.repeat(np.arange(start, start + len(at)), len(coefs))
        values = np.tile(coefs, len(at))
        at = at.ravel()
        return np.column_stack([rows, iu[at], ju[at], values])

    later = np.flatnonzero(first != np.arange(len(iu)))
    later = later[np.argsort(first[later], kind="stable")]
    moment = [
        np.array([[0, 0, 0, 1.0]]),
        on_pairs(1, np.column_stack([first[later], later]), [1.0, -1.0]),
    ]
    num_rows = 1 + len(later)

    # a multiplier m of degree <= ell - deg g is imposed when every product
    # with a term of g is representable.  The candidates are the quotients
    # of representable monomials by g's leading term, in grlex order.  m is
    # a kernel multiplier when each product lies in the basis, so that its
    # first pair is in row 0 (basis[0] = 1), and deg b*m <= ell - deg g for
    # every b in the basis; the rows of those multipliers b*m are implied.
    top = int(B.sum(axis=1).max())
    kernel, rows_implied = [np.zeros((0, bsize))], 0
    for g in system.equalities:
        if not g.terms:
            continue
        terms = _exponents(list(g.terms), nv)
        coefs = np.array(list(g.terms.values()))
        lead = terms[np.argmax(terms.sum(axis=1))]
        room = ell - g.degree()
        mult = monos - lead
        mult = mult[(mult.min(axis=1) >= 0) & (mult.sum(axis=1) <= room)]
        mult = mult[np.lexsort([*(-mult[:, ::-1].T), mult.sum(axis=1)])]
        at = pairs.find(mult[:, None, :] + terms[None, :, :])
        built = np.all(at >= 0, axis=1)
        kern = built & np.all(iu[at] == 0, axis=1) & (mult.sum(axis=1) <= room - top)
        # kernel vectors in the basis order of m times g's first term
        cols = ju[at[kern]]
        cols = cols[np.argsort(cols[:, 0], kind="stable")]
        kernel.append(np.zeros((len(cols), bsize)))
        kernel[-1][np.arange(len(cols))[:, None], cols] = coefs
        implied = _MonomialTable((B[:, None, :] + mult[kern][None]).reshape(-1, nv))
        skip = built & (implied.find(mult) >= 0)
        rows_implied += int(np.count_nonzero(skip))
        at = at[built & ~skip]
        moment.append(on_pairs(num_rows, at, coefs))
        num_rows += len(at)

    V = face_basis(np.concatenate(kernel))
    trivially_infeasible = None
    if np.linalg.norm(V[0]) <= _FACE_TOL:
        # no SDP to solve; the block is posed whole, for the record
        V = np.eye(bsize)
        trivially_infeasible = (
            "the equalities force E~[1] = 0: the face leaves out the constant"
        )
    block_sizes = [V.shape[1]] + [blk.size for blk in system.psd_blocks]
    aux_index = {blk.name: k + 1 for k, blk in enumerate(system.psd_blocks)}
    width = sum(s * (s + 1) // 2 for s in block_sizes)
    column = unpack(np.arange(width), block_sizes)  # the packed column of X[blk][i, j]

    # the affine rows and the objective row: their X0 entries, and their
    # (row, column, value) entries on the aux blocks and free scalars
    listed, other = [], []
    for aff in system.affine_equalities:
        for mono, coef in aff.poly.terms.items():
            if mono not in positions:
                raise ValueError(
                    f"affine equality references unrepresentable monomial {mono}"
                )
            listed.append((num_rows, *positions[mono], coef))
        other.extend((num_rows, column[aux_index[name]][i, j], coef)
                     for (name, i, j), coef in aff.psd.items())
        other.extend((num_rows, width + f, coef) for f, coef in aff.free.items())
        num_rows += 1
    if num_rows > DEFAULT_CONSTRAINT_CAP:
        raise RelaxationSizeError(
            f"{num_rows} linear constraints exceed the cap {DEFAULT_CONSTRAINT_CAP} "
            f"(moment block of size {bsize})"
        )
    sign = -1.0 if sense == "max" else 1.0
    for mono, coef in _objective_terms(objective, nv).items():
        if mono not in positions:
            raise ValueError(f"objective monomial {mono} not representable")
        listed.append((num_rows, *positions[mono], sign * coef))

    moment = np.concatenate(moment + [np.reshape(listed, (-1, 4))])
    R = _face_rows(V, block_sizes, system.num_free, num_rows + 1, moment, other)
    rhs = np.zeros(num_rows)
    rhs[0] = 1.0
    presolved = presolve(R[:-1], rhs, system.num_free, objective=R[-1])
    problem = SdpProblem.from_packed(
        block_sizes, presolved.rows, presolved.rhs, presolved.objective
    )
    return MomentRelaxation(
        system, basis, problem, positions, gather, aux_index,
        presolved, V, rows_implied, trivially_infeasible,
    )


@dataclass
class SystemSolution:
    status: str  # Optimal | Infeasible | MaxIterations
    pseudo: PseudoDistribution | None
    aux: dict
    free_values: list
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
            status="Infeasible", pseudo=None, aux={}, free_values=[],
            objective_value=None, sdp=solution, relaxation=relaxation,
            detail=relaxation.trivially_infeasible if solution is None else solution.detail,
        )
    pd, aux, free = relaxation.extract(solution)
    obj_val = None
    if objective is not None:
        terms = _objective_terms(objective, system.num_vars)
        positions = relaxation.moment_positions
        M = pd.moment_matrix
        obj_val = math.fsum(c * float(M[positions[m]]) for m, c in terms.items())
    return SystemSolution(
        status=solution.status, pseudo=pd, aux=aux, free_values=free,
        objective_value=obj_val, sdp=solution, relaxation=relaxation,
        detail=solution.detail,
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class CertPremise:
    """One term of a general certificate: (sum of squares) * constraint_product."""

    constraint_product: Polynomial
    multiplier_sos: list


@dataclass
class SosCertificate:
    """Witness of a polynomial inequality.

    Sphere form: base = sphere_multiplier*(|u|^2 - 1) + sum r_i^2.
    General form: base = sum over premises of (sum r^2) * product(constraints).
    """

    num_vars: int
    base_polynomial: Polynomial
    sphere_multiplier: Polynomial | None = None
    sos_part: list = field(default_factory=list)
    general_premises: list | None = None

    def to_json(self):
        def poly_terms(p):
            return [[list(m), c] for m, c in sorted(p.terms.items())]

        payload = {
            "num_vars": self.num_vars,
            "base_polynomial": poly_terms(self.base_polynomial),
            "sphere_multiplier": (
                None if self.sphere_multiplier is None
                else poly_terms(self.sphere_multiplier)
            ),
            "sos_part": [poly_terms(r) for r in self.sos_part],
            "general_premises": (
                None if self.general_premises is None
                else [
                    {
                        "constraint_product": poly_terms(p.constraint_product),
                        "multiplier_sos": [poly_terms(r) for r in p.multiplier_sos],
                    }
                    for p in self.general_premises
                ]
            ),
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        nv = payload["num_vars"]

        def poly(terms):
            return Polynomial(nv, {tuple(m): c for m, c in terms})

        return cls(
            num_vars=nv,
            base_polynomial=poly(payload["base_polynomial"]),
            sphere_multiplier=(
                None if payload["sphere_multiplier"] is None
                else poly(payload["sphere_multiplier"])
            ),
            sos_part=[poly(t) for t in payload["sos_part"]],
            general_premises=(
                None if payload["general_premises"] is None
                else [
                    CertPremise(
                        constraint_product=poly(p["constraint_product"]),
                        multiplier_sos=[poly(t) for t in p["multiplier_sos"]],
                    )
                    for p in payload["general_premises"]
                ]
            ),
        )


@dataclass
class VerifyResult:
    valid: bool
    residual: float
    detail: str = ""

    @property
    def label(self):
        return "Valid" if self.valid else "Invalid"


def _sos_sum(nv, parts):
    total = Polynomial.constant(nv, 0.0)
    for r in parts:
        total = total + r * r
    return total


def _max_coef(poly):
    return max((abs(c) for c in poly.terms.values()), default=0.0)


def _gram_min_eig(parts, nv):
    """Min eigenvalue of the Gram matrix assembled from explicit square roots."""
    if not parts:
        return 0.0
    monos = sorted({m for r in parts for m in r.terms}, key=_grlex_key)
    pos = {m: i for i, m in enumerate(monos)}
    R = np.zeros((len(parts), len(monos)))
    for k, r in enumerate(parts):
        for m, c in r.terms.items():
            R[k, pos[m]] = c
    G = R.T @ R
    return float(np.linalg.eigvalsh(G).min())


def sphere_polynomial(nv):
    """|u|^2 - 1, whose zero set is the unit sphere in nv variables."""
    return Polynomial(
        nv, {tuple(2 if i == j else 0 for j in range(nv)): 1.0 for i in range(nv)}
    ) - 1.0


def verify_certificate(cert, tolerance=1e-8):
    """Valid iff the defining identity holds coefficientwise and every SOS part
    has a PSD Gram matrix."""
    nv = cert.num_vars
    min_eig = 0.0
    if cert.general_premises is not None:
        total = Polynomial.constant(nv, 0.0)
        for prem in cert.general_premises:
            total = total + _sos_sum(nv, prem.multiplier_sos) * prem.constraint_product
            min_eig = min(min_eig, _gram_min_eig(prem.multiplier_sos, nv))
        diff = cert.base_polynomial - total
    else:
        total = _sos_sum(nv, cert.sos_part)
        if cert.sphere_multiplier is not None:
            total = total + cert.sphere_multiplier * sphere_polynomial(nv)
        min_eig = _gram_min_eig(cert.sos_part, nv)
        diff = cert.base_polynomial - total
    residual = _max_coef(diff)
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


def _multiplier_basis(nv, bound, homogeneous):
    if homogeneous:
        return monomials_of_degree(nv, bound) if bound >= 0 else []
    return enumerate_monomials(nv, max(bound, 0))


def coefficient_matrix(nv, degree, sos_premises, equality_premises=(),
                       homogeneous=False):
    """Coefficient-matching matrix of sum_S p_S*premise_S + sum_j q_j*eq_j.

    Returns (rows, A, bases, free_monos).  Row r of A gives the coefficient
    of the monomial rows[r] (grlex order) as a linear function of the
    unknowns: each Gram upper-triangle entry over bases[S], weighted 2 off
    the diagonal, then each coefficient of q_j on free_monos[j].  Each
    multiplier takes the largest degree that keeps the identity within
    `degree` (exactly that degree when `homogeneous`).  Both
    `find_sos_combination` and `estimators.build_B` pose their identities on
    this matrix.
    """
    # per column (monomial shift, weight, premise): its entry in the row of
    # shift*tau is weight * premise[tau]
    columns = []
    bases = []
    for p in sos_premises:
        bound = (degree - p.degree()) // 2
        if bound < 0 or (homogeneous and (degree - p.degree()) % 2 != 0):
            raise ValueError("premise degree incompatible with identity degree")
        bas = _multiplier_basis(nv, bound, homogeneous)
        if not bas:
            raise ValueError("empty Gram basis for a premise")
        for i, j in zip(*np.triu_indices(len(bas))):
            columns.append((monomial_mul(bas[i], bas[j]), 1.0 if i == j else 2.0, p))
        bases.append(bas)
    free_monos = []
    for e in equality_premises:
        monos = _multiplier_basis(nv, degree - e.degree(), homogeneous)
        free_monos.append(monos)
        columns.extend((m, 1.0, e) for m in monos)

    entries = {}
    for col, (shift, weight, premise) in enumerate(columns):
        for tau, c in premise.terms.items():
            entries[monomial_mul(shift, tau), col] = weight * c
    rows = sorted({gamma for gamma, _ in entries}, key=_grlex_key)
    row_of = {gamma: r for r, gamma in enumerate(rows)}
    A = np.zeros((len(rows), len(columns)))
    for (gamma, col), val in entries.items():
        A[row_of[gamma], col] = val
    return rows, A, bases, free_monos


def find_sos_combination(target, sos_premises, equality_premises=(), degree=None,
                         margin=None, homogeneous=False):
    """Search for target = sum_S p_S*premise_S + sum_j q_j*eq_j (+ t*margin).

    p_S are SOS (Gram PSD blocks), q_j are free polynomials, and t is
    maximized when a margin polynomial is given (a zero margin raises
    ValueError: t would be unbounded).  Returns the raw pieces; the caller
    assembles a certificate.

    The identity is posed on the matrix of `coefficient_matrix`, extended by
    a margin column and by a row for each margin or target monomial that no
    multiplier reaches.  `presolve` takes that matrix: it removes the free
    columns (the coefficients of q_j and t), so the SDP has only the Gram
    blocks and maximizes t as a linear objective on them, and it names a
    coefficient the identity cannot match; q_j and t come back by
    back-substitution.  After the solve the identity is polished by least
    squares on A, with the Grams projected to the PSD cone, and `residual`
    is the largest coefficient error max|b - A x| of the polished identity.
    A small residual is not a certificate: what a caller assembles is gated
    by `verify_certificate`.
    """
    nv = target.dimension
    if degree is None:
        degree = target.degree()
    if degree % 2 != 0:
        raise ValueError("identity degree must be even")

    rows, A_sos, bases, free_monos = coefficient_matrix(
        nv, degree, sos_premises, equality_premises, homogeneous
    )
    margin_terms = {} if margin is None else margin.terms
    gammas = sorted(set(rows) | set(margin_terms) | set(target.terms), key=_grlex_key)
    row_of = {gamma: r for r, gamma in enumerate(gammas)}
    A = np.zeros((len(gammas), A_sos.shape[1] + (margin is not None)))
    A[[row_of[gamma] for gamma in rows], :A_sos.shape[1]] = A_sos
    for gamma, c in margin_terms.items():
        A[row_of[gamma], -1] = c
    b = np.array([target.terms.get(gamma, 0.0) for gamma in gammas])

    # the Gram entries, then the free columns: multiplier coefficients and
    # the margin, which is maximized
    sizes = [len(bas) for bas in bases]
    num_free = sum(len(monos) for monos in free_monos) + (margin is not None)
    n_gram = A.shape[1] - num_free
    objective = np.zeros(A.shape[1])
    if margin is not None:
        objective[-1] = -1.0
    presolved = presolve(A.copy(), b, num_free, objective)
    solution = None
    if presolved.contradiction is None:
        problem = SdpProblem.from_packed(
            sizes, presolved.rows, presolved.rhs, presolved.objective
        )
        solution = sdp_solve(problem, SdpConfig(tol=1e-9, max_iters=300))
    if solution is None or solution.status == "Infeasible":
        return SosSearchResult(
            status="Infeasible", margin_value=None, grams=[], free_polys=[],
            residual=float("inf"),
            detail=presolved.contradiction if solution is None else solution.detail,
        )

    grams = [np.array(G) for G in solution.primal_blocks]
    vec = np.concatenate([pack(grams), presolved.free_values(pack(grams))])
    for _ in range(3):
        resid = b - A @ vec
        if np.max(np.abs(resid), initial=0.0) < 1e-14:
            break
        delta, *_ = np.linalg.lstsq(A, resid, rcond=None)
        vec = vec + delta
        # unpack, project grams to the PSD cone, repack
        grams = []
        for H in unpack(vec[:n_gram], sizes):
            w, V = np.linalg.eigh(H)
            grams.append((V * np.clip(w, 0.0, None)) @ V.T)
        vec = np.concatenate([pack(grams), vec[n_gram:]])

    free_polys, k = [], n_gram
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


_SQUARE_DROP_TOL = 1e-12  # Gram eigenvalues below this share of the largest are dropped


def gram_to_sos(basis, G):
    """Split a PSD Gram matrix into explicit square polynomials."""
    nv = len(basis[0])
    G = 0.5 * (np.asarray(G) + np.asarray(G).T)
    w, V = np.linalg.eigh(G)
    top = max(float(w.max(initial=0.0)), 1.0)
    parts = []
    for lam, vec in zip(w, V.T):
        if lam <= _SQUARE_DROP_TOL * top:
            continue
        coef = math.sqrt(lam)
        terms = {m: coef * float(c) for m, c in zip(basis, vec) if abs(c) > 1e-15}
        if terms:
            parts.append(Polynomial(nv, terms))
    return parts


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
    companion lower bound comes from build_interval_certificates).
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
        return SosCertificate(2, target, sos_part=[a - b])
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
        w0 = Polynomial.variable(2, 0)
        w1 = Polynomial.variable(2, 1)
        return SosCertificate(2, target, sos_part=[(w0 - w1) * (1 / math.sqrt(2))])
    return _homogeneous_sos_certificate(target, k, "am-gm")


def _homogeneous_sos_certificate(target, k, name):
    """target as one sum of squares of forms of degree k / 2."""
    nv = target.dimension
    result = find_sos_combination(
        target, sos_premises=[Polynomial.constant(nv, 1.0)],
        degree=k, homogeneous=True,
    )
    if result.status != "Optimal":
        raise RuntimeError(f"{name} certificate search failed: {result.detail}")
    return SosCertificate(nv, target, sos_part=gram_to_sos(*result.grams[0]))


def _power_reduction_certificate(k):
    f = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1.0)
    if k == 2:
        # 2 - 2f = (1 - f^2) + (1 - f)^2, exactly
        return SosCertificate(
            1,
            2.0 - 2.0 * f,
            general_premises=[
                CertPremise(one - f * f, [one]),
                CertPremise(one, [one - f]),
            ],
        )
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
            return SosCertificate(
                1, target,
                general_premises=[
                    CertPremise(one, gram_to_sos(*result.grams[0])),
                    CertPremise(premise, gram_to_sos(*result.grams[1])),
                ],
            ), detail
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
    slack = unpack(problem.c - problem.A.T @ y, problem.block_sizes, off=0.5)
    lam = min(float(np.linalg.eigvalsh(S)[0]) for S in slack)
    value = -float(problem.rhs @ y) + len(result.relaxation.basis) * max(0.0, -lam)
    if value <= 0.0:
        return 0.0
    return value ** (1.0 / order)
