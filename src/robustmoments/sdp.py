"""Dense semidefinite programming backend.

Solves min <C,X> s.t. <A_i,X> = b_i, X PSD with block-diagonal X.  The
algorithm is a primal-dual interior-point method in the homogeneous self-dual
embedding, with HKM search directions, Mehrotra predictor-corrector steps,
and a dense Cholesky factorization of the Schur complement.  The embedding
lets the same iteration converge either to an optimal pair or to a Farkas
ray proving infeasibility, which downstream certificate searches rely on to
distinguish "no certificate exists" from "solver trouble".

Problems are small (blocks up to a few hundred rows, a few thousand
constraints), so everything is dense and deterministic.

A problem keeps one format from its builders to the solver: one sparse row
matrix A on the packed entries of X (each block's upper triangle, row-major,
block by block; `pack` and `unpack` convert), with A[k] . pack(X) = <A_k, X>.
The solver works on one N x N matrix with the blocks on its diagonal, N the
sum of the block sizes: posed problems have one dominant block and at most a
few tiny ones.  X, S and the directions stay exactly zero off the blocks, as
every update is a sum of products of block-diagonal matrices, and the
solution's blocks are cut from the diagonal.  A is expanded once per solve
onto vec(X), each off-diagonal coefficient split half and half between
X[i, j] and X[j, i], and held once: A(X) is A vec(X), and A^T(y) reads
A^T y through a transposed view on A's arrays.

The Schur matrix M[i,j] = tr(A_i S^{-1} A_j X) is assembled with one
formula, after SDPA's F1 (Fujisawa, Kojima and Nakata, Math. Prog. 79,
1997): for a row with q stored entries, S^{-1} A_k X is the sum of q outer
products of columns of S^{-1} and rows of X, batched over the rows of equal
q, and A vec(S^{-1} A_k X) is row k of M.  Posed rows hold at most about
10 N entries, far from the N^2 at which a dense product per row pays.  Each
iteration factors M, X and S once, each as the inverse of its Cholesky
factor L: a Newton solve is two products with L^{-1}, O(m^2) each, and the
factors of X and S give S^{-1} and both step lengths.  The direction taken
gets one refinement step against its primal equation, measured on dX
itself.  A solve that reaches its iteration limit, whose linear algebra
fails, or whose direction is not finite, ends `MaxIterations` on the best
iterate it saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import sparse

DEFAULT_CONSTRAINT_CAP = 20_000
_CHUNK_FLOATS = 1 << 20  # floats in one Schur assembly temporary, at most
_STEP_FRACTION = 0.98  # share of the step to the cone boundary taken


@dataclass
class SdpConfig:
    max_iters: int = 200
    tol: float = 1e-7


class SdpSizeError(ValueError):
    """Problem exceeds the configured desk-scale caps."""


def pack(blocks, off=1):
    """The packed entry columns of symmetric blocks: each block's upper
    triangle, row-major, block by block.  Off-diagonal entries are scaled
    by `off`; 2 turns matrices A into the coefficients of <A, X>.  Leading
    axes of the blocks are kept, so a stack of blocks packs one by one."""
    parts = []
    for X in blocks:
        iu, ju = np.triu_indices(X.shape[-1])
        parts.append(X[..., iu, ju] * np.where(iu == ju, 1, off))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def unpack(vec, sizes, off=1):
    """The symmetric blocks of `sizes` whose packed entry columns are `vec`,
    with off-diagonal columns scaled by `off`; 1/2 turns coefficients of
    <A, X> back into the matrices A."""
    blocks, start = [], 0
    for s in sizes:
        iu, ju = np.triu_indices(s)
        part = vec[start:start + len(iu)] * np.where(iu == ju, 1, off)
        start += len(iu)
        blocks.append(np.zeros_like(part, shape=(s, s)))
        blocks[-1][iu, ju] = blocks[-1][ju, iu] = part
    return blocks


def _columns(sizes):
    """(block, i, j) arrays over the packed entry columns."""
    grids = [(np.full((s, s), b), *np.indices((s, s))) for b, s in enumerate(sizes)]
    return [pack(grid) for grid in zip(*grids)]


class SdpProblem:
    """Standard-form SDP data on the packed entry columns.

    `A` is the sparse (CSR) m x width row matrix, `rhs` the m right-hand
    sides and `c` the objective: row k says A[k] . pack(X) = rhs[k], and the
    objective is c . pack(X).  The constructor takes one symmetric matrix
    (or None) per block, as `add_constraint` does; `from_packed` takes rows
    already on the packed columns.  `objective` and `constraints` read the
    data back as matrices and entry rows.
    """

    def __init__(self, block_sizes, objective=None, constraints=None):
        self.block_sizes = [int(s) for s in block_sizes]
        if not self.block_sizes or any(s < 1 for s in self.block_sizes):
            raise ValueError("block sizes must be positive, and at least one")
        self.c = self._coefficients([] if objective is None else objective)
        self.A = sparse.csr_matrix((0, len(self.c)))
        self.rhs = np.zeros(0)
        for mats, b in constraints or []:
            self.add_constraint(mats, b)

    @classmethod
    def from_packed(cls, block_sizes, A, rhs, c):
        """The problem with rows A (dense or sparse), right-hand sides rhs
        and objective c, all on the packed entry columns, taken as given."""
        problem = cls(block_sizes)
        if np.shape(A) != (len(rhs), len(problem.c)) or np.shape(c) != problem.c.shape:
            raise ValueError("rows, rhs and objective do not fit the block sizes")
        problem.A = sparse.csr_matrix(A, dtype=float)
        problem.A.sum_duplicates()  # one sorted entry per column, as dump reads it
        problem.rhs, problem.c = np.array(rhs, dtype=float), np.array(c, dtype=float)
        return problem

    def _coefficients(self, mats):
        """The packed coefficients of sum_b <mats[b], X_b>; None is zero."""
        mats = list(mats) + [None] * (len(self.block_sizes) - len(mats))
        return pack(
            [np.zeros((s, s)) if mat is None else _as_symmetric(mat, s)
             for s, mat in zip(self.block_sizes, mats)],
            off=2.0,
        )

    def add_constraint(self, mats, rhs):
        """Dense constraint <A, X> = rhs, one symmetric matrix (or None) per
        block; stored as the packed row that reads a_ii on the diagonal and
        2 a_ij once for each i < j."""
        row = self._coefficients(mats)
        if not row.any():
            raise ValueError("constraint touches no block")
        self.A = sparse.vstack([self.A, sparse.csr_matrix(row)], format="csr")
        self.rhs = np.append(self.rhs, float(rhs))

    @property
    def num_constraints(self):
        return self.A.shape[0]

    @property
    def objective(self):
        """The objective as one symmetric matrix per block."""
        return unpack(self.c, self.block_sizes, off=0.5)

    @property
    def constraints(self):
        """The rows of A, each with `entries`: a dict (block, i, j) ->
        coefficient on the entry X[block][i, j], i <= j, read once.  Built
        on each read; the solver does not use them."""
        return [SimpleNamespace(entries=row) for row in self._entries(self.A)]

    def _entries(self, M):
        """Each row of the sparse matrix M on the packed columns as a dict
        (block, i, j) -> coefficient, in column order."""
        keys = list(zip(*(c.tolist() for c in _columns(self.block_sizes))))
        ends, cols, vals = M.indptr.tolist(), M.indices.tolist(), M.data.tolist()
        return [
            dict(zip((keys[c] for c in cols[lo:hi]), vals[lo:hi]))
            for lo, hi in zip(ends[:-1], ends[1:])
        ]

    def dump(self):
        """Line-based sparse text dump for cross-checking with other solvers.

        Each `obj` and `con` line gives the coefficient of the symmetric
        entry X[block][i, j], i <= j, read once, as a plain float.
        """
        lines = [f"blocks {' '.join(str(s) for s in self.block_sizes)}"]
        (objective,) = self._entries(sparse.csr_matrix(self.c))
        lines.extend(f"obj {b} {i} {j} {v!r}" for (b, i, j), v in objective.items())
        for ci, (row, rhs) in enumerate(zip(self._entries(self.A), self.rhs.tolist())):
            lines.append(f"rhs {ci} {rhs!r}")
            lines.extend(f"con {ci} {b} {i} {j} {v!r}" for (b, i, j), v in row.items())
        return "\n".join(lines) + "\n"


def _as_symmetric(mat, size):
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (size, size):
        raise ValueError(f"matrix shape {mat.shape} does not match block size {size}")
    if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-12:
        raise ValueError("constraint/objective matrices must be symmetric")
    return 0.5 * (mat + mat.T)


@dataclass
class SdpSolution:
    """The result of `solve`, scaled back from the embedding by tau.

    `primal_residual` is ||A(X) - b||_2 and `dual_residual` the Frobenius
    norm of C - A^T(y) - S over the whole block-diagonal matrix, at most
    sqrt(number of blocks) times the largest block's.  An `Infeasible` solve
    carries the Farkas ray y / b.y and its residual ||A^T(y) + S||_F / b.y.
    Both are tested over the whole matrix against a tolerance scaled by
    1 + the largest block's ||C||_F, so the tests are stricter than per-block
    ones by at most sqrt(number of blocks).
    """

    primal_blocks: list
    dual: np.ndarray
    status: str  # Optimal | Infeasible | MaxIterations
    primal_residual: float
    dual_residual: float
    duality_gap: float
    min_eigenvalue: float
    iterations: int
    primal_objective: float
    dual_objective: float
    infeasibility_ray: np.ndarray | None = None
    ray_residual: float | None = None
    detail: str = ""


def solve(problem, config=None):
    config = config or SdpConfig()
    if problem.num_constraints > DEFAULT_CONSTRAINT_CAP:
        raise SdpSizeError(
            f"{problem.num_constraints} constraints exceed cap {DEFAULT_CONSTRAINT_CAP}"
        )
    return _HsdSolver(problem, config).run()


class _HsdSolver:
    def __init__(self, problem, config):
        self.config = config
        self.sizes = problem.block_sizes
        self.m = problem.num_constraints
        self.N = N = sum(self.sizes)
        self.b = np.array(problem.rhs, dtype=float)
        self.C = self._vec_rows(sparse.csr_matrix(problem.c)).toarray().reshape(N, N)
        self.bnorm = 1.0 + float(np.linalg.norm(self.b))
        self.cnorm = 1.0 + max(float(np.linalg.norm(c)) for c in problem.objective)
        self.A = self._vec_rows(problem.A)
        self.At = self.A.T  # a view on A's arrays: the rows are held once
        # the rows grouped by entry count q as (rows, I, J, V), in chunks that
        # bound the assembly's temporaries: two rows x q x N products, T
        # (rows x N^2) and the rows x m result
        self.groups = []
        counts = np.diff(self.A.indptr)
        for q in np.unique(counts[counts > 0]):
            rows = np.flatnonzero(counts == q)
            step = max(1, _CHUNK_FLOATS // max(q * N, N * N, self.m))
            for chunk in np.split(rows, range(step, len(rows), step)):
                pos = self.A.indptr[chunk][:, None] + np.arange(q)
                cols = self.A.indices[pos]
                self.groups.append((chunk, cols // N, cols % N, self.A.data[pos][:, :, None]))

    def _vec_rows(self, A):
        """The packed rows A on vec(X), X the N x N block-diagonal matrix:
        column (b, i, j) is X[o_b + i, o_b + j], o_b the offset of block b,
        and tr(A_k X) = rows[k] @ vec(X)."""
        N = self.N
        b, i, j = (col[A.indices] for col in _columns(self.sizes))
        o = np.cumsum([0] + self.sizes)[b]
        ij, ji = (o + i) * N + o + j, (o + j) * N + o + i
        k, val = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.data
        # an off-diagonal entry puts half on each orientation, so that the
        # functional reads the symmetric entry once
        off = ij != ji
        return sparse.csr_matrix(
            (
                np.concatenate([np.where(off, 0.5 * val, val), 0.5 * val[off]]),
                (np.concatenate([k, k[off]]), np.concatenate([ij, ji[off]])),
            ),
            shape=(A.shape[0], N * N),
        )

    def _apply_A(self, X):
        return self.A @ X.ravel()

    def _apply_At(self, y):
        return (self.At @ y).reshape(self.N, self.N)

    # -- main loop ----------------------------------------------------------

    def run(self):
        cfg = self.config
        X, S = np.eye(self.N), np.eye(self.N)
        y = np.zeros(self.m)
        tau, kappa = 1.0, 1.0
        best = (np.inf, 0, X, S, y, tau)  # least merit seen, its iteration and iterate
        it = 0

        for it in range(1, cfg.max_iters + 1):
            mu = (_inner(X, S) + tau * kappa) / (self.N + 1)

            r_P, R_D, cx, by, scaled = self._measure(X, S, y, tau)
            r_G = by - cx - kappa
            merit = _merit(scaled)
            if merit < best[0]:
                best = (merit, it, X, S, y, tau)

            term = self._check_termination(X, S, y, cx, by, scaled)
            if term is not None:
                return self._finish(*term, X, S, y, tau, it)

            try:
                # one inverse factor each serves Sinv and both step lengths; an
                # X that fails Cholesky falls back, an S ends the solve
                LX = _inverse_cholesky(X)
                LS = np.linalg.inv(np.linalg.cholesky(S))
                Sinv = LS.T @ LS
                factor = _schur_factor(self._schur_matrix(Sinv, X))

                # affine probe: aim straight at mu = 0 to gauge achievable
                # progress, then re-solve with the centering weight that probe
                # suggests.  The second-order Mehrotra term is deliberately
                # omitted: at these problem sizes the extra solve per iteration
                # is cheap and the plain direction is markedly more robust near
                # the cone boundary.  Both directions share the
                # sigma-independent half of the system.
                base = self._newton_base(X, tau, kappa, Sinv, factor, R_D)
                if base is None:
                    return self._abnormal(
                        "singular Newton system", best, merit, X, S, y, tau, it
                    )
                aff = self._direction(
                    X, tau, kappa, mu, Sinv, factor, base, r_P, R_D, r_G,
                    sigma=0.0, eta=1.0,
                )
                alpha_aff = self._max_step(LX, LS, tau, kappa, aff)
                mu_aff = self._mu_after(X, S, tau, kappa, aff, alpha_aff)
                sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-8))

                corr = self._direction(
                    X, tau, kappa, mu, Sinv, factor, base, r_P, R_D, r_G,
                    sigma=sigma, eta=1.0 - sigma,
                )
                corr = self._refine(X, Sinv, factor, corr, r_P, 1.0 - sigma)
                alpha = _STEP_FRACTION * self._max_step(LX, LS, tau, kappa, corr)
                alpha = min(alpha, 1.0)
            except np.linalg.LinAlgError:
                return self._abnormal(
                    "iterate left the cone numerically", best, merit, X, S, y, tau, it
                )
            if not np.isfinite(alpha_aff + alpha):
                return self._abnormal(
                    "non-finite Newton direction", best, merit, X, S, y, tau, it
                )
            if alpha < 1e-10:
                return self._abnormal(
                    "step length collapsed", best, merit, X, S, y, tau, it
                )

            dX, dy, dS, dtau, dkappa = corr
            X = _symmetrize(X + alpha * dX)
            S = _symmetrize(S + alpha * dS)
            y = y + alpha * dy
            tau += alpha * dtau
            kappa += alpha * dkappa

        merit = _merit(self._measure(X, S, y, tau)[-1])
        return self._abnormal("iteration limit", best, merit, X, S, y, tau, it)

    # -- termination --------------------------------------------------------

    def _measure(self, X, S, y, tau):
        """Residuals of an iterate: r_P, R_D, <C,X>, <b,y> and the scaled
        (pres_abs, pres, dres, gap) the tolerance bounds, None once tau has
        collapsed."""
        r_P = self._apply_A(X) - self.b * tau
        R_D = self.C * tau - self._apply_At(y) - S
        cx = _inner(self.C, X)
        by = float(self.b @ y)
        scaled = None
        if tau > 1e-10:
            pres_abs = float(np.linalg.norm(r_P)) / tau
            pres = pres_abs / self.bnorm
            dres = float(np.linalg.norm(R_D)) / tau / self.cnorm
            pobj, dobj = cx / tau, by / tau
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            scaled = (pres_abs, pres, dres, gap)
        return r_P, R_D, cx, by, scaled

    def _check_termination(self, X, S, y, cx, by, scaled):
        tol = self.config.tol
        if scaled is not None:
            pres_abs, pres, dres, gap = scaled
            if (
                pres <= tol
                and dres <= tol
                and gap <= max(tol, 1e-9)
                and pres_abs <= 10 * tol
            ):
                return ("Optimal", "", None)

        # Farkas tests for infeasibility: A^T(y) + S ~ 0 with <b,y> > 0
        if by > tol:
            cert = float(np.linalg.norm(self._apply_At(y) + S)) / by
            if cert <= tol * self.cnorm * 10:
                return ("Infeasible", "primal infeasibility certificate", (y / by, cert))
        # unbounded primal (dual infeasible): A(X) ~ 0 with <C,X> < 0
        if cx < -tol:
            cert = float(np.linalg.norm(self._apply_A(X))) / (-cx)
            if cert <= tol * self.bnorm * 10:
                return (
                    "MaxIterations",
                    "primal appears unbounded (dual infeasible ray found)",
                    None,
                )
        return None

    def _abnormal(self, detail, best, merit, X, S, y, tau, iterations):
        """End `MaxIterations` on the iterate of least merit seen: the last
        one, unless an earlier one was better."""
        best_merit, best_it, *iterate = best
        if best_merit < merit:
            detail += "; returned the best iterate (iteration %d)" % best_it
            X, S, y, tau = iterate
        return self._finish("MaxIterations", detail, None, X, S, y, tau, iterations)

    def _finish(self, status, detail, payload, X, S, y, tau, iterations):
        scale = max(tau, 1e-10)
        Xh, yh, Sh = X / scale, y / scale, S / scale
        r_P, R_D, pobj, dobj, _ = self._measure(Xh, Sh, yh, 1.0)
        ends = np.cumsum(self.sizes)
        ray, ray_res = (payload if payload is not None else (None, None))
        return SdpSolution(
            primal_blocks=[Xh[e - s:e, e - s:e] for s, e in zip(self.sizes, ends)],
            dual=yh,
            status=status,
            primal_residual=float(np.linalg.norm(r_P)),
            dual_residual=float(np.linalg.norm(R_D)),
            duality_gap=abs(pobj - dobj),
            min_eigenvalue=float(np.linalg.eigvalsh(Xh).min()),
            iterations=iterations,
            primal_objective=pobj,
            dual_objective=dobj,
            infeasibility_ray=ray,
            ray_residual=ray_res,
            detail=detail,
        )

    # -- Newton system ------------------------------------------------------

    def _schur_matrix(self, Sinv, X):
        """M[i,j] = tr(A_i S^{-1} A_j X), symmetrized: row k is
        A vec(S^{-1} A_k X), with S^{-1} A_k X the sum of q outer products of
        columns of S^{-1} and rows of X, one per stored entry, batched over
        the rows of a group."""
        M = np.zeros((self.m, self.m))
        for rows, I, J, V in self.groups:
            T = np.matmul((Sinv.T[I] * V).transpose(0, 2, 1), X[J])
            M[rows] = (self.A @ T.reshape(len(rows), -1).T).T
        return 0.5 * (M + M.T)

    def _newton_base(self, X, tau, kappa, Sinv, factor, R_D):
        """The sigma-independent half of the Newton system; None if singular."""
        # with P = S^{-1} C X and Q = S^{-1} R_D X:
        P = Sinv @ self.C @ X
        Q = Sinv @ R_D @ X
        g = self._apply_A(P)
        h = self._apply_A(Q)
        cbar = _inner(self.C, P)
        e = _inner(self.C, Q)
        w1 = _schur_solve(factor, self.b + g)
        den = float((self.b - g) @ w1) + cbar + kappa / tau
        if abs(den) < 1e-300:
            return None
        return g, h, e, w1, den

    def _direction(self, X, tau, kappa, mu, Sinv, factor, base, r_P, R_D, r_G,
                   sigma, eta):
        g, h, e, w1, den = base
        Xi = sigma * mu * Sinv - X
        rc_t = sigma * mu - tau * kappa
        A_Xi = self._apply_A(Xi)
        c_Xi = _inner(self.C, Xi)

        v = eta * (h - r_P) - A_Xi
        u = -eta * r_G + c_Xi - eta * e + rc_t / tau

        w2 = _schur_solve(factor, v)
        dtau = (u - float((self.b - g) @ w2)) / den
        dy = w1 * dtau + w2
        dS = self.C * dtau - self._apply_At(dy) + eta * R_D
        dX = _symmetrize(Xi - Sinv @ dS @ X)
        dkappa = rc_t / tau - (kappa / tau) * dtau
        return (dX, dy, dS, dtau, dkappa)

    def _refine(self, X, Sinv, factor, direction, r_P, eta):
        """One refinement step on the primal equation A(dX) - b dtau = -eta r_P.

        Near a degenerate optimum the Schur matrix loses the digits that
        equation needs, and the primal residual stalls above the tolerance.
        The miss e is measured on dX itself; z with M z = -e moves dy by z,
        dS by -A^T(z) and dX by S^{-1} A^T(z) X, which removes it to first
        order.  A miss below a thousandth of the target is left alone.
        """
        dX, dy, dS, dtau, dkappa = direction
        e = self._apply_A(dX) - self.b * dtau + eta * r_P
        if np.linalg.norm(e) <= 1e-3 * eta * np.linalg.norm(r_P):
            return direction
        z = -_schur_solve(factor, e)
        At_z = self._apply_At(z)
        return (dX + _symmetrize(Sinv @ At_z @ X), dy + z, dS - At_z, dtau, dkappa)

    # -- step sizes ---------------------------------------------------------

    def _max_step(self, LX, LS, tau, kappa, direction):
        """Largest step to the boundary of the cones, or nan for a direction
        that is not finite.  For B with inverse Cholesky factor L^{-1},
        B + alpha dB stays PSD while alpha <= -1 / lambda_min(L^{-1} dB L^{-T}),
        if that eigenvalue is < 0."""
        dX, _, dS, dtau, dkappa = direction
        alpha = 1e30
        for inv_L, d in ((LX, dX), (LS, dS)):
            W = _symmetrize(inv_L @ d @ inv_L.T)
            if not np.isfinite(W).all():
                return np.nan
            lam = float(np.linalg.eigvalsh(W).min())
            if lam < 0:
                alpha = min(alpha, -1.0 / lam)
        if dtau < 0:
            alpha = min(alpha, -tau / dtau)
        if dkappa < 0:
            alpha = min(alpha, -kappa / dkappa)
        return alpha

    def _mu_after(self, X, S, tau, kappa, direction, alpha):
        dX, _, dS, dtau, dkappa = direction
        alpha = min(alpha * _STEP_FRACTION, 1.0)
        XS = _inner(X + alpha * dX, S + alpha * dS)
        return (XS + (tau + alpha * dtau) * (kappa + alpha * dkappa)) / (self.N + 1)


def _inner(a, b):
    return float(np.sum(a * b))


def _merit(scaled):
    """The largest scaled residual, pres, dres or gap; inf once tau collapsed."""
    return np.inf if scaled is None else max(scaled[1:])


def _schur_factor(M):
    """The inverse of the Cholesky factor of the Schur matrix M, with M's
    diagonal jittered in place until it factors."""
    diag = M.diagonal().copy()
    base = max(np.trace(M) / max(len(M), 1), 1.0)
    for attempt in range(8):
        try:
            return np.linalg.inv(np.linalg.cholesky(M))
        except np.linalg.LinAlgError:
            # the same matrix as M + jitter * I, written in place
            np.fill_diagonal(M, diag + base * (1e-14 * 10 ** attempt))
    raise np.linalg.LinAlgError("Schur complement not PD")


def _schur_solve(inv_L, rhs):
    """Solve M x = rhs with the inverse Cholesky factor of M."""
    return inv_L.T @ (inv_L @ rhs)


def _symmetrize(mat):
    return 0.5 * (mat + mat.T)


def _inverse_cholesky(mat):
    """The inverse of the Cholesky factor L of a positive definite matrix;
    one that fails Cholesky is first moved to eigenvalues >= 1e-14."""
    try:
        L = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(mat)
        w = np.clip(w, 1e-14, None)
        L = np.linalg.cholesky(V @ np.diag(w) @ V.T)
    return np.linalg.inv(L)
