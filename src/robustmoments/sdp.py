"""Dense semidefinite programming backend.

Solves min <C,X> s.t. <A_i,X> = b_i, X PSD with block-diagonal X.  The
algorithm is a primal-dual interior-point method in the homogeneous self-dual
embedding, with HKM search directions, Mehrotra predictor-corrector steps,
and a dense Cholesky factorization of the Schur complement.  The corrector
takes the affine probe's second-order terms off its complementarity targets:
S^{-1} dS_aff dX_aff, symmetrized, from the HKM target sigma mu S^{-1} - X,
and dtau_aff dkappa_aff from sigma mu - tau kappa (Mehrotra, SIAM J. Optim.
2(4), 1992; SDPT3 does the same with HKM directions).  The embedding
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
solution's blocks are cut from the diagonal.  One map, computed once per
solve, gives each packed column's flat position in X and its mirror; A and
C are expanded through it onto vec(X), each off-diagonal coefficient split
half and half between X[i, j] and X[j, i].  The vec'd rows are held once,
as CSR arrays with each entry's row beside it, and numpy applies them:
A(X) and A^T(y) are `bincount` sums of entry products, in a sparse
product's order.  On tiny problems each call costs more than its
arithmetic, so X and S are stepped as one stack, with one Cholesky, one
inverse and one `eigvalsh` for both.

The Schur matrix M[i,j] = tr(A_i S^{-1} A_j X) is assembled with one
formula, after SDPA's F1 (Fujisawa, Kojima and Nakata, Math. Prog. 79,
1997): for a row with q stored entries, S^{-1} A_k X is the sum of q outer
products of columns of S^{-1} and rows of X, batched over a group of rows,
and A vec(S^{-1} A_k X) is row k of M.  Rows of adjacent q share a group,
padded with weight-0 slots, while the padding costs less than a group's
fixed overhead, so a tiny problem assembles in one group.  Posed rows hold
at most about 10 N entries, far from the N^2 at which a dense product per
row pays.  Each iteration factors M, X and S once, each as the inverse of
its Cholesky factor L: a Newton solve is two products with L^{-1}, O(m^2)
each, and the factors of X and S give S^{-1} and both step lengths.  The
direction taken gets one refinement step against its primal equation,
measured on dX itself.  A solve that reaches its iteration limit, whose
linear algebra fails, or whose direction is not finite, ends
`MaxIterations` on the best iterate it saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import sparse

DEFAULT_CONSTRAINT_CAP = 20_000
_CHUNK_FLOATS = 1 << 20  # floats in one Schur assembly temporary, at most
_GROUP_FLOPS = 1 << 14  # a Schur group's fixed cost, about 15 us, in multiply-adds
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
    """(block, i, j) arrays over the packed entry columns: each block's
    upper triangle, row-major, in the order `pack` writes them."""
    tri = [np.nonzero(np.arange(s)[:, None] <= np.arange(s)) for s in sizes]
    return [np.repeat(np.arange(len(sizes)), [len(i) for i, _ in tri]),
            *(np.concatenate(c) for c in zip(*tri))]


class SdpProblem:
    """Standard-form SDP data on the packed entry columns.

    `A` is the rows (dense or sparse, stored as an m x width CSR matrix),
    `rhs` the m right-hand sides and `c` the objective, all on the packed
    entry columns of the blocks of `block_sizes`, taken as given: row k says
    A[k] . pack(X) = rhs[k], and the objective is c . pack(X).  A matrix
    coefficient a_ij of <A, X> is written a_ii on the diagonal and 2 a_ij
    once for each i < j, as `pack(mats, off=2)` writes it.  `objective` and
    `constraints` read the data back as matrices and entry rows.  Data that
    does not fit the block sizes, or is not finite, raises `ValueError`.
    """

    def __init__(self, block_sizes, A, rhs, c):
        self.block_sizes = [int(s) for s in block_sizes]
        if not self.block_sizes or any(s < 1 for s in self.block_sizes):
            raise ValueError("block sizes must be positive, and at least one")
        width = sum(s * (s + 1) // 2 for s in self.block_sizes)
        if np.shape(A) != (len(rhs), width) or np.shape(c) != (width,):
            raise ValueError("rows, rhs and objective do not fit the block sizes")
        self.A = sparse.csr_matrix(A, dtype=float)
        self.A.sum_duplicates()  # one sorted entry per column, as dump reads it
        self.rhs, self.c = np.array(rhs, dtype=float), np.array(c, dtype=float)
        if not all(np.isfinite(v).all() for v in (self.A.data, self.rhs, self.c)):
            raise ValueError("rows, rhs and objective must be finite")

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
    """Solve `problem` and return an `SdpSolution` whose `status` is one of
    `Optimal` (residuals and gap within `config.tol`), `Infeasible` (a
    Farkas ray y with b.y > 0 and A^T(y) + S ~ 0 proves that no X is
    feasible) or `MaxIterations` (the iteration limit, a numerical failure
    or an apparently unbounded primal; `detail` says which, and the
    solution is the best iterate seen).  Raises `SdpSizeError` past
    `DEFAULT_CONSTRAINT_CAP` rows."""
    config = config or SdpConfig()
    if problem.num_constraints > DEFAULT_CONSTRAINT_CAP:
        raise SdpSizeError(
            f"{problem.num_constraints} constraints exceed cap {DEFAULT_CONSTRAINT_CAP}"
        )
    # no numpy warning: a non-finite value ends the solve, with a named
    # detail, through the finite checks in `run`
    with np.errstate(over="ignore", invalid="ignore"):
        return _HsdSolver(problem, config).run()


class _HsdSolver:
    def __init__(self, problem, config):
        self.config = config
        self.sizes = sizes = problem.block_sizes
        self.m = m = problem.num_constraints
        self.N = N = sum(sizes)
        self.b = problem.rhs
        self.bnorm = 1.0 + float(np.linalg.norm(self.b))
        # the one map from the packed columns to vec(X): column (b, i, j) is
        # X[o_b + i, o_b + j], o_b the offset of block b, at flat index ij,
        # and its mirror at ji.  An off-diagonal coefficient puts half on
        # each orientation, so that a functional reads the entry once.
        b, i, j = _columns(sizes)
        o = np.cumsum([0] + sizes)[b]
        ij, ji = (o + i) * N + o + j, (o + j) * N + o + i
        off = ij != ji
        half = np.where(off, 0.5, 1.0)
        C = np.zeros(N * N)
        C[ij] = C[ji] = half * problem.c
        self.C = C.reshape(N, N)
        ends = np.cumsum(sizes)
        self.cnorm = 1.0 + max(
            float(np.linalg.norm(self.C[e - s:e, e - s:e])) for s, e in zip(sizes, ends))
        # the vec'd rows through the same map, as CSR arrays in column order
        # with each entry's row beside it: tr(A_k X) = A[k] @ vec(X)
        P = problem.A
        k, cols = np.repeat(np.arange(m), np.diff(P.indptr)), P.indices
        val, part = half[cols] * P.data, off[cols]
        rows = np.concatenate([k, k[part]])
        cols = np.concatenate([ij[cols], ji[cols[part]]])
        order = np.argsort(rows * N * N + cols)
        self.rows, self.cols = rows[order], cols[order]
        self.vals = np.concatenate([val, val[part]])[order]
        counts = np.bincount(self.rows, minlength=m)
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        # the columns of vec(X) that A reads, and A on those alone, on the
        # same arrays: the assembly copies only those rows of each group's T^T
        self.used, used_cols = np.unique(self.cols, return_inverse=True)
        self.A_used = sparse.csr_matrix(
            (self.vals, used_cols, self.indptr), shape=(m, len(self.used)))
        # the row groups as (rows, I, J, V), weight-0 slots padding each row
        # to its group's q, in chunks that bound the assembly's temporaries:
        # two rows x q x N products, T (rows x N^2) and the rows x m result
        self.groups = []
        for rows, q in _schur_groups(counts, N):
            step = max(1, _CHUNK_FLOATS // max(q * N, N * N, m))
            for chunk in np.split(rows, range(step, len(rows), step)):
                slot = np.arange(q)
                pad = slot >= counts[chunk][:, None]
                pos = np.where(pad, 0, self.indptr[chunk][:, None] + slot)
                I, J = np.divmod(self.cols[pos], N)
                self.groups.append((chunk, I, J, np.where(pad, 0.0, self.vals[pos])[:, :, None]))

    def _apply_A(self, X):
        return np.bincount(self.rows, self.vals * X.take(self.cols), self.m)

    def _apply_At(self, y):
        At_y = np.bincount(self.cols, self.vals * y.take(self.rows), self.N * self.N)
        return At_y.reshape(self.N, self.N)

    # -- main loop ----------------------------------------------------------

    def run(self):
        cfg = self.config
        XS = np.array((np.eye(self.N), np.eye(self.N)))  # X and S, stepped together
        y = np.zeros(self.m)
        tau, kappa = 1.0, 1.0
        best = (np.inf, 0, XS, y, tau)  # least merit seen, its iteration and iterate
        it = 0

        for it in range(1, cfg.max_iters + 1):
            X, S = XS
            mu = (_inner(X, S) + tau * kappa) / (self.N + 1)

            r_P, R_D, cx, by, scaled = self._measure(X, S, y, tau)
            r_G = by - cx - kappa
            merit = _merit(scaled)
            if merit < best[0]:
                best = (merit, it, XS, y, tau)

            term = self._check_termination(y, r_P, R_D, tau, cx, by, scaled)
            if term is not None:
                return self._finish(*term, XS, y, tau, it)

            try:
                # one inverse factor each, X's and S's factored together, serves
                # Sinv and both step lengths; an X that fails Cholesky falls
                # back, an S ends the solve
                try:
                    L = np.linalg.inv(np.linalg.cholesky(XS))
                except np.linalg.LinAlgError:
                    L = np.array((_inverse_cholesky(X), np.linalg.inv(np.linalg.cholesky(S))))
                Sinv = L[1].T @ L[1]
                factor = _schur_factor(self._schur_matrix(Sinv, X))

                # affine probe: aim straight at mu = 0 to gauge achievable
                # progress, then re-solve with the centering weight that probe
                # suggests and Mehrotra's second-order term, the complementarity
                # the probe's full step would leave behind.  Both directions
                # share the sigma-independent half of the system.
                base = self._newton_base(X, tau, kappa, Sinv, factor, r_P, R_D)
                if base is None:
                    return self._abnormal(
                        "singular Newton system", best, merit, XS, y, tau, it
                    )
                aff = self._direction(X, tau, kappa, mu, Sinv, factor, base, R_D, r_G,
                                      sigma=0.0, eta=1.0)
                alpha_aff = self._max_step(L, tau, kappa, aff)
                mu_aff = self._mu_after(XS, tau, kappa, aff, alpha_aff)
                sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-8))

                corr = self._direction(X, tau, kappa, mu, Sinv, factor, base, R_D, r_G,
                                       sigma=sigma, eta=1.0 - sigma, aff=aff)
                corr = self._refine(X, Sinv, factor, corr, r_P, 1.0 - sigma)
                alpha = _STEP_FRACTION * self._max_step(L, tau, kappa, corr)
                alpha = min(alpha, 1.0)
            except np.linalg.LinAlgError:
                return self._abnormal(
                    "iterate left the cone numerically", best, merit, XS, y, tau, it
                )
            if not np.isfinite(alpha_aff + alpha):
                return self._abnormal(
                    "non-finite Newton direction", best, merit, XS, y, tau, it
                )
            if alpha < 1e-10:
                return self._abnormal(
                    "step length collapsed", best, merit, XS, y, tau, it
                )

            # dX and dS are exactly symmetric, and so X and S stay so
            dXS, dy, dtau, dkappa = corr
            XS = XS + alpha * dXS
            y = y + alpha * dy
            tau += alpha * dtau
            kappa += alpha * dkappa

        merit = _merit(self._measure(*XS, y, tau)[-1])
        return self._abnormal("iteration limit", best, merit, XS, y, tau, it)

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
            pres_abs = _norm(r_P) / tau
            pres = pres_abs / self.bnorm
            dres = _norm(R_D) / tau / self.cnorm
            pobj, dobj = cx / tau, by / tau
            gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            scaled = (pres_abs, pres, dres, gap)
        return r_P, R_D, cx, by, scaled

    def _check_termination(self, y, r_P, R_D, tau, cx, by, scaled):
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

        # Farkas tests for infeasibility: A^T(y) + S = tau C - R_D ~ 0, <b,y> > 0
        if by > tol:
            cert = _norm(self.C * tau - R_D) / by
            if cert <= tol * self.cnorm * 10:
                return ("Infeasible", "primal infeasibility certificate", (y / by, cert))
        # unbounded primal (dual infeasible): A(X) ~ 0 with <C,X> < 0
        if cx < -tol:
            cert = _norm(r_P + self.b * tau) / (-cx)
            if cert <= tol * self.bnorm * 10:
                return (
                    "MaxIterations",
                    "primal appears unbounded (dual infeasible ray found)",
                    None,
                )
        return None

    def _abnormal(self, detail, best, merit, XS, y, tau, iterations):
        """End `MaxIterations` on the iterate of least merit seen: the last
        one, unless an earlier one was better."""
        best_merit, best_it, *iterate = best
        if best_merit < merit:
            detail += "; returned the best iterate (iteration %d)" % best_it
            XS, y, tau = iterate
        return self._finish("MaxIterations", detail, None, XS, y, tau, iterations)

    def _finish(self, status, detail, payload, XS, y, tau, iterations):
        scale = max(tau, 1e-10)
        (Xh, Sh), yh = XS / scale, y / scale
        r_P, R_D, pobj, dobj, _ = self._measure(Xh, Sh, yh, 1.0)
        ends = np.cumsum(self.sizes)
        ray, ray_res = (payload if payload is not None else (None, None))
        return SdpSolution(
            primal_blocks=[Xh[e - s:e, e - s:e] for s, e in zip(self.sizes, ends)],
            dual=yh,
            status=status,
            primal_residual=_norm(r_P),
            dual_residual=_norm(R_D),
            duality_gap=abs(pobj - dobj),
            min_eigenvalue=float(np.linalg.eigvalsh(Xh)[0]),
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
            T = np.matmul((Sinv.T.take(I, 0) * V).transpose(0, 2, 1), X.take(J, 0))
            M[rows] = (self.A_used @ T.reshape(len(rows), -1).T[self.used]).T
        return 0.5 * (M + M.T)

    def _newton_base(self, X, tau, kappa, Sinv, factor, r_P, R_D):
        """The sigma-independent half of the Newton system, (A(Q) - r_P,
        <C, Q>, w1, b - A(P), den); None if singular."""
        # with P = S^{-1} C X and Q = S^{-1} R_D X:
        P, Q = Sinv @ np.array((self.C, R_D)) @ X
        g = self._apply_A(P)
        b_g = self.b - g
        w1 = _schur_solve(factor, self.b + g)
        den = float(b_g @ w1) + _inner(self.C, P) + kappa / tau
        if abs(den) < 1e-300:
            return None
        return self._apply_A(Q) - r_P, _inner(self.C, Q), w1, b_g, den

    def _direction(self, X, tau, kappa, mu, Sinv, factor, base, R_D, r_G, sigma, eta,
                   aff=None):
        """The direction (dX and dS stacked, dy, dtau, dkappa) at centering
        weight sigma and residual weight eta; given the affine probe `aff`,
        its second-order terms S^{-1} dS dX and dtau dkappa come off the
        complementarity targets.  Xi is read only through A, <C, .> and the
        symmetrized dX, so it needs no symmetrizing of its own."""
        h_r, e, w1, b_g, den = base
        Xi = sigma * mu * Sinv - X
        rc_t = sigma * mu - tau * kappa
        if aff is not None:
            (dX_aff, dS_aff), _, dtau_aff, dkappa_aff = aff
            Xi -= Sinv @ dS_aff @ dX_aff
            rc_t -= dtau_aff * dkappa_aff
        v = eta * h_r - self._apply_A(Xi)
        u = -eta * r_G + _inner(self.C, Xi) - eta * e + rc_t / tau

        w2 = _schur_solve(factor, v)
        dtau = (u - float(b_g @ w2)) / den
        dy = w1 * dtau + w2
        dS = self.C * dtau - self._apply_At(dy) + eta * R_D
        dX = _symmetrize(Xi - Sinv @ dS @ X)
        dkappa = rc_t / tau - (kappa / tau) * dtau
        return np.array((dX, dS)), dy, dtau, dkappa

    def _refine(self, X, Sinv, factor, direction, r_P, eta):
        """One refinement step on the primal equation A(dX) - b dtau = -eta r_P.

        Near a degenerate optimum the Schur matrix loses the digits that
        equation needs, and the primal residual stalls above the tolerance.
        The miss e is measured on dX itself; z with M z = -e moves dy by z,
        dS by -A^T(z) and dX by S^{-1} A^T(z) X, which removes it to first
        order.  A miss below a thousandth of the target is left alone.
        """
        dXS, dy, dtau, dkappa = direction
        e = self._apply_A(dXS[0]) - self.b * dtau + eta * r_P
        if _norm(e) <= 1e-3 * eta * _norm(r_P):
            return direction
        z = -_schur_solve(factor, e)
        At_z = self._apply_At(z)
        dXS[0] += _symmetrize(Sinv @ At_z @ X)
        dXS[1] -= At_z
        return dXS, dy + z, dtau, dkappa

    # -- step sizes ---------------------------------------------------------

    def _max_step(self, L, tau, kappa, direction):
        """Largest step to the boundary of the cones, or nan for a direction
        that is not finite.  For B with inverse Cholesky factor L^{-1},
        B + alpha dB stays PSD while alpha <= -1 / lambda_min(L^{-1} dB L^{-T}),
        if that eigenvalue is < 0; L stacks the factors of X and S."""
        dXS, _, dtau, dkappa = direction
        W = L @ dXS @ L.transpose(0, 2, 1)
        if not np.isfinite(W).all():
            return np.nan
        alpha = 1e30
        for lam in np.linalg.eigvalsh(0.5 * (W + W.transpose(0, 2, 1)))[:, 0].tolist():
            if lam < 0:
                alpha = min(alpha, -1.0 / lam)
        if dtau < 0:
            alpha = min(alpha, -tau / dtau)
        if dkappa < 0:
            alpha = min(alpha, -kappa / dkappa)
        return alpha

    def _mu_after(self, XS, tau, kappa, direction, alpha):
        dXS, _, dtau, dkappa = direction
        alpha = min(alpha * _STEP_FRACTION, 1.0)
        XS_dot = _inner(*(XS + alpha * dXS))
        return (XS_dot + (tau + alpha * dtau) * (kappa + alpha * dkappa)) / (self.N + 1)


def _schur_groups(counts, N):
    """The rows with entries as (rows, q) groups: rows of adjacent entry
    counts share a group padded to its largest q while the padding a merge
    adds, N^2 multiply-adds per padded slot, costs less than a group."""
    n = np.bincount(counts, minlength=1)
    n[0] = 0  # rows without entries join no group
    tops, rows = [], 0
    for q in np.flatnonzero(n).tolist():
        if not tops or N * N * rows * (q - tops[-1]) >= _GROUP_FLOPS:
            tops.append(q)
            rows = 0
        tops[-1], rows = q, rows + int(n[q])
    group = np.searchsorted(tops, counts)
    return [(np.flatnonzero((group == g) & (counts > 0)), q) for g, q in enumerate(tops)]


def _inner(a, b):
    """<a, b> summed as np.sum sums it, without its wrapper: another order,
    a dot product's, moves the last bits, and degenerate solves amplify
    them into different certificates."""
    return float(np.add.reduce(a * b, None))


def _norm(v):
    """||v||, computed as np.linalg.norm computes it, without its wrapper."""
    return float(np.sqrt(np.vdot(v, v)))


def _merit(scaled):
    """The largest scaled residual, pres, dres or gap; inf once tau collapsed."""
    return np.inf if scaled is None else max(scaled[1:])


def _schur_factor(M):
    """The inverse of the Cholesky factor of the Schur matrix M, with M's
    diagonal jittered in place until it factors."""
    diag = None
    for attempt in range(8):
        try:
            return np.linalg.inv(np.linalg.cholesky(M))
        except np.linalg.LinAlgError:
            if diag is None:
                diag = M.diagonal().copy()
                base = max(np.trace(M) / max(len(M), 1), 1.0)
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
