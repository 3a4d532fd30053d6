import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from robustmoments.sdp import (
    DEFAULT_CONSTRAINT_CAP,
    SdpConfig,
    SdpProblem,
    SdpSizeError,
    pack,
    solve,
    unpack,
)


def _problem(sizes, objective=(), constraints=()):
    """The SDP min <C, X> s.t. <A_k, X> = rhs_k written as matrices: the
    objective and each constraint give one symmetric matrix (or None) per
    block, and `pack(..., off=2)` writes them on the packed columns."""
    constraints = list(constraints)

    def packed(mats):
        mats = list(mats) + [None] * (len(sizes) - len(mats))
        return pack([np.zeros((s, s)) if mat is None else np.asarray(mat, dtype=float)
                     for s, mat in zip(sizes, mats)], off=2.0)

    c = packed(objective)
    A = np.reshape([packed(mats) for mats, _ in constraints], (-1, len(c)))
    return SdpProblem(sizes, A, [rhs for _, rhs in constraints], c)


def _random_strictly_feasible(rng, sizes, m):
    """Problem with a known strictly feasible primal-dual pair."""
    X0, S0 = [], []
    for s in sizes:
        G = rng.normal(size=(s, s))
        X0.append(G @ G.T + 0.1 * np.eye(s))
        H = rng.normal(size=(s, s))
        S0.append(H @ H.T + 0.1 * np.eye(s))
    y0 = rng.normal(size=m)
    cons = []
    for _ in range(m):
        row = [0.5 * (A + A.T) for A in (rng.normal(size=(s, s)) for s in sizes)]
        rhs = sum(np.sum(a * x) for a, x in zip(row, X0))
        cons.append((row, rhs))
    C = []
    for bi, s in enumerate(sizes):
        acc = S0[bi].copy()
        for k in range(m):
            acc += y0[k] * cons[k][0][bi]
        C.append(acc)
    return _problem(sizes, C, cons)


def test_unconstrained_cone_boundary():
    prob = _problem([1], [np.array([[1.0]])])
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.primal_objective == pytest.approx(0.0, abs=1e-6)


def test_trace_two_analytic_optimum():
    # min tr(X) with X11 = X22 = 1 has optimum 2 regardless of X12
    prob = _problem(
        [2],
        [np.eye(2)],
        [
            ([np.diag([1.0, 0.0])], 1.0),
            ([np.diag([0.0, 1.0])], 1.0),
        ],
    )
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.primal_objective == pytest.approx(2.0, abs=1e-6)
    X = sol.primal_blocks[0]
    assert X[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert X[1, 1] == pytest.approx(1.0, abs=1e-6)
    assert -1.0 - 1e-6 <= X[0, 1] <= 1.0 + 1e-6


def test_negative_diagonal_infeasible():
    mat = np.zeros((2, 2))
    mat[0, 0] = 1.0
    prob = _problem([2], [np.eye(2)], [([mat], -1.0)])
    sol = solve(prob)
    assert sol.status == "Infeasible"
    assert sol.infeasibility_ray is not None
    assert sol.ray_residual <= 1e-5


def test_minimum_eigenvalue_instances():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = 6
        C = rng.normal(size=(n, n))
        C = 0.5 * (C + C.T)
        prob = _problem([n], [C], [([np.eye(n)], 1.0)])
        sol = solve(prob)
        assert sol.status == "Optimal"
        lam = float(np.linalg.eigvalsh(C).min())
        assert sol.primal_objective == pytest.approx(lam, abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_random_strictly_feasible_instances(seed):
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(2, 8)), int(rng.integers(1, 5))]
    m = int(rng.integers(2, 12))
    prob = _random_strictly_feasible(rng, sizes, m)
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.primal_residual <= 1e-6
    assert sol.min_eigenvalue >= -1e-7
    # weak duality
    assert sol.primal_objective >= sol.dual_objective - 1e-5


def test_deterministic_given_same_input():
    prob = _random_strictly_feasible(np.random.default_rng(7), [5], 6)
    s1 = solve(prob)
    s2 = solve(prob)
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.primal_blocks[0], s2.primal_blocks[0])
    assert np.array_equal(s1.dual, s2.dual)


def test_objective_scaling_equivariance():
    # strongly unique optimum: spectral gap keeps the argmin stable
    rng = np.random.default_rng(12)
    n = 5
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    C = Q @ np.diag([-3.0, 1.0, 2.0, 3.0, 4.0]) @ Q.T
    prob1 = _problem([n], [C], [([np.eye(n)], 1.0)])
    prob2 = _problem([n], [7.0 * C], [([np.eye(n)], 1.0)])
    s1, s2 = solve(prob1), solve(prob2)
    assert s1.status == "Optimal" and s2.status == "Optimal"
    assert np.max(np.abs(s1.primal_blocks[0] - s2.primal_blocks[0])) <= 1e-6


@pytest.mark.parametrize("sizes", [[], [2, 0]])
def test_block_sizes_rejected(sizes):
    with pytest.raises(ValueError, match="block sizes must be positive"):
        SdpProblem(sizes, np.zeros((0, 3)), [], np.zeros(3))


def test_constraint_cap():
    m = DEFAULT_CONSTRAINT_CAP + 1
    prob = SdpProblem([1], np.ones((m, 1)), np.ones(m), np.ones(1))
    with pytest.raises(SdpSizeError):
        solve(prob)


def test_max_iters_returned_not_raised():
    prob = _random_strictly_feasible(np.random.default_rng(3), [4], 5)
    sol = solve(prob, SdpConfig(max_iters=2))
    assert sol.status in ("MaxIterations", "Optimal")
    # best iterate and residuals still reported
    assert np.isfinite(sol.primal_residual)


def test_problem_dump_roundtrip_text():
    prob = _problem(
        [2],
        [np.eye(2)],
        [([np.array([[1.0, 0.5], [0.5, 0.0]])], 2.0)],
    )
    text = prob.dump()
    assert "blocks 2" in text
    assert any(line.startswith("con 0 0 0 1") for line in text.splitlines())
    assert any(line.startswith("rhs 0") for line in text.splitlines())


def test_multiblock_diagonal_lp_like():
    # min x + 2y s.t. x + y = 1 over 1x1 blocks: optimum at x=1, y=0
    prob = _problem(
        [1, 1],
        [np.array([[1.0]]), np.array([[2.0]])],
        [([np.array([[1.0]]), np.array([[1.0]])], 1.0)],
    )
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.primal_objective == pytest.approx(1.0, abs=1e-6)
    assert sol.primal_blocks[0][0, 0] == pytest.approx(1.0, abs=1e-5)


def test_entry_constraints_match_dense():
    # the same model as dense matrices and as entry rows written on the
    # packed columns must be the same problem
    rows = [
        ([(0, 0, 0, 1.0)], 1.0),
        ([(0, 1, 1, 1.0)], 2.0),
        ([(0, 0, 1, 1.0)], 0.5),
        ([(0, 2, 2, 1.0), (0, 0, 2, 2.0)], 0.3),
    ]
    column = unpack(np.arange(6), [3])[0]
    packed = np.zeros((len(rows), 6))
    cons = []
    for k, (entries, rhs) in enumerate(rows):
        mat = np.zeros((3, 3))
        for _, i, j, val in entries:
            packed[k, column[i, j]] += val
            if i == j:
                mat[i, i] += val
            else:
                mat[i, j] += 0.5 * val
                mat[j, i] += 0.5 * val
        cons.append(([mat], rhs))
    dense = _problem([3], [np.eye(3)], cons)
    entry = SdpProblem([3], packed, [rhs for _, rhs in rows], dense.c)

    # one row format: identical dump text and solver data
    assert dense.dump() == entry.dump()
    for line in dense.dump().splitlines():
        for field in line.split()[1:]:
            float(field)  # every numeric field is a plain number
    from robustmoments import sdp

    solver, other = sdp._HsdSolver(dense, SdpConfig()), sdp._HsdSolver(entry, SdpConfig())
    for attr in ("indptr", "cols", "rows", "vals"):
        assert np.array_equal(getattr(solver, attr), getattr(other, attr))
    # each entry's row is the CSR row it sits in
    assert np.array_equal(solver.rows, np.repeat(np.arange(4), np.diff(solver.indptr)))
    # the rows are held once: the Schur projection reads the same arrays
    assert np.shares_memory(solver.A_used.data, solver.vals)
    # X[0, 2] and X[2, 0] take half the coefficient each
    A_dense = np.zeros((4, 9))
    A_dense[solver.rows, solver.cols] = solver.vals
    assert A_dense[3, 2] == A_dense[3, 6] == 1.0

    a = solve(dense)
    b = solve(entry)
    assert a.status == b.status == "Optimal"
    assert np.max(np.abs(a.primal_blocks[0] - b.primal_blocks[0])) < 1e-12


def _mixed_problem(rng):
    """A strictly feasible problem whose rows fall in Schur groups of many sizes.

    Blocks 4, 3, 1, 1, so N = 9.  Rows: two dense random matrices, with 27
    stored entries (3 N); entry rows with 1, 2, 3 and 4 stored entries in
    block 0 (an off-diagonal entry stores two); one with 6 entries in block
    0; one touching blocks 0, 1 and 2; two on the 1x1 blocks.  The dense
    rows are written through their matrices, the entry rows straight on the
    packed columns; `rows` holds every row as its matrices, one per block.
    """
    sizes = [4, 3, 1, 1]
    entry_specs = [
        [(0, 0, 0, 1.3)],
        [(0, 1, 2, 0.8)],
        [(0, 1, 1, 1.1), (0, 2, 3, -0.6)],
        [(0, 0, 1, 0.9), (0, 2, 3, 0.4)],
        [(0, 0, 1, 0.5), (0, 0, 2, -0.7), (0, 1, 3, 1.2)],
        [(0, 2, 2, 0.7), (1, 0, 1, -1.4), (2, 0, 0, 1.0)],
        [(3, 0, 0, 2.0)],
        [(2, 0, 0, 1.0), (3, 0, 0, -0.5)],
    ]
    column = unpack(np.arange(18), sizes)
    rows = []
    for _ in range(2):
        rows.append([0.5 * (a + a.T) for a in (rng.normal(size=(s, s)) for s in sizes)])
    A = [pack(mats, off=2.0) for mats in rows]
    for spec in entry_specs:
        mats = [np.zeros((s, s)) for s in sizes]
        A.append(np.zeros(18))
        for bi, i, j, val in spec:
            A[-1][column[bi][i, j]] += val
            if i == j:
                mats[bi][i, i] += val
            else:
                mats[bi][i, j] += 0.5 * val
                mats[bi][j, i] += 0.5 * val
        rows.append(mats)
    X0 = [np.eye(s) + 0.1 * np.ones((s, s)) for s in sizes]
    y0 = rng.normal(size=len(rows))
    C = [np.eye(s) + sum(yk * row[bi] for yk, row in zip(y0, rows))
         for bi, s in enumerate(sizes)]
    rhs = [sum(np.sum(a * x) for a, x in zip(mats, X0)) for mats in rows]
    return SdpProblem(sizes, np.array(A), rhs, pack(C, off=2.0)), rows


@pytest.mark.parametrize("chunk_floats", [None, 1])
def test_schur_matrix_matches_definition(chunk_floats, monkeypatch):
    from robustmoments import sdp

    if chunk_floats is not None:  # one row per chunk
        monkeypatch.setattr(sdp, "_CHUNK_FLOATS", chunk_floats)
    rng = np.random.default_rng(11)
    prob, rows = _mixed_problem(rng)
    solver = sdp._HsdSolver(prob, SdpConfig())
    # one formula for every row: each row, entry row or dense (q = 27 > N),
    # lands in exactly one batched group
    _assert_groups_hold_the_rows(solver)
    if chunk_floats is None:  # tiny: padding costs less than a group
        assert len(solver.groups) == 1

    def pd(s):
        G = rng.normal(size=(s, s))
        return G @ G.T + 0.5 * np.eye(s)

    Sinv = [pd(s) for s in prob.block_sizes]
    X = [pd(s) for s in prob.block_sizes]
    ref = np.array([
        [
            sum(np.trace(a @ si @ b @ x) for a, b, si, x in zip(ri, rj, Sinv, X))
            for rj in rows
        ]
        for ri in rows
    ])
    ref = 0.5 * (ref + ref.T)
    M = solver._schur_matrix(block_diag(*Sinv), block_diag(*X))
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))


def _assert_groups_hold_the_rows(solver):
    """Each row with entries is in exactly one group, whose slots hold its
    stored entries in order and then padding of weight 0."""
    counts = np.diff(solver.indptr)
    grouped = np.concatenate([chunk for chunk, *_ in solver.groups])
    assert sorted(grouped.tolist()) == np.flatnonzero(counts).tolist()
    for chunk, I, J, V in solver.groups:
        for k, i, j, v in zip(chunk, I, J, V[:, :, 0]):
            lo, q = solver.indptr[k], counts[k]
            assert np.array_equal((i * solver.N + j)[:q], solver.cols[lo:lo + q])
            assert np.array_equal(v[:q], solver.vals[lo:lo + q])
            assert not v[q:].any()


def test_schur_groups_keep_far_entry_counts_apart_on_large_blocks():
    # on a 64 x 64 block a padded slot costs 64^2 multiply-adds: rows of 2
    # and of 27 stored entries stay in separate groups
    from robustmoments import sdp

    N, rng = 64, np.random.default_rng(7)
    column = unpack(np.arange(N * (N + 1) // 2), [N])[0]
    A = np.zeros((6, N * (N + 1) // 2))
    for k in range(3):  # one off-diagonal entry: q = 2
        A[k, column[k, k + 1]] = 1.0
    for k in range(3, 6):  # a diagonal and 13 off-diagonal entries: q = 27
        A[k, column[k, k]] = 1.0
        A[k, column[k, rng.choice(np.arange(k + 1, N), 13, replace=False)]] = 1.0
    prob = SdpProblem([N], A, np.ones(6), pack([np.eye(N)], off=2.0))
    solver = sdp._HsdSolver(prob, SdpConfig())
    assert np.diff(solver.indptr).tolist() == [2] * 3 + [27] * 3
    _assert_groups_hold_the_rows(solver)
    for chunk, *_ in solver.groups:
        assert len({int(np.diff(solver.indptr)[k]) for k in chunk}) == 1


def test_mixed_rows_solve_like_dense_model():
    # the rows given as packed entries and as matrices are one model
    entry, rows = _mixed_problem(np.random.default_rng(11))
    dense = _problem(entry.block_sizes, entry.objective, zip(rows, entry.rhs))
    a, b = solve(entry), solve(dense)
    assert a.status == b.status == "Optimal"
    assert abs(a.primal_objective - b.primal_objective) < 1e-6


@pytest.mark.parametrize("n, cond", [(1, 1.0), (48, 1e3), (200, 1e3), (200, 1e10)])
def test_schur_factor_solves_like_dense_solve(n, cond):
    from robustmoments.sdp import _schur_factor, _schur_solve

    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    M = (Q * np.geomspace(1.0, 1.0 / cond, n)) @ Q.T
    M = 0.5 * (M + M.T)
    factor = _schur_factor(M.copy())
    for rhs in (rng.normal(size=n), rng.normal(size=(n, 3))):
        want = np.linalg.solve(M, rhs)
        got = _schur_solve(factor, rhs)
        assert got.shape == want.shape
        # forward error within the conditioning, backward error at roundoff
        assert np.linalg.norm(got - want) <= 1e-14 * cond * np.linalg.norm(want)
        backward = np.linalg.norm(M @ got - rhs) / (np.linalg.norm(M, 2) * np.linalg.norm(got))
        assert backward <= 1e-14


def test_duplicated_rows_take_the_jitter(monkeypatch):
    # two equal rows make the 3 x 3 Schur matrix singular; jitter on its
    # diagonal lets it factor, and the solve still ends Optimal
    cholesky, failed = np.linalg.cholesky, []

    def counting(mat):
        try:
            return cholesky(mat)
        except np.linalg.LinAlgError:
            failed.append(mat.shape)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    G = np.random.default_rng(3).normal(size=(4, 4))
    A1 = 0.5 * (G + G.T)
    # X = I / 2 is feasible
    prob = _problem([4], [np.eye(4) + 0.1 * A1],
                    [([mat], 0.5 * np.trace(mat)) for mat in (A1, A1, np.eye(4))])
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert (3, 3) in failed  # the blocks are 4 x 4: this is the Schur matrix


def _merit(prob, sol):
    """The largest of the scaled residuals and the relative gap."""
    cnorm = 1.0 + max(np.linalg.norm(c) for c in prob.objective)
    gap = sol.duality_gap / (1.0 + abs(sol.primal_objective) + abs(sol.dual_objective))
    return max(sol.primal_residual / (1.0 + np.linalg.norm(prob.rhs)),
               sol.dual_residual / cnorm, gap)


def test_abnormal_exit_returns_the_best_iterate():
    # X11 = 0 leaves no strictly feasible point; with an unreachable
    # tolerance the iterates stall near the optimum and then drift away
    prob = _problem([2], [np.array([[1.0, 0.0], [0.0, 0.0]])], [
        ([np.array([[0.0, 0.0], [0.0, 1.0]])], 0.0),
        ([np.array([[1.0, 0.5], [0.5, 0.0]])], 1.0),
    ])
    sol = solve(prob, SdpConfig(max_iters=200, tol=0.0))
    assert sol.status == "MaxIterations"
    assert "returned the best iterate" in sol.detail
    assert _merit(prob, sol) <= 1e-8
    # no shorter run ends on a better iterate
    best = min(
        _merit(prob, solve(prob, SdpConfig(max_iters=k, tol=0.0)))
        for k in range(10, sol.iterations + 1, 20)
    )
    assert _merit(prob, sol) <= best * (1.0 + 1e-12)


# -- the packed format -------------------------------------------------------


def _symmetric(rng, s):
    G = rng.normal(size=(s, s))
    return G + G.T


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(2)
    sizes = [3, 1, 4]
    blocks = [_symmetric(rng, s) for s in sizes]
    vec = pack(blocks)
    assert len(vec) == 6 + 1 + 10
    assert vec[:6].tolist() == blocks[0][np.triu_indices(3)].tolist()
    for got, want in zip(unpack(vec, sizes), blocks):
        assert np.array_equal(got, want)
    assert np.array_equal(pack(unpack(vec, sizes)), vec)
    # off = 2 gives the coefficients of <A, X>, and off = 1/2 takes them back
    for got, want in zip(unpack(pack(blocks, off=2.0), sizes, off=0.5), blocks):
        assert np.array_equal(got, want)
    X = [_symmetric(rng, s) for s in sizes]
    inner = sum(np.sum(a * x) for a, x in zip(blocks, X))
    assert pack(blocks, off=2.0) @ pack(X) == pytest.approx(inner, rel=1e-12)
    # a stack of blocks packs one by one
    stack = np.stack([blocks[0], 2 * blocks[0]])
    assert np.array_equal(pack([stack]), np.stack([vec[:6], 2 * vec[:6]]))


def test_packed_rows_are_the_dense_functional():
    rng = np.random.default_rng(4)
    prob, rows = _mixed_problem(rng)
    assert prob.A.shape == (len(rows), 10 + 6 + 1 + 1)
    X = [_symmetric(rng, s) for s in prob.block_sizes]
    dense = [sum(np.sum(a * x) for a, x in zip(row, X)) for row in rows]
    assert np.max(np.abs(prob.A @ pack(X) - dense)) <= 1e-12 * np.max(np.abs(dense))
    C = prob.objective
    assert prob.c @ pack(X) == pytest.approx(sum(np.sum(c * x) for c, x in zip(C, X)))
    # the entry rows read back from A as the entries given
    assert prob.constraints[2].entries == {(0, 0, 0): 1.3}
    assert prob.constraints[5].entries == {(0, 0, 1): 0.9, (0, 2, 3): 0.4}
    assert prob.constraints[7].entries == {(0, 2, 2): 0.7, (1, 0, 1): -1.4, (2, 0, 0): 1.0}


def test_solver_adjoint_identity():
    from robustmoments import sdp

    rng = np.random.default_rng(8)
    prob, rows = _mixed_problem(rng)
    solver = sdp._HsdSolver(prob, SdpConfig())
    y = rng.normal(size=prob.num_constraints)
    X = block_diag(*(_symmetric(rng, s) for s in prob.block_sizes))
    At_y = solver._apply_At(y)
    # y . A(X) = <A^T(y), X>, and A^T(y) is sum_k y_k A_k of the dense model
    # on each block and zero off the blocks
    assert y @ solver._apply_A(X) == pytest.approx(np.sum(At_y * X), rel=1e-12)
    ends = np.cumsum(prob.block_sizes)
    blocks = [At_y[e - s:e, e - s:e] for s, e in zip(prob.block_sizes, ends)]
    for bi, block in enumerate(blocks):
        want = sum(yk * row[bi] for yk, row in zip(y, rows))
        assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(At_y, block_diag(*blocks))


def test_solver_maps_the_packed_columns_onto_the_blocks():
    from robustmoments import sdp

    rng = np.random.default_rng(6)
    prob, _ = _mixed_problem(rng)
    solver = sdp._HsdSolver(prob, SdpConfig())
    # C is the objective's blocks on the diagonal and exactly zero off them
    C = prob.objective
    assert np.array_equal(solver.C, block_diag(*C))
    assert solver.cnorm == 1.0 + max(float(np.linalg.norm(c)) for c in C)
    # A vec(X) is A . pack(X) for a block-diagonal X
    X = [_symmetric(rng, s) for s in prob.block_sizes]
    want = prob.A @ pack(X)
    got = solver._apply_A(block_diag(*X))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_problem_takes_packed_rows_as_given():
    A = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 3.0, 0.0, 1.0]])
    prob = SdpProblem([2, 1], A, [1.0, 2.0], [1.0, 0.0, 1.0, 0.5])
    assert np.array_equal(prob.A.toarray(), A)
    assert prob.A.nnz == 4
    assert prob.dump() == (
        "blocks 2 1\n"
        "obj 0 0 0 1.0\nobj 0 1 1 1.0\nobj 1 0 0 0.5\n"
        "rhs 0 1.0\ncon 0 0 0 0 1.0\ncon 0 0 1 1 2.0\n"
        "rhs 1 2.0\ncon 1 0 0 1 3.0\ncon 1 1 0 0 1.0\n"
    )
    with pytest.raises(ValueError, match="do not fit"):
        SdpProblem([2], A, [1.0, 2.0], np.zeros(4))
    with pytest.raises(ValueError, match="do not fit"):
        SdpProblem([2, 1], A, [1.0], np.zeros(4))
    with pytest.raises(ValueError, match="do not fit"):
        SdpProblem([2, 1], A, [1.0, 2.0], np.zeros(3))


@pytest.mark.parametrize("part, bad", [("c", np.nan), ("rhs", np.inf), ("A", np.nan)])
def test_problem_rejects_non_finite_data(part, bad):
    data = {"A": np.array([[1.0, 0.0, 2.0, 0.0]]), "rhs": np.array([1.0]),
            "c": np.array([1.0, 0.0, 1.0, 0.5])}
    data[part].flat[0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        SdpProblem([2, 1], data["A"], data["rhs"], data["c"])


def test_zero_rows_read_zero_and_solve_as_absent():
    # an all-zero row (rhs 0) as the first row and in the middle: A reads
    # exactly 0 on it, A^T gives it no weight, and the solve ends as the
    # problem without it does
    from robustmoments import sdp

    rng = np.random.default_rng(12)
    prob = _random_strictly_feasible(rng, [3, 2], 4)
    want = solve(prob)
    X = block_diag(_symmetric(rng, 3), _symmetric(rng, 2))
    for at in (0, 2):
        zero = SdpProblem(prob.block_sizes, np.insert(prob.A.toarray(), at, 0.0, axis=0),
                          np.insert(prob.rhs, at, 0.0), prob.c)
        solver = sdp._HsdSolver(zero, SdpConfig())
        AX = solver._apply_A(X)
        assert AX[at] == 0.0
        assert np.array_equal(np.delete(AX, at), sdp._HsdSolver(prob, SdpConfig())._apply_A(X))
        assert not solver._apply_At(np.eye(zero.num_constraints)[at]).any()
        assert not solver._schur_matrix(np.eye(solver.N), X)[at].any()
        got = solve(zero)
        assert (got.status, got.iterations) == (want.status, want.iterations) == ("Optimal", 9)
        assert got.primal_objective == pytest.approx(want.primal_objective, rel=1e-9)
        assert got.dual[at] == 0.0


# -- properties of the solver on random problems --------------------------------


def _random_rows(rng, sizes, kinds):
    """One row per kind, as its matrices, one per block: True makes a row of
    1-3 random entries, False a dense row."""
    rows = []
    for entry in kinds:
        if not entry:
            rows.append([0.5 * _symmetric(rng, s) for s in sizes])
            continue
        mats = [np.zeros((s, s)) for s in sizes]
        for _ in range(rng.integers(1, 4)):
            b = int(rng.integers(len(sizes)))
            i, j = (int(v) for v in rng.integers(sizes[b], size=2))
            val = float(rng.normal())
            mats[b][i, j] += val if i == j else 0.5 * val
            mats[b][j, i] += 0.0 if i == j else 0.5 * val
        rows.append(mats)
    return rows


def _pd(rng, s):
    G = rng.normal(size=(s, s))
    return G @ G.T / s + 0.5 * np.eye(s)


_PROBLEM_SHAPES = dict(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    kinds=st.lists(st.booleans(), min_size=1, max_size=6),
)


@settings(max_examples=40, deadline=None, database=None)
@given(**_PROBLEM_SHAPES)
def test_random_feasible_problems_meet_kkt(seed, sizes, kinds):
    # rows A_k, a strictly feasible X0 and a dual pair (y0, S0 > 0) fix
    # b = A(X0) and C = S0 + A^T(y0)
    rng = np.random.default_rng(seed)
    rows = _random_rows(rng, sizes, kinds)
    X0 = [_pd(rng, s) for s in sizes]
    y0 = rng.normal(size=len(rows))
    rhs = [sum(np.sum(a * x) for a, x in zip(mats, X0)) for mats in rows]
    C = [_pd(rng, s) + sum(yk * mats[bi] for yk, mats in zip(y0, rows))
         for bi, s in enumerate(sizes)]
    prob = _problem(sizes, C, zip(rows, rhs))
    assume(np.linalg.matrix_rank(prob.A.toarray()) == len(rows))

    sol = solve(prob)
    assert sol.status == "Optimal"
    X, y = sol.primal_blocks, sol.dual
    assert [x.shape for x in X] == [(s, s) for s in sizes]
    # primal: A(X) = b with X >= 0, on the dense model
    primal = [sum(np.sum(a * x) for a, x in zip(mats, X)) for mats in rows]
    assert np.max(np.abs(np.subtract(primal, rhs))) <= 1e-6 * (1 + np.max(np.abs(rhs)))
    assert sol.primal_residual <= 1e-6 * (1 + np.linalg.norm(rhs))
    assert min(np.linalg.eigvalsh(x).min() for x in X) >= -1e-9
    assert sol.min_eigenvalue >= -1e-9
    # dual: C - A^T(y) = S + R_D with S >= 0 and R_D within the tolerance
    cnorm = 1 + max(np.linalg.norm(c) for c in C)
    for bi, c in enumerate(C):
        slack = c - sum(yk * mats[bi] for yk, mats in zip(y, rows))
        assert np.linalg.eigvalsh(slack).min() >= -1e-6 * cnorm
    assert sol.dual_residual <= 1e-6 * cnorm
    # gap: <C, X> = b . y
    pobj = sum(np.sum(c * x) for c, x in zip(C, X))
    dobj = float(np.dot(rhs, y))
    assert abs(pobj - dobj) <= 1e-6 * (1 + abs(pobj) + abs(dobj))
    assert sol.duality_gap == pytest.approx(abs(pobj - dobj), abs=1e-9 * (1 + abs(pobj)))


@settings(max_examples=40, deadline=None, database=None)
@given(**_PROBLEM_SHAPES)
def test_random_infeasible_problems_return_a_farkas_ray(seed, sizes, kinds):
    # a last dense row makes sum_k y0_k A_k = -P < 0 with b . y0 = 1, so
    # y0 is a Farkas ray and no X >= 0 meets the rows
    rng = np.random.default_rng(seed)
    rows = _random_rows(rng, sizes, kinds)
    y0 = rng.normal(size=len(rows))
    rhs = list(rng.normal(size=len(rows)))
    last = [-_pd(rng, s) - sum(yk * mats[bi] for yk, mats in zip(y0, rows))
            for bi, s in enumerate(sizes)]
    rows.append(last)
    rhs.append(1.0 - float(np.dot(y0, rhs)))
    C = [_symmetric(rng, s) for s in sizes]
    prob = _problem(sizes, C, zip(rows, rhs))

    sol = solve(prob)
    assert sol.status == "Infeasible"
    ray = sol.infeasibility_ray
    assert float(np.dot(rhs, ray)) > 0
    # A^T(ray) <= 0: its largest eigenvalue is within the ray residual
    for bi in range(len(sizes)):
        At_ray = sum(r * mats[bi] for r, mats in zip(ray, rows))
        assert np.linalg.eigvalsh(At_ray).max() <= sol.ray_residual * (1 + 1e-9) + 1e-12
    # the stop rule accepts a ray residual up to 10 tol cnorm
    cnorm = 1 + max(np.linalg.norm(c) for c in C)
    assert sol.ray_residual <= 10 * 1e-7 * cnorm
