"""Relaxation compiler, pseudo-distributions, certificates, and sos_norm.

Expected values here are analytic: optima of tiny moment problems solvable by
hand, exact support-measure moments, and identities whose residual must be
zero by construction.
"""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from robustmoments import sosengine
from robustmoments.polycore import (
    Polynomial,
    SymmetricTensor,
    monomial_mul,
)
from robustmoments.sdp import pack, unpack
from robustmoments.sosengine import (
    ConstraintSystem,
    PseudoDistribution,
    RelaxationSizeError,
    SosCertificate,
    build_interval_certificates,
    build_toolkit_certificate,
    coefficient_matrix,
    find_sos_combination,
    presolve,
    relax,
    solve_system,
    sos_norm,
    sphere_polynomial,
    tensor_form,
    verify_certificate,
)
from robustmoments.subgauss import minimal_C

X = Polynomial.variable(1, 0)


def _rank_one(v):
    """v^{x4}: <T, u^{x4}> = <v, u>^4."""
    return SymmetricTensor.from_dense(np.einsum("i,j,k,l->ijkl", v, v, v, v))


def _pair_identity(d):
    """Sym(I x I): <T, u^{x4}> = |u|^4 (`from_dense` symmetrizes)."""
    return SymmetricTensor.from_dense(np.einsum("ab,ce->abce", np.eye(d), np.eye(d)))


class TestSolveSystem:
    def test_sphere_extremes_1d(self):
        # {x^2 = 1} at level 2: E~ x ranges over [-1, 1]
        system = ConstraintSystem(1, 2, equalities=[X * X - 1.0])
        hi = solve_system(system, objective=X, sense="max")
        lo = solve_system(system, objective=X, sense="min")
        assert hi.status == "Optimal" and lo.status == "Optimal"
        assert hi.objective_value == pytest.approx(1.0, abs=1e-6)
        assert lo.objective_value == pytest.approx(-1.0, abs=1e-6)
        assert hi.pseudo.pseudo_expectation(X * X) == pytest.approx(1.0, abs=1e-6)

    def test_unconstrained_square_minimum(self):
        system = ConstraintSystem(1, 2)
        res = solve_system(system, objective=X * X, sense="min")
        assert res.status == "Optimal"
        assert res.objective_value == pytest.approx(0.0, abs=1e-6)

    def test_contradictory_equalities(self):
        system = ConstraintSystem(1, 2, equalities=[X - 1.0, X - 2.0])
        res = solve_system(system)
        assert res.status == "Infeasible"
        assert res.pseudo is None

    def test_constant_false_equality_detected_before_sdp(self):
        system = ConstraintSystem(1, 2, equalities=[Polynomial.constant(1, 1.0)])
        res = solve_system(system)
        assert res.status == "Infeasible"
        assert res.sdp is None  # caught structurally, no solve attempted

    def test_dependent_rows_with_clashing_rhs_detected_before_sdp(self):
        # y = 1 puts e_y - e_1 in the moment matrix's kernel; on that face
        # E~[y] = 1.5 E~[1] reads -0.5 E~[1] = 0, a multiple of E~[1] = 1
        y = Polynomial.variable(2, 1)
        system = ConstraintSystem(
            2, 2, equalities=[y - 1.0], affine_polys=[y - 1.5],
        )
        res = solve_system(system)
        assert res.status == "Infeasible"
        assert res.sdp is None
        assert "dependent" in res.detail

    def test_contradictory_rows_without_a_face_detected_before_sdp(self):
        # no equality, so no face: E~[x] = E~[1] = 1 and E~[x] = 2 E~[1]
        # are dependent rows that the presolve finds clashing
        system = ConstraintSystem(
            1, 2,
            affine_polys=[X - 1.0, X - 2.0],
        )
        res = solve_system(system)
        assert res.status == "Infeasible"
        assert res.sdp is None
        assert "dependent" in res.detail

    def test_face_lifts_back(self):
        # x + y = 1 at level 2 with basis {1, x, y}: the moment matrix lives
        # on the 2-dimensional face orthogonal to (-1, 1, 1)
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        system = ConstraintSystem(2, 2, equalities=[x + y - 1.0])
        res = solve_system(system, objective=x * x + y * y, sense="min")
        assert res.status == "Optimal"
        assert res.relaxation.problem.block_sizes == [2]
        M = res.pseudo.moment_matrix
        assert np.max(np.abs(M @ np.array([-1.0, 1.0, 1.0]))) <= 1e-7
        assert res.objective_value == pytest.approx(0.5, abs=1e-6)

    def test_moment_matrix_psd_and_normalized(self):
        system = ConstraintSystem(1, 4, equalities=[X * X - 1.0])
        res = solve_system(system, objective=X, sense="max")
        pd = res.pseudo
        assert pd.pseudo_moments[(0,)] == pytest.approx(1.0, abs=1e-7)
        assert pd.min_eigenvalue() >= -1e-6
        # the rebuilt moment matrix is exactly symmetric-Hankel
        M = pd.moment_matrix
        assert np.array_equal(M, M.T)

    def test_extract_reads_the_moment_matrix_by_position(self):
        # the gathered moment matrix equals the one the constructor builds
        # from the pseudo-moments at each monomial's first pair
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        system = ConstraintSystem(2, 4, equalities=[x * x + y * y - 1.0])
        res = solve_system(system, objective=x * y * y, sense="max")
        rel = res.relaxation
        X0 = rel.face @ res.sdp.primal_blocks[0] @ rel.face.T
        at = rel.pairs.index(np.array([[monomial_mul(a, b) for b in rel.basis]
                                       for a in rel.basis]))
        iu, ju = np.triu_indices(len(rel.basis))
        M = X0[iu[at], ju[at]]
        built = PseudoDistribution(2, 4, rel.basis, pack([M]))
        assert np.array_equal(res.pseudo.moment_matrix, built.moment_matrix)
        assert res.pseudo.pseudo_moments == built.pseudo_moments
        assert res.pseudo.basis == built.basis

    def test_reduced_basis_diagonal_quadratic(self):
        # basis {1, x, y} at level 4: min x^2 + y^2 given x + y = 1 is 1/2
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        system = ConstraintSystem(2, 4, equalities=[x + y - 1.0])
        res = solve_system(
            system, objective=x * x + y * y, sense="min",
            basis=[(0, 0), (1, 0), (0, 1)],
        )
        assert res.status == "Optimal"
        assert res.objective_value == pytest.approx(0.5, abs=1e-6)

    def test_free_and_psd_coupling(self):
        # E~ x = f and G00 = 2f - 1 with G psd force E~ x >= 1/2; the
        # columns are G00, then f
        system = ConstraintSystem(
            1, 2,
            affine_polys=[X, Polynomial.constant(1, -1.0)],
            psd_sizes=[1],
            affine_rows=[[0.0, -1.0], [-1.0, 2.0]],
        )
        assert system.num_free == 1
        res = solve_system(system, objective=X, sense="min")
        assert res.status == "Optimal"
        assert res.objective_value == pytest.approx(0.5, abs=1e-5)


class TestPresolve:
    def test_random_rows_hold_and_back_substitute(self):
        rng = np.random.default_rng(5)
        sizes, num_free = [3, 2], 4
        blocks = []
        for s in sizes:
            Q = rng.standard_normal((s, s))
            blocks.append(Q @ Q.T)
        x = pack(blocks)
        column = unpack(np.arange(len(x)), sizes)  # the packed column of X[b][i, j]
        z = rng.standard_normal(num_free)
        A = np.zeros((12, len(x) + num_free))
        for r in range(12):
            for _ in range(rng.integers(1, 5)):
                b = int(rng.integers(len(sizes)))
                i, j = sorted(rng.integers(sizes[b], size=2))  # repeats
                A[r, column[b][i, j]] += rng.standard_normal()
            if r < 8:
                cols = set(rng.choice(num_free, size=2, replace=False)) | {r % num_free}
                A[r, len(x) + np.array(sorted(cols))] = rng.standard_normal(len(cols))
        rhs = A @ np.concatenate([x, z])

        rows = sparse.csr_matrix(A)
        pre = presolve(rows, rhs, num_free)
        assert np.array_equal(rows.toarray(), A)  # the input is not changed
        assert len(pre.rhs) == len(A) - num_free
        assert pre.vanished == pre.dependent == 0
        assert np.max(np.abs(pre.rows @ x - pre.rhs)) <= 1e-12
        assert np.max(np.abs(pre.free_values(x) - z)) <= 1e-12
        # rows without a free column pass through untouched
        assert np.array_equal(pre.rows[-4:].toarray(), A[8:, :len(x)])
        assert np.array_equal(pre.rhs[-4:], rhs[8:])

    def test_reverse_pivot_order(self):
        # z1 appears only beside z0: X00 + z0 = 1 and 2 z0 - z1 = 0; z0
        # pivots on the second row, which keeps z1, so z1 must come back first
        pre = presolve(sparse.csr_matrix([[1.0, 1.0, 0.0], [0.0, 2.0, -1.0]]), [1.0, 0.0], 2)
        assert pre.rows.shape[0] == 0
        assert pre.free_values(np.array([0.4])) == pytest.approx([0.6, 1.2], abs=1e-15)

    def test_rank_deficient_column_is_zero(self):
        # columns X00, X01, X11, z0, z1; z0 and z1 only ever appear as z0 + z1
        A = np.array([[1.0, 0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 2.0, 2.0]])
        pre = presolve(sparse.csr_matrix(A), [1.0, 3.0], 2)
        assert pre.rows.shape[0] == 1
        x = np.array([0.5, 0.0, 2.0])  # X00 - X11 / 2 = -1/2
        assert (pre.rows @ x)[0] == pytest.approx(pre.rhs[0], abs=1e-15)
        z = pre.free_values(x)
        assert z[1] == 0.0
        assert z[0] == pytest.approx(0.5, abs=1e-15)

    def test_objective_on_absent_column_is_unbounded(self):
        with pytest.raises(ValueError, match="unbounded"):
            presolve(sparse.csr_matrix([[1.0, 1.0, 0.0]]), [1.0], 2,
                     objective=[0.0, 0.0, -1.0])

    def test_objective_moves_onto_psd_entries(self):
        # min -z0 with X00 + 2 X01 + z0 = 1: the objective becomes X00 + 2 X01
        pre = presolve(sparse.csr_matrix([[1.0, 2.0, 0.0, 1.0]]), [1.0], 1,
                       objective=[0.0, 0.0, 0.0, -1.0])
        assert pre.rows.shape[0] == 0
        assert pre.objective.tolist() == [1.0, 2.0, 0.0]

    def test_vanished_row(self):
        A = sparse.csr_matrix([[1.0, 0.0], [0.0, 0.0]])
        pre = presolve(A, [1.0, 1e-13], 0)
        assert pre.vanished == 1 and pre.contradiction is None
        assert pre.rows.toarray().tolist() == [[1.0, 0.0]]
        pre = presolve(A, [1.0, 0.5], 0)
        assert "vanishes" in pre.contradiction

    def test_dependent_rows(self):
        A = sparse.csr_matrix([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        pre = presolve(A, [1.0, 2.0, 3.0], 0)
        assert pre.dependent == 1 and pre.contradiction is None
        assert pre.rows.shape[0] == 2
        pre = presolve(A, [1.0, 3.0, 3.0], 0)
        assert "dependent" in pre.contradiction

    def test_first_of_equal_rows_is_kept(self):
        # unit-scaled, the two rows are equal, but the second's diagonal of
        # the unit-row Gram matrix reads one ulp higher: the first is kept
        a = np.array([0.395, 0.43, 0.696, -1.184])
        for rows, rhs in [([a, 1.68 * a], [1.0, 1.68]), ([1.68 * a, a], [1.68, 1.0])]:
            pre = presolve(sparse.csr_matrix(rows), rhs, 0)
            assert pre.dependent == 1 and pre.contradiction is None
            assert np.array_equal(pre.rows.toarray(), rows[:1])


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), k=st.integers(0, 3),
    extra=st.integers(1, 3),
)
def test_presolve_on_random_consistent_systems(seed, n, k, extra):
    # A x + F z = b with more rows than unknowns; some rows hold no free column
    rng = np.random.default_rng(seed)
    m = n + k + extra
    A = rng.standard_normal((m, n))
    F = rng.standard_normal((m, k)) * (rng.random((m, 1)) < 0.7)
    x, z = rng.standard_normal(n), rng.standard_normal(k)
    M = np.hstack([A, F])
    b = M @ np.concatenate([x, z])
    pre = presolve(sparse.csr_matrix(M), b, k)
    assert pre.contradiction is None
    assert np.max(np.abs(pre.rows @ x - pre.rhs)) <= 1e-9 * (1 + np.max(np.abs(b)))
    if k and np.linalg.matrix_rank(F) == k:
        err = np.max(np.abs(pre.free_values(x) - z), initial=0.0)
        assert err <= 1e-12 * np.linalg.cond(F) * (1 + np.max(np.abs(b)))
    # moving b off the range of [A F] leaves a clash the presolve names
    U = np.linalg.svd(M)[0]
    assert presolve(sparse.csr_matrix(M), b + U[:, -1], k).contradiction is not None


def _dense_face_rows(V, width, num_rows, moment):
    """The face rows as one dense matrix, by the definition: for each row,
    H the sum of value/2 * V[i]^T V[j] over its entries, V^T A V = H + H^T
    packed with off-diagonal weight 2, then the fill and vanish floors."""
    R = np.zeros((num_rows, width))
    for row in range(num_rows):
        I, J, W = moment[moment[:, 0] == row, 1:].T
        if not len(W):
            continue
        H = (V[I.astype(int)] * (0.5 * W[:, None])).T @ V[J.astype(int)]
        coef = pack([H + H.T], off=2.0)
        scale = np.max(np.abs(W))
        coef[np.abs(coef) <= sosengine._FILL_TOL * scale] = 0.0
        if np.max(np.abs(coef)) <= sosengine._VANISH_TOL * scale:
            coef[:] = 0.0
        R[row, :len(coef)] = coef
    return R


def _face_case(rng, signs):
    """A random echelon basis V (0/+-1 when `signs`) and moment entries:
    random rows, then a row that cancels, a row at the vanish level and a
    row with a fill-level entry beside one of 1."""
    size, r = int(rng.integers(3, 9)), 0
    while r == 0:
        free = np.flatnonzero(rng.random(size) < 0.6)
        r = len(free)
    V = np.zeros((size, r))
    V[free, np.arange(r)] = 1.0
    for i in np.setdiff1d(np.arange(size), free):
        cols = rng.choice(r, size=min(r, int(rng.integers(0, 3))), replace=False)
        k = len(cols)
        V[i, cols] = rng.choice([-1.0, 1.0], k) if signs else rng.standard_normal(k)
    rows = []
    for row in range(int(rng.integers(1, 8))):
        for _ in range(int(rng.integers(0, 5))):
            i, j = rng.integers(size, size=2)  # i > j and repeats included
            w = rng.choice([-2.0, -0.75, 0.25, 0.5, 1.0, 3.0]) if signs else rng.standard_normal()
            rows.append((row, i, j, w))
    n = rows[-1][0] + 1 if rows else 0
    i, j = rng.choice(free, size=2)  # rows of V[f] = I, never 0
    rows += [(n, i, j, 1.5), (n, j, i, -1.5),  # <A, X0> = 0: vanishes
             (n + 1, i, j, 1.0), (n + 1, j, i, -1.0), (n + 1, i, i, 2.0 ** -36),
             (n + 2, j, j, 1.0), (n + 2, i, i, 2.0 ** -50)]
    return V, n + 3, np.array(rows, dtype=float)


@pytest.mark.parametrize("signs", [True, False], ids=["selection", "general"])
def test_face_rows_match_the_dense_definition(signs):
    rng = np.random.default_rng(11 if signs else 12)
    for _ in range(200):
        V, num_rows, moment = _face_case(rng, signs)
        width = V.shape[1] * (V.shape[1] + 1) // 2 + 3
        want = _dense_face_rows(V, width, num_rows, moment)
        rows, cols, vals = sosengine._face_rows(V, num_rows, moment)
        # grouped by row, each row's entries by column, no stored 0
        assert np.all(np.diff(rows * width + cols) > 0) and np.all(vals != 0.0)
        got = np.zeros((num_rows, width))
        got[rows, cols] = vals
        # the floors: two rows vanish, and the fill-level entry is dropped
        assert not np.any(got[-3:-1]) and np.count_nonzero(got[-1]) == 1
        if signs:
            assert np.array_equal(got, want)
        else:
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-15 * scale)


@pytest.mark.parametrize("signs", [True, False], ids=["selection", "general"])
def test_gram_of_entries_matches_the_dense_product(signs):
    # the reference is U U^T of the dense rows; on 0/+-1 entries every sum is
    # exact, otherwise each entry is within a few roundoffs of |U| |U|^T
    rng = np.random.default_rng(13 if signs else 14)
    for _ in range(50):
        size, width = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        U = np.where(rng.random((size, width)) < 0.3, 1.0, 0.0)
        U *= rng.choice([-1.0, 1.0], U.shape) if signs else rng.standard_normal(U.shape)
        rows, cols = np.nonzero(U)
        G = sosengine._gram(rows, cols, U[rows, cols], size)
        assert np.array_equal(G, G.T)
        if signs:
            assert np.array_equal(G, U @ U.T)
        else:
            assert np.all(np.abs(G - U @ U.T) <= 1e-15 * width * (np.abs(U) @ np.abs(U).T))


class TestRelaxValidation:
    def test_odd_level_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSystem(1, 3)

    def test_constraint_degree_above_level_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSystem(1, 2, equalities=[X ** 4 - 1.0])

    def test_basis_must_start_with_constant(self):
        system = ConstraintSystem(1, 2)
        with pytest.raises(ValueError):
            relax(system, basis=[(1,), (0,)])

    @pytest.mark.parametrize(
        "sizes,rows,match",
        [
            ([1.5], [[1.0]], "psd block sizes"),
            ([-2], [[1.0]], "psd block sizes"),
            ([2, 1], [[1.0, 0.0, 0.0]], "affine rows of shape"),
            ([2], [[1.0, 0.0]], "affine rows of shape"),
            ([2], [[1.0, 0.0, 0.0, 1.0]] * 2, "affine rows of shape"),
            ([2], [1.0, 0.0, 0.0], "affine rows of shape"),
            ([2], [[[1.0, 0.0, 0.0]]], "affine rows of shape"),
        ],
        ids=["unknown-block", "negative-entry", "entry-past-block",
             "negative-free", "free-past-last", "one-dimensional", "three-dimensional"],
    )
    def test_affine_entries_outside_the_system_rejected(self, sizes, rows, match):
        # one affine polynomial against blocks of `sizes`; refused: a size no
        # block has (-2 would pack to one entry), a row that stops inside the
        # second block, a row too narrow for G's 3 packed entries (-1 free
        # scalars), a second row with no polynomial, a 1-D and a 3-D array
        with pytest.raises(ValueError, match=match):
            ConstraintSystem(1, 2, affine_polys=[X], psd_sizes=sizes, affine_rows=rows)

    def test_absent_affine_rows_touch_no_block(self):
        system = ConstraintSystem(1, 2, affine_polys=[X], psd_sizes=[2])
        assert system.affine_rows.shape == (1, 3) and system.num_free == 0
        assert not system.affine_rows.any()

    def test_unrepresentable_objective_rejected(self):
        # the exponent keys are uint8, so x^256 read as a key would be x^0
        system = ConstraintSystem(1, 2, equalities=[X * X - 1.0])
        with pytest.raises(ValueError, match="representable"):
            relax(system, objective=X ** 256)

    def test_unrepresentable_affine_monomial_rejected(self):
        # x^2 is no product of two elements of the basis {1}
        system = ConstraintSystem(1, 2, affine_polys=[X * X - 1.0])
        with pytest.raises(ValueError, match="representable"):
            relax(system, basis=[(0,)])

    def test_monomial_cap_enforced(self):
        # 30 variables at level 8: C(34, 4) = 46376 basis monomials, above
        # the default cap, refused before any is enumerated
        system = ConstraintSystem(30, 8)
        with pytest.raises(RelaxationSizeError):
            relax(system)


def _edge_systems():
    """Systems at the edges of `relax`'s batched multiplier pass, each with
    its basis (None for the default) and its relax keywords."""
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    u = [Polynomial.variable(3, i) for i in range(3)]
    T = _rank_one(np.array([1.0, 0.5, -0.25])).add(_pair_identity(3))
    return {
        # affine rows only: no multiplier rows, no kernel, V = I
        "no-equalities": (ConstraintSystem(2, 2, affine_polys=[
            x - 0.5, x * x + y * y - 1.0]), None, {}),
        # y is not representable on the basis, so y^2 - 1 has no multiplier
        "no-admissible-multiplier": (
            ConstraintSystem(2, 4, equalities=[y * y - 1.0, x * x - x]),
            [(0, 0), (1, 0), (2, 0)], {"objective": x, "sense": "max"}),
        # deg g > ell/2: no multiplier keeps every b*m within ell - deg g
        "no-kernel-multiplier": (
            ConstraintSystem(1, 2, equalities=[X * X - 1.0]), None, {"objective": X}),
        "sos-norm-degree-6": (
            ConstraintSystem(3, 6, equalities=[sphere_polynomial(3)]), None,
            {"objective": tensor_form(T), "sense": "max"}),
        # basis exponents of 90 bound the sums by 360: 2-byte exponent keys
        "wide-exponents": (
            ConstraintSystem(1, 180, equalities=[X ** 90 - 1.0]), [(0,), (90,)],
            {"objective": X ** 180, "sense": "max"}),
        # a zero equality (skipped) among equalities of degrees 2 and 4
        "mixed": (ConstraintSystem(3, 4, equalities=[
            u[0] * u[0] - u[0], u[0] * u[1] - u[2], Polynomial(3, {}),
            u[1] * u[1] * u[2] * u[2] - 1.0]), None, {"objective": u[2]}),
    }


@pytest.mark.parametrize("name, counts", [
    ("no-equalities", (3, 6, 0, 0, 0)),
    ("no-admissible-multiplier", (2, 3, 3, 0, 0)),
    ("no-kernel-multiplier", (2, 3, 0, 0, 0)),
    # of dependent rows equally far from the rows kept, the presolve keeps
    # the first, whatever the last bits of the unit-row Gram matrix
    ("sos-norm-degree-6", (88, 284, 35, 0, 39)),
    ("wide-exponents", (1, 1, 2, 0, 0)),
    ("mixed", (22, 43, 20, 0, 0)),
])
def test_relax_row_counts_at_the_edges(name, counts):
    # m, nnz, rows_implied, rows_vanished and rows_dependent, pinned
    system, basis, kw = _edge_systems()[name]
    r = relax(system, basis=basis, **kw)
    got = (r.problem.A.shape[0], r.nnz, r.rows_implied, r.rows_vanished, r.rows_dependent)
    assert got == counts


def test_wide_exponent_relaxation_solves():
    # x^90 = 1 on the basis {1, x^90} forces E~[x^180] = 1
    system, basis, kw = _edge_systems()["wide-exponents"]
    res = solve_system(system, basis=basis, **kw)
    assert res.status == "Optimal"
    assert res.objective_value == pytest.approx(1.0, abs=1e-6)


def test_monomial_table_tells_apart_exponents_above_255():
    # 300 and 44 share their low byte; 2-byte keys keep them apart
    rows = np.array([[300, 1], [44, 1], [300, 2], [44, 1]], dtype=np.min_scalar_type(300))
    assert rows.dtype == np.uint16
    table = sosengine._MonomialTable(rows)
    assert table.find(rows).tolist() == [0, 1, 2, 1]
    assert table.find(np.array([[556, 1], [44, 2]], dtype=np.uint16)).tolist() == [-1, -1]


_exponent_rows = st.integers(1, 4).flatmap(lambda nv: st.lists(
    st.lists(st.integers(0, 6), min_size=nv, max_size=nv), max_size=30,
).map(lambda rows: np.array(rows, dtype=np.uint8).reshape(-1, nv)))


@settings(max_examples=100, deadline=None, database=None)
@given(E=_exponent_rows, picks=st.lists(st.integers(0, 29), max_size=30))
def test_monomial_table_first_is_the_first_equal_row(E, picks):
    # repeat some rows so that runs of equal keys are common
    E = np.concatenate([E, E[[p % len(E) for p in picks]]]) if len(E) else E
    table = sosengine._MonomialTable(E)
    want = [next(j for j in range(len(E)) if np.array_equal(E[j], E[k]))
            for k in range(len(E))]
    assert table.first.tolist() == want
    assert table.first.tolist() == table.find(E).tolist()


def _grlex_key(mono):
    """The grlex order as a sort key: total degree, then each exponent in
    turn, largest first."""
    return (sum(mono), tuple(-e for e in mono))


@settings(max_examples=100, deadline=None, database=None)
@given(E=_exponent_rows, wide=st.booleans())
def test_grlex_order_sorts_as_the_key(E, wide):
    # both sorts are stable, so repeated rows keep their order too
    E = E.astype(np.int64) if wide else E
    want = sorted(range(len(E)), key=lambda r: _grlex_key(tuple(E[r].tolist())))
    assert sosengine._grlex_order(E).tolist() == want


@settings(max_examples=100, deadline=None, database=None)
@given(E=_exponent_rows, data=st.data())
def test_quotients_of_a_grlex_sorted_list_stay_sorted(E, data):
    # grlex is a monomial order: dividing every row by one monomial keeps
    # the order, which `relax` relies on for its multipliers
    nv = E.shape[1]
    d = np.array(data.draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv)),
                 dtype=E.dtype)
    S = E[sosengine._grlex_order(E)]
    Q = S[np.all(S >= d, axis=1)] - d
    keys = [_grlex_key(tuple(q)) for q in Q.tolist()]
    assert keys == sorted(keys)


class TestPseudoDistribution:
    def test_uniform_pm_one(self):
        pd = PseudoDistribution.from_support([[-1.0], [1.0]], degree=2)
        assert pd.pseudo_expectation(X * X) == pytest.approx(1.0)
        assert pd.pseudo_expectation(X) == pytest.approx(0.0)
        assert pd.pseudo_expectation(Polynomial.constant(1, 1.0)) == pytest.approx(1.0)

    def test_biased_support_shifted_square(self):
        pd = PseudoDistribution.from_support(
            [[1.0], [-1.0]], weights=[0.65, 0.35], degree=2
        )
        # E x = 0.3, E x^2 = 1, so E (x - 0.3)^2 = 1 - 0.18 + 0.09
        assert pd.pseudo_expectation((X - 0.3) ** 2) == pytest.approx(0.91)

    def test_random_support_matches_weighted_average(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(5, 2))
        w = rng.uniform(0.1, 1.0, size=5)
        w = w / w.sum()
        pd = PseudoDistribution.from_support(pts, weights=w, degree=4)
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        poly = 2.0 * x ** 3 * y - 0.5 * x * y + 1.25 * y ** 4 - 3.0
        direct = sum(wi * poly.evaluate(p) for wi, p in zip(w, pts))
        assert pd.pseudo_expectation(poly) == pytest.approx(direct, abs=1e-10)
        assert pd.min_eigenvalue() >= -1e-10

    def test_support_moment_matrix_is_the_exact_moments(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(4, 2))
        w = rng.uniform(0.1, 1.0, size=4)
        pd = PseudoDistribution.from_support(pts, weights=w, degree=4)
        w = w / w.sum()
        want = np.array([
            [sum(wi * np.prod(p ** np.add(a, b)) for wi, p in zip(w, pts)) for b in pd.basis]
            for a in pd.basis
        ])
        assert len(pd.basis) == 6
        assert np.max(np.abs(pd.moment_matrix - want)) <= 1e-12 * np.max(np.abs(want))

    def test_degree_overflow_raises(self):
        pd = PseudoDistribution.from_support([[1.0]], degree=2)
        with pytest.raises(ValueError):
            pd.pseudo_expectation(X ** 4)


_AB = [(1, 0), (0, 1)]  # the basis [a, b] in two variables
_ONE2 = Polynomial.constant(2, 1.0)


def _hand_target():
    """2a^2 + 2b^2 - (a+b)^2 = (a-b)^2, whose Gram over [a, b] is
    [[1, -1], [-1, 1]]."""
    a = Polynomial.variable(2, 0)
    b = Polynomial.variable(2, 1)
    return 2.0 * a * a + 2.0 * b * b - (a + b) ** 2


class TestCertificates:
    def test_hand_certificate_valid(self):
        cert = SosCertificate(2, _hand_target(),
                              [(_ONE2, _AB, np.array([[1.0, -1.0], [-1.0, 1.0]]))])
        res = verify_certificate(cert)
        assert res.valid and res.residual == 0.0

    def test_corrupted_certificate_invalid(self):
        # the Gram of (a - 1.01 b)^2
        cert = SosCertificate(2, _hand_target(),
                              [(_ONE2, _AB, np.array([[1.0, -1.01], [-1.01, 1.0201]]))])
        res = verify_certificate(cert)
        assert not res.valid
        assert res.residual > 1e-3

    def test_sphere_form_certificate(self):
        # on the unit circle: 1 - x^2 = y^2 + (-1)*(x^2 + y^2 - 1)
        x = Polynomial.variable(2, 0)
        cert = SosCertificate(2, 1.0 - x * x, [(_ONE2, [(0, 1)], np.array([[1.0]]))],
                              [(sphere_polynomial(2), Polynomial.constant(2, -1.0))])
        res = verify_certificate(cert)
        assert res.valid and res.residual == 0.0

    @pytest.mark.parametrize("gram,fault", [
        (np.ones((2, 3)), "shape"),
        (np.ones((3, 3)), "shape"),
        (np.ones(2), "shape"),
        (np.array([[1.0, -1.0], [-0.5, 1.0]]), "not symmetric"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
        (np.array([[np.inf, -1.0], [-1.0, 1.0]]), "non-finite"),
        ([[1.0, -1.0], [-1.0]], "not a numeric array"),
    ], ids=["2x3", "3x3", "vector", "asymmetric", "nan", "inf", "ragged"])
    def test_malformed_gram_is_invalid(self, gram, fault):
        cert = SosCertificate(2, _hand_target(), [(_ONE2, _AB, gram)])
        res = verify_certificate(cert)
        assert not res.valid and res.residual == math.inf
        assert fault in res.detail

    def test_malformed_gram_from_json_is_invalid(self):
        # JSON carries NaN and lists of any shape; reading them raises nothing
        good = SosCertificate(2, _hand_target(),
                              [(_ONE2, _AB, np.array([[1.0, -1.0], [-1.0, 1.0]]))])
        for gram, fault in [([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]], "shape"),
                            ([[1.0, -1.0], [0.0, 1.0]], "not symmetric"),
                            ([[1.0, float("nan")], [float("nan"), 1.0]], "non-finite"),
                            ([[1.0, -1.0], [-1.0]], "not a numeric array")]:
            payload = json.loads(good.to_json())
            payload["sos_terms"][0]["gram"] = gram
            res = verify_certificate(SosCertificate.from_json(json.dumps(payload)))
            assert not res.valid and fault in res.detail

    @pytest.mark.parametrize("edit, field", [
        (lambda p: p["sos_terms"][0]["basis"].__setitem__(0, 5), r"sos_terms\[0\]\.basis\[0\]"),
        (lambda p: p["sos_terms"][0]["basis"].__setitem__(1, [0, 1, 0]),
         r"sos_terms\[0\]\.basis\[1\]"),
        (lambda p: p["base_polynomial"][2].__setitem__(0, [2]), "base_polynomial term 2"),
        (lambda p: p["sos_terms"][0]["premise"][0].__setitem__(0, 0),
         r"sos_terms\[0\]\.premise term 0"),
    ], ids=["basis-int", "basis-length", "base-length", "premise-int"])
    def test_malformed_monomial_from_json_names_its_field(self, edit, field):
        good = SosCertificate(2, _hand_target(),
                              [(_ONE2, _AB, np.array([[1.0, -1.0], [-1.0, 1.0]]))])
        payload = json.loads(good.to_json())
        assert len(payload["base_polynomial"]) == 3
        edit(payload)
        with pytest.raises(ValueError, match=field):
            SosCertificate.from_json(json.dumps(payload))

    def test_indefinite_gram_is_invalid(self):
        # a^2 - b^2 holds exactly with diag(1, -1) over [a, b], which is not PSD
        a = Polynomial.variable(2, 0)
        b = Polynomial.variable(2, 1)
        cert = SosCertificate(2, a * a - b * b, [(_ONE2, _AB, np.diag([1.0, -1.0]))])
        res = verify_certificate(cert)
        assert res.residual == 0.0
        assert not res.valid and "gram min eig -1.000e+00" in res.detail

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_moved_gram_entry_is_invalid(self, entry):
        cert = build_toolkit_certificate("Binomial", 2)
        assert verify_certificate(cert).valid
        premise, basis, G = cert.sos_terms[0]
        G = G.copy()
        G[entry] += 1e-6
        assert not verify_certificate(SosCertificate(2, cert.base_polynomial,
                                                     [(premise, basis, G)])).valid

    def test_json_roundtrip(self):
        cert = build_toolkit_certificate("PowerReduction", 4)
        back = SosCertificate.from_json(cert.to_json())
        res = verify_certificate(back)
        assert res.valid

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_binomial_certificates(self, k):
        cert = build_toolkit_certificate("Binomial", k)
        res = verify_certificate(cert, tolerance=1e-8)
        assert res.valid
        if k == 2:
            assert res.residual == 0.0

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_amgm_certificates(self, k):
        cert = build_toolkit_certificate("AmGm", k)
        res = verify_certificate(cert, tolerance=1e-8)
        assert res.valid
        if k == 2:
            assert res.residual == 0.0

    @pytest.mark.parametrize("k", [2, 4])
    def test_power_reduction_certificates(self, k):
        cert = build_toolkit_certificate("PowerReduction", k)
        res = verify_certificate(cert, tolerance=1e-8)
        assert res.valid
        if k == 2:
            assert res.residual == 0.0

    @pytest.mark.parametrize("k,delta", [(2, 0.009), (4, 0.005)])
    def test_interval_certificates(self, k, delta):
        upper, lower = build_interval_certificates(k, delta)
        assert verify_certificate(upper, tolerance=1e-8).valid
        assert verify_certificate(lower, tolerance=1e-8).valid

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [
        lambda: build_interval_certificates(6, 0.001),
        lambda: [build_toolkit_certificate("IntervalFromPower", 6, delta=0.001)],
        lambda: build_interval_certificates(8, 0.001),
    ], ids=["interval", "toolkit", "interval-k8"])
    def test_interval_search_ends_in_its_own_error(self, build):
        # beside delta^k = 1e-18 the Schur assembly can overflow and the
        # Newton direction need not be finite; the solve then ends on its
        # best iterate without a numpy warning, so the search raises its own
        # error or returns certificates that verify.  k = 6 returns
        # certificates; k = 8 ends in the search's error
        try:
            certs = build()
        except RuntimeError as exc:
            assert "certificate search failed" in str(exc)
            return
        for cert in certs:
            assert verify_certificate(cert, tolerance=1e-8).valid

    def test_toolkit_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_toolkit_certificate("Binomial", 3)
        with pytest.raises(ValueError):
            build_toolkit_certificate("Binomial", 10)
        with pytest.raises(ValueError):
            build_toolkit_certificate("NoSuchKind", 4)

    def test_amgm_k8_ends_in_a_size_error(self):
        # its Gram matrix over the 330 quartic forms in 8 variables would
        # need a 6435 x 54615 coefficient matrix; the cap refuses it first
        start = time.perf_counter()
        with pytest.raises(RelaxationSizeError, match="330 basis monomials"):
            build_toolkit_certificate("AmGm", 8)
        assert time.perf_counter() - start < 1.0


_COEFFICIENTS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _polynomials(draw, nv):
    monomials = st.tuples(*[st.integers(0, 4)] * nv)
    return Polynomial(nv, draw(st.dictionaries(monomials, _COEFFICIENTS, max_size=6)))


@st.composite
def _certificates(draw):
    """A certificate with arbitrary premises, bases, Grams and multipliers."""
    nv = draw(st.integers(1, 4))
    monomials = st.tuples(*[st.integers(0, 4)] * nv)
    sos_terms = []
    for _ in range(draw(st.integers(0, 3))):
        basis = draw(st.lists(monomials, min_size=1, max_size=3, unique=True))
        entries = st.lists(_COEFFICIENTS, min_size=len(basis), max_size=len(basis))
        gram = np.array(draw(st.lists(entries, min_size=len(basis), max_size=len(basis))))
        sos_terms.append((draw(_polynomials(nv)), basis, gram))
    multipliers = draw(st.lists(st.tuples(_polynomials(nv), _polynomials(nv)), max_size=3))
    return SosCertificate(nv, draw(_polynomials(nv)), sos_terms, multipliers)


def _certificate_parts(cert):
    """Every term, basis and Gram of a certificate, the Grams as shape and
    bytes, in a fixed order."""
    parts = [cert.base_polynomial.terms]
    for premise, basis, gram in cert.sos_terms:
        parts += [premise.terms, basis, gram.shape, gram.dtype, gram.tobytes()]
    for equality, multiplier in cert.multipliers:
        parts += [equality.terms, multiplier.terms]
    return parts


@settings(max_examples=40, deadline=None, database=None)
@given(cert=_certificates())
def test_certificate_json_round_trip_is_exact(cert):
    back = SosCertificate.from_json(cert.to_json())
    assert back.num_vars == cert.num_vars
    assert _certificate_parts(back) == _certificate_parts(cert)


@st.composite
def _integer_certificates(draw):
    """A certificate in 1-3 variables whose Grams are symmetric, and whose
    Grams, premises and multipliers have small integer coefficients."""
    nv = draw(st.integers(1, 3))
    monomials = st.tuples(*[st.integers(0, 3)] * nv)

    def poly():
        return Polynomial(nv, draw(st.dictionaries(monomials, st.integers(-3, 3),
                                                   max_size=4)))

    sos_terms = []
    for _ in range(draw(st.integers(0, 2))):
        basis = draw(st.lists(monomials, min_size=1, max_size=4, unique=True))
        size = len(basis) * (len(basis) + 1) // 2
        upper = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        sos_terms.append((poly(), basis, unpack(np.array(upper, dtype=float),
                                                [len(basis)])[0]))
    multipliers = [(poly(), poly()) for _ in range(draw(st.integers(0, 2)))]
    return SosCertificate(nv, poly(), sos_terms, multipliers)


def _expanded_residual(cert):
    """The largest coefficient of base - sum p b^T G b - sum q e, expanded
    with `Polynomial` arithmetic over every entry of each Gram."""
    nv = cert.num_vars
    total = cert.base_polynomial
    for premise, basis, gram in cert.sos_terms:
        for i, mi in enumerate(basis):
            for j, mj in enumerate(basis):
                entry = Polynomial(nv, {mi: gram[i, j]}) * Polynomial(nv, {mj: 1.0})
                total = total - premise * entry
    for equality, multiplier in cert.multipliers:
        total = total - multiplier * equality
    return max((abs(c) for c in total.terms.values()), default=0.0)


@settings(max_examples=80, deadline=None, database=None)
@given(cert=_integer_certificates())
def test_verify_residual_matches_the_expanded_identity(cert):
    # integer coefficients make every sum exact, so the two must agree exactly
    assert verify_certificate(cert).residual == _expanded_residual(cert)


class TestFindSosCombination:
    def test_margin_zero_for_tight_target(self):
        # x1^4 has minimum 0 on the sphere: best margin is 0
        u1 = Polynomial.variable(2, 0)
        u2 = Polynomial.variable(2, 1)
        norm2 = u1 * u1 + u2 * u2
        res = find_sos_combination(
            u1 ** 4, sos_premises=[Polynomial.constant(2, 1.0)],
            equality_premises=[norm2 - 1.0], degree=4,
            margin=(1.0 + norm2) ** 2,
        )
        assert res.status == "Optimal"
        assert res.margin_value == pytest.approx(0.0, abs=1e-7)
        assert res.residual < 1e-8

    def test_margin_sign_tracks_sphere_minimum(self):
        u1 = Polynomial.variable(2, 0)
        u2 = Polynomial.variable(2, 1)
        norm2 = u1 * u1 + u2 * u2
        margin = (1.0 + norm2) ** 2
        one = Polynomial.constant(2, 1.0)
        pos = find_sos_combination(
            u1 ** 4 + 0.5 * norm2 ** 2, sos_premises=[one],
            equality_premises=[norm2 - 1.0], degree=4, margin=margin,
        )
        neg = find_sos_combination(
            u1 ** 4 - 0.5 * norm2 ** 2, sos_premises=[one],
            equality_premises=[norm2 - 1.0], degree=4, margin=margin,
        )
        # margin times (1+|u|^2)^2 = 4t on the sphere, so t = min/4 here
        assert pos.margin_value == pytest.approx(0.125, abs=1e-6)
        assert neg.margin_value == pytest.approx(-0.125, abs=1e-6)

    def test_residual_is_identity_coefficient_error(self):
        # every column kind: two Gram blocks, an equality multiplier, a margin
        u1 = Polynomial.variable(2, 0)
        u2 = Polynomial.variable(2, 1)
        norm2 = u1 * u1 + u2 * u2
        one = Polynomial.constant(2, 1.0)
        premise = 2.0 - u1 * u1
        equality = norm2 - 1.0
        margin = (1.0 + norm2) ** 2
        target = u1 ** 4 - 0.5 * norm2 ** 2 + 0.3 * u1 * u2
        res = find_sos_combination(
            target, sos_premises=[one, premise], equality_premises=[equality],
            degree=4, margin=margin,
        )
        assert res.status == "Optimal"
        total = res.free_polys[0] * equality + float(res.margin_value) * margin
        for (basis, G), p in zip(res.grams, [one, premise]):
            for i, mi in enumerate(basis):
                for j, mj in enumerate(basis):
                    square = Polynomial(2, {mi: G[i, j]}) * Polynomial(2, {mj: 1.0})
                    total = total + square * p
        diff = target - total
        expected = max((abs(c) for c in diff.terms.values()), default=0.0)
        assert res.residual == pytest.approx(expected, abs=1e-12)

    def test_unmatched_coefficient_reports_infeasible(self):
        # no premise can produce an x1^3 term from even-degree squares
        u1 = Polynomial.variable(1, 0)
        res = find_sos_combination(
            u1 ** 3, sos_premises=[Polynomial.constant(1, 1.0)], degree=2,
        )
        assert res.status == "Infeasible"

    def test_zero_margin_is_unbounded(self):
        u1 = Polynomial.variable(2, 0)
        with pytest.raises(ValueError, match="unbounded"):
            find_sos_combination(
                u1 ** 2, sos_premises=[Polynomial.constant(2, 1.0)], degree=2,
                margin=Polynomial.constant(2, 0.0),
            )

    def test_sdp_has_only_gram_blocks(self, monkeypatch):
        posed = []
        real = sosengine.sdp_solve

        def capture(problem, config=None):
            posed.append(problem)
            return real(problem, config)

        monkeypatch.setattr(sosengine, "sdp_solve", capture)
        u1 = Polynomial.variable(2, 0)
        u2 = Polynomial.variable(2, 1)
        norm2 = u1 * u1 + u2 * u2
        res = find_sos_combination(
            u1 ** 4 - 0.5 * norm2 ** 2,
            sos_premises=[Polynomial.constant(2, 1.0), 2.0 - u1 * u1],
            equality_premises=[norm2 - 1.0], degree=4, margin=(1.0 + norm2) ** 2,
        )
        assert res.status == "Optimal"
        assert posed[-1].block_sizes == [len(basis) for basis, _ in res.grams]

        # d=3, k=6: 84 monomial rows less 35 multiplier coefficients and t
        posed.clear()
        minimal_C(np.random.default_rng(0).standard_normal((200, 3)), 6)
        assert [p.num_constraints for p in posed] == [48, 48]
        assert [p.block_sizes for p in posed] == [[20], [20]]

    def test_premises_of_another_dimension_are_refused(self):
        # a zip of exponent tuples would cut v^2 - 1 down to two constant terms
        u = Polynomial.variable(1, 0)
        v = Polynomial.variable(2, 1)
        one = Polynomial.constant(1, 1.0)
        with pytest.raises(ValueError, match="over 2 variables in a 1-variable"):
            find_sos_combination(u * u, sos_premises=[one],
                                 equality_premises=[v * v - 1.0], degree=2)
        with pytest.raises(ValueError, match="over 2 variables in a 1-variable"):
            find_sos_combination(u * u, sos_premises=[Polynomial.constant(2, 1.0)],
                                 degree=2)
        with pytest.raises(ValueError, match="over 2 variables in a 1-variable"):
            find_sos_combination(u * u, sos_premises=[one], degree=2, margin=v * v)

    def test_equality_premise_above_the_identity_degree_is_refused(self):
        u = Polynomial.variable(1, 0)
        one = Polynomial.constant(1, 1.0)
        for homogeneous in (False, True):
            with pytest.raises(ValueError, match="premise degree incompatible"):
                coefficient_matrix(1, 2, [one], [u ** 4 - 1.0], homogeneous=homogeneous)
        with pytest.raises(ValueError, match="premise degree incompatible"):
            find_sos_combination(1.0 - u ** 4, [one], [u ** 4 - 1.0], degree=2)

    def test_gram_split_reassembles(self):
        u1 = Polynomial.variable(2, 0)
        u2 = Polynomial.variable(2, 1)
        target = (u1 + u2) ** 2 + (u1 - 2.0 * u2) ** 2
        res = find_sos_combination(
            target, sos_premises=[Polynomial.constant(2, 1.0)],
            degree=2, homogeneous=True,
        )
        assert res.status == "Optimal"
        basis, G = res.grams[0]
        assert np.array_equal(G, G.T)
        total = Polynomial.constant(2, 0.0)
        for i, mi in enumerate(basis):
            for j, mj in enumerate(basis):
                total = total + Polynomial(2, {mi: G[i, j]}) * Polynomial(2, {mj: 1.0})
        diff = target - total
        assert max((abs(c) for c in diff.terms.values()), default=0.0) < 1e-7


@st.composite
def _identities(draw):
    """Variables, identity degree, SoS and equality premises (degree <= 4,
    small integer coefficients, each multiplier of a degree the mode
    allows) and whether the identity is homogeneous."""
    nv = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 4))
    homogeneous = draw(st.booleans())

    def premise(degrees):
        top = draw(st.sampled_from(degrees))
        monos = st.tuples(*[st.integers(0, top)] * nv).filter(lambda m: sum(m) <= top)
        lead = draw(st.tuples(*[st.integers(0, top)] * nv).filter(lambda m: sum(m) == top))
        terms = draw(st.dictionaries(monos, st.integers(-3, 3), max_size=3))
        terms[lead] = draw(st.sampled_from([-2, -1, 1, 2]))
        return Polynomial(nv, terms)

    sos_degrees = range(degree % 2, degree + 1, 2) if homogeneous else range(degree + 1)
    sos = [premise(sos_degrees) for _ in range(draw(st.integers(0, 2)))]
    eqs = [premise(range(degree + 1)) for _ in range(draw(st.integers(0, 2)))]
    return nv, degree, sos, eqs, homogeneous


@settings(max_examples=80, deadline=None, database=None)
@given(problem=_identities(), data=st.data())
def test_coefficient_matrix_matches_the_expanded_identity(problem, data):
    # integer premises and unknowns keep every sum exact
    nv, degree, sos, eqs, homogeneous = problem
    rows, A, bases, free_monos = coefficient_matrix(nv, degree, sos, eqs, homogeneous)
    rows = list(map(tuple, rows.tolist()))
    width = A.shape[1]
    x = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width)),
                 dtype=float)
    total, k = Polynomial.constant(nv, 0.0), 0
    for p, basis in zip(sos, bases):
        n = len(basis)
        G = np.zeros((n, n))
        G[np.triu_indices(n)] = x[k:k + n * (n + 1) // 2]
        G += np.triu(G, 1).T
        k += n * (n + 1) // 2
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                square = Polynomial(nv, {bi: G[i, j]}) * Polynomial(nv, {bj: 1.0})
                total = total + p * square
    for e, monos in zip(eqs, free_monos):
        total = total + e * Polynomial(nv, dict(zip(monos, x[k:k + len(monos)])))
        k += len(monos)
    assert k == width
    assert (A @ x).tolist() == [total.coefficient(r) for r in rows]
    assert set(total.terms) <= set(rows)
    keys = [_grlex_key(r) for r in rows]
    assert keys == sorted(set(keys))


class TestSosNorm:
    def test_rank_one_unit(self):
        T = _rank_one(np.array([1.0, 0.0, 0.0]))
        assert sos_norm(T) == pytest.approx(1.0, abs=1e-6)

    def test_scaled_pair_identity(self):
        # <3 Sym(IxI), u^{x4}> = 3|u|^4, so the norm is 3^{1/4}
        T = _pair_identity(2).scale(3.0)
        assert sos_norm(T) == pytest.approx(3.0 ** 0.25, abs=1e-6)

    def test_zero_tensor(self):
        assert sos_norm(SymmetricTensor(2, 4)) == 0.0

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=3)
        T = _rank_one(v).add(_pair_identity(3))
        lam = 2.7
        assert sos_norm(T.scale(lam)) == pytest.approx(
            lam ** 0.25 * sos_norm(T), abs=1e-6
        )

    def test_upper_bounds_directional_values(self):
        rng = np.random.default_rng(11)
        T = _rank_one(rng.normal(size=3))
        T = T.add(_rank_one(rng.normal(size=3)))
        bound = sos_norm(T)
        for _ in range(20):
            u = rng.normal(size=3)
            u = u / np.linalg.norm(u)
            val = T.to_dense()
            for _ in range(4):
                val = val @ u
            assert float(val) <= bound ** 4 + 1e-6

    def test_dominates_directions_without_slack(self):
        # criterion 11's 50 tensors: the dual-side value is an upper bound
        # on the relaxation, so it needs no solver-precision slack
        rng = np.random.default_rng(911)
        for _ in range(50):
            T = SymmetricTensor(2, 4, rng.standard_normal(5))
            u = rng.standard_normal((1000, 2))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            values = np.einsum("ijkl,ai,aj,ak,al->a", T.to_dense(), u, u, u, u)
            assert sos_norm(T) >= max(float(values.max()), 0.0) ** 0.25

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            sos_norm(SymmetricTensor(2, 3))
