"""Selection-program construction and the trace-minimizing moment estimator.

Expected values are frozen from independent computations: constraint rows are
checked against direct numeric evaluation of the certified-moment equation,
and the planted-instance answers against closed forms (the freed row's
pseudo-moments collapse to the median shift, so the mean is the bulk sum over
n) and against the subset-enumeration oracle.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from robustmoments import estimators
from robustmoments.corruption import (
    CorruptedSample,
    PointMass,
    corrupt,
    lower_bound_pair,
    population_profile,
)
from robustmoments.estimators import (
    EstimationInfeasible,
    EstimatorConfig,
    IdentifiabilityError,
    _robust_standardization,
    build_A,
    build_B,
    estimate_moments,
    estimator_basis,
    identifiability_gap_check,
    identifiability_oracle,
    truncate_preprocess,
)
from robustmoments.polycore import (
    Polynomial,
    distinct_indices,
    empirical_moments,
    enumerate_monomials,
    monomial_mul,
)
from robustmoments.sdp import SdpConfig, pack, unpack
from robustmoments.sosengine import (
    ConstraintSystem,
    RelaxationSizeError,
    face_basis,
    relax,
    sphere_polynomial,
)
from robustmoments.subgauss import SubgaussParams
from test_acceptance import PLANTED_INSTANCES

EPS12 = 1.0 / 12
X1 = Polynomial.variable(1, 0)


def planted_d1():
    clean = np.array([1.0, -1.0] * 6)[:, None]
    return corrupt(clean, PointMass(100.0), EPS12, seed=0)


def planted_d2(n):
    """The acceptance planted d=2 sample (one point moved to (70, 70)),
    cut or tiled to n rows."""
    bulk = np.tile(
        np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]), (8, 1)
    )[:n]
    return corrupt(bulk, PointMass(np.array([70.0, 70.0])), 1 / n, seed=1)


@pytest.fixture(scope="module")
def planted_solution():
    Y = planted_d1()
    cfg = EstimatorConfig(epsilon=EPS12, params=SubgaussParams(1.0, 4))
    return Y, estimate_moments(Y, cfg)


# ---------------------------------------------------------------------------
# constraint system construction


class TestBuildA:
    def test_row_count(self):
        y = np.arange(8.0).reshape(4, 2)
        A = build_A(y, 0.25)
        # one mass row, n booleanity rows, n*d selection rows
        assert len(A.equalities) == 1 + 4 + 8
        assert A.num_vars == 4 * 3

    def test_clean_assignment_is_exactly_feasible(self):
        Y = planted_d1()
        A = build_A(Y, EPS12)
        n, d = Y.data.shape
        out = int(np.where(Y.corrupted_mask)[0][0])
        w = np.ones(n)
        w[out] = 0.0
        x = Y.data.copy()
        x[out] = -3.14  # dropped row: any value must satisfy the system
        assignment = np.concatenate([w, x.ravel()])
        for eq in A.equalities:
            assert eq.evaluate(assignment) == 0.0

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            build_A(np.zeros((3, 1)), 1.0)


class TestBuildB:
    def test_k2_rows_vanish_at_unit_constant(self):
        # at k=2 the only certified order is 1 and the equation's two sides
        # coincide when C=1, so every row's polynomial part is zero
        B = build_B(SubgaussParams(1.0, 2), sample_size=3, dimension=2)
        for poly in B.affine_polys:
            assert not poly.terms or all(c == 0.0 for c in poly.terms.values())

    def test_k2_rows_scale_with_constant(self):
        B = build_B(SubgaussParams(2.0, 2), sample_size=3, dimension=1)
        # LHS - C * LHS = -(C-1) * quadratic map: rows must be nonzero now
        assert any(
            any(c != 0.0 for c in poly.terms.values()) for poly in B.affine_polys
        )

    @pytest.mark.parametrize(
        "n,d,k", [(3, 2, 4), (3, 2, 6), (3, 1, 6), (12, 2, 4), (4, 1, 8)]
    )
    def test_numeric_roundtrip_matches_direct_equation(self, n, d, k):
        # per order k', reassemble sum_beta row(x, p, G) u^beta and compare
        # with the directly evaluated certified-moment equation at random
        # points; k=6 has two orders, so two Gram blocks and the second
        # order's multiplier coefficients after the first's.  n=12, d=2,
        # k=4 is the planted shape; k=8 has three orders and powers up to 4
        C = 1.3
        B = build_B(SubgaussParams(C, k), sample_size=n, dimension=d)
        orders = list(range(2, k // 2 + 1))
        assert B.psd_sizes == [len(enumerate_monomials(d, kp)) for kp in orders]
        rng = np.random.default_rng(7)
        x = rng.standard_normal((n, d))
        p = rng.standard_normal(B.num_free)
        grams = []
        for size in B.psd_sizes:
            Q = rng.standard_normal((size, size))
            grams.append(Q.T @ Q)
        # each row's value on the Gram entries and the free scalars
        tail = B.affine_rows @ np.concatenate([pack(grams), p])

        xvals = np.zeros(B.num_vars)
        xvals[n:] = x.ravel()
        rows = iter(zip(B.affine_polys, tail))
        p_start = 0
        for kp, G in zip(orders, grams):
            qbasis = enumerate_monomials(d, kp)
            p_monos = enumerate_monomials(d, 2 * kp - 2)
            p_order = p[p_start: p_start + len(p_monos)]
            p_start += len(p_monos)
            betas = enumerate_monomials(d, 2 * kp)
            eqs = [next(rows) for _ in betas]
            for _ in range(4):
                u = rng.standard_normal(d)
                m2 = np.mean([(row @ u) ** 2 for row in x])
                lhs = np.mean([(row @ u) ** (2 * kp) for row in x])
                pu = sum(
                    c * np.prod(u ** np.array(b)) for c, b in zip(p_order, p_monos)
                )
                v = np.array([np.prod(u ** np.array(b)) for b in qbasis])
                direct = lhs - (C * kp * m2) ** kp - pu * (1 - u @ u) + v @ G @ v

                assembled = 0.0
                for beta, (poly, val) in zip(betas, eqs):
                    val += poly.evaluate(xvals)
                    assembled += val * np.prod(u ** np.array(beta))
                assert abs(direct - assembled) <= 1e-9
        assert p_start == B.num_free
        assert next(rows, None) is None

    def test_one_gram_block_per_order(self):
        B = build_B(SubgaussParams(1.0, 8), sample_size=2, dimension=1)
        # Q2, Q3 and Q4 over the monomials of degree <= 2, 3 and 4 in u
        assert B.psd_sizes == [3, 4, 5]

    def test_relaxation_has_no_free_blocks(self):
        # planted n=11, d=2 sample, standardized as `estimate_moments` does:
        # the moment block and Q2 only; the six sphere-multiplier
        # coefficients are eliminated, not split into pairs of 1x1 blocks.
        # The 22 selection vectors and the budget vector cut the 89 basis
        # elements down to a face of dimension 66.
        data = planted_d2(11).data
        med, s = _robust_standardization(data)
        B = build_B(SubgaussParams(2.0, 4), sample_size=11, dimension=2)
        rel = relax(replace(B, equalities=build_A((data - med) / s, 1 / 11).equalities),
                    basis=estimator_basis(11, 2))
        assert B.num_free == 6
        assert rel.problem.block_sizes == [66, 6]
        assert rel.face.shape == (89, 66)
        # the echelon face basis is nearly a 0/+-1 selection, so the 142
        # rows on Z keep about as few entries as the moment rows they come
        # from; an orthonormal basis of the same face gives 35 010
        assert rel.problem.num_constraints == 142
        assert rel.nnz == 1400
        # the multiplier rows the face implies are not built, and of those
        # built the presolve leaves 17 vanished and 71 dependent ones out;
        # of dependent rows equally far from the rows kept it keeps the
        # first, so nnz does not turn on the last bits of its Gram matrix
        assert rel.rows_implied == 2047
        assert (rel.rows_vanished, rel.rows_dependent) == (17, 71)

    def test_relaxation_rows_stay_sparse_at_n20(self):
        # planted d=2 at n = 20, standardized as `estimate_moments` does:
        # the rows reach the SDP as CSR: dense, the 417 rows on 7287 packed
        # columns would take 24.3 MB alone, and the compile peaked at 77 MB
        data = planted_d2(20).data
        med, s = _robust_standardization(data)
        B = build_B(SubgaussParams(2.0, 4), sample_size=20, dimension=2)
        system = replace(B, equalities=build_A((data - med) / s, 1 / 20).equalities)
        basis = estimator_basis(20, 2)
        tracemalloc.start()
        try:
            rel = relax(system, basis=basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rel.problem.block_sizes == [120, 6]
        assert peak <= 25e6


class TestSpectralRows:
    def test_rows_read_the_covariance_against_the_slack_in_packed_order(self):
        # at any point, row (a, b) is cov_ab - bound*delta_ab, cov the
        # covariance about the sample mean, and it reads slack entry (a, b)
        # in packed order: bound*I - cov as the slack meets every row
        n, d, bound = 5, 3, 0.7
        S = estimators._spectral_rows((n, d), bound)
        assert S.psd_sizes == [d] and S.num_free == 0
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, d))
        point = np.concatenate([rng.standard_normal(n), x.ravel()])
        cov = (x - x.mean(axis=0)).T @ (x - x.mean(axis=0)) / n
        iu, ju = np.triu_indices(d)
        rows = np.array([poly.evaluate(point) for poly in S.affine_polys])
        assert np.max(np.abs(rows - (cov - bound * np.eye(d))[iu, ju])) <= 1e-12
        slack = bound * np.eye(d) - cov
        assert np.max(np.abs(rows + S.affine_rows @ pack([slack]))) <= 1e-12


class TestFace:
    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_true_moment_matrices_lie_in_the_face(self, eps):
        # points on the selection variety: boolean w with (1 - eps) n ones,
        # x = y wherever w = 1 and arbitrary elsewhere
        n, d = 5, 2
        rng = np.random.default_rng(3)
        y = rng.standard_normal((n, d))
        basis = estimator_basis(n, d)
        system = build_A(y, eps)
        K = _reference_kernel(system, basis)
        V = face_basis(K)
        # the echelon contract: V[f] = I on r rows, K V = 0 for the kernel
        # vectors K, full column rank and well conditioned
        r = V.shape[1]
        unit = np.eye(r)
        assert all(any(np.array_equal(row, e) for row in V) for e in unit)
        assert np.max(np.abs(K @ V)) <= 1e-12
        assert np.linalg.matrix_rank(V) == r
        assert np.linalg.cond(V) <= 10.0
        # the budget and the n*d selection vectors; at eps = 0 one point is left
        assert r == (1 if eps == 0 else len(basis) - n * d - 1)
        # relax finds the same kernel vectors while it enumerates its rows
        face = relax(system, basis=basis).face
        assert face.shape == V.shape
        assert np.max(np.abs(K @ face)) <= 1e-12
        rows = []
        for _ in range(8):
            w = np.zeros(n)
            w[rng.choice(n, round((1 - eps) * n), replace=False)] = 1.0
            x = np.where(w[:, None] == 1.0, y, rng.standard_normal((n, d)))
            point = np.concatenate([w, x.ravel()])
            rows.append([np.prod(point ** np.array(b)) for b in basis])
        vals = np.array(rows)
        X = (vals.T * rng.uniform(0.1, 1.0, len(rows))) @ vals
        P = V @ np.linalg.pinv(V)
        assert np.max(np.abs(P @ X @ P - X)) <= 1e-12 * np.max(np.abs(X))


def _reference_kernel(system, basis):
    """The kernel vectors by direct search: for each equality g and monomial
    m with every monomial of m*g in the basis and every b*m, b in the basis,
    within degree ell - deg g, the coefficient vector of m*g on the basis."""
    index = {b: i for i, b in enumerate(basis)}
    top = max(sum(b) for b in basis)
    rows = []
    for g in system.equalities:
        gamma0 = next(iter(g.terms))
        for b in basis:
            m = tuple(x - z for x, z in zip(b, gamma0))
            if min(m) < 0 or sum(m) > system.relaxation_degree - g.degree() - top:
                continue
            prods = [monomial_mul(m, gamma) for gamma in g.terms]
            if all(p in index for p in prods):
                row = np.zeros(len(basis))
                for p, c in zip(prods, g.terms.values()):
                    row[index[p]] = c
                rows.append(row)
    return np.array(rows).reshape(-1, len(basis))


def _every_multiplier_row(system, rel):
    """Each row E~[mult * g] = 0 a compiler without the face would build: one
    per equality g and monomial mult of degree <= ell - deg g whose products
    with g's terms are all representable, as coefficients on the flat
    moment matrix, each monomial read at its first pair by `rel.pairs`."""
    size = len(rel.basis)
    iu, ju = np.triu_indices(size)
    monos = dict.fromkeys(monomial_mul(rel.basis[i], rel.basis[j])
                          for i, j in zip(iu.tolist(), ju.tolist()))
    rows = []
    for g in system.equalities:
        lead = max(g.terms, key=sum)
        for mono in monos:
            mult = tuple(a - b for a, b in zip(mono, lead))
            if min(mult) < 0 or sum(mult) > system.relaxation_degree - g.degree():
                continue
            prods = [monomial_mul(mult, gamma) for gamma in g.terms]
            if all(p in monos for p in prods):
                row = np.zeros(size * size)
                at = rel.pairs.index(np.array(prods))
                for q, c in zip(at.tolist(), g.terms.values()):
                    row[iu[q] * size + ju[q]] += c
                rows.append(row)
    return np.array(rows)


def _planted_selection():
    y = np.random.default_rng(5).standard_normal((6, 1))
    y[2] = 40.0
    return build_A(y, 1 / 6), estimator_basis(6, 1)


def _clean_selection():
    y = np.random.default_rng(6).standard_normal((5, 2))
    return build_A(y, 0.0), estimator_basis(5, 2)


def _sphere():
    return ConstraintSystem(3, 4, equalities=[sphere_polynomial(3)]), None


def _reduced_powers():
    # with basis 1, x, x^2, x^3 at ell = 4, x*(x - 1) has both terms in the
    # basis, but the row E~[x^3 * x * (x - 1)] exceeds the multiplier degree
    # 3, so x is no kernel multiplier of x - 1
    return ConstraintSystem(1, 4, equalities=[X1 - 1.0]), [(0,), (1,), (2,), (3,)]


class TestImpliedRows:
    @pytest.mark.parametrize(
        "make", [_planted_selection, _clean_selection, _sphere, _reduced_powers]
    )
    def test_relax_finds_the_reference_kernel(self, make):
        system, basis = make()
        rel = relax(system, basis=basis)
        K = _reference_kernel(system, rel.basis)
        assert len(K) and np.array_equal(rel.face, face_basis(K))
        assert np.max(np.abs(K @ rel.face)) <= 1e-12

    @pytest.mark.parametrize("make", [_planted_selection, _clean_selection, _sphere])
    def test_rows_left_unbuilt_hold_on_the_face(self, make):
        # every Z that meets the rows kept lifts to an X = V Z V^T that meets
        # every multiplier row, the ones left unbuilt included
        system, basis = make()
        rel = relax(system, basis=basis)
        assert rel.rows_implied > 0 and rel.trivially_infeasible is None
        r = rel.problem.block_sizes[0]
        assert rel.problem.block_sizes == [r]
        A, b = rel.problem.A.toarray(), rel.problem.rhs
        # a solution of the kept rows plus random directions of their null space
        z0 = np.linalg.lstsq(A, b, rcond=None)[0]
        _, sv, Vt = np.linalg.svd(A)
        null = Vt[int(np.sum(sv > 1e-10 * sv[0])):]
        rng = np.random.default_rng(0)
        rows = _every_multiplier_row(system, rel)
        for _ in range(3):
            z = z0 + rng.standard_normal(len(null)) @ null
            (Z,) = unpack(z, [r])
            X = (rel.face @ Z @ rel.face.T).ravel()
            assert np.max(np.abs(A @ z - b)) <= 1e-9 * (1 + np.max(np.abs(b)))
            scale = np.abs(rows).sum(axis=1) * np.max(np.abs(X))
            assert np.all(np.abs(rows @ X) <= 1e-9 * scale)
        assert len(rows) >= rel.rows_implied

    def test_clean_relaxation_builds_no_implied_row(self):
        # n=11, d=1 at eps = 0: 2916 of the 2949 multiplier rows are E~[b*m*g]
        # with m a kernel multiplier of g.  Of the rows still built, only the
        # 33 Hankel rows and the 33 other multiplier rows vanish on the face.
        y = np.random.default_rng(0).standard_normal((11, 1))
        system = build_A(y, 0.0)
        rel = relax(system, basis=estimator_basis(11, 1))
        assert len(_every_multiplier_row(system, rel)) == 2949
        assert rel.rows_implied == 2916
        assert rel.rows_vanished == 66 and rel.rows_dependent == 0
        assert rel.problem.num_constraints == 1


class TestEstimatorBasis:
    @pytest.mark.parametrize(
        "n,d,mode,size",
        [
            (12, 2, "FullSos", 97),
            (12, 1, "FullSos", 49),
            (12, 2, "MeanOnly", 61),
            (12, 1, "MeanOnly", 37),
        ],
    )
    def test_sizes(self, n, d, mode, size):
        basis = estimator_basis(n, d, mode=mode)
        assert len(basis) == size
        assert basis[0] == (0,) * (n * (1 + d))
        assert len(set(basis)) == size

    def test_order_at_two_rows_in_the_plane(self):
        # columns w_0, w_1, x_00, x_01, x_10, x_11: 1, then w_i, x_ic,
        # w_i x_ic and x_ic x_ic' (c <= c'), each by row, then coordinate
        assert estimator_basis(2, 2) == [
            (0, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
            (1, 0, 1, 0, 0, 0), (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1),
            (0, 0, 2, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 2, 0, 0),
            (0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 2),
        ]


# ---------------------------------------------------------------------------
# the estimator


class TestCleanExactness:
    @pytest.mark.parametrize("n,d", [(5, 1), (4, 2)])
    def test_matches_empirical_moments(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        y = rng.standard_normal((n, d))
        est = estimate_moments(
            y, EstimatorConfig(epsilon=0.0, params=SubgaussParams(3.0, 4))
        )
        # at eps = 0 the face is the single point (w, x) = (1, y): the moment
        # block is 1x1 and only the certificate blocks are left to solve
        assert est.diagnostics["status"] == "Optimal"
        assert est.diagnostics["relaxation"]["face_dim"] == 1
        assert est.diagnostics["relaxation"]["block_sizes"][0] == 1
        emp = empirical_moments(y, 4)
        assert np.max(np.abs(est.mean_hat - emp.mean)) <= 1e-8
        assert np.max(np.abs(est.cov_matrix() - emp.covariance.as_matrix())) <= 1e-8
        assert est.higher_hats[3].max_abs_diff(emp.raw(3)) <= 1e-8
        assert est.higher_hats[4].max_abs_diff(emp.raw(4)) <= 1e-8


class TestPlantedOutlier:
    def test_outlier_is_deselected(self, planted_solution):
        Y, est = planted_solution
        out = int(np.where(Y.corrupted_mask)[0][0])
        w = est.diagnostics["selection_weights"]
        assert abs(w[out]) <= 1e-2
        kept = np.delete(w, out)
        assert np.all(np.abs(kept - 1.0) <= 1e-2)

    def test_mean_recovers_bulk(self, planted_solution):
        Y, est = planted_solution
        # the freed row's pseudo-moments sit at the standardization shift
        # (the median, 0 here), so mu_hat = bulk sum / n = -1/12
        assert est.mean_hat[0] == pytest.approx(-1.0 / 12, abs=1e-3)
        naive = float(np.mean(Y.data))
        assert abs(naive - 0.0) >= 4.0

    def test_covariance_within_band(self, planted_solution):
        _, est = planted_solution
        cov = est.cov_matrix()[0, 0]
        assert 0.5 <= cov <= 2.0  # clean covariance is exactly 1
        assert cov == pytest.approx(0.9097, abs=1e-2)

    def test_diagnostics(self, planted_solution):
        Y, est = planted_solution
        di = est.diagnostics
        assert di["status"] == "Optimal"
        assert di["moment_matrix_min_eig"] >= -1e-7
        assert di["mode"] == "FullSos"
        assert di["basis_size"] == 49
        # Q2 over {1, u, u^2}; q's three coefficients are eliminated; the
        # 12 selection vectors and the budget vector leave a 36-dimensional
        # face of the 49 basis elements
        rel_di = di["relaxation"]
        assert rel_di["block_sizes"] == [36, 3]
        assert rel_di["free_eliminated"] == 3
        assert rel_di["face_dim"] == 36
        med, s = _robust_standardization(Y.data)
        system = replace(build_B(SubgaussParams(1.0, 4), 12, 1),
                         equalities=build_A((Y.data - med) / s, EPS12).equalities)
        rel = relax(system, basis=estimator_basis(12, 1))
        assert rel_di["m"] == rel.problem.num_constraints == 51
        # the 637 multiplier rows the face implies are never built; of the
        # rows built, none vanishes on the face and 24 depend on the rest
        assert rel_di["rows_implied"] == rel.rows_implied == 637
        assert rel_di["rows_vanished"] == rel.rows_vanished == 0
        assert rel_di["rows_dependent"] == rel.rows_dependent == 24
        # every entry stored in the row matrix is a nonzero
        assert rel_di["nnz"] == rel.nnz == rel.problem.A.count_nonzero()

    def test_oracle_drops_exactly_the_outlier(self, planted_solution):
        Y, est = planted_solution
        orc = identifiability_oracle(Y, EPS12, SubgaussParams(1.0, 4))
        out = int(np.where(Y.corrupted_mask)[0][0])
        assert set(range(12)) - set(orc.diagnostics["subset"]) == {out}
        # surviving subset: five +1 and six -1; centered moments in closed form
        m = -1.0 / 11
        m2c = (5 * (1 - m) ** 2 + 6 * (1 + m) ** 2) / 11
        m4c = (5 * (1 - m) ** 4 + 6 * (1 + m) ** 4) / 11
        minimal = math.sqrt(m4c) / (2 * m2c)
        assert orc.diagnostics["minimal_C"] == pytest.approx(minimal, rel=1e-9)
        assert orc.mean_hat[0] == pytest.approx(m, rel=1e-12)
        # estimator and oracle agree well inside the 0.5 * sqrt(cov) budget
        assert abs(est.mean_hat[0] - orc.mean_hat[0]) <= 0.5

    def test_translation_equivariance(self, planted_solution):
        Y, base = planted_solution
        t = 3.7
        Yt = CorruptedSample(
            data=Y.data + t,
            corrupted_mask=Y.corrupted_mask.copy(),
            epsilon=Y.epsilon,
            clean_reference=Y.clean_reference + t,
        )
        cfg = EstimatorConfig(epsilon=EPS12, params=SubgaussParams(1.0, 4))
        shifted = estimate_moments(Yt, cfg)
        assert abs(shifted.mean_hat[0] - base.mean_hat[0] - t) <= 1e-5
        assert abs(shifted.cov_matrix()[0, 0] - base.cov_matrix()[0, 0]) <= 1e-5

    def test_overestimated_epsilon_still_accurate(self):
        Y = planted_d1()
        cfg = EstimatorConfig(epsilon=2.0 / 12, params=SubgaussParams(1.0, 4))
        est = estimate_moments(Y, cfg)
        assert est.diagnostics["status"] == "Optimal"
        assert abs(est.mean_hat[0]) <= 0.3

    def test_mean_only_mode_agrees(self, planted_solution):
        Y, full = planted_solution
        cfg = EstimatorConfig(
            epsilon=EPS12,
            params=SubgaussParams(1.0, 4),
            mode="MeanOnly",
            spectral_bound=2.0,
        )
        est = estimate_moments(Y, cfg)
        assert est.higher_hats == {}
        assert est.mean_hat[0] == pytest.approx(full.mean_hat[0], abs=1e-3)
        assert est.cov_matrix()[0, 0] == pytest.approx(
            full.cov_matrix()[0, 0], abs=1e-2
        )


class TestPlantedD2:
    def test_sixteen_points_end_optimal(self):
        # beyond the default point cap: the sparse face keeps this solve
        # to about a second
        sample = planted_d2(16)
        cfg = EstimatorConfig(
            epsilon=1 / 16, params=SubgaussParams(2.0, 4), max_points=16
        )
        est = estimate_moments(sample.data, cfg)
        assert est.diagnostics["status"] == "Optimal"
        assert est.diagnostics["relaxation"]["face_dim"] == 96
        mu = sample.clean_reference.mean(axis=0)
        assert np.linalg.norm(est.mean_hat - mu) <= 0.5

    def test_estimate_has_one_entry_per_row_coordinate_and_tensor_entry(self):
        # acceptance planted #8: the batched moment reads keep every shape;
        # its corruption level 2.31 is past the warning threshold
        sample = planted_d2(12)
        with pytest.warns(RuntimeWarning, match="corruption level"):
            cfg = EstimatorConfig(epsilon=1 / 12, params=SubgaussParams(2.0, 4))
        est = estimate_moments(sample.data, cfg)
        w = est.diagnostics["selection_weights"]
        assert w.dtype == np.float64 and w.shape == (12,)
        assert est.mean_hat.shape == (2,)
        assert sorted(est.higher_hats) == [3, 4]
        for T in [est.cov_hat, *est.higher_hats.values()]:
            assert T.values.shape == (len(distinct_indices(2, T.order)),)

    def test_covariance_reads_the_pseudo_moments_one_by_one(self):
        # reference: E~[x_{i,a} x_{j,b}] read per pair, as sums over the rows
        sample = planted_d2(8)
        n, d = sample.data.shape
        est = estimate_moments(
            sample.data, EstimatorConfig(epsilon=1 / n, params=SubgaussParams(1.0, 4))
        )
        pm, s = est.pseudo_distribution.pseudo_moments, est.diagnostics["scale"]

        def pair(i, a, j, b):
            mono = [0] * n * (1 + d)
            mono[n + i * d + a] += 1
            mono[n + j * d + b] += 1
            return pm[tuple(mono)]

        want = s * s * np.array([
            [
                math.fsum(pair(i, a, i, b) for i in range(n)) / n
                - math.fsum(pair(i, a, j, b) for i in range(n) for j in range(n)) / n**2
                for b in range(d)
            ]
            for a in range(d)
        ])
        assert np.max(np.abs(est.cov_matrix() - want)) <= 1e-12 * np.max(np.abs(want))


class TestTightTolerance:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("index", [7, 8])
    def test_acceptance_planted_instance_ends_optimal_at_tol_1e10(self, index, monkeypatch):
        # near these degenerate optima a corrector without the second-order
        # term ends #7 MaxIterations at tol 1e-10 ("iterate left the cone")
        # and takes 62 iterations on #8
        bulk, adversary, j, seed, C = PLANTED_INSTANCES[index]
        if isinstance(bulk, str):
            bulk = np.random.default_rng(int(bulk[5:])).standard_normal((12, 1))
        sample = corrupt(bulk, adversary, j / 12, seed=seed)
        monkeypatch.setattr(estimators, "SdpConfig",
                            lambda max_iters, tol: SdpConfig(max_iters=max_iters, tol=1e-10))
        est = estimate_moments(
            sample.data, EstimatorConfig(epsilon=j / 12, params=SubgaussParams(C, 4))
        )
        assert est.diagnostics["status"] == "Optimal"
        # the acceptance suite's criterion-6 mean bound
        clean = sample.clean_reference
        cov_clean = empirical_moments(clean, 2).covariance.as_matrix()
        cap = 0.5 * np.linalg.norm(cov_clean, 2) ** 0.5
        assert np.linalg.norm(est.mean_hat - clean.mean(axis=0)) <= cap


class TestSoundness:
    def test_pseudo_distribution_invariants(self, planted_solution):
        _, est = planted_solution
        pd = est.pseudo_distribution
        one = (0,) * pd.num_vars
        assert pd.pseudo_moments[one] == pytest.approx(1.0, abs=1e-7)
        assert pd.min_eigenvalue() >= -1e-7

    def test_pseudo_variance_nonnegative(self, planted_solution):
        # Var(f) = E~[f^2] - E~[f]^2 >= 0 for linear f over the base variables
        _, est = planted_solution
        pd = est.pseudo_distribution
        nv = pd.num_vars
        degree_one = [m for m in pd.basis if sum(m) == 1]
        rng = np.random.default_rng(11)
        for _ in range(100):
            c0 = rng.standard_normal()
            c = rng.standard_normal(len(degree_one))
            mean = c0 + sum(
                ci * pd.pseudo_moments[m] for ci, m in zip(c, degree_one)
            )
            second = c0 * c0
            for i, mi in enumerate(degree_one):
                second += 2 * c0 * c[i] * pd.pseudo_moments[mi]
                for j, mj in enumerate(degree_one):
                    prod = tuple(a + b for a, b in zip(mi, mj))
                    second += c[i] * c[j] * pd.pseudo_moments[prod]
            scale = c0 * c0 + float(c @ c)
            assert second - mean * mean >= -1e-6 * scale


class TestInfeasibility:
    def test_scattered_points_fail_below_jensen_floor(self):
        rng = np.random.default_rng(3)
        scattered = (100.0 * rng.choice([-1.0, 1.0], size=12))[:, None]
        Y = CorruptedSample(
            data=scattered, corrupted_mask=np.zeros(12, dtype=bool), epsilon=0.0
        )
        # C below 1/2 contradicts E z^4 >= (E z^2)^2 for every selection
        cfg = EstimatorConfig(epsilon=EPS12, params=SubgaussParams(0.3, 4))
        with pytest.raises(EstimationInfeasible):
            estimate_moments(Y, cfg)
        with pytest.raises(IdentifiabilityError):
            identifiability_oracle(Y, EPS12, SubgaussParams(0.3, 4))

    def test_oracle_does_not_certify_a_subset_that_raised(self, monkeypatch):
        # a size error is a ValueError, as the all-rows-equal one is; only
        # the latter certifies at C = 0
        def too_large(*args, **kwargs):
            raise RelaxationSizeError("too large")

        monkeypatch.setattr(estimators, "minimal_C", too_large)
        Y = np.random.default_rng(0).standard_normal((6, 2))
        with pytest.raises(RelaxationSizeError, match="too large"):
            identifiability_oracle(Y, 1 / 6, SubgaussParams(2.0, 4))


class TestConfigValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            EstimatorConfig(epsilon=0.95, params=SubgaussParams(1.0, 4))
        with pytest.raises(ValueError):
            EstimatorConfig(epsilon=-0.1, params=SubgaussParams(1.0, 4))

    def test_mean_only_needs_spectral_bound(self):
        with pytest.raises(ValueError):
            EstimatorConfig(
                epsilon=0.1, params=SubgaussParams(1.0, 4), mode="MeanOnly"
            )

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            EstimatorConfig(epsilon=0.1, params=SubgaussParams(1.0, 4), mode="?")

    def test_high_corruption_level_warns(self):
        with pytest.warns(RuntimeWarning):
            EstimatorConfig(epsilon=0.2, params=SubgaussParams(3.0, 4))

    def test_moderate_level_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            EstimatorConfig(epsilon=EPS12, params=SubgaussParams(1.0, 4))

    def test_size_caps_enforced(self):
        y = np.zeros((13, 1))
        cfg = EstimatorConfig(epsilon=0.1, params=SubgaussParams(1.0, 4))
        with pytest.raises(ValueError):
            estimate_moments(y, cfg)


# ---------------------------------------------------------------------------
# preprocessing


class TestTruncatePreprocess:
    def test_gaussian_keeps_almost_everything(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            y = rng.standard_normal((200, 2))
            out = truncate_preprocess(y, 0.05)
            assert 1 - len(out.data) / 200 <= 0.05

    def test_extreme_row_removed(self):
        y = np.vstack(
            [np.random.default_rng(1).standard_normal((20, 2)), [[1e6, 0.0]]]
        )
        out = truncate_preprocess(y, 0.1)
        assert np.max(np.abs(out.data)) < 1e6
        assert len(out.data) >= 15

    def test_tight_cluster_untouched(self):
        y = 0.01 * np.random.default_rng(2).standard_normal((30, 1)) + 5.0
        out = truncate_preprocess(y, 0.1)
        assert len(out.data) == 30

    def test_corruption_bookkeeping_updates(self):
        cs = CorruptedSample(
            data=np.vstack([np.zeros((9, 1)), [[500.0]]]),
            corrupted_mask=np.array([False] * 9 + [True]),
            epsilon=0.1,
            clean_reference=np.zeros((10, 1)),
        )
        out = truncate_preprocess(cs, 0.1)
        assert len(out.data) == 9
        assert out.corrupted_mask.sum() == 0
        assert out.epsilon == 0.0
        assert len(out.clean_reference) == 9

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            truncate_preprocess(np.zeros((5, 1)), 0.0)


# ---------------------------------------------------------------------------
# identifiability gap reporting


class TestGapCheck:
    def test_identical_moments_have_zero_gap(self):
        y = np.random.default_rng(0).standard_normal((50, 1))
        m = empirical_moments(y, 4)
        rep = identifiability_gap_check(m, m, 0.1, SubgaussParams(1.0, 4))
        for row in rep.rows.values():
            assert row.max_gap == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift_pair_stays_in_band(self):
        a, b = lower_bound_pair("Mean71", k=4, epsilon=0.1)
        rep = identifiability_gap_check(
            population_profile(a, 4),
            population_profile(b, 4),
            0.1,
            SubgaussParams(1.0, 4),
        )
        assert rep.ratio(1) == pytest.approx(0.5737, abs=5e-3)
        for r in rep.rows:
            assert 0.05 <= rep.ratio(r) <= 5.0

    def test_symmetric_pair_has_no_mean_gap(self):
        a, b = lower_bound_pair("Variance72", k=4, epsilon=0.1)
        rep = identifiability_gap_check(
            population_profile(a, 4),
            population_profile(b, 4),
            0.1,
            SubgaussParams(1.0, 4),
        )
        assert rep.ratio(1) == pytest.approx(0.0, abs=1e-12)
        assert 0.05 <= rep.ratio(2) <= 5.0
