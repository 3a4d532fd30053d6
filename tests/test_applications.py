"""Tensor decomposition and the two downstream pipelines.

Exact cases (orthogonal tensors, population moments) must round-trip to
floating-point accuracy; Monte Carlo cases pin single seeds at tolerances
measured with margin.  Construction of population moments here is
independent of the module under test: fourth moments come from the
directional identity E<x,u>^4 = gamma sum <a_i,u>^4 + 3 <u,S u>^2 and third
moments from the per-component normal moment formula.
"""

import itertools
import warnings

import numpy as np
import pytest

from robustmoments.applications import (
    AppConfig,
    DecompositionError,
    WhiteningError,
    decompose_orthogonal,
    gmm_from_moments,
    ica_from_moments,
    robust_gmm,
    robust_ica,
)
from robustmoments.corruption import (
    ModelSpec,
    SymmetricPointMass,
    corrupt,
    sample_clean,
)
from robustmoments.polycore import SymmetricTensor
from robustmoments.subgauss import SubgaussParams

# at eps = 0 the robust estimate pins every row, so it reproduces the
# empirical moments up to the SDP solve's accuracy (tol 1e-9)
ROBUST_AT_ZERO = AppConfig(seed=1, moment_source="robust", params=SubgaussParams(2.0, 4))


def component_error(true_cols, got):
    """max_i min over sign of |c_i - ±c'_{pi(i)}|, best pairing."""
    q = len(true_cols)
    best = np.inf
    for perm in itertools.permutations(range(q)):
        worst = 0.0
        for i, c in enumerate(true_cols):
            g = got[perm[i]]
            worst = max(
                worst, min(np.linalg.norm(c - g), np.linalg.norm(c + g))
            )
        best = min(best, worst)
    return best


def rank_one_sum(cols, weights, order):
    subs = {3: "a,b,c->abc", 4: "a,b,c,e->abce"}[order]
    return sum(
        w * np.einsum(subs, *([c] * order)) for w, c in zip(weights, cols)
    )


class TestDecomposeOrthogonal:
    def test_two_basis_vectors_order3(self):
        T = np.zeros((3, 3, 3))
        T[0, 0, 0] = 1.0
        T[1, 1, 1] = 1.0
        got = decompose_orthogonal(T, 2)
        e = np.eye(3)
        assert component_error([e[0], e[1]], got) <= 1e-8

    @pytest.mark.parametrize(
        "weights", [[1.0, 1.0, 1.0], [1.0, 1.3, 0.7], [-2.0, -2.0, -2.0]]
    )
    def test_order4_roundtrip(self, weights):
        # equal weights make the flattening eigenspace degenerate: the
        # random-combination stage must still split it
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        cols = [Q[:, i] for i in range(3)]
        got = decompose_orthogonal(rank_one_sum(cols, weights, 4), 3)
        assert component_error(cols, got) <= 1e-6

    def test_order3_roundtrip_with_signs(self):
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        cols = [Q[:, i] for i in range(3)]
        T = rank_one_sum(cols, [1.0, 0.5, 2.0], 3)
        got = decompose_orthogonal(T, 3)
        # positive weights orient each recovered component with the truth
        err = max(
            min(np.linalg.norm(c - g) for g in got) for c in cols
        )
        assert err <= 1e-6

    def test_perturbation_degrades_gracefully(self):
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        cols = [Q[:, i] for i in range(3)]
        base = rank_one_sum(cols, [1.0, 1.0, 1.0], 4)
        for seed in range(10):
            E = np.random.default_rng(100 + seed).standard_normal((3,) * 4)
            E = SymmetricTensor.from_dense(E).to_dense()
            E *= 0.01 / np.linalg.norm(E.reshape(9, 9), 2)
            got = decompose_orthogonal(base + E, 3, seed=seed)
            assert component_error(cols, got) <= 0.1

    def test_zero_tensor_reports_degeneracy(self):
        with pytest.raises(DecompositionError):
            decompose_orthogonal(np.zeros((3, 3, 3)), 2)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            decompose_orthogonal(np.eye(3), 1)

    def test_symmetric_tensor_input(self):
        e = np.eye(2)
        T = SymmetricTensor.from_dense(
            rank_one_sum([e[0], e[1]], [1.0, 2.0], 3)
        )
        got = decompose_orthogonal(T, 2)
        assert component_error([e[0], e[1]], got) <= 1e-8


def population_ica_moments(A, gamma):
    """Raw M2/M4 of x = A s with unit-variance symmetric sources."""
    S = A @ A.T
    M4 = gamma * sum(
        np.einsum("a,b,c,e->abce", a, a, a, a) for a in A.T
    )
    M4 += (
        np.einsum("ab,ce->abce", S, S)
        + np.einsum("ac,be->abce", S, S)
        + np.einsum("ae,bc->abce", S, S)
    )
    return S, M4


def normal_third_moment(mu):
    """E x^{x3} for x ~ N(mu, I) by the moment expansion."""
    I = np.eye(mu.size)
    return (
        np.einsum("a,b,c->abc", mu, mu, mu)
        + np.einsum("a,bc->abc", mu, I)
        + np.einsum("b,ac->abc", mu, I)
        + np.einsum("c,ab->abc", mu, I)
    )


class TestIca:
    A = np.array([[1.0, 0.3, 0.0], [0.0, 1.2, 0.4], [0.2, 0.0, 0.9]])

    def test_population_moments_exact(self):
        S, M4 = population_ica_moments(self.A, gamma=-2.0)
        res = ica_from_moments(S, M4, truth_mixing=self.A)
        assert res.gamma_hat == pytest.approx(-2.0, abs=1e-9)
        assert res.recovery_score == pytest.approx(1.0, abs=1e-9)
        cols = np.column_stack(res.columns_hat)
        err = component_error(
            [self.A[:, i] for i in range(3)], [cols[:, i] for i in range(3)]
        )
        assert err <= 1e-6

    def test_monte_carlo_identity_mixing(self):
        spec = ModelSpec("IcaModel", seed=5, A=np.eye(3), source="rademacher")
        data = sample_clean(spec, 50_000)
        res = robust_ica(data, AppConfig(seed=1), truth_mixing=np.eye(3))
        assert res.recovery_score >= 0.95
        assert res.gamma_hat == pytest.approx(-2.0, abs=0.1)

    def test_score_invariant_under_column_relabeling(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 3))
        while np.linalg.cond(A) > 5:
            A = rng.standard_normal((3, 3))
        spec = ModelSpec("IcaModel", seed=6, A=A, source="rademacher")
        data = sample_clean(spec, 50_000)
        base = robust_ica(data, AppConfig(seed=2), truth_mixing=A)
        D = np.diag([1.0, -1.0, -1.0])
        P = np.eye(3)[:, [2, 0, 1]]
        relabeled = robust_ica(data, AppConfig(seed=2), truth_mixing=A @ D @ P)
        assert base.recovery_score >= 0.95
        assert relabeled.recovery_score == base.recovery_score

    def test_truncation_rescues_corrupted_sample(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 3))
        while np.linalg.cond(A) > 5:
            A = rng.standard_normal((3, 3))
        spec = ModelSpec("IcaModel", seed=6, A=A, source="rademacher")
        data = sample_clean(spec, 50_000)
        corr = corrupt(
            data, SymmetricPointMass(np.array([20.0, 0.0, 0.0])), 0.05, seed=3
        )
        rescued = robust_ica(
            corr, AppConfig(epsilon=0.05, truncate=True, seed=2),
            truth_mixing=A,
        )
        plain = robust_ica(corr, AppConfig(seed=2), truth_mixing=A)
        assert rescued.recovery_score >= 0.9
        assert rescued.recovery_score > plain.recovery_score

    def test_gaussian_sources_warn(self):
        spec = ModelSpec("IcaModel", seed=7, A=np.eye(3), source="gaussian")
        data = sample_clean(spec, 20_000)
        with pytest.warns(RuntimeWarning):
            try:
                robust_ica(data, AppConfig(seed=0))
            except DecompositionError:
                pass  # a near-zero tensor may also fail to split

    def test_singular_second_moment_rejected(self):
        rng = np.random.default_rng(0)
        flat = np.column_stack(
            [rng.standard_normal(500), rng.standard_normal(500), np.zeros(500)]
        )
        with pytest.raises(WhiteningError):
            robust_ica(flat, AppConfig(seed=0))

    def test_robust_source_matches_empirical_at_zero_epsilon(self):
        # gamma is compared, not the columns: on this sample the two sources'
        # columns differ by up to 0.25, their gammas by 2e-10
        A = np.array([[1.0, 0.4], [0.2, 0.9]])
        data = sample_clean(ModelSpec("IcaModel", seed=5, A=A, source="rademacher"), 12)
        robust = robust_ica(data, ROBUST_AT_ZERO)
        assert robust.diagnostics["moment_source"] == "robust"
        empirical = robust_ica(data, AppConfig(seed=1))
        assert robust.gamma_hat == pytest.approx(empirical.gamma_hat, abs=1e-8)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AppConfig(moment_source="exact")
        with pytest.raises(ValueError):
            AppConfig(moment_source="robust")  # needs params
        with pytest.raises(ValueError):
            AppConfig(epsilon=1.0)


class TestGmm:
    MEANS = np.array([[3.0, 0.0], [0.0, 3.0]])

    def population_moments(self):
        q = len(self.MEANS)
        m1 = self.MEANS.mean(axis=0)
        M2 = np.eye(2) + self.MEANS.T @ self.MEANS / q
        M3 = sum(normal_third_moment(mu) for mu in self.MEANS) / q
        return m1, M2, M3

    def test_population_moments_exact(self):
        m1, M2, M3 = self.population_moments()
        res = gmm_from_moments(m1, M2, M3, 2, truth_means=self.MEANS)
        assert res.matched_error <= 1e-6
        # uniform weights make every fitted scalar sqrt(q)
        assert np.allclose(res.diagnostics["weights"], np.sqrt(2), atol=1e-9)

    def test_moment_identity_on_random_directions(self):
        # <M3 - 3 Sym(M1 x I), u^{x3}> = (1/q) sum <mu_i, u>^3
        m1, _, M3 = self.population_moments()
        I = np.eye(2)
        peeled = M3 - (
            np.einsum("a,bc->abc", m1, I)
            + np.einsum("b,ac->abc", m1, I)
            + np.einsum("c,ab->abc", m1, I)
        )
        rng = np.random.default_rng(4)
        scale = np.abs(peeled).max()
        for u in rng.standard_normal((1000, 2)):
            lhs = np.einsum("abc,a,b,c->", peeled, u, u, u)
            rhs = np.mean([np.dot(mu, u) ** 3 for mu in self.MEANS])
            assert abs(lhs - rhs) <= 1e-8 * max(scale * np.linalg.norm(u) ** 3, 1.0)

    def test_monte_carlo(self):
        spec = ModelSpec("GaussianMixture", seed=11, means=self.MEANS)
        data = sample_clean(spec, 100_000)
        res = robust_gmm(data, 2, AppConfig(seed=1), truth_means=self.MEANS)
        assert res.matched_error <= 0.2
        # mean Gram eigenvalue: |mu|^2 / q = 4.5 up to sampling noise
        assert res.diagnostics["kappa"] == pytest.approx(4.5, abs=0.3)

    def test_single_component_is_the_mean(self):
        spec = ModelSpec("GaussianMixture", seed=11, means=self.MEANS)
        data = sample_clean(spec, 1_000)
        res = robust_gmm(data, 1, AppConfig())
        assert np.allclose(res.means_hat[0], data.mean(axis=0))

    def test_coincident_means_rejected(self):
        dup = np.array([[2.0, 0.0], [2.0, 0.0]])
        spec = ModelSpec("GaussianMixture", seed=12, means=dup)
        data = sample_clean(spec, 20_000)
        with pytest.raises(WhiteningError):
            robust_gmm(data, 2, AppConfig())

    def test_robust_source_matches_empirical_at_zero_epsilon(self):
        data = sample_clean(ModelSpec("GaussianMixture", seed=11, means=self.MEANS), 12)
        robust = robust_gmm(data, 2, ROBUST_AT_ZERO)
        assert robust.diagnostics["moment_source"] == "robust"
        empirical = robust_gmm(data, 2, AppConfig(seed=1))
        assert np.allclose(robust.means_hat, empirical.means_hat, rtol=0.0, atol=1e-8)

    def test_q_beyond_dimension_rejected(self):
        with pytest.raises(ValueError):
            gmm_from_moments(np.zeros(2), np.eye(2), np.zeros((2, 2, 2)), 3)
