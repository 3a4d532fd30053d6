"""Directional moment certification: exact scalar laws, the sample minimal
C (one certificate-gated SDP per order), invariances, and closure transforms.

Scalar expected values are closed-form: the sphere inequality in one
dimension is m_{2k'} <= (C k' m_2)^{k'}, so minimal C is
max_{k'} m_{2k'}^{1/k'} / (k' m_2).  For samples, minimal_C returns the SoS
infimum to solver accuracy, so certify at that C decides within its margin
tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest

from robustmoments import subgauss
from robustmoments.corruption import PointMass, corrupt
from robustmoments.subgauss import (
    CertifyResult,
    SubgaussParams,
    certification_orders,
    certify,
    certify_from_moments,
    minimal_C,
    minimal_C_from_moments,
)

GAUSS_RAW_K8 = [0, 1, 0, 3, 0, 15, 0, 105]


class TestScalarMoments:
    def test_gaussian_certifies_at_one(self):
        res = certify_from_moments([0, 1, 0, 3], SubgaussParams(C=1.0, k=4))
        assert res.certified
        assert res.bundle.verify()
        # slack (2C)^2 - 3 = 1, normalized by 2^{l/2} = 4
        assert res.margins[2] == pytest.approx(0.25)

    def test_gaussian_minimal_c(self):
        assert minimal_C_from_moments([0, 1, 0, 3], 4) == pytest.approx(
            math.sqrt(3) / 2
        )

    def test_gaussian_minimal_c_k8(self):
        # orders 2,3,4 give sqrt(3)/2, 15^{1/3}/3, 105^{1/4}/4; the first wins
        assert minimal_C_from_moments(GAUSS_RAW_K8, 8) == pytest.approx(
            math.sqrt(3) / 2
        )

    def test_rademacher_minimal_c(self):
        assert minimal_C_from_moments([0, 1, 0, 1], 4) == pytest.approx(0.5)

    def test_below_minimal_not_certifiable(self):
        res = certify_from_moments([0, 1, 0, 3], SubgaussParams(C=0.8, k=4))
        assert res.status == "NotCertifiable"
        assert res.failed_order == 2
        assert res.residual > 0

    def test_nonzero_mean_is_centered_away(self):
        # y = x + 5 with x Rademacher: raw moments from binomial expansion
        shifted = []
        for j in range(1, 5):
            shifted.append(
                sum(math.comb(j, i) * (1 if i % 2 == 0 else 0) * 5 ** (j - i)
                    for i in range(j + 1))
            )
        assert minimal_C_from_moments(shifted, 4) == pytest.approx(0.5)

    def test_certification_orders(self):
        assert certification_orders(2) == [1]
        assert certification_orders(4) == [2]
        assert certification_orders(8) == [2, 3, 4]


class TestSampleCertify:
    def test_two_point_sample(self):
        res = certify([[-1.0], [1.0]], SubgaussParams(C=1.0, k=4))
        assert res.certified
        assert res.bundle.verify()

    def test_two_point_minimal_c(self):
        assert minimal_C([[-1.0], [1.0]], 4) == pytest.approx(
            0.5, abs=2e-3
        )

    def test_gaussian_sample_minimal_c(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(2000, 2))
        c = minimal_C(X, 4)
        assert abs(c - math.sqrt(3) / 2) < 0.1

    def test_spiked_sample_not_certifiable(self):
        # bulk plus a point mass at sqrt(k) eps^{-1/k}
        rng = np.random.default_rng(1)
        eps, k = 0.01, 4
        spike = math.sqrt(k) * eps ** (-1.0 / k)
        n = 1000
        xs = np.concatenate(
            [rng.normal(size=n - 10), np.full(10, spike)]
        )[:, None]
        res = certify(xs, SubgaussParams(C=1.0, k=k))
        assert res.status == "NotCertifiable"
        assert res.failed_order == 2

    def test_constant_sample_trivially_certified(self):
        res = certify(np.ones((5, 3)), SubgaussParams(C=1.0, k=4))
        assert res.certified
        assert res.bundle.certificates == {}

    def test_rank_deficient_sample_projected(self):
        # 3d sample supported on a line: behaves like the scalar Rademacher
        rng = np.random.default_rng(2)
        direction = np.array([1.0, 2.0, -1.0])
        signs = rng.choice([-1.0, 1.0], size=400)
        X = np.outer(signs, direction)
        c = minimal_C(X, 4)
        assert c == pytest.approx(0.5, abs=5e-3)

    def test_degenerate_sample_rejected_by_minimal_c(self):
        with pytest.raises(ValueError):
            minimal_C(np.ones((5, 2)), 4)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SubgaussParams(C=1.0, k=3)
        with pytest.raises(ValueError):
            SubgaussParams(C=-1.0, k=4)
        with pytest.raises(ValueError):
            SubgaussParams(C=1.0, k=4, ell=2)

    def test_params_frozen_and_hashable(self):
        # ExperimentSpec uses an instance as a field default, which
        # dataclasses accepts only for hashable values.
        params = SubgaussParams(C=1.0, k=4)
        assert hash(params) == hash(SubgaussParams(C=1.0, k=4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.C = 2.0


class TestMinimalC:
    def test_sign_vectors_exact(self):
        # on {+-1}^2, E<x,u>^4 = |u|^4 + 4 u1^2 u2^2 <= 2 |u|^4 with
        # 2 |u|^4 - E<x,u>^4 = (u1^2 - u2^2)^2, so (2C)^2 = 2
        X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert minimal_C(X, 4) == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    @pytest.mark.parametrize("k", [4, 6])
    def test_one_solve_per_order(self, k, monkeypatch):
        real = subgauss.find_sos_combination
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(subgauss, "find_sos_combination", counting)
        X = np.random.default_rng(0).normal(size=(200, 2))
        minimal_C(X, k)
        assert len(calls) == len(certification_orders(k))

    def test_planted_outlier_subsets_certify_at_their_minimum(self):
        # +-1 sign-vector bulk and one point mass at (70, 70): on every
        # subset keeping the outlier the raw V^{k'} is nearly rank-one
        bulk = np.tile(
            np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]), (3, 1)
        )[:11]
        sample = corrupt(bulk, PointMass(np.array([70.0, 70.0])), 1 / 11, seed=1)
        outlier = int(np.flatnonzero(sample.corrupted_mask)[0])
        for dropped in range(11):
            if dropped == outlier:
                continue
            rows = np.delete(sample.data, dropped, axis=0)
            c = minimal_C(rows, 4)
            assert certify(rows, SubgaussParams(C=c, k=4)).certified, dropped

    def test_verified_stalled_solve_counts(self, monkeypatch):
        # the gate is the verified certificate, not the solver status
        X = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
        real = subgauss.find_sos_combination

        def stalled(*args, **kwargs):
            res = real(*args, **kwargs)
            res.status = "MaxIterations"
            return res

        expected = minimal_C(X, 4)
        monkeypatch.setattr(subgauss, "find_sos_combination", stalled)
        assert minimal_C(X, 4) == expected

    def test_unverified_solve_raises(self, monkeypatch):
        real = subgauss.find_sos_combination

        def overstated(*args, **kwargs):
            res = real(*args, **kwargs)
            res.margin_value += 0.1  # claims a smaller C than its Grams prove
            return res

        monkeypatch.setattr(subgauss, "find_sos_combination", overstated)
        with pytest.raises(RuntimeError):
            minimal_C([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], 4)

    @pytest.mark.parametrize("seed", [12, 19])
    def test_stalled_order6_solve_still_returns(self, seed):
        # on these samples the direct order-6 solve ends MaxIterations; for
        # seed 19 its refined certificate verifies, for seed 12 it misses
        # the tolerance and certify at the result decides
        X = np.random.default_rng(seed).normal(size=(200, 2))
        c = minimal_C(X, 6)
        assert certify(X, SubgaussParams(C=c, k=6)).certified


class TestInvariances:
    @pytest.mark.parametrize("lam", [0.1, 10.0])
    def test_scale_invariance(self, lam):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(500, 1)) ** 3  # heavier-tailed scalar sample
        base = minimal_C(X, 4)
        scaled = minimal_C(lam * X, 4)
        assert scaled == pytest.approx(base, abs=0.02)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(800, 2)) * np.array([1.0, 3.0])
        theta = 1.1
        R = np.array(
            [[math.cos(theta), -math.sin(theta)],
             [math.sin(theta), math.cos(theta)]]
        )
        base = minimal_C(X, 4)
        rotated = minimal_C(X @ R.T, 4)
        assert rotated == pytest.approx(base, abs=0.02)

    def test_monotone_in_C(self):
        rng = np.random.default_rng(5)
        X = rng.standard_t(df=9, size=(400, 1))
        c = minimal_C(X, 4)
        for bump in (0.0, 0.5):
            res = certify(X, SubgaussParams(C=c + bump, k=4))
            assert res.certified
        res = certify(X, SubgaussParams(C=max(c - 0.05, 1e-3), k=4))
        assert res.status == "NotCertifiable"


# ---------------------------------------------------------------------------
# closure transforms

@dataclasses.dataclass
class ClosureTransform:
    """A distribution operation with its predicted C-inflation factor.

    Transforms map a sample to a transformed sample; generators draw a fresh
    sample of a target law.  `predicted_factor` bounds minimal_C(after) /
    minimal_C(before) for transforms; for generators `predicted_C` is an
    absolute parameter the law is expected to certify at.
    """

    name: str
    predicted_factor: float | None = None
    predicted_C: float | None = None
    apply: object = None
    generate: object = None
    note: str = ""


def _well_conditioned_matrix(d, rng):
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ q2


def closure_generators(dimension=2, shift_scale=10.0, mixture_q=2,
                       mixture_separation=3.0, seed=0):
    """Sampler transforms with predicted parameter-inflation factors, which
    drive the closure tests."""
    rng0 = np.random.default_rng(seed)
    A = _well_conditioned_matrix(dimension, rng0)
    direction = rng0.normal(size=dimension)
    shift = shift_scale * direction / np.linalg.norm(direction)

    def apply_linear(sample, rng=None):
        return np.asarray(sample) @ A.T

    def apply_shift(sample, rng=None):
        return np.asarray(sample) + shift

    def apply_subsample(sample, rng):
        X = np.asarray(sample)
        n = X.shape[0]
        idx = rng.choice(n, size=max(n // 2, 1), replace=False)
        return X[idx]

    def apply_product(sample, rng):
        # columns drawn independently from the scalar sample's empirical law
        x = np.asarray(sample, dtype=float).reshape(-1)
        n = x.shape[0]
        cols = [x[rng.integers(0, n, size=n)] for _ in range(dimension)]
        return np.column_stack(cols)

    means = np.zeros((mixture_q, dimension))
    for i in range(mixture_q):
        sign = 1.0 if i % 2 == 0 else -1.0
        means[i, 0] = sign * mixture_separation * (1 + i // 2)

    def generate_mixture(n, rng):
        comps = rng.integers(0, mixture_q, size=n)
        return means[comps] + rng.normal(size=(n, dimension))

    return [
        ClosureTransform(
            name="linear", predicted_factor=1.0, apply=apply_linear,
            note="invertible maps leave the parameter unchanged",
        ),
        ClosureTransform(
            name="shift", predicted_factor=4.0, apply=apply_shift,
            note="translations at most double the parameter; 4x is asserted",
        ),
        ClosureTransform(
            name="subsample", predicted_factor=1.0, apply=apply_subsample,
            note="i.i.d. subsampling is stable up to sampling error",
        ),
        ClosureTransform(
            name="product", predicted_C=2.0, apply=apply_product,
            note="products of unit-variance scalars with Gaussian-dominated "
                 "even moments certify at C = 2",
        ),
        ClosureTransform(
            name="mixture", predicted_C=10.0 * mixture_q,
            generate=generate_mixture,
            note="q-component unit-covariance mixtures certify at C "
                 "proportional to q",
        ),
    ]


class TestClosure:
    def test_suite_contents(self):
        suite = {t.name: t for t in closure_generators()}
        assert set(suite) == {"linear", "shift", "subsample", "product", "mixture"}
        assert suite["linear"].predicted_factor == 1.0
        assert suite["shift"].predicted_factor == 4.0
        assert suite["mixture"].predicted_C == 20.0

    def test_shift_within_predicted_factor(self):
        suite = {t.name: t for t in closure_generators(dimension=1)}
        X = np.array([[-1.0], [1.0]] * 50)
        base = minimal_C(X, 4)
        shifted = suite["shift"].apply(X)
        after = minimal_C(shifted, 4)
        assert after <= suite["shift"].predicted_factor * base + 0.02

    def test_linear_map_preserves_minimal_c(self):
        suite = {t.name: t for t in closure_generators(dimension=2, seed=7)}
        rng = np.random.default_rng(8)
        X = rng.normal(size=(600, 2)) * np.array([1.0, 2.0])
        base = minimal_C(X, 4)
        after = minimal_C(suite["linear"].apply(X), 4)
        assert after == pytest.approx(base, abs=0.03)

    def test_mixture_certifies_at_predicted_C(self):
        suite = {t.name: t for t in closure_generators(dimension=2)}
        rng = np.random.default_rng(9)
        sample = suite["mixture"].generate(4000, rng)
        res = certify(sample, SubgaussParams(C=suite["mixture"].predicted_C, k=4))
        assert res.certified

    def test_product_certifies_at_predicted_C(self):
        suite = {t.name: t for t in closure_generators(dimension=2)}
        rng = np.random.default_rng(10)
        scalar = rng.choice([-1.0, 1.0], size=(500, 1))
        sample = suite["product"].apply(scalar, rng)
        res = certify(sample, SubgaussParams(C=suite["product"].predicted_C, k=4))
        assert res.certified

    def test_subsample_stability(self):
        suite = {t.name: t for t in closure_generators(dimension=2)}
        rng = np.random.default_rng(11)
        X = rng.normal(size=(2000, 2))
        base = minimal_C(X, 4)
        sub = suite["subsample"].apply(X, rng)
        after = minimal_C(sub, 4)
        assert abs(after - base) < 0.1


class TestSamplingStability:
    def test_gaussian_empirical_minimal_c_concentrates(self):
        # population value for any-dimensional standard Gaussian at k=4
        population = math.sqrt(3) / 2
        hits = 0
        trials = 20
        for trial in range(trials):
            rng = np.random.default_rng(100 + trial)
            X = rng.normal(size=(50_000, 2))
            c = minimal_C(X, 4)
            if abs(c - population) <= 0.15:
                hits += 1
        assert hits >= 19
