"""Sweep runner, baseline estimators, and report emission.

The corrupted-sweep expectations are arithmetic: a point mass at distance
100 holding an 0.1 fraction of the sample drags the empirical mean by about
10, while trimming shrugs it off.  The rate fixture puts the corruption at
the population level (an eps mass relocated to the spike the mean-gap
construction uses), because point outliers at rejectable distances measure
only sampling noise.
"""

import importlib
import inspect
import math

import numpy as np
import pytest

from robustmoments.corruption import ModelSpec, PointMass
from robustmoments.harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    SweepReport,
    _coord_median_estimate,
    _empirical_estimate,
    _trimmed_estimate,
    model_truth,
    rate_slope,
    run_sweep,
)
from robustmoments.subgauss import SubgaussParams


def gaussian_spec(**overrides):
    base = dict(
        model=ModelSpec("Gaussian", mean=np.zeros(2), cov=np.eye(2)),
        adversary=PointMass(np.array([100.0, 0.0])),
        epsilon_grid=(0.0, 0.1),
        estimators=("Empirical", "TrimmedMean(0.2)", "CoordMedian"),
        trials=3,
        sample_size=400,
        seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_spec(epsilon_grid=())
        with pytest.raises(ValueError):
            gaussian_spec(estimators=())
        with pytest.raises(ValueError):
            gaussian_spec(trials=0)
        with pytest.raises(ValueError):
            gaussian_spec(estimators=("Oracle",))
        with pytest.raises(ValueError):
            gaussian_spec(epsilon_grid=(1.0,))

    def test_trimmed_name_parses(self):
        spec = gaussian_spec(estimators=("TrimmedMean(0.25)",))
        assert spec.estimators == ("TrimmedMean(0.25)",)

    def test_default_params(self):
        assert gaussian_spec().params == SubgaussParams(1.0, 4)


def test_package_exports_resolve():
    # The spec's SubgaussParams default is evaluated when the package
    # imports; an unhashable default is rejected there on Python >= 3.11.
    package = importlib.import_module("robustmoments")
    for name in package.__all__:
        assert hasattr(package, name), name
    # every public name the package imports is exported
    imported = {
        name for name, obj in vars(package).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert imported <= set(package.__all__), imported - set(package.__all__)


class TestBaselines:
    def test_symmetric_sample(self):
        rng = np.random.default_rng(0)
        sym = rng.choice([-1.0, 1.0], size=(100, 2))
        assert np.all(np.abs(_coord_median_estimate(sym).mean_hat) <= 1.0)
        assert np.all(np.abs(_empirical_estimate(sym).mean_hat) <= 0.3)

    def test_trimmed_ignores_one_huge_outlier(self):
        rng = np.random.default_rng(0)
        data = np.vstack([rng.standard_normal((99, 2)), [[1e6, 1e6]]])
        est = _trimmed_estimate(data, 0.1)
        # the outlier alone would contribute 1e4 to the mean
        assert np.all(np.abs(est.mean_hat) <= 0.5)
        assert est.diagnostics["kept"] == 90

    def test_gaussian_baselines_agree(self):
        data = np.random.default_rng(5).standard_normal((100_000, 2))
        means = [est(data).mean_hat for est in (
            _empirical_estimate, _coord_median_estimate,
            lambda x: _trimmed_estimate(x, 0.1))]
        for a in means:
            for b in means:
                assert np.max(np.abs(a - b)) <= 0.02

    def test_zero_spread_coordinate_keeps_rows(self):
        data = np.column_stack(
            [np.zeros(50), np.random.default_rng(1).standard_normal(50)]
        )
        est = _coord_median_estimate(data)
        assert est.diagnostics["inliers"] >= 45


class TestModelTruth:
    def test_gaussian_passthrough(self):
        mean, cov = np.array([1.0, 2.0]), np.diag([2.0, 3.0])
        m, S = model_truth(ModelSpec("Gaussian", mean=mean, cov=cov))
        assert np.array_equal(m, mean) and np.array_equal(S, cov)

    def test_ica_covariance_is_mixing_gram(self):
        A = np.array([[1.0, 0.5], [0.0, 2.0]])
        m, S = model_truth(ModelSpec("IcaModel", A=A, source="rademacher"))
        assert np.allclose(S, A @ A.T) and np.allclose(m, 0)

    def test_mixture_matches_large_sample(self):
        from robustmoments.corruption import sample_clean

        spec = ModelSpec(
            "GaussianMixture", seed=3, means=np.array([[3.0, 0.0], [0.0, 3.0]])
        )
        m, S = model_truth(spec)
        data = sample_clean(spec, 200_000)
        assert np.allclose(m, data.mean(axis=0), atol=0.03)
        assert np.allclose(S, np.cov(data, rowvar=False), atol=0.05)


@pytest.fixture(scope="module")
def report():
    return run_sweep(gaussian_spec())


class TestSweep:
    def test_row_count(self, report):
        assert len(report.rows) == 3 * 2 * 3

    def test_corrupted_empirical_error_is_arithmetic(self, report):
        errs = [r.mean_err for r in report.select("Empirical", epsilon=0.1)]
        assert 8.0 <= np.mean(errs) <= 12.0

    def test_trimmed_mean_resists(self, report):
        errs = [r.mean_err for r in report.select("TrimmedMean(0.2)", epsilon=0.1)]
        assert np.mean(errs) <= 0.3

    def test_clean_empirical_is_sampling_noise(self, report):
        errs = [r.mean_err for r in report.select("Empirical", epsilon=0.0)]
        assert np.mean(errs) <= 3.0 * math.sqrt(2.0 / 400)

    def test_predicted_rate_columns(self, report):
        row = report.select("Empirical", epsilon=0.1)[0]
        C, k = 1.0, 4
        assert row.predicted_rate == pytest.approx(
            math.sqrt(C * k) * 0.1 ** (1 - 1 / k)
        )
        assert row.predicted_cov_rate == pytest.approx(C * k * 0.1 ** (1 - 2 / k))
        clean = report.select("Empirical", epsilon=0.0)[0]
        assert clean.predicted_rate == 0.0

    def test_reproducible_without_runtime_column(self, report):
        again = run_sweep(gaussian_spec())
        assert report.to_csv(with_runtime=False) == again.to_csv(with_runtime=False)

    def test_worker_pool_merges_deterministically(self, report):
        pooled = run_sweep(gaussian_spec(), workers=2)
        assert report.to_csv(with_runtime=False) == pooled.to_csv(with_runtime=False)

    def test_csv_header(self, report):
        header = report.to_csv().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_json_has_no_nan(self, report):
        import json

        rows = json.loads(report.to_json())
        assert len(rows) == len(report.rows)

    def test_failed_cells_become_flagged_rows(self):
        # 13 points exceed the relaxation cap, so every SosFull cell fails
        spec = gaussian_spec(
            estimators=("SosFull", "Empirical"), sample_size=13, trials=2
        )
        report = run_sweep(spec)
        assert len(report.rows) == 2 * 2 * 2
        failed = [r for r in report.rows if r.estimator == "SosFull"]
        assert all(r.status == "ValueError" for r in failed)
        assert all(math.isnan(r.mean_err) for r in failed)
        assert all(r.status == "ok" for r in report.select("Empirical"))


class TestRateSlope:
    def test_needs_two_levels(self):
        spec = gaussian_spec(epsilon_grid=(0.1,), estimators=("Empirical",))
        with pytest.raises(ValueError):
            rate_slope(run_sweep(spec), estimator="Empirical")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_spike_relocation_slope_matches_rate(self):
        # eps mass sits at the mean-gap spike, so the best the estimator can
        # do is the bulk mean, and its error tracks sqrt(k) eps^{1-1/k}
        rows = []
        for eps in (1.0 / 12, 2.0 / 12, 3.0 / 12):
            model = ModelSpec("LowerBound71", k=4, epsilon=eps, member=2)
            spec = ExperimentSpec(
                model=model,
                adversary=None,
                epsilon_grid=(eps,),
                estimators=("SosFull",),
                trials=4,
                sample_size=12,
                seed=2,
                params=SubgaussParams(2.0, 4),
            )
            rows.extend(run_sweep(spec).rows)
        merged = SweepReport(rows=rows)
        assert all(r.status == "ok" for r in rows)
        slope = rate_slope(merged)
        assert abs(slope - 0.75) <= 0.3
