"""Benchmark sweeps over corruption levels, with baseline comparisons.

A sweep crosses estimators with an epsilon grid and repeats each cell over
independent trials.  Every trial owns an RNG stream derived from
(spec.seed, trial), so the same clean sample underlies each estimator at a
given (epsilon, trial) cell and the whole report is reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corruption import (
    ModelSpec,
    corrupt,
    population_moments,
    sample_array,
    sample_clean,
)
from .estimators import (
    MAD_SCALE,
    EstimatorConfig,
    MomentEstimate,
    estimate_moments,
)
from .polycore import empirical_moments
from .subgauss import SubgaussParams

_TRIMMED = re.compile(r"^TrimmedMean\((0?\.[0-9]+|0|1)\)$")
BASE_ESTIMATORS = ("SosFull", "MeanOnly", "Empirical", "CoordMedian")

CSV_COLUMNS = (
    "estimator",
    "epsilon",
    "trial",
    "mean_err",
    "cov_spec_err",
    "mahalanobis_err",
    "runtime_ms",
    "predicted_rate",
    "predicted_cov_rate",
    "status",
)


def _check_estimator_name(name):
    if name in BASE_ESTIMATORS or _TRIMMED.match(name):
        return
    raise ValueError(
        f"unknown estimator {name!r}; expected one of {BASE_ESTIMATORS} "
        "or TrimmedMean(alpha)"
    )


@dataclass(frozen=True)
class ExperimentSpec:
    model: ModelSpec
    adversary: object
    epsilon_grid: tuple
    estimators: tuple
    trials: int
    sample_size: int
    seed: int = 0
    params: SubgaussParams = SubgaussParams(1.0, 4)
    spectral_bound: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "epsilon_grid", tuple(self.epsilon_grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.epsilon_grid:
            raise ValueError("epsilon grid must be non-empty")
        if not self.estimators:
            raise ValueError("estimator list must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        for name in self.estimators:
            _check_estimator_name(name)
        for eps in self.epsilon_grid:
            if not (0.0 <= eps < 1.0):
                raise ValueError("epsilon values must lie in [0, 1)")


@dataclass
class SweepRow:
    estimator: str
    epsilon: float
    trial: int
    mean_err: float
    cov_spec_err: float
    mahalanobis_err: float
    runtime_ms: float
    predicted_rate: float
    predicted_cov_rate: float
    status: str = "ok"


@dataclass
class SweepReport:
    rows: list
    spec: ExperimentSpec = None

    def to_csv(self, with_runtime=True):
        # runtime is wall-clock and varies between runs, so reproducibility
        # comparisons drop that column
        cols = [c for c in CSV_COLUMNS if with_runtime or c != "runtime_ms"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in self.rows:
            writer.writerow([_fmt(getattr(row, c)) for c in cols])
        return buf.getvalue()

    def to_json(self):
        payload = [
            {c: _json_value(getattr(row, c)) for c in CSV_COLUMNS}
            for row in self.rows
        ]
        return json.dumps(payload, indent=2, sort_keys=True)

    def select(self, estimator=None, epsilon=None, status="ok"):
        out = []
        for row in self.rows:
            if estimator is not None and row.estimator != estimator:
                continue
            if epsilon is not None and row.epsilon != epsilon:
                continue
            if status is not None and row.status != status:
                continue
            out.append(row)
        return out


def _fmt(value):
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _json_value(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


# ---------------------------------------------------------------------------
# baseline estimators


def _empirical_estimate(data):
    emp = empirical_moments(data, 2)
    return MomentEstimate(
        mean_hat=emp.mean,
        cov_hat=emp.covariance,
        higher_hats={},
        diagnostics={"estimator": "Empirical"},
    )


def _coord_median_estimate(data):
    med = np.median(data, axis=0)
    mad = np.median(np.abs(data - med), axis=0)
    # a zero-spread coordinate cannot flag outliers, so it admits every row
    scale = np.where(mad > 0, MAD_SCALE * mad, np.inf)
    inlier = np.all(np.abs(data - med) <= 3.0 * scale, axis=1)
    emp = empirical_moments(data[inlier], 2)
    return MomentEstimate(
        mean_hat=med,
        cov_hat=emp.covariance,
        higher_hats={},
        diagnostics={"estimator": "CoordMedian", "inliers": int(inlier.sum())},
    )


def _trimmed_estimate(data, alpha):
    if not 0.0 <= alpha < 1.0:
        raise ValueError("trim fraction must lie in [0, 1)")
    n = len(data)
    med = np.median(data, axis=0)
    dist = np.linalg.norm(data - med, axis=1)
    drop = int(alpha * n)
    keep = np.sort(np.argsort(dist, kind="stable")[: n - drop])
    emp = empirical_moments(data[keep], 2)
    return MomentEstimate(
        mean_hat=emp.mean,
        cov_hat=emp.covariance,
        higher_hats={},
        diagnostics={"estimator": "TrimmedMean", "alpha": alpha, "kept": len(keep)},
    )


# ---------------------------------------------------------------------------
# ground truth per model family


def model_truth(model):
    """True (mean, covariance) of a clean-data law."""
    p = model.params
    fam = model.family
    if fam == "Gaussian":
        return p["mean"].copy(), p["cov"].copy()
    if fam == "ProductSubgaussian":
        d = len(p["laws"])
        return np.zeros(d), np.eye(d)
    if fam == "IcaModel":
        A = p["A"]
        return np.zeros(A.shape[0]), A @ A.T
    if fam == "GaussianMixture":
        means = p["means"]
        m = means.mean(axis=0)
        S = np.eye(means.shape[1]) + means.T @ means / len(means) - np.outer(m, m)
        return m, S
    if fam in ("LowerBound71", "LowerBound72"):
        raw = population_moments(model, 2)
        return np.array([raw[0]]), np.array([[raw[1] - raw[0] ** 2]])
    if fam == "CovInflate":
        k, eps, d = p["k"], p["epsilon"], p["dimension"]
        var = (1 - eps) + eps * eps ** (-2.0 / k)
        return np.zeros(d), var * np.eye(d)
    raise ValueError(f"no ground truth for family {fam!r}")


# ---------------------------------------------------------------------------
# the sweep


def run_sweep(spec, workers=1):
    """Cross estimators x epsilon grid x trials; failures become flagged rows."""
    jobs = [
        (spec, name, eps, trial)
        for name in spec.estimators
        for eps in spec.epsilon_grid
        for trial in range(spec.trials)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_trial, jobs))
    else:
        rows = [_run_trial(job) for job in jobs]
    return SweepReport(rows=rows, spec=spec)


def _trial_seed(seed, trial):
    return int(np.random.SeedSequence(entropy=(seed, trial)).generate_state(1)[0])


def _run_trial(job):
    spec, name, eps, trial = job
    truth_mean, truth_cov = model_truth(spec.model)
    base = _trial_seed(spec.seed, trial)
    model_t = ModelSpec(spec.model.family, seed=base, **spec.model.params)
    sample = sample_clean(model_t, spec.sample_size)
    if eps > 0 and spec.adversary is not None:
        Y = corrupt(sample, spec.adversary, eps, seed=base + 1)
    else:
        Y = sample

    t0 = time.perf_counter()
    status = "ok"
    try:
        est = _estimate_one(name, Y, eps, spec)
    except Exception as exc:  # a failed cell must not abort the sweep
        est = None
        status = type(exc).__name__
    runtime_ms = 1000.0 * (time.perf_counter() - t0)

    if est is None:
        mean_err = cov_err = mah_err = float("nan")
    else:
        W = _inv_sqrt(truth_cov)
        diff = est.mean_hat - truth_mean
        mean_err = float(np.linalg.norm(diff))
        mah_err = float(np.linalg.norm(W @ diff))
        D = W @ (est.cov_hat.as_matrix() - truth_cov) @ W
        cov_err = float(np.linalg.norm(D, 2))

    C, k = spec.params.C, spec.params.k
    return SweepRow(
        estimator=name,
        epsilon=float(eps),
        trial=trial,
        mean_err=mean_err,
        cov_spec_err=cov_err,
        mahalanobis_err=mah_err,
        runtime_ms=runtime_ms,
        predicted_rate=math.sqrt(C * k) * eps ** (1.0 - 1.0 / k) if eps else 0.0,
        predicted_cov_rate=C * k * eps ** (1.0 - 2.0 / k) if eps else 0.0,
        status=status,
    )


def _inv_sqrt(S):
    lam, V = np.linalg.eigh(S)
    if lam.min() <= 0:
        raise ValueError("true covariance must be positive definite")
    return (V * lam ** -0.5) @ V.T


def _estimate_one(name, Y, eps, spec):
    data = sample_array(Y)
    if name == "Empirical":
        return _empirical_estimate(data)
    if name == "CoordMedian":
        return _coord_median_estimate(data)
    m = _TRIMMED.match(name)
    if m:
        return _trimmed_estimate(data, float(m.group(1)))
    if name == "SosFull":
        cfg = EstimatorConfig(epsilon=eps, params=spec.params)
    else:
        cfg = EstimatorConfig(
            epsilon=eps,
            params=spec.params,
            mode="MeanOnly",
            spectral_bound=spec.spectral_bound,
        )
    return estimate_moments(data, cfg)


def rate_slope(report, estimator="SosFull", metric="mean_err"):
    """Least-squares slope of log(mean error) against log(epsilon)."""
    by_eps = {}
    for row in report.select(estimator=estimator):
        if row.epsilon > 0 and math.isfinite(getattr(row, metric)):
            by_eps.setdefault(row.epsilon, []).append(getattr(row, metric))
    if len(by_eps) < 2:
        raise ValueError("need at least two epsilon levels with finite errors")
    xs, ys = [], []
    for eps, vals in sorted(by_eps.items()):
        xs.append(math.log(eps))
        ys.append(math.log(np.mean(vals)))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
