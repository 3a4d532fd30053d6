"""Outlier-robust moment estimation from corrupted samples.

The estimator searches for a pseudo-distribution over candidate clean
samples: selection variables w_i decide which observed rows are kept, row
variables x'_i may deviate on the discarded fraction, and certificate
variables (p, Q) force the selected rows to have certifiably bounded
directional moment growth.  Rounding reads moment estimates straight off
the solved pseudo-moments.
"""

import itertools
import math
import warnings

import numpy as np
from dataclasses import dataclass, field, replace

from .corruption import CorruptedSample, sample_array
from .polycore import (
    Polynomial,
    SymmetricTensor,
    empirical_moments,
    monomials_of_degree,
    multinomial,
)
from .sdp import SdpConfig
from .sosengine import (
    ConstraintSystem,
    _MonomialTable,
    _merge,
    _times,
    coefficient_matrix,
    solve_system,
    sphere_polynomial,
)
from .subgauss import (
    SubgaussParams,
    certification_orders,
    minimal_C,
    minimal_C_from_moments,
)

# Desk-scale caps: the relaxation has Theta((n(1+d))^ell) moments, so the
# full estimator is only run on tiny instances.
DEFAULT_MAX_POINTS = 12
DEFAULT_MAX_DIMENSION = 2

MAD_SCALE = 1.4826  # makes the median absolute deviation consistent for Gaussians


class EstimationInfeasible(RuntimeError):
    """No pseudo-distribution satisfies the constraint systems."""

    def __init__(self, message, detail=""):
        super().__init__(message)
        self.detail = detail


class IdentifiabilityError(RuntimeError):
    """No candidate subset certifies at the requested parameters."""


@dataclass(frozen=True)
class EstimatorConfig:
    epsilon: float
    params: SubgaussParams
    mode: str = "FullSos"
    spectral_bound: float = None
    max_points: int = DEFAULT_MAX_POINTS
    max_dimension: int = DEFAULT_MAX_DIMENSION

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 0.9):
            raise ValueError("epsilon must be in [0, 0.9)")
        if self.mode not in ("FullSos", "MeanOnly"):
            raise ValueError("mode must be FullSos or MeanOnly")
        if self.mode == "MeanOnly":
            if self.spectral_bound is None or self.spectral_bound <= 0:
                raise ValueError("MeanOnly mode requires a positive spectral_bound")
        if self.mode == "FullSos" and self.epsilon > 0:
            p = self.params
            # threshold measured on the desk-scale fixture set: instances up
            # to ~1.2 stay feasible and accurate, so warn beyond 2
            level = p.C * p.k * self.epsilon ** (1.0 - 2.0 / p.k)
            if level > 2.0:
                warnings.warn(
                    "corruption level C*k*eps^(1-2/k) = %.3f is large; the "
                    "feasibility guarantee degrades" % level,
                    RuntimeWarning,
                )


@dataclass
class MomentEstimate:
    mean_hat: np.ndarray
    cov_hat: SymmetricTensor
    higher_hats: dict
    diagnostics: dict = field(default_factory=dict)
    # solved relaxation backing the estimate; None for oracle output
    pseudo_distribution: object = None

    def cov_matrix(self):
        return self.cov_hat.as_matrix()


# ---------------------------------------------------------------------------
# variable layout: monomials are exponent rows over n(1+d) columns, w_i at
# column i and x_{i,c} at column n + i*d + c


def _layout(n, d):
    """The variables' exponent rows: w[i] of w_i, shape (n, nv), and
    x[i, c] of x_{i,c}, shape (n, d, nv)."""
    rows = np.eye(n * (1 + d), dtype=int)
    return rows[:n], rows[n:].reshape(n, d, -1)


def _row_powers(x, order):
    """The monomials beta of one order in d variables, in
    `monomials_of_degree` (so `distinct_indices`) order, and x_i^beta for
    every row i and beta, shape (n, #beta, nv)."""
    beta = np.array(monomials_of_degree(x.shape[1], order), dtype=int)
    return beta, beta @ x


def _poly(E, coefs):
    """The polynomial with coefficients `coefs` on the distinct exponent
    rows E, in that order."""
    return Polynomial(E.shape[1], dict(zip(map(tuple, E.tolist()), coefs)))


def estimator_basis(n, d, mode="FullSos"):
    """Moment-matrix basis tailored to the selection structure: 1, every
    w_i, every x_{i,c}, every w_i x_{i,c}, and (FullSos) every x_{i,c}
    x_{i,c'} with c <= c'; each family by row i, then by coordinate.

    Degree-2 elements are restricted to the pairs the constraints actually
    couple: w_i x_{i,c} products let the booleanity and selection rows pin
    third moments, and same-row quadratics make every fourth sample moment
    a product of two basis elements.
    """
    if mode not in ("FullSos", "MeanOnly"):
        raise ValueError("mode must be FullSos or MeanOnly")
    w, x = _layout(n, d)
    nv = w.shape[1]
    parts = [np.zeros((1, nv), dtype=int), w, x.reshape(-1, nv),
             (x + w[:, None]).reshape(-1, nv)]
    if mode == "FullSos":
        parts.append(_row_powers(x, 2)[1].reshape(-1, nv))
    return list(map(tuple, np.concatenate(parts).tolist()))


def build_A(Y, epsilon, ell=4):
    """Selection constraints: boolean weights summing to (1-eps)n that pin
    kept rows to the observations.

    At eps = 0 the equalities w_i - 1 and x_{i,c} - y_{i,c} are added as
    well; they leave the estimator's solution unchanged and cut the moment
    block's face (`sosengine.face_basis`) down to one dimension.  Proof, for
    a feasible moment matrix X over `estimator_basis` and v the basis
    evaluated at the point (w, x) = (1, y):
    - The budget and booleanity rows give sum_i E~[(1 - w_i)^2] =
      sum_i E~[1 - w_i] = 0.  Each term is u^T X u >= 0 with u = e_1 - e_{w_i}
      (e_1 for the constant monomial), so X u = 0: E~[w_i b] = E~[b] for
      every basis element b.
    - With the selection kernel vectors, X(e_{w_i x_ic} - y_ic e_{w_i}) = 0,
      the columns of X for 1, w_i and w_i x_ic are v, v and y_ic v: every
      E~[b] is b at the point (E~[x_ic] = E~[w_i x_ic] = y_ic, for one).  So
      X = v v^T + D, with D zero in those rows and columns and D PSD (take
      z with v.z = 0 in z^T X z).
    - The trace objective is tr(v v^T) + tr(D), least exactly at D = 0.  D
      only tightens the other constraints: it adds a sum of squares to the
      directional 2k'-th moment that `build_B` bounds, and a PSD matrix to
      the covariance that the MeanOnly spectral rows bound.  So whenever the
      system is feasible, D = 0 is, and the minimum-trace solution is the
      point mass v v^T, which satisfies the added equalities under every
      multiplier.
    """
    data = sample_array(Y)
    n, d = data.shape
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must be in [0, 1)")
    w, x = _layout(n, d)
    one = np.zeros(w.shape[1], dtype=int)
    eqs = [_poly(np.vstack([w, one]), [1.0] * n + [-(1.0 - epsilon) * n])]
    eqs += [_poly(np.stack([2 * w[i], w[i]]), [1.0, -1.0]) for i in range(n)]
    eqs += [_poly(np.stack([w[i], w[i] + x[i, c]]), [data[i, c], -1.0])
            for i in range(n) for c in range(d)]
    if epsilon == 0.0:
        for i in range(n):
            eqs.append(_poly(np.stack([w[i], one]), [1.0, -1.0]))
            eqs += [_poly(np.stack([x[i, c], one]), [1.0, -data[i, c]]) for c in range(d)]
    return ConstraintSystem(num_vars=w.shape[1], relaxation_degree=ell, equalities=eqs)


def _directional_sum(x, order):
    """sum_i <x_i, u>^order as exponent rows over (u, x), one for each row
    i and u-monomial beta, with the integer multinomial count of each."""
    beta, powers = _row_powers(x, order)
    E = np.concatenate([np.broadcast_to(beta, (len(x), *beta.shape)), powers], axis=2)
    return E.reshape(-1, E.shape[2]), np.tile([multinomial(b) for b in beta], len(x))


def build_B(params, sample_size, dimension):
    """Moment-growth certificate constraints on the row variables.

    For each order k', the k'-th power of the scaled second moment minus the
    directional 2k'-th sample moment must equal q(u)(|u|^2 - 1) plus a sum
    of squares.  Eliminating u turns each order into one affine equality per
    u-coefficient: a row of `sosengine.coefficient_matrix` for the premise 1
    and the equality |u|^2 - 1, whose columns are the packed PSD Gram block
    Q{k'} of the square term and the free coefficients of q, set against
    the row-variable moments.  `affine_rows` holds each order's Gram
    columns, then each order's free columns, block-diagonally.

    Both sides are expanded on exponent rows over (u, x) with exact integer
    multinomial counts, equal rows merged by count; each coefficient is
    rounded once, when its count is scaled by 1/n (the 2k'-th moment) or by
    (C k')^{k'} / n^{k'} (the power).
    """
    n, d = sample_size, dimension
    _, x = _layout(n, d)
    width = d + x.shape[2]
    square, square_counts = _directional_sum(x, 2)
    one, sphere = Polynomial.constant(d, 1.0), sphere_polynomial(d)

    polys, sizes, grams, frees = [], [], [], []
    for kp in certification_orders(params.k):
        # (sum_i <x_i, u>^2)^k', one factor at a time
        power, counts = np.zeros((1, width), dtype=int), np.ones(1)
        for _ in range(kp):
            power, counts = _merge(*_times(power, counts, square, square_counts))
        moment, moment_counts = _directional_sum(x, 2 * kp)
        scale = (params.C * kp) ** kp / n ** kp
        terms, coefs = _merge(np.concatenate([moment, power]),
                              np.concatenate([moment_counts / n, -scale * counts]))
        # each u-monomial's polynomial in x on its row of the identity
        rows, A, (qbasis,), _ = coefficient_matrix(d, 2 * kp, [one], [sphere])
        at = _MonomialTable(rows).index(terms[:, :d])
        order = np.argsort(at, kind="stable")
        cuts = np.searchsorted(at[order], np.arange(1, len(rows)))
        polys.extend(map(_poly, np.split(terms[order, d:], cuts), np.split(coefs[order], cuts)))
        sizes.append(len(qbasis))
        gram = len(qbasis) * (len(qbasis) + 1) // 2
        grams.append(A[:, :gram])
        frees.append(A[:, gram:])
    return ConstraintSystem(
        num_vars=x.shape[2],
        relaxation_degree=params.effective_ell,
        affine_polys=polys,
        psd_sizes=sizes,
        affine_rows=np.hstack([_block_diagonal(grams), _block_diagonal(frees)]),
    )


def _block_diagonal(blocks):
    """The 2-D blocks laid along the diagonal of one zero matrix."""
    out = np.zeros(np.sum([b.shape for b in blocks], axis=0))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _spectral_rows(data_shape, bound):
    """PSD slack block making bound*I - (1/n) sum (x_i - mu')(x_i - mu')^T
    a pseudo-moment matrix inequality."""
    n, d = data_shape
    _, x = _layout(n, d)
    zero = np.zeros((1, x.shape[2]), dtype=int)
    polys = []
    for a, b in zip(*np.triu_indices(d)):
        # x_ia x_ib for each row i, x_ia x_jb for each other pair (i, j), and
        # the constant (a zero one is dropped); when a = b, (i, j) and (j, i)
        # are one monomial, counted twice
        same = a == b
        i, j = np.triu_indices(n, 1) if same else np.nonzero(~np.eye(n, dtype=bool))
        E = np.concatenate([x[:, a] + x[:, b], x[i, a] + x[j, b], zero])
        cross = -(2.0 if same else 1.0) / (n * n)
        polys.append(_poly(E, [1.0 / n - 1.0 / (n * n)] * n + [cross] * len(i)
                           + [-bound if same else 0.0]))
    # row (a, b) reads the slack's entry (a, b), and rows go in packed order
    return ConstraintSystem(
        num_vars=x.shape[2],
        relaxation_degree=4,
        affine_polys=polys,
        psd_sizes=[d],
        affine_rows=np.eye(len(polys)),
    )


def _robust_standardization(data):
    """Coordinatewise median shift and a single MAD-based scale.

    Keeps the solve translation-covariant and its coefficients O(1) on the
    inlier bulk.
    """
    med = np.median(data, axis=0)
    mad = np.median(np.abs(data - med), axis=0)
    scales = MAD_SCALE * mad
    usable = scales[scales > 1e-12]
    if usable.size:
        s = float(np.max(usable))
    else:
        spread = np.std(data, axis=0)
        usable = spread[spread > 1e-12]
        s = float(np.max(usable)) if usable.size else 1.0
    return med, s


def _same_row_tensors(read, x, max_order):
    """The tensors (1/n) sum_i E~[x_i^idx] of orders 1..max_order, x_i the
    variables of row i (x from `_layout`), from one `read` of pseudo-moments
    by exponent rows.  Each sum adds its n terms left to right."""
    n, d, _ = x.shape
    parts = [_row_powers(x, r)[1] for r in range(1, max_order + 1)]
    values = read(np.concatenate(parts, axis=1))
    sums = np.split(sum(values, 0.0) / n, np.cumsum([p.shape[1] for p in parts])[:-1])
    return {r: SymmetricTensor(d, r, v) for r, v in enumerate(sums, start=1)}


def _unstandardize_raw(tensors, med, s, order):
    """Raw moment tensor of s*x + med from standardized raw tensors."""
    d = len(med)
    out = SymmetricTensor(d, order)
    values = []
    for idx in out.indices():
        total = 0.0
        positions = range(order)
        for r in range(order + 1):
            for subset in itertools.combinations(positions, r):
                sub_idx = tuple(sorted(idx[p] for p in subset))
                rest = [idx[p] for p in positions if p not in subset]
                coef = (s ** r) * math.prod(med[c] for c in rest)
                if r == 0:
                    total += coef
                else:
                    total += coef * tensors[r].get(sub_idx)
        values.append(total)
    return SymmetricTensor(d, order, np.array(values))


def estimate_moments(Y, config):
    """Solve the selection + certificate relaxation and round pseudo-moments.

    The sample is standardized by coordinatewise median and a common MAD
    scale before solving; estimates are mapped back afterwards.  The solve
    minimizes the moment-matrix trace, which picks the least-inflated
    completion among feasible pseudo-distributions.
    """
    data = sample_array(Y)
    n, d = data.shape
    if n > config.max_points:
        raise ValueError("sample size %d exceeds cap %d" % (n, config.max_points))
    if d > config.max_dimension:
        raise ValueError("dimension %d exceeds cap %d" % (d, config.max_dimension))
    params = config.params
    if config.mode == "FullSos" and params.effective_ell != params.k:
        raise ValueError("FullSos supports only ell == k")

    med, s = _robust_standardization(data)
    std = (data - med) / s

    ell = params.effective_ell if config.mode == "FullSos" else 4
    if config.mode == "FullSos":
        affine = build_B(params, n, d)
    else:
        affine = _spectral_rows((n, d), config.spectral_bound / (s * s))
    system = replace(affine, equalities=build_A(std, config.epsilon, ell=ell).equalities)

    basis = estimator_basis(n, d, config.mode)
    objective = _poly(2 * np.array(basis), np.ones(len(basis)))  # tr X = sum_b E~[b^2]

    res = solve_system(system, objective=objective, sense="min", basis=basis,
                       config=SdpConfig(max_iters=300, tol=1e-9))
    if res.status == "Infeasible":
        raise EstimationInfeasible(
            "no pseudo-distribution satisfies the constraints "
            "(epsilon too large or C too small)",
            detail=res.detail,
        )
    pd = res.pseudo
    # read moments off the packed moment matrix at each monomial's first
    # pair, so that the estimate keeps no dict of every pseudo-moment
    pairs, nv = res.relaxation.pairs, system.num_vars

    def read(E):
        return pd.upper[pairs.index(E)]

    max_order = params.k if config.mode == "FullSos" else 2
    w, x = _layout(n, d)
    std_raw = _same_row_tensors(read, x, max_order)

    mean_std = np.array([std_raw[1].get((c,)) for c in range(d)])
    mean_hat = med + s * mean_std

    # every x_{i,c} is a basis element idx, first at the pair (0, idx) of
    # packed index idx, so the pseudo-moment of x_{i,a} x_{j,b} is the entry
    # of their basis pair: one gather
    xs = pairs.index(x.reshape(-1, nv))
    outer = pd.moment_matrix[np.ix_(xs, xs)].reshape(n, d, n, d).sum(axis=(0, 2)) / (n * n)
    cov = s * s * (std_raw[2].to_dense() - outer)
    cov_hat = SymmetricTensor.from_dense(0.5 * (cov + cov.T))

    higher = {}
    for r in range(3, max_order + 1):
        higher[r] = _unstandardize_raw(std_raw, med, s, r)

    sdp = res.sdp
    relaxation = res.relaxation
    problem = relaxation.problem
    diagnostics = {
        "status": res.status,
        "mode": config.mode,
        "relaxation_degree": ell,
        "basis_size": len(basis),
        "relaxation": {
            "m": problem.num_constraints,
            "block_sizes": list(problem.block_sizes),
            "free_eliminated": relaxation.free_eliminated,
            "face_dim": problem.block_sizes[0],
            "rows_implied": relaxation.rows_implied,
            "rows_vanished": relaxation.rows_vanished,
            "rows_dependent": relaxation.rows_dependent,
            "nnz": relaxation.nnz,
        },
        "scale": s,
        "shift": med,
        "trace_objective": res.objective_value,
        "moment_matrix_min_eig": pd.min_eigenvalue(),
        "iterations": sdp.iterations,
        "gap": sdp.duality_gap,
        "residuals": (sdp.primal_residual, sdp.dual_residual),
        "detail": res.detail,
        "selection_weights": read(w),
    }
    return MomentEstimate(mean_hat=mean_hat, cov_hat=cov_hat,
                          higher_hats=higher, diagnostics=diagnostics,
                          pseudo_distribution=pd)


def truncate_preprocess(Y, epsilon):
    """Drop rows whose squared robust-scaled norm exceeds 1/epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if isinstance(Y, CorruptedSample):
        data, mask, ref = Y.data, Y.corrupted_mask, Y.clean_reference
    else:
        data = sample_array(Y)
        mask = np.zeros(len(data), dtype=bool)
        ref = None
    med = np.median(data, axis=0)
    dev = np.abs(data - med)
    # MAD alone understates sigma on platykurtic discrete coordinates and
    # the norm budget would then clip the bulk; the 90th-percentile spread
    # (Gaussian-calibrated) floors the scale without losing robustness
    mad = np.median(dev, axis=0)
    q90 = np.quantile(dev, 0.9, axis=0)
    scale = np.maximum(MAD_SCALE * mad, q90 / 1.6449)
    fallback = np.std(data, axis=0)
    scale = np.where(scale > 1e-12, scale, np.where(fallback > 1e-12, fallback, 1.0))
    norms = np.sum(((data - med) / scale) ** 2, axis=1)
    keep = norms <= 1.0 / epsilon
    kept_mask = mask[keep]
    n_kept = int(np.sum(keep))
    if n_kept == 0:
        raise ValueError("truncation removed every row")
    return CorruptedSample(
        data=data[keep],
        corrupted_mask=kept_mask,
        epsilon=float(np.sum(kept_mask)) / n_kept,
        clean_reference=None if ref is None else ref[keep],
    )


def identifiability_oracle(Y, epsilon, params):
    """Exhaustive reference estimator over row subsets.

    Examines every subset of at least (1-eps)n rows, keeps those whose
    uniform distribution certifies at the given parameters, and returns the
    empirical moments of the subset with the smallest certifiable constant
    (ties broken by lexicographically smallest index set).  A subset of
    equal rows certifies at C = 0; a subset whose search raises
    RuntimeError does not certify, and any other error propagates.
    """
    data = sample_array(Y)
    n, d = data.shape
    if n > 16:
        raise ValueError("exhaustive search capped at 16 rows")
    min_size = int(math.ceil((1.0 - epsilon) * n))
    best = None
    checked = 0
    certified = 0
    for size in range(min_size, n + 1):
        for subset in itertools.combinations(range(n), size):
            checked += 1
            rows = data[list(subset)]
            try:
                if np.all(rows == rows[0]):
                    mc = 0.0  # constant subsets certify with the zero square
                elif d == 1:
                    raws = [
                        float(np.mean(rows[:, 0] ** r))
                        for r in range(1, params.k + 1)
                    ]
                    var = raws[1] - raws[0] ** 2
                    if var <= 1e-12:
                        mc = 0.0
                    else:
                        mc = minimal_C_from_moments(raws, params.k)
                else:
                    mc = minimal_C(rows, params.k, ell=params.effective_ell)
            except RuntimeError:
                continue
            if mc <= params.C + 1e-9:
                certified += 1
                key = (mc, subset)
                if best is None or key < best[0]:
                    best = (key, subset, mc)
    if best is None:
        raise IdentifiabilityError(
            "no subset of size >= %d certifies at C=%.3g" % (min_size, params.C)
        )
    _, subset, mc = best
    rows = data[list(subset)]
    moments = empirical_moments(rows, params.k)
    higher = {r: moments.raw(r) for r in range(3, params.k + 1)}
    return MomentEstimate(
        mean_hat=moments.mean.copy(),
        cov_hat=moments.covariance,
        higher_hats=higher,
        diagnostics={
            "status": "Optimal",
            "mode": "Oracle",
            "subset": subset,
            "minimal_C": mc,
            "subsets_checked": checked,
            "subsets_certified": certified,
        },
    )


# ---------------------------------------------------------------------------
# moment-gap rate reports


@dataclass
class GapRow:
    order: int
    max_ratio: float
    max_gap: float
    predicted_rate: float


@dataclass
class GapReport:
    epsilon: float
    rows: dict

    def ratio(self, order):
        return self.rows[order].max_ratio


def _direction_set(dimension, count, matrices, rng):
    dirs = []
    for _ in range(count):
        v = rng.standard_normal(dimension)
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            dirs.append(v / nrm)
    for m in matrices:
        try:
            _, vecs = np.linalg.eigh(m)
        except np.linalg.LinAlgError:
            continue
        for col in vecs.T:
            dirs.append(col)
    return dirs


def identifiability_gap_check(m1, m2, epsilon, params, directions=1000, seed=0):
    """Ratio of observed moment gaps to the predicted decay rates.

    Order 1 compares mean gaps against sqrt(C*k)*eps^(1-1/k) times the
    directional deviation of the summed covariances; order r >= 2 compares
    raw moment-tensor gaps against (C*k)^(r/2)*eps^(1-r/k) times the summed
    raw second moment form raised to r/2.
    """
    if m1.dimension != m2.dimension:
        raise ValueError("moment sets have mismatched dimension")
    d = m1.dimension
    C, k = params.C, params.k
    rng = np.random.default_rng(seed)
    cov_sum = m1.covariance.to_dense() + m2.covariance.to_dense()
    raw2_sum = m1.raw(2).to_dense() + m2.raw(2).to_dense()
    mean_diff = np.asarray(m1.mean) - np.asarray(m2.mean)
    matrices = [cov_sum, raw2_sum, np.outer(mean_diff, mean_diff)]
    dirs = _direction_set(d, directions, matrices, rng)

    max_order = min(m1.max_order, m2.max_order, k // 2)
    rows = {}
    for r in range(1, max_order + 1):
        if r == 1:
            rate = math.sqrt(C * k) * epsilon ** (1.0 - 1.0 / k)
        else:
            rate = (C * k) ** (r / 2.0) * epsilon ** (1.0 - r / k)
        if r >= 2:
            diff = m1.raw(r).sub(m2.raw(r))
        max_ratio = 0.0
        max_gap = 0.0
        for u in dirs:
            if r == 1:
                gap = abs(float(mean_diff @ u))
                base = float(u @ cov_sum @ u)
                den = rate * math.sqrt(max(base, 0.0))
            else:
                gap = abs(diff.contract(u))
                base = float(u @ raw2_sum @ u)
                den = rate * max(base, 0.0) ** (r / 2.0)
            max_gap = max(max_gap, gap)
            if den > 1e-300:
                max_ratio = max(max_ratio, gap / den)
        rows[r] = GapRow(order=r, max_ratio=max_ratio, max_gap=max_gap,
                         predicted_rate=rate)
    return GapReport(epsilon=epsilon, rows=rows)
