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
from dataclasses import dataclass, field

from .corruption import CorruptedSample, sample_array
from .polycore import (
    Polynomial,
    SymmetricTensor,
    empirical_moments,
    monomial_mul,
    monomials_of_degree,
    multinomial,
)
from .sdp import SdpConfig
from .sosengine import (
    AffineEquality,
    ConstraintSystem,
    PsdVarBlock,
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
# variable layout: w_0..w_{n-1}, then x_{i,c} at n + i*d + c


def _num_vars(n, d):
    return n * (1 + d)


def _w_mono(n, d, i):
    mono = [0] * _num_vars(n, d)
    mono[i] = 1
    return tuple(mono)


def _x_mono(n, d, entries):
    """Monomial with one exponent bump per (row, coord) pair in `entries`."""
    mono = [0] * _num_vars(n, d)
    for i, c in entries:
        mono[n + i * d + c] += 1
    return tuple(mono)


def estimator_basis(n, d, mode="FullSos"):
    """Moment-matrix basis tailored to the selection structure.

    Degree-2 elements are restricted to the pairs the constraints actually
    couple: w_i x_{i,c} products let the booleanity and selection rows pin
    third moments, and same-row quadratics make every fourth sample moment
    a product of two basis elements.
    """
    if mode not in ("FullSos", "MeanOnly"):
        raise ValueError("mode must be FullSos or MeanOnly")
    nv = _num_vars(n, d)
    basis = [(0,) * nv]
    for i in range(n):
        basis.append(_w_mono(n, d, i))
    for i in range(n):
        for c in range(d):
            basis.append(_x_mono(n, d, [(i, c)]))
    for i in range(n):
        for c in range(d):
            mono = list(_x_mono(n, d, [(i, c)]))
            mono[i] += 1
            basis.append(tuple(mono))
    if mode == "FullSos":
        for i in range(n):
            for c in range(d):
                for cp in range(c, d):
                    basis.append(_x_mono(n, d, [(i, c), (i, cp)]))
    return basis


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
    nv = _num_vars(n, d)
    eqs = []
    total = {_w_mono(n, d, i): 1.0 for i in range(n)}
    total[(0,) * nv] = -(1.0 - epsilon) * n
    eqs.append(Polynomial(nv, total))
    for i in range(n):
        w = _w_mono(n, d, i)
        eqs.append(Polynomial(nv, {monomial_mul(w, w): 1.0, w: -1.0}))
    for i in range(n):
        w = _w_mono(n, d, i)
        for c in range(d):
            x = _x_mono(n, d, [(i, c)])
            eqs.append(Polynomial(nv, {w: float(data[i, c]), monomial_mul(w, x): -1.0}))
    if epsilon == 0.0:
        one = (0,) * nv
        for i in range(n):
            eqs.append(Polynomial(nv, {_w_mono(n, d, i): 1.0, one: -1.0}))
            for c in range(d):
                x = _x_mono(n, d, [(i, c)])
                eqs.append(Polynomial(nv, {x: 1.0, one: -float(data[i, c])}))
    return ConstraintSystem(num_vars=nv, relaxation_degree=ell, equalities=eqs)


def _map_power(base, power, nv, d):
    out = {(0,) * d: Polynomial.constant(nv, 1.0)}
    for _ in range(power):
        nxt = {}
        for b1, p1 in out.items():
            for b2, p2 in base.items():
                b = tuple(a + c for a, c in zip(b1, b2))
                prod = p1 * p2
                nxt[b] = nxt[b] + prod if b in nxt else prod
        out = nxt
    return out


def _sample_moment_map(n, d, order):
    """u-coefficient map of (1/n) sum_i <x_i, u>^order."""
    nv = _num_vars(n, d)
    out = {}
    for beta in monomials_of_degree(d, order):
        coef = float(multinomial(beta))
        terms = {}
        for i in range(n):
            entries = []
            for c, e in enumerate(beta):
                entries.extend([(i, c)] * e)
            terms[_x_mono(n, d, entries)] = coef / n
        out[beta] = Polynomial(nv, terms)
    return out


def build_B(params, sample_size, dimension):
    """Moment-growth certificate constraints on the row variables.

    For each order k', the k'-th power of the scaled second moment minus the
    directional 2k'-th sample moment must equal q(u)(|u|^2 - 1) plus a sum
    of squares.  Eliminating u turns each order into one affine equality per
    u-coefficient: a row of `sosengine.coefficient_matrix` for the premise 1
    and the equality |u|^2 - 1, whose columns are the free coefficients of q
    and the PSD Gram block Q{k'} of the square term, set against the
    row-variable moments.
    """
    n, d = sample_size, dimension
    nv = _num_vars(n, d)
    square_avg = _sample_moment_map(n, d, 2)
    one, sphere = Polynomial.constant(d, 1.0), sphere_polynomial(d)

    affine = []
    psd_blocks = []
    num_free = 0
    zero = Polynomial.constant(nv, 0.0)
    for kp in certification_orders(params.k):
        lhs = _sample_moment_map(n, d, 2 * kp)
        power = _map_power(square_avg, kp, nv, d)
        scale = (params.C * kp) ** kp
        rows, A, (qbasis,), (p_monos,) = coefficient_matrix(d, 2 * kp, [one], [sphere])
        qname = "Q%d" % kp
        psd_blocks.append(PsdVarBlock(qname, len(qbasis)))
        gram = [(qname, i, j) for i, j in zip(*np.triu_indices(len(qbasis)))]
        for beta, a_row in zip(rows, A.tolist()):
            poly = lhs.get(beta, zero) - scale * power.get(beta, zero)
            psd = {key: c for key, c in zip(gram, a_row) if c}
            free = {num_free + f: c for f, c in enumerate(a_row[len(gram):]) if c}
            affine.append(AffineEquality(poly, free=free, psd=psd))
        num_free += len(p_monos)
    return ConstraintSystem(
        num_vars=nv,
        relaxation_degree=params.effective_ell,
        affine_equalities=affine,
        psd_blocks=psd_blocks,
        num_free=num_free,
    )


def _combine(base, extra):
    """Merge two systems over the same polynomial variables."""
    if base.num_vars != extra.num_vars:
        raise ValueError("systems disagree on variable count")
    offset = base.num_free
    shifted = []
    for aff in extra.affine_equalities:
        free = {idx + offset: coef for idx, coef in aff.free.items()}
        shifted.append(AffineEquality(aff.poly, free=free, psd=aff.psd))
    return ConstraintSystem(
        num_vars=base.num_vars,
        relaxation_degree=max(base.relaxation_degree, extra.relaxation_degree),
        equalities=list(base.equalities) + list(extra.equalities),
        affine_equalities=list(base.affine_equalities) + shifted,
        psd_blocks=list(base.psd_blocks) + list(extra.psd_blocks),
        num_free=base.num_free + extra.num_free,
    )


def _spectral_rows(data_shape, bound):
    """PSD slack block making bound*I - (1/n) sum (x_i - mu')(x_i - mu')^T
    a pseudo-moment matrix inequality."""
    n, d = data_shape
    nv = _num_vars(n, d)
    affine = []
    for a in range(d):
        for b in range(a, d):
            terms = {}
            for i in range(n):
                terms[_x_mono(n, d, [(i, a), (i, b)])] = 1.0 / n
            for i in range(n):
                for j in range(n):
                    mono = _x_mono(n, d, [(i, a), (j, b)])
                    terms[mono] = terms.get(mono, 0.0) - 1.0 / (n * n)
            if a == b:
                terms[(0,) * nv] = terms.get((0,) * nv, 0.0) - bound
            affine.append(
                AffineEquality(Polynomial(nv, terms), psd={("specbound", a, b): 1.0})
            )
    return ConstraintSystem(
        num_vars=nv,
        relaxation_degree=4,
        affine_equalities=affine,
        psd_blocks=[PsdVarBlock("specbound", d)],
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


def _same_row_tensor(moment, n, d, order):
    t = SymmetricTensor(d, order)
    entries = []
    for idx in t.indices():
        total = 0.0
        for i in range(n):
            mono = _x_mono(n, d, [(i, c) for c in idx])
            total += moment(mono)
        entries.append(total / n)
    return SymmetricTensor(d, order, np.array(entries))


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
    system = build_A(std, config.epsilon, ell=ell)
    if config.mode == "FullSos":
        system = _combine(system, build_B(params, n, d))
    else:
        bound = config.spectral_bound / (s * s)
        system = _combine(system, _spectral_rows((n, d), bound))

    basis = estimator_basis(n, d, config.mode)
    objective_terms = {}
    for b in basis:
        sq = monomial_mul(b, b)
        objective_terms[sq] = objective_terms.get(sq, 0.0) + 1.0
    objective = Polynomial(system.num_vars, objective_terms)

    res = solve_system(system, objective=objective, sense="min", basis=basis,
                       config=SdpConfig(max_iters=300, tol=1e-9))
    if res.status == "Infeasible":
        raise EstimationInfeasible(
            "no pseudo-distribution satisfies the constraints "
            "(epsilon too large or C too small)",
            detail=res.detail,
        )
    pd = res.pseudo
    # read moments off the Hankel-exact moment matrix, so that the estimate
    # keeps no dict of every pseudo-moment
    positions = res.relaxation.moment_positions
    M = pd.moment_matrix

    def moment(mono):
        return float(M[positions[mono]])

    max_order = params.k if config.mode == "FullSos" else 2
    std_raw = {r: _same_row_tensor(moment, n, d, r) for r in range(1, max_order + 1)}

    mean_std = np.array([std_raw[1].get((c,)) for c in range(d)])
    mean_hat = med + s * mean_std

    # every x_{i,c} is a basis element, at (0, idx), so the pseudo-moment of
    # x_{i,a} x_{j,b} is the entry of their basis pair: one gather
    xs = [positions[_x_mono(n, d, [(i, c)])][1] for i in range(n) for c in range(d)]
    outer = M[np.ix_(xs, xs)].reshape(n, d, n, d).sum(axis=(0, 2)) / (n * n)
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
            "free_eliminated": len(relaxation.presolved.pivots),
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
        "selection_weights": np.array(
            [moment(_w_mono(n, d, i)) for i in range(n)]
        ),
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
    (ties broken by lexicographically smallest index set).
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
                if d == 1:
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
            except ValueError:
                mc = 0.0  # constant subsets certify with the zero square
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
