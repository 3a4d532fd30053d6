"""Blind source separation and spherical mixture recovery from moment tensors.

Both pipelines share one skeleton: estimate low-order moments (robust SDP
estimates at desk scale, plain empirical moments at Monte Carlo scale),
whiten so the target components become orthonormal, peel the Gaussian part
off the third or fourth moment tensor, and split the remainder by
simultaneous diagonalization.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corruption import sample_array
from .estimators import EstimatorConfig, estimate_moments, truncate_preprocess
from .polycore import SymmetricTensor, empirical_moments
from .subgauss import SubgaussParams

# below this kurtosis offset the fourth cumulant carries no usable signal
GAMMA_IDENTIFIABILITY_FLOOR = 0.1
DEFAULT_KAPPA_MIN = 1e-3

MAX_MATCHED_COMPONENTS = 8  # exhaustive permutation matching cap


class DecompositionError(RuntimeError):
    """Simultaneous diagonalization kept hitting repeated eigenvalues."""


class WhiteningError(RuntimeError):
    """The second-moment surrogate is singular where it must be invertible."""


@dataclass(frozen=True)
class AppConfig:
    """Shared pipeline knobs for the two downstream applications."""

    epsilon: float = 0.0
    moment_source: str = "empirical"  # or "robust" (desk-scale SDP estimates)
    params: SubgaussParams = None
    truncate: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.moment_source not in ("empirical", "robust"):
            raise ValueError("moment_source must be empirical or robust")
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError("epsilon must be in [0, 1)")
        if self.moment_source == "robust" and self.params is None:
            raise ValueError("robust moment source needs params")


@dataclass
class IcaResult:
    columns_hat: list
    gamma_hat: float
    recovery_score: float | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass
class GmmResult:
    means_hat: list
    matched_error: float | None = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tensor decomposition


def _dense_tensor(T):
    if isinstance(T, SymmetricTensor):
        return T.to_dense()
    arr = np.asarray(T, dtype=float)
    # route through the symmetric store so all axis orders agree
    return SymmetricTensor.from_dense(arr).to_dense()


def decompose_orthogonal(T, q, seed=0):
    """Unit components of an (approximately) orthogonal rank-q tensor.

    Order 3 diagonalizes a random contraction directly.  Order 4 first takes
    the top-q eigenvectors of the d^2 x d^2 flattening (all the components
    live in their span even when the component weights tie), reshapes them to
    matrices, and diagonalizes a random combination of those.  A draw whose
    eigenvalues nearly coincide is retried with a fresh contraction.
    """
    dense = _dense_tensor(T)
    order = dense.ndim
    if order not in (3, 4):
        raise ValueError("decomposition expects an order 3 or 4 tensor")
    d = dense.shape[0]
    if not 1 <= q <= d:
        raise ValueError("q must be between 1 and the dimension")

    if order == 4:
        flat = dense.reshape(d * d, d * d)
        _, vecs = _top_abs_eigh(flat, q)
        slabs = []
        for m in range(q):
            V = vecs[:, m].reshape(d, d)
            slabs.append(0.5 * (V + V.T))
    else:
        slabs = [dense[:, :, c] for c in range(d)]

    rng = np.random.default_rng(seed)
    frame = None
    for _ in range(20):
        g = rng.standard_normal(len(slabs))
        W = sum(gm * slab for gm, slab in zip(g, slabs))
        W = 0.5 * (W + W.T)
        lam, vec = np.linalg.eigh(W)
        sel = np.argsort(-np.abs(lam))
        lam = lam[sel]
        vec = vec[:, sel]
        tol = 1e-8 * max(np.abs(lam).max(), 1e-300)
        distinct = all(
            abs(lam[i] - lam[j]) > tol
            for i in range(q)
            for j in range(i + 1, q)
        )
        separated = q == d or abs(abs(lam[q - 1]) - abs(lam[q])) > tol
        if distinct and separated:
            frame = vec[:, :q]
            break
    if frame is None:
        raise DecompositionError(
            "contraction eigenvalues stayed degenerate after 20 random draws"
        )

    # snap to the closest orthonormal frame
    U, _, Vt = np.linalg.svd(frame, full_matrices=False)
    frame = U @ Vt
    comps = [frame[:, i] for i in range(q)]
    if order == 3:
        for i, c in enumerate(comps):
            if np.einsum("abc,a,b,c->", dense, c, c, c) < 0:
                comps[i] = -c
    return comps


def _top_abs_eigh(S, q):
    lam, vec = np.linalg.eigh(S)
    sel = np.argsort(-np.abs(lam))[:q]
    return lam[sel], vec[:, sel]


# ---------------------------------------------------------------------------
# whitening helpers


def _gaussian_fourth(d):
    """Dense tensor with <G, u^{x4}> = 3|u|^4 (the isotropic Gaussian part)."""
    I = np.eye(d)
    return (
        np.einsum("ab,ce->abce", I, I)
        + np.einsum("ac,be->abce", I, I)
        + np.einsum("ae,bc->abce", I, I)
    )


def _mean_times_identity(m):
    """Dense tensor with <S, u^{x3}> = 3 <m, u> |u|^2."""
    I = np.eye(m.size)
    return (
        np.einsum("a,bc->abc", m, I)
        + np.einsum("b,ac->abc", m, I)
        + np.einsum("c,ab->abc", m, I)
    )


def _matrix(M):
    if isinstance(M, SymmetricTensor):
        return M.as_matrix()
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# independent component analysis


def ica_from_moments(second, fourth, truth_mixing=None, seed=0):
    """Mixing columns from raw second and fourth moment tensors.

    The raw moments must come from a symmetrized (or genuinely centered)
    sample, so the second moment equals the mixing covariance A A^T.
    """
    S = _matrix(second)
    M4 = _dense_tensor(fourth)
    d = S.shape[0]
    lam, V = np.linalg.eigh(S)
    if lam.min() <= 0:
        raise WhiteningError(
            "second moment is not positive definite; whitening impossible"
        )
    W = (V * lam ** -0.5) @ V.T
    Shalf = (V * lam ** 0.5) @ V.T

    M4w = np.einsum("abce,ia,jb,kc,le->ijkl", M4, W, W, W, W)
    T = M4w - _gaussian_fourth(d)
    gamma = float(np.einsum("aabb->", T)) / d
    if abs(gamma) < GAMMA_IDENTIFIABILITY_FLOOR:
        warnings.warn(
            "kurtosis offset gamma_hat = %.4f is nearly zero; near-Gaussian "
            "sources are not identifiable from fourth moments" % gamma,
            RuntimeWarning,
        )
    units = decompose_orthogonal(T, d, seed=seed)
    cols = [Shalf @ u for u in units]

    score = None
    if truth_mixing is not None:
        score = _recovery_score(cols, truth_mixing)
    return IcaResult(
        columns_hat=cols,
        gamma_hat=gamma,
        recovery_score=score,
        diagnostics={"whitener_eigs": lam},
    )


def _recovery_score(cols, mixing):
    """max over pairings of min_i cos^2(A^{-1} a_hat_i, e_{pi(i)})."""
    A = np.asarray(mixing, dtype=float)
    B = np.linalg.solve(A, np.column_stack(cols))
    B = B / np.linalg.norm(B, axis=0)
    cos2 = B ** 2  # cos2[j, i]: truth column j against estimate i
    q = cos2.shape[0]
    if q > MAX_MATCHED_COMPONENTS:
        raise ValueError(
            "exhaustive matching is provided for up to "
            f"{MAX_MATCHED_COMPONENTS} components"
        )
    return max(
        min(cos2[perm[i], i] for i in range(q))
        for perm in itertools.permutations(range(q))
    )


def robust_ica(Y, config=None, truth_mixing=None):
    """Recover mixing columns from an (optionally corrupted) sample.

    The sample is symmetrized first: each row keeps or flips its sign with
    probability 1/2, which cancels whatever mean the adversary induced while
    preserving the even moments the pipeline consumes.
    """
    config = config or AppConfig()
    data = sample_array(Y)
    rng = np.random.default_rng(config.seed)
    signs = rng.choice([-1.0, 1.0], size=len(data))
    data = data * signs[:, None]
    if config.truncate:
        data = truncate_preprocess(data, config.epsilon).data
    second, fourth, n_used = _raw_24(data, config)
    res = ica_from_moments(second, fourth, truth_mixing, seed=config.seed)
    res.diagnostics.update(
        sample_size=n_used,
        moment_source=config.moment_source,
        symmetrized=True,
    )
    return res


def _raw_24(data, config):
    if config.moment_source == "empirical":
        emp = empirical_moments(data, 4)
        return emp.raw(2).as_matrix(), emp.raw(4), emp.sample_size
    est = estimate_moments(
        data, EstimatorConfig(epsilon=config.epsilon, params=config.params)
    )
    second = est.cov_matrix() + np.outer(est.mean_hat, est.mean_hat)
    return second, est.higher_hats[4], len(data)


# ---------------------------------------------------------------------------
# spherical Gaussian mixtures


def gmm_from_moments(first, second, third, q, truth_means=None, seed=0):
    """Component means of a uniform spherical mixture from raw moments."""
    m1 = np.asarray(first, dtype=float).ravel()
    d = m1.size
    if not 1 <= q <= d:
        raise ValueError("q must be between 1 and the dimension")
    if q == 1:
        means = [m1]
        return GmmResult(
            means_hat=means,
            matched_error=_matched_error(means, truth_means)
            if truth_means is not None else None,
            diagnostics={"kappa": None, "weights": [1.0]},
        )

    M2 = _matrix(second)
    M3 = _dense_tensor(third)
    S = M2 - np.eye(d)  # the mean Gram (1/q) sum mu mu^T for unit components
    lam, V = np.linalg.eigh(0.5 * (S + S.T))
    sel = np.argsort(-lam)[:q]
    top, Vq = lam[sel], V[:, sel]
    kappa = float(top.min())
    if kappa <= DEFAULT_KAPPA_MIN:
        raise WhiteningError(
            "mean Gram eigenvalue %.3e is below %.1e; the component means "
            "are not linearly independent at this sample size"
            % (kappa, DEFAULT_KAPPA_MIN)
        )
    W = (Vq * top ** -0.5) @ Vq.T
    Shalf = (Vq * top ** 0.5) @ Vq.T

    peeled = M3 - _mean_times_identity(m1)
    T = np.einsum("abc,ia,jb,kc->ijk", peeled, W, W, W)
    units = decompose_orthogonal(T, q, seed=seed)

    # per-component scalars by least squares on the rank-1 expansion
    C = np.column_stack(units)
    G = (C.T @ C) ** 3
    rhs = np.array(
        [np.einsum("abc,a,b,c->", T, c, c, c) for c in units]
    )
    weights = np.linalg.solve(G, rhs)
    means = []
    for wgt, c in zip(weights, units):
        norm = math.copysign(abs(q * wgt) ** (1.0 / 3.0), wgt)
        means.append(Shalf @ (norm * c))

    matched = None
    if truth_means is not None:
        matched = _matched_error(means, truth_means)
    return GmmResult(
        means_hat=means,
        matched_error=matched,
        diagnostics={"kappa": kappa, "weights": weights},
    )


def _matched_error(means_hat, truth):
    """min over pairings of max_i |W(mu_hat_i - mu_{pi(i)})|, W from truth."""
    M = np.asarray(truth, dtype=float)
    q = M.shape[0]
    if q > MAX_MATCHED_COMPONENTS:
        raise ValueError(
            "exhaustive matching is provided for up to "
            f"{MAX_MATCHED_COMPONENTS} components"
        )
    G = M.T @ M / q
    lam, V = np.linalg.eigh(G)
    keep = lam > 1e-12 * max(lam.max(), 1e-300)
    W = (V[:, keep] * lam[keep] ** -0.5) @ V[:, keep].T
    H = np.stack([np.asarray(m, float).ravel() for m in means_hat])
    best = math.inf
    for perm in itertools.permutations(range(q)):
        worst = max(
            float(np.linalg.norm(W @ (H[i] - M[perm[i]]))) for i in range(q)
        )
        best = min(best, worst)
    return best


def robust_gmm(Y, q, config=None, truth_means=None):
    """Recover mixture means from an (optionally corrupted) sample."""
    config = config or AppConfig()
    data = sample_array(Y)
    if config.truncate:
        data = truncate_preprocess(data, config.epsilon).data
    if config.moment_source == "empirical":
        emp = empirical_moments(data, 4)
        first, second, third = emp.mean, emp.raw(2).as_matrix(), emp.raw(3)
        n_used = emp.sample_size
    else:
        est = estimate_moments(
            data, EstimatorConfig(epsilon=config.epsilon, params=config.params)
        )
        first = est.mean_hat
        second = est.cov_matrix() + np.outer(est.mean_hat, est.mean_hat)
        third = est.higher_hats[3]
        n_used = len(data)
    res = gmm_from_moments(
        first, second, third, q,
        truth_means=truth_means,
        seed=config.seed,
    )
    res.diagnostics.update(sample_size=n_used, moment_source=config.moment_source)
    return res
