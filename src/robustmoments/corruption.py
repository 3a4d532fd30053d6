"""Sample generators, corruption adversaries, and matched lower-bound pairs.

Corruption replaces exactly floor(eps*n) rows, chosen uniformly at random,
and records the replacement mask together with the pre-corruption sample, so
estimator tests can compare against ground truth row by row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SCALAR_LAWS = ("gaussian", "rademacher", "uniform")

# excess kurtosis E s^4 - 3 for the unit-variance scalar laws
LAW_GAMMA = {"gaussian": 0.0, "rademacher": -2.0, "uniform": -1.2}

FAMILIES = (
    "Gaussian",
    "ProductSubgaussian",
    "GaussianMixture",
    "IcaModel",
    "LowerBound71",
    "LowerBound72",
    "CovInflate",
)


def _gauss_raw_moment(j):
    """E g^j for g ~ N(0,1): zero for odd j, (j-1)!! for even j."""
    if j % 2 == 1:
        return 0.0
    out = 1.0
    for m in range(j - 1, 0, -2):
        out *= m
    return out


def _odd_double_factorial(m):
    out = 1.0
    for v in range(m, 0, -2):
        out *= v
    return out


class ModelSpec:
    """A clean-data law: family name plus family-specific parameters."""

    def __init__(self, family, seed=0, **params):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.seed = int(seed)
        self.params = params
        self._validate()

    def _validate(self):
        p = self.params
        fam = self.family
        if fam == "Gaussian":
            mean = np.asarray(p["mean"], dtype=float)
            cov = np.asarray(p["cov"], dtype=float)
            if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
                raise ValueError("Gaussian needs mean (d,) and cov (d, d)")
            if not np.allclose(cov, cov.T):
                raise ValueError("covariance must be symmetric")
            if np.linalg.eigvalsh(cov).min() < -1e-10:
                raise ValueError("covariance must be positive semidefinite")
            p["mean"], p["cov"] = mean, cov
        elif fam == "ProductSubgaussian":
            laws = list(p["laws"])
            for law in laws:
                if law not in SCALAR_LAWS:
                    raise ValueError(f"unknown scalar law {law!r}")
            p["laws"] = laws
        elif fam == "GaussianMixture":
            means = np.asarray(p["means"], dtype=float)
            if means.ndim != 2:
                raise ValueError("means must be a q x d matrix")
            p["means"] = means
            p["q"] = means.shape[0]
        elif fam == "IcaModel":
            A = np.asarray(p["A"], dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValueError("mixing matrix must be square")
            law = p.get("source", "rademacher")
            if law not in SCALAR_LAWS:
                raise ValueError(f"unknown source law {law!r}")
            kappa = float(np.linalg.cond(A))
            if not math.isfinite(kappa):
                raise ValueError("mixing matrix must be invertible")
            p["A"] = A
            p["source"] = law
            p["kappa"] = kappa
            p["gamma"] = LAW_GAMMA[law]
        elif fam in ("LowerBound71", "LowerBound72"):
            k, eps = int(p["k"]), float(p["epsilon"])
            if k < 2 or k % 2 != 0:
                raise ValueError("k must be even and >= 2")
            if not 0 <= eps < 1:
                raise ValueError("epsilon must lie in [0, 1)")
            member = int(p.get("member", 2))
            if member not in (1, 2):
                raise ValueError("member must be 1 or 2")
            p.update(k=k, epsilon=eps, member=member)
        elif fam == "CovInflate":
            k, eps = int(p["k"]), float(p["epsilon"])
            if k < 2 or k % 2 != 0:
                raise ValueError("k must be even and >= 2")
            if not 0 < eps < 1:
                raise ValueError("epsilon must lie in (0, 1)")
            p.update(k=k, epsilon=eps, dimension=int(p.get("dimension", 1)))

    @property
    def dimension(self):
        p = self.params
        return {
            "Gaussian": lambda: p["mean"].size,
            "ProductSubgaussian": lambda: len(p["laws"]),
            "GaussianMixture": lambda: p["means"].shape[1],
            "IcaModel": lambda: p["A"].shape[0],
            "LowerBound71": lambda: 1,
            "LowerBound72": lambda: 1,
            "CovInflate": lambda: p["dimension"],
        }[self.family]()

    def to_json(self):
        def clean(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            return v

        payload = {"family": self.family, "seed": self.seed}
        payload.update({key: clean(v) for key, v in self.params.items()})
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        family = payload.pop("family")
        seed = payload.pop("seed", 0)
        return cls(family, seed=seed, **payload)


def _sample_scalar_law(law, size, rng):
    if law == "gaussian":
        return rng.normal(size=size)
    if law == "rademacher":
        return rng.choice([-1.0, 1.0], size=size)
    # uniform on [-sqrt(3), sqrt(3)]: unit variance
    return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=size)


def _spike_location(k, eps):
    return math.sqrt(k) * eps ** (-1.0 / k)


def _sample_family(spec, n, rng):
    p = spec.params
    fam = spec.family
    if fam == "Gaussian":
        w, V = np.linalg.eigh(p["cov"])
        root = V * np.sqrt(np.clip(w, 0.0, None))
        return p["mean"] + rng.normal(size=(n, p["mean"].size)) @ root.T
    if fam == "ProductSubgaussian":
        cols = [_sample_scalar_law(law, n, rng) for law in p["laws"]]
        return np.column_stack(cols)
    if fam == "GaussianMixture":
        means = p["means"]
        comps = rng.integers(0, means.shape[0], size=n)
        return means[comps] + rng.normal(size=(n, means.shape[1]))
    if fam == "IcaModel":
        d = spec.dimension
        sources = _sample_scalar_law(p["source"], (n, d), rng)
        return sources @ p["A"].T
    if fam in ("LowerBound71", "LowerBound72"):
        k, eps, member = p["k"], p["epsilon"], p["member"]
        out = rng.normal(size=n)
        if member == 2 and eps > 0:
            spike = _spike_location(k, eps)
            hit = rng.uniform(size=n) < eps
            if fam == "LowerBound71":
                out[hit] = spike
            else:
                signs = rng.choice([-1.0, 1.0], size=int(hit.sum()))
                out[hit] = signs * spike
        return out[:, None]
    if fam == "CovInflate":
        k, eps, d = p["k"], p["epsilon"], p["dimension"]
        out = rng.normal(size=(n, d))
        hit = rng.uniform(size=n) < eps
        out[hit] *= eps ** (-1.0 / k)
        return out
    raise AssertionError(fam)


def sample_clean(spec, n):
    """n i.i.d. rows of the spec's law, reproducible from spec.seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _sample_family(spec, n, np.random.default_rng(spec.seed))


def population_moments(spec, max_order):
    """Raw scalar moments E x, ..., E x^max_order for one-dimensional laws."""
    p = spec.params
    fam = spec.family
    if spec.dimension != 1:
        raise ValueError("population moments are provided for scalar laws only")
    if fam == "Gaussian":
        mu = float(p["mean"][0])
        var = float(p["cov"][0, 0])
        sd = math.sqrt(var)
        out = []
        for j in range(1, max_order + 1):
            out.append(
                math.fsum(
                    math.comb(j, i) * _gauss_raw_moment(i) * sd ** i
                    * mu ** (j - i)
                    for i in range(j + 1)
                )
            )
        return out
    if fam in ("LowerBound71", "LowerBound72"):
        k, eps, member = p["k"], p["epsilon"], p["member"]
        if member == 1 or eps == 0:
            return [_gauss_raw_moment(j) for j in range(1, max_order + 1)]
        spike = _spike_location(k, eps)
        out = []
        for j in range(1, max_order + 1):
            spike_term = spike ** j
            if fam == "LowerBound72" and j % 2 == 1:
                spike_term = 0.0
            out.append((1 - eps) * _gauss_raw_moment(j) + eps * spike_term)
        return out
    if fam == "CovInflate":
        k, eps = p["k"], p["epsilon"]
        out = []
        for j in range(1, max_order + 1):
            scale = eps ** (-j / k)  # sigma^j with sigma^2 = eps^{-2/k}
            out.append(_gauss_raw_moment(j) * ((1 - eps) + eps * scale))
        return out
    raise ValueError(f"no closed-form moments for family {fam!r}")


def population_profile(spec, max_order):
    """Package a scalar law's closed-form moments as an EmpiricalMoments record.

    sample_size is 0: the profile describes the law itself, not a sample.
    """
    from .polycore import EmpiricalMoments, SymmetricTensor

    raw = population_moments(spec, max_order)
    tensors = [
        SymmetricTensor(1, order, [raw[order - 1]])
        for order in range(1, max_order + 1)
    ]
    cov = SymmetricTensor(1, 2, [raw[1] - raw[0] ** 2])
    return EmpiricalMoments(
        sample_size=0,
        dimension=1,
        max_order=max_order,
        mean=np.array([raw[0]]),
        raw_moments=tensors,
        covariance=cov,
    )


# ---------------------------------------------------------------------------
# corruption


@dataclass
class CorruptedSample:
    data: np.ndarray
    corrupted_mask: np.ndarray
    epsilon: float
    clean_reference: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.corrupted_mask = np.asarray(self.corrupted_mask, dtype=bool)
        n = self.data.shape[0]
        if self.corrupted_mask.shape != (n,):
            raise ValueError("mask length must match the number of rows")
        if self.corrupted_mask.sum() > math.ceil(self.epsilon * n) + 1e-9:
            raise ValueError("more corrupted rows than epsilon allows")
        if self.clean_reference is not None:
            ref = np.asarray(self.clean_reference, dtype=float)
            if ref.shape != self.data.shape:
                raise ValueError("clean reference shape mismatch")
            keep = ~self.corrupted_mask
            if not np.array_equal(self.data[keep], ref[keep]):
                raise ValueError("uncorrupted rows must match the reference")
            self.clean_reference = ref

    @property
    def sample_size(self):
        return self.data.shape[0]

    @property
    def dimension(self):
        return self.data.shape[1]


def sample_array(Y):
    """The rows of a sample as a float array: a CorruptedSample's data, or an
    array-like, with 1-D input read as a single column."""
    data = Y.data if isinstance(Y, CorruptedSample) else np.asarray(Y, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    return data


@dataclass(frozen=True)
class PointMass:
    location: object  # scalar or length-d vector


@dataclass(frozen=True)
class SymmetricPointMass:
    location: object


@dataclass(frozen=True)
class MeanShiftCluster:
    shift: object
    spread: float = 0.1


@dataclass(frozen=True)
class CovInflate:
    scale: float


@dataclass(frozen=True)
class ReplaceWithSpec:
    spec: ModelSpec


def _as_row(value, d):
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.size == 1:
        arr = np.full(d, arr[0]) if d > 1 else arr
    if arr.size != d:
        raise ValueError(f"location has size {arr.size}, expected {d}")
    return arr


def corrupt(clean, adversary, epsilon, seed=0):
    """Replace exactly floor(epsilon * n) uniformly chosen rows."""
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    clean = np.asarray(clean, dtype=float)
    if clean.ndim == 1:
        clean = clean[:, None]
    n, d = clean.shape
    m = int(epsilon * n)
    data = clean.copy()
    mask = np.zeros(n, dtype=bool)
    if m > 0:
        rng = np.random.default_rng(seed)
        rows = rng.choice(n, size=m, replace=False)
        mask[rows] = True
        if isinstance(adversary, PointMass):
            data[rows] = _as_row(adversary.location, d)
        elif isinstance(adversary, SymmetricPointMass):
            loc = _as_row(adversary.location, d)
            signs = rng.choice([-1.0, 1.0], size=m)
            data[rows] = signs[:, None] * loc
        elif isinstance(adversary, MeanShiftCluster):
            shift = _as_row(adversary.shift, d)
            data[rows] = shift + adversary.spread * rng.normal(size=(m, d))
        elif isinstance(adversary, CovInflate):
            data[rows] = adversary.scale * rng.normal(size=(m, d))
        elif isinstance(adversary, ReplaceWithSpec):
            if adversary.spec.dimension != d:
                raise ValueError("replacement spec dimension mismatch")
            data[rows] = _sample_family(adversary.spec, m, rng)
        else:
            raise ValueError(f"unknown adversary {adversary!r}")
    return CorruptedSample(
        data=data, corrupted_mask=mask, epsilon=m / n, clean_reference=clean
    )


# ---------------------------------------------------------------------------
# lower-bound arithmetic


LOWER_BOUND_KINDS = ("Mean71", "Variance72", "HigherMoment72")


def lower_bound_gap(kind, k, epsilon, r=None):
    """Exact moment gap between the paired scalar laws of the constructions.

    Mean71: mean gap sqrt(k) eps^{1-1/k}.  Variance72: variance gap
    k eps^{1-2/k} - eps (valid for eps < 1/2).  HigherMoment72 with order 2r:
    k^r eps^{1-2r/k} - eps (2r-1)!! (valid for eps < 2^{-k/(2r)}).
    """
    if kind not in LOWER_BOUND_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be even and >= 2")
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    if epsilon == 0:
        return 0.0
    if kind == "Mean71":
        return math.sqrt(k) * epsilon ** (1.0 - 1.0 / k)
    if kind == "Variance72":
        if epsilon >= 0.5:
            raise ValueError("Variance72 requires epsilon < 1/2")
        return k * epsilon ** (1.0 - 2.0 / k) - epsilon
    if r is None or int(r) != r or r < 1:
        raise ValueError("HigherMoment72 needs an integer order parameter r >= 1")
    r = int(r)
    if 2 * r > k:
        raise ValueError("HigherMoment72 needs 2r <= k")
    if epsilon >= 2.0 ** (-k / (2.0 * r)):
        raise ValueError("HigherMoment72 requires epsilon < 2^{-k/(2r)}")
    return (
        float(k) ** r * epsilon ** (1.0 - 2.0 * r / k)
        - epsilon * _odd_double_factorial(2 * r - 1)
    )


def lower_bound_pair(kind, k, epsilon, seed=0):
    """The (D1, D2) specs whose moment gap lower_bound_gap predicts."""
    family = "LowerBound71" if kind == "Mean71" else "LowerBound72"
    if kind not in LOWER_BOUND_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    one = ModelSpec(family, seed=seed, k=k, epsilon=epsilon, member=1)
    two = ModelSpec(family, seed=seed + 1, k=k, epsilon=epsilon, member=2)
    return one, two
