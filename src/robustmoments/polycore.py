"""Multivariate polynomial and symmetric tensor kernel.

Monomials are exponent tuples in graded-lexicographic order, polynomials are
sparse coefficient maps, and moment tensors store only their distinct
symmetric entries.  Everything downstream (constraint assembly, moment
relaxations, whitening) sits on top of these three representations.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

# Coefficients smaller than this are dropped after every arithmetic op so the
# term maps cannot accumulate numerical dust.
PRUNE_TOL = 1e-14

DEFAULT_MONOMIAL_CAP = 20_000


class MonomialCapError(ValueError):
    """Raised when a requested basis would exceed the configured size cap."""


def monomial_count(dimension, max_degree):
    return math.comb(dimension + max_degree, max_degree)


def enumerate_monomials(dimension, max_degree):
    """All exponent tuples of total degree <= max_degree, graded-lex order;
    more than DEFAULT_MONOMIAL_CAP of them raise `MonomialCapError`.

    Within each degree, monomials appear with earlier variables carrying the
    higher exponents first: (2,0) before (1,1) before (0,2).
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    total = monomial_count(dimension, max_degree)
    if total > DEFAULT_MONOMIAL_CAP:
        raise MonomialCapError(
            f"monomial basis of size {total} exceeds cap {DEFAULT_MONOMIAL_CAP} "
            f"(d={dimension}, degree={max_degree})"
        )
    out = []
    for degree in range(max_degree + 1):
        out.extend(monomials_of_degree(dimension, degree))
    return out


def monomials_of_degree(dimension, degree):
    """All exponent tuples of total degree exactly `degree`, in the order
    `enumerate_monomials` lists them."""
    out = []
    for combo in combinations_with_replacement(range(dimension), degree):
        exps = [0] * dimension
        for var in combo:
            exps[var] += 1
        out.append(tuple(exps))
    return out


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def multinomial(counts):
    """Number of distinct orderings of a multiset with the given counts."""
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


class Polynomial:
    """Sparse multivariate polynomial over a fixed number of variables.

    Terms map exponent tuples to float coefficients.  Instances are treated
    as immutable; arithmetic returns new objects with near-zero coefficients
    pruned.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension, terms=None):
        self.dimension = int(dimension)
        clean = {}
        if terms:
            for mono, coef in terms.items():
                if len(mono) != self.dimension:
                    raise ValueError("monomial length does not match dimension")
                coef = float(coef)
                if abs(coef) > PRUNE_TOL:
                    clean[tuple(mono)] = clean.get(tuple(mono), 0.0) + coef
        self.terms = clean

    @classmethod
    def constant(cls, dimension, value):
        if abs(value) <= PRUNE_TOL:
            return cls(dimension, {})
        return cls(dimension, {(0,) * dimension: float(value)})

    @classmethod
    def variable(cls, dimension, index):
        exps = [0] * dimension
        exps[index] = 1
        return cls(dimension, {tuple(exps): 1.0})

    def degree(self):
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), 0.0)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            terms[mono] = terms.get(mono, 0.0) + coef
        return Polynomial(self.dimension, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(self._coerce(other) * -1.0)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return self * -1.0

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Polynomial(
                self.dimension,
                {m: c * float(other) for m, c in self.terms.items()},
            )
        other = self._coerce(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = monomial_mul(m1, m2)
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return Polynomial(self.dimension, terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative powers unsupported")
        out = Polynomial.constant(self.dimension, 1.0)
        base = self
        e = int(exponent)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def evaluate(self, point):
        point = np.asarray(point, dtype=float)
        total = 0.0
        for mono, coef in self.terms.items():
            val = coef
            for var, exp in enumerate(mono):
                if exp:
                    val *= point[var] ** exp
            total += val
        return total

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.dimension != self.dimension:
                raise ValueError("dimension mismatch")
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Polynomial.constant(self.dimension, float(other))
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), tuple(-e for e in m))):
            parts.append(f"{self.terms[mono]:+.6g}*x^{mono}")
        return "Polynomial(" + " ".join(parts) + ")"


def distinct_indices(dimension, order):
    """Sorted index tuples (i1 <= ... <= i_order); one per symmetric entry."""
    return list(combinations_with_replacement(range(dimension), order))


def index_multiplicity(idx):
    """Number of distinct axis permutations of a sorted index tuple."""
    counts = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    return multinomial(list(counts.values()))


class SymmetricTensor:
    """Symmetric tensor of a fixed order storing only distinct entries.

    Entry lookup sorts the index tuple, so reads are permutation-invariant by
    construction.  Contraction against u^{⊗r} applies the multinomial
    multiplicity of each distinct entry.
    """

    __slots__ = ("dimension", "order", "_index", "values")

    def __init__(self, dimension, order, values=None):
        self.dimension = int(dimension)
        self.order = int(order)
        idx = distinct_indices(self.dimension, self.order)
        self._index = {t: k for k, t in enumerate(idx)}
        if values is None:
            self.values = np.zeros(len(idx))
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != (len(idx),):
                raise ValueError("wrong number of distinct entries")
            self.values = values.copy()

    @classmethod
    def from_dense(cls, array):
        array = np.asarray(array, dtype=float)
        order = array.ndim
        dimension = array.shape[0]
        if any(s != dimension for s in array.shape):
            raise ValueError("dense tensor must be hypercubic")
        out = cls(dimension, order)
        for idx in distinct_indices(dimension, order):
            vals = [array[p] for p in _axis_permutations(idx)]
            out.values[out._index[idx]] = float(np.mean(vals))
        return out

    def get(self, idx):
        return float(self.values[self._index[tuple(sorted(idx))]])

    def indices(self):
        return list(self._index.keys())

    def to_dense(self):
        out = np.zeros((self.dimension,) * self.order)
        for idx, k in self._index.items():
            val = self.values[k]
            for perm in _axis_permutations(idx):
                out[perm] = val
        return out

    def contract(self, u):
        """<T, u^{⊗r}> via distinct entries and multiplicities."""
        u = np.asarray(u, dtype=float)
        total = 0.0
        for idx, k in self._index.items():
            term = self.values[k] * index_multiplicity(idx)
            for i in idx:
                term *= u[i]
            total += term
        return total

    def scale(self, factor):
        return SymmetricTensor(self.dimension, self.order, self.values * float(factor))

    def add(self, other):
        self._check_shape(other)
        return SymmetricTensor(self.dimension, self.order, self.values + other.values)

    def sub(self, other):
        self._check_shape(other)
        return SymmetricTensor(self.dimension, self.order, self.values - other.values)

    def as_matrix(self):
        if self.order != 2:
            raise ValueError("as_matrix requires order 2")
        return self.to_dense()

    def max_abs_diff(self, other):
        self._check_shape(other)
        return float(np.max(np.abs(self.values - other.values))) if len(self.values) else 0.0

    def _check_shape(self, other):
        if other.dimension != self.dimension or other.order != self.order:
            raise ValueError("tensor shape mismatch")

    def __repr__(self):
        return f"SymmetricTensor(d={self.dimension}, order={self.order})"


def _axis_permutations(idx):
    """All distinct orderings of an index tuple."""
    from itertools import permutations

    return set(permutations(idx))


class EmpiricalMoments:
    """Mean, covariance, and raw moment tensors of a sample."""

    __slots__ = ("sample_size", "dimension", "max_order", "mean", "raw_moments", "covariance")

    def __init__(self, sample_size, dimension, max_order, mean, raw_moments, covariance):
        self.sample_size = sample_size
        self.dimension = dimension
        self.max_order = max_order
        self.mean = mean
        self.raw_moments = raw_moments
        self.covariance = covariance

    def raw(self, order):
        return self.raw_moments[order - 1]


def empirical_moments(sample, k):
    """Raw moment tensors (1/n) Σ x_i^{⊗r} for r = 1..k, plus mean and covariance."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim == 1:
        sample = sample[:, None]
    if sample.ndim != 2 or sample.shape[0] < 1:
        raise ValueError("sample must be a nonempty n x d matrix")
    if not np.all(np.isfinite(sample)):
        raise ValueError("sample contains non-finite entries")
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be even and >= 2")
    n, d = sample.shape
    # fsum keeps every accumulation exactly rounded, so the result cannot
    # depend on row order.
    mean = np.array([math.fsum(sample[:, j]) / n for j in range(d)])
    raw = []
    for order in range(1, k + 1):
        tensor = SymmetricTensor(d, order)
        for pos, idx in enumerate(tensor.indices()):
            prod = np.ones(n)
            for i in idx:
                prod = prod * sample[:, i]
            tensor.values[pos] = math.fsum(prod) / n
        raw.append(tensor)
    m2 = raw[1].as_matrix()
    cov = SymmetricTensor.from_dense(m2 - np.outer(mean, mean))
    return EmpiricalMoments(n, d, k, mean, raw, cov)
