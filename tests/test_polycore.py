import itertools
import math

import numpy as np
import pytest

from robustmoments.polycore import (
    EmpiricalMoments,
    MonomialCapError,
    Polynomial,
    SymmetricTensor,
    empirical_moments,
    enumerate_monomials,
    monomial_count,
)


# --- oracles -----------------------------------------------------------------

def brute_force_monomial_count(d, t):
    """Count exponent tuples with sum <= t by direct enumeration."""
    return sum(
        1
        for exps in itertools.product(range(t + 1), repeat=d)
        if sum(exps) <= t
    )


def brute_force_form(tensor, u):
    """<T, u^{⊗r}> as a full nested-index sum over the dense tensor."""
    dense = tensor.to_dense()
    total = 0.0
    for idx in itertools.product(range(tensor.dimension), repeat=tensor.order):
        term = dense[idx]
        for i in idx:
            term *= u[i]
        total += term
    return total


# Frozen from brute_force_monomial_count(3, 4) == C(7,4):
MONOMIAL_COUNT_3_4 = 35


# --- monomials ---------------------------------------------------------------

def test_univariate_basis():
    assert enumerate_monomials(1, 2) == [(0,), (1,), (2,)]


def test_bivariate_degree2_count():
    assert len(enumerate_monomials(2, 2)) == 6


def test_count_matches_bruteforce_and_frozen_value():
    assert brute_force_monomial_count(3, 4) == MONOMIAL_COUNT_3_4
    assert len(enumerate_monomials(3, 4)) == MONOMIAL_COUNT_3_4
    assert monomial_count(3, 4) == MONOMIAL_COUNT_3_4


@pytest.mark.parametrize("d,t", [(1, 5), (2, 4), (4, 3)])
def test_counts_and_uniqueness(d, t):
    monos = enumerate_monomials(d, t)
    assert len(monos) == math.comb(d + t, t)
    assert len(set(monos)) == len(monos)
    assert brute_force_monomial_count(d, t) == len(monos)


def test_graded_lex_order():
    monos = enumerate_monomials(2, 2)
    assert monos == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    degrees = [sum(m) for m in monos]
    assert degrees == sorted(degrees)


def test_cap_triggers():
    with pytest.raises(MonomialCapError):
        enumerate_monomials(10, 10)


# --- polynomial arithmetic ---------------------------------------------------

def test_polynomial_basic_ops():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) ** 2
    assert p.coefficient((2, 0)) == pytest.approx(1.0)
    assert p.coefficient((1, 1)) == pytest.approx(2.0)
    assert p.coefficient((0, 2)) == pytest.approx(1.0)
    q = p - x * x - 2 * x * y - y * y
    assert q.terms == {}


def test_polynomial_evaluate_matches_expansion():
    rng = np.random.default_rng(7)
    x = Polynomial.variable(3, 0)
    y = Polynomial.variable(3, 1)
    z = Polynomial.variable(3, 2)
    p = (x * y - 2.5 * z) ** 3 + 0.5 * x - 1.0
    for _ in range(20):
        pt = rng.normal(size=3)
        direct = (pt[0] * pt[1] - 2.5 * pt[2]) ** 3 + 0.5 * pt[0] - 1.0
        assert p.evaluate(pt) == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_polynomial_prunes_cancellations():
    x = Polynomial.variable(1, 0)
    p = x * x - x * x
    assert p.terms == {}
    assert p.degree() == 0


def test_polynomial_commutativity_randomized():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = _random_poly(rng, dim=2, degree=3)
        b = _random_poly(rng, dim=2, degree=3)
        ab = a * b
        ba = b * a
        keys = set(ab.terms) | set(ba.terms)
        for key in keys:
            assert ab.coefficient(key) == pytest.approx(ba.coefficient(key), abs=1e-12)


def _random_poly(rng, dim, degree):
    terms = {}
    for mono in enumerate_monomials(dim, degree):
        if rng.random() < 0.5:
            terms[mono] = float(rng.normal())
    return Polynomial(dim, terms)


# --- symmetric tensors -------------------------------------------------------

def test_entry_permutation_invariance():
    t = SymmetricTensor(3, 3)
    t.values[t.indices().index((0, 1, 2))] = 5.0
    t.values[t.indices().index((0, 0, 1))] = -2.0
    assert t.get((2, 0, 1)) == 5.0
    assert t.get((1, 2, 0)) == 5.0
    assert t.get((1, 0, 0)) == -2.0


def test_contract_matches_bruteforce():
    rng = np.random.default_rng(11)
    for d, r in [(2, 4), (3, 3), (4, 2)]:
        t = SymmetricTensor(d, r, rng.normal(size=monomial_count(d - 1 + 1, r) if False else len(SymmetricTensor(d, r).values)))
        for _ in range(100):
            u = rng.normal(size=d)
            fast = t.contract(u)
            slow = brute_force_form(t, u)
            assert fast == pytest.approx(slow, rel=1e-8, abs=1e-8)


def test_dense_roundtrip():
    rng = np.random.default_rng(9)
    t = SymmetricTensor(3, 3, rng.normal(size=len(SymmetricTensor(3, 3).values)))
    t2 = SymmetricTensor.from_dense(t.to_dense())
    assert t.max_abs_diff(t2) < 1e-12


# --- empirical moments -------------------------------------------------------

def test_two_symmetric_points():
    em = empirical_moments(np.array([[1.0, 0.0], [-1.0, 0.0]]), k=2)
    assert np.allclose(em.mean, [0.0, 0.0])
    assert np.allclose(em.raw(2).as_matrix(), np.diag([1.0, 0.0]))


def test_hand_summed_scalar_moments():
    # mean = (2+4+6)/3 = 4, second raw moment = (4+16+36)/3 = 56/3
    em = empirical_moments(np.array([[2.0], [4.0], [6.0]]), k=2)
    assert em.mean[0] == pytest.approx(4.0)
    assert em.raw(2).get((0, 0)) == pytest.approx(56.0 / 3.0)
    assert em.covariance.get((0, 0)) == pytest.approx(56.0 / 3.0 - 16.0)


def test_gaussian_fourth_moment_large_sample():
    rng = np.random.default_rng(123)
    sample = rng.normal(size=(1_000_000, 1))
    em = empirical_moments(sample, k=4)
    assert em.raw(4).get((0, 0, 0, 0)) == pytest.approx(3.0, abs=0.05)


def test_covariance_identity_and_psd():
    rng = np.random.default_rng(5)
    sample = rng.normal(size=(40, 3)) @ np.diag([1.0, 2.0, 0.5]) + rng.normal(size=3)
    em = empirical_moments(sample, k=4)
    recon = em.raw(2).as_matrix() - np.outer(em.mean, em.mean)
    assert np.max(np.abs(recon - em.covariance.as_matrix())) < 1e-10
    assert np.linalg.eigvalsh(em.covariance.as_matrix()).min() >= -1e-8


def test_row_permutation_invariance():
    rng = np.random.default_rng(6)
    sample = rng.normal(size=(15, 2))
    em1 = empirical_moments(sample, k=4)
    em2 = empirical_moments(sample[::-1], k=4)
    for r in range(1, 5):
        assert em1.raw(r).max_abs_diff(em2.raw(r)) == 0.0


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        empirical_moments(np.array([[np.nan], [1.0]]), k=2)
