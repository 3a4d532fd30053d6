"""Certification of directional moment growth for empirical distributions.

A sample is certified with parameter C at order 2k' when the centered
directional moment E <x-mu, u>^{2k'} is bounded by (C k' E <x-mu, u>^2)^{k'}
for every unit u, witnessed by a sphere-form SOS certificate.  The decision
is made by maximizing the uniform slack t in

    target(u) - t (1 + |u|^2)^{l/2}  =  q(u) (|u|^2 - 1) + b(u)^T G b(u) ;

t >= 0 yields a certificate, t < 0 quantifies the deficit.  Orders 2..k/2 are
checked (for k=2, the single order-1 inequality); the order-1 inequality for
k >= 4 reduces to C >= 1 and carries no higher-moment information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polycore import Polynomial, empirical_moments, enumerate_monomials, multinomial
from .sosengine import (
    SosCertificate,
    find_sos_combination,
    sphere_polynomial,
    tensor_form,
    verify_certificate,
)

BUNDLE_TOLERANCE = 1e-7
MARGIN_DECISION_TOL = 1e-8


@dataclass(frozen=True)
class SubgaussParams:
    C: float
    k: int
    ell: int | None = None

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError("k must be even and >= 2")
        if self.ell is not None:
            if self.ell % 2 != 0 or self.ell < self.k:
                raise ValueError("certificate degree must be even and >= k")

    @property
    def effective_ell(self):
        return self.k if self.ell is None else self.ell


def certification_orders(k):
    if k == 2:
        return [1]
    return list(range(2, k // 2 + 1))


@dataclass
class SubgaussCertificateBundle:
    """Sphere certificates per order.

    From `certify` they are in whitened span coordinates, where the sample
    has identity covariance: a direction u corresponds to span.T @ u (the
    inequality is invariant under invertible linear maps of the sample).
    From `certify_from_moments` they are in the raw scalar coordinate.
    """

    certificates: dict
    mean: np.ndarray
    span: np.ndarray

    def verify(self, tolerance=BUNDLE_TOLERANCE):
        return all(
            verify_certificate(cert, tolerance=tolerance).valid
            for cert in self.certificates.values()
        )


@dataclass
class CertifyResult:
    status: str  # Certified | NotCertifiable | SolverStalled
    bundle: SubgaussCertificateBundle | None = None
    failed_order: int | None = None
    residual: float | None = None
    margins: dict = field(default_factory=dict)
    detail: str = ""

    @property
    def certified(self):
        return self.status == "Certified"


_SPAN_TOL = 1e-10  # singular values up to this share of max(largest, 1) leave the span


def _span_projection(centered):
    """Whitened coordinates of the sample span (identity covariance) and the
    map `span` with <centered row, u> = <coordinates, span.T @ u>."""
    U, svals, Vt = np.linalg.svd(centered, full_matrices=False)
    top = svals[0] if svals.size else 0.0
    keep = svals > _SPAN_TOL * max(top, 1.0)
    root_n = math.sqrt(centered.shape[0])
    return root_n * U[:, keep], Vt[keep].T * (svals[keep] / root_n)


def _expansion_diagonal(d, half_degree):
    """The diagonal Gram matrix D with b^T D b = (1 + |u|^2)^m over the basis
    b = enumerate_monomials(d, m): the multinomial count of each square."""
    return np.diag([float(math.comb(half_degree, sum(mono)) * multinomial(mono))
                    for mono in enumerate_monomials(d, half_degree)])


class _OrderData:
    """Per-order polynomial pieces: V^{k'} and the moment form M_{2k'}."""

    def __init__(self, kp, variance_power, moment_poly):
        self.kp = kp
        self.variance_power = variance_power
        self.moment_poly = moment_poly

    def target(self, C):
        return float((C * self.kp) ** self.kp) * self.variance_power - self.moment_poly


class _PreparedSample:
    """The sample in whitened span coordinates, where V = |u|^2 up to
    rounding: the SDPs stay well conditioned even when the raw V^{k'} is
    nearly rank-one."""

    def __init__(self, sample, k):
        X = np.asarray(sample, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        self.mean = X.mean(axis=0)
        coords, self.span = _span_projection(X - self.mean)
        self.rank = coords.shape[1]
        self.orders = certification_orders(k)
        self.order_data = []
        if self.rank == 0:
            return
        moments = empirical_moments(coords, 2 * max(self.orders))
        variance_poly = tensor_form(moments.raw(2))
        for kp in self.orders:
            self.order_data.append(
                _OrderData(kp, variance_poly ** kp, tensor_form(moments.raw(2 * kp)))
            )


def _order_certificate(target, margin, ell, margin_gram=None):
    """Maximize t in target - t margin = q (|u|^2 - 1) + b^T G b (one SDP),
    then build and verify the certificate at BUNDLE_TOLERANCE: the gate is
    the check, not the solver status.  Given `margin_gram` (the Gram matrix
    D of margin = b^T D b over the search's basis) it certifies `target`,
    a slack t >= 0 folded into the Gram as G + t D; otherwise target -
    t margin.  Returns (result, certificate, check), the last two None when
    the solve gives no margin value.
    """
    d = target.dimension
    one, sphere = Polynomial.constant(d, 1.0), sphere_polynomial(d)
    res = find_sos_combination(target, sos_premises=[one], equality_premises=[sphere],
                               degree=ell, margin=margin)
    t = res.margin_value
    if t is None:
        return res, None, None
    (basis, G), = res.grams
    if margin_gram is None:
        base = target - t * margin
    else:
        base, G = target, G + max(t, 0.0) * margin_gram
    cert = SosCertificate(d, base, [(one, basis, G)], [(sphere, res.free_polys[0])])
    return res, cert, verify_certificate(cert, tolerance=BUNDLE_TOLERANCE)


def _certify_prepared(prep, params):
    if prep.rank == 0:
        # all points coincide: every centered moment vanishes
        bundle = SubgaussCertificateBundle({}, prep.mean, prep.span)
        return CertifyResult(status="Certified", bundle=bundle)
    ell = params.effective_ell
    margin = (sphere_polynomial(prep.rank) + 2.0) ** (ell // 2)  # (1+|u|^2)^{l/2}
    margin_gram = _expansion_diagonal(prep.rank, ell // 2)
    certificates = {}
    margins = {}
    for data in prep.order_data:
        res, cert, check = _order_certificate(
            data.target(params.C), margin, ell, margin_gram
        )
        if res.status == "Infeasible":
            return CertifyResult(
                status="SolverStalled", margins=margins,
                detail=f"order {2 * data.kp}: margin search reported "
                       f"infeasible ({res.detail})",
            )
        approx = res.status == "MaxIterations"
        t = res.margin_value
        margins[data.kp] = t
        if t < -MARGIN_DECISION_TOL:
            # a soundly negative slack; on a stalled solve it is approximate
            # but the assembled-certificate gate below never fires for it
            return CertifyResult(
                status="NotCertifiable", failed_order=data.kp, residual=-t,
                margins=margins,
                detail="slack from a stalled solve" if approx else "",
            )
        if not check.valid:
            return CertifyResult(
                status="SolverStalled", margins=margins,
                detail=f"order {2 * data.kp}: assembled certificate failed "
                       f"verification ({check.detail})"
                       + ("; solver hit its iteration limit" if approx else ""),
            )
        certificates[data.kp] = cert
    bundle = SubgaussCertificateBundle(certificates, prep.mean, prep.span)
    return CertifyResult(status="Certified", bundle=bundle, margins=margins)


def certify(sample, params):
    """Decide certifiable subgaussianity of the empirical distribution of the
    rows of `sample`; rank-deficient samples are projected onto their span."""
    prep = _PreparedSample(sample, params.k)
    return _certify_prepared(prep, params)


def _centered_scalar_moments(raw_moments, k):
    """Centered moments up to order k from raw scalar moments [E x, ..., E x^k]."""
    if len(raw_moments) < k:
        raise ValueError(f"need raw moments up to order {k}")
    raw = [1.0] + [float(m) for m in raw_moments]
    mu = raw[1]
    centered = [1.0]
    for j in range(1, k + 1):
        centered.append(
            math.fsum(
                math.comb(j, i) * raw[i] * (-mu) ** (j - i) for i in range(j + 1)
            )
        )
    return centered


def certify_from_moments(raw_moments, params):
    """Population-moment entry point (scalar laws).

    `raw_moments` lists E x, E x^2, ..., E x^k.  The directional inequality
    collapses to the exact scalar comparison m_{2k'} <= (C k' m_2)^{k'}, and
    the certificate is the 1 x 1 Gram matrix [[gap]] over the basis u^{k'}.
    """
    k = params.k
    centered = _centered_scalar_moments(raw_moments, k)
    variance = centered[2]
    if variance < 0:
        raise ValueError("raw moments are inconsistent (negative variance)")
    u = Polynomial.variable(1, 0)
    certificates = {}
    margins = {}
    for kp in certification_orders(k):
        bound = (params.C * kp * variance) ** kp
        gap = bound - centered[2 * kp]
        # target = gap * u^{2k'} on the sphere {u^2 = 1}; slack normalized to
        # match the SDP path's (1 + |u|^2)^{l/2} margin scaling
        margins[kp] = gap / 2.0 ** (params.effective_ell // 2)
        if gap < -MARGIN_DECISION_TOL:
            return CertifyResult(
                status="NotCertifiable", failed_order=kp, residual=-margins[kp],
                margins=margins,
            )
        certificates[kp] = SosCertificate(1, gap * u ** (2 * kp), [
            (Polynomial.constant(1, 1.0), [(kp,)], np.array([[max(gap, 0.0)]])),
        ])
    bundle = SubgaussCertificateBundle(
        certificates, np.array([float(raw_moments[0])]), np.array([[1.0]])
    )
    return CertifyResult(status="Certified", bundle=bundle, margins=margins)


def minimal_C_from_moments(raw_moments, k):
    """Exact smallest certifiable C for a scalar law given raw moments."""
    centered = _centered_scalar_moments(raw_moments, k)
    variance = centered[2]
    if variance <= 0:
        raise ValueError("degenerate law: zero variance")
    best = 0.0
    for kp in certification_orders(k):
        moment = centered[2 * kp]
        if moment < 0:
            raise ValueError("raw moments are inconsistent (negative even moment)")
        best = max(best, moment ** (1.0 / kp) / (kp * variance))
    return best


def minimal_C(sample, k, ell=None):
    """Smallest C at which the sample is certifiably (C, k)-subgaussian.

    Per order k', one SDP maximizes t = -s in the degree-ell identity

        -M_{2k'} = q (|u|^2 - 1) + sum r_i^2 + t V^{k'},

    and C_{k'} = s^{1/k'} / k'; the result is the maximum over orders.  It is
    the SoS infimum to solver accuracy, not the end of a search interval.

    Like `certify`, it works in whitened span coordinates (see
    `_PreparedSample`).  Each value is gated by its certificate
    s V^{k'} - M = q (|u|^2 - 1) + sum r^2 verified at BUNDLE_TOLERANCE,
    whatever the solver status; failing that, by `certify` at the result.
    Raises RuntimeError when no gate passes or a solve yields no positive s,
    ValueError when all rows coincide.
    """
    ell = SubgaussParams(C=1.0, k=k, ell=ell).effective_ell  # validates k, ell
    prep = _PreparedSample(sample, k)
    if prep.rank == 0:
        raise ValueError("degenerate sample: all rows identical")
    best, verified = 0.0, True
    for data in prep.order_data:
        res, _, check = _order_certificate(
            -data.moment_poly, data.variance_power, ell
        )
        t = res.margin_value
        if t is None or t >= 0.0:
            raise RuntimeError(
                f"order {2 * data.kp}: solve ended {res.status} ({res.detail})"
            )
        verified = verified and check.valid
        best = max(best, (-t) ** (1.0 / data.kp) / data.kp)
    if not verified:
        # a stalled solve missed the tolerance; certify's better-conditioned
        # SDPs decide whether the value stands
        res = _certify_prepared(prep, SubgaussParams(C=best, k=k, ell=ell))
        if not res.certified:
            raise RuntimeError(
                f"no verified certificate at C={best:.6g} ({res.detail})"
            )
    return best
