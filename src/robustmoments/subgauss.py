"""Certification of directional moment growth for empirical distributions.

A sample is certified with parameter C at order 2k' when the centered
directional moment E <x-mu, u>^{2k'} is bounded by (C k' E <x-mu, u>^2)^{k'}
for every unit u, witnessed by an explicit sphere-form SOS certificate.  The
decision is made by maximizing the uniform slack t in

    target(u) - t (1 + |u|^2)^{l/2}  =  q(u) (|u|^2 - 1) + sum r_i(u)^2 ;

t >= 0 yields a certificate, t < 0 quantifies the deficit.  Orders 2..k/2 are
checked (for k=2, the single order-1 inequality); the order-1 inequality for
k >= 4 reduces to C >= 1 and carries no higher-moment information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polycore import Polynomial, empirical_moments, monomials_of_degree, multinomial
from .sosengine import (
    SosCertificate,
    find_sos_combination,
    gram_to_sos,
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


def _expansion_squares(d, half_degree):
    """(1 + |u|^2)^m as an explicit combination of squares: coefficient and
    root monomial per term of the multinomial expansion."""
    out = []
    for total in range(half_degree + 1):
        for mono in monomials_of_degree(d, total):
            coef = math.comb(half_degree, total) * multinomial(mono)
            out.append((float(coef), mono))
    return out


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


def _order_certificate(target, margin, ell, margin_squares=None):
    """Maximize t in target - t margin = q (|u|^2 - 1) + sum r^2 (one SDP),
    then assemble and verify the certificate at BUNDLE_TOLERANCE: the gate is
    the check, not the solver status.  Given `margin_squares` (margin as a
    sum of squares) it certifies `target`, a slack t >= 0 folded into the
    squares; otherwise target - t margin.  Returns (result, certificate,
    check), the last two None when the solve gives no margin value.
    """
    d = target.dimension
    res = find_sos_combination(
        target, sos_premises=[Polynomial.constant(d, 1.0)],
        equality_premises=[sphere_polynomial(d)], degree=ell, margin=margin,
    )
    t = res.margin_value
    if t is None:
        return res, None, None
    sos_part = gram_to_sos(*res.grams[0])
    if margin_squares is None:
        base = target - t * margin
    else:
        base = target
        slack = max(t, 0.0)
        for coef, mono in margin_squares:
            scale = math.sqrt(slack * coef)
            if scale > 0.0:
                sos_part.append(Polynomial(d, {mono: scale}))
    cert = SosCertificate(num_vars=d, base_polynomial=base,
                          sphere_multiplier=res.free_polys[0], sos_part=sos_part)
    return res, cert, verify_certificate(cert, tolerance=BUNDLE_TOLERANCE)


def _certify_prepared(prep, params):
    if prep.rank == 0:
        # all points coincide: every centered moment vanishes
        bundle = SubgaussCertificateBundle({}, prep.mean, prep.span)
        return CertifyResult(status="Certified", bundle=bundle)
    ell = params.effective_ell
    margin = (sphere_polynomial(prep.rank) + 2.0) ** (ell // 2)  # (1+|u|^2)^{l/2}
    margin_squares = _expansion_squares(prep.rank, ell // 2)
    certificates = {}
    margins = {}
    for data in prep.order_data:
        res, cert, check = _order_certificate(
            data.target(params.C), margin, ell, margin_squares
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
    the certificate is a single explicit square.
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
        certificates[kp] = SosCertificate(
            num_vars=1,
            base_polynomial=gap * u ** (2 * kp),
            sos_part=[math.sqrt(max(gap, 0.0)) * u ** kp],
        )
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


# ---------------------------------------------------------------------------
# closure transforms


@dataclass
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
    """Sampler transforms with predicted parameter-inflation factors, used to
    drive invariance property tests."""
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
