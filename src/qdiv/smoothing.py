"""Epsilon-smooth min/max relative entropies.

Three layers:
  * the constructive smoothing certificate (contraction by T = alpha^{1/2} beta^{-1/2}),
  * bound-style smoothers built on it (bisection over the certificate budget,
    projector-sweep lower bound for the min side),
  * desk-scale exact solvers (one linear semidefinite program for the smooth
    max-relative entropy; exact classical routines on weight vectors that
    double as oracles for the general case).

The projector sweep evaluates its 512-point grid in stacks of at most
SWEEP_CHUNK_ENTRIES = 2^14 matrix entries (16 matrices at d = 32): one batched
``eigh`` and one batched matmul give a stack's projectors, bit for bit the
ones ``compare_projector`` returns but without its checks, and a second
batched ``eigh`` gives the supports of the feasible compressions.

``SolverError`` is re-exported here from ``qdiv._sdp``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._sdp import SolverError, hermitian_basis, hermitian_coordinates, solve_lmi  # noqa: F401
from .divergences import d_max, d_min
from .operators import (
    DensityOperator,
    HermitianOperator,
    Spectrum,
    ValidationError,
    _as_matrix,
    _spectral_projectors,
    compare_projector,
    hermitian_part,
    trace_distance,
)

SWEEP_GRID_POINTS = 512

# Matrix entries per stack of the smooth D_min projector sweep: 16 matrices at
# d = 32.  Whole-grid stacks raise peak memory with the dimension, where this
# bound keeps the sweep's temporaries near a megabyte.
SWEEP_CHUNK_ENTRIES = 1 << 14

DMAX_UPPER_RESOLUTION = 1e-6  # bits: the bracket width that ends the bisection

# T^dag T <= I, so Tr T rho T^dag <= Tr rho.  beta^{-1/2} is taken on
# eigenvalues down to SUPPORT_RTOL times the largest, whose relative rounding
# reaches about machine epsilon / SUPPORT_RTOL = 2.2e-6; a computed trace
# excess up to this relative size is rounding and is scaled away.
CONTRACTION_TRACE_RTOL = 1e-6


class CertificateError(RuntimeError):
    """A constructed smoothing certificate failed its own invariants."""


@dataclass(frozen=True)
class EpsilonBall:
    """The smoothing ball B^eps(rho): positive, trace-norm close, trace capped."""

    center: DensityOperator
    epsilon: float

    def contains(self, candidate) -> bool:
        mat = _as_matrix(candidate)
        if np.linalg.eigvalsh(mat)[0] < -1e-10:
            return False
        if trace_distance(mat, self.center.mat) > self.epsilon + 1e-9:
            return False
        return float(np.trace(mat).real) <= self.center.trace + 1e-10


@dataclass(frozen=True)
class SmoothingCertificate:
    """Witness of a contraction-based smoothing step.

    ``smoothed`` satisfies d_max(smoothed||sigma) <= lambda_bits, lies within
    sqrt(8 Tr delta) of the center in trace norm, and stays inside the ball.
    """

    lambda_bits: float
    epsilon_used: float
    delta: HermitianOperator
    smoothed: DensityOperator
    transform_trace_dist: float
    center: DensityOperator
    sigma: DensityOperator

    def validate(self):
        dm = d_max(self.smoothed.mat, self.sigma.mat)
        if dm.finite and dm.bits > self.lambda_bits + 1e-7:
            raise CertificateError(
                f"d_max(smoothed||sigma) = {dm.bits} exceeds lambda {self.lambda_bits}"
            )
        if not dm.finite:
            raise CertificateError("smoothed state leaks outside supp(sigma)")
        budget = math.sqrt(8.0 * max(self.delta.trace(), 0.0))
        if self.transform_trace_dist > budget + 1e-7:
            raise CertificateError(
                f"trace distance {self.transform_trace_dist} exceeds budget {budget}"
            )
        ball = EpsilonBall(center=self.center, epsilon=budget)
        if not ball.contains(self.smoothed):
            raise CertificateError("smoothed state left the epsilon ball")


def _positive_part(w: np.ndarray) -> np.ndarray:
    return np.clip(w, 0.0, None)


def lemma5_smooth(rho: DensityOperator, sigma: DensityOperator, lambda_bits: float) -> SmoothingCertificate:
    """Contract rho towards 2^lambda sigma.

    Splits rho - 2^lambda sigma into orthogonal positive parts, sets
    alpha = 2^lambda sigma, beta = alpha + positive part, and applies
    T = alpha^{1/2} beta^{-1/2}; at lambda >= D_max(rho||sigma) that is the
    identity on rho.  A contracted trace above Tr rho by at most
    CONTRACTION_TRACE_RTOL (relative) is rescaled to Tr rho; a larger excess
    raises ``CertificateError``.  The returned certificate is checked before
    being handed back.
    """
    t = 2.0**lambda_bits
    rm, sm = rho.mat, sigma.mat
    if d_max(rm, sm).bits <= lambda_bits:
        # rho <= 2^lambda sigma: delta = 0 and T rho T^dag = rho exactly, which
        # the square roots below reproduce only to rounding that grows with the
        # condition number of sigma
        delta, smoothed_mat = np.zeros_like(rm), rm
    else:
        delta = hermitian_part(Spectrum.of(rm - t * sm).apply(_positive_part))
        alpha = t * sm
        beta = alpha + delta
        transform = (Spectrum.of(alpha).apply(lambda w: np.sqrt(_positive_part(w)))
                     @ Spectrum.of(beta).apply(lambda w: 1.0 / np.sqrt(w), on_support=True))
        # clip tiny negative rounding noise so the result is a valid operator
        smoothed_mat = Spectrum.of(transform @ rm @ transform.conj().T).apply(_positive_part)
        excess = float(np.trace(smoothed_mat).real) / rho.trace - 1.0
        if excess > CONTRACTION_TRACE_RTOL:
            raise CertificateError(f"contraction raised the trace by a relative {excess:.3e}")
        if excess > 0.0:
            smoothed_mat = smoothed_mat / (1.0 + excess)
    cert = SmoothingCertificate(
        lambda_bits=float(lambda_bits),
        epsilon_used=math.sqrt(8.0 * max(float(np.trace(delta).real), 0.0)),
        delta=HermitianOperator(delta),
        smoothed=DensityOperator.from_matrix(smoothed_mat),
        transform_trace_dist=trace_distance(smoothed_mat, rm),
        center=rho,
        sigma=sigma,
    )
    cert.validate()
    return cert


@dataclass(frozen=True)
class SmoothDmaxBound:
    lambda_bits: float
    certificate: SmoothingCertificate
    at_bracket_floor: bool


def _excess_mass(rm: np.ndarray, sm: np.ndarray, lambda_bits: float) -> float:
    """Tr[{rho > 2^lambda sigma} rho]."""
    t = 2.0**lambda_bits
    p = compare_projector(rm, t * sm, ">").mat
    return max(float(np.trace(p @ rm).real), 0.0)


def smooth_dmax_upper(rho: DensityOperator, sigma: DensityOperator, eps: float) -> SmoothDmaxBound:
    """Upper bound on the eps-smooth max-relative entropy.

    Smallest lambda on a bisection grid with sqrt(8 Tr[{rho > 2^lambda sigma} rho])
    <= eps; always >= the exact smooth value, and comes with the contraction
    certificate achieving it.
    """
    if not eps > 0:  # also rejects NaN
        raise ValidationError("eps must be positive")
    dm = d_max(rho.mat, sigma.mat)
    if not dm.finite:
        raise ValidationError("smooth_dmax_upper requires supp(rho) in supp(sigma)")
    budget = eps * eps / 8.0
    lo, hi = dm.bits - 60.0, dm.bits
    at_floor = _excess_mass(rho.mat, sigma.mat, lo) <= budget
    if not at_floor:
        while hi - lo > DMAX_UPPER_RESOLUTION:
            mid = (lo + hi) / 2
            if _excess_mass(rho.mat, sigma.mat, mid) <= budget:
                hi = mid
            else:
                lo = mid
    else:
        hi = lo
    cert = lemma5_smooth(rho, sigma, hi)
    return SmoothDmaxBound(lambda_bits=hi, certificate=cert, at_bracket_floor=at_floor)


# --------------------------------------------------------------------------
# The exact smooth max-relative entropy as one linear semidefinite program.
# --------------------------------------------------------------------------

def smooth_dmax_exact(rho: DensityOperator, sigma: DensityOperator, eps: float) -> float:
    """Exact eps-smooth max-relative entropy at desk scale (dim <= 16).

    One linear semidefinite program in (rho_bar, P, t): minimize t subject to
    0 <= rho_bar <= t sigma, N = P - (rho_bar - rho) >= 0, P >= 0,
    Tr(P + N) <= eps (so ||rho_bar - rho||_1 <= eps) and Tr rho_bar <= Tr rho,
    solved by the interior-point solver of ``qdiv._sdp``.  The program is
    posed on supp(sigma), which holds every rho_bar <= t sigma and, by the
    support requirement, rho itself; there sigma is invertible, so the program
    is strictly feasible even for singular sigma.  sigma is scaled by
    2^D_max(rho||sigma), which puts the optimal t in (0, 1].  The value is
    log2 t of a feasible rho_bar, within the solver's relative gap of the
    optimum.  -inf when Tr rho <= eps: rho_bar = 0 lies in the ball, as in
    ``smooth_dmax_exact_classical``.
    """
    if not eps > 0:  # also rejects NaN
        raise ValidationError("eps must be positive")
    rm, sm = rho.mat, sigma.mat
    if rm.shape[0] > 16:
        raise ValidationError("exact solver is limited to dim <= 16")
    if rho.trace <= eps:
        return -math.inf
    dm = d_max(rm, sm)
    if not dm.finite:
        raise ValidationError("smooth_dmax_exact requires supp(rho) in supp(sigma)")
    spec = Spectrum.of(sm)
    v = spec.eigenvectors[:, spec.support]
    w = spec.eigenvalues[spec.support] * 2.0**dm.bits
    r = len(w)
    sig = np.diag(w).astype(complex)
    rc = hermitian_part(v.conj().T @ rm @ v)
    tr = float(np.trace(rc).real)
    basis = hermitian_basis(r)
    none = np.zeros_like(basis)
    tr_basis = np.trace(basis, axis1=1, axis2=2)[:, None, None]

    def coefficients(of_rho_bar, of_p, of_t):
        return np.concatenate([of_rho_bar, of_p, of_t[None]])

    zero, scalar_zero = np.zeros((r, r)), np.zeros((1, 1))
    blocks = (
        (zero, coefficients(basis, none, zero)),                              # rho_bar
        (zero, coefficients(-basis, none, sig)),                              # t sigma - rho_bar
        (zero, coefficients(none, basis, zero)),                              # P
        (rc, coefficients(-basis, basis, zero)),                              # N
        ([[eps - tr]], coefficients(tr_basis, -2 * tr_basis, scalar_zero)),  # eps - Tr(P + N)
        ([[tr]], coefficients(-tr_basis, 0 * tr_basis, scalar_zero)),       # Tr rho - Tr rho_bar
    )
    # strictly feasible start: a = eps / (4 Tr rho), b = eps / (8 Tr sigma),
    # rho_bar = (1 - a) rho + b sigma, P = 2 b sigma, t = 1 + b; every slack
    # is then at least b sigma, a rho, 3 eps / 8 or eps / 8
    a, b = eps / (4 * tr), eps / (8 * w.sum())
    x0 = np.concatenate([hermitian_coordinates(basis, (1 - a) * rc + b * sig),
                         hermitian_coordinates(basis, 2 * b * sig), [1 + b]])
    # dual start: Tr sigma Z_2 = 1, Z_1 = Z_2 + Z_4 + (z_6 - z_5) I, Z_3 + Z_4 = 2 z_5 I
    eye = np.eye(r)
    z0 = (eye / w.sum() + eye, eye / w.sum(), eye, eye, np.eye(1), np.eye(1))
    c = np.zeros(len(x0))
    c[-1] = 1.0
    x, _, _ = solve_lmi(c, blocks, x0, z0)
    return math.log2(x[-1]) + dm.bits


def smooth_dmin_lower(rho: DensityOperator, sigma: DensityOperator, eps: float) -> float:
    """Lower bound on the eps-smooth min-relative entropy via a projector sweep.

    For each gamma on the grid, the compression P rho P with P = {rho >= 2^gamma sigma}
    stays in the ball whenever 2 sqrt(1 - Tr(P rho)) <= eps (gentle measurement),
    and its min-relative entropy to sigma is an achieved feasible value.  The
    grid runs in stacks of at most SWEEP_CHUNK_ENTRIES matrix entries.
    """
    if not eps > 0:  # also rejects NaN
        raise ValidationError("eps must be positive")
    rm, sm = rho.mat, sigma.mat
    base = d_min(rm, sm)
    best = base.bits if base.finite else -math.inf
    dmax_bits = d_max(rm, sm).bits
    hi = dmax_bits + 2.0 if math.isfinite(dmax_bits) else (base.bits if base.finite else 0.0) + 62.0
    lo = (base.bits if base.finite else 0.0) - 2.0
    scales = 2.0 ** np.linspace(lo, hi, SWEEP_GRID_POINTS)
    chunk = max(1, SWEEP_CHUNK_ENTRIES // rm.size)
    for start in range(0, SWEEP_GRID_POINTS, chunk):
        proj, _ = _spectral_projectors(rm - scales[start:start + chunk, None, None] * sm, ">=")
        kept = np.einsum("kij,ji->k", proj, rm).real
        proj = proj[2.0 * np.sqrt(np.maximum(1.0 - kept, 0.0)) <= eps]
        compressed = proj @ rm @ proj
        compressed = compressed[np.trace(compressed, axis1=1, axis2=2).real > 1e-300]
        if not len(compressed):
            continue
        # d_min of each compression: -log2 Tr(pi sigma) over its support projector pi
        support = Spectrum.of(compressed).apply(np.ones_like, on_support=True)
        overlap = np.einsum("kij,ji->k", support, sm).real
        overlap = overlap[overlap > 0]
        if len(overlap):
            best = max(best, float(-np.log2(overlap.min())) + 0.0)
    return best


def smooth_dmin_exact_classical(p, q, eps: float) -> float:
    """Exact eps-smooth min-relative entropy for commuting (diagonal) pairs.

    Deleting mass is optimal because the min-relative entropy depends only on
    the support, so subset enumeration over the support of p is exact.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if (p < 0).any() or (q < 0).any():
        raise ValueError("weights must be nonnegative")
    if p.sum() > 1 + 1e-10:
        raise ValueError("p must have total mass at most 1")
    supp = np.flatnonzero(p > 0)
    if supp.size > 20:
        raise ValidationError("support larger than 20; enumeration refused")
    best = -math.inf
    for drop in itertools.chain.from_iterable(
        itertools.combinations(supp, r) for r in range(supp.size + 1)
    ):
        drop = list(drop)
        if p[drop].sum() > eps + 1e-12:
            continue
        keep = [i for i in supp if i not in drop]
        if not keep:
            continue
        overlap = q[keep].sum()
        val = math.inf if overlap <= 0 else -math.log2(overlap)
        best = max(best, val)
    return best


def smooth_dmax_exact_classical(p, q, eps: float) -> float:
    """Exact eps-smooth max-relative entropy for commuting (diagonal) pairs:
    smallest t with sum_i (p_i - t q_i)_+ <= eps, reported as log2 t.

    +inf when the p-mass on {q = 0} exceeds eps; -inf when the total p-mass is
    at most eps (t = 0 is feasible).  Serves as the independent oracle for the
    semidefinite program of ``smooth_dmax_exact``.
    """
    with np.errstate(divide="ignore"):
        return smooth_dmax_exact_log(np.log(np.asarray(p, dtype=float)),
                                     np.log(np.asarray(q, dtype=float)), eps)


def smooth_dmax_exact_log(log_p, log_q, eps: float) -> float:
    """``smooth_dmax_exact_classical`` on natural-log weights (-inf for zero),
    so that weights far below the float range, such as the sigma-masses of
    type classes at large n, neither underflow nor overflow.

    The cost sum_i (p_i - t q_i)_+ is convex, nonincreasing and linear between
    the ratios p_i / q_i.  With the ratios sorted in decreasing order, the
    cost at the k-th ratio r_k is f + P_{k-1} - r_k Q_{k-1} (f the p-mass on
    {q = 0}, P and Q prefix sums); the last breakpoint k with cost <= eps
    fixes the segment, on which t = (f + P_k - eps) / Q_k.
    """
    log_p = np.asarray(log_p, dtype=float)
    log_q = np.asarray(log_q, dtype=float)
    live = np.isfinite(log_p)
    fixed = float(np.exp(log_p[live & np.isneginf(log_q)]).sum())
    if fixed > eps:
        return math.inf
    keep = live & np.isfinite(log_q)
    order = np.argsort(log_q[keep] - log_p[keep])
    lp, lq = log_p[keep][order], log_q[keep][order]
    if not lp.size:
        return -math.inf
    cum_p = np.cumsum(np.exp(lp))
    log_cum_q = np.logaddexp.accumulate(lq)
    cost = fixed + np.concatenate(([0.0], cum_p[:-1] - np.exp(lp[1:] - lq[1:] + log_cum_q[:-1])))
    above = np.flatnonzero(cost > eps)
    k = above[0] if above.size else len(cost)
    excess = fixed + cum_p[k - 1] - eps
    if excess <= 0.0:
        return -math.inf
    return float(math.log(excess) - log_cum_q[k - 1]) / math.log(2.0)
