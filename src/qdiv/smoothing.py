"""Epsilon-smooth min/max relative entropies.

Three layers:
  * the constructive smoothing certificate (contraction by T = alpha^{1/2} beta^{-1/2}),
  * bound-style smoothers built on it (bisection over the certificate budget,
    projector-sweep lower bound for the min side),
  * desk-scale exact solvers (Dykstra alternating projections; exact classical
    routines on weight vectors that double as oracles for the general case).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .divergences import d_max, d_min
from .operators import (
    DensityOperator,
    HermitianOperator,
    Spectrum,
    ValidationError,
    _as_matrix,
    compare_projector,
    hermitian_part,
    trace_distance,
)


class CertificateError(RuntimeError):
    """A constructed smoothing certificate failed its own invariants."""


class SolverError(RuntimeError):
    """An alternating-projection solve did not converge; carries residuals."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


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
    T = alpha^{1/2} beta^{-1/2}.  The returned certificate is checked before
    being handed back.
    """
    t = 2.0**lambda_bits
    rm, sm = rho.mat, sigma.mat
    delta = hermitian_part(Spectrum.of(rm - t * sm).apply(_positive_part))
    alpha = t * sm
    beta = alpha + delta
    transform = (Spectrum.of(alpha).apply(lambda w: np.sqrt(_positive_part(w)))
                 @ Spectrum.of(beta).apply(lambda w: 1.0 / np.sqrt(w), on_support=True))
    # clip tiny negative rounding noise so the result is a valid operator
    smoothed_mat = Spectrum.of(transform @ rm @ transform.conj().T).apply(_positive_part)
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


def smooth_dmax_upper(rho: DensityOperator, sigma: DensityOperator, eps: float,
                      resolution: float = 1e-6) -> SmoothDmaxBound:
    """Upper bound on the eps-smooth max-relative entropy.

    Smallest lambda on a bisection grid with sqrt(8 Tr[{rho > 2^lambda sigma} rho])
    <= eps; always >= the exact smooth value, and comes with the contraction
    certificate achieving it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    dm = d_max(rho.mat, sigma.mat)
    if not dm.finite:
        raise ValidationError("smooth_dmax_upper requires supp(rho) in supp(sigma)")
    budget = eps * eps / 8.0
    lo, hi = dm.bits - 60.0, dm.bits
    at_floor = _excess_mass(rho.mat, sigma.mat, lo) <= budget
    if not at_floor:
        while hi - lo > resolution:
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
# Dykstra alternating projections for the exact smooth max-relative entropy.
# --------------------------------------------------------------------------

def _eigclip_psd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(hermitian_part(mat))
    if w[0] >= 0:
        return mat
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _project_below(mat: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Frobenius projection onto {X : X <= cap}."""
    return cap - _eigclip_psd(cap - mat)


def _project_trace_ball(mat: np.ndarray, center: np.ndarray, eps: float) -> np.ndarray:
    """Frobenius projection onto {X : ||X - center||_1 <= eps} by eigenvalue
    soft-thresholding of the difference."""
    diff = hermitian_part(mat - center)
    w, v = np.linalg.eigh(diff)
    total = np.abs(w).sum()
    if total <= eps:
        return mat
    # waterfilling for the threshold tau with sum (|w| - tau)_+ = eps
    a = np.sort(np.abs(w))[::-1]
    csum = np.cumsum(a)
    tau = 0.0
    for k in range(1, len(a) + 1):
        tau = (csum[k - 1] - eps) / k
        if k == len(a) or a[k] <= tau:
            break
    shrunk = np.sign(w) * np.clip(np.abs(w) - tau, 0.0, None)
    return center + (v * shrunk) @ v.conj().T


def _project_trace_cap(mat: np.ndarray, cap: float) -> np.ndarray:
    tr = float(np.trace(mat).real)
    if tr <= cap:
        return mat
    d = mat.shape[0]
    return mat - ((tr - cap) / d) * np.eye(d)


def _dykstra_ball_feasible(rm: np.ndarray, sm: np.ndarray, eps: float, t: float,
                           tol: float = 1e-7, max_iter: int = 10000):
    """Is there X in B^eps(rho) with 0 <= X <= t sigma?  Returns (feasible, residuals)."""
    cap = t * sm
    tr_cap = float(np.trace(rm).real)
    projections = (
        _eigclip_psd,
        lambda x: _project_below(x, cap),
        lambda x: _project_trace_ball(x, rm, eps),
        lambda x: _project_trace_cap(x, tr_cap),
    )
    x = rm.copy()
    corrections = [np.zeros_like(rm) for _ in projections]

    def residuals(y):
        w = np.linalg.eigvalsh(hermitian_part(y))
        wc = np.linalg.eigvalsh(hermitian_part(y - cap))
        return (
            max(-float(w[0]), 0.0),
            max(float(wc[-1]), 0.0),
            max(trace_distance(y, rm) - eps, 0.0),
            max(float(np.trace(y).real) - tr_cap, 0.0),
        )

    best = math.inf
    stall = 0
    for _ in range(max_iter):
        for i, proj in enumerate(projections):
            y = proj(x + corrections[i])
            corrections[i] = x + corrections[i] - y
            x = y
        res = residuals(x)
        worst = max(res)
        if worst <= tol:
            return True, res
        if worst >= best - 1e-13:
            stall += 1
            if stall > 120:
                return False, res
        else:
            stall = 0
            best = worst
    return False, residuals(x)


def smooth_dmax_exact(rho: DensityOperator, sigma: DensityOperator, eps: float,
                      bit_resolution: float = 2e-5, tol: float = 1e-7,
                      max_iter: int = 10000) -> float:
    """Exact eps-smooth max-relative entropy at desk scale (dim <= 16).

    Bisection on t = 2^lambda with the feasibility subproblem
    "exists rho_bar in B^eps(rho) with 0 <= rho_bar <= t sigma"
    solved by Dykstra alternating projections.
    """
    rm, sm = rho.mat, sigma.mat
    if rm.shape[0] > 16:
        raise ValidationError("exact solver is limited to dim <= 16")
    dm = d_max(rm, sm)
    if not dm.finite:
        raise ValidationError("smooth_dmax_exact requires supp(rho) in supp(sigma)")
    hi = dm.bits
    feasible_hi, res = _dykstra_ball_feasible(rm, sm, eps, 2.0**hi, tol, max_iter)
    if not feasible_hi:
        raise SolverError("feasibility failed at the unsmoothed optimum", residuals=res)
    lo = max(math.log2(max(rho.trace - eps, 2.0 ** (dm.bits - 60.0))), dm.bits - 60.0)
    if lo >= hi:
        return hi
    if _dykstra_ball_feasible(rm, sm, eps, 2.0**lo, tol, max_iter)[0]:
        return lo
    while hi - lo > bit_resolution:
        mid = (lo + hi) / 2
        if _dykstra_ball_feasible(rm, sm, eps, 2.0**mid, tol, max_iter)[0]:
            hi = mid
        else:
            lo = mid
    return hi


def smooth_dmin_lower(rho: DensityOperator, sigma: DensityOperator, eps: float,
                      grid_points: int = 512) -> float:
    """Lower bound on the eps-smooth min-relative entropy via a projector sweep.

    For each gamma on the grid, the compression P rho P with P = {rho >= 2^gamma sigma}
    stays in the ball whenever 2 sqrt(1 - Tr(P rho)) <= eps (gentle measurement),
    and its min-relative entropy to sigma is an achieved feasible value.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rm, sm = rho.mat, sigma.mat
    base = d_min(rm, sm)
    best = base.bits if base.finite else -math.inf
    dmax_bits = d_max(rm, sm).bits
    hi = dmax_bits + 2.0 if math.isfinite(dmax_bits) else (base.bits if base.finite else 0.0) + 62.0
    lo = (base.bits if base.finite else 0.0) - 2.0
    for gamma in np.linspace(lo, hi, grid_points):
        p = compare_projector(rm, (2.0**gamma) * sm, ">=").mat
        kept = float(np.trace(p @ rm).real)
        delta = max(1.0 - kept, 0.0)
        if 2.0 * math.sqrt(delta) > eps:
            continue
        compressed = hermitian_part(p @ rm @ p)
        if float(np.trace(compressed).real) <= 1e-300:
            continue
        val = d_min(compressed, sm)
        if val.finite and val.bits > best:
            best = val.bits
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
    Dykstra solver.
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
