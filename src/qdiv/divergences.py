"""The non-smooth divergence zoo.

All values are in bits (logarithms base 2).  Divergences that genuinely
diverge on support violations are reported as explicit +infinity values,
never as sentinel floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityOperator,
    Spectrum,
    ValidationError,
    _as_matrix,
    _matched_matrices,
    hermitian_part,
    partial_trace_matrix,
    support_projector,
    trace_distance,
)

# supp(rho) is declared contained in supp(sigma) iff the compression of rho
# onto the kernel of sigma is below this operator-norm tolerance.
SUPPORT_LEAK_TOL = 1e-9

FORMS_BIT_RESOLUTION = 1e-11  # bits: the bracket width that ends d_max_forms' bisections


@dataclass(frozen=True)
class DivergenceValue:
    """An extended-real divergence in bits; +inf is a first-class value."""

    bits: float
    finite: bool

    @classmethod
    def of(cls, bits: float) -> "DivergenceValue":
        # adding +0.0 turns -0.0 (e.g. -log2 of an overlap of exactly 1) into +0.0
        bits = float(bits) + 0.0
        return cls(bits=bits, finite=math.isfinite(bits))

    @classmethod
    def infinite(cls) -> "DivergenceValue":
        return cls(bits=math.inf, finite=False)


@dataclass(frozen=True)
class DivergenceReport:
    d_min: DivergenceValue
    d_max: DivergenceValue
    rel_entropy: DivergenceValue
    chernoff: DivergenceValue
    sandwich_ok: bool


def _psd_spectrum(sigma) -> Spectrum:
    """The one factorization of sigma, checked to be positive semidefinite."""
    spec = Spectrum.of(sigma)
    w = spec.eigenvalues
    if w[0] < -1e-10 * max(1.0, abs(w[-1])):
        raise ValidationError(f"sigma has negative eigenvalue {w[0]:.3e}")
    return spec


def _leaks(rm: np.ndarray, sigma_spec: Spectrum) -> bool:
    """Whether rho's compression onto the kernel of sigma exceeds SUPPORT_LEAK_TOL."""
    kernel = sigma_spec.eigenvectors[:, ~sigma_spec.support]
    if not kernel.shape[1]:
        return False
    leak = hermitian_part(kernel.conj().T @ rm @ kernel)
    return float(np.abs(np.linalg.eigvalsh(leak)).max()) > SUPPORT_LEAK_TOL


def d_max(rho, sigma) -> DivergenceValue:
    """Max-relative entropy: log2 of the smallest lambda with rho <= lambda sigma."""
    rm, sm = _matched_matrices(rho, sigma)
    spec = _psd_spectrum(sm)
    if _leaks(rm, spec):
        return DivergenceValue.infinite()
    w = spec.apply(lambda x: 1.0 / np.sqrt(x), on_support=True)
    mu = np.linalg.eigvalsh(hermitian_part(w @ rm @ w))[-1]
    return DivergenceValue.of(math.log2(max(mu, 1e-300)))


def d_max_forms(rho, sigma) -> tuple:
    """The three equivalent definitions of the max-relative entropy, computed
    independently: operator-inequality bisection, whitened maximum eigenvalue,
    and vanishing-positive-part bisection."""
    rm, sm = _matched_matrices(rho, sigma)
    form2 = d_max(rm, sm)
    if not form2.finite:
        return (DivergenceValue.infinite(), form2, DivergenceValue.infinite())
    lo, hi = form2.bits - 30.0, form2.bits + 30.0

    def psd_ok(bits):
        lam = 2.0**bits
        return np.linalg.eigvalsh(lam * sm - rm)[0] >= -1e-13 * max(1.0, lam)

    def positive_part_gone(bits):
        lam = 2.0**bits
        diff = rm - lam * sm
        w = np.linalg.eigvalsh(diff)
        return float(np.clip(w, 0.0, None).sum()) <= 1e-13

    def bisect(pred):
        a, b = lo, hi
        while b - a > FORMS_BIT_RESOLUTION:
            mid = (a + b) / 2
            if pred(mid):
                b = mid
            else:
                a = mid
        return b

    form1 = DivergenceValue.of(bisect(psd_ok))
    form3 = DivergenceValue.of(bisect(positive_part_gone))
    return (form1, form2, form3)


def d_min(rho, sigma) -> DivergenceValue:
    """Min-relative entropy: -log2 Tr(pi_rho sigma)."""
    rm, sm = _matched_matrices(rho, sigma)
    _psd_spectrum(sm)  # validates sigma
    pi = Spectrum.of(rm).apply(np.ones_like, on_support=True)
    overlap = float(np.trace(pi @ sm).real)
    if overlap <= 0:
        return DivergenceValue.infinite()
    return DivergenceValue.of(-math.log2(overlap))


def relative_entropy(rho, sigma) -> DivergenceValue:
    """Quantum relative entropy S(rho||sigma) = Tr[rho log2 rho - rho log2 sigma],
    evaluated on supp(sigma) with the 0 log 0 = 0 convention."""
    rm, sm = _matched_matrices(rho, sigma)
    spec = _psd_spectrum(sm)
    if _leaks(rm, spec):
        return DivergenceValue.infinite()
    log_r = Spectrum.of(rm).apply(np.log2, on_support=True)
    log_s = spec.apply(np.log2, on_support=True)
    val = float(np.trace(rm @ (log_r - log_s)).real)
    return DivergenceValue.of(val)


def renyi_relative(rho, sigma, alpha: float) -> DivergenceValue:
    """Relative Renyi entropy S_alpha for 0 < alpha < 1 (powers on supports)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    rm, sm = _matched_matrices(rho, sigma)
    ra = Spectrum.of(rm).apply(lambda w: w**alpha, on_support=True)
    sb = _psd_spectrum(sm).apply(lambda w: w ** (1.0 - alpha), on_support=True)
    overlap = float(np.trace(ra @ sb).real)
    if overlap <= 0:
        return DivergenceValue.infinite()
    return DivergenceValue.of(math.log2(overlap) / (alpha - 1.0))


def chernoff_bound(rho, sigma) -> DivergenceValue:
    """Quantum Chernoff bound xi = -log2 min_{0<=s<=1} Tr rho^s sigma^{1-s}.

    rho and sigma are factored once each.  With support eigenpairs (w_i, r_i)
    of rho and (v_j, s_j) of sigma, the objective is
    f(s) = sum_ij w_i^s |<r_i|s_j>|^2 v_j^{1-s}, so the endpoints follow the
    support-projector convention rho^0 := pi_rho, sigma^0 := pi_sigma.
    Golden-section refinement after a 64-point bracketing grid.
    """
    rm, sm = _matched_matrices(rho, sigma)
    spec_r, spec_s = Spectrum.of(rm), Spectrum.of(sm)
    keep_r, keep_s = spec_r.support, spec_s.support
    w, v = spec_r.eigenvalues[keep_r], spec_s.eigenvalues[keep_s]
    overlap = np.abs(spec_r.eigenvectors[:, keep_r].conj().T @ spec_s.eigenvectors[:, keep_s]) ** 2

    def f(s):
        return float(w**s @ overlap @ v ** (1.0 - s))

    grid = np.linspace(0.0, 1.0, 64)
    vals = np.einsum("gi,ij,gj->g", w ** grid[:, None], overlap, v ** (1.0 - grid)[:, None])
    k = int(np.argmin(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    # golden-section search on [a, b]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    best = min(float(vals.min()), fc, fd)
    if best <= 0:
        return DivergenceValue.infinite()
    return DivergenceValue.of(-math.log2(best))


def h_min(rho: DensityOperator) -> float:
    """Min-entropy -log2 ||rho||_inf."""
    mu = float(np.linalg.eigvalsh(_as_matrix(rho))[-1])
    return -math.log2(mu)


def h_max(rho: DensityOperator) -> float:
    """Max-entropy log2 rank(rho)."""
    return math.log2(support_projector(rho).rank)


def h_min_cond(rho_ab, sigma_b, dims: tuple) -> float:
    da, _ = dims
    target = np.kron(np.eye(da), _as_matrix(sigma_b))
    return -d_max(rho_ab, target).bits


def h_max_cond(rho_ab, sigma_b, dims: tuple) -> float:
    da, _ = dims
    target = np.kron(np.eye(da), _as_matrix(sigma_b))
    return -d_min(rho_ab, target).bits


def _marginal_product(rho_ab, dims: tuple) -> np.ndarray:
    mat = _as_matrix(rho_ab)
    ra = partial_trace_matrix(mat, dims, "A")
    rb = partial_trace_matrix(mat, dims, "B")
    return np.kron(ra, rb)


def mutual_min(rho_ab, dims: tuple) -> DivergenceValue:
    return d_min(rho_ab, _marginal_product(rho_ab, dims))


def mutual_max(rho_ab, dims: tuple) -> DivergenceValue:
    return d_max(rho_ab, _marginal_product(rho_ab, dims))


def helstrom_min_error(rho, sigma) -> float:
    """Minimum equal-prior discrimination error (1 - trace distance / 2) / 2."""
    return 0.5 * (1.0 - 0.5 * trace_distance(rho, sigma))


def divergence_report(rho, sigma) -> DivergenceReport:
    dmin = d_min(rho, sigma)
    dmax = d_max(rho, sigma)
    rel = relative_entropy(rho, sigma)
    cher = chernoff_bound(rho, sigma)
    if dmin.finite and dmax.finite and rel.finite:
        ok = dmin.bits <= rel.bits + 1e-9 and rel.bits <= dmax.bits + 1e-9
    else:
        ok = dmin.bits <= rel.bits <= dmax.bits
    return DivergenceReport(d_min=dmin, d_max=dmax, rel_entropy=rel, chernoff=cher, sandwich_ok=ok)
