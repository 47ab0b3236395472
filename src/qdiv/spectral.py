"""Finite-n information-spectrum machinery.

Tensor powers and their Schur-Weyl compression for qubits, the spectral trace
quantities Tr[{rho_n >= 2^{n gamma} sigma_n} X_n], smooth-divergence estimates
on product states, and rate curves.  Asymptotic limits are never taken:
everything here is an explicit finite-n computation, with a type-class fast
path for commuting pairs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .divergences import d_min, relative_entropy
from .operators import (
    DensityOperator,
    ValidationError,
    _matched_matrices,
    _spectral_projectors,
    hermitian_part,
)
from .smoothing import (
    _classical_weights,
    smooth_dmax_exact_log,
    smooth_dmax_upper,
    smooth_dmin_lower,
)

DENSE_DIM_GUARD = 4096
TYPE_COUNT_GUARD = 2_000_000
RATIO_QUANTUM = 1e-9


@dataclass(frozen=True)
class IIDPair:
    """A single-copy pair (rho, sigma) generating the product sequences."""

    rho: DensityOperator
    sigma: DensityOperator
    commuting: bool = field(init=False)

    def __post_init__(self):
        rm, sm = _matched_matrices(self.rho, self.sigma)
        comm = rm @ sm - sm @ rm
        norm = float(np.abs(np.linalg.eigvalsh(hermitian_part(1j * comm))).max()) if self.rho.dim > 1 else 0.0
        object.__setattr__(self, "commuting", norm <= 1e-10)


@dataclass(frozen=True)
class RatePoint:
    n: int
    eps: float
    dmax_over_n: float
    dmin_over_n: float
    rel_entropy: float


def tensor_power(rho: DensityOperator, n: int) -> DensityOperator:
    """rho^(x)n as a dense matrix, under the dense size guard; n must be an
    integer >= 1."""
    _check_copy_counts([n])
    _check_dense_dim(rho.dim**n, "dim^n")
    out = rho.mat
    for _ in range(n - 1):
        out = np.kron(out, rho.mat)
    return DensityOperator.from_matrix(out)


def _is_count(n, least: int) -> bool:
    """Whether n is an integer >= least; a bool is a numbers.Integral, but no
    count."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= least


def _check_copy_counts(n_list: list):
    if not n_list or not all(_is_count(n, 1) for n in n_list):
        raise ValidationError(f"need one or more n, each an integer >= 1, got {n_list}")


def _check_dense_dim(dim: int, what: str):
    if dim > DENSE_DIM_GUARD:
        raise ValidationError(f"{what} = {dim} exceeds the dense guard {DENSE_DIM_GUARD}")


def _symmetric_power(k: int, powers: tuple) -> np.ndarray:
    """Sym^k(A) of a 2 x 2 matrix A in the Dicke basis |D_0>, ..., |D_k>.

    A maps the monomial x^{k-b} y^b to (A_00 x + A_10 y)^{k-b} (A_01 x + A_11 y)^b,
    whose coefficient of x^{k-a} y^a is entry (a, b) in the monomial basis;
    |D_b> is sqrt(C(k, b)) times the monomial, hence the rescaling.
    ``powers[c][i]`` holds the coefficients of (A_0c x + A_1c y)^i in powers of y.
    """
    cols = np.stack([np.convolve(powers[0][k - b], powers[1][b]) for b in range(k + 1)], axis=1)
    binom = np.array([math.comb(k, b) for b in range(k + 1)], dtype=float)
    return cols * np.sqrt(binom[None, :] / binom[:, None])


def symmetric_compression(rho: DensityOperator, n: int) -> DensityOperator:
    """The Schur-Weyl compression (+)_j m_j pi_j(rho) of a qubit tensor power.

    By Schur-Weyl duality, rho^(x)n is unitarily equivalent to
    (+)_j pi_j(rho) (x) I_{m_j} over j = n/2, n/2 - 1, ... >= 0, with
    pi_j(A) = det(A)^{n/2 - j} Sym^{2j}(A) and
    m_j = C(n, n/2 - j) - C(n, n/2 - j - 1).  The compression is the image of
    rho^(x)n under the CPTP map that traces out the multiplicity spaces, and
    the CPTP map appending I / m_j to each block maps it back.  A pair
    compressed this way is therefore equivalent to the n-copy pair: every
    divergence with data processing takes the same value, block j of
    rho~ - t sigma~ is m_j times the n-copy block, so spectral projectors
    {rho~ >= t sigma~} carry the same masses, and a smoothing certificate
    built on the compressed pair lifts to one on the n-copy pair by appending
    I / m_j.  The dimension is floor((n + 2)^2 / 4) in place of 2^n, and the
    dense size guard applies to it; n = 1 returns rho.  A rank-1 rho has
    det = 0, so every block but j = n/2 vanishes.  The blocks are built in
    rho's dtype, so a real rho gives a real compression.
    """
    if rho.dim != 2:
        raise ValidationError(f"symmetric_compression needs a qubit state, got dimension {rho.dim}")
    _check_copy_counts([n])
    dim = (n + 2) ** 2 // 4
    _check_dense_dim(dim, "compressed dimension")
    a = rho.mat
    # rounding can leave a rank-1 state's determinant slightly negative
    det = max(float((a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real), 0.0)
    powers = ([np.ones(1, dtype=a.dtype)], [np.ones(1, dtype=a.dtype)])
    for _ in range(n):
        for c in (0, 1):
            powers[c].append(np.convolve(powers[c][-1], a[:, c]))
    out = np.zeros((dim, dim), dtype=a.dtype)
    start = 0
    for k in range(n, -1, -2):  # k = 2j
        depth = (n - k) // 2     # n/2 - j
        mult = math.comb(n, depth) - (math.comb(n, depth - 1) if depth else 0)
        out[start:start + k + 1, start:start + k + 1] = mult * det**depth * _symmetric_power(k, powers)
        start += k + 1
    return DensityOperator.from_matrix(out)


def _real_frame(pair: IIDPair) -> tuple:
    """(rho', sigma') of a qubit pair, turned by one unitary into real form:
    sigma' = diag(w) in sigma's eigenbasis, and rho' real symmetric.

    In that basis a diagonal unitary takes rho's off-diagonal entry r to |r|
    and leaves diag(w) as it is.  The same unitary U turns both states, and
    U^(x)n commutes with the Schur-Weyl compression, so every unitarily
    invariant quantity of the n-copy pair keeps its value.
    """
    w, v = np.linalg.eigh(pair.sigma.mat)
    r = v.conj().T @ pair.rho.mat @ v
    off = abs(r[0, 1])
    rho = np.array([[r[0, 0].real, off], [off, r[1, 1].real]])
    return DensityOperator.from_matrix(rho), DensityOperator.from_matrix(np.diag(w))


def _n_copy_pair(pair: IIDPair, n: int) -> tuple:
    """An operator pair equivalent to (rho^(x)n, sigma^(x)n): for qubits the
    Schur-Weyl compressions of the pair in its real frame (``_real_frame``),
    real symmetric with sigma~ diagonal; the tensor powers otherwise."""
    if pair.rho.dim != 2:
        return tensor_power(pair.rho, n), tensor_power(pair.sigma, n)
    return tuple(symmetric_compression(x, n) for x in _real_frame(pair))


def joint_eigen_probabilities(pair: IIDPair) -> tuple:
    """Common-eigenbasis weights (p_i, q_i) of a commuting pair."""
    if not pair.commuting:
        raise ValidationError("pair does not commute")
    w, v = np.linalg.eigh(pair.rho.mat)
    # split sigma inside degenerate eigenspaces of rho
    q = np.empty_like(w)
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and abs(w[j] - w[i]) <= 1e-10:
            j += 1
        block = v[:, i:j]
        sub = block.conj().T @ pair.sigma.mat @ block
        q[i:j] = np.linalg.eigh(hermitian_part(sub))[0]
        i = j
    p = np.clip(w, 0.0, None)
    q = np.clip(q, 0.0, None)
    return p, q


def _compositions(n: int, d: int) -> np.ndarray:
    """All ways to split n into d nonnegative parts, one per row, in
    lexicographic order.

    The rows grow one part at a time.  A prefix with r left to split gets the
    children 0, 1, ..., r as its next part, all prefixes' children from one
    ragged ``arange`` (the running index minus the start of its run, the runs
    of lengths r + 1 laid end to end); the earlier parts are repeated along,
    and the last part is what is left.  The loop runs over the d parts only.
    """
    parts, rest = [], np.array([n])
    for _ in range(d - 1):
        runs = rest + 1
        ends = np.cumsum(runs)
        child = np.arange(ends[-1]) - np.repeat(ends - runs, runs)
        parts = [np.repeat(part, runs) for part in parts] + [child]
        rest = np.repeat(rest, runs) - child
    # columns contiguous, for type_table's per-letter passes
    return np.array(parts + [rest]).T


@dataclass(frozen=True)
class TypeTable:
    """Per-type log masses and quantized per-sequence log-likelihood ratios."""

    log_p: np.ndarray      # log of total rho-mass of each type class
    log_q: np.ndarray      # log of total sigma-mass of each type class
    ratio_bits: np.ndarray  # per-sequence log2(P/Q); +/-inf on zero masses


def type_table(p: np.ndarray, q: np.ndarray, n: int) -> TypeTable:
    """Log masses and quantized log-likelihood ratios of the type classes of
    n letters drawn from weights p and q (1-D, of equal length d, finite and
    nonnegative), one entry per row of ``_compositions(n, d)``.

    The per-type sums of log k!, k log p and k log q run one letter at a time
    into length-K vectors, left to right from 0: for d <= 7 that is bit for
    bit numpy's ``sum(axis=1)`` over the (K, d) terms, whose pairwise order
    differs in the last bits from d = 8.  A letter of positive weight adds
    k log p as it is, since at k = 0 that is a signed zero, which leaves the
    sum as it was; only a zero weight needs the k = 0 case masked.  n = 0
    gives the one empty type.
    """
    if not _is_count(n, 0):
        raise ValidationError(f"type_table needs n an integer >= 0, got {n!r}")
    p, q = _classical_weights(p, q, "type_table")
    d = len(p)
    count = math.comb(n + d - 1, d - 1)
    if count > TYPE_COUNT_GUARD:
        raise ValidationError(f"{count} type classes exceed the guard {TYPE_COUNT_GUARD}")
    ks = _compositions(n, d)
    # log k! of the integer parts, summed in extended precision: within 2 ulps
    # at n = 3000, where a float64 running sum drifts by 10
    log_fact = np.cumsum(np.log(np.arange(n + 1, dtype=np.longdouble).clip(1))).astype(float)
    fact_sum, seq_lp, seq_lq = np.zeros((3, count))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, lp, lq in zip(ks.T, np.log(p), np.log(q)):
            fact_sum += log_fact[k]
            # a letter that does not occur contributes p^0 = 1, also when p = 0
            seq_lp += k * lp if np.isfinite(lp) else np.where(k > 0, k * lp, 0.0)
            seq_lq += k * lq if np.isfinite(lq) else np.where(k > 0, k * lq, 0.0)
        ratio = (seq_lp - seq_lq) / math.log(2.0)
    logmult = log_fact[n] - fact_sum
    # 0/0 sequences carry no mass on either side; treat as included ties (+inf)
    ratio = np.where(np.isneginf(seq_lp) & np.isneginf(seq_lq), np.inf, ratio)
    # rounding keeps +/-inf as they are
    ratio = np.round(ratio / RATIO_QUANTUM) * RATIO_QUANTUM
    return TypeTable(log_p=logmult + seq_lp, log_q=logmult + seq_lq, ratio_bits=ratio)


def _log_sum_exp(x: np.ndarray) -> float:
    """log(sum(exp(x))), shifted by the largest entry; -inf for an empty or
    all -inf x, without a warning."""
    top = x.max(initial=-np.inf)
    if top == -np.inf:
        return -math.inf
    return float(top + np.log(np.exp(x - top).sum()))


def _pow2(bits: float) -> float:
    """2^bits as a float; ``ValidationError`` where it overflows the float range."""
    try:
        return 2.0**bits
    except OverflowError:
        raise ValidationError(
            f"2^{bits:g} is beyond the float range, which ends below 2^1024") from None


def spectral_trace(pair: IIDPair, n: int, gamma_bits: float, *,
                   weight: str = "rho") -> float:
    """Tr[{rho^(n) >= 2^{n gamma} sigma^(n)} X^(n)] with X = rho or sigma.

    Commuting pairs take the type-class path, all others the dense one.  The
    dense path works for qubits on the Schur-Weyl compressed pair in its real
    frame (``_n_copy_pair``), whose projector carries the n-copy masses, and
    on the tensor powers otherwise.  n must be an integer >= 1 and gamma_bits
    a finite number.  The dense path scales sigma^(n) by 2^{n gamma}, which
    must be a finite float (n gamma below 1024): beyond that it raises
    ``ValidationError``, while the type-class path answers any finite gamma.
    """
    if weight not in ("rho", "sigma"):
        raise ValueError("weight must be 'rho' or 'sigma'")
    if not (isinstance(gamma_bits, numbers.Real) and math.isfinite(gamma_bits)):
        raise ValidationError(f"gamma_bits must be a finite number, got {gamma_bits!r}")
    _check_copy_counts([n])
    threshold = n * gamma_bits
    if pair.commuting:
        p, q = joint_eigen_probabilities(pair)
        table = type_table(p, q, n)
        mask = table.ratio_bits >= threshold - 0.5 * RATIO_QUANTUM
        logs = table.log_p if weight == "rho" else table.log_q
        return float(np.exp(_log_sum_exp(logs[mask])))
    rho_n, sigma_n = (x.mat for x in _n_copy_pair(pair, n))
    proj, _ = _spectral_projectors(rho_n - _pow2(threshold) * sigma_n, ">=")
    target = rho_n if weight == "rho" else sigma_n
    return max(float(np.trace(proj @ target).real), 0.0)


def lemma2_bound_check(pair: IIDPair, n: int, gamma_bits: float) -> tuple:
    """(Tr[{rho_n >= 2^{n gamma} sigma_n} sigma_n], 2^{-n gamma}).  The
    powers of 2 must be finite floats: n gamma above -1024 on both paths, and
    below 1024 on the dense path; beyond that it raises ``ValidationError``."""
    lhs = spectral_trace(pair, n, gamma_bits, weight="sigma")
    return lhs, _pow2(-n * gamma_bits)


def _classical_smooth_dmin_types(table: TypeTable, eps: float, dmin_n: float) -> float:
    """Projector-sweep lower bound on the smooth min-relative entropy over type
    prefixes ordered by likelihood ratio (the full gamma sweep, evaluated at
    every achievable threshold), with the sigma-masses summed in the log
    domain.  ``dmin_n`` is the unsmoothed n-copy D_min, n times the single-copy
    value because D_min is additive over copies."""
    order = np.argsort(table.ratio_bits)[::-1]
    log_p = table.log_p[order]
    # the rho-mass each prefix deletes, in units of the budget eps^2 / 4 and
    # summed from the tail: a difference of prefix sums, or masses compared
    # with eps^2 / 4 after exp, would decide a budget tie by rounding
    deleted = np.append(np.cumsum(np.exp(log_p[::-1] - 2.0 * math.log(eps / 2.0)))[-2::-1], 0.0)
    feasible = (deleted <= 1.0) & np.isfinite(np.maximum.accumulate(log_p))
    # the kept sigma-mass grows with the prefix, so the shortest feasible prefix
    # is the best; the full prefix, the unsmoothed value, is always feasible
    # unless rho has no support at all
    j = np.flatnonzero(feasible)[0] if feasible.any() else len(order) - 1
    kept = np.where(np.isneginf(log_p[: j + 1]), -np.inf, table.log_q[order[: j + 1]])
    # with nothing deleted, the closed form keeps the exact zeros of D_min from
    # hanging on how the type masses round
    value = dmin_n if deleted[j] == 0.0 else -_log_sum_exp(kept) / math.log(2.0)
    # a kept sigma-mass is at most 1, so the value is >= 0; the floor removes
    # rounding below zero, and max keeps its first argument on a tie, which
    # turns -0.0 into +0.0
    return max(0.0, float(value))


def rate_curve(pair: IIDPair, eps: float, n_list) -> list:
    """Per-n smoothed divergence rates for the product sequence.

    Commuting pairs work on type classes: D_max is the exact classical smooth
    value, and D_min is the projector-sweep lower bound under the
    gentle-measurement budget 2 sqrt(delta) <= eps for the deleted rho-mass
    delta.  General pairs use the dense solvers under the size guard, for
    qubits on the Schur-Weyl compressed pair in its real frame
    (``_n_copy_pair``): the smoothers read only data-processing divergences
    and projector masses, which it shares with the n-copy pair, and their
    certificates lift to the n-copy pair.  Every n must be an integer >= 1.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps must lie in (0, 1)")
    n_list = list(n_list)
    _check_copy_counts(n_list)
    rel = relative_entropy(pair.rho.mat, pair.sigma.mat)
    points = []
    if pair.commuting:
        dmin = d_min(pair.rho.mat, pair.sigma.mat).bits
        p, q = joint_eigen_probabilities(pair)
        for n in n_list:
            table = type_table(p, q, n)
            dmax_n = smooth_dmax_exact_log(table.log_p, table.log_q, eps)
            dmin_n = _classical_smooth_dmin_types(table, eps, n * dmin)
            points.append(RatePoint(n=n, eps=eps, dmax_over_n=dmax_n / n,
                                    dmin_over_n=dmin_n / n, rel_entropy=rel.bits))
        return points
    for n in n_list:
        rho_n, sigma_n = _n_copy_pair(pair, n)
        dmax_n = smooth_dmax_upper(rho_n, sigma_n, eps).lambda_bits
        # sigma is a state, so D_min >= 0: as on the commuting path, the floor
        # removes rounding below zero and max turns -0.0 into +0.0
        dmin_n = max(0.0, smooth_dmin_lower(rho_n, sigma_n, eps))
        points.append(RatePoint(n=n, eps=eps, dmax_over_n=dmax_n / n,
                                dmin_over_n=dmin_n / n, rel_entropy=rel.bits))
    return points


def divergence_rate_estimate(pair: IIDPair, eps: float, n_max: int) -> dict:
    """Finite-n estimates of the sup/inf spectral divergence rates.

    These are the n = n_max points of the rate curve, not limits.
    """
    point = rate_curve(pair, eps, [n_max])[0]
    return {"sup_est": point.dmax_over_n, "inf_est": point.dmin_over_n}
