"""Randomized property suite.

Every structural inequality and identity the library relies on, checked on
seeded random instances.  Deterministic given the seed: trial t of check k
draws from default_rng([seed, k, t]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import divergences as dv
from . import entanglement as ent
from . import operators as op
from . import smoothing as sm
from . import spectral as sp


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    trials: int = 100
    dims: tuple = (2, 3, 4)

    def __post_init__(self):
        if self.trials < 1:
            raise op.ValidationError("trials must be >= 1")
        if any(d < 2 for d in self.dims):
            raise op.ValidationError("every dim must be >= 2")


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    failures: int
    worst_violation: float


@dataclass(frozen=True)
class SuiteReport:
    results: tuple
    passed: bool

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": r.name, "trials": r.trials, "failures": r.failures,
                 "worst_violation": r.worst_violation}
                for r in self.results
            ],
        }


def _tr(mat) -> float:
    return float(np.trace(mat).real)


def _rand_pair_full(rng, dim):
    rho = op.random_density(dim, dim, rng).mat
    sigma = op.random_density(dim, dim, rng).mat
    return rho, sigma


def _rand_commuting_probs(rng, dim, floor=0.05):
    p = rng.dirichlet(np.ones(dim))
    q = rng.dirichlet(np.ones(dim))
    p = np.clip(p, floor, None)
    q = np.clip(q, floor, None)
    return p / p.sum(), q / q.sum()


def _commuting_pair(rng, dim):
    p, q = _rand_commuting_probs(rng, dim)
    u = op.random_unitary(dim, rng)
    rho = op.DensityOperator.from_matrix(u @ np.diag(p).astype(complex) @ u.conj().T)
    sigma = op.DensityOperator.from_matrix(u @ np.diag(q).astype(complex) @ u.conj().T)
    return sp.IIDPair(rho=rho, sigma=sigma)


# --------------------------- operator core -------------------------------

def chk_projector_trace_bound(rng, dim):
    a = op.random_hermitian(dim, rng).mat
    b = op.random_hermitian(dim, rng).mat
    p = op.random_effect(dim, rng).mat
    diff = a - b
    val = _tr(p @ diff)
    worst = -math.inf
    for rel_hi, rel_lo in ((">=", "<="), (">", "<")):
        hi = _tr(op.compare_projector(a, b, rel_hi).mat @ diff)
        lo = _tr(op.compare_projector(a, b, rel_lo).mat @ diff)
        worst = max(worst, val - hi, lo - val)
    return worst


def chk_dominated_overlap_bound(rng, dim):
    rho = op.random_density(dim, dim, rng).mat
    omega = op.random_density(dim, dim, rng).mat
    worst = -math.inf
    for gamma in (-1.0, 0.0, 0.5, 2.0):
        proj = op.compare_projector(rho, (2.0**gamma) * omega, ">=").mat
        worst = max(worst, _tr(proj @ omega) - 2.0**(-gamma))
    return worst


def chk_channel_projector_monotone(rng, dim):
    a = op.random_hermitian(dim, rng).mat
    b = op.random_hermitian(dim, rng).mat
    chan = op.random_channel(dim, dim, 2, rng)
    ta = op.apply_channel_matrix(chan, a)
    tb = op.apply_channel_matrix(chan, b)
    lhs = _tr(op.compare_projector(ta, tb, ">=").mat @ (ta - tb))
    rhs = _tr(op.compare_projector(a, b, ">=").mat @ (a - b))
    return lhs - rhs


def chk_trace_ball_overlap(rng, dim):
    rho, sigma = _rand_pair_full(rng, dim)
    eps = op.trace_distance(rho, sigma)
    p = op.random_effect(dim, rng).mat
    return _tr(p @ (rho - sigma)) - eps


def chk_gentle_measurement(rng, dim):
    rho = op.random_density(dim, dim, rng).mat
    lam = op.random_effect(dim, rng).mat
    delta = max(1.0 - _tr(rho @ lam), 0.0)
    root = op.Spectrum.of(lam).apply(lambda w: np.sqrt(np.clip(w, 0.0, None)))
    dist = op.trace_distance(rho, root @ rho @ root)
    return dist - 2.0 * math.sqrt(delta)


def chk_fidelity_chain(rng, dim):
    r1 = op.random_density(dim, dim, rng)
    r2 = op.random_density(dim, dim, rng)
    fid = op.fidelity(r1, r2)
    td = op.trace_distance(r1.mat, r2.mat)
    mid = math.sqrt(max(1.0 - fid * fid, 0.0))
    return max(0.5 * td - mid, mid - math.sqrt(max(2.0 * (1.0 - fid), 0.0)))


def chk_trace_distance_triangle(rng, dim):
    a, b = _rand_pair_full(rng, dim)
    c = op.random_density(dim, dim, rng).mat
    return op.trace_distance(a, c) - op.trace_distance(a, b) - op.trace_distance(b, c)


# ----------------------------- divergences -------------------------------

def chk_dmin_le_dmax(rng, dim):
    rho, sigma = _rand_pair_full(rng, dim)
    return dv.d_min(rho, sigma).bits - dv.d_max(rho, sigma).bits


def chk_divergence_nonnegativity(rng, dim):
    rho, sigma = _rand_pair_full(rng, dim)
    return max(-dv.d_min(rho, sigma).bits, -dv.d_max(rho, sigma).bits,
               abs(dv.d_max(rho, rho).bits), abs(dv.d_min(rho, sigma).bits))


def chk_cptp_monotonicity(rng, dim):
    rho, sigma = _rand_pair_full(rng, dim)
    chan = op.random_channel(dim, dim, 2, rng)
    tr_ = op.apply_channel_matrix(chan, rho)
    ts = op.apply_channel_matrix(chan, sigma)
    return max(dv.d_max(tr_, ts).bits - dv.d_max(rho, sigma).bits,
               dv.d_min(tr_, ts).bits - dv.d_min(rho, sigma).bits)


def chk_dmin_joint_convexity(rng, dim):
    weights = rng.dirichlet(np.ones(3))
    pairs = [_rand_pair_full(rng, dim) for _ in range(3)]
    mix_r = sum(w * r for w, (r, _) in zip(weights, pairs))
    mix_s = sum(w * s for w, (_, s) in zip(weights, pairs))
    rhs = sum(w * dv.d_min(r, s).bits for w, (r, s) in zip(weights, pairs))
    return dv.d_min(mix_r, mix_s).bits - rhs


def chk_dmax_mixture_bound(rng, dim):
    weights = rng.dirichlet(np.ones(3))
    pairs = [_rand_pair_full(rng, dim) for _ in range(3)]
    mix_r = sum(w * r for w, (r, _) in zip(weights, pairs))
    mix_s = sum(w * s for w, (_, s) in zip(weights, pairs))
    rhs = max(dv.d_max(r, s).bits for r, s in pairs)
    return dv.d_max(mix_r, mix_s).bits - rhs


def chk_relative_entropy_sandwich(rng, dim):
    rho, sigma = _rand_pair_full(rng, dim)
    rel = dv.relative_entropy(rho, sigma).bits
    return max(dv.d_min(rho, sigma).bits - rel, rel - dv.d_max(rho, sigma).bits)


def chk_divergence_unitary_invariance(rng, dim):
    rho, sigma = _rand_pair_full(rng, dim)
    u = op.random_unitary(dim, rng)
    ur, us = u @ rho @ u.conj().T, u @ sigma @ u.conj().T
    return max(abs(dv.d_max(ur, us).bits - dv.d_max(rho, sigma).bits),
               abs(dv.d_min(ur, us).bits - dv.d_min(rho, sigma).bits))


def chk_dmax_min_eig_bound(rng, dim):
    rho, sigma = _rand_pair_full(rng, dim)
    w = np.linalg.eigvalsh(sigma)
    mu_min = float(w[w > 1e-10 * w[-1]][0])
    return dv.d_max(rho, sigma).bits - (-math.log2(mu_min))


def chk_dmin_trace_distance_bound(rng, dim):
    rho, sigma = _rand_pair_full(rng, dim)
    td = op.trace_distance(rho, sigma)
    overlap = _tr(op.support_projector(rho).mat @ sigma)
    lower = 1.0 - 0.5 * td
    viol_overlap = lower - overlap
    viol_dmin = -math.inf
    if lower > 0:
        viol_dmin = dv.d_min(rho, sigma).bits - (-math.log2(lower))
    return max(viol_overlap, viol_dmin)


def chk_dmax_three_forms(rng, dim):
    rho, sigma = _rand_pair_full(rng, dim)
    f1, f2, f3 = dv.d_max_forms(rho, sigma)
    vals = (f1.bits, f2.bits, f3.bits)
    return max(vals) - min(vals)


def chk_renyi_limit_trend(rng, dim):
    rank = dim if rng.integers(2) else dim - 1
    rho = op.random_density(dim, max(rank, 1), rng).mat
    sigma = op.random_density(dim, dim, rng).mat
    dmin = dv.d_min(rho, sigma).bits
    diffs = [abs(dv.renyi_relative(rho, sigma, a).bits - dmin)
             for a in (1e-2, 1e-3, 1e-4)]
    return max(diffs[1] - diffs[0], diffs[2] - diffs[1])


def chk_chernoff_ge_dmin(rng, dim):
    rho, sigma = _rand_pair_full(rng, dim)
    return dv.d_min(rho, sigma).bits - dv.chernoff_bound(rho, sigma).bits


def chk_mutual_min_le_max(rng, dim):
    rho = op.random_pure_bipartite(2, dim, rng)
    mixed = op.DensityOperator.from_matrix(
        0.7 * rho.mat + 0.3 * np.eye(2 * dim) / (2 * dim))
    dims = (2, dim)
    return dv.mutual_min(mixed.mat, dims).bits - dv.mutual_max(mixed.mat, dims).bits


def chk_conditional_entropy_order(rng, dim):
    rho = op.random_density(2 * dim, 2 * dim, rng).mat
    sigma_b = op.random_density(dim, dim, rng).mat
    dims = (2, dim)
    return dv.h_min_cond(rho, sigma_b, dims) - dv.h_max_cond(rho, sigma_b, dims)


# ------------------------------ smoothing --------------------------------

def chk_smooth_zero_reduction(rng, dim):
    rho = op.random_density(dim, dim, rng)
    sigma = op.random_density(dim, dim, rng)
    dmax = dv.d_max(rho.mat, sigma.mat).bits
    dmin = dv.d_min(rho.mat, sigma.mat).bits
    up = sm.smooth_dmax_upper(rho, sigma, 1e-9).lambda_bits
    low = sm.smooth_dmin_lower(rho, sigma, 1e-9)
    return max(abs(up - dmax), abs(low - dmin))


def chk_smooth_eps_monotonicity(rng, dim):
    rho = op.random_density(dim, dim, rng)
    sigma = op.random_density(dim, dim, rng)
    up_small = sm.smooth_dmax_upper(rho, sigma, 0.05).lambda_bits
    up_big = sm.smooth_dmax_upper(rho, sigma, 0.2).lambda_bits
    low_small = sm.smooth_dmin_lower(rho, sigma, 0.05)
    low_big = sm.smooth_dmin_lower(rho, sigma, 0.2)
    return max(up_big - up_small, low_small - low_big)


def chk_smoothing_certificate(rng, dim):
    rho = op.random_density(dim, dim, rng)
    sigma = op.random_density(dim, dim, rng)
    lam = dv.d_max(rho.mat, sigma.mat).bits - 0.3
    try:
        cert = sm.lemma5_smooth(rho, sigma, lam)
    except sm.CertificateError:
        return math.inf
    return dv.d_max(cert.smoothed.mat, sigma.mat).bits - lam


def chk_smoothing_budget(rng, dim):
    rho = op.random_density(dim, dim, rng)
    sigma = op.random_density(dim, dim, rng)
    eps = 0.2
    bound = sm.smooth_dmax_upper(rho, sigma, eps)
    excess = sm._excess_mass(rho.mat, sigma.mat, bound.lambda_bits)
    return math.sqrt(8.0 * max(excess, 0.0)) - eps


def chk_smooth_order(rng, dim):
    rho = op.random_density(dim, dim, rng)
    sigma = op.random_density(dim, dim, rng)
    dmax = dv.d_max(rho.mat, sigma.mat).bits
    return max(sm.smooth_dmin_lower(rho, sigma, 0.3) - dmax,
               sm.smooth_dmax_upper(rho, sigma, 0.3).lambda_bits - dmax)


def chk_smooth_exact_classical_crosscheck(rng, dim):
    d = min(dim, 4)
    p, q = _rand_commuting_probs(rng, d)
    eps = 0.2
    rho = op.DensityOperator.from_matrix(np.diag(p).astype(complex))
    sigma = op.DensityOperator.from_matrix(np.diag(q).astype(complex))
    general = sm.smooth_dmax_exact(rho, sigma, eps)
    oracle = sm.smooth_dmax_exact_classical(p, q, eps)
    return abs(general - oracle)


# ----------------------------- entanglement ------------------------------

def _random_two_qubit(rng):
    return ent.BipartiteState(dims=(2, 2),
                              state=op.random_density(4, 4, rng))


def _monotone_violation(rng, index):
    state = _random_two_qubit(rng)
    return ent.monotone_condition_suite(state, seed=rng)[index].violation


def chk_dmax_positivity_zero_equality(rng, dim):
    return _monotone_violation(rng, 0)


def chk_dmax_unitary_invariance(rng, dim):
    return _monotone_violation(rng, 1)


def chk_dmax_partial_trace_monotone(rng, dim):
    return _monotone_violation(rng, 2)


def chk_dmax_instrument_inequality(rng, dim):
    return _monotone_violation(rng, 3)


def chk_dmax_block_decomposition(rng, dim):
    return _monotone_violation(rng, 4)


def chk_dmax_pure_tensor_invariance(rng, dim):
    return _monotone_violation(rng, 5)


def _random_separable_terms(rng, k=4):
    terms = []
    w = rng.dirichlet(np.ones(k))
    for i in range(k):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        terms.append((float(w[i]), a / np.linalg.norm(a), b / np.linalg.norm(b)))
    return terms


def chk_emax_separable_zero(rng, dim):
    terms = _random_separable_terms(rng)
    state = ent.BipartiteState(dims=(2, 2),
                               state=ent.SeparableEnsemble(tuple(terms)).assemble())
    res = ent.emax(state)
    return max(res.upper_bits - 1e-6, -1e-6 - res.lower_bits)


def chk_emax_relent_order(rng, dim):
    state = _random_two_qubit(rng)
    res = ent.emax(state)
    rel = ent.rel_ent_entanglement(state)
    return rel - res.upper_bits - 1.5e-6


def chk_ppt_lower_le_upper(rng, dim):
    state = _random_two_qubit(rng)
    res = ent.emax(state)
    return res.lower_bits - res.upper_bits


def chk_emax_local_unitary_invariance(rng, dim):
    state = _random_two_qubit(rng)
    u = np.kron(op.random_unitary(2, rng), op.random_unitary(2, rng))
    rotated = ent.BipartiteState(
        dims=(2, 2),
        state=op.DensityOperator.from_matrix(u @ state.state.mat @ u.conj().T))
    res1, res2 = ent.emax(state), ent.emax(rotated)
    return max(abs(res2.upper_bits - res1.upper_bits),
               abs(res1.lower_bits - res2.lower_bits)) - 1e-6


def chk_emax_local_channel_nonincrease(rng, dim):
    state = _random_two_qubit(rng)
    ca = op.random_channel(2, 2, 2, rng)
    cb = op.random_channel(2, 2, 2, rng)
    kraus = [np.kron(ka, kb) for ka in ca.kraus for kb in cb.kraus]
    out = sum(k @ state.state.mat @ k.conj().T for k in kraus)
    mapped = ent.BipartiteState(dims=(2, 2),
                                state=op.DensityOperator.from_matrix(out))
    return ent.emax(mapped).upper_bits - ent.emax(state).upper_bits - 1e-6


# ------------------------------- spectral --------------------------------

def chk_spectral_overlap_bound(rng, dim):
    rho = op.random_density(2, 2, rng)
    sigma = op.random_density(2, 2, rng)
    pair = sp.IIDPair(rho=rho, sigma=sigma)
    worst = -math.inf
    for gamma in (0.0, 0.3, 1.0):
        lhs, bound = sp.lemma2_bound_check(pair, 2, gamma)
        worst = max(worst, lhs - bound)
    return worst


def chk_spectral_path_agreement(rng, dim):
    pair = _commuting_pair(rng, 2)
    worst = -math.inf
    for n in (2, 3):
        rho_n, sigma_n = (x.mat for x in sp._n_copy_pair(pair, n))
        for gamma in (-0.5, 0.2, 1.0):
            # the dense path of a non-commuting pair, as an oracle
            proj = op.compare_projector(rho_n, 2.0 ** (n * gamma) * sigma_n).mat
            dense = max(float(np.trace(proj @ rho_n).real), 0.0)
            worst = max(worst, abs(sp.spectral_trace(pair, n, gamma) - dense))
    return worst


def chk_rate_sandwich_small_eps(rng, dim):
    pair = _commuting_pair(rng, min(dim, 3))
    rel = dv.relative_entropy(pair.rho.mat, pair.sigma.mat).bits
    worst = -math.inf
    for point in sp.rate_curve(pair, 1e-7, [1, 2, 3]):
        worst = max(worst,
                    point.dmin_over_n - rel - 1e-6,
                    rel - point.dmax_over_n - 2e-6)
    return worst


def chk_relative_entropy_additivity(rng, dim):
    rho = op.random_density(2, 2, rng)
    sigma = op.random_density(2, 2, rng)
    rel = dv.relative_entropy(rho.mat, sigma.mat).bits
    worst = -math.inf
    for n in (2, 3):
        rn = sp.tensor_power(rho, n)
        sn = sp.tensor_power(sigma, n)
        worst = max(worst, abs(dv.relative_entropy(rn.mat, sn.mat).bits - n * rel))
    return worst


def chk_rate_order_small_eps(rng, dim):
    pair = _commuting_pair(rng, min(dim, 3))
    est = sp.divergence_rate_estimate(pair, 1e-7, 4)
    return est["inf_est"] - est["sup_est"] - 1e-6


# ------------------------------- registry --------------------------------

# (name, function, tolerance, trials divisor)
CHECKS = (
    ("projector_trace_bound", chk_projector_trace_bound, 1e-9, 1),
    ("dominated_overlap_bound", chk_dominated_overlap_bound, 1e-9, 1),
    ("channel_projector_monotone", chk_channel_projector_monotone, 1e-9, 1),
    ("trace_ball_overlap", chk_trace_ball_overlap, 1e-9, 1),
    ("gentle_measurement", chk_gentle_measurement, 1e-9, 1),
    ("fidelity_chain", chk_fidelity_chain, 1e-9, 1),
    ("trace_distance_triangle", chk_trace_distance_triangle, 1e-9, 1),
    ("dmin_le_dmax", chk_dmin_le_dmax, 1e-8, 1),
    ("divergence_nonnegativity", chk_divergence_nonnegativity, 1e-8, 1),
    ("cptp_monotonicity", chk_cptp_monotonicity, 1e-8, 1),
    ("dmin_joint_convexity", chk_dmin_joint_convexity, 1e-8, 1),
    ("dmax_mixture_bound", chk_dmax_mixture_bound, 1e-8, 1),
    ("relative_entropy_sandwich", chk_relative_entropy_sandwich, 1e-8, 1),
    ("divergence_unitary_invariance", chk_divergence_unitary_invariance, 1e-9, 1),
    ("dmax_min_eig_bound", chk_dmax_min_eig_bound, 1e-8, 1),
    ("dmin_trace_distance_bound", chk_dmin_trace_distance_bound, 1e-8, 1),
    ("dmax_three_forms", chk_dmax_three_forms, 1e-8, 1),
    ("renyi_limit_trend", chk_renyi_limit_trend, 1e-6, 1),
    ("chernoff_ge_dmin", chk_chernoff_ge_dmin, 1e-9, 1),
    ("mutual_min_le_max", chk_mutual_min_le_max, 1e-8, 1),
    ("conditional_entropy_order", chk_conditional_entropy_order, 1e-8, 1),
    ("smooth_zero_reduction", chk_smooth_zero_reduction, 1e-5, 2),
    ("smooth_eps_monotonicity", chk_smooth_eps_monotonicity, 1e-5, 2),
    ("smoothing_certificate", chk_smoothing_certificate, 1e-7, 1),
    ("smoothing_budget", chk_smoothing_budget, 1e-7, 1),
    ("smooth_order", chk_smooth_order, 1e-6, 2),
    ("smooth_exact_classical_crosscheck", chk_smooth_exact_classical_crosscheck, 1e-8, 10),
    ("dmax_positivity_zero_equality", chk_dmax_positivity_zero_equality, 1e-8, 1),
    ("dmax_unitary_invariance", chk_dmax_unitary_invariance, 1e-8, 1),
    ("dmax_partial_trace_monotone", chk_dmax_partial_trace_monotone, 1e-8, 1),
    ("dmax_instrument_inequality", chk_dmax_instrument_inequality, 1e-8, 1),
    ("dmax_block_decomposition", chk_dmax_block_decomposition, 1e-8, 1),
    ("dmax_pure_tensor_invariance", chk_dmax_pure_tensor_invariance, 1e-8, 1),
    ("emax_separable_zero", chk_emax_separable_zero, 0.0, 5),
    ("emax_relent_order", chk_emax_relent_order, 0.0, 50),
    ("ppt_lower_le_upper", chk_ppt_lower_le_upper, 1e-6, 5),
    ("emax_local_unitary_invariance", chk_emax_local_unitary_invariance, 0.0, 5),
    ("emax_local_channel_nonincrease", chk_emax_local_channel_nonincrease, 0.0, 5),
    ("spectral_overlap_bound", chk_spectral_overlap_bound, 1e-9, 1),
    ("spectral_path_agreement", chk_spectral_path_agreement, 1e-8, 2),
    ("rate_sandwich_small_eps", chk_rate_sandwich_small_eps, 0.0, 2),
    ("relative_entropy_additivity", chk_relative_entropy_additivity, 1e-9, 2),
    ("rate_order_small_eps", chk_rate_order_small_eps, 0.0, 2),
)


def run_suite(config: SuiteConfig) -> SuiteReport:
    results = []
    for idx, (name, fn, tol, divisor) in enumerate(CHECKS):
        trials = max(1, config.trials // divisor)
        failures = 0
        worst = -math.inf
        for trial in range(trials):
            rng = np.random.default_rng([config.seed, idx, trial])
            dim = config.dims[trial % len(config.dims)]
            violation = float(fn(rng, dim))
            worst = max(worst, violation)
            if violation > tol:
                failures += 1
        results.append(CheckResult(name=name, trials=trials,
                                   failures=failures, worst_violation=worst))
    results.sort(key=lambda r: r.name)
    passed = all(r.failures == 0 for r in results)
    return SuiteReport(results=tuple(results), passed=passed)
