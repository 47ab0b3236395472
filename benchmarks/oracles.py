"""Independent correctness checks for the benchmark's outputs.

Every reference here is recomputed with scipy, or with plain numpy on
probability vectors, never with qdiv, and never read from a stored copy of an
earlier output.  Where no closed form exists, a check brackets the value
between bounds that the quantity must satisfy.  Each check appends a message
to a problem list; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy.special import gammaln, logsumexp

LN2 = math.log(2.0)
SUPPORT_RTOL = 1e-10


class Problems(list):
    """Collects failed checks as readable messages."""

    def near(self, what: str, got: float, want: float, tol: float):
        if not (math.isfinite(got) and abs(got - want) <= tol):
            self.append(f"{what}: got {got!r}, expected {want!r} within {tol:g}")

    def between(self, what: str, got: float, lo: float, hi: float, tol: float):
        if not (lo - tol <= got <= hi + tol):
            self.append(f"{what}: got {got!r}, outside [{lo!r}, {hi!r}] +- {tol:g}")


def herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def eigh(m: np.ndarray):
    return sla.eigh(herm(m))


def eigvalsh(m: np.ndarray) -> np.ndarray:
    return sla.eigh(herm(m), eigvals_only=True)


def support(m: np.ndarray):
    """Eigenvalues and eigenvectors of a positive operator on its support."""
    w, v = eigh(m)
    keep = w > SUPPORT_RTOL * max(w[-1], 0.0)
    return w[keep], v[:, keep]


def power_on_support(m: np.ndarray, p: float) -> np.ndarray:
    w, v = support(m)
    return (v * w**p) @ v.conj().T


def positive_projector(m: np.ndarray) -> np.ndarray:
    w, v = eigh(m)
    vk = v[:, w > 0]
    return vk @ vk.conj().T


def dmax(rho: np.ndarray, sigma: np.ndarray) -> float:
    """log2 of the largest generalized eigenvalue of (rho, sigma) on supp(sigma)."""
    w, v = support(sigma)
    kernel = np.eye(len(sigma)) - v @ v.conj().T
    if np.abs(eigvalsh(kernel @ rho @ kernel)).max() > 1e-9:
        return math.inf
    top = sla.eigh(herm(v.conj().T @ rho @ v), np.diag(w), eigvals_only=True)[-1]
    return math.log2(top)


def dmin(rho: np.ndarray, sigma: np.ndarray) -> float:
    _, v = support(rho)
    return -math.log2(float(np.trace(v.conj().T @ sigma @ v).real))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr rho (log rho - log sigma) in bits; sigma must have full rank."""
    w = eigvalsh(rho)
    w = w[w > 0]
    entropy_term = float(np.sum(w * np.log(w)))
    cross = float(np.trace(rho @ sla.logm(sigma)).real)
    return (entropy_term - cross) / LN2


def renyi(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    overlap = float(np.trace(power_on_support(rho, alpha)
                             @ power_on_support(sigma, 1.0 - alpha)).real)
    return math.log2(overlap) / (alpha - 1.0)


def chernoff_bracket(rho: np.ndarray, sigma: np.ndarray, points: int = 201) -> tuple:
    """Two-sided bracket on xi = -log2 min_s Tr rho^s sigma^(1-s).

    g(s) = ln Tr rho^s sigma^(1-s) is convex on [0, 1] (rho^0 is the support
    projector).  The smallest grid value bounds min g from above; secant
    lines through neighbouring grid points, extended across each cell, bound
    it from below.
    """
    wr, vr = support(rho)
    ws, vs = support(sigma)
    overlap = np.abs(vr.conj().T @ vs) ** 2
    s = np.linspace(0.0, 1.0, points)
    g = np.array([math.log(float(wr**x @ overlap @ ws ** (1.0 - x))) for x in s])
    slope = np.diff(g) / np.diff(s)
    lower = math.inf
    for i in range(points - 1):
        a, b = s[i], s[i + 1]
        lines = []
        if i > 0:
            lines.append((slope[i - 1], s[i], g[i]))
        if i + 1 < points - 1:
            lines.append((slope[i + 1], s[i + 1], g[i + 1]))
        cands = [a, b]
        if len(lines) == 2:
            (m1, x1, y1), (m2, x2, y2) = lines
            if m1 != m2:
                cross = (y2 - y1 + m1 * x1 - m2 * x2) / (m1 - m2)
                if a < cross < b:
                    cands.append(cross)
        for x in cands:
            lower = min(lower, max(y + m * (x - x0) for m, x0, y in lines))
    return -g.min() / LN2, -lower / LN2


def ht_dmax_lower(rho: np.ndarray, sigma: np.ndarray, eps: float, grid) -> float:
    """Hypothesis-testing lower bound on the eps-smooth D_max.

    For any projector P and any rho' with ||rho' - rho||_1 <= eps and
    rho' <= 2^lam sigma, Tr P rho - eps <= 2^lam Tr P sigma.  The bound is the
    best value over the projectors {rho > 2^g sigma} for g on the grid.
    """
    best = -math.inf
    for g in grid:
        p = positive_projector(rho - 2.0**g * sigma)
        a = float(np.trace(p @ rho).real)
        b = float(np.trace(p @ sigma).real)
        if a > eps and b > 0:
            best = max(best, math.log2((a - eps) / b))
    return best


def dh_upper(rho: np.ndarray, sigma: np.ndarray, eps: float, grid) -> float:
    """Upper bound on the hypothesis-testing divergence
    D_H^eps = -log2 min{Tr Q sigma : 0 <= Q <= I, Tr Q rho >= 1 - eps}.

    Weak duality: for every mu >= 0, Tr Q sigma >= mu (1 - eps) - Tr(mu rho - sigma)_+.
    The grid holds log2(1/mu); the best grid point is refined once.
    """
    def dual(g):
        mu = 2.0 ** (-g)
        return mu * (1.0 - eps) - float(np.clip(eigvalsh(mu * rho - sigma), 0.0, None).sum())

    grid = np.asarray(grid, dtype=float)
    vals = [dual(g) for g in grid]
    k = int(np.argmax(vals))
    step = grid[1] - grid[0]
    fine = np.linspace(grid[k] - step, grid[k] + step, 33)
    best = max(max(vals), max(dual(g) for g in fine))
    return -math.log2(best) if best > 0 else math.inf


def tensor_power(m: np.ndarray, n: int) -> np.ndarray:
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


# ---------------------------------------------------------------------------
# Commuting pairs: type classes computed from scratch
# ---------------------------------------------------------------------------

def type_class_logs(p: np.ndarray, q: np.ndarray, n: int) -> tuple:
    """Natural-log masses (log P_k, log Q_k) of every type class of n draws."""
    d = len(p)
    grids = np.meshgrid(*[np.arange(n + 1)] * (d - 1), indexing="ij")
    head = np.stack([g.ravel() for g in grids], axis=1)
    head = head[head.sum(axis=1) <= n]
    counts = np.column_stack([head, n - head.sum(axis=1)]).astype(float)
    logmult = gammaln(n + 1.0) - gammaln(counts + 1.0).sum(axis=1)
    return logmult + counts @ np.log(p), logmult + counts @ np.log(q)


def classical_smooth_dmax(log_p: np.ndarray, log_q: np.ndarray, eps: float) -> float:
    """Smallest lam (bits) with sum_k (P_k - 2^lam Q_k)_+ <= eps, exactly.

    On the segment where the classes with ratio above 2^lam form the set S,
    the cost is P_S - 2^lam Q_S, so the root is log2(P_S - eps) - log2 Q_S
    on the segment whose ends bracket it.  Q_S stays in the log domain.
    """
    ratio = log_p - log_q
    order = np.argsort(-ratio)
    r = ratio[order]
    cum_p = np.cumsum(np.exp(log_p[order]))
    cum_log_q = np.logaddexp.accumulate(log_q[order])
    next_r = np.append(r[1:], -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.log(cum_p - eps) - cum_log_q
    ok = (cum_p > eps) & (root <= r + 1e-12) & (root >= next_r - 1e-12)
    return float(root[np.flatnonzero(ok)[0]]) / LN2


def classical_smooth_dmin_upper(log_p: np.ndarray, log_q: np.ndarray, eps: float) -> float:
    """Upper bound on the deletion-smoothed D_min: delete at most eps of
    P-mass, lowest P/Q ratio first, the last class fractionally.  Sequences of
    a class share their probabilities, so any deletion set of mass <= eps
    leaves at least this much Q-mass."""
    order = np.argsort(log_p - log_q)
    p = np.exp(log_p[order])
    lq = log_q[order]
    cum = np.cumsum(p)
    full = int(np.searchsorted(cum, eps, side="right"))
    if full >= len(p):
        return math.inf
    frac = (eps - (cum[full - 1] if full else 0.0)) / p[full]
    partial = math.log1p(-frac) + lq[full]
    rest = logsumexp(lq[full + 1:]) if full + 1 < len(p) else -math.inf
    return -float(np.logaddexp(rest, partial)) / LN2


# ---------------------------------------------------------------------------
# Per-workload checks: check(workload, input, output) -> Problems
# ---------------------------------------------------------------------------

def check_oneshot(w, inp, out) -> Problems:
    p = Problems()
    r, s = inp.data["rho"].mat, inp.data["sigma"].mat
    d_max, d_min = dmax(r, s), dmin(r, s)
    p.near("d_max", out["d_max"], d_max, 1e-7)
    p.near("d_min", out["d_min"], d_min, 1e-7)
    p.near("relative entropy", out["rel"], relative_entropy(r, s), 1e-7)
    p.near("renyi", out["renyi"], renyi(r, s, w.ALPHA), 1e-7)
    p.between("chernoff", out["chernoff"], *chernoff_bracket(r, s), 1e-7)
    if not out["sandwich_ok"]:
        p.append("sandwich: the report says d_min <= S <= d_max fails")
    smoothed = out["smoothed"]
    p.between("certificate min eigenvalue", eigvalsh(smoothed)[0], 0.0, math.inf, 1e-10)
    p.between("certificate trace distance",
              float(np.abs(eigvalsh(smoothed - r)).sum()), 0.0, w.EPS, 1e-7)
    p.between("certificate D_max", dmax(smoothed, s), -math.inf, out["dmax_upper"], 1e-7)
    grid = np.linspace(d_min - 1.0, d_max + 1.0, 48)
    p.between("smooth D_max upper", out["dmax_upper"],
              ht_dmax_lower(r, s, w.EPS, grid), d_max, 1e-7)
    p.between("smooth D_min lower", out["dmin_lower"], d_min, dh_upper(r, s, w.EPS, grid), 1e-7)
    return p


def exact_emax(inp):
    """Known E_max: 1 bit for the Bell state, 2 log2 sum_i sqrt(lambda_i) for
    a pure state with Schmidt coefficients lambda_i, 0 for separable states."""
    if inp.kind == "bell":
        return 1.0
    if inp.kind == "pure":
        lam = np.clip(eigvalsh(inp.data["rho_a"]), 0.0, None)
        return 2.0 * math.log2(float(np.sqrt(lam).sum()))
    if inp.kind == "separable":
        return 0.0
    return None


def check_bipartite(w, inp, out) -> Problems:
    p = Problems()
    r, prod = inp.data["rho"].mat, inp.data["product"].mat
    p.between("E_max lower bound", out["lower"], 0.0, out["upper"], 1e-9)
    witness = np.zeros((4, 4), dtype=complex)
    for weight, a, b in out["witness"]:
        v = np.kron(a, b)
        witness += weight * np.outer(v, v.conj())
    p.near("E_max upper vs witness", out["upper"], dmax(r, witness), 1e-6)
    exact = exact_emax(inp)
    if exact is not None:
        p.between("E_max bracket", exact, out["lower"], out["upper"], 1e-6)
    imax = dmax(r, prod)
    p.between("E_max lower vs I_max", out["lower"], -math.inf, imax, 1e-9)
    grid = np.linspace(dmin(r, prod) - 1.0, imax + 1.0, 48)
    p.between("smooth I_max", out["smooth_imax"], ht_dmax_lower(r, prod, w.EPS, grid), imax, 1e-5)
    return p


def check_rates_dense(w, inp, out) -> Problems:
    p = Problems()
    pair = inp.data["pair"]
    r, s = pair.rho.mat, pair.sigma.mat
    if pair.commuting:
        p.append("input: the pair commutes, so the dense path is not exercised")
    if [pt[0] for pt in out] != w.N_LIST:
        p.append(f"rate curve: covers n = {[pt[0] for pt in out]}")
    dmax1, dmin1 = dmax(r, s), dmin(r, s)
    rel = relative_entropy(r, s)
    for n, dmax_n, dmin_n, rel_n in out:
        rn, sn = tensor_power(r, n), tensor_power(s, n)
        grid = np.linspace(n * dmin1 - 1.0, n * dmax1 + 1.0, 48)
        p.between(f"n={n} smooth D_max", dmax_n * n,
                  ht_dmax_lower(rn, sn, w.EPS, grid), n * dmax1, 1e-6)
        p.between(f"n={n} smooth D_min", dmin_n * n, n * dmin1,
                  dh_upper(rn, sn, w.EPS, grid), 1e-6)
        p.near(f"n={n} relative entropy", rel_n, rel, 1e-7)
    return p


def check_rates_types(w, inp, out) -> Problems:
    pr = Problems()
    p, q, n_list = inp.data["p"], inp.data["q"], inp.data["n_list"]
    if not inp.data["pair"].commuting:
        pr.append("input: a commuting pair is reported as non-commuting")
    if [pt[0] for pt in out] != n_list:
        pr.append(f"rate curve: covers n = {[pt[0] for pt in out]}")
    rel = float(np.sum(p * np.log2(p / q)))
    dmin1 = -math.log2(float(q[p > 0].sum()))
    for n, dmax_n, dmin_n, rel_n in out:
        log_p, log_q = type_class_logs(p, q, n)
        pr.near(f"n={n} smooth D_max", dmax_n * n, classical_smooth_dmax(log_p, log_q, w.EPS), 1e-6)
        pr.between(f"n={n} smooth D_min", dmin_n * n, n * dmin1,
                   classical_smooth_dmin_upper(log_p, log_q, w.EPS), 1e-6)
        pr.near(f"n={n} relative entropy", rel_n, rel, 1e-9)
    return pr


CHECKS = {
    "oneshot": check_oneshot,
    "bipartite": check_bipartite,
    "rates_dense": check_rates_dense,
    "rates_types": check_rates_types,
}
