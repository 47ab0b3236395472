"""Entanglement monotones built on the max-relative entropy.

E_max(rho) = min over separable sigma of D_max(rho||sigma) is estimated with a
two-sided certificate: an upper bound from an explicit separable ensemble
(reassemblable by the caller) and a convex lower bound from the PPT relaxation,
certified by a feasible point of its dual semidefinite program.  Exactness
claims are confined to 2x2 and 2x3 systems where PPT equals separable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sdp import hermitian_basis, hermitian_coordinates, solve_lmi
from .divergences import d_max, relative_entropy
from .operators import (
    DensityOperator,
    HermitianOperator,
    Spectrum,
    ValidationError,
    _rng,
    hermitian_part,
    partial_trace_matrix,
    random_density,
    random_instrument,
    random_unitary,
)

PPT_EIG_TOL = 1e-9
BARRIER_WEIGHT = 1e-6


@dataclass(frozen=True)
class BipartiteState:
    dims: tuple
    state: DensityOperator

    def __post_init__(self):
        da, db = self.dims
        if da * db != self.state.dim:
            raise ValidationError(f"dims {self.dims} incompatible with operator dim {self.state.dim}")
        if da < 2 or db < 2:
            raise ValidationError("both subsystems must have dimension >= 2")


@dataclass(frozen=True)
class SeparableEnsemble:
    """Convex mixture of product pure states, sum_i w_i |a_i><a_i| (x) |b_i><b_i|."""

    terms: tuple

    def __post_init__(self):
        weights = np.array([w for w, _, _ in self.terms])
        if np.any(weights <= 0):
            raise ValidationError("ensemble weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-10:
            raise ValidationError(f"ensemble weights sum to {weights.sum()}, not 1")
        for _, a, b in self.terms:
            if abs(np.linalg.norm(a) - 1.0) > 1e-10 or abs(np.linalg.norm(b) - 1.0) > 1e-10:
                raise ValidationError("ensemble vectors must be unit norm")

    def assemble(self) -> DensityOperator:
        return DensityOperator.from_matrix(_mixture_matrix(self.terms))


def _mixture_matrix(terms) -> np.ndarray:
    """sum_i w_i |a_i><a_i| (x) |b_i><b_i| as a plain matrix, unvalidated, for
    the inner loops of the solvers."""
    _, a0, b0 = terms[0]
    d = len(a0) * len(b0)
    out = np.zeros((d, d), dtype=complex)
    for w, a, b in terms:
        v = np.kron(a, b)
        out += w * np.outer(v, v.conj())
    return hermitian_part(out)


@dataclass(frozen=True)
class EmaxResult:
    upper_bits: float
    lower_bits: float
    witness: SeparableEnsemble
    gap: float

    def __post_init__(self):
        if self.lower_bits > self.upper_bits + 1e-6:
            raise ValidationError("lower bound exceeds upper bound")
        if self.gap < 0:
            raise ValidationError("gap must be nonnegative")


def _pt_matrix(mat: np.ndarray, dims: tuple, subsystem: str = "B") -> np.ndarray:
    da, db = dims
    four = mat.reshape(da, db, da, db)
    if subsystem == "B":
        four = four.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        four = four.transpose(2, 1, 0, 3)
    else:
        raise ValueError("subsystem must be 'A' or 'B'")
    return four.reshape(da * db, da * db)


def partial_transpose(state: BipartiteState, subsystem: str = "B") -> HermitianOperator:
    return HermitianOperator(_pt_matrix(state.state.mat, state.dims, subsystem))


def is_ppt(state: BipartiteState) -> bool:
    w = np.linalg.eigvalsh(_pt_matrix(state.state.mat, state.dims, "B"))
    return bool(w[0] >= -PPT_EIG_TOL)


# ---------------------------------------------------------------------------
# PPT lower bound: the dual of one linear semidefinite program
# ---------------------------------------------------------------------------

def ppt_emax_lower(state: BipartiteState) -> float:
    """Certified lower bound on E_max from relaxing the separable set to the
    PPT set; equal to E_max in 2x2 and 2x3 systems, where PPT is separable.

    min over PPT states sigma of D_max(rho||sigma) is log2 of
    min{Tr Y : Y >= rho, Y^TB >= 0}, whose dual is
    max{Tr rho Z : Z >= 0, W >= 0, Z + W^TB = I}.  The dual is solved
    directly, as max Tr rho Z over Z >= 0 with W = (I - Z)^TB >= 0, and its
    solution is made exactly feasible: Z is clipped to PSD, W0 = I - Z^TB,
    c = max(0, -lambda_min(W0)), and Z' = Z / (1 + c), W' = (W0 + c I) / (1 + c)
    satisfy Z' + W'^TB = I.  log2 Tr rho Z' is then a lower bound by weak
    duality; it is floored at zero.
    """
    if state.state.dim > 16:
        raise ValidationError("PPT lower bound is limited to total dimension <= 16")
    if is_ppt(state):
        return 0.0
    rm, dims, d = state.state.mat, state.dims, state.state.dim
    basis = hermitian_basis(d)
    eye = np.eye(d)
    # blocks Z >= 0 and I - Z^TB >= 0; the solver's multipliers of these are
    # Y - rho and Y^TB, started from Y = 2 I (rho <= I)
    blocks = ((np.zeros((d, d)), basis),
              (eye, -np.array([_pt_matrix(e, dims, "B") for e in basis])))
    x, _ = solve_lmi(-hermitian_coordinates(basis, rm), blocks,
                     hermitian_coordinates(basis, eye / 2), (2 * eye - rm, 2 * eye))
    z = Spectrum.of(np.tensordot(x, basis, 1)).apply(lambda w: np.clip(w, 0.0, None))
    shift = max(0.0, -float(np.linalg.eigvalsh(eye - _pt_matrix(z, dims, "B"))[0]))
    return math.log2(max(float(np.trace(rm @ z).real) / (1.0 + shift), 1.0))


# ---------------------------------------------------------------------------
# Separable ensemble upper bounds
# ---------------------------------------------------------------------------

def _basis_terms(dims) -> list:
    da, db = dims
    w = 1.0 / (da * db)
    terms = []
    for i in range(da):
        for j in range(db):
            a = np.zeros(da, dtype=complex)
            b = np.zeros(db, dtype=complex)
            a[i] = 1.0
            b[j] = 1.0
            terms.append((w, a, b))
    return terms


def _best_product_state(g: np.ndarray, dims: tuple, sweeps: int = 6) -> tuple:
    """Maximize <a (x) b| G |a (x) b> by alternating top-eigenvector updates.

    Deterministic: the sweeps start from the top eigenvectors of the partial
    traces of G, which keeps the whole search covariant under local unitaries.
    """
    da, db = dims
    g4 = g.reshape(da, db, da, db)
    tr_a = hermitian_part(np.einsum("abad->bd", g4))
    tr_b = hermitian_part(np.einsum("abcb->ac", g4))
    b_init = np.linalg.eigh(tr_a)[1][:, -1]
    a_init = np.linalg.eigh(tr_b)[1][:, -1]
    mb0 = hermitian_part(np.einsum("abcd,a,c->bd", g4, a_init.conj(), a_init))
    starts = (b_init, np.linalg.eigh(mb0)[1][:, -1])
    best = (-math.inf, None, None)
    for b in starts:
        a = None
        for _ in range(sweeps):
            ma = hermitian_part(np.einsum("abcd,b,d->ac", g4, b.conj(), b))
            a = np.linalg.eigh(ma)[1][:, -1]
            mb = hermitian_part(np.einsum("abcd,a,c->bd", g4, a.conj(), a))
            b = np.linalg.eigh(mb)[1][:, -1]
        val = float(np.real(np.conj(np.kron(a, b)) @ g @ np.kron(a, b)))
        if val > best[0]:
            best = (val, a, b)
    return best


def _prune_terms(terms, max_terms: int) -> list:
    terms = [t for t in terms if t[0] > 1e-10]
    terms.sort(key=lambda t: -t[0])
    terms = terms[:max_terms]
    total = sum(w for w, _, _ in terms)
    return [(w / total, a, b) for w, a, b in terms]


def _reweight_lammin(rm: np.ndarray, dims, t: float, terms, steps: int = 25) -> list:
    """Exponentiated-gradient ascent on the mixture weights for
    lambda_min(t sigma - rho), the product vectors held fixed."""
    mats = [np.outer(np.kron(a, b), np.kron(a, b).conj()) for _, a, b in terms]
    w = np.array([wt for wt, _, _ in terms])

    def lammin(weights):
        sigma = sum(float(x) * m for x, m in zip(weights, mats))
        vals, vecs = np.linalg.eigh(hermitian_part(t * sigma - rm))
        return vals[0], vecs[:, 0]

    cur, vec = lammin(w)
    for _ in range(steps):
        grad = np.array([t * float(np.real(vec.conj() @ m @ vec)) for m in mats])
        cand = w * np.exp(2.0 * (grad - grad.max()))
        cand /= cand.sum()
        val, v2 = lammin(cand)
        if val > cur:
            w, cur, vec = cand, val, v2
        else:
            break
    return [(float(x), a, b) for x, (_, a, b) in zip(w, terms) if x > 1e-12]


def _schmidt_terms(rm: np.ndarray, dims: tuple) -> list:
    """Product ensemble from the Schmidt decompositions of the eigenvectors,
    sum_k w_k sum_j s_kj |a_kj b_kj><a_kj b_kj| normalized, with w_k the
    eigenvalues and s_kj the Schmidt coefficients.  A locally covariant
    starting point; for a pure state it is the separable state at which
    D_max attains E_max = 2 log2 sum_j s_j."""
    da, db = dims
    w, v = np.linalg.eigh(rm)
    terms = []
    for k in range(len(w)):
        if w[k] <= 1e-12:
            continue
        u_, s, vt = np.linalg.svd(v[:, k].reshape(da, db))
        terms += [(float(w[k] * s[j]), u_[:, j], vt[j]) for j in range(len(s)) if s[j] > 1e-12]
    total = sum(wt for wt, _, _ in terms)
    return [(wt / total, a, b) for wt, a, b in terms]


def _separable_feasibility(rm: np.ndarray, dims: tuple, t: float, terms,
                           iters: int, max_terms: int):
    """Conditional-gradient ascent of lambda_min(t sigma - rho) over the
    separable set; returns (achieved lambda_min, terms)."""
    terms = list(terms)
    sigma = _mixture_matrix(terms)
    vals, vecs = np.linalg.eigh(hermitian_part(t * sigma - rm))
    cur = vals[0]
    tau = max(0.2 * (vals[-1] - vals[0]), 1e-3)
    eta_grid = (1.0, 0.6, 0.35, 0.2, 0.1, 0.05, 0.02, 0.008, 0.003)
    for it in range(iters):
        if cur >= -1e-10:
            break
        logits = -(vals - vals[0]) / tau
        soft = np.exp(logits)
        soft /= soft.sum()
        g = (vecs * soft) @ vecs.conj().T
        _, a, b = _best_product_state(g, dims)
        pvec = np.kron(a, b)
        pmat = np.outer(pvec, pvec.conj())
        best_eta, best_val = 0.0, cur
        for eta in eta_grid:
            trial = t * ((1.0 - eta) * sigma + eta * pmat) - rm
            val = float(np.linalg.eigvalsh(hermitian_part(trial))[0])
            if val > best_val:
                best_eta, best_val = eta, val
        if best_eta > 0.0:
            terms = [(w * (1.0 - best_eta), av, bv) for w, av, bv in terms]
            terms.append((best_eta, a, b))
            if len(terms) > 2 * max_terms:
                terms = _prune_terms(terms, max_terms)
        else:
            tau *= 0.6
            if tau < 1e-7:
                break
        if (it + 1) % 20 == 0:
            terms = _reweight_lammin(rm, dims, t, terms)
        sigma = _mixture_matrix(terms)
        vals, vecs = np.linalg.eigh(hermitian_part(t * sigma - rm))
        cur = vals[0]
    return cur, _prune_terms(terms, max_terms)


def _ensemble_from_terms(terms) -> SeparableEnsemble:
    fixed = []
    total = sum(w for w, _, _ in terms)
    for w, a, b in terms:
        fixed.append((w / total, a / np.linalg.norm(a), b / np.linalg.norm(b)))
    return SeparableEnsemble(terms=tuple(fixed))


def emax(state: BipartiteState, terms: int = None, restarts: int = 2,
         seed=0, iters: int = 300, initial: list = None) -> EmaxResult:
    """Two-sided E_max estimate: separable-ensemble upper bound by bisection
    plus conditional-gradient feasibility, PPT relaxation lower bound.

    ``initial`` optionally seeds the search with known (weight, a, b) product
    terms, e.g. a decomposition the caller already holds."""
    da, db = state.dims
    rm = state.state.mat
    max_terms = terms if terms is not None else (da * db) ** 2
    rng = _rng(seed)
    if initial is not None:
        base = list(initial)
    else:
        base = _schmidt_terms(rm, state.dims)
        if not d_max(rm, _mixture_matrix(base)).finite:
            base = base + _basis_terms(state.dims)
            base = [(0.5 * w, a, b) for w, a, b in base]
    best_terms = base
    upper = d_max(rm, _mixture_matrix(base)).bits
    lower = ppt_emax_lower(state)
    for restart in range(max(restarts, 1)):
        lo, hi = max(lower - 2e-3, 0.0), upper
        start = list(best_terms) if restart == 0 else _random_product_terms(state.dims, rng, max_terms)
        while hi - lo > 2e-3:
            mid = 0.5 * (lo + hi)
            achieved, cand = _separable_feasibility(rm, state.dims, 2.0**mid,
                                                    start, iters, max_terms)
            start = list(cand)
            if achieved >= -1e-10:
                hi = mid
                exact = d_max(rm, _mixture_matrix(cand)).bits
                if exact < upper:
                    upper, best_terms = exact, cand
            else:
                lo = mid
        # polish: push the achieved upper bound down in small steps
        for _ in range(4):
            target = upper - 1.5e-3
            if target < lower:
                break
            achieved, cand = _separable_feasibility(rm, state.dims, 2.0**target,
                                                    list(best_terms), iters, max_terms)
            if achieved < -1e-10:
                break
            exact = d_max(rm, _mixture_matrix(cand)).bits
            if exact >= upper:
                break
            upper, best_terms = exact, cand
    witness = _ensemble_from_terms(best_terms)
    upper = d_max(rm, witness.assemble().mat).bits
    return EmaxResult(upper_bits=upper, lower_bits=min(lower, upper),
                      witness=witness, gap=max(upper - min(lower, upper), 0.0))


def _random_product_terms(dims, rng, count) -> list:
    da, db = dims
    terms = []
    k = max(count // 2, da * db)
    for _ in range(k):
        a = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        terms.append((1.0 / k, a / np.linalg.norm(a), b / np.linalg.norm(b)))
    return terms


# ---------------------------------------------------------------------------
# Relative entropy of entanglement (upper bound)
# ---------------------------------------------------------------------------

def _rel_ent_objective(rm: np.ndarray, sigma: np.ndarray) -> float:
    d = rm.shape[0]
    mixed = (1.0 - BARRIER_WEIGHT) * sigma + BARRIER_WEIGHT * np.eye(d) / d
    return relative_entropy(rm, mixed).bits


def _log_gradient(rm: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Frechet derivative of Tr[rho log sigma] with respect to sigma, as the
    matrix G with d/ds Tr[rho log(sigma + sH)] = Tr[G H]."""
    d = rm.shape[0]
    mixed = (1.0 - BARRIER_WEIGHT) * sigma + BARRIER_WEIGHT * np.eye(d) / d
    w, v = np.linalg.eigh(hermitian_part(mixed))
    w = np.clip(w, 1e-14, None)
    lw = np.log(w)
    denom = w[:, None] - w[None, :]
    phi = np.where(np.abs(denom) > 1e-12,
                   (lw[:, None] - lw[None, :]) / np.where(np.abs(denom) > 1e-12, denom, 1.0),
                   1.0 / w[:, None])
    inner = v.conj().T @ rm @ v
    return hermitian_part(v @ (phi * inner) @ v.conj().T)


def rel_ent_entanglement(state: BipartiteState, terms: int = None, seed=0,
                         iters: int = 400) -> float:
    """Upper bound on the relative entropy of entanglement: conditional-gradient
    minimization of S(rho||sigma) over separable ensembles."""
    rm = state.state.mat
    da, db = state.dims
    max_terms = terms if terms is not None else (da * db) ** 2
    ens = _basis_terms(state.dims)
    sigma = _mixture_matrix(ens)
    cur = _rel_ent_objective(rm, sigma)
    eta_grid = (1.0, 0.6, 0.35, 0.2, 0.1, 0.05, 0.02, 0.008, 0.003, 0.001)
    for it in range(iters):
        g = _log_gradient(rm, sigma)
        _, a, b = _best_product_state(g, state.dims)
        pvec = np.kron(a, b)
        pmat = np.outer(pvec, pvec.conj())
        best_eta, best_val = 0.0, cur
        for eta in eta_grid:
            val = _rel_ent_objective(rm, (1.0 - eta) * sigma + eta * pmat)
            if val < best_val:
                best_eta, best_val = eta, val
        if best_eta == 0.0:
            break
        ens = [(w * (1.0 - best_eta), av, bv) for w, av, bv in ens]
        ens.append((best_eta, a, b))
        if len(ens) > 2 * max_terms:
            ens = _prune_terms(ens, max_terms)
        sigma = _mixture_matrix(ens)
        cur = _rel_ent_objective(rm, sigma)
    return cur


# ---------------------------------------------------------------------------
# Monotone condition checks on the max-relative entropy itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    violation: float


def _project_block(p: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return p @ mat @ p


def monotone_condition_suite(state: BipartiteState, seed=0, tol: float = 1e-8) -> list:
    """Direct checks of the structural properties of the max-relative entropy
    that drive the entanglement-monotone argument: positivity with equality at
    rho = sigma, unitary invariance, partial-trace monotonicity, the quantum
    instrument inequality, block-diagonal decomposition, and invariance under
    tensoring with a fixed pure state."""
    rng = _rng(seed)
    rm = state.state.mat
    d = state.state.dim
    results = []

    sigma = random_density(d, d, rng.integers(2**32)).mat
    base = d_max(rm, sigma).bits

    # (i) nonnegativity, zero iff equal
    pos_viol = max(-base, 0.0)
    self_val = abs(d_max(rm, rm).bits)
    results.append(ConditionResult("positivity_and_zero_at_equality",
                                   pos_viol <= tol and self_val <= tol,
                                   max(pos_viol, self_val)))

    # (ii) joint unitary invariance
    u = random_unitary(d, rng.integers(2**32))
    rot = d_max(u @ rm @ u.conj().T, u @ sigma @ u.conj().T).bits
    viol = abs(rot - base)
    results.append(ConditionResult("unitary_invariance", viol <= tol, viol))

    # (iii) monotonicity under partial trace
    reduced = d_max(partial_trace_matrix(rm, state.dims, "A"),
                    partial_trace_matrix(sigma, state.dims, "A")).bits
    viol = max(reduced - base, 0.0)
    results.append(ConditionResult("partial_trace_monotone", viol <= tol, viol))

    # (iv) instrument inequality: sum_k p_k D_max(rho_k||sigma_k) <= D_max(rho||sigma)
    # for the normalized outcomes rho_k = V_k rho V_k^dag / p_k, sigma_k likewise
    instrument = random_instrument(d, 2, rng.integers(2**32))
    lhs = 0.0
    for v in instrument.elements:
        ri = v @ rm @ v.conj().T
        si = v @ sigma @ v.conj().T
        alpha = float(np.trace(ri).real)
        beta = float(np.trace(si).real)
        if alpha > 1e-12 and beta > 1e-12:
            lhs += alpha * (d_max(ri, si).bits - math.log2(alpha / beta))
    viol = max(lhs - base, 0.0)
    results.append(ConditionResult("instrument_inequality", viol <= tol, viol))

    # (v) block-orthogonal decomposition: pinching to random orthogonal blocks
    # gives d_max equal to the maximum over the blocks
    u = random_unitary(d, rng.integers(2**32))
    cut = d // 2
    p1 = u[:, :cut] @ u[:, :cut].conj().T
    p2 = u[:, cut:] @ u[:, cut:].conj().T
    rp = _project_block(p1, rm) + _project_block(p2, rm)
    sp = _project_block(p1, sigma) + _project_block(p2, sigma)
    pinched = d_max(rp, sp).bits
    per_block = max(d_max(_project_block(p1, rm), _project_block(p1, sigma)).bits,
                    d_max(_project_block(p2, rm), _project_block(p2, sigma)).bits)
    viol = abs(pinched - per_block)
    results.append(ConditionResult("block_decomposition_max", viol <= tol, viol))

    # (vi) tensoring both arguments with the same pure state changes nothing
    e = np.zeros((2, 2))
    e[0, 0] = 1.0
    viol = abs(d_max(np.kron(rm, e), np.kron(sigma, e)).bits - base)
    results.append(ConditionResult("pure_tensor_invariance", viol <= tol, viol))

    return results
