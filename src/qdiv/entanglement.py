"""Entanglement monotones built on the max-relative entropy.

E_max(rho) = min over separable sigma of D_max(rho||sigma) is estimated with a
two-sided certificate: an upper bound from an explicit separable ensemble
(reassemblable by the caller) and a convex lower bound from the PPT relaxation.
The relaxation is one semidefinite program, solved once: its primal optimum is
the PPT state nearest rho in D_max, and its dual multipliers, made exactly
feasible, certify the lower bound.  In 2x2, where PPT equals separable, the
ensemble is that PPT optimum itself, decomposed into at most four product
states, and the gap is below 2e-7 bits.  Larger systems build the ensemble by
column generation: each round solves one semidefinite program for the weights
of the product states held so far, and its dual prices the next product state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sdp import SolveStats, SolverError, hermitian_basis, hermitian_coordinates, solve_lmi
from .divergences import d_max
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
REL_ENT_ITERS = 400
MONOTONE_TOL = 1e-8  # bits
# column generation for E_max beyond 2x2
EMAX_ROUNDS = 80
COLUMN_START = 1e-2
PRICE_MARGIN = 1e-6   # above the solver's FEAS_RTOL of 1e-7
DROP_RTOL = 1e-8
KEEP_ROUNDS = 10
GAP_STOP = 1e-9       # bits


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


def _pt_matrix(mat: np.ndarray, dims: tuple) -> np.ndarray:
    da, db = dims
    return mat.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)


def partial_transpose(state: BipartiteState) -> HermitianOperator:
    """The partial transpose on subsystem B."""
    return HermitianOperator(_pt_matrix(state.state.mat, state.dims))


def is_ppt(state: BipartiteState) -> bool:
    w = np.linalg.eigvalsh(_pt_matrix(state.state.mat, state.dims))
    return bool(w[0] >= -PPT_EIG_TOL)


# ---------------------------------------------------------------------------
# PPT lower bound: one linear semidefinite program and its dual multipliers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PPTBound:
    """The PPT relaxation of E_max: the certified lower bound in bits, the
    PPT state sigma* that attains it, and the solve's SolveStats (None when
    the input is PPT and no solve runs)."""

    lower_bits: float
    optimum: np.ndarray
    stats: SolveStats | None


def ppt_emax_lower(state: BipartiteState) -> PPTBound:
    """Certified lower bound on E_max from relaxing the separable set to the
    PPT set; equal to E_max in 2x2 and 2x3 systems, where PPT is separable.
    Limited to total dimension d_A d_B <= 16 (ValidationError beyond).

    min over PPT states sigma of D_max(rho||sigma) is log2 of the primal
    program min{Tr Y : Y - rho >= 0, Y^TB >= 0}, solved once from Y = 2 I
    with dual point (I/2, I/2).  The optimum sigma* = Y / Tr Y is taken from
    the last primal iterate, so both slacks are positive definite: sigma* has
    full rank, is strictly PPT, and rho <= Tr Y sigma*.  The lower bound
    comes from the multipliers (Z, W) of the two blocks, which meet the dual
    constraints Z >= 0, W >= 0, Z + W^TB = I up to the solver's dual
    residual.  They are made exactly feasible: W0 = I - Z^TB,
    c = max(0, -lambda_min(W0)), and Z' = Z / (1 + c), W' = (W0 + c I) / (1 + c)
    satisfy Z' + W'^TB = I.  log2 Tr rho Z' is then a lower bound by weak
    duality; it is floored at zero.  A PPT input needs no solve: the bound
    is 0 and sigma* is rho itself.
    """
    if state.state.dim > 16:
        raise ValidationError("PPT lower bound is limited to total dimension <= 16")
    rm, dims, d = state.state.mat, state.dims, state.state.dim
    if is_ppt(state):
        return PPTBound(0.0, rm / float(np.trace(rm).real), None)
    basis = hermitian_basis(d)
    pt_basis = np.array([_pt_matrix(e, dims) for e in basis])
    eye = np.eye(d)
    x, (z, _), stats = solve_lmi(hermitian_coordinates(basis, eye),
                                 ((-rm, basis), (np.zeros((d, d)), pt_basis)),
                                 hermitian_coordinates(basis, 2 * eye), (eye / 2, eye / 2))
    y = np.tensordot(x, basis, 1)
    shift = max(0.0, -float(np.linalg.eigvalsh(eye - _pt_matrix(z, dims))[0]))
    lower = math.log2(max(float(np.trace(rm @ z).real) / (1.0 + shift), 1.0))
    return PPTBound(lower, y / float(np.trace(y).real), stats)


# ---------------------------------------------------------------------------
# Exact two-qubit witness: the PPT optimum as a mixture of product states
# ---------------------------------------------------------------------------

WITNESS_MIX = 1e-9
# sigma_y (x) sigma_y, the spin flip of Wootters' concurrence
_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
# the orthogonal +-1/2 mix that spreads zero preconcurrence over four vectors
_HALF_HADAMARD = 0.5 * np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                                 [1, -1, 1, -1], [1, -1, -1, 1]])


def _wootters_vectors(sigma: np.ndarray) -> np.ndarray:
    """Four product vectors z_k, as columns, with sum_k |z_k><z_k| = sigma,
    for a full-rank two-qubit state of zero concurrence (Wootters, PRL 80,
    2245 (1998)).

    With sigma = V V^dag, V = eigvecs sqrt(eigvals), the symmetric matrix
    tau = V^dag (sigma_y (x) sigma_y) conj(V) is Takagi-factored as
    U diag(lam) U^T through the real symmetric embedding
    [[Re tau, Im tau], [Im tau, -Re tau]], whose positive half holds the
    vectors [Re u; Im u].  X = V U then has preconcurrences
    <x_i|x~_j> = lam_i delta_ij.  Phases with lam_1 e^{i a_1} + ... +
    lam_4 e^{i a_4} = 0 exist when lam_1 <= lam_2 + lam_3 + lam_4 (zero
    concurrence); a_3 = a_4 closes the triangle with sides lam_1, lam_2,
    lam_3 + lam_4.  The rows of the +-1/2 orthogonal mix of the rephased x_j
    then all have preconcurrence sum_j lam_j e^{i a_j} / 4 = 0, which makes
    each a product vector.  Rounding only leaves them nearly product.
    """
    w, v = np.linalg.eigh(sigma)
    vm = v * np.sqrt(np.clip(w, 0.0, None))
    tau = vm.conj().T @ _SPIN_FLIP @ vm.conj()
    lam, q = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    lam, q = lam[:3:-1], q[:, :3:-1]
    x = vm @ (q[:4] + 1j * q[4:])
    side = lam[2] + lam[3]
    cos_a = np.clip((side**2 - lam[0]**2 - lam[1]**2) / (2 * lam[0] * lam[1]), -1.0, 1.0)
    e_a = complex(cos_a, math.sqrt(1.0 - cos_a**2))
    e_b = -(lam[0] + lam[1] * e_a)
    e_b /= abs(e_b)
    phases = np.array([1.0, e_a, e_b, e_b])
    return (x * np.sqrt(phases.conj())) @ _HALF_HADAMARD.T


def _wootters_terms(sigma: np.ndarray) -> list:
    """(weight, a, b) terms of ``_wootters_vectors``: the top singular pair of
    each vector reshaped to 2 x 2; zero weights are dropped."""
    terms = []
    for z in _wootters_vectors(sigma).T:
        u_, s, vt = np.linalg.svd(z.reshape(2, 2))
        if s[0] > 0:
            terms.append((float(s[0] ** 2), u_[:, 0], vt[0]))
    return terms


# ---------------------------------------------------------------------------
# Separable ensemble upper bounds
# ---------------------------------------------------------------------------

def _best_product_state(g: np.ndarray, dims: tuple, starts=None, sweeps: int = 6) -> tuple:
    """Maximize <a (x) b| G |a (x) b> by alternating top-eigenvector updates.

    The sweeps start from the vectors of B in ``starts``.  By default these
    are the top eigenvectors of the partial traces of G, which keeps the
    search deterministic and covariant under local unitaries.
    """
    da, db = dims
    g4 = g.reshape(da, db, da, db)
    if starts is None:
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


def _schmidt_columns(rm: np.ndarray, dims: tuple) -> list:
    """Product columns (a, b) from the Schmidt decompositions of the
    eigenvectors of rho, those with eigenvalue and Schmidt coefficient above
    1e-12.  A locally covariant start; for a pure state they span the
    separable state at which D_max attains E_max = 2 log2 sum_j s_j."""
    da, db = dims
    w, v = np.linalg.eigh(rm)
    columns = []
    for k in np.flatnonzero(w > 1e-12):
        u_, s, vt = np.linalg.svd(v[:, k].reshape(da, db))
        columns += [(u_[:, j], vt[j]) for j in range(len(s)) if s[j] > 1e-12]
    return columns


def _unit_vector(v: np.ndarray) -> np.ndarray:
    """v normalized and rotated so that its first entry of magnitude at least
    1e-8 times its largest is real and positive: the global phase, which the
    eigen- and singular-vector routines leave arbitrary, is then fixed."""
    lead = v[np.flatnonzero(np.abs(v) >= 1e-8 * np.abs(v).max())[0]]
    return v * (abs(lead) / lead) / np.linalg.norm(v)


def _ensemble_from_terms(terms) -> SeparableEnsemble:
    total = sum(w for w, _, _ in terms)
    return SeparableEnsemble(terms=tuple((w / total, _unit_vector(a), _unit_vector(b))
                                         for w, a, b in terms))


def emax(state: BipartiteState, terms: int = None, restarts: int = 2,
         seed=0, iters: int = EMAX_ROUNDS) -> EmaxResult:
    """Two-sided E_max estimate: an upper bound D_max(rho||sigma_sep) against
    an explicit separable witness, and the PPT relaxation lower bound, from
    one call of ``ppt_emax_lower``; like it, limited to total dimension
    d_A d_B <= 16 (ValidationError beyond).

    In 2x2 the witness is the PPT optimum of that call, decomposed into
    product states (``_wootters_terms``), so the gap is below 2e-7.  Larger
    systems build the witness by column generation (``_column_generation``):
    ``iters`` caps its rounds, ``restarts`` is the number of random pricing
    starts drawn from ``seed`` when the deterministic ones find no column,
    and ``terms`` caps the product columns beyond the computational basis
    (default (d_A d_B)^2).  The four have no effect in 2x2."""
    rm = state.state.mat
    if state.dims == (2, 2):
        ppt = ppt_emax_lower(state)
        lower = ppt.lower_bits
        best_terms = _wootters_terms((1.0 - WITNESS_MIX) * ppt.optimum
                                     + WITNESS_MIX * np.eye(4) / 4)
    else:
        try:
            lower = ppt_emax_lower(state).lower_bits
        except SolverError:   # E_max >= 0 holds without a certificate
            lower = 0.0
        best_terms = _column_generation(state, lower, terms, restarts, seed, iters)
    witness = _ensemble_from_terms(best_terms)
    upper = d_max(rm, witness.assemble().mat).bits
    return EmaxResult(upper_bits=upper, lower_bits=min(lower, upper),
                      witness=witness, gap=max(upper - min(lower, upper), 0.0))


def _master(rm: np.ndarray, columns: list, y0: np.ndarray) -> tuple:
    """min sum_i y_i subject to sum_i y_i |a_i b_i><a_i b_i| - rho >= 0 and
    y >= 0, over the product columns (a_i, b_i), as one ``solve_lmi`` call
    with one d x d block and a 1 x 1 block per weight.  y0 must be strictly
    feasible; the dual starts at Z = I/2 and z_i = 1/2, which meets the dual
    equalities <a_i b_i|Z|a_i b_i> + z_i = 1 exactly.  Returns the weights,
    strictly feasible, and the dual matrix Z of the d x d block."""
    k, d = len(columns), rm.shape[0]
    vecs = np.array([np.outer(a, b).ravel() for a, b in columns])
    projs = vecs[:, :, None] * vecs.conj()[:, None, :]
    units = np.eye(k)[:, :, None, None]
    blocks = [(-rm, projs)] + [(np.zeros((1, 1)), units[:, i]) for i in range(k)]
    y, zs, _ = solve_lmi(np.ones(k), blocks, y0,
                         [np.eye(d) / 2] + [np.full((1, 1), 0.5)] * k)
    return y, zs[0]


def _column_generation(state: BipartiteState, lower: float, terms, restarts, seed,
                       iters) -> list:
    """Product terms of a separable state close to the optimum, by column
    generation on min{Tr Y : Y - rho >= 0, Y separable}, whose optimum is
    2^E_max.

    Each round solves the master program (``_master``) over the columns
    held so far; log2 sum_i y_i is then an upper bound, certified by the
    weights.  The computational-basis columns are always held and start at
    y = 2 (their sum is I, and rho <= I), the others at y = COLUMN_START, so
    the start is strictly feasible.  Pricing adds the product state that
    maximizes <ab|Z|ab> on the dual matrix Z, while that value exceeds
    1 + PRICE_MARGIN.  A column beyond the basis is dropped once its weight
    is at most DROP_RTOL sum_i y_i, unless it entered within the last
    KEEP_ROUNDS rounds; once more than 2 ``terms`` such columns are held,
    only the ``terms`` heaviest are kept.  The search stops when no column
    enters, log2 sum_i y_i comes within GAP_STOP of ``lower``, ``iters``
    rounds have run, or a master raises SolverError; the last solved master
    (or the start) is the witness."""
    rm, (da, db) = state.state.mat, state.dims
    d = da * db
    cap = terms if terms is not None else d * d
    rng = _rng(seed)
    basis = [(ea, eb) for ea in np.eye(da, dtype=complex) for eb in np.eye(db, dtype=complex)]
    columns = _schmidt_columns(rm, state.dims)
    entered = [0] * len(columns)

    def start():
        return np.r_[np.full(d, 2.0), np.full(len(columns), COLUMN_START)]

    y, held = start(), basis + columns
    for rnd in range(iters):
        try:
            y, z = _master(rm, basis + columns, start())
        except SolverError:
            break
        held = basis + columns
        if math.log2(y.sum()) - lower <= GAP_STOP:
            break
        val, a, b = _best_product_state(z, state.dims)
        if val <= 1.0 + PRICE_MARGIN and restarts > 0:
            starts = rng.standard_normal((restarts, db)) + 1j * rng.standard_normal((restarts, db))
            val, a, b = _best_product_state(z, state.dims, starts)
        if val <= 1.0 + PRICE_MARGIN:
            break
        weights = y[d:]
        keep = [i for i in range(len(columns))
                if weights[i] > DROP_RTOL * y.sum() or rnd - entered[i] < KEEP_ROUNDS]
        if len(keep) > 2 * cap:
            keep = sorted(keep, key=lambda i: -weights[i])[:cap]
        columns = [columns[i] for i in keep] + [(a, b)]
        entered = [entered[i] for i in keep] + [rnd]
    return [(float(w), a, b) for w, (a, b) in zip(y, held)]


# ---------------------------------------------------------------------------
# Relative entropy of entanglement (upper bound)
# ---------------------------------------------------------------------------

def _rel_ent_objective(rm: np.ndarray, log_r: np.ndarray, sigma: np.ndarray) -> tuple:
    """S(rho||sigma') in bits for sigma' = sigma mixed with BARRIER_WEIGHT of
    the maximally mixed state, and the spectrum of sigma'.  log_r is log2 rho
    on its support; sigma' has full support, so this is the arithmetic of
    ``relative_entropy`` with rho factored once by the caller."""
    d = rm.shape[0]
    spec = Spectrum.of((1.0 - BARRIER_WEIGHT) * sigma + BARRIER_WEIGHT * np.eye(d) / d)
    val = float(np.trace(rm @ (log_r - spec.apply(np.log2, on_support=True))).real)
    return val, spec


def _log_gradient(rm: np.ndarray, spec: Spectrum) -> np.ndarray:
    """Frechet derivative of Tr[rho log sigma'] with respect to sigma', as the
    matrix G with d/ds Tr[rho log(sigma' + sH)] = Tr[G H], from the spectrum
    of sigma'."""
    w = np.clip(spec.eigenvalues, 1e-14, None)
    v = spec.eigenvectors
    lw = np.log(w)
    denom = w[:, None] - w[None, :]
    phi = np.where(np.abs(denom) > 1e-12,
                   (lw[:, None] - lw[None, :]) / np.where(np.abs(denom) > 1e-12, denom, 1.0),
                   1.0 / w[:, None])
    inner = v.conj().T @ rm @ v
    return hermitian_part(v @ (phi * inner) @ v.conj().T)


def rel_ent_entanglement(state: BipartiteState) -> float:
    """Upper bound on the relative entropy of entanglement: conditional-gradient
    minimization of S(rho||sigma) over separable ensembles.  The search starts
    from the witness of ``emax`` and takes descent steps only, so the value is
    at most S(rho||sigma_wit) + 1.5e-6 <= E_max upper bound + 1.5e-6 (the
    1.5e-6 is the cost of BARRIER_WEIGHT).  rho is factored once and each
    candidate sigma once; the gradient reuses the accepted candidate's
    factorization."""
    rm = state.state.mat
    log_r = Spectrum.of(rm).apply(np.log2, on_support=True)
    max_terms = state.state.dim ** 2
    ens = list(emax(state).witness.terms)
    sigma = _mixture_matrix(ens)
    cur, spec = _rel_ent_objective(rm, log_r, sigma)
    eta_grid = (1.0, 0.6, 0.35, 0.2, 0.1, 0.05, 0.02, 0.008, 0.003, 0.001)
    for _ in range(REL_ENT_ITERS):
        g = _log_gradient(rm, spec)
        _, a, b = _best_product_state(g, state.dims)
        pvec = np.kron(a, b)
        pmat = np.outer(pvec, pvec.conj())
        best_eta, best_val = 0.0, cur
        for eta in eta_grid:
            val, _ = _rel_ent_objective(rm, log_r, (1.0 - eta) * sigma + eta * pmat)
            if val < best_val:
                best_eta, best_val = eta, val
        if best_eta == 0.0:
            break
        cand = [(w * (1.0 - best_eta), av, bv) for w, av, bv in ens]
        cand.append((best_eta, a, b))
        if len(cand) > 2 * max_terms:
            cand = _prune_terms(cand, max_terms)
        cand_sigma = _mixture_matrix(cand)
        val, cand_spec = _rel_ent_objective(rm, log_r, cand_sigma)
        if val >= cur:   # pruning can undo the step
            break
        ens, sigma, cur, spec = cand, cand_sigma, val, cand_spec
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


def monotone_condition_suite(state: BipartiteState, seed=0) -> list:
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
                                   pos_viol <= MONOTONE_TOL and self_val <= MONOTONE_TOL,
                                   max(pos_viol, self_val)))

    # (ii) joint unitary invariance
    u = random_unitary(d, rng.integers(2**32))
    rot = d_max(u @ rm @ u.conj().T, u @ sigma @ u.conj().T).bits
    viol = abs(rot - base)
    results.append(ConditionResult("unitary_invariance", viol <= MONOTONE_TOL, viol))

    # (iii) monotonicity under partial trace
    reduced = d_max(partial_trace_matrix(rm, state.dims, "A"),
                    partial_trace_matrix(sigma, state.dims, "A")).bits
    viol = max(reduced - base, 0.0)
    results.append(ConditionResult("partial_trace_monotone", viol <= MONOTONE_TOL, viol))

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
    results.append(ConditionResult("instrument_inequality", viol <= MONOTONE_TOL, viol))

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
    results.append(ConditionResult("block_decomposition_max", viol <= MONOTONE_TOL, viol))

    # (vi) tensoring both arguments with the same pure state changes nothing
    e = np.zeros((2, 2))
    e[0, 0] = 1.0
    viol = abs(d_max(np.kron(rm, e), np.kron(sigma, e)).bits - base)
    results.append(ConditionResult("pure_tensor_invariance", viol <= MONOTONE_TOL, viol))

    return results
