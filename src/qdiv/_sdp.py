"""A small dense primal-dual interior-point solver for linear matrix
inequalities, after Vandenberghe's notes on the CVXOPT cone solvers.

The primal problem is

    minimize    c . x
    subject to  S_k = F0_k + sum_i x_i F_ki >= 0      for every block k,

over real x, with every F0_k and F_ki Hermitian.  Its dual is

    maximize    -sum_k Tr F0_k Z_k
    subject to  sum_k Re Tr F_ki Z_k = c_i,  Z_k >= 0,

and for a primal-feasible x and a dual-feasible Z the duality gap
c . x + sum_k Tr F0_k Z_k equals sum_k Tr S_k Z_k.  From a strictly feasible
start (x0, Z0) the primal iterates stay feasible exactly: the slack is
recomputed from x, and a step that rounding would carry out of the cone is
halved.  Each Newton step, in the Helmberg-Kojima-Monteiro direction with
Mehrotra's predictor-corrector centring, also cancels the dual residual that
rounding leaves.  The solve stops at a relative gap of GAP_RTOL and a
relative dual residual of FEAS_RTOL, the looser one because near a degenerate
optimum S^-1 is large enough that rounding keeps the residual some orders of
magnitude above the gap.  Blocks of one size are held as one stack, so a step
makes one batched Cholesky factorization and inverse, one eigvalsh per step
length and one contraction for the Schur complement per block size, however
many blocks share it; per-block scalars are summed in the caller's order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import hermitian_part

GAP_RTOL = 1e-10
FEAS_RTOL = 1e-7
MAX_ITER = 100
STEP_FRACTION = 0.98
BACKTRACKS = 8


class SolverError(RuntimeError):
    """An iterative solve stopped short of its tolerance.  Carries the number
    of iterations made and the final residuals (for the interior-point
    solver: relative duality gap and relative dual residual)."""

    def __init__(self, message: str, residuals=None, iterations=None):
        super().__init__(message)
        self.residuals = residuals
        self.iterations = iterations


@dataclass(frozen=True)
class SolveStats:
    """How a solve ended: Newton steps taken, the final relative duality gap
    and relative dual residual, and the batched LAPACK calls made (Cholesky
    factors, their inverses, step-length eigenvalues and Schur solves)."""

    iterations: int
    gap: float
    dual_residual: float
    lapack_calls: int


def hermitian_basis(n: int) -> np.ndarray:
    """The n^2 Hermitian n x n matrices that are orthonormal under Re Tr(AB),
    as an array of shape (n^2, n, n): the diagonal units first, then the real
    and the imaginary off-diagonal pairs."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    for j in range(n):
        basis[j, j, j] = 1.0
    k = n
    s = np.sqrt(0.5)
    for j in range(n):
        for l in range(j + 1, n):
            basis[k, j, l] = basis[k, l, j] = s
            basis[k + 1, j, l], basis[k + 1, l, j] = -1j * s, 1j * s
            k += 2
    return basis


def hermitian_coordinates(basis: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Coordinates Re Tr(E_i M) of a Hermitian matrix in an orthonormal basis."""
    return np.einsum("kab,ba->k", basis, mat).real


def solve_lmi(c, blocks, x0, z0):
    """Minimize c . x subject to F0_k + sum_i x_i F_ki >= 0.

    ``blocks`` is a sequence of pairs (F0_k, F_k) with F_k of shape
    (len(x), n_k, n_k), and x0 and the dual matrices z0 must be strictly
    feasible.  Returns (x, zs, stats): the last primal iterate, strictly
    feasible; the dual matrices Z_k > 0 in the order of ``blocks``, which meet
    the dual equality constraints up to FEAS_RTOL; and a SolveStats.  Raises
    SolverError when the iteration cap is reached or a factorization fails.
    """
    c = np.asarray(c, dtype=float)
    x = np.asarray(x0, dtype=float)
    sizes = [len(f0) for f0, _ in blocks]
    groups = [[k for k, n in enumerate(sizes) if n == size] for size in dict.fromkeys(sizes)]
    back = np.argsort(np.concatenate(groups))    # each block's place in the stacks
    f0s = [np.array([blocks[k][0] for k in g], dtype=complex) for g in groups]
    fs = [np.stack([np.asarray(blocks[k][1], dtype=complex) for k in g], axis=1) for g in groups]
    flat = [f.reshape(len(c), -1) for f in fs]
    c_scale = max(1.0, float(np.linalg.norm(c)))
    calls = 0

    def lapack(fn, *args):
        nonlocal calls
        calls += 1
        return fn(*args)

    def inner(pairs):   # sum_k Re Tr(A_k B_k), A_k Hermitian, in the caller's block order
        terms = [np.einsum("kab,kab->k", a.conj(), b).real for a, b in pairs]
        return float(np.concatenate(terms)[back].sum())

    def adjoint(mats):
        # Re Tr(F_i M) = Re <vec F_i, vec M^T>
        return sum((fl @ m.swapaxes(1, 2).reshape(-1)).real for fl, m in zip(flat, mats))

    def linear(x):
        return [(x @ fl).reshape(f0.shape) for fl, f0 in zip(flat, f0s)]

    def factor(stacks):
        # L^-1 for every M = L L^dag; None unless all are numerically definite
        try:
            return [lapack(np.linalg.inv, lapack(np.linalg.cholesky, st)) for st in stacks]
        except np.linalg.LinAlgError:
            return None

    sz = [np.array((f0 + s, [z0[k] for k in g]), dtype=complex)
          for f0, s, g in zip(f0s, linear(x), groups)]
    inv = factor(sz)
    if inv is None:
        raise SolverError("the starting point is not strictly feasible", iterations=0)
    for it in range(MAX_ITER + 1):
        gap = inner(sz)
        r_dual = c - adjoint([z for _, z in sz])
        res = (gap / max(1.0, abs(float(c @ x))), float(np.linalg.norm(r_dual)) / c_scale)
        if res[0] <= GAP_RTOL and res[1] <= FEAS_RTOL:
            zs = [z for _, stack in sz for z in stack]
            return x, [zs[k] for k in back], SolveStats(it, *res, calls)
        if it == MAX_ITER:
            break
        s_inv = [f[0].conj().swapaxes(1, 2) @ f[0] for f in inv]
        # Schur complement H_ij = Re Tr(F_i G_j): per block size, one product
        # with S^-1 and one with Z form G_j = S^-1 F_j Z for every j
        schur = 0
        for f, fl, si, (_, z) in zip(fs, flat, s_inv, sz):
            m, k, n = f.shape[:3]
            g = (si @ f.transpose(1, 2, 0, 3).reshape(k, n, -1)).reshape(k, -1, n) @ z
            g = g.reshape(k, n, m, n).transpose(2, 0, 3, 1).reshape(m, -1)   # rows vec G_j^T
            schur = schur + (fl @ g.T).real
        schur = (schur + schur.T) / 2
        a_inv = adjoint(s_inv)
        mu = gap / sum(sizes)

        def direction(target, second):
            # Newton step for S Z = target I - second and A*(Z) = c; the
            # slack moves by A(dx), so H dx = target A*(S^-1) - c - A*(second)
            rhs = target * a_inv - c - adjoint(second)
            try:
                dx = lapack(np.linalg.solve, schur, rhs)
            except np.linalg.LinAlgError:   # an exactly zero pivot near a degenerate optimum
                dx = lapack(np.linalg.lstsq, schur, rhs, None)[0]
            return dx, [np.array((ds, hermitian_part(target * si - z - si @ ds @ z - m)))
                        for ds, si, (_, z), m in zip(linear(dx), s_inv, sz, second)]

        def steps(dsz):
            # the largest a with S + a dS >= 0 and with Z + a dZ >= 0
            low = np.min([lapack(np.linalg.eigvalsh, f @ d @ f.conj().swapaxes(-1, -2))[..., 0]
                          .min(axis=1) for f, d in zip(inv, dsz)], axis=0)
            bound = np.divide(-1.0, low, out=np.full(2, np.inf), where=low < 0)
            return np.minimum(1.0, STEP_FRACTION * bound)

        _, dsz = direction(0.0, [np.zeros_like(z) for _, z in sz])
        step = steps(dsz)[:, None, None, None]
        mu_aff = inner(p + step * d for p, d in zip(sz, dsz)) / sum(sizes)
        sigma = min(1.0, mu_aff / mu) ** 3
        second = [hermitian_part(si @ ds @ dz) for si, (ds, dz) in zip(s_inv, dsz)]
        dx, dsz = direction(sigma * mu, second)
        ap, ad = steps(dsz)
        # the eigenvalues behind the step lengths carry rounding error, so a
        # step that leaves the cone is halved
        for _ in range(BACKTRACKS):
            new_x = x + ap * dx
            new_sz = [np.array((f0 + s, z + ad * dz))
                      for f0, s, (_, z), (_, dz) in zip(f0s, linear(new_x), sz, dsz)]
            new_inv = factor(new_sz)
            if new_inv is not None:
                break
            ap, ad = ap / 2, ad / 2
        else:
            raise SolverError("an iterate lost definiteness", residuals=res,
                              iterations=it + 1)
        x, sz, inv = new_x, new_sz, new_inv
    raise SolverError(f"no convergence in {MAX_ITER} iterations", residuals=res,
                      iterations=MAX_ITER)
