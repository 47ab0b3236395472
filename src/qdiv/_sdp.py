"""A small dense primal-dual interior-point solver for linear matrix
inequalities, after Vandenberghe's notes on the CVXOPT cone solvers.

The primal problem is

    minimize    c . x
    subject to  S_k = F0_k + sum_i x_i F_ki >= 0      for every block k,

over real x, with every F0_k and F_ki Hermitian.  Its dual is

    maximize    -sum_k Tr F0_k Z_k
    subject to  sum_k Re Tr F_ki Z_k = c_i,  Z_k >= 0,

and for a primal-feasible x and a dual-feasible Z the duality gap
c . x + sum_k Tr F0_k Z_k equals sum_k Tr S_k Z_k.  The caller supplies a
strictly feasible pair (x0, Z0).  The primal iterates stay feasible exactly
(the slack is recomputed from x, and a step that rounding would carry out of
the cone is halved), so any iterate is a valid primal point; each Newton step
also cancels the dual residual that rounding leaves.  The search direction is
the Helmberg-Kojima-Monteiro one, with Mehrotra's predictor-corrector choice
of the centring parameter.  The solve stops once the relative gap is at most
GAP_RTOL and the relative dual residual at most FEAS_RTOL; near a degenerate
optimum S^-1 is large enough that rounding keeps the dual residual some
orders of magnitude above the gap, hence the second, looser tolerance.
"""

from __future__ import annotations

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


def _inverse_choleskys(mats):
    """L^-1 for each mat = L L^dag, or None unless every mat is numerically
    positive definite."""
    try:
        return [np.linalg.inv(np.linalg.cholesky(m)) for m in mats]
    except np.linalg.LinAlgError:
        return None


def _max_step(inv_chol: np.ndarray, step: np.ndarray) -> float:
    """Largest a with M + a * step >= 0, given L^-1 of M = L L^dag."""
    low = np.linalg.eigvalsh(inv_chol @ step @ inv_chol.conj().T)[0]
    return -1.0 / low if low < 0 else np.inf


def solve_lmi(c, blocks, x0, z0):
    """Minimize c . x subject to F0_k + sum_i x_i F_ki >= 0.

    ``blocks`` is a sequence of pairs (F0_k, F_k) with F_k of shape
    (len(x), n_k, n_k).  x0 and the dual matrices z0 must be strictly
    feasible.  Returns (x, zs): the last primal iterate, strictly feasible,
    and the dual matrices Z_k > 0, which satisfy the dual equality
    constraints up to FEAS_RTOL.
    Raises SolverError when the iteration cap is reached or a factorization
    fails.
    """
    c = np.asarray(c, dtype=float)
    x = np.asarray(x0, dtype=float)
    zs = [np.asarray(z, dtype=complex) for z in z0]
    f0s = [np.asarray(f0, dtype=complex) for f0, _ in blocks]
    fs = [np.asarray(f, dtype=complex) for _, f in blocks]
    flat = [f.reshape(len(c), -1) for f in fs]
    size = sum(f0.shape[0] for f0 in f0s)
    c_scale = max(1.0, float(np.linalg.norm(c)))

    def adjoint(mats):
        # Re Tr(F_i M) = Re <vec F_i, vec M^T>
        return sum((fl @ m.T.reshape(-1)).real for fl, m in zip(flat, mats))

    def slacks(x):
        return [f0 + np.tensordot(x, f, 1) for f0, f in zip(f0s, fs)]

    slack = slacks(x)
    inv_s, inv_z = _inverse_choleskys(slack), _inverse_choleskys(zs)
    if inv_s is None or inv_z is None:
        raise SolverError("the starting point is not strictly feasible", iterations=0)
    for it in range(MAX_ITER + 1):
        gap = sum(float(np.vdot(s, z).real) for s, z in zip(slack, zs))
        r_dual = c - adjoint(zs)
        res = (gap / max(1.0, abs(float(c @ x))), float(np.linalg.norm(r_dual)) / c_scale)
        if res[0] <= GAP_RTOL and res[1] <= FEAS_RTOL:
            return x, zs
        if it == MAX_ITER:
            break
        s_inv = [f.conj().T @ f for f in inv_s]
        # Schur complement H_ij = Re Tr(F_i S^-1 F_j Z)
        schur = sum((fl @ np.swapaxes(si @ f @ z, 1, 2).reshape(len(c), -1).T).real
                    for fl, f, si, z in zip(flat, fs, s_inv, zs))
        schur = (schur + schur.T) / 2
        a_inv = adjoint(s_inv)
        mu = gap / size

        def direction(target, second):
            # Newton step for S Z = target I - second and A*(Z) = c; the
            # slack moves by A(dx), so H dx = target A*(S^-1) - c - A*(second)
            rhs = target * a_inv - c - adjoint(second)
            try:
                dx = np.linalg.solve(schur, rhs)
            except np.linalg.LinAlgError:   # an exactly zero pivot near a degenerate optimum
                dx = np.linalg.lstsq(schur, rhs, rcond=None)[0]
            ds = [np.tensordot(dx, f, 1) for f in fs]
            dz = [hermitian_part(target * si - z - si @ d @ z - m)
                  for si, z, d, m in zip(s_inv, zs, ds, second)]
            return dx, ds, dz

        def steps(ds, dz):
            ap = min(_max_step(f, d) for f, d in zip(inv_s, ds))
            ad = min(_max_step(f, d) for f, d in zip(inv_z, dz))
            return min(1.0, STEP_FRACTION * ap), min(1.0, STEP_FRACTION * ad)

        _, ds, dz = direction(0.0, [np.zeros_like(z) for z in zs])
        ap, ad = steps(ds, dz)
        mu_aff = sum(float(np.vdot(s + ap * d, z + ad * e).real)
                     for s, d, z, e in zip(slack, ds, zs, dz)) / size
        sigma = min(1.0, mu_aff / mu) ** 3
        second = [hermitian_part(si @ d @ e) for si, d, e in zip(s_inv, ds, dz)]
        dx, ds, dz = direction(sigma * mu, second)
        ap, ad = steps(ds, dz)
        # the eigenvalues behind the step lengths carry rounding error, so a
        # step that leaves the cone is halved
        for _ in range(BACKTRACKS):
            new_x, new_zs = x + ap * dx, [z + ad * e for z, e in zip(zs, dz)]
            new_slack = slacks(new_x)
            new_inv_s, new_inv_z = _inverse_choleskys(new_slack), _inverse_choleskys(new_zs)
            if new_inv_s is not None and new_inv_z is not None:
                break
            ap, ad = ap / 2, ad / 2
        else:
            raise SolverError("an iterate lost definiteness", residuals=res,
                              iterations=it + 1)
        x, zs, slack, inv_s, inv_z = new_x, new_zs, new_slack, new_inv_s, new_inv_z
    raise SolverError(f"no convergence in {MAX_ITER} iterations", residuals=res,
                      iterations=MAX_ITER)
