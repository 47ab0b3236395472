import numpy as np
import pytest

from qdiv import _sdp
from qdiv._sdp import FEAS_RTOL, GAP_RTOL, SolverError, solve_lmi
from qdiv.operators import hermitian_part, random_density

INTERLEAVED = (4, 1, 4, 1, 4)


def _hermitian(rng, shape):
    return hermitian_part(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _lambda_max_problem(mats):
    """min{t : t I - A_k >= 0 for every k}, whose value is max_k lambda_max(A_k),
    from t = max_k ||A_k|| + 1 and duals I / (n_k K) of total trace 1."""
    t0 = max(np.linalg.norm(a, 2) for a in mats) + 1.0
    blocks = [(-a, np.eye(len(a))[None]) for a in mats]
    z0 = [np.eye(len(a)) / (len(a) * len(mats)) for a in mats]
    return [1.0], blocks, [t0], z0


def _random_problem(sizes, m, seed):
    """A random LMI in m variables, strictly feasible at x = 0 (F0_k > 0) and
    in the dual at the random Z0 that c is built from, so it has an optimum."""
    rng = np.random.default_rng(seed)
    f0s = [random_density(n, n, rng).mat for n in sizes]
    fs = [_hermitian(rng, (m, n, n)) for n in sizes]
    z0 = [random_density(n, n, rng).mat for n in sizes]
    c = sum(np.einsum("iab,ba->i", f, z).real for f, z in zip(fs, z0))
    return c, list(zip(f0s, fs)), np.zeros(m), z0


def _dual_residual(c, blocks, zs):
    adjoint = sum(np.einsum("iab,ba->i", f, z).real for (_, f), z in zip(blocks, zs))
    return np.linalg.norm(c - adjoint) / max(1.0, np.linalg.norm(c))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_lambda_max_closed_form(n):
    a = _hermitian(np.random.default_rng(n), (n, n))
    x, zs, stats = solve_lmi(*_lambda_max_problem([a]))
    top = np.linalg.eigvalsh(a)[-1]
    assert abs(x[0] - top) <= 1e-9 * max(1.0, abs(top))
    assert np.trace(zs[0]).real == pytest.approx(1.0, abs=1e-7)
    assert stats.iterations > 0 and stats.gap <= GAP_RTOL
    assert stats.dual_residual <= FEAS_RTOL


def test_interleaved_block_sizes_keep_the_callers_order():
    c, blocks, x0, z0 = _random_problem(INTERLEAVED, 6, seed=3)
    x, zs, _ = solve_lmi(c, blocks, x0, z0)
    assert [z.shape for z in zs] == [(n, n) for n in INTERLEAVED]
    for z in zs:
        np.linalg.cholesky(z)   # positive definite
    assert _dual_residual(c, blocks, zs) <= FEAS_RTOL
    perm = [2, 3, 0, 4, 1]
    x_p, zs_p, _ = solve_lmi(c, [blocks[k] for k in perm], x0, [z0[k] for k in perm])
    assert float(c @ x_p) == pytest.approx(float(c @ x), rel=1e-8, abs=1e-8)
    assert _dual_residual(c, [blocks[k] for k in perm], zs_p) <= FEAS_RTOL
    for z, k in zip(zs_p, perm):
        assert np.allclose(z, zs[k], atol=1e-4)


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_infeasible_start_raises_before_iterating(side):
    a = _hermitian(np.random.default_rng(0), (3, 3))
    c, blocks, x0, z0 = _lambda_max_problem([a])
    if side == "primal":
        x0 = [np.linalg.eigvalsh(a)[-1] - 0.5]
    else:
        z0 = [-z for z in z0]
    with pytest.raises(SolverError) as err:
        solve_lmi(c, blocks, x0, z0)
    assert err.value.iterations == 0


def test_iteration_cap_reports_iterations_and_residuals(monkeypatch):
    monkeypatch.setattr(_sdp, "MAX_ITER", 1)
    with pytest.raises(SolverError) as err:
        solve_lmi(*_random_problem(INTERLEAVED, 6, seed=3))
    assert err.value.iterations == 1
    gap, residual = err.value.residuals
    assert gap > GAP_RTOL or residual > FEAS_RTOL


def test_lapack_calls_per_iteration_do_not_grow_with_equal_size_blocks(monkeypatch):
    calls = []
    for name in ("cholesky", "inv", "eigvalsh", "solve", "lstsq"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    a = _hermitian(np.random.default_rng(1), (4, 4))
    top = np.linalg.eigvalsh(a)[-1]
    per_iteration = []
    for copies in (1, 4):
        calls.clear()
        x, _, stats = solve_lmi(*_lambda_max_problem([a] * copies))
        assert x[0] == pytest.approx(top, abs=1e-9)
        assert stats.lapack_calls == len(calls)
        # the start's Cholesky factor and inverse, then a fixed count per step
        per_iteration.append((stats.lapack_calls - 2) / stats.iterations)
    assert per_iteration[1] <= per_iteration[0]
