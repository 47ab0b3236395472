import functools
import math
import tracemalloc

import numpy as np
import pytest

from qdiv.divergences import d_max, d_min
from qdiv.operators import (
    DensityOperator,
    ValidationError,
    _spectral_projectors,
    compare_projector,
    hermitian_part,
    random_density,
    random_unitary,
)
from qdiv.smoothing import (
    SWEEP_CHUNK_ENTRIES,
    SWEEP_GRID_POINTS,
    EpsilonBall,
    lemma5_smooth,
    smooth_dmax_exact,
    smooth_dmax_exact_classical,
    smooth_dmax_upper,
    smooth_dmin_exact_classical,
    smooth_dmin_lower,
)

RHO = DensityOperator.from_matrix(np.diag([0.9, 0.1]).astype(complex))
SIGMA = DensityOperator.from_matrix(np.diag([0.5, 0.5]).astype(complex))


def test_lemma5_no_op_above_dmax():
    lam = d_max(RHO.mat, SIGMA.mat).bits + 0.1
    cert = lemma5_smooth(RHO, SIGMA, lam)
    assert np.allclose(cert.smoothed.mat, RHO.mat, atol=1e-10)
    assert cert.transform_trace_dist < 1e-10


def test_lemma5_diagonal_example():
    cert = lemma5_smooth(RHO, SIGMA, math.log2(1.4))
    assert np.allclose(cert.delta.mat, np.diag([0.2, 0.0]), atol=1e-12)
    assert cert.epsilon_used == pytest.approx(math.sqrt(1.6), abs=1e-12)
    assert d_max(cert.smoothed.mat, SIGMA.mat).bits <= math.log2(1.4) + 1e-9
    assert cert.transform_trace_dist <= cert.epsilon_used + 1e-9


def test_lemma5_certificates_random():
    rng = np.random.default_rng(17)
    for trial in range(100):
        dim = 2 + trial % 3
        rho = random_density(dim, dim, rng)
        sigma = random_density(dim, dim, rng)
        lam = d_max(rho.mat, sigma.mat).bits - 0.25
        cert = lemma5_smooth(rho, sigma, lam)
        cert.validate()
        assert d_max(cert.smoothed.mat, sigma.mat).bits <= lam + 1e-7
        assert cert.smoothed.trace <= rho.trace + 1e-10


def _ginibre_qubit(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_lemma5_near_dmax_on_ill_conditioned_sigma():
    # sigma^(x)5 of a Gaussian qubit state has condition number near 1e9, and
    # just below D_max the computed contraction lifts the trace above Tr rho
    # by up to 5e-9 (relative); that rounding is scaled away
    for seed in (22, 130, 132, 140):
        rng = np.random.default_rng([seed, 7])
        rho, sigma = (DensityOperator.from_matrix(functools.reduce(np.kron, [m] * 5))
                      for m in (_ginibre_qubit(rng), _ginibre_qubit(rng)))
        dm = d_max(rho.mat, sigma.mat).bits
        for below in (0.0, 1e-9, 3e-9, 1e-8, 3e-8, 5.3e-8, 1e-7, 1e-6):
            cert = lemma5_smooth(rho, sigma, dm - below)
            assert cert.smoothed.trace <= rho.trace + 1e-15


def test_smooth_dmax_upper_small_eps_recovers_dmax():
    bound = smooth_dmax_upper(RHO, SIGMA, 1e-9)
    assert bound.lambda_bits == pytest.approx(d_max(RHO.mat, SIGMA.mat).bits, abs=1e-5)


def test_smooth_dmax_upper_monotone_in_eps():
    prev = math.inf
    for eps in (0.01, 0.05, 0.2, 0.5):
        cur = smooth_dmax_upper(RHO, SIGMA, eps).lambda_bits
        assert cur <= prev + 1e-12
        prev = cur


def test_smooth_dmax_upper_dominates_exact():
    up = smooth_dmax_upper(RHO, SIGMA, 0.2).lambda_bits
    assert up >= math.log2(1.4) - 1e-6


def test_smooth_dmax_exact_frozen_value():
    val = smooth_dmax_exact(RHO, SIGMA, 0.2)
    assert val == pytest.approx(math.log2(1.4), abs=1e-8)


def test_smooth_dmax_exact_singular_sigma():
    # rank-1 sigma containing supp(rho): only mass can be removed, so the
    # value is log2(1 - eps)
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    state = DensityOperator.from_matrix(pure)
    assert smooth_dmax_exact(state, state, 0.1) == pytest.approx(math.log2(0.9), abs=1e-8)
    # rank-2 sigma on a rotated subspace: the classical value on the support
    u = random_unitary(4, 5)
    rho = DensityOperator.from_matrix(u @ np.diag([0.6, 0.4, 0, 0]).astype(complex) @ u.conj().T)
    sigma = DensityOperator.from_matrix(u @ np.diag([0.2, 0.8, 0, 0]).astype(complex) @ u.conj().T)
    assert smooth_dmax_exact(rho, sigma, 0.15) == pytest.approx(
        smooth_dmax_exact_classical((0.6, 0.4), (0.2, 0.8), 0.15), abs=1e-8)


def test_smooth_dmax_exact_edges():
    # total mass at most eps: rho_bar = 0 lies in the ball
    light = DensityOperator.from_matrix(np.diag([0.05, 0.05]).astype(complex))
    assert smooth_dmax_exact(light, SIGMA, 0.2) == -math.inf
    with pytest.raises(ValidationError):
        smooth_dmax_exact(RHO, SIGMA, 0.0)


@pytest.mark.parametrize("smoother", [smooth_dmax_upper, smooth_dmin_lower, smooth_dmax_exact])
@pytest.mark.parametrize("eps", [math.nan, 0.0, -0.1])
def test_smoothers_reject_non_positive_eps(smoother, eps):
    # NaN used to pass the eps <= 0 test: the bound smoothers returned the
    # unsmoothed values, the exact solver ended in SolverError
    with pytest.raises(ValidationError, match="eps must be positive"):
        smoother(RHO, SIGMA, eps)


def test_smooth_dmax_exact_below_upper():
    rng = np.random.default_rng(23)
    for _ in range(5):
        rho = random_density(3, 3, rng)
        sigma = random_density(3, 3, rng)
        up = smooth_dmax_upper(rho, sigma, 0.15).lambda_bits
        exact = smooth_dmax_exact(rho, sigma, 0.15)
        assert exact <= up + 1e-4


def test_smooth_dmax_exact_dimension_guard():
    rng = np.random.default_rng(2)
    big_r = random_density(17, 17, rng)
    big_s = random_density(17, 17, rng)
    with pytest.raises(ValidationError):
        smooth_dmax_exact(big_r, big_s, 0.1)


def test_smooth_dmin_lower_diagonal():
    val = smooth_dmin_lower(RHO, SIGMA, 0.75)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_smooth_dmin_lower_dominates_unsmoothed():
    rng = np.random.default_rng(29)
    for _ in range(10):
        rho = random_density(3, 3, rng)
        sigma = random_density(3, 3, rng)
        assert (smooth_dmin_lower(rho, sigma, 0.3)
                >= d_min(rho.mat, sigma.mat).bits - 1e-12)


def _sweep_gammas(rm, sm, grid_points=SWEEP_GRID_POINTS):
    """The gamma grid of ``smooth_dmin_lower``: from 2 bits below D_min to 2
    above D_max, or 62 above D_min when D_max = inf."""
    base = d_min(rm, sm)
    dmax_bits = d_max(rm, sm).bits
    hi = dmax_bits + 2.0 if math.isfinite(dmax_bits) else (base.bits if base.finite else 0.0) + 62.0
    lo = (base.bits if base.finite else 0.0) - 2.0
    return np.linspace(lo, hi, grid_points)


def _smooth_dmin_lower_per_point(rho, sigma, eps, grid_points=512):
    """Reference: the projector sweep of ``smooth_dmin_lower``, one
    ``compare_projector`` and one ``d_min`` per grid point."""
    rm, sm = rho.mat, sigma.mat
    base = d_min(rm, sm)
    best = base.bits if base.finite else -math.inf
    for gamma in _sweep_gammas(rm, sm, grid_points):
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


def test_smooth_dmin_lower_matches_per_point_sweep():
    rng = np.random.default_rng(41)
    for trial in range(56):
        dim = 1 + trial % 8
        # every third pair has a rank-deficient rho, every fourth a singular sigma
        rho = random_density(dim, max(1, dim - 1 - trial % 3) if trial % 3 == 0 else dim, rng)
        sigma = random_density(dim, max(1, dim // 2) if trial % 4 == 0 else dim, rng)
        eps = (0.02, 0.1, 0.3, 0.7)[trial % 4]
        stacked = smooth_dmin_lower(rho, sigma, eps)
        reference = _smooth_dmin_lower_per_point(rho, sigma, eps)
        assert stacked == reference or abs(stacked - reference) <= 1e-12


def _masses(rm, sm, scales, relation):
    """Tr[{rho rel t sigma} rho] for each t in scales, from the batched
    projectors the smoothers use."""
    proj, _ = _spectral_projectors(rm - scales[:, None, None] * sm, relation)
    return np.einsum("kij,ji->k", proj, rm).real


def _threshold_pairs():
    """40 seeded pairs, d = 2..8, each with the gamma grid of
    ``smooth_dmin_lower``.  Every third rho is rank-deficient and every fourth
    sigma singular; every eighth rho lies inside the singular sigma's support,
    the other singular ones leave it (D_max = inf)."""
    rng = np.random.default_rng(63)
    for trial in range(40):
        dim = 2 + trial % 7
        rho = random_density(dim, max(1, dim - 1 - trial % 2) if trial % 3 == 0 else dim, rng)
        sigma = random_density(dim, max(1, dim // 2) if trial % 4 == 0 else dim, rng)
        if trial % 8 == 0:
            w, v = np.linalg.eigh(sigma.mat)
            support = v[:, w > 1e-12]
            inner = random_density(support.shape[1], support.shape[1], rng).mat
            rho = DensityOperator.from_matrix(hermitian_part(support @ inner @ support.conj().T))
        rm, sm = rho.mat, sigma.mat
        yield trial, rm, sm, d_max(rm, sm).bits, _sweep_gammas(rm, sm)


# Beyond supp(sigma) the grid runs 62 bits above D_min, and from t near 2^47
# the rounding of t sigma (about t 2^-52) outweighs rho: there the kept mass
# is noise, rising by up to 0.43 between grid points.
UNBOUNDED_GRID_TRUSTED_BITS = 40.0


def test_projector_masses_nonincreasing_in_threshold():
    # Tr[{rho >= t sigma} rho] = f(t) - t f'(t) with f(t) = Tr(rho - t sigma)_+
    # convex, so it falls as t grows; the same holds for the strict projector.
    # A prefix search over smooth_dmin_lower's grid, and a top-first bisection
    # of smooth_dmax_upper's bracket, are exact only under this property.
    finite_dmax = 0
    for trial, rm, sm, dmax_bits, gammas in _threshold_pairs():
        if not math.isfinite(dmax_bits):
            gammas = gammas[gammas <= UNBOUNDED_GRID_TRUSTED_BITS]
        kept = _masses(rm, sm, 2.0**gammas, ">=")
        assert (np.diff(kept) <= 1e-12).all(), trial
        if math.isfinite(dmax_bits):
            finite_dmax += 1
            # smooth_dmax_upper's bracket, and its top 4 bits more finely
            lam = np.union1d(np.linspace(dmax_bits - 60.0, dmax_bits, 256),
                             np.linspace(dmax_bits - 4.0, dmax_bits, 256))
            excess = _masses(rm, sm, 2.0**lam, ">")
            assert (np.diff(excess) <= 1e-12).all(), trial
            assert excess[-1] <= 1e-12
    assert finite_dmax == 35


@pytest.mark.xfail(strict=True, reason="the kept mass is rounding noise at the top of "
                                       "smooth_dmin_lower's grid when D_max = inf")
def test_kept_mass_nonincreasing_on_whole_unbounded_grid():
    for trial, rm, sm, dmax_bits, gammas in _threshold_pairs():
        if not math.isfinite(dmax_bits):
            kept = _masses(rm, sm, 2.0**gammas, ">=")
            assert (np.diff(kept) <= 1e-12).all(), trial


def _tensor_power_pair(n):
    return tuple(DensityOperator.from_matrix(functools.reduce(np.kron, [state.mat] * n))
                 for state in (random_density(2, 2, 1), random_density(2, 2, 2)))


def test_smooth_dmin_lower_eig_calls(monkeypatch):
    # two batched eigendecompositions per stack of the grid, plus the two
    # each of d_min and d_max
    rho, sigma = _tensor_power_pair(4)
    calls = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    smooth_dmin_lower(rho, sigma, 0.1)
    assert len(calls) <= 2 * math.ceil(512 / (SWEEP_CHUNK_ENTRIES // 16**2)) + 4


def test_smooth_dmin_lower_peak_allocation():
    # stacks of at most SWEEP_CHUNK_ENTRIES entries keep the sweep near 1.4 MB
    # at d = 32; one stack of the whole grid would take tens of megabytes
    rho, sigma = _tensor_power_pair(5)
    smooth_dmin_lower(rho, sigma, 0.1)
    tracemalloc.start()
    try:
        smooth_dmin_lower(rho, sigma, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_smooth_dmin_exact_classical_frozen():
    assert smooth_dmin_exact_classical((0.9, 0.1), (0.5, 0.5), 0.25) == pytest.approx(1.0)


def test_smooth_dmin_exact_classical_uniform_refinement():
    val = smooth_dmin_exact_classical((0.55, 0.25, 0.15, 0.05), (0.1, 0.2, 0.3, 0.4), 0.21)
    assert val == pytest.approx(-math.log2(0.3), abs=1e-12)


def test_smooth_dmin_exact_classical_support_guard():
    p = np.full(21, 1 / 21)
    with pytest.raises(ValidationError):
        smooth_dmin_exact_classical(p, p, 0.1)


def test_smooth_dmax_exact_classical_frozen():
    val = smooth_dmax_exact_classical((0.9, 0.1), (0.5, 0.5), 0.2)
    assert val == pytest.approx(math.log2(1.4), abs=1e-8)
    # p-mass on {q = 0} above eps: no t suffices
    assert smooth_dmax_exact_classical((0.7, 0.3), (1.0, 0.0), 0.2) == math.inf
    # total p-mass at most eps: t = 0 suffices
    assert smooth_dmax_exact_classical((0.1, 0.05), (0.5, 0.5), 0.2) == -math.inf
    assert smooth_dmax_exact_classical((0.1, 0.0), (0.0, 1.0), 0.2) == -math.inf


def test_smooth_dmax_exact_classical_matches_dense():
    rng = np.random.default_rng(31)
    for _ in range(5):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        rho = DensityOperator.from_matrix(np.diag(p).astype(complex))
        sigma = DensityOperator.from_matrix(np.diag(q).astype(complex))
        classical = smooth_dmax_exact_classical(p, q, 0.15)
        dense = smooth_dmax_exact(rho, sigma, 0.15)
        assert dense == pytest.approx(classical, abs=1e-8)


def test_exact_solvers_eig_calls(monkeypatch):
    # LAPACK calls of the interior-point solves, which stack blocks of equal
    # size: at most half of the 156 (PPT bound on the Bell state) and 579
    # (smooth D_max on a 4 x 4 pair) that one factorization per block took
    from qdiv.entanglement import BipartiteState, ppt_emax_lower

    calls = []
    for name in ("eigh", "eigvalsh", "cholesky", "inv", "solve"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    bell = DensityOperator.from_matrix(np.outer(v, v.conj()))
    ppt_emax_lower(BipartiteState(dims=(2, 2), state=bell))
    assert len(calls) <= 78
    calls.clear()
    rng = np.random.default_rng(4)
    smooth_dmax_exact(random_density(4, 4, rng), random_density(4, 4, rng), 0.1)
    assert len(calls) <= 289


def test_epsilon_ball_membership():
    ball = EpsilonBall(center=RHO, epsilon=0.2)
    inside = np.diag([0.85, 0.15]).astype(complex)
    outside = np.diag([0.6, 0.4]).astype(complex)
    negative = np.diag([1.0, -0.05]).astype(complex)
    heavy = np.diag([0.95, 0.15]).astype(complex)
    assert ball.contains(inside)
    assert not ball.contains(outside)
    assert not ball.contains(negative)
    assert not ball.contains(heavy)
