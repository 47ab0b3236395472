import numpy as np
import pytest

from qdiv.divergences import d_max, d_min, relative_entropy
from qdiv.operators import (
    DensityOperator,
    HermitianOperator,
    Projector,
    QuantumChannel,
    SUPPORT_RTOL,
    Spectrum,
    ValidationError,
    _as_matrix,
    _spectral_projectors,
    apply_channel,
    compare_projector,
    fidelity,
    partial_trace,
    random_channel,
    random_density,
    random_effect,
    random_instrument,
    random_pure_bipartite,
    random_unitary,
    support_projector,
    tensor,
    trace_distance,
)
from qdiv.smoothing import lemma5_smooth, smooth_dmax_upper, smooth_dmin_lower


def bell():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return DensityOperator.from_matrix(np.outer(v, v.conj()))


def test_hermitian_rejects_asymmetric():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(ValidationError):
        DensityOperator.from_matrix(np.diag([1.2, -0.2]).astype(complex))


def test_density_rejects_trace_above_one():
    with pytest.raises(ValidationError):
        DensityOperator.from_matrix(np.diag([0.9, 0.3]).astype(complex))


def test_density_subnormalized_allowed():
    rho = DensityOperator.from_matrix(np.diag([0.5, 0.2]).astype(complex))
    assert not rho.normalized


def test_compare_projector_diagonal():
    a = np.diag([3.0, 1.0, -2.0])
    b = np.diag([1.0, 1.0, 0.0])
    p = compare_projector(a, b, ">=")
    assert np.allclose(p.mat, np.diag([1.0, 1.0, 0.0]))
    p_strict = compare_projector(a, b, ">")
    assert np.allclose(p_strict.mat, np.diag([1.0, 0.0, 0.0]))


def test_support_projector_rank():
    rho = np.diag([0.7, 0.3, 0.0])
    assert support_projector(rho).rank == 2


def test_spectrum_apply_reconstructs_and_cuts_support():
    mat = random_density(5, 5, 7).mat
    spec = Spectrum.of(mat)
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    assert np.allclose(spec.apply(lambda w: w), mat, atol=1e-12)
    u = random_unitary(3, 8)
    w = np.array([1.0, 2 * SUPPORT_RTOL, 0.5 * SUPPORT_RTOL])
    spec = Spectrum.of((u * w) @ u.conj().T)
    assert spec.support.tolist() == [False, True, True]
    kept = (u[:, :2] * w[:2]) @ u[:, :2].conj().T
    assert np.allclose(spec.apply(lambda x: x, on_support=True), kept, rtol=0, atol=1e-12)


def test_trace_distance_diagonal():
    assert trace_distance(np.diag([0.9, 0.1]), np.diag([0.5, 0.5])) == pytest.approx(0.8)


def test_fidelity_pure_overlap():
    r1 = DensityOperator.from_matrix(np.diag([1.0, 0.0]).astype(complex))
    r2 = DensityOperator.from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    assert fidelity(r1, r2) == pytest.approx(np.sqrt(0.5), abs=1e-10)


def test_partial_trace_product():
    rho = random_density(2, 2, 1)
    sigma = random_density(3, 3, 2)
    joint = tensor(rho.mat, sigma.mat)
    reduced = partial_trace(joint.mat, (2, 3), "A")
    assert np.allclose(reduced.mat, rho.mat, atol=1e-12)


def test_partial_trace_bell_marginal():
    reduced = partial_trace(bell().mat, (2, 2), "A")
    assert np.allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rho = random_density(6, 6, 3).mat
    assert np.trace(partial_trace(rho, (2, 3), "B").mat).real == pytest.approx(1.0)


def test_identity_channel_fixed_point():
    chan = QuantumChannel(kraus=(np.eye(2),), in_dim=2, out_dim=2)
    rho = random_density(2, 2, 4)
    assert np.allclose(apply_channel(chan, rho).mat, rho.mat)


def test_depolarizing_channel_fixed_point():
    d = 2
    kraus = tuple(np.outer(np.eye(d)[i], np.eye(d)[j]) / np.sqrt(d)
                  for i in range(d) for j in range(d))
    chan = QuantumChannel(kraus=kraus, in_dim=d, out_dim=d)
    out = apply_channel(chan, random_density(d, d, 5))
    assert np.allclose(out.mat, np.eye(d) / d, atol=1e-12)


def test_random_channel_trace_preserving():
    chan = random_channel(3, 3, 2, 6)
    rho = random_density(3, 3, 7)
    assert np.trace(apply_channel(chan, rho).mat).real == pytest.approx(1.0, abs=1e-10)


def test_random_density_rank_one_is_pure():
    rho = random_density(2, 1, 8)
    w = np.linalg.eigvalsh(rho.mat)
    assert w[-1] == pytest.approx(1.0, abs=1e-10)
    assert abs(w[0]) < 1e-10


def test_random_unitary_is_unitary():
    u = random_unitary(4, 9)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10


def test_random_effect_bounded():
    p = random_effect(3, 10).mat
    w = np.linalg.eigvalsh(p)
    assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12


def test_random_instrument_resolves_identity():
    inst = random_instrument(3, 2, 11)
    acc = sum(v.conj().T @ v for v in inst.elements)
    assert np.abs(acc - np.eye(3)).max() < 1e-10


def test_random_pure_bipartite_is_pure():
    rho = random_pure_bipartite(2, 3, 12)
    assert np.linalg.eigvalsh(rho.mat)[-1] == pytest.approx(1.0, abs=1e-10)


def test_seeded_determinism():
    assert np.array_equal(random_density(4, 4, 13).mat, random_density(4, 4, 13).mat)
    assert np.array_equal(random_unitary(3, 13), random_unitary(3, 13))


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValidationError):
        partial_trace(random_density(4, 4, 14).mat, (3, 2), "A")


@pytest.mark.parametrize("relation", [">=", ">"])
def test_spectral_projectors_match_compare_projector(relation):
    # the unchecked stack core returns, bit for bit, the projectors that
    # compare_projector checks and hands out, rank-deficient rho and singular
    # sigma included, and each of them passes the constructors' checks
    rng = np.random.default_rng(17)
    for trial in range(32):
        dim = 1 + trial % 16
        rho = random_density(dim, max(1, dim // 2) if trial % 3 == 0 else dim, rng).mat
        sigma = random_density(dim, max(1, dim - 1) if trial % 4 == 1 else dim, rng).mat
        scales = 2.0 ** np.linspace(-4.0, 4.0, 9)
        stack, ranks = _spectral_projectors(rho - scales[:, None, None] * sigma, relation)
        for p, rank, t in zip(stack, ranks, scales):
            checked = compare_projector(rho, t * sigma, relation)
            assert np.array_equal(p, checked.mat) and rank == checked.rank
            Projector(HermitianOperator(p), int(rank))


def test_projector_rejects_non_projectors():
    with pytest.raises(ValidationError, match="not idempotent"):
        Projector(HermitianOperator(np.diag([1.0, 0.5])), 1)
    with pytest.raises(ValidationError, match="rank does not match trace"):
        Projector(HermitianOperator(np.diag([1.0, 0.0])), 2)


def test_random_channel_rejects_empty_dimensions():
    for dims in ((0, 2, 2), (2, 0, 2), (2, 2, 0)):
        with pytest.raises(ValidationError, match="dimensions must be >= 1"):
            random_channel(*dims, seed=0)


# ------------------------------ the dtype rule ------------------------------

@pytest.mark.parametrize("entries", [
    [[True, False], [False, False]],
    [[1, 0], [0, 0]],
    np.array([[1, 2], [2, 1]], dtype=np.int32),
    np.array([[0.5, 0.25], [0.25, 0.5]], dtype=np.float32),
    [[0.5, 0.25], [0.25, 0.5]],
])
def test_real_input_gives_float64(entries):
    assert _as_matrix(entries).dtype == np.float64
    assert HermitianOperator(entries).mat.dtype == np.float64


@pytest.mark.parametrize("entries", [
    [[0.5, 0.25j], [-0.25j, 0.5]],
    np.array([[0.5, 0.0], [0.0, 0.5]], dtype=np.complex64),
    np.eye(2, dtype=complex) / 2,
])
def test_complex_input_stays_complex128(entries):
    assert _as_matrix(entries).dtype == np.complex128
    assert HermitianOperator(entries).mat.dtype == np.complex128
    assert DensityOperator.from_matrix(entries).mat.dtype == np.complex128


def test_density_from_real_matrix_is_float64():
    rho = DensityOperator.from_matrix(np.diag([0.75, 0.25]))
    assert rho.mat.dtype == np.float64
    assert compare_projector(rho, np.eye(2) / 2).mat.dtype == np.float64


@pytest.mark.parametrize("bad", [
    [[0.5, np.nan], [np.nan, 0.5]],
    [[np.inf, 0.0], [0.0, 0.5]],
    [[0.5, complex(0.0, np.inf)], [complex(0.0, -np.inf), 0.5]],
])
def test_hermitian_rejects_non_finite_entries(bad):
    # NaN entries used to pass as a normalized state whose d_max was NaN
    with pytest.raises(ValidationError, match="non-finite"):
        HermitianOperator(bad)
    with pytest.raises(ValidationError, match="non-finite"):
        DensityOperator.from_matrix(bad)


@pytest.mark.parametrize("bad", [
    [["0.5", "0"], ["0", "0.5"]],
    [["a", "b"], ["c", "d"]],
    [[0.5, None], [None, 0.5]],
])
def test_hermitian_rejects_non_numeric_entries(bad):
    with pytest.raises(ValidationError, match="numbers"):
        HermitianOperator(bad)
    with pytest.raises(ValidationError, match="numbers"):
        DensityOperator.from_matrix(bad)


@pytest.mark.parametrize("bad", [[[1.0, 0.0], [0.0]], [[1.0, [0.0, 1.0]], [0.0, 1.0]]])
def test_hermitian_rejects_ragged_entries(bad):
    with pytest.raises(ValidationError, match="do not form a matrix"):
        HermitianOperator(bad)


def _real_state(rng, dim, rank):
    g = rng.standard_normal((dim, rank))
    m = g @ g.T
    return m / np.trace(m)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_real_pair_matches_its_complex_copy(dim):
    rng = np.random.default_rng([22, dim])
    mats = (_real_state(rng, dim, (dim + 1) // 2), _real_state(rng, dim, dim))
    rho, sigma = (DensityOperator.from_matrix(m) for m in mats)
    rho_c, sigma_c = (DensityOperator.from_matrix(m.astype(complex)) for m in mats)
    assert rho.mat.dtype == sigma.mat.dtype == np.float64
    assert rho_c.mat.dtype == sigma_c.mat.dtype == np.complex128
    for fn in (d_max, d_min, relative_entropy):
        assert fn(rho, sigma).bits == pytest.approx(fn(rho_c, sigma_c).bits, abs=1e-12)
    eps = 0.1
    upper, upper_c = smooth_dmax_upper(rho, sigma, eps), smooth_dmax_upper(rho_c, sigma_c, eps)
    assert upper.lambda_bits == pytest.approx(upper_c.lambda_bits, abs=1e-12)
    assert smooth_dmin_lower(rho, sigma, eps) == pytest.approx(
        smooth_dmin_lower(rho_c, sigma_c, eps), abs=1e-12)
    lam = d_max(rho, sigma).bits - 0.3
    cert, cert_c = lemma5_smooth(rho, sigma, lam), lemma5_smooth(rho_c, sigma_c, lam)
    assert cert.smoothed.mat.dtype == np.float64
    assert np.abs(cert.smoothed.mat - cert_c.smoothed.mat).max() <= 1e-12
    assert cert.epsilon_used == pytest.approx(cert_c.epsilon_used, abs=1e-12)
    assert cert.transform_trace_dist == pytest.approx(cert_c.transform_trace_dist, abs=1e-12)
    for t in (0.3, 1.0, 2.0):
        for relation in (">=", ">", "<=", "<"):
            proj = compare_projector(rho, t * sigma.mat, relation)
            proj_c = compare_projector(rho_c, t * sigma_c.mat, relation)
            assert proj.mat.dtype == np.float64
            assert proj.rank == proj_c.rank
