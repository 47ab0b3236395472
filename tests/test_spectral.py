import itertools
import math
import warnings

import numpy as np
import pytest

from qdiv.divergences import d_max, relative_entropy
from qdiv.operators import (
    DensityOperator,
    Spectrum,
    ValidationError,
    compare_projector,
    random_density,
)
from qdiv.smoothing import (
    smooth_dmax_exact,
    smooth_dmax_exact_classical,
    smooth_dmax_exact_log,
    smooth_dmax_upper,
    smooth_dmin_lower,
)
from qdiv.spectral import (
    RATIO_QUANTUM,
    IIDPair,
    _compositions,
    _log_sum_exp,
    _n_copy_pair,
    divergence_rate_estimate,
    joint_eigen_probabilities,
    lemma2_bound_check,
    rate_curve,
    spectral_trace,
    symmetric_compression,
    tensor_power,
    type_table,
)

RHO = DensityOperator.from_matrix(np.diag([0.75, 0.25]).astype(complex))
SIGMA = DensityOperator.from_matrix(np.diag([0.5, 0.5]).astype(complex))
PAIR = IIDPair(rho=RHO, sigma=SIGMA)


def noncommuting_pair():
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    sigma = np.array([[0.5, -0.1j], [0.1j, 0.5]], dtype=complex)
    return IIDPair(rho=DensityOperator.from_matrix(rho),
                   sigma=DensityOperator.from_matrix(sigma))


def dense_trace(pair, n, gamma, weight="rho"):
    """The dense spectral trace on the n-copy pair, as an oracle for the
    type-class path: the arithmetic of the library's dense path, with the
    projector from the public ``compare_projector``."""
    rho_n, sigma_n = (x.mat for x in _n_copy_pair(pair, n))
    proj = compare_projector(rho_n, 2.0 ** (n * gamma) * sigma_n).mat
    return max(float(np.trace(proj @ (rho_n if weight == "rho" else sigma_n)).real), 0.0)


def test_tensor_power_basics():
    assert np.allclose(tensor_power(RHO, 1).mat, RHO.mat)
    cube = tensor_power(RHO, 3)
    assert np.trace(cube.mat).real == pytest.approx(1.0)
    w = np.sort(np.linalg.eigvalsh(cube.mat))
    assert w[-1] == pytest.approx(0.75**3, abs=1e-12)


def test_tensor_power_guard():
    with pytest.raises(ValidationError, match="dense guard 4096$"):
        tensor_power(random_density(4, 4, 1), 7)


def test_tensor_power_rejects_bad_n():
    # n = 0 raised a bare ValueError and n = 1.5 a TypeError; True passed as 1
    for n in (0, -1, 1.5, True):
        with pytest.raises(ValidationError, match="integer >= 1"):
            tensor_power(RHO, n)


def test_commuting_detection():
    assert PAIR.commuting
    assert not noncommuting_pair().commuting


def _compositions_recursive(n, d):
    """All ways to split n into d nonnegative parts, in lexicographic order."""
    if d == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions_recursive(n - first, d - 1):
            yield (first,) + rest


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_compositions_match_recursive_oracle(d):
    for n in range(31 if d <= 3 else 13):
        expected = np.array(list(_compositions_recursive(n, d)))
        got = _compositions(n, d)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def _type_table_reference(p, q, n):
    """The type table from a stars-and-bars enumeration (the parts are the gaps
    between d - 1 bars placed in increasing order among n + d - 1 slots) and
    row sums over (K, d) arrays of per-letter terms."""
    d = len(p)
    bars = np.array(list(itertools.combinations(range(n + d - 1), d - 1)),
                    dtype=np.int64).reshape(math.comb(n + d - 1, d - 1), d - 1)
    ks = np.diff(bars, axis=1, prepend=-1, append=n + d - 1) - 1
    log_fact = np.cumsum(np.log(np.arange(n + 1, dtype=np.longdouble).clip(1))).astype(float)
    logmult = log_fact[n] - log_fact[ks].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp, lq = np.log(p), np.log(q)
        seq_lp = np.where(ks > 0, ks * lp, 0.0).sum(axis=1)
        seq_lq = np.where(ks > 0, ks * lq, 0.0).sum(axis=1)
        ratio = (seq_lp - seq_lq) / math.log(2.0)
    ratio = np.where(np.isneginf(seq_lp) & np.isneginf(seq_lq), np.inf, ratio)
    finite = np.isfinite(ratio)
    ratio[finite] = np.round(ratio[finite] / RATIO_QUANTUM) * RATIO_QUANTUM
    return logmult + seq_lp, logmult + seq_lq, ratio


def _weight_cases(d, rng):
    """Seeded (p, q) of length d: positive, then with a zero weight in p, in q
    and in both at one letter."""
    p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
    yield p, q
    zero = np.arange(d) == rng.integers(d)
    for in_p, in_q in ((True, False), (False, True), (True, True)):
        yield np.where(in_p & zero, 0.0, p), np.where(in_q & zero, 0.0, q)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_type_table_bitwise_equals_row_sum_reference(d):
    # summed one letter at a time from 0, as numpy sums fewer than 8 terms
    rng = np.random.default_rng([d, 21])
    for n in range(41 if d <= 4 else 13):
        for p, q in _weight_cases(d, rng):
            table = type_table(p, q, n)
            for got, want in zip((table.log_p, table.log_q, table.ratio_bits),
                                 _type_table_reference(p, q, n)):
                assert got.tobytes() == want.tobytes(), (n, p, q)


@pytest.mark.parametrize("d", [8, 9, 10])
def test_type_table_near_row_sum_reference_from_d8(d):
    # numpy's pairwise summation of 8 or more terms takes another order
    rng = np.random.default_rng([d, 21])
    for n in range(7):
        for p, q in _weight_cases(d, rng):
            table = type_table(p, q, n)
            log_p, log_q, ratio = _type_table_reference(p, q, n)
            for got, want in ((table.log_p, log_p), (table.log_q, log_q)):
                assert np.array_equal(np.isneginf(got), np.isneginf(want))
                assert np.allclose(got, want, rtol=0, atol=1e-13)
            with np.errstate(invalid="ignore"):  # inf - inf on zero-mass types
                apart = np.abs(table.ratio_bits - ratio)
            # the ratios are multiples of RATIO_QUANTUM: equal, or one apart
            assert ((table.ratio_bits == ratio) | (apart <= 1.5 * RATIO_QUANTUM)).all()


def test_type_table_rejects_bad_input():
    p = np.array([0.75, 0.25])
    for n in (-1, 2.5, True, None):
        with pytest.raises(ValidationError, match="integer >= 0"):
            type_table(p, p, n)
    for p_bad, q_bad in ((p, np.array([0.5, 0.3, 0.2])), (p[None, :], p[None, :]),
                         (np.array(0.5), np.array(0.5)), (np.array([]), np.array([]))):
        with pytest.raises(ValidationError, match="1-D"):
            type_table(p_bad, q_bad, 3)
    # these gave NaN log masses without a warning
    for bad in ([1.2, -0.2], [math.nan, 1.0], [math.inf, 0.5]):
        for p_bad, q_bad in ((bad, p), (p, bad)):
            with pytest.raises(ValidationError, match="finite, nonnegative"):
                type_table(p_bad, q_bad, 3)


def test_type_table_log_multinomials_match_factorials():
    # with unit weights the log masses are the log multinomials themselves
    fact = [math.factorial(k) for k in range(61)]
    for d in (1, 2, 3, 4):
        for n in range(61):
            table = type_table(np.ones(d), np.ones(d), n)
            exact = [math.log(fact[n] // math.prod(fact[k] for k in ks))
                     for ks in _compositions(n, d).tolist()]
            assert np.allclose(table.log_p, exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p, n_max", [((0.75, 0.25), 3000), ((0.9, 0.1), 3000),
                                      ((0.5, 0.3, 0.2), 300), ((0.4, 0.3, 0.2, 0.1), 60)])
def test_type_table_masses_sum_to_one(p, n_max):
    # the log masses are differences of terms as large as log n!, so their
    # rounding, and the total's, grows with n
    for n in (1, 2, 10, n_max // 3, n_max):
        table = type_table(np.array(p), np.array(p), n)
        assert abs(math.fsum(np.exp(table.log_p)) - 1.0) <= 1e-15 * n


def test_spectral_trace_extremes():
    assert spectral_trace(PAIR, 3, -60.0) == pytest.approx(1.0)
    assert spectral_trace(PAIR, 3, 60.0) == pytest.approx(0.0)


def test_spectral_trace_two_copy_value():
    # at gamma = 0.3 only sequences with both letters in the heavy symbol qualify
    assert spectral_trace(PAIR, 2, 0.3) == pytest.approx(9.0 / 16.0, abs=1e-12)


def test_spectral_trace_paths_agree():
    for n in (1, 2, 3, 4):
        for gamma in (-0.5, 0.0, 0.2, 0.4):
            assert spectral_trace(PAIR, n, gamma) == pytest.approx(
                dense_trace(PAIR, n, gamma), abs=1e-10)


def test_lemma2_bound_holds():
    for n in (1, 2, 4, 6):
        for gamma in (0.05, 0.2, 0.5):
            lhs, rhs = lemma2_bound_check(PAIR, n, gamma)
            assert lhs <= rhs + 1e-12


def test_lemma2_single_copy_values():
    lhs, rhs = lemma2_bound_check(PAIR, 1, 0.3)
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert rhs == pytest.approx(0.812252, abs=1e-6)


def test_lemma2_two_copy_values():
    lhs, rhs = lemma2_bound_check(PAIR, 2, 0.3)
    assert lhs == pytest.approx(0.25, abs=1e-12)
    assert rhs == pytest.approx(2.0 ** (-0.6), abs=1e-12)


def test_rate_curve_equal_states_is_flat():
    pair = IIDPair(rho=SIGMA, sigma=SIGMA)
    for pt in rate_curve(pair, 1e-7, [1, 3, 5]):
        assert abs(pt.dmax_over_n) <= 1e-6
        assert abs(pt.dmin_over_n) <= 1e-6
        assert abs(pt.rel_entropy) <= 1e-12


def test_rate_curve_sandwich_and_convergence():
    rel = relative_entropy(RHO.mat, SIGMA.mat).bits
    points = rate_curve(PAIR, 0.05, list(range(1, 11)))
    for pt in points:
        assert pt.dmin_over_n <= rel + 1e-3
        assert rel <= pt.dmax_over_n + 1e-3
    assert abs(points[9].dmax_over_n - rel) < abs(points[0].dmax_over_n - rel)


def test_rate_curve_fast_path_large_n():
    pt = rate_curve(PAIR, 0.05, [200])[0]
    assert pt.dmax_over_n == pytest.approx(0.260214, abs=1e-5)
    # type classes whose sigma-masses lie far below the float range
    cases = [
        ((0.9, 0.1), (0.3, 0.7), 1000, 1.21136792696, None),
        ((0.9, 0.1), (0.3, 0.7), 1200, 1.20673140948, 1.02790009827),
        ((0.75, 0.25), (0.5, 0.5), 3000, 0.20876307885, None),
    ]
    for p, q, n, dmax_over_n, dmin_over_n in cases:
        pair = IIDPair(rho=DensityOperator.from_matrix(np.diag(p).astype(complex)),
                       sigma=DensityOperator.from_matrix(np.diag(q).astype(complex)))
        pt = rate_curve(pair, 0.05, [n])[0]
        assert pt.dmax_over_n == pytest.approx(dmax_over_n, abs=1e-10)
        if dmin_over_n is not None:
            assert pt.dmin_over_n == pytest.approx(dmin_over_n, abs=1e-10)


def test_rate_curve_zero_dmin_rate_is_positive_zero():
    # diag(.75, .25) against I/2 keeps all of sigma's mass at n <= 5; the rate
    # is exactly 0, never -0.0 or a rounding-level negative
    for pt in rate_curve(PAIR, 0.05, [1, 2, 3, 4, 5]):
        assert pt.dmin_over_n == 0.0
        assert math.copysign(1.0, pt.dmin_over_n) == 1.0


RANK_DEFICIENT = [
    ((1.0, 0.0), (0.5, 0.5)),
    ((0.9, 0.1, 0.0), (1 / 3, 1 / 3, 1 / 3)),
    ((0.9, 0.1, 0.0), (0.5, 0.5, 0.0)),
    ((0.6, 0.4, 0.0), (0.2, 0.3, 0.5)),
]


def _diagonal_pair(p, q):
    return IIDPair(rho=DensityOperator.from_matrix(np.diag(p).astype(complex)),
                   sigma=DensityOperator.from_matrix(np.diag(q).astype(complex)))


@pytest.mark.parametrize("p, q", RANK_DEFICIENT)
def test_spectral_trace_paths_agree_on_zero_eigenvalues(p, q):
    pair = _diagonal_pair(p, q)
    for n in (1, 2, 3, 4):
        for gamma in (-0.5, 0.0, 0.3, 0.7):
            for weight in ("rho", "sigma"):
                assert spectral_trace(pair, n, gamma, weight=weight) == pytest.approx(
                    dense_trace(pair, n, gamma, weight), abs=1e-12)


@pytest.mark.parametrize("p, q", RANK_DEFICIENT)
def test_rate_curve_dmax_on_zero_eigenvalues_matches_product(p, q):
    pair = _diagonal_pair(p, q)
    for eps in (0.05, 0.2):
        for pt in rate_curve(pair, eps, [1, 2, 3, 4]):
            p_n, q_n = np.array(p), np.array(q)
            for _ in range(pt.n - 1):
                p_n, q_n = np.kron(p_n, p), np.kron(q_n, q)
            exact = smooth_dmax_exact_classical(p_n, q_n, eps)
            assert pt.dmax_over_n == pytest.approx(exact / pt.n, abs=1e-12)


def test_rate_curve_dmin_on_zero_eigenvalue_is_closed_form():
    # at eps = 0.01 no type class is light enough to delete for n <= 4, so
    # the rate is the unsmoothed D_min, additive over copies
    pair = _diagonal_pair((0.9, 0.1, 0.0), (1 / 3, 1 / 3, 1 / 3))
    for pt in rate_curve(pair, 0.01, [1, 2, 3, 4]):
        assert pt.dmin_over_n == -math.log2(2 / 3)


@pytest.mark.parametrize("p, q, kept", [
    ((0.9, 0.1), (0.5, 0.5), 3 / 4),
    ((0.9, 0.1, 0.0), (1 / 3, 1 / 3, 1 / 3), 1 / 3),
    ((0.6, 0.3, 0.1), (1 / 3, 1 / 3, 1 / 3), 8 / 9),
    ((0.4, 0.3, 0.2, 0.1), (0.25, 0.25, 0.25, 0.25), 15 / 16),
])
def test_rate_curve_dmin_budget_tie_is_allowed(p, q, kept):
    # at n = 2 the lightest type class has rho-mass 0.01 = eps^2 / 4 for
    # eps = 0.2: deleting it meets 2 sqrt(delta) <= eps with equality
    pt = rate_curve(_diagonal_pair(p, q), 0.2, [2])[0]
    assert pt.dmin_over_n == pytest.approx(-math.log2(kept) / 2, abs=1e-12)


def _ginibre_qubit(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_rate_curve_dense_near_singular_sigma():
    # sigma's eigenvalues are 0.0123 and 0.9877, so sigma^(x)5 has condition
    # number 3e9; there the contraction at lambda = D_max used to lift the
    # smoothed trace to 1 + 1.2e-8 and fail the state check.  n = 6 still
    # raises the support error: the j = n/2 block of the compressed pair has
    # m = 1 and holds both extremes of sigma^(x)6, whose ratio falls below
    # SUPPORT_RTOL (ROADMAP.md, item 10).
    rng = np.random.default_rng([2, 2])
    rho = DensityOperator.from_matrix(_ginibre_qubit(rng))
    sigma = DensityOperator.from_matrix(_ginibre_qubit(rng))
    pt = rate_curve(IIDPair(rho=rho, sigma=sigma), 0.05, [5])[0]
    assert 0.0 <= pt.dmin_over_n <= pt.dmax_over_n
    # no smoothing within eps pays off here, so the bound is D_max, additive
    # over copies; at this condition number d_max of the complex n-copy pair
    # carries rounding near 1e-7, that of the real frame, with sigma~
    # diagonal, near 1e-15
    assert pt.dmax_over_n == pytest.approx(d_max(rho.mat, sigma.mat).bits, abs=1e-6)


def test_rate_curve_dense_dmin_rate_is_nonnegative():
    # sigma is a state, so D_min >= 0: rounding below zero and -0.0 are
    # floored at +0.0, as on the commuting path
    rng = np.random.default_rng([0, 0])
    half_mixed = [DensityOperator.from_matrix(0.25 * np.eye(2) + 0.5 * _ginibre_qubit(rng))
                  for _ in range(2)]
    for pair in (IIDPair(rho=random_density(2, 2, 1), sigma=random_density(2, 2, 2)),
                 IIDPair(rho=half_mixed[0], sigma=half_mixed[1])):
        for pt in rate_curve(pair, 0.05, [1, 2, 3, 4, 5]):
            assert math.copysign(1.0, pt.dmin_over_n) == 1.0


def test_divergence_rate_estimate_equal_states():
    pair = IIDPair(rho=SIGMA, sigma=SIGMA)
    est = divergence_rate_estimate(pair, 0.05, 8)
    assert -0.1 <= est["inf_est"] <= 0.1
    assert -0.1 <= est["sup_est"] <= 0.1


def test_divergence_rate_estimate_benchmark():
    est = divergence_rate_estimate(PAIR, 0.05, 10)
    assert est["inf_est"] <= est["sup_est"] + 1e-9
    assert est["sup_est"] == pytest.approx(0.417488, abs=1e-5)


def test_divergence_rate_estimate_ordering_small_eps():
    for n_max in (2, 5, 8):
        est = divergence_rate_estimate(PAIR, 1e-7, n_max)
        assert est["inf_est"] <= est["sup_est"] + 1e-9


def test_rate_curve_rejects_bad_eps():
    with pytest.raises(ValueError):
        rate_curve(PAIR, 0.0, [1])
    with pytest.raises(ValueError):
        rate_curve(PAIR, 1.0, [1])


def test_rate_curve_dense_path_noncommuting():
    points = rate_curve(noncommuting_pair(), 0.01, [1, 2])
    rel = points[0].rel_entropy
    for pt in points:
        assert pt.dmin_over_n <= pt.dmax_over_n + 1e-6
        assert math.isfinite(pt.dmax_over_n)
        assert pt.rel_entropy == pytest.approx(rel)


def test_rate_curve_and_spectral_trace_reject_bad_n():
    # one check for both paths: the commuting pair used to fail with
    # ZeroDivisionError or IndexError, the dense path with a bare ValueError,
    # and the fast spectral trace returned 1.0 at n = 0; an empty list
    # returned no points
    for pair in (PAIR, noncommuting_pair()):
        for n_list in ([], [0], [-1], [1, 0], [1.5], [2.0], [True]):
            with pytest.raises(ValidationError, match="integer >= 1"):
                rate_curve(pair, 0.05, n_list)
        for n in (0, -1, 1.5, True):
            with pytest.raises(ValidationError, match="integer >= 1"):
                spectral_trace(pair, n, 0.1)


# ------------------- Schur-Weyl compression of qubit pairs -------------------

def _half_mixed_qubit(rng):
    return 0.25 * np.eye(2) + 0.5 * _ginibre_qubit(rng)


def _qubit_pairs(seed):
    """Random qubit pairs: full-rank, half-mixed, and a pure rho."""
    rng = np.random.default_rng([7, seed])
    half = _half_mixed_qubit(rng)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    sigma = _ginibre_qubit(rng)
    return [IIDPair(rho=DensityOperator.from_matrix(r), sigma=DensityOperator.from_matrix(sigma))
            for r in (_ginibre_qubit(rng), half, pure)]


def _multiplicities(n):
    """(block dimension 2j + 1, multiplicity m_j) for j = n/2, n/2 - 1, ..."""
    return [(n - 2 * depth + 1,
             math.comb(n, depth) - (math.comb(n, depth - 1) if depth else 0))
            for depth in range(n // 2 + 1)]


@pytest.mark.parametrize("seed", range(3))
def test_symmetric_compression_spectrum_matches_tensor_power(seed):
    for pair in _qubit_pairs(seed):
        for n in range(1, 9):
            rho_c, sigma_c = symmetric_compression(pair.rho, n), symmetric_compression(pair.sigma, n)
            rho_n, sigma_n = tensor_power(pair.rho, n), tensor_power(pair.sigma, n)
            blocks = _multiplicities(n)
            assert sum(dim * m for dim, m in blocks) == 2**n
            assert rho_c.dim == sum(dim for dim, _ in blocks) == (n + 2) ** 2 // 4
            assert abs(rho_c.trace - 1.0) <= 1e-12 and abs(sigma_c.trace - 1.0) <= 1e-12
            for t in (0.0, 0.3, 1.0, 2.5):
                diff = rho_c.mat - t * sigma_c.mat
                spectrum, start = [], 0
                for dim, m in blocks:
                    block = diff[start:start + dim, start:start + dim]
                    spectrum.append(np.repeat(np.linalg.eigvalsh(block) / m, m))
                    start += dim
                expected = np.linalg.eigvalsh(rho_n.mat - t * sigma_n.mat)
                assert np.abs(np.sort(np.concatenate(spectrum)) - expected).max() <= 1e-12


def test_symmetric_compression_single_copy_is_rho():
    for pair in _qubit_pairs(0):
        assert np.array_equal(symmetric_compression(pair.rho, 1).mat, pair.rho.mat)


def test_symmetric_compression_rejects_bad_input():
    with pytest.raises(ValidationError, match="qubit"):
        symmetric_compression(random_density(3, 3, 0), 2)
    with pytest.raises(ValidationError):
        symmetric_compression(RHO, 0)
    # floor((126 + 2)^2 / 4) = 4096 is the last compressed dimension allowed
    with pytest.raises(ValidationError, match="guard"):
        symmetric_compression(RHO, 127)


@pytest.mark.parametrize("seed", range(2))
def test_qubit_operator_path_matches_kronecker_path(seed):
    eps = 0.05
    for pair in _qubit_pairs(seed)[:2] + [noncommuting_pair()]:
        points = rate_curve(pair, eps, [1, 2, 3, 4, 5])
        for pt in points:
            rho_n, sigma_n = tensor_power(pair.rho, pt.n), tensor_power(pair.sigma, pt.n)
            dmax = smooth_dmax_upper(rho_n, sigma_n, eps).lambda_bits
            dmin = max(0.0, smooth_dmin_lower(rho_n, sigma_n, eps))
            assert pt.dmax_over_n == pytest.approx(dmax / pt.n, abs=1e-10)
            # where rho^(x)n has eigenvalues below SUPPORT_RTOL times its
            # largest (seed 0's first rho, eigenvalue ratio 7.3e-4, from n = 4
            # on), D_min is decided by the directions the cutoff drops (ROADMAP.md,
            # item 10); both paths drop the same ones, and the sigma-overlap of
            # the rest differs by the rounding of those eigenvectors, up to
            # 1.7e-10 bits per copy
            cut = Spectrum.of(rho_n).support.sum() < rho_n.dim
            assert pt.dmin_over_n == pytest.approx(dmin / pt.n, abs=1e-9 if cut else 1e-10)
            for gamma in (-0.5, 0.0, 0.3, 1.0):
                scaled = 2.0 ** (pt.n * gamma) * sigma_n.mat
                proj = compare_projector(rho_n.mat, scaled, ">=").mat
                for weight, target in (("rho", rho_n.mat), ("sigma", sigma_n.mat)):
                    dense = max(float(np.trace(proj @ target).real), 0.0)
                    got = spectral_trace(pair, pt.n, gamma, weight=weight)
                    assert got == pytest.approx(dense, abs=1e-10)


def test_smooth_dmax_exact_on_compressed_pair_matches_tensor_power():
    pair = _qubit_pairs(0)[1]
    for n in (1, 2, 3, 4):
        compressed = smooth_dmax_exact(symmetric_compression(pair.rho, n),
                                       symmetric_compression(pair.sigma, n), 0.1)
        dense = smooth_dmax_exact(tensor_power(pair.rho, n), tensor_power(pair.sigma, n), 0.1)
        assert compressed == pytest.approx(dense, abs=1e-8)


def test_qubit_path_factors_only_compressed_matrices(monkeypatch):
    sizes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            sizes.append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    # half-mixed states keep sigma^(x)12 above the support cutoff
    rng = np.random.default_rng([7, 9])
    pair = IIDPair(rho=DensityOperator.from_matrix(_half_mixed_qubit(rng)),
                   sigma=DensityOperator.from_matrix(_half_mixed_qubit(rng)))
    for n in (3, 6, 9, 12):
        sizes.clear()
        rate_curve(pair, 0.05, [n])
        spectral_trace(pair, n, 0.2)
        assert sizes and max(sizes) == (n + 2) ** 2 // 4


# -------------------- the real frame of a qubit pair --------------------

def _real_frame_pairs():
    """Non-commuting qubit pairs: full rank, rank-1 rho, and the near-singular
    sigma of ``test_rate_curve_dense_near_singular_sigma``."""
    rng = np.random.default_rng([22, 0])
    full = IIDPair(rho=DensityOperator.from_matrix(_ginibre_qubit(rng)),
                   sigma=DensityOperator.from_matrix(_ginibre_qubit(rng)))
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pure = IIDPair(rho=DensityOperator.from_matrix(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real),
                   sigma=DensityOperator.from_matrix(_ginibre_qubit(rng)))
    rng = np.random.default_rng([2, 2])
    near_singular = IIDPair(rho=DensityOperator.from_matrix(_ginibre_qubit(rng)),
                            sigma=DensityOperator.from_matrix(_ginibre_qubit(rng)))
    return {"full rank": full, "rank-1 rho": pure, "near-singular sigma": near_singular}


@pytest.mark.parametrize("label", ["full rank", "rank-1 rho", "near-singular sigma"])
def test_real_frame_compressed_pair_is_real_with_diagonal_sigma(label):
    pair = _real_frame_pairs()[label]
    assert not pair.commuting
    assert pair.rho.mat.dtype == pair.sigma.mat.dtype == np.complex128
    for n in range(1, 6):
        rho_c, sigma_c = _n_copy_pair(pair, n)
        assert rho_c.mat.dtype == sigma_c.mat.dtype == np.float64
        assert np.array_equal(sigma_c.mat, np.diag(np.diagonal(sigma_c.mat)))


def test_joint_eigen_probabilities_of_real_rho_and_complex_sigma():
    # rho = I/2 is real and degenerate, so sigma is split inside its one
    # eigenspace by complex eigenvectors, which must not be cast into rho's
    # real eigenbasis
    sigma = np.array([[0.5, 0.2j], [-0.2j, 0.5]])
    pair = IIDPair(rho=DensityOperator.from_matrix(np.eye(2) / 2),
                   sigma=DensityOperator.from_matrix(sigma))
    assert pair.commuting and pair.rho.mat.dtype == np.float64
    p, q = joint_eigen_probabilities(pair)
    assert np.allclose(p, [0.5, 0.5]) and np.allclose(q, [0.3, 0.7])
    diagonal = _diagonal_pair([0.5, 0.5], [0.3, 0.7])
    for pt, ref in zip(rate_curve(pair, 0.05, [1, 3]), rate_curve(diagonal, 0.05, [1, 3])):
        assert pt.dmax_over_n == pytest.approx(ref.dmax_over_n, abs=1e-12)
        assert pt.dmin_over_n == pytest.approx(ref.dmin_over_n, abs=1e-12)


@pytest.mark.parametrize("label", ["full rank", "rank-1 rho", "near-singular sigma"])
def test_real_frame_matches_complex_tensor_power_pair(label):
    pair = _real_frame_pairs()[label]
    eps = 0.05
    for pt in rate_curve(pair, eps, [1, 2, 3, 4]):
        rho_n, sigma_n = tensor_power(pair.rho, pt.n), tensor_power(pair.sigma, pt.n)
        assert rho_n.mat.dtype == np.complex128
        dmax = smooth_dmax_upper(rho_n, sigma_n, eps).lambda_bits
        dmin = max(0.0, smooth_dmin_lower(rho_n, sigma_n, eps))
        if label == "near-singular sigma":
            # no smoothing pays off, so the bound is D_max, n times the
            # single-copy value; the whitening by sigma^(x)n^{-1/2}, condition
            # number 6.5e7 at n = 4, leaves 2.8e-10 bits of rounding in the
            # tensor-power value, and 3e-15 in the real frame's
            assert dmax == d_max(rho_n.mat, sigma_n.mat).bits
            exact = pt.n * d_max(pair.rho.mat, pair.sigma.mat).bits
            assert abs(dmax - exact) <= 1e-9
            dmax = exact
        assert pt.dmax_over_n == pytest.approx(dmax / pt.n, abs=1e-12)
        assert pt.dmin_over_n == pytest.approx(dmin / pt.n, abs=1e-12)
        for gamma in (-0.5, 0.0, 0.3, 1.0, 2.5):
            scaled = 2.0 ** (pt.n * gamma) * sigma_n.mat
            proj = compare_projector(rho_n.mat, scaled, ">=").mat
            for weight, target in (("rho", rho_n.mat), ("sigma", sigma_n.mat)):
                dense = max(float(np.trace(proj @ target).real), 0.0)
                got = spectral_trace(pair, pt.n, gamma, weight=weight)
                assert got == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_spectral_trace_rejects_non_finite_gamma(gamma):
    # the type-class path returned 0.0 for NaN and +inf, and the dense path
    # raised LinAlgError from eigh
    for pair in (PAIR, noncommuting_pair()):
        for weight in ("rho", "sigma"):
            with pytest.raises(ValidationError, match="finite"):
                spectral_trace(pair, 2, gamma, weight=weight)
        with pytest.raises(ValidationError, match="finite"):
            lemma2_bound_check(pair, 2, gamma)


def test_thresholds_beyond_float_range_are_validation_errors():
    # 2^{n gamma} and 2^{-n gamma} used to raise OverflowError past 2^1024
    dense = IIDPair(rho=random_density(2, 2, 1), sigma=random_density(2, 2, 2))
    with pytest.raises(ValidationError, match="float range"):
        spectral_trace(dense, 1, 1100.0)
    for pair in (dense, PAIR):
        with pytest.raises(ValidationError, match="float range"):
            lemma2_bound_check(pair, 1, -1100.0)
    # the type-class path compares log-ratios and answers any finite gamma
    assert spectral_trace(PAIR, 1, 1100.0) == 0.0
    assert spectral_trace(PAIR, 1, -1100.0) == pytest.approx(1.0, abs=1e-12)
    assert lemma2_bound_check(PAIR, 1, 1100.0) == (0.0, 0.0)


# ------------------ log-domain sums of the type-class path -------------------

def _smooth_dmax_exact_log_reference(log_p, log_q, eps):
    """The exact smooth D_max from one sort and one ``logaddexp`` accumulation
    over the whole table, every cost evaluated."""
    live = np.isfinite(log_p)
    fixed = float(np.exp(log_p[live & np.isneginf(log_q)]).sum())
    if fixed > eps:
        return math.inf
    keep = live & np.isfinite(log_q)
    order = np.argsort(log_q[keep] - log_p[keep])
    lp, lq = log_p[keep][order], log_q[keep][order]
    if not lp.size:
        return -math.inf
    cum_p = np.cumsum(np.exp(lp))
    log_cum_q = np.logaddexp.accumulate(lq)
    cost = fixed + np.concatenate(([0.0], cum_p[:-1] - np.exp(lp[1:] - lq[1:] + log_cum_q[:-1])))
    above = np.flatnonzero(cost > eps)
    k = above[0] if above.size else len(cost)
    excess = fixed + cum_p[k - 1] - eps
    if excess <= 0.0:
        return -math.inf
    return float(math.log(excess) - log_cum_q[k - 1]) / math.log(2.0)


def _log_table_cases():
    """400 seeded tables at d = 2..5, a third with a zero weight in p or q,
    then large ones: d = 2 up to n = 4 * 10^4 and d = 3 at n = 600."""
    rng = np.random.default_rng(25)
    n_cap = {2: 120, 3: 120, 4: 50, 5: 24}
    for _ in range(400):
        d = int(rng.integers(2, 6))
        p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
        if rng.random() < 0.3:
            p[rng.integers(d)] = 0.0
        if rng.random() < 0.3:
            q[rng.integers(d)] = 0.0
        yield p / p.sum(), q / q.sum(), int(rng.integers(1, n_cap[d]))
    for n in (1000, 3000, 10_000, 40_000):
        yield np.array([0.75, 0.25]), np.array([0.5, 0.5]), n
    yield np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5]), 600


def test_smooth_dmax_exact_log_bitwise_equals_full_accumulation():
    # log Q is accumulated only from just before the first possible crossing
    for p, q, n in _log_table_cases():
        table = type_table(p, q, n)
        for eps in (0.01, 0.05, 0.2, 0.6):
            got = smooth_dmax_exact_log(table.log_p, table.log_q, eps)
            want = _smooth_dmax_exact_log_reference(table.log_p, table.log_q, eps)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (p, q, n, eps)


def test_log_sum_exp_edges_against_fsum():
    cases = [np.array([]), np.full(3, -np.inf), np.array([-np.inf, -1.0, -np.inf, -2.5]),
             np.array([0.0, -1e5, -50.0, -1e5 + 3.0]), np.array([-7e4, -7e4 - 1e5, -7e4 + 0.5]),
             np.log(np.random.default_rng(3).random(1000))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in cases:
            got = _log_sum_exp(x)
            finite = x[np.isfinite(x)]
            if not finite.size:
                assert got == -math.inf
                continue
            top = float(finite.max())
            want = top + math.log(math.fsum(math.exp(v - top) for v in finite))
            assert got == pytest.approx(want, rel=1e-15, abs=1e-15)


_LOGADDEXP = np.logaddexp


class _CountingLogaddexp:
    """Stands in for ``np.logaddexp`` and counts the elements passed to it."""

    def __init__(self):
        self.elements = 0

    def __call__(self, *args, **kwargs):
        self.elements += int(np.broadcast(*args[:2]).size)
        return _LOGADDEXP(*args, **kwargs)

    def reduce(self, a, *args, **kwargs):
        self.elements += np.size(a)
        return _LOGADDEXP.reduce(a, *args, **kwargs)

    def accumulate(self, a, *args, **kwargs):
        self.elements += np.size(a)
        return _LOGADDEXP.accumulate(a, *args, **kwargs)


def test_type_class_rate_point_stays_out_of_logaddexp(monkeypatch):
    # the d = 4 pair of the rates_types benchmark at n = 60, 39,711 type
    # classes: the smooth D_max crosses its budget near class 3,800, and
    # nothing else runs through logaddexp
    counter = _CountingLogaddexp()
    monkeypatch.setattr(np, "logaddexp", counter)
    pair = _diagonal_pair((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4))
    rate_curve(pair, 0.05, [60])
    assert 0 < counter.elements < 0.25 * math.comb(63, 3)
