import math

import numpy as np
import pytest

from qdiv.divergences import (
    chernoff_bound,
    d_max,
    d_max_forms,
    d_min,
    divergence_report,
    h_max,
    h_max_cond,
    h_min,
    h_min_cond,
    helstrom_min_error,
    mutual_max,
    mutual_min,
    relative_entropy,
    renyi_relative,
)
from qdiv.operators import DensityOperator, Spectrum, ValidationError, random_density
from qdiv.spectral import IIDPair

P = np.diag([0.75, 0.25]).astype(complex)
Q = np.diag([0.5, 0.5]).astype(complex)


def bell():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def test_dmax_diagonal_ratio():
    assert d_max(P, Q).bits == pytest.approx(math.log2(1.5), abs=1e-12)


def test_dmax_pure_vs_mixed():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert d_max(rho, Q).bits == pytest.approx(1.0, abs=1e-12)


def test_dmax_infinite_outside_support():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert not d_max(rho, sigma).finite


def test_dmax_three_forms_agree():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4, 5, 6):
        rho = random_density(dim, dim, rng).mat
        sigma = random_density(dim, dim, rng).mat
        f1, f2, f3 = d_max_forms(rho, sigma)
        vals = (f1.bits, f2.bits, f3.bits)
        assert max(vals) - min(vals) < 1e-8


def test_dmin_partial_support():
    rho = np.diag([0.9, 0.1, 0.0]).astype(complex)
    sigma = np.eye(3, dtype=complex) / 3
    assert d_min(rho, sigma).bits == pytest.approx(math.log2(1.5), abs=1e-12)


def test_dmin_zero_for_full_support():
    assert d_min(P, Q).bits == pytest.approx(0.0, abs=1e-12)
    half = np.eye(2, dtype=complex) / 2
    assert math.copysign(1.0, d_min(half, half).bits) == 1.0
    assert math.copysign(1.0, d_min(P, P).bits) == 1.0


def test_relative_entropy_diagonal():
    assert relative_entropy(P, Q).bits == pytest.approx(0.188722, abs=1e-6)


def test_renyi_half_value():
    assert renyi_relative(P, Q, 0.5).bits == pytest.approx(0.100031, abs=1e-6)


def test_renyi_alpha_out_of_range():
    for alpha in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            renyi_relative(P, Q, alpha)


def test_renyi_small_alpha_approaches_dmin():
    rho = np.diag([0.9, 0.1, 0.0]).astype(complex)
    sigma = np.eye(3, dtype=complex) / 3
    val = renyi_relative(rho, sigma, 1e-6).bits
    assert val == pytest.approx(d_min(rho, sigma).bits, abs=1e-4)


def test_chernoff_frozen_value():
    assert chernoff_bound(P, Q).bits == pytest.approx(0.0500, abs=5e-4)
    # an eigenvalue ratio of 1e-11 falls under the support cutoff
    rho = np.diag([1.0 - 1e-11, 1e-11]).astype(complex)
    assert chernoff_bound(rho, Q).bits == pytest.approx(1.0, abs=1e-9)


def _chernoff_matrix_powers(rho, sigma):
    """Reference: the Chernoff search with the objective Tr rho^s sigma^{1-s}
    formed from two matrix powers per evaluation."""
    spec_r, spec_s = Spectrum.of(rho), Spectrum.of(sigma)
    pi_r = spec_r.apply(np.ones_like, on_support=True)
    pi_s = spec_s.apply(np.ones_like, on_support=True)

    def f(s):
        left = pi_r if s <= 0.0 else spec_r.apply(lambda w: w**s, on_support=True)
        right = pi_s if s >= 1.0 else spec_s.apply(lambda w: w ** (1.0 - s), on_support=True)
        return float(np.trace(left @ right).real)

    grid = np.linspace(0.0, 1.0, 64)
    vals = [f(s) for s in grid]
    k = int(np.argmin(vals))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    best = min(min(vals), fc, fd)
    return math.inf if best <= 0 else -math.log2(best)


def test_chernoff_matches_matrix_powers():
    rng = np.random.default_rng(43)
    for trial in range(200):
        dim = 2 + trial % 15
        rho = random_density(dim, 1 + trial % dim, rng).mat
        sigma = random_density(dim, dim if trial % 3 else 1 + trial % dim, rng).mat
        value, reference = chernoff_bound(rho, sigma).bits, _chernoff_matrix_powers(rho, sigma)
        assert value == reference or abs(value - reference) <= 1e-12


def test_chernoff_dominates_dmin():
    rng = np.random.default_rng(11)
    for trial in range(100):
        dim = 2 + trial % 3
        rho = random_density(dim, dim, rng).mat
        sigma = random_density(dim, dim, rng).mat
        assert chernoff_bound(rho, sigma).bits >= d_min(rho, sigma).bits - 1e-9


def test_hmin_hmax_diagonal():
    rho = DensityOperator.from_matrix(P)
    assert h_min(rho) == pytest.approx(-math.log2(0.75), abs=1e-12)
    assert h_max(rho) == pytest.approx(1.0, abs=1e-12)


def test_hmin_cond_bell_is_minus_one():
    sigma_b = np.eye(2, dtype=complex) / 2
    assert h_min_cond(bell(), sigma_b, (2, 2)) == pytest.approx(-1.0, abs=1e-9)


def test_hmin_cond_maximally_mixed_product():
    rho_a = np.eye(2, dtype=complex) / 2
    rho_b = np.diag([0.7, 0.3]).astype(complex)
    joint = np.kron(rho_a, rho_b)
    assert h_min_cond(joint, rho_b, (2, 2)) == pytest.approx(1.0, abs=1e-9)


def test_hmax_cond_bell():
    sigma_b = np.eye(2, dtype=complex) / 2
    assert h_max_cond(bell(), sigma_b, (2, 2)) == pytest.approx(-1.0, abs=1e-9)


def test_mutual_information_bell():
    assert mutual_max(bell(), (2, 2)).bits == pytest.approx(2.0, abs=1e-9)
    assert mutual_min(bell(), (2, 2)).bits == pytest.approx(2.0, abs=1e-9)


def test_mutual_information_product_zero():
    joint = np.kron(P, Q)
    assert mutual_max(joint, (2, 2)).bits == pytest.approx(0.0, abs=1e-9)
    assert mutual_min(joint, (2, 2)).bits == pytest.approx(0.0, abs=1e-9)


def test_helstrom_diagonal():
    rho = np.diag([0.9, 0.1]).astype(complex)
    assert helstrom_min_error(rho, Q) == pytest.approx(0.3, abs=1e-12)


def test_report_sandwich():
    rng = np.random.default_rng(5)
    rho = random_density(3, 3, rng).mat
    sigma = random_density(3, 3, rng).mat
    rep = divergence_report(rho, sigma)
    assert rep.sandwich_ok
    assert rep.d_min.bits <= rep.rel_entropy.bits <= rep.d_max.bits + 1e-9


def test_sigma_factored_once(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    rng = np.random.default_rng(2)
    rho = random_density(4, 2, rng).mat
    sigma = random_density(4, 4, rng).mat
    singular = random_density(4, 3, rng).mat
    assert count(d_max, rho, sigma) <= 2
    assert count(relative_entropy, rho, sigma) <= 2
    assert count(d_max, rho, singular) <= 3
    assert count(chernoff_bound, rho, sigma) <= 2


def test_sigma_must_be_psd():
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValidationError):
        d_max(P, bad)


@pytest.mark.parametrize("pair_function", [
    d_max, d_min, relative_entropy, lambda r, s: renyi_relative(r, s, 0.5), chernoff_bound,
    divergence_report, lambda r, s: IIDPair(rho=r, sigma=s),
], ids=["d_max", "d_min", "relative_entropy", "renyi_relative", "chernoff_bound",
        "divergence_report", "IIDPair"])
@pytest.mark.parametrize("swap", [False, True])
def test_pair_shape_mismatch_is_validation_error(pair_function, swap):
    # these used to end in numpy's matmul or broadcast ValueError
    small, large = random_density(2, 2, 0), random_density(3, 3, 1)
    rho, sigma = (large, small) if swap else (small, large)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        pair_function(rho, sigma)
