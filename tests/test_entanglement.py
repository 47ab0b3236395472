import numpy as np
import pytest

from qdiv.entanglement import (
    BipartiteState,
    SeparableEnsemble,
    emax,
    is_ppt,
    monotone_condition_suite,
    partial_transpose,
    ppt_emax_lower,
    rel_ent_entanglement,
)
from qdiv.operators import (
    DensityOperator,
    ValidationError,
    partial_trace_matrix,
    random_pure_bipartite,
)


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return BipartiteState(dims=(2, 2),
                          state=DensityOperator.from_matrix(np.outer(v, v.conj())))


def product_state():
    mat = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
    return BipartiteState(dims=(2, 2), state=DensityOperator.from_matrix(mat))


def isotropic(visibility):
    mat = (visibility * bell_state().state.mat
           + (1 - visibility) * np.eye(4, dtype=complex) / 4)
    return BipartiteState(dims=(2, 2), state=DensityOperator.from_matrix(mat))


def test_partial_transpose_bell_spectrum():
    pt = partial_transpose(bell_state())
    w = np.linalg.eigvalsh(pt.mat)
    assert w[0] == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_involution():
    state = isotropic(1 / 3)
    pt = partial_transpose(state)
    again = partial_transpose(BipartiteState(
        dims=(2, 2), state=DensityOperator.from_matrix(pt.mat)))
    assert np.allclose(again.mat, state.state.mat, atol=1e-12)


def test_is_ppt_classifies():
    assert is_ppt(product_state())
    assert not is_ppt(bell_state())
    assert is_ppt(isotropic(1 / 3))
    assert not is_ppt(isotropic(0.4))


def test_separable_ensemble_validation():
    good = SeparableEnsemble(terms=((1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0])),))
    assert np.trace(good.assemble().mat).real == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        SeparableEnsemble(terms=((0.5, np.array([1.0, 0.0]), np.array([0.0, 1.0])),))
    with pytest.raises(ValidationError):
        SeparableEnsemble(terms=((1.0, np.array([2.0, 0.0]), np.array([0.0, 1.0])),))


def test_ppt_lower_separable_near_zero():
    assert ppt_emax_lower(product_state()) <= 1e-3


def test_ppt_lower_bell_near_one():
    assert ppt_emax_lower(bell_state()) >= 0.99


def test_ppt_lower_monotone_in_visibility():
    values = [ppt_emax_lower(isotropic(v)) for v in (0.9, 0.7, 0.5, 1 / 3)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-3
    assert values[-1] <= 1e-3


def schmidt_state(lam):
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(lam), np.sqrt(1 - lam)
    return BipartiteState(dims=(2, 2), state=DensityOperator.from_matrix(np.outer(v, v.conj())))


def test_ppt_lower_pure_state_oracle():
    # E_max of a pure state is 2 log2 sum_i sqrt(lambda_i); in 2 x 2 the PPT
    # bound equals it, and being certified it never lies above it
    cases = [(schmidt_state(0.7), 0.9384853944), (schmidt_state(0.8), 0.8479969066)]
    for s in (0, 1, 2):
        state = random_pure_bipartite(2, 2, np.random.default_rng(s))
        lam = np.clip(np.linalg.eigvalsh(partial_trace_matrix(state.mat, (2, 2), "B")), 0, None)
        cases.append((BipartiteState(dims=(2, 2), state=state),
                      2 * np.log2(np.sqrt(lam).sum())))
    for state, exact in cases:
        lower = ppt_emax_lower(state)
        assert lower == pytest.approx(exact, abs=1e-6)
        assert lower <= exact


def test_ppt_lower_isotropic_oracle():
    # log2((1 + 3 v) / 2) for two-qubit isotropic states with v > 1/3
    for v, exact in ((0.9, 0.8875252707), (0.7, 0.6322682155), (0.5, 0.3219280949)):
        lower = ppt_emax_lower(isotropic(v))
        assert lower == pytest.approx(exact, abs=1e-6)
        assert lower <= np.log2((1 + 3 * v) / 2)


def test_emax_product_state_near_zero():
    res = emax(product_state())
    assert res.upper_bits <= 1e-3
    assert res.lower_bits >= -1e-6


def test_emax_bell():
    res = emax(bell_state())
    assert res.upper_bits == pytest.approx(1.0, abs=1e-2)
    assert res.lower_bits == pytest.approx(1.0, abs=1e-2)
    assert res.gap <= 1e-2


def test_emax_witness_is_separable_certificate():
    res = emax(bell_state())
    sigma = res.witness.assemble()
    assert np.trace(sigma.mat).real == pytest.approx(1.0, abs=1e-9)
    assert is_ppt(BipartiteState(dims=(2, 2), state=sigma))


def test_rel_ent_entanglement_bounds():
    assert rel_ent_entanglement(product_state()) <= 1e-2
    assert rel_ent_entanglement(bell_state()) == pytest.approx(1.0, abs=1e-2)


def test_rel_ent_below_emax():
    state = isotropic(0.8)
    res = emax(state)
    assert rel_ent_entanglement(state) <= res.upper_bits + 1e-3


def test_monotone_condition_suite_passes():
    for seed in (0, 1, 2):
        results = monotone_condition_suite(isotropic(0.7), seed=seed)
        assert len(results) == 6
        for r in results:
            assert r.passed, f"{r.name}: violation {r.violation}"


def test_monotone_condition_names_stable():
    names = [r.name for r in monotone_condition_suite(bell_state(), seed=5)]
    assert names == [
        "positivity_and_zero_at_equality",
        "unitary_invariance",
        "partial_trace_monotone",
        "instrument_inequality",
        "block_decomposition_max",
        "pure_tensor_invariance",
    ]
