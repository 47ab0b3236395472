import numpy as np
import pytest

from qdiv import entanglement
from qdiv._sdp import (
    FEAS_RTOL,
    GAP_RTOL,
    SolverError,
    hermitian_basis,
    hermitian_coordinates,
    solve_lmi,
)
from qdiv.entanglement import (
    WITNESS_MIX,
    BipartiteState,
    SeparableEnsemble,
    _ensemble_from_terms,
    _mixture_matrix,
    _pt_matrix,
    _wootters_terms,
    _wootters_vectors,
    emax,
    is_ppt,
    monotone_condition_suite,
    partial_transpose,
    ppt_emax_lower,
    rel_ent_entanglement,
)
from qdiv.divergences import d_max
from qdiv.operators import (
    DensityOperator,
    Spectrum,
    ValidationError,
    partial_trace_matrix,
    random_density,
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
    assert ppt_emax_lower(product_state()).lower_bits <= 1e-3


def test_ppt_lower_bell_near_one():
    assert ppt_emax_lower(bell_state()).lower_bits >= 0.99


def test_ppt_lower_monotone_in_visibility():
    values = [ppt_emax_lower(isotropic(v)).lower_bits for v in (0.9, 0.7, 0.5, 1 / 3)]
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
        lower = ppt_emax_lower(state).lower_bits
        assert lower == pytest.approx(exact, abs=1e-6)
        assert lower <= exact


def test_ppt_lower_isotropic_oracle():
    # log2((1 + 3 v) / 2) for two-qubit isotropic states with v > 1/3
    for v, exact in ((0.9, 0.8875252707), (0.7, 0.6322682155), (0.5, 0.3219280949)):
        lower = ppt_emax_lower(isotropic(v)).lower_bits
        assert lower == pytest.approx(exact, abs=1e-6)
        assert lower <= np.log2((1 + 3 * v) / 2)


def dual_form_lower(state):
    """The PPT bound from the dual program solved directly, an independent
    formulation: max Tr rho Z over Z >= 0 with W = (I - Z)^TB >= 0, Z
    clipped to PSD and then made exactly feasible by the shift
    c = max(0, -lambda_min(I - Z^TB))."""
    if is_ppt(state):
        return 0.0
    rm, dims, d = state.state.mat, state.dims, state.state.dim
    basis = hermitian_basis(d)
    pt_basis = np.array([_pt_matrix(e, dims) for e in basis])
    eye = np.eye(d)
    blocks = ((np.zeros((d, d)), basis), (eye, -pt_basis))
    x, _, _ = solve_lmi(-hermitian_coordinates(basis, rm), blocks,
                        hermitian_coordinates(basis, eye / 2), (2 * eye - rm, 2 * eye))
    z = Spectrum.of(np.tensordot(x, basis, 1)).apply(lambda w: np.clip(w, 0.0, None))
    shift = max(0.0, -float(np.linalg.eigvalsh(eye - _pt_matrix(z, dims))[0]))
    return np.log2(max(float(np.trace(rm @ z).real) / (1.0 + shift), 1.0))


def test_ppt_lower_matches_dual_form_oracle():
    # the primal solve's multipliers carry its dual residual (FEAS_RTOL), so
    # the certified bound may sit that far below the dual program's optimum;
    # the Bell state and the 50 random states of acceptance-4
    rng = np.random.default_rng(4)
    states = [bell_state()] + [BipartiteState(dims=(2, 2), state=random_density(4, 4, rng))
                               for _ in range(50)]
    for state in states:
        lower = ppt_emax_lower(state).lower_bits
        assert lower <= emax(state).upper_bits
        assert lower == pytest.approx(dual_form_lower(state), abs=2e-7)


def test_ppt_bound_reports_its_solve():
    bound = ppt_emax_lower(isotropic(0.7))
    assert bound.stats.iterations > 0 and bound.stats.lapack_calls > 0
    assert bound.stats.gap <= GAP_RTOL and bound.stats.dual_residual <= FEAS_RTOL
    assert np.trace(bound.optimum).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(bound.optimum)[0] > 0
    assert np.linalg.eigvalsh(_pt_matrix(bound.optimum, (2, 2)))[0] > 0
    # a PPT input is its own optimum and needs no solve
    state = product_state()
    bound = ppt_emax_lower(state)
    assert bound.lower_bits == 0.0 and bound.stats is None
    assert np.abs(bound.optimum - state.state.mat).max() <= 1e-15


def random_separable_state(seed):
    rng = np.random.default_rng(seed)
    terms = []
    for w in rng.dirichlet(np.ones(4)):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        terms.append((float(w), a / np.linalg.norm(a), b / np.linalg.norm(b)))
    return BipartiteState(dims=(2, 2), state=SeparableEnsemble(tuple(terms)).assemble())


def test_emax_product_state_near_zero():
    # cold, on a product state and on random mixtures of four product states
    for state in (product_state(), random_separable_state(3), random_separable_state(4)):
        res = emax(state)
        assert res.upper_bits <= 1e-6
        assert res.lower_bits == 0.0


def test_emax_bell():
    res = emax(bell_state())
    assert res.upper_bits == pytest.approx(1.0, abs=1e-6)
    assert res.lower_bits == pytest.approx(1.0, abs=1e-6)
    assert res.gap <= 1e-6


def werner(fidelity):
    bell = bell_state().state.mat
    mat = fidelity * bell + (1 - fidelity) * (np.eye(4) - bell) / 3
    return BipartiteState(dims=(2, 2), state=DensityOperator.from_matrix(mat))


def test_wootters_decomposition_is_product_and_reassembles():
    states = [bell_state(), isotropic(0.7), werner(0.8), product_state()]
    rng = np.random.default_rng(9)
    states += [BipartiteState(dims=(2, 2), state=random_density(4, 4, rng)) for _ in range(5)]
    for state in states:
        sigma = ((1 - WITNESS_MIX) * ppt_emax_lower(state).optimum
                 + WITNESS_MIX * np.eye(4) / 4)
        vectors = _wootters_vectors(sigma)
        for z in vectors.T:
            assert np.linalg.svd(z.reshape(2, 2), compute_uv=False)[1] <= 1e-12
        terms = _wootters_terms(sigma)
        assert 1 <= len(terms) <= 4
        assert np.abs(_mixture_matrix(terms) - sigma).max() <= 1e-12


def test_emax_exact_oracles():
    # two-qubit closed forms: isotropic log2((1 + 3 v) / 2), Werner log2(2 F),
    # pure states 2 log2 sum_i sqrt(lambda_i)
    cases = [(isotropic(v), np.log2((1 + 3 * v) / 2)) for v in (0.9, 0.7, 0.5)]
    cases += [(werner(f), np.log2(2 * f)) for f in (0.6, 0.8, 0.95)]
    for s in (0, 1, 2):
        state = random_pure_bipartite(2, 2, np.random.default_rng(s))
        lam = np.clip(np.linalg.eigvalsh(partial_trace_matrix(state.mat, (2, 2), "B")), 0, None)
        cases.append((BipartiteState(dims=(2, 2), state=state),
                      2 * np.log2(np.sqrt(lam).sum())))
    for state, exact in cases:
        res = emax(state)
        assert res.upper_bits == pytest.approx(exact, abs=1e-6)
        assert res.lower_bits <= exact + 1e-12
        assert res.gap <= 1e-6


def test_emax_deterministic():
    state = BipartiteState(dims=(2, 2), state=random_density(4, 4, np.random.default_rng(2)))
    first, second = emax(state), emax(state)
    assert first.upper_bits == second.upper_bits
    assert first.lower_bits == second.lower_bits
    for (w1, a1, b1), (w2, a2, b2) in zip(first.witness.terms, second.witness.terms):
        assert w1 == w2 and np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_emax_eig_calls(monkeypatch):
    # one interior-point solve and one Wootters decomposition in place of a
    # bisection over conditional-gradient searches, which took 81,402
    # eigh/eigvalsh calls on this state; allow under 1 % of that
    calls = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    state = BipartiteState(dims=(2, 2), state=random_density(4, 4, np.random.default_rng(0)))
    emax(state)
    assert len(calls) <= 600


def test_emax_2x2_solves_once_per_entangled_state(monkeypatch):
    # the PPT solve's primal optimum is the witness and its multipliers the
    # lower bound; a PPT state is its own optimum and needs no solve
    calls = []
    solve = entanglement.solve_lmi
    monkeypatch.setattr(entanglement, "solve_lmi", lambda *a: calls.append(1) or solve(*a))
    full_rank = BipartiteState(dims=(2, 2), state=random_density(4, 4, np.random.default_rng(3)))
    assert not is_ppt(full_rank)
    for state, solves in ((bell_state(), 1), (isotropic(0.7), 1), (full_rank, 1),
                          (product_state(), 0), (random_separable_state(3), 0)):
        calls.clear()
        emax(state)
        assert len(calls) == solves


def probe_state(dims, s):
    """The random states of every rank used to gauge E_max beyond 2x2."""
    d = dims[0] * dims[1]
    rank = (d, d, d // 2, 2, 1, 3, d - 1, d)[s]
    return BipartiteState(dims, random_density(d, rank, np.random.default_rng([s, d])))


@pytest.fixture(scope="module")
def emax_2x3():
    return {s: emax(probe_state((2, 3), s)) for s in range(8)}


@pytest.mark.parametrize("s", range(8))
def test_emax_2x3_gap_and_witness(emax_2x3, s):
    state, res = probe_state((2, 3), s), emax_2x3[s]
    # the bisection over conditional-gradient searches left 0.077-0.384 bits
    # on the mixed states; a pure state's Schmidt columns are optimal
    assert res.gap <= (1e-10 if s == 4 else 2e-2)
    assert res.lower_bits == pytest.approx(ppt_emax_lower(state).lower_bits, abs=1e-15)
    total = 0.0
    sigma = np.zeros((6, 6), dtype=complex)
    for w, a, b in res.witness.terms:
        assert a.shape == (2,) and b.shape == (3,) and w > 0
        v = np.kron(a, b)
        sigma += w * np.outer(v, v.conj())
        total += w
    assert total == pytest.approx(1.0, abs=1e-12)
    assert np.abs(res.witness.assemble().mat - sigma).max() <= 1e-12
    assert d_max(state.state.mat, sigma).bits == pytest.approx(res.upper_bits, abs=1e-9)


def test_emax_beyond_2x2_deterministic_for_fixed_seed(emax_2x3):
    # on this state the deterministic pricing starts miss two entering
    # columns that the seeded random starts find, so the seed shows
    state, first = probe_state((2, 3), 2), emax_2x3[2]
    again = emax(state, seed=0)
    assert again.upper_bits == first.upper_bits and again.lower_bits == first.lower_bits
    for (w1, a1, b1), (w2, a2, b2) in zip(first.witness.terms, again.witness.terms, strict=True):
        assert w1 == w2 and np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert emax(state, seed=1).upper_bits != first.upper_bits


@pytest.mark.parametrize("fail_at", [0, 1, 4])
def test_emax_beyond_2x2_keeps_last_master_on_solver_error(monkeypatch, fail_at):
    # call 0 is the PPT bound and call k >= 1 the master of round k - 1; a
    # failed master leaves the witness of the round before it, or the start
    state = probe_state((2, 3), 0)
    reference = emax(state, iters=fail_at - 1 if fail_at else 6)
    solve = entanglement.solve_lmi
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == fail_at + 1:
            raise SolverError("injected", iterations=0)
        return solve(*args)

    monkeypatch.setattr(entanglement, "solve_lmi", failing)
    res = emax(state, iters=6)
    assert len(calls) == (7 if fail_at == 0 else fail_at + 1)
    # without the PPT bound the lower side is E_max >= 0
    assert res.lower_bits == (0.0 if fail_at == 0 else reference.lower_bits)
    assert res.upper_bits == reference.upper_bits
    for (w1, a1, b1), (w2, a2, b2) in zip(res.witness.terms, reference.witness.terms, strict=True):
        assert w1 == w2 and np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert d_max(state.state.mat, res.witness.assemble().mat).bits == res.upper_bits


def test_rel_ent_2x3_starts_from_column_generation_witness():
    # the descent stalled at 0.1006 bits from the searched witness
    state = BipartiteState((2, 3), random_density(6, 6, np.random.default_rng(0)))
    assert rel_ent_entanglement(state) <= 0.05


def test_rel_ent_search_is_not_cut_short():
    # a search that pruned a product ensemble stopped at its first prune, at
    # 0.2023 and 0.0276 bits
    state = BipartiteState((2, 2), random_density(4, 4, np.random.default_rng(3)))
    assert rel_ent_entanglement(state) <= 0.1990
    state = BipartiteState((2, 3), random_density(6, 6, np.random.default_rng(1)))
    assert rel_ent_entanglement(state) <= 0.0240


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
    # started from the E_max witness, less the 1.5e-6 cost of BARRIER_WEIGHT
    assert rel_ent_entanglement(state) <= res.upper_bits + 1.5e-6


def test_rel_ent_entanglement_one_eigh_per_candidate(monkeypatch):
    # rho is factored once and each line-search candidate sigma once; the
    # gradient reuses the accepted candidate's factorization
    state = BipartiteState(dims=(2, 2), state=random_density(4, 4, np.random.default_rng(3)))
    witness = emax(state)
    monkeypatch.setattr(entanglement, "emax", lambda _: witness)
    calls = {"eig": 0, "candidates": 0}
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)

        def counted(a, *args, _fn=fn, **kwargs):
            calls["eig"] += np.shape(a)[-2:] == (4, 4)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    objective = entanglement._rel_ent_objective

    def counted_objective(*args):
        calls["candidates"] += 1
        return objective(*args)

    monkeypatch.setattr(entanglement, "_rel_ent_objective", counted_objective)
    rel_ent_entanglement(state)
    # 662 full-dimension eigendecompositions for 661 candidates
    assert calls["candidates"] >= 100
    assert calls["eig"] <= calls["candidates"] + 1


def test_ensemble_from_terms_fixes_global_phase():
    rng = np.random.default_rng(23)

    def vec(dim):
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    terms = [(rng.uniform(0.1, 1.0), vec(2), vec(3)) for _ in range(6)]
    # a leading entry below 1e-8 of the largest does not set the phase
    terms.append((0.5, np.array([1e-12j, 0.6, 0.8j]), np.array([0.0, 2.0j])))
    base = _ensemble_from_terms(terms).terms
    for _ in range(5):
        turned = [(w, a * np.exp(2j * np.pi * rng.uniform()), b * np.exp(2j * np.pi * rng.uniform()))
                  for w, a, b in terms]
        for (w, a, b), (w2, a2, b2) in zip(base, _ensemble_from_terms(turned).terms):
            assert w == w2
            assert np.abs(a - a2).max() <= 1e-15 and np.abs(b - b2).max() <= 1e-15
    for _, a, b in base:
        for v in (a, b):
            lead = v[np.flatnonzero(np.abs(v) >= 1e-8 * np.abs(v).max())[0]]
            assert lead.real > 0 and abs(lead.imag) <= 1e-15


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
