"""Tests of the benchmark itself: every workload on a tiny input, and every
oracle flagging a value pushed just outside its bound.

    python3 -m pytest benchmarks
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles as orc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from qdiv import divergences as dv  # noqa: E402
from qdiv import smoothing as sm  # noqa: E402


def labels(problems) -> set:
    return {msg.split(":")[0] for msg in problems}


def flags(check, w, inp, out, label):
    return label in labels(check(w, inp, out))


class TinyRatesDense(wl.RatesDense):
    N_LIST = [1, 2, 3]


class TinyRatesTypes(wl.RatesTypes):
    N_LISTS = {2: [20, 40], 3: [12], 4: [6]}


# -- every workload on a tiny input -------------------------------------------

@pytest.fixture(scope="module")
def oneshot():
    w = wl.OneShot(seed=3)
    inp = w.round_inputs(0)[2]          # d = 4
    return w, inp, w.op(inp)


@pytest.fixture(scope="module")
def bell():
    w = wl.Bipartite(seed=3)
    inp = w.round_inputs(0)[0]
    assert inp.kind == "bell"
    return w, inp, w.op(inp)


@pytest.fixture(scope="module")
def dense():
    w = TinyRatesDense(seed=3)
    inp = w.round_inputs(0)[0]
    return w, inp, w.op(inp)


@pytest.fixture(scope="module")
def types():
    w = TinyRatesTypes(seed=3)
    return [(w, inp, w.op(inp)) for inp in w.round_inputs(0)]


def test_oneshot_passes(oneshot):
    assert orc.check_oneshot(*oneshot) == []


def test_bipartite_bell_passes(bell):
    assert orc.check_bipartite(*bell) == []


def test_rates_dense_passes(dense):
    assert orc.check_rates_dense(*dense) == []


def test_rates_types_passes(types):
    for case in types:
        assert orc.check_rates_types(*case) == []


def test_round_inputs_repeat_per_seed():
    a = wl.OneShot(seed=5).round_inputs(1)[3].data["rho"].mat
    b = wl.OneShot(seed=5).round_inputs(1)[3].data["rho"].mat
    c = wl.OneShot(seed=6).round_inputs(1)[3].data["rho"].mat
    assert np.array_equal(a, b) and not np.allclose(a, c)


def test_run_prints_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rates_types", "--seed", "1",
         "--seconds", "0"], capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


# -- each oracle flags a value just outside its bound --------------------------

def pushed(out, **changes):
    return {**out, **changes}


def test_oneshot_oracles_flag(oneshot):
    w, inp, out = oneshot
    r, s = inp.data["rho"].mat, inp.data["sigma"].mat
    d_max, d_min = orc.dmax(r, s), orc.dmin(r, s)
    lo, hi = orc.chernoff_bracket(r, s)
    grid = np.linspace(d_min - 1.0, d_max + 1.0, 48)
    ht = orc.ht_dmax_lower(r, s, w.EPS, grid)
    dh = orc.dh_upper(r, s, w.EPS, grid)
    cases = [
        ("d_max", {"d_max": d_max + 2e-7}),
        ("d_min", {"d_min": d_min - 2e-7}),
        ("relative entropy", {"rel": out["rel"] + 2e-7}),
        ("renyi", {"renyi": out["renyi"] - 2e-7}),
        ("chernoff", {"chernoff": hi + 2e-7}),
        ("chernoff", {"chernoff": lo - 2e-7}),
        ("sandwich", {"sandwich_ok": False}),
        ("certificate D_max", {"dmax_upper": orc.dmax(out["smoothed"], s) - 2e-7}),
        ("smooth D_max upper", {"dmax_upper": d_max + 2e-7}),
        ("smooth D_max upper", {"dmax_upper": ht - 2e-7}),
        ("smooth D_min lower", {"dmin_lower": d_min - 2e-7}),
        ("smooth D_min lower", {"dmin_lower": dh + 2e-7}),
    ]
    for label, change in cases:
        assert flags(orc.check_oneshot, w, inp, pushed(out, **change), label), label
    # a smoothed state just farther than eps from rho
    a = (w.EPS + 1e-6) / float(np.abs(orc.eigvalsh(s - r)).sum())
    far = (1 - a) * r + a * s
    assert flags(orc.check_oneshot, w, inp, pushed(out, smoothed=far),
                 "certificate trace distance")
    w_neg, v = orc.eigh(out["smoothed"])
    w_neg[0] = -1e-9
    assert flags(orc.check_oneshot, w, inp, pushed(out, smoothed=(v * w_neg) @ v.conj().T),
                 "certificate min eigenvalue")


def test_bipartite_oracles_flag(bell):
    w, inp, out = bell
    r, prod = inp.data["rho"].mat, inp.data["product"].mat
    imax = orc.dmax(r, prod)
    ht = orc.ht_dmax_lower(r, prod, w.EPS, np.linspace(orc.dmin(r, prod) - 1, imax + 1, 48))
    cases = [
        ("E_max lower bound", {"lower": out["upper"] + 2e-9}),
        ("E_max lower bound", {"lower": -2e-9}),
        ("E_max upper vs witness", {"upper": out["upper"] + 2e-6}),
        ("E_max bracket", {"lower": 1.0 + 2e-6}),
        ("E_max bracket", {"upper": 1.0 - 2e-6}),
        ("smooth I_max", {"smooth_imax": imax + 2e-5}),
        ("smooth I_max", {"smooth_imax": ht - 2e-5}),
    ]
    for label, change in cases:
        assert flags(orc.check_bipartite, w, inp, pushed(out, **change), label), label
    sep = w.fixed[2]
    assert sep.kind == "separable"
    assert flags(orc.check_bipartite, w, sep, pushed(out, lower=2e-6), "E_max bracket")
    assert flags(orc.check_bipartite, w, inp, pushed(out, lower=imax + 2e-9, upper=imax + 1),
                 "E_max lower vs I_max")


def test_pure_state_value_and_known_fault():
    w = wl.Bipartite(seed=0)
    pure = w.round_inputs(0)[1]
    assert pure.kind == "pure" and pure.known_fault == "E_max bracket"
    lam = w.PURE_SCHMIDT
    assert orc.exact_emax(pure) == pytest.approx(math.log2(1 + 2 * math.sqrt(lam * (1 - lam))))
    # a failure of the known check counts as failed but not as incorrect;
    # any other failure on the same input is reported
    bad = {"lower": 0.95, "upper": 0.96, "witness": [], "smooth_imax": 0.0}
    failed, unexpected = run.check_records("bipartite", w, [(pure, bad, 0.0)])
    assert failed == 1
    assert unexpected and not any(m.startswith("pure: E_max bracket") for m in unexpected)
    failed, unexpected = run.check_records("bipartite", w, [(pure, RuntimeError("x"), 0.0)])
    assert failed == 1 and unexpected == ["pure: raised RuntimeError: x"]


def test_rates_dense_oracles_flag(dense):
    w, inp, out = dense
    r, s = inp.data["pair"].rho.mat, inp.data["pair"].sigma.mat
    n, dmax_n, dmin_n, rel = out[-1]
    rn, sn = orc.tensor_power(r, n), orc.tensor_power(s, n)
    grid = np.linspace(n * orc.dmin(r, s) - 1, n * orc.dmax(r, s) + 1, 48)
    ht = orc.ht_dmax_lower(rn, sn, w.EPS, grid)
    dh = orc.dh_upper(rn, sn, w.EPS, grid)
    cases = [
        ("smooth D_max", (n, orc.dmax(r, s) + 2e-6 / n, dmin_n, rel)),
        ("smooth D_max", (n, (ht - 2e-6) / n, dmin_n, rel)),
        ("smooth D_min", (n, dmax_n, orc.dmin(r, s) - 2e-6 / n, rel)),
        ("smooth D_min", (n, dmax_n, (dh + 2e-6) / n, rel)),
        ("relative entropy", (n, dmax_n, dmin_n, rel + 2e-7)),
    ]
    for label, point in cases:
        assert flags(orc.check_rates_dense, w, inp, out[:-1] + [point], f"n={n} {label}"), label
    assert flags(orc.check_rates_dense, w, inp, out[:-1], "rate curve")


def test_rates_types_oracles_flag(types):
    w, inp, out = types[1]
    p, q = inp.data["p"], inp.data["q"]
    n, dmax_n, dmin_n, rel = out[0]
    log_p, log_q = orc.type_class_logs(p, q, n)
    exact = orc.classical_smooth_dmax(log_p, log_q, w.EPS)
    upper = orc.classical_smooth_dmin_upper(log_p, log_q, w.EPS)
    cases = [
        ("smooth D_max", (n, (exact + 2e-6) / n, dmin_n, rel)),
        ("smooth D_max", (n, (exact - 2e-6) / n, dmin_n, rel)),
        ("smooth D_min", (n, dmax_n, -2e-6 / n, rel)),
        ("smooth D_min", (n, dmax_n, (upper + 2e-6) / n, rel)),
        ("relative entropy", (n, dmax_n, dmin_n, rel - 2e-9)),
    ]
    for label, point in cases:
        assert flags(orc.check_rates_types, w, inp, [point], f"n={n} {label}"), label


# -- the oracles against brute force -------------------------------------------

def test_type_classes_are_a_distribution():
    p, q = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.25, 0.25])
    log_p, log_q = orc.type_class_logs(p, q, 9)
    assert len(log_p) == math.comb(11, 2)
    assert np.exp(log_p).sum() == pytest.approx(1.0) and np.exp(log_q).sum() == pytest.approx(1.0)


def test_classical_smoothers_against_brute_force():
    p, q = np.array([0.6, 0.3, 0.1]), np.array([0.2, 0.3, 0.5])
    log_p, log_q = orc.type_class_logs(p, q, 4)     # 15 classes: enumerable
    big_p, big_q = np.exp(log_p), np.exp(log_q)
    for eps in (0.01, 0.05, 0.2):
        lam = orc.classical_smooth_dmax(log_p, log_q, eps)
        assert np.clip(big_p - 2.0**lam * big_q, 0, None).sum() == pytest.approx(eps, abs=1e-12)
        assert lam == pytest.approx(sm.smooth_dmax_exact_classical(big_p, big_q, eps), abs=1e-8)
        # whole-class deletions are feasible deletion sets, so bounded by the oracle
        exact_classes = sm.smooth_dmin_exact_classical(big_p, big_q, eps)
        assert exact_classes <= orc.classical_smooth_dmin_upper(log_p, log_q, eps) + 1e-12


def test_chernoff_bracket_is_tight():
    w = wl.OneShot(seed=1)
    inp = w.round_inputs(0)[4]
    r, s = inp.data["rho"].mat, inp.data["sigma"].mat
    lo, hi = orc.chernoff_bracket(r, s)
    assert lo <= hi < lo + 1e-4
    assert lo - 1e-9 <= dv.chernoff_bound(r, s).bits <= hi + 1e-9


# -- tracing ---------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores():
    import qdiv.divergences
    import qdiv.smoothing
    original = qdiv.divergences.d_max
    t = tracing.Tracer()
    t.install()
    try:
        assert qdiv.smoothing.d_max is qdiv.divergences.d_max is not original
        w = wl.OneShot(seed=2)
        records, _ = run.run_rounds(_OneInput(w), 0.0, t, "op.oneshot")
    finally:
        t.uninstall()
    assert qdiv.smoothing.d_max is original and qdiv.divergences.d_max is original
    metrics = run.layer_metrics(t, "op.oneshot", len(records), 0.0)
    assert all(metrics[k]["value"] > 0 for k in run.FIRES["oneshot"])
    assert metrics["entanglement.emax_ms"]["value"] == 0.0
    # input generation (outside an operation) leaves no spans
    assert t.dropped == 0 and all(len(s) == 4 for s in t.spans)
    roots = [s for s in t.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["op.oneshot"] and len(t.spans) > 100


def test_traced_run_reports_every_layer_metric():
    w = _OneInput(TinyRatesTypes(seed=0))
    metrics, records, tracer = run.traced_run(w, "op.rates_types", 0.0)
    assert set(metrics) == set(run.PER_LAYER_UNITS) and len(records) == 2
    assert all(metrics[k]["value"] > 0 for k in run.FIRES["rates_types"])


class _OneInput:
    """A workload reduced to its first input, for a quick traced round."""

    def __init__(self, w):
        self.w = w

    def round_inputs(self, r):
        return self.w.round_inputs(r)[:1]

    def op(self, inp):
        return self.w.op(inp)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS) == set(run.FIRES)
