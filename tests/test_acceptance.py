"""End-to-end acceptance checks.

Each test prints exactly one pass/fail line (visible even under output
capture) and then asserts, so a verbose run doubles as a checklist.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from qdiv.cli import main
from qdiv.divergences import chernoff_bound, d_max, d_max_forms, d_min
from qdiv.entanglement import BipartiteState, emax, ppt_emax_lower, rel_ent_entanglement
from qdiv.io import write_state_file
from qdiv.operators import DensityOperator, random_density
from qdiv.smoothing import (
    lemma5_smooth,
    smooth_dmax_exact,
    smooth_dmin_exact_classical,
)
from qdiv.spectral import IIDPair, rate_curve

REL_BITS = 0.188722


def _report(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}"
              + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance {num} {label}: {detail}"


def test_acceptance_1_property_suite(capsys):
    start = time.monotonic()
    res = CliRunner().invoke(main, ["suite", "--seed", "42", "--trials", "100"])
    elapsed = time.monotonic() - start
    ok = res.exit_code == 0 and elapsed <= 300.0
    detail = f"exit={res.exit_code}, {elapsed:.0f}s"
    if res.exit_code == 0:
        payload = json.loads(res.output)
        ok = ok and payload["passed"]
    _report(capsys, 1, "randomized property suite, seed 42, 100 trials", ok, detail)


def test_acceptance_2_dmax_three_forms(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        dim = 2 + trial % 5
        rho = random_density(dim, dim, rng).mat
        sigma = random_density(dim, dim, rng).mat
        f1, f2, f3 = d_max_forms(rho, sigma)
        vals = (f1.bits, f2.bits, f3.bits)
        worst = max(worst, max(vals) - min(vals))
    _report(capsys, 2, "max-relative entropy three-form agreement", worst < 1e-8,
            f"worst spread {worst:.2e}")


def test_acceptance_3_smoothing(capsys):
    rho = DensityOperator.from_matrix(np.diag([0.9, 0.1]).astype(complex))
    sigma = DensityOperator.from_matrix(np.diag([0.5, 0.5]).astype(complex))
    exact = smooth_dmax_exact(rho, sigma, 0.2)
    ok = abs(exact - math.log2(1.4)) <= 1e-3
    classical = smooth_dmin_exact_classical((0.9, 0.1), (0.5, 0.5), 0.25)
    ok = ok and classical == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    certs_ok = True
    for trial in range(100):
        dim = 2 + trial % 3
        r = random_density(dim, dim, rng)
        s = random_density(dim, dim, rng)
        lam = d_max(r.mat, s.mat).bits - 0.2
        try:
            lemma5_smooth(r, s, lam).validate()
        except Exception:
            certs_ok = False
            break
    _report(capsys, 3, "smoothing oracles and certificates", ok and certs_ok,
            f"exact={exact:.6f}, classical={classical:.4f}, certs_ok={certs_ok}")


def test_acceptance_4_emax(capsys):
    start = time.monotonic()
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    bell = BipartiteState(dims=(2, 2),
                          state=DensityOperator.from_matrix(np.outer(v, v.conj())))
    res = emax(bell)
    ok = 0.99 <= res.lower_bits and res.upper_bits <= 1.01 and res.gap <= 1e-2
    detail = f"bell upper={res.upper_bits:.4f}, lower={res.lower_bits:.4f}, gap={res.gap:.4f}"
    rng = np.random.default_rng(4)
    for _ in range(50):
        state = BipartiteState(dims=(2, 2), state=random_density(4, 4, rng))
        r = emax(state, restarts=1, iters=150)
        if ppt_emax_lower(state).lower_bits > r.upper_bits:
            ok = False
            detail += ", lower exceeded upper"
            break
        if r.gap > 1e-6:
            ok = False
            detail += f", gap {r.gap:.2e} above 1e-6"
            break
        if rel_ent_entanglement(state) > r.upper_bits + 1.5e-6:
            ok = False
            detail += ", relative-entropy bound exceeded upper"
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 600.0
    _report(capsys, 4, "entanglement bounds", ok, detail + f", {elapsed:.0f}s")


def _benchmark_pair():
    rho = DensityOperator.from_matrix(np.diag([0.75, 0.25]).astype(complex))
    sigma = DensityOperator.from_matrix(np.diag([0.5, 0.5]).astype(complex))
    return IIDPair(rho=rho, sigma=sigma)


def test_acceptance_5_rate_curve(capsys):
    points = rate_curve(_benchmark_pair(), 0.05, list(range(1, 11)))
    ok = all(pt.dmin_over_n <= REL_BITS + 1e-3 and REL_BITS <= pt.dmax_over_n + 1e-3
             for pt in points)
    trend = abs(points[9].dmax_over_n - REL_BITS) < abs(points[0].dmax_over_n - REL_BITS)
    _report(capsys, 5, "finite-n sandwich and convergence trend", ok and trend,
            f"n=1 gap {abs(points[0].dmax_over_n - REL_BITS):.4f}, "
            f"n=10 gap {abs(points[9].dmax_over_n - REL_BITS):.4f}")


def test_acceptance_5_fast_path_n200(capsys):
    # The exact eps-smooth rate at n = 200 is 0.2602; the 0.05-of-0.1887 window
    # this clause asks for is not reachable by a correct solver at this n.
    pt = rate_curve(_benchmark_pair(), 0.05, [200])[0]
    diff = abs(pt.dmax_over_n - REL_BITS)
    _report(capsys, 5, "fast path n=200 within 0.05 of the relative entropy",
            diff < 0.05, f"dmax_over_n={pt.dmax_over_n:.6f}, |diff|={diff:.4f}")


def test_acceptance_6_chernoff(capsys):
    val = chernoff_bound(np.diag([0.75, 0.25]), np.diag([0.5, 0.5])).bits
    ok = abs(val - 0.0500) <= 5e-4
    rng = np.random.default_rng(6)
    worst = -math.inf
    for trial in range(100):
        dim = 2 + trial % 3
        rho = random_density(dim, dim, rng).mat
        sigma = random_density(dim, dim, rng).mat
        worst = max(worst, d_min(rho, sigma).bits - chernoff_bound(rho, sigma).bits)
    ok = ok and worst <= 1e-9
    _report(capsys, 6, "Chernoff value and ordering", ok,
            f"value={val:.6f}, worst d_min excess {worst:.2e}")


def test_acceptance_7_determinism(capsys, tmp_path):
    write_state_file(tmp_path / "rho.json", np.diag([0.75, 0.25]).astype(complex))
    write_state_file(tmp_path / "sigma.json", np.diag([0.5, 0.5]).astype(complex))
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    write_state_file(tmp_path / "bell.json", np.outer(v, v.conj()), dims=(2, 2))
    commands = [
        ["compute", "--quantity", "dmax", "--rho", str(tmp_path / "rho.json"),
         "--sigma", str(tmp_path / "sigma.json")],
        ["smooth", "--quantity", "dmax", "--mode", "exact", "--eps", "0.2",
         "--rho", str(tmp_path / "rho.json"), "--sigma", str(tmp_path / "sigma.json")],
        ["--seed", "5", "emax", "--state", str(tmp_path / "bell.json")],
        ["converge", "--nmax", "4", "--rho", str(tmp_path / "rho.json"),
         "--sigma", str(tmp_path / "sigma.json")],
        ["--seed", "5", "gen", "--kind", "state", "--dim", "3"],
        ["suite", "--seed", "11", "--trials", "1"],
    ]
    runner = CliRunner()
    ok = True
    detail = "all subcommands byte-identical on repeat"
    for args in commands:
        first = runner.invoke(main, args, catch_exceptions=False)
        second = runner.invoke(main, args, catch_exceptions=False)
        if first.output != second.output or first.exit_code != second.exit_code:
            ok = False
            detail = f"output diverged for: {' '.join(args[:3])}"
            break
    _report(capsys, 7, "deterministic CLI output", ok, detail)
