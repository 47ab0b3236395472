import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qdiv.cli import main
from qdiv.io import write_state_file


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def files(tmp_path):
    write_state_file(tmp_path / "rho.json", np.diag([0.75, 0.25]).astype(complex))
    write_state_file(tmp_path / "sigma.json", np.diag([0.5, 0.5]).astype(complex))
    write_state_file(tmp_path / "rho9.json", np.diag([0.9, 0.1]).astype(complex))
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    write_state_file(tmp_path / "bell.json", np.outer(v, v.conj()), dims=(2, 2))
    return tmp_path


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_compute_dmax_report(runner, files):
    res = invoke(runner, ["compute", "--quantity", "dmax",
                          "--rho", str(files / "rho.json"),
                          "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["value_bits"] == pytest.approx(math.log2(1.5), abs=1e-10)
    assert payload["report"]["sandwich_ok"] is True
    assert payload["units"] == "bits"


def test_compute_renyi(runner, files):
    res = invoke(runner, ["compute", "--quantity", "renyi", "--alpha", "0.5",
                          "--rho", str(files / "rho.json"),
                          "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 0
    assert json.loads(res.output)["value_bits"] == pytest.approx(0.100031, abs=1e-6)


def test_compute_mutual_needs_dims(runner, files):
    res = runner.invoke(main, ["compute", "--quantity", "mutual-max",
                               "--rho", str(files / "rho.json")])
    assert res.exit_code == 1


def test_compute_mutual_from_bipartite_file(runner, files):
    res = invoke(runner, ["compute", "--quantity", "mutual-max",
                          "--rho", str(files / "bell.json")])
    assert res.exit_code == 0
    assert json.loads(res.output)["value_bits"] == pytest.approx(2.0, abs=1e-9)


def test_compute_missing_file_exit_code(runner, files):
    res = runner.invoke(main, ["compute", "--quantity", "dmax",
                               "--rho", str(files / "absent.json"),
                               "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 1
    assert "validation error" in res.output


def test_smooth_dmax_exact_value(runner, files):
    res = invoke(runner, ["smooth", "--quantity", "dmax", "--mode", "exact",
                          "--eps", "0.2",
                          "--rho", str(files / "rho9.json"),
                          "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 0
    assert json.loads(res.output)["value_bits"] == pytest.approx(math.log2(1.4), abs=1e-3)


def test_smooth_dmin_exact_value(runner, files):
    res = invoke(runner, ["smooth", "--quantity", "dmin", "--mode", "exact",
                          "--eps", "0.25",
                          "--rho", str(files / "rho9.json"),
                          "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 0
    assert json.loads(res.output)["value_bits"] == pytest.approx(1.0)


def test_smooth_bound_has_certificate(runner, files):
    res = invoke(runner, ["smooth", "--quantity", "dmax", "--mode", "bound",
                          "--eps", "0.2",
                          "--rho", str(files / "rho9.json"),
                          "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 0
    cert = json.loads(res.output)["certificate"]
    assert cert["transform_trace_dist"] <= cert["epsilon_used"] + 1e-9


def test_emax_bell(runner, files):
    res = invoke(runner, ["emax", "--state", str(files / "bell.json")])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["upper_bits"] == pytest.approx(1.0, abs=1e-2)
    assert payload["lower_bits"] == pytest.approx(1.0, abs=1e-2)
    assert payload["gap"] <= 1e-2
    weights = [t["weight"] for t in payload["witness"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)


def test_emax_needs_dims(runner, files):
    res = runner.invoke(main, ["emax", "--state", str(files / "rho.json")])
    assert res.exit_code == 1


def test_converge_csv_shape(runner, files):
    res = invoke(runner, ["converge", "--nmax", "4",
                          "--rho", str(files / "rho.json"),
                          "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,eps,dmax_over_n,dmin_over_n,rel_entropy"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[4]) == pytest.approx(0.188722, abs=1e-6)
    assert all(line.split(",")[3] == "0" for line in lines[1:])


def test_solver_error_exit_code_reports_iterations(runner, files, monkeypatch):
    from qdiv import _sdp

    monkeypatch.setattr(_sdp, "MAX_ITER", 1)
    res = runner.invoke(main, ["smooth", "--quantity", "dmax", "--mode", "exact",
                               "--eps", "0.2", "--rho", str(files / "rho9.json"),
                               "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 2
    assert "solver did not converge" in res.output
    assert "iterations 1" in res.output and "residuals (" in res.output


def test_certificate_error_exit_code_without_traceback(runner, files, monkeypatch):
    from qdiv import smoothing

    def fail(rho, sigma, lambda_bits):
        raise smoothing.CertificateError("d_max(smoothed||sigma) exceeds lambda")

    monkeypatch.setattr(smoothing, "lemma5_smooth", fail)
    res = runner.invoke(main, ["smooth", "--quantity", "dmax", "--mode", "bound",
                               "--eps", "0.2", "--rho", str(files / "rho9.json"),
                               "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 2
    assert "certificate check failed: d_max(smoothed||sigma) exceeds lambda" in res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("quantity", ["dmax", "dmin"])
def test_smooth_bound_eps_zero_is_validation_error(runner, files, quantity):
    res = runner.invoke(main, ["smooth", "--quantity", quantity, "--mode", "bound",
                               "--eps", "0", "--rho", str(files / "rho.json"),
                               "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "validation error: eps must be positive" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["compute", "--quantity", "renyi", "--alpha", "1.5", "--rho", "rho.json", "--sigma", "sigma.json"],
    ["compute", "--quantity", "renyi", "--alpha", "0", "--rho", "rho.json", "--sigma", "sigma.json"],
    ["converge", "--eps", "1.5", "--nmax", "2", "--rho", "rho.json", "--sigma", "sigma.json"],
    ["suite", "--dims", "a,b"],
    ["gen", "--kind", "channel", "--dim", "0"],
    ["smooth", "--quantity", "dmax", "--mode", "exact", "--eps", "-1",
     "--rho", "rho.json", "--sigma", "sigma.json"],
    ["emax", "--state", "rho.json", "--dims", "2,2"],
    ["smooth", "--quantity", "dmax", "--eps", "nan", "--rho", "rho.json", "--sigma", "sigma.json"],
    ["smooth", "--quantity", "dmin", "--eps", "nan", "--rho", "rho.json", "--sigma", "sigma.json"],
    ["smooth", "--quantity", "dmax", "--mode", "exact", "--eps", "nan",
     "--rho", "rho.json", "--sigma", "sigma.json"],
    ["compute", "--quantity", "dmax", "--rho", "rho.json", "--sigma", "bell.json"],
    ["converge", "--nmax", "2", "--rho", "bell.json", "--sigma", "sigma.json"],
    ["converge", "--nmax", "0", "--rho", "rho.json", "--sigma", "sigma.json"],
    ["converge", "--nmax", "-1", "--rho", "rho.json", "--sigma", "sigma.json"],
    # a commuting pair, so that these reach the classical smoother: it printed
    # 1.0 and "-inf"
    ["smooth", "--quantity", "dmin", "--mode", "exact", "--eps", "nan",
     "--rho", "rho9.json", "--sigma", "sigma.json"],
    ["smooth", "--quantity", "dmin", "--mode", "exact", "--eps", "-0.5",
     "--rho", "rho9.json", "--sigma", "sigma.json"],
], ids=["renyi-alpha-1.5", "renyi-alpha-0", "converge-eps", "suite-dims", "gen-channel-dim",
        "smooth-eps", "emax-dims", "smooth-dmax-eps-nan", "smooth-dmin-eps-nan",
        "smooth-exact-eps-nan", "compute-dim-mismatch", "converge-dim-mismatch",
        "converge-nmax-0", "converge-nmax-negative", "smooth-dmin-exact-eps-nan",
        "smooth-dmin-exact-eps-negative"])
def test_bad_input_is_validation_error(runner, files, args, monkeypatch):
    monkeypatch.chdir(files)
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "validation error:" in res.stderr


def test_compute_on_nan_state_file_is_validation_error(runner, files):
    # such a file used to print "inf" for every divergence and exit 0
    nan = [float("nan"), 0.0]
    (files / "nan.json").write_text(json.dumps(
        {"dim": 2, "entries": [[[0.5, 0.0], nan], [nan, [0.5, 0.0]]]}))
    res = runner.invoke(main, ["compute", "--quantity", "dmax", "--rho", str(files / "nan.json"),
                               "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 1
    assert "validation error: entry (0,1) is not finite" in res.stderr
    assert "Traceback" not in res.output


def test_emax_beyond_dimension_16_is_validation_error(runner, tmp_path):
    # the PPT bound, and so emax, is limited to d_A d_B <= 16; 3 x 6 is 18
    rng = np.random.default_rng(0)
    g = rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
    m = g @ g.conj().T
    write_state_file(tmp_path / "big.json", m / np.trace(m).real, dims=(3, 6))
    res = runner.invoke(main, ["emax", "--state", str(tmp_path / "big.json")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "validation error: PPT lower bound is limited to total dimension <= 16" in res.stderr
    assert "Traceback" not in res.output


def test_gen_deterministic_and_parseable(runner, tmp_path):
    args = ["--seed", "7", "gen", "--kind", "state", "--dim", "3"]
    out1 = invoke(runner, args).output
    out2 = invoke(runner, args).output
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["dim"] == 3


def test_gen_bipartite_round_trip(runner, tmp_path):
    res = invoke(runner, ["--out", str(tmp_path / "gen.json"),
                          "gen", "--kind", "bipartite", "--dims", "2,2"])
    assert res.exit_code == 0
    res2 = invoke(runner, ["emax", "--state", str(tmp_path / "gen.json"),
                           "--iters", "60"])
    assert res2.exit_code == 0


def test_out_flag_writes_file(runner, files, tmp_path):
    target = tmp_path / "result.json"
    res = invoke(runner, ["--out", str(target),
                          "compute", "--quantity", "dmin",
                          "--rho", str(files / "rho.json"),
                          "--sigma", str(files / "sigma.json")])
    assert res.exit_code == 0
    assert res.output == ""
    assert json.loads(target.read_text())["value_bits"] == pytest.approx(0.0, abs=1e-12)


def test_compute_deterministic_repeat(runner, files):
    args = ["compute", "--quantity", "chernoff",
            "--rho", str(files / "rho.json"), "--sigma", str(files / "sigma.json")]
    assert invoke(runner, args).output == invoke(runner, args).output


def test_suite_single_trial_lists_every_check(runner):
    res = invoke(runner, ["--format", "csv", "suite", "--trials", "1", "--seed", "42"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "name,trials,failures,worst_violation"
    assert lines[-1].startswith("overall")
    names = [ln.split(",")[0] for ln in lines[1:-1]]
    assert len(names) == len(set(names)) == 43
    assert all(ln.split(",")[2] == "0" for ln in lines[1:-1])


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qdiv, qdiv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_converge_noncommuting_qubits_beyond_dense_guard(runner, tmp_path):
    # 2^14 exceeds the dense guard of 4096, the compressed 64 x 64 pair does not
    rng = np.random.default_rng([0, 0])
    for name in ("rho", "sigma"):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        write_state_file(tmp_path / f"{name}.json", 0.25 * np.eye(2) + 0.5 * m / np.trace(m).real)
    res = runner.invoke(main, ["converge", "--nmax", "14",
                               "--rho", str(tmp_path / "rho.json"),
                               "--sigma", str(tmp_path / "sigma.json")])
    assert res.exit_code == 0, res.output
    rows = res.output.strip().splitlines()
    assert rows[0] == "n,eps,dmax_over_n,dmin_over_n,rel_entropy"
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(1, 15))
    for row in rows[1:]:
        _, _, dmax_over_n, dmin_over_n, _ = (float(x) for x in row.split(","))
        assert 0.0 <= dmin_over_n <= dmax_over_n
