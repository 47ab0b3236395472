"""qdiv benchmark: one workload in a closed loop from a single process.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Prints one JSON object as the last line of stdout and writes it, with the
per-operation latencies, to benchmarks/out/.  With --trace 1 the metrics are
the per-layer ones and the spans go to benchmarks/out/ as well.  See
benchmarks/README.md for the workloads, the metrics and the checks.
"""

import os

# One BLAS thread: the matrices are at most 32 x 32, where a second thread
# costs more in hand-off than it saves, and the machine's other core would
# make timings depend on what else runs.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "qdiv" / "__init__.py").is_file():
    # Measure the checkout's source, never an installed copy of qdiv.
    sys.exit(f"run.py: no qdiv sources at {SRC}; run it from a qdiv checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = HERE / "out"
SETUP_WARM = 1      # discarded: the first start may still compile bytecode
SETUP_REPEATS = 4   # set-ups whose median is setup_s

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  Per-call figures read 0 where the function is
# not called on the workload.
PER_LAYER_UNITS = {
    "operators.eig_calls": "count",
    "operators.eig_ms": "ms",
    "operators.compare_projector_us": "us",
    "operators.compare_projector_calls": "count",
    "divergences.d_max_us": "us",
    "divergences.d_max_eig_calls": "count",
    "divergences.chernoff_bound_ms": "ms",
    "divergences.relative_entropy_us": "us",
    "smoothing.smooth_dmin_lower_ms": "ms",
    "smoothing.smooth_dmax_upper_ms": "ms",
    "smoothing.smooth_dmax_exact_ms": "ms",
    "smoothing.smooth_dmax_exact_eig_calls": "count",
    "entanglement.ppt_emax_lower_ms": "ms",
    "entanglement.ppt_emax_lower_eig_calls": "count",
    "entanglement.emax_ms": "ms",
    "entanglement.emax_gap_bits": "bits",
    "spectral.rate_point_ms": "ms",
    "spectral.type_table_ms": "ms",
    "spectral.type_classes_per_s": "1/s",
    **{f"{m}.self_ms": "ms" for m in tracing.MODULES},
    "trace.overhead_pct": "%",
}

_COMMON = ["operators.eig_calls", "operators.eig_ms", "operators.self_ms"]
# The per-layer metrics that must be non-zero on each workload's traced run.
FIRES = {
    "oneshot": _COMMON + [
        "operators.compare_projector_us", "operators.compare_projector_calls",
        "divergences.d_max_us", "divergences.d_max_eig_calls",
        "divergences.chernoff_bound_ms", "divergences.relative_entropy_us",
        "smoothing.smooth_dmin_lower_ms", "smoothing.smooth_dmax_upper_ms",
        "divergences.self_ms", "smoothing.self_ms"],
    "bipartite": _COMMON + [
        "divergences.d_max_us", "divergences.d_max_eig_calls",
        "smoothing.smooth_dmax_exact_ms", "smoothing.smooth_dmax_exact_eig_calls",
        "entanglement.ppt_emax_lower_ms", "entanglement.ppt_emax_lower_eig_calls",
        "entanglement.emax_ms", "divergences.self_ms", "smoothing.self_ms",
        "entanglement.self_ms"],
    "rates_dense": _COMMON + [
        "operators.compare_projector_us", "operators.compare_projector_calls",
        "divergences.d_max_us", "smoothing.smooth_dmin_lower_ms",
        "smoothing.smooth_dmax_upper_ms", "spectral.rate_point_ms", "smoothing.self_ms",
        "spectral.self_ms"],
    "rates_types": [
        "spectral.rate_point_ms", "spectral.type_table_ms", "spectral.type_classes_per_s",
        "spectral.self_ms"],
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole rounds until this much busy time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate inputs and warm up, then exit (timed by the parent)")
    return ap.parse_args(argv)


def set_up(name: str, seed: int):
    workload = WORKLOADS[name](seed)
    workload.round_inputs(0)
    workload.warm_up()
    return workload


def measure_setup(args) -> list:
    """Wall time of fresh interpreters that import qdiv, generate the inputs
    and warm up, as the median of several starts after a discarded one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for i in range(SETUP_WARM + SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=150)
        if i >= SETUP_WARM:
            times.append(time.perf_counter() - start)
    return times


def run_op(workload, inp, tracer=None, span: str = "op") -> tuple:
    start = time.perf_counter()
    if tracer is not None:
        tracer.enter(span, None)
    try:
        out = workload.op(inp)
    except Exception as exc:  # an operation that raises counts as failed
        out = exc
    finally:
        if tracer is not None:
            tracer.exit()
    return inp, out, time.perf_counter() - start


def run_rounds(workload, seconds: float, tracer=None, span: str = "op",
               first: int = 0, busy: float = 0.0) -> tuple:
    """Closed loop: one operation at a time, whole rounds from round `first`,
    until `seconds` of busy time (round 0 always runs).  Input generation sits
    between rounds, outside the clock."""
    records, r = [], first
    while r == 0 or busy < seconds:
        inputs = workload.round_inputs(r)
        round_start = time.perf_counter()
        records += [run_op(workload, inp, tracer, span) for inp in inputs]
        busy += time.perf_counter() - round_start
        r += 1
    return records, busy


def check_records(name: str, workload, records) -> tuple:
    """(failed, unexpected problems) over every operation's output."""
    # The oracles import scipy.linalg, which qdiv does not; importing them
    # only here keeps that import out of the measured set-up.
    from oracles import CHECKS

    failed, unexpected = 0, []
    for inp, out, _ in records:
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            problems = CHECKS[name](workload, inp, out)
        if problems:
            failed += 1
            unexpected += [f"{inp.kind}: {msg}" for msg in problems
                           if not (inp.known_fault and msg.startswith(inp.known_fault))]
    return failed, unexpected


def layer_metrics(t: tracing.Tracer, span: str, ops: int, overhead_pct: float) -> dict:
    def ratio(x, n):
        return x / n if n else 0.0

    def ms(name):
        return ratio(t.total_s[name], t.calls[name]) * 1e3

    def eig_calls(name):
        return ratio(t.eig_calls[name], t.calls[name])

    values = {
        "operators.eig_calls": t.eig_calls[span] / ops,
        "operators.eig_ms": t.eig_s[span] / ops * 1e3,
        "operators.compare_projector_us": ms("operators.compare_projector") * 1e3,
        "operators.compare_projector_calls": t.calls["operators.compare_projector"] / ops,
        "divergences.d_max_us": ms("divergences.d_max") * 1e3,
        "divergences.d_max_eig_calls": eig_calls("divergences.d_max"),
        "divergences.chernoff_bound_ms": ms("divergences.chernoff_bound"),
        "divergences.relative_entropy_us": ms("divergences.relative_entropy") * 1e3,
        "smoothing.smooth_dmin_lower_ms": ms("smoothing.smooth_dmin_lower"),
        "smoothing.smooth_dmax_upper_ms": ms("smoothing.smooth_dmax_upper"),
        "smoothing.smooth_dmax_exact_ms": ms("smoothing.smooth_dmax_exact"),
        "smoothing.smooth_dmax_exact_eig_calls": eig_calls("smoothing.smooth_dmax_exact"),
        "entanglement.ppt_emax_lower_ms": ms("entanglement.ppt_emax_lower"),
        "entanglement.ppt_emax_lower_eig_calls": eig_calls("entanglement.ppt_emax_lower"),
        "entanglement.emax_ms": ms("entanglement.emax"),
        "entanglement.emax_gap_bits": ratio(t.result_sums["entanglement.emax"],
                                            t.calls["entanglement.emax"]),
        "spectral.rate_point_ms": ratio(t.total_s["spectral.rate_curve"],
                                        t.result_sums["spectral.rate_curve"]) * 1e3,
        "spectral.type_table_ms": ms("spectral.type_table"),
        "spectral.type_classes_per_s": ratio(t.result_sums["spectral.type_table"],
                                             t.total_s["spectral.type_table"]),
        **{f"{m}.self_ms": t.self_s[m] / ops * 1e3 for m in tracing.MODULES},
        "trace.overhead_pct": overhead_pct,
    }
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def untraced_run(workload, seconds: float, setup_times: list) -> tuple:
    records, busy = run_rounds(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(records) / busy,
        "op_p50_ms": statistics.median(dt for _, _, dt in records) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}, records


def traced_run(workload, span: str, seconds: float) -> tuple:
    """Round 0 runs each input untraced and then traced, back to back: the
    same work either way gives the tracing overhead.  Traced rounds follow
    until the traced busy time reaches `seconds`."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    for inp in workload.round_inputs(0):
        plain.append(run_op(workload, inp))
        tracer.install()
        try:
            traced.append(run_op(workload, inp, tracer, span))
        finally:
            tracer.uninstall()
    base = sum(dt for _, _, dt in plain)
    again = sum(dt for _, _, dt in traced)
    tracer.install()
    try:
        more, _ = run_rounds(workload, seconds, tracer, span, first=1, busy=again)
    finally:
        tracer.uninstall()
    traced += more
    metrics = layer_metrics(tracer, span, len(traced), (again / base - 1.0) * 100.0)
    return metrics, plain + traced, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0

    setup_times = measure_setup(args)
    workload = set_up(args.workload, args.seed)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s_samples": setup_times}
    if args.trace:
        metrics, records, tracer = traced_run(workload, f"op.{args.workload}", args.seconds)
    else:
        metrics, records = untraced_run(workload, args.seconds, setup_times)
        detail["op_latency_ms"] = [dt * 1e3 for _, _, dt in records]

    failed, unexpected = check_records(args.workload, workload, records)
    if args.trace:
        unexpected += [f"traced run: {k} is zero but should fire"
                       for k in FIRES[args.workload] if metrics[k]["value"] <= 0]
    for msg in unexpected[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    result = {"correct": not unexpected, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({**result, **detail, "problems": unexpected}, fh, indent=1)
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}-spans.json", {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
