"""Command-line interface.

Exit codes: 0 success, 1 validation error, 2 solver non-convergence or a
failed smoothing certificate, 3 property-suite failure.  All numeric output is
in bits (base-2 logarithms), and every subcommand is deterministic given its
full flag set.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import divergences as dv
from . import entanglement as ent
from . import operators as op
from . import smoothing as sm
from . import spectral as sp
from .io import matrix_to_payload, parse_state_file
from .suite import SuiteConfig, run_suite


def _emit(ctx, text: str):
    out = ctx.obj.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _json(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _bits(value) -> object:
    if isinstance(value, dv.DivergenceValue):
        return value.bits if value.finite else "inf"
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return value


def _load_density(path) -> op.DensityOperator:
    state = parse_state_file(path)
    if isinstance(state, ent.BipartiteState):
        return state.state
    return state


def _parse_dims(text) -> tuple:
    try:
        da, db = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise op.ValidationError(f"--dims must look like '2,3', got {text!r}") from exc
    return (da, db)


@click.group()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Write output to a file.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.pass_context
def main(ctx, seed, out, fmt):
    """Min/max relative entropies, smoothing, entanglement bounds and
    finite-n information-spectrum estimates."""
    ctx.obj = {"seed": seed, "out": out, "format": fmt}


def _run(ctx, fn):
    try:
        fn()
    except op.ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        ctx.exit(1)
    except sm.SolverError as exc:
        click.echo(f"solver did not converge: {exc} (iterations {exc.iterations}, "
                   f"residuals {exc.residuals})", err=True)
        ctx.exit(2)
    except sm.CertificateError as exc:
        click.echo(f"certificate check failed: {exc}", err=True)
        ctx.exit(2)


@main.command()
@click.option("--quantity", required=True,
              type=click.Choice(["dmax", "dmin", "rel", "renyi", "chernoff",
                                 "hmin", "hmax", "mutual-min", "mutual-max"]))
@click.option("--rho", "rho_path", required=True, type=click.Path())
@click.option("--sigma", "sigma_path", default=None, type=click.Path())
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--dims", default=None, help="Bipartite split dA,dB for mutual informations.")
@click.pass_context
def compute(ctx, quantity, rho_path, sigma_path, alpha, dims):
    """Evaluate a divergence or derived entropy on state files."""

    def work():
        rho = _load_density(rho_path)
        payload = {"quantity": quantity, "units": "bits"}
        if quantity in ("hmin", "hmax"):
            payload["value_bits"] = dv.h_min(rho) if quantity == "hmin" else dv.h_max(rho)
        elif quantity in ("mutual-min", "mutual-max"):
            loaded = parse_state_file(rho_path)
            if isinstance(loaded, ent.BipartiteState):
                split = loaded.dims
            elif dims:
                split = _parse_dims(dims)
            else:
                raise op.ValidationError("mutual informations need --dims or a file with 'dims'")
            fn = dv.mutual_min if quantity == "mutual-min" else dv.mutual_max
            payload["value_bits"] = _bits(fn(rho.mat, split))
            payload["dims"] = list(split)
        else:
            if sigma_path is None:
                raise op.ValidationError(f"--sigma is required for {quantity}")
            sigma = _load_density(sigma_path)
            report = dv.divergence_report(rho.mat, sigma.mat)
            payload["report"] = {
                "d_min": _bits(report.d_min),
                "d_max": _bits(report.d_max),
                "rel_entropy": _bits(report.rel_entropy),
                "chernoff": _bits(report.chernoff),
                "sandwich_ok": report.sandwich_ok,
            }
            if quantity == "renyi":
                payload["alpha"] = alpha
                payload["value_bits"] = _bits(dv.renyi_relative(rho.mat, sigma.mat, alpha))
            else:
                key = {"dmax": "d_max", "dmin": "d_min", "rel": "rel_entropy",
                       "chernoff": "chernoff"}[quantity]
                payload["value_bits"] = payload["report"][key]
        _emit(ctx, _json(payload))

    _run(ctx, work)


@main.command()
@click.option("--quantity", required=True, type=click.Choice(["dmax", "dmin"]))
@click.option("--rho", "rho_path", required=True, type=click.Path())
@click.option("--sigma", "sigma_path", required=True, type=click.Path())
@click.option("--eps", required=True, type=float)
@click.option("--mode", type=click.Choice(["exact", "bound"]), default="bound",
              show_default=True)
@click.pass_context
def smooth(ctx, quantity, rho_path, sigma_path, eps, mode):
    """Epsilon-smoothed divergences: certified bounds or desk-scale exact values."""

    def work():
        rho = _load_density(rho_path)
        sigma = _load_density(sigma_path)
        payload = {"quantity": quantity, "eps": eps, "mode": mode, "units": "bits"}
        if quantity == "dmax":
            if mode == "bound":
                bound = sm.smooth_dmax_upper(rho, sigma, eps)
                payload["value_bits"] = bound.lambda_bits
                payload["certificate"] = {
                    "lambda_bits": bound.certificate.lambda_bits,
                    "epsilon_used": bound.certificate.epsilon_used,
                    "transform_trace_dist": bound.certificate.transform_trace_dist,
                    "at_bracket_floor": bound.at_bracket_floor,
                }
            else:
                payload["value_bits"] = _bits(sm.smooth_dmax_exact(rho, sigma, eps))
        else:
            if mode == "bound":
                payload["value_bits"] = sm.smooth_dmin_lower(rho, sigma, eps)
            else:
                pair = sp.IIDPair(rho=rho, sigma=sigma)
                if not pair.commuting:
                    raise op.ValidationError(
                        "exact smooth dmin is available only for commuting pairs")
                p, q = sp.joint_eigen_probabilities(pair)
                payload["value_bits"] = _bits(sm.smooth_dmin_exact_classical(p, q, eps))
        _emit(ctx, _json(payload))

    _run(ctx, work)


@main.command(name="emax")
@click.option("--state", "state_path", required=True, type=click.Path())
@click.option("--dims", default=None)
@click.option("--seed", "cmd_seed", type=int, default=None,
              help="Overrides the global --seed for the random pricing starts; "
                   "beyond 2x2 only.")
@click.option("--iters", type=int, default=ent.EMAX_ROUNDS, show_default=True,
              help="Column-generation rounds; beyond 2x2 only.")
@click.pass_context
def emax_cmd(ctx, state_path, dims, cmd_seed, iters):
    """Two-sided E_max estimate with a reassemblable separable witness:
    exact in 2x2 (gap below 2e-7), by column generation in larger systems.
    Limited to total dimension d_A d_B <= 16."""

    def work():
        loaded = parse_state_file(state_path)
        if isinstance(loaded, ent.BipartiteState):
            state = loaded
        elif dims:
            state = ent.BipartiteState(dims=_parse_dims(dims), state=loaded)
        else:
            raise op.ValidationError("emax needs --dims or a state file with 'dims'")
        seed = cmd_seed if cmd_seed is not None else ctx.obj["seed"]
        result = ent.emax(state, seed=seed, iters=iters)
        witness = [
            {"weight": w,
             "a": [[float(z.real), float(z.imag)] for z in a],
             "b": [[float(z.real), float(z.imag)] for z in b]}
            for w, a, b in result.witness.terms
        ]
        _emit(ctx, _json({
            "upper_bits": result.upper_bits,
            "lower_bits": result.lower_bits,
            "gap": result.gap,
            "witness": witness,
            "units": "bits",
        }))

    _run(ctx, work)


@main.command()
@click.option("--rho", "rho_path", required=True, type=click.Path())
@click.option("--sigma", "sigma_path", required=True, type=click.Path())
@click.option("--eps", type=float, default=0.05, show_default=True)
@click.option("--nmax", type=int, required=True)
@click.pass_context
def converge(ctx, rho_path, sigma_path, eps, nmax):
    """Per-n smoothed divergence rates as CSV."""

    def work():
        rho = _load_density(rho_path)
        sigma = _load_density(sigma_path)
        pair = sp.IIDPair(rho=rho, sigma=sigma)
        points = sp.rate_curve(pair, eps, list(range(1, nmax + 1)))
        lines = ["n,eps,dmax_over_n,dmin_over_n,rel_entropy"]
        for pt in points:
            lines.append(
                f"{pt.n},{pt.eps:.9g},{pt.dmax_over_n:.9g},"
                f"{pt.dmin_over_n:.9g},{pt.rel_entropy:.9g}")
        _emit(ctx, "\n".join(lines) + "\n")

    _run(ctx, work)


@main.command(name="suite")
@click.option("--seed", "cmd_seed", type=int, default=None)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--dims", default="2,3,4", show_default=True,
              help="Comma-separated list of dimensions to cycle through.")
@click.pass_context
def suite_cmd(ctx, cmd_seed, trials, dims):
    """Run the randomized property suite; exit 3 on any failure."""

    def work():
        seed = cmd_seed if cmd_seed is not None else ctx.obj["seed"]
        try:
            dim_list = tuple(int(x) for x in dims.split(","))
        except ValueError as exc:
            raise op.ValidationError(f"--dims must look like '2,3,4', got {dims!r}") from exc
        config = SuiteConfig(seed=seed, trials=trials, dims=dim_list)
        report = run_suite(config)
        if ctx.obj["format"] == "csv":
            lines = ["name,trials,failures,worst_violation"]
            for r in report.results:
                lines.append(f"{r.name},{r.trials},{r.failures},{r.worst_violation:.9g}")
            lines.append(f"overall,,{'pass' if report.passed else 'fail'},")
            _emit(ctx, "\n".join(lines) + "\n")
        else:
            _emit(ctx, _json(report.as_dict()))
        if not report.passed:
            ctx.exit(3)

    _run(ctx, work)


@main.command()
@click.option("--kind", type=click.Choice(["state", "bipartite", "channel"]),
              default="state", show_default=True)
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--rank", type=int, default=None)
@click.option("--dims", default="2,2", show_default=True,
              help="Bipartite split for --kind bipartite.")
@click.option("--seed", "cmd_seed", type=int, default=None)
@click.pass_context
def gen(ctx, kind, dim, rank, dims, cmd_seed):
    """Generate a random state or channel file (deterministic per seed)."""

    def work():
        seed = cmd_seed if cmd_seed is not None else ctx.obj["seed"]
        if kind == "state":
            rho = op.random_density(dim, rank or dim, seed)
            payload = matrix_to_payload(rho.mat)
        elif kind == "bipartite":
            da, db = _parse_dims(dims)
            rho = op.random_density(da * db, da * db, seed)
            payload = matrix_to_payload(rho.mat, dims=(da, db))
        else:
            chan = op.random_channel(dim, dim, 2, seed)
            payload = {
                "in_dim": dim,
                "out_dim": dim,
                "kraus": [[[[float(z.real), float(z.imag)] for z in row] for row in k]
                          for k in chan.kraus],
            }
        _emit(ctx, _json(payload))

    _run(ctx, work)
