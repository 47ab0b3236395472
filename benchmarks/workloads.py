"""The benchmark's four workloads: seeded inputs and one operation each.

An operation is one input's full set of calls into qdiv.  A round is the
list of inputs a run attempts as a whole; runs attempt whole rounds, so every
run sees the same mix of operations.  qdiv is always called through module
attributes (``dv.d_max``), so the tracer's wrappers see every call.  The
checks of each workload's outputs live in ``oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qdiv import divergences as dv
from qdiv import entanglement as ent
from qdiv import operators as op
from qdiv import smoothing as sm
from qdiv import spectral as sp


@dataclass
class Input:
    kind: str
    data: dict
    # Label of the check this input fails at this commit because of a fault
    # in qdiv (see the FOUND lines in CHANGES.md).  That failure counts in
    # ``failed`` and leaves ``correct`` true; any other failure does not.
    known_fault: str | None = None


def ginibre_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def partial_traces(rho: np.ndarray, da: int, db: int) -> tuple:
    t = rho.reshape(da, db, da, db)
    return np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)


def density(mat: np.ndarray) -> op.DensityOperator:
    return op.DensityOperator.from_matrix(mat)


class OneShot:
    """What `qdiv compute` and `qdiv smooth --mode bound` compute, per pair
    (rho, sigma) at d = 2..16: the divergence report, the Renyi divergence,
    the certified smooth D_max upper bound and the smooth D_min lower bound.
    rho has rank ceil(d/2), so D_min and the smoothing are not trivial;
    sigma has full rank."""

    EPS = 0.1
    ALPHA = 0.5
    DIMS = range(2, 17)

    def __init__(self, seed: int):
        self.seed = seed

    def round_inputs(self, r: int) -> list:
        out = []
        for d in self.DIMS:
            rng = np.random.default_rng([self.seed, r, d])
            rho = ginibre_state(rng, d, (d + 1) // 2)
            sigma = ginibre_state(rng, d, d)
            out.append(Input(f"d={d}", {"rho": density(rho), "sigma": density(sigma)}))
        return out

    def warm_up(self):
        self.op(self.round_inputs(0)[0])

    def op(self, inp: Input) -> dict:
        rho, sigma = inp.data["rho"], inp.data["sigma"]
        report = dv.divergence_report(rho.mat, sigma.mat)
        renyi = dv.renyi_relative(rho.mat, sigma.mat, self.ALPHA)
        upper = sm.smooth_dmax_upper(rho, sigma, self.EPS)
        lower = sm.smooth_dmin_lower(rho, sigma, self.EPS)
        return {
            "d_min": report.d_min.bits, "d_max": report.d_max.bits,
            "rel": report.rel_entropy.bits, "chernoff": report.chernoff.bits,
            "sandwich_ok": report.sandwich_ok, "renyi": renyi.bits,
            "dmax_upper": upper.lambda_bits, "smoothed": upper.certificate.smoothed.mat,
            "dmin_lower": lower,
        }


def _bell() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


def _schmidt_pure(lam: float) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = math.sqrt(lam), math.sqrt(1 - lam)
    return np.outer(v, v.conj())


def _product_mixture(rng: np.random.Generator, terms: int) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        out += w * np.outer(v, v.conj())
    return out


class Bipartite:
    """Per two-qubit state: `emax` with the CLI defaults, given cold, and the
    exact smooth max-mutual information D_max^eps(rho_AB || rho_A x rho_B).

    A round is a Bell state turned by seeded local unitaries U_A x U_B, then
    three fixed states: a pure state, an entangled mixed state and a
    separable mixture of four product states.  A round takes about 40 s, so
    a run is one round.  The solvers' work on the mixed and separable states
    is not invariant under local unitaries (the second `emax` restart starts
    from random product terms), and turning them by a seeded frame moved
    their cost by up to 5x between seeds, which a run of four operations
    cannot average out.  The Bell state's cost moves far less.  The pure
    state's E_max lower bound overshoots the exact value at this commit (a
    FOUND line in CHANGES.md); an operation known to fail must fail in every
    run, so it does not depend on the seed either.
    """

    EPS = 0.1
    EMAX_ARGS = {"terms": None, "restarts": 2, "seed": 0, "iters": 300}
    PURE_SCHMIDT = 0.7

    def __init__(self, seed: int):
        self.seed = seed
        self.fixed = [
            self.make_input("pure", _schmidt_pure(self.PURE_SCHMIDT), known_fault="E_max bracket"),
            self.make_input("mixed", 0.7 * _bell()
                            + 0.3 * ginibre_state(np.random.default_rng(11), 4, 4)),
            self.make_input("separable", _product_mixture(np.random.default_rng(5), 4)),
        ]

    @staticmethod
    def make_input(kind: str, mat: np.ndarray, known_fault=None) -> Input:
        rho_a, rho_b = partial_traces(mat, 2, 2)
        return Input(kind, {"rho": density(mat), "product": density(np.kron(rho_a, rho_b)),
                            "rho_a": rho_a}, known_fault)

    def round_inputs(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        return [self.make_input("bell", u @ _bell() @ u.conj().T)] + self.fixed

    def warm_up(self):
        self.op(self.make_input("product", _schmidt_pure(1.0)))

    def op(self, inp: Input) -> dict:
        rho = inp.data["rho"]
        res = ent.emax(ent.BipartiteState((2, 2), rho), **self.EMAX_ARGS)
        smooth = sm.smooth_dmax_exact(rho, inp.data["product"], self.EPS)
        return {"lower": res.lower_bits, "upper": res.upper_bits,
                "witness": res.witness.terms, "smooth_imax": smooth}


def mixed_with_uniform(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Half the maximally mixed state plus half a full-rank Gaussian state:
    every eigenvalue lies in [1/(2 dim), (dim + 1)/(2 dim)]."""
    return 0.5 * np.eye(dim) / dim + 0.5 * ginibre_state(rng, dim, dim)


class RatesDense:
    """One rate_curve over n = 1..5 per seeded non-commuting qubit pair.

    Both states are half maximally mixed, so sigma^(x)n keeps its smallest
    eigenvalue within 3^n of its largest.  A plain Gaussian qubit state can be
    near-singular enough that the dense path raises at n = 5 or 6, on some
    seeds and not others (a FOUND line in CHANGES.md), and such an operation
    cannot be kept in the benchmark.  n stops at 5 so that a run holds about
    ten operations: with the 2.4 s operation up to n = 6, the median of five
    moved by 28 % between runs.
    """

    EPS = 0.05
    N_LIST = list(range(1, 6))

    def __init__(self, seed: int):
        self.seed = seed

    def round_inputs(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        rho = density(mixed_with_uniform(rng, 2))
        sigma = density(mixed_with_uniform(rng, 2))
        return [Input("qubit pair", {"pair": sp.IIDPair(rho=rho, sigma=sigma)})]

    def warm_up(self):
        sp.rate_curve(self.round_inputs(0)[0].data["pair"], self.EPS, [1])

    def op(self, inp: Input) -> list:
        points = sp.rate_curve(inp.data["pair"], self.EPS, self.N_LIST)
        return [(pt.n, pt.dmax_over_n, pt.dmin_over_n, pt.rel_entropy) for pt in points]


class RatesTypes:
    """One rate_curve per seeded commuting pair at d = 2, 3 and 4.

    Each pair is a fixed pair of spectra (p, q) in a seeded common eigenbasis
    U: rho = U diag(p) U^dag, sigma = U diag(q) U^dag.  The cost of the
    type-class path depends on p and q (drawing them per seed moved an
    operation's time by up to 3x), not on U, so every run does the same work.
    With these weights and n, every type-class mass that matters stays far
    above the underflow that breaks this path at larger n (the FOUND lines in
    CHANGES.md).
    """

    EPS = 0.05
    SPECTRA = {
        2: ([0.75, 0.25], [0.5, 0.5]),
        3: ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]),
        4: ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]),
    }
    N_LISTS = {2: [100, 200, 300], 3: [50, 100, 150, 200], 4: [15, 30, 45, 60]}

    def __init__(self, seed: int):
        self.seed = seed

    def round_inputs(self, r: int) -> list:
        out = []
        for d, (p, q) in self.SPECTRA.items():
            u = haar_unitary(np.random.default_rng([self.seed, r, d]), d)
            rho, sigma = ((u * np.asarray(w)) @ u.conj().T for w in (p, q))
            pair = sp.IIDPair(rho=density(rho), sigma=density(sigma))
            out.append(Input(f"d={d}", {"pair": pair, "p": np.array(p), "q": np.array(q),
                                        "n_list": self.N_LISTS[d]}))
        return out

    def warm_up(self):
        for inp in self.round_inputs(0):
            sp.rate_curve(inp.data["pair"], self.EPS, [5])

    def op(self, inp: Input) -> list:
        points = sp.rate_curve(inp.data["pair"], self.EPS, inp.data["n_list"])
        return [(pt.n, pt.dmax_over_n, pt.dmin_over_n, pt.rel_entropy) for pt in points]


WORKLOADS = {
    "oneshot": OneShot,
    "bipartite": Bipartite,
    "rates_dense": RatesDense,
    "rates_types": RatesTypes,
}
