"""Dense Hermitian operator core: spectral calculus, distances, channels, random ensembles.

Everything here is a pure function of its inputs (plus an explicit seed for the
random generators); all wrapper objects are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerances (see module-level design notes in the README):
# absolute threshold separating numerical noise from genuine zeros of a spectrum,
HERMITICITY_TOL = 1e-12
EIG_ZERO_TOL = 1e-12
# relative threshold for support/rank decisions,
SUPPORT_RTOL = 1e-10
PSD_TOL = 1e-10


class ValidationError(ValueError):
    """An operator failed one of its structural invariants."""


def _as_matrix(x) -> np.ndarray:
    """Coerce an operator wrapper or a raw array to a matrix: float64 when the
    entries are bool, int or float, complex128 otherwise.  Real operators stay
    real, so their eigendecompositions and products run in real arithmetic."""
    if isinstance(x, HermitianOperator):
        return x.mat
    if isinstance(x, (DensityOperator, Projector)):
        return x.op.mat
    x = np.asarray(x)
    return x.astype(float if x.dtype.kind in "biuf" else complex, copy=False)


def _matched_matrices(a, b) -> tuple:
    """The matrices of two operators, checked to have the same shape."""
    am, bm = _as_matrix(a), _as_matrix(b)
    if am.shape != bm.shape:
        raise ValidationError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am, bm


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2 of a matrix, or of each matrix of a (k, d, d) stack."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2


@dataclass(frozen=True)
class HermitianOperator:
    """A dense self-adjoint matrix of finite numbers: float64 for bool, int
    and float input, complex128 for any other numeric input."""

    mat: np.ndarray

    def __post_init__(self):
        try:
            mat = np.asarray(self.mat)
        except ValueError as exc:  # ragged nesting
            raise ValidationError(f"entries do not form a matrix: {exc}") from exc
        if mat.dtype.kind not in "biufc":
            raise ValidationError(f"entries must be numbers, got dtype {mat.dtype}")
        mat = _as_matrix(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValidationError("matrix has non-finite entries")
        dev = np.abs(mat - mat.conj().T).max()
        if dev > HERMITICITY_TOL * max(np.abs(mat).max(), 1.0):
            raise ValidationError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        mat = hermitian_part(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


@dataclass(frozen=True)
class DensityOperator:
    """A positive operator with trace at most one.

    ``normalized`` distinguishes genuine states from the subnormalized
    candidates that appear inside smoothing balls.
    """

    op: HermitianOperator
    trace: float = field(init=False)
    normalized: bool = field(init=False)

    def __post_init__(self):
        w = np.linalg.eigvalsh(self.op.mat)
        if w[0] < -PSD_TOL:
            raise ValidationError(f"negative eigenvalue {w[0]:.3e}")
        tr = self.op.trace()
        if tr <= 0 or tr > 1 + PSD_TOL:
            raise ValidationError(f"trace {tr} outside (0, 1]")
        object.__setattr__(self, "trace", tr)
        object.__setattr__(self, "normalized", abs(tr - 1.0) <= 1e-10)

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "DensityOperator":
        return cls(HermitianOperator(mat))

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True)
class Projector:
    """An orthogonal projector together with its rank."""

    op: HermitianOperator
    rank: int

    def __post_init__(self):
        mat = self.op.mat
        if np.abs(mat @ mat - mat).max() > 1e-10:
            raise ValidationError("operator is not idempotent")
        if abs(mat.trace().real - self.rank) > 1e-8:
            raise ValidationError("rank does not match trace")

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of the Hermitian part of an operator: ascending
    eigenvalues and orthonormal eigenvector columns.

    The one spectral kernel: every function of an operator is ``apply`` on
    one factorization, so an operator needed under several functions is
    factored once.  A (k, d, d) stack of operators is factored by one batched
    ``eigh``; ``support`` and ``apply`` then act on each member.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def of(cls, a) -> "Spectrum":
        w, v = np.linalg.eigh(hermitian_part(_as_matrix(a)))
        return cls(eigenvalues=w, eigenvectors=v)

    @property
    def support(self) -> np.ndarray:
        """Mask of the eigenvalues above SUPPORT_RTOL * lambda_max (empty when
        lambda_max <= 0, since every eigenvalue is then at most that bound)."""
        w = self.eigenvalues
        return w > SUPPORT_RTOL * w[..., -1:]

    def apply(self, fn, on_support: bool = False) -> np.ndarray:
        """V fn(W) V^dag; with ``on_support`` fn sees only the support
        eigenvalues (all positive) and the kernel maps to zero."""
        w = self.eigenvalues
        if on_support:
            keep = self.support
            vals = np.zeros_like(w)
            vals[keep] = fn(w[keep])
        else:
            vals = fn(w)
        v = self.eigenvectors
        return (v * vals[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class QuantumChannel:
    """A CPTP map given by its Kraus operators."""

    kraus: tuple
    in_dim: int
    out_dim: int

    def __post_init__(self):
        kraus = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        acc = sum(k.conj().T @ k for k in kraus)
        if np.abs(acc - np.eye(self.in_dim)).max() > 1e-10:
            raise ValidationError("Kraus operators are not trace preserving")
        object.__setattr__(self, "kraus", kraus)


@dataclass(frozen=True)
class QuantumInstrument:
    """A family {V_i} with sum_i V_i^dag V_i = I, producing subnormalized outcomes."""

    elements: tuple

    def __post_init__(self):
        elements = tuple(np.asarray(v, dtype=complex) for v in self.elements)
        dim = elements[0].shape[1]
        acc = sum(v.conj().T @ v for v in elements)
        if np.abs(acc - np.eye(dim)).max() > 1e-10:
            raise ValidationError("instrument elements do not resolve the identity")
        object.__setattr__(self, "elements", elements)


_RELATIONS = {
    ">=": lambda w: w >= -EIG_ZERO_TOL,
    ">": lambda w: w > EIG_ZERO_TOL,
    "<=": lambda w: w <= EIG_ZERO_TOL,
    "<": lambda w: w < -EIG_ZERO_TOL,
}


def _spectral_projectors(diffs: np.ndarray, relation: str) -> tuple:
    """Spectral projectors {D rel 0}, in their Hermitian part, and their ranks,
    for one operator D or a (k, d, d) stack of them.

    Unchecked, for inner loops that read only masses from the projectors;
    ``compare_projector`` wraps the same arrays in the checked ``Projector``.
    """
    spec = Spectrum.of(diffs)
    keep = _RELATIONS[relation](spec.eigenvalues)
    return hermitian_part(spec.apply(lambda w: keep)), keep.sum(axis=-1)


def compare_projector(a, b, relation: str = ">=") -> Projector:
    """Spectral projector {A rel B}, i.e. onto eigenvectors of A - B whose
    eigenvalues satisfy the relation against zero.

    Eigenvalues with absolute value <= 1e-12 count as zero, so they belong to
    the non-strict projectors only.
    """
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    am, bm = _matched_matrices(a, b)
    proj, rank = _spectral_projectors(am - bm, relation)
    return Projector(HermitianOperator(proj), rank=int(rank))


def support_projector(rho) -> Projector:
    """Projector onto the range of a positive operator (relative rank cutoff)."""
    spec = Spectrum.of(rho)
    return Projector(HermitianOperator(spec.apply(np.ones_like, on_support=True)),
                     rank=int(spec.support.sum()))


def trace_distance(a, b) -> float:
    """Schatten-1 norm ||A - B||_1 (sum of |eigenvalues| of the difference)."""
    am, bm = _matched_matrices(a, b)
    w = np.linalg.eigvalsh(hermitian_part(am - bm))
    return float(np.abs(w).sum())


def fidelity(rho: DensityOperator, rho2: DensityOperator) -> float:
    """Tr sqrt(rho^{1/2} rho' rho^{1/2}); defined for normalized states only."""
    if not (rho.normalized and rho2.normalized):
        raise ValidationError("fidelity requires normalized states")
    if rho.dim != rho2.dim:
        raise ValidationError("dimension mismatch")
    s = Spectrum.of(rho).apply(lambda w: np.sqrt(np.clip(w, 0.0, None)))
    w = np.linalg.eigvalsh(hermitian_part(s @ rho2.mat @ s))
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def tensor(a, b) -> HermitianOperator:
    return HermitianOperator(np.kron(_as_matrix(a), _as_matrix(b)))


def partial_trace_matrix(mat: np.ndarray, dims: tuple, keep: str = "A") -> np.ndarray:
    da, db = dims
    if da * db != mat.shape[0]:
        raise ValidationError(f"dims {dims} do not factor dimension {mat.shape[0]}")
    t = mat.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abad->bd", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(rho, dims: tuple, keep: str = "A") -> DensityOperator:
    return DensityOperator.from_matrix(partial_trace_matrix(_as_matrix(rho), dims, keep))


def apply_channel(channel: QuantumChannel, rho) -> DensityOperator:
    mat = _as_matrix(rho)
    if mat.shape[0] != channel.in_dim:
        raise ValidationError("channel input dimension mismatch")
    out = sum(k @ mat @ k.conj().T for k in channel.kraus)
    return DensityOperator.from_matrix(hermitian_part(out))


def apply_channel_matrix(channel: QuantumChannel, mat: np.ndarray) -> np.ndarray:
    """Channel action on an arbitrary (not necessarily positive) operator."""
    return hermitian_part(sum(k @ mat @ k.conj().T for k in channel.kraus))


# --------------------------------------------------------------------------
# Seeded random ensembles (Hilbert-Schmidt induced / Ginibre measure).
# --------------------------------------------------------------------------

def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_density(dim: int, rank: int, seed) -> DensityOperator:
    """rho = G G^dag / Tr(G G^dag) with G a dim x rank complex Gaussian draw."""
    if not (1 <= rank <= dim):
        raise ValidationError(f"rank {rank} must lie in [1, {dim}]")
    g = _ginibre(_rng(seed), dim, rank)
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real)


def random_hermitian(dim: int, seed) -> HermitianOperator:
    g = _ginibre(_rng(seed), dim, dim)
    return HermitianOperator(hermitian_part(g))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar unitary via QR of a Ginibre matrix with the R-diagonal phase fix."""
    g = _ginibre(_rng(seed), dim, dim)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_effect(dim: int, seed) -> HermitianOperator:
    """A random operator with 0 <= P <= I (uniform eigenvalues, Haar basis)."""
    rng = _rng(seed)
    u = random_unitary(dim, rng)
    w = rng.uniform(0.0, 1.0, size=dim)
    return HermitianOperator((u * w) @ u.conj().T)


def random_channel(in_dim: int, out_dim: int, env_dim: int, seed) -> QuantumChannel:
    """Random CPTP map from a Haar-random Stinespring isometry."""
    if min(in_dim, out_dim, env_dim) < 1:
        raise ValidationError(f"dimensions must be >= 1, got {in_dim}, {out_dim}, {env_dim}")
    u = random_unitary(out_dim * env_dim, seed)
    if in_dim > out_dim * env_dim:
        raise ValidationError("in_dim exceeds out_dim * env_dim")
    iso = u[:, :in_dim].reshape(out_dim, env_dim, in_dim)
    kraus = [iso[:, e, :] for e in range(env_dim)]
    return QuantumChannel(kraus=tuple(kraus), in_dim=in_dim, out_dim=out_dim)


def random_pure_bipartite(da: int, db: int, seed) -> DensityOperator:
    rng = _rng(seed)
    psi = _ginibre(rng, da * db, 1)[:, 0]
    psi /= np.linalg.norm(psi)
    return DensityOperator.from_matrix(np.outer(psi, psi.conj()))


def random_instrument(dim: int, outcomes: int, seed) -> QuantumInstrument:
    """Random {V_i} with sum V_i^dag V_i = I (blocks of a Haar isometry)."""
    u = random_unitary(dim * outcomes, seed)
    iso = u[:, :dim].reshape(dim, outcomes, dim)
    return QuantumInstrument(elements=tuple(iso[:, i, :] for i in range(outcomes)))
