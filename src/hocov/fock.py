"""Truncated multimode Fock space: layouts, ladder operators, initial states.

All multimode objects use a row-major basis over the mode order of the layout,
i.e. for a three-mode layout (pump, A, B) the flat index of |n_p, n_a, n_b> is
(n_p * dim_a + n_a) * dim_b + n_b, which is exactly the ordering produced by
chained Kronecker products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse


class TruncationError(ValueError):
    """A requested object does not fit (or no longer trusts) the Fock cutoff."""


class DegenerateStateError(ValueError):
    """A covariance block is numerically rank deficient."""


@dataclass(frozen=True)
class ModeLayout:
    """Per-mode truncation dimensions.

    Two-mode layouts are interpreted as (A, B) and exist for the classical-pump
    Gaussian oracle; three-mode layouts are (pump, A, B).
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) not in (2, 3):
            raise ValueError(f"layout needs 2 or 3 modes, got {len(dims)}")
        if any(d < 2 for d in dims):
            raise ValueError(f"every mode needs dim >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def nmodes(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def pump(self) -> int | None:
        return 0 if self.nmodes == 3 else None

    @property
    def mode_a(self) -> int:
        return 1 if self.nmodes == 3 else 0

    @property
    def mode_b(self) -> int:
        return 2 if self.nmodes == 3 else 1


@dataclass(frozen=True)
class TruncatedOperator:
    """A sparse operator on the full truncated space."""

    layout: ModeLayout
    data: sparse.csr_matrix
    hermitian: bool = False

    def __post_init__(self):
        n = self.layout.total_dim
        if self.data.shape != (n, n):
            raise ValueError(f"operator shape {self.data.shape} != layout dim {n}")

    def dagger(self) -> "TruncatedOperator":
        return TruncatedOperator(self.layout, self.data.conj().T.tocsr(), self.hermitian)

    def __matmul__(self, other):
        if isinstance(other, TruncatedOperator):
            return TruncatedOperator(self.layout, (self.data @ other.data).tocsr())
        return self.data @ other


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector or density matrix on a layout.

    ``vector`` xor ``matrix`` is set. ``time`` records the physical time the
    state was evolved to (0 for freshly constructed states). ``notes`` carries
    non-fatal diagnostics attached during evolution.
    """

    layout: ModeLayout
    vector: np.ndarray | None = None
    matrix: np.ndarray | None = None
    time: float = 0.0
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        n = self.layout.total_dim
        if (self.vector is None) == (self.matrix is None):
            raise ValueError("exactly one of vector/matrix must be given")
        if self.vector is not None:
            v = np.asarray(self.vector, dtype=complex).reshape(n)
            v.flags.writeable = False
            object.__setattr__(self, "vector", v)
        else:
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (n, n):
                raise ValueError(f"density matrix shape {m.shape} != ({n},{n})")
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @cached_property
    def support(self) -> np.ndarray:
        """Sorted flat Fock indices of a pure state's nonzero amplitudes, or
        every index for a density matrix; found once per state."""
        idx = np.flatnonzero(self.vector != 0) if self.is_pure else np.arange(self.layout.total_dim)
        idx.flags.writeable = False
        return idx

    def norm(self) -> float:
        if self.is_pure:
            return float(np.linalg.norm(self.vector))
        return float(np.trace(self.matrix).real)

    def density(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.vector, self.vector.conj())
        return self.matrix

    def populations(self) -> np.ndarray:
        """Joint Fock-level populations, shaped like the layout's dims."""
        if self.is_pure:
            p = np.abs(self.vector) ** 2
        else:
            p = np.diag(self.matrix).real
        return p.reshape(self.layout.dims)

    def mode_populations(self, mode: int) -> np.ndarray:
        """Marginal Fock-level populations of one mode."""
        axes = tuple(i for i in range(self.layout.nmodes) if i != mode)
        return self.populations().sum(axis=axes)


def annihilation(dim: int) -> np.ndarray:
    """Single-mode annihilation operator, a[n-1, n] = sqrt(n)."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def creation(dim: int) -> np.ndarray:
    return annihilation(dim).T.copy()


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(float(dim)))


def embed(op: np.ndarray, mode: int, layout: ModeLayout) -> TruncatedOperator:
    """Embed a single-mode operator into the full space by Kronecker products."""
    if not 0 <= mode < layout.nmodes:
        raise ValueError(f"mode {mode} outside layout with {layout.nmodes} modes")
    d = layout.dims[mode]
    op = np.asarray(op)
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match mode dim {d}")
    full = sparse.csr_matrix(op)
    for m, dm in enumerate(layout.dims):
        if m == mode:
            continue
        eye = sparse.identity(dm, format="csr")
        full = sparse.kron(eye, full, format="csr") if m < mode else sparse.kron(full, eye, format="csr")
    herm = bool(np.allclose(op, op.conj().T, atol=1e-14))
    return TruncatedOperator(layout, full.tocsr(), hermitian=herm)


def coherent_state(alpha: complex, dim: int, allow_truncation: bool = False) -> np.ndarray:
    """Truncated coherent state |alpha>, renormalized on the cutoff space.

    The adequacy guard requires |alpha|^2 <= dim/4 so that the Poisson tail is
    far below the cutoff; pass allow_truncation=True to override (the caller
    then owns monitoring the top-level population).
    """
    nbar = abs(alpha) ** 2
    if nbar > dim / 4 and not allow_truncation:
        raise TruncationError(
            f"|alpha|^2 = {nbar:.3g} exceeds dim/4 = {dim / 4:.3g}; "
            "raise dim or pass allow_truncation=True"
        )
    n = np.arange(dim)
    # log-space to stay finite for large alpha
    if alpha == 0:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return vec
    logmag = n * np.log(abs(alpha)) - 0.5 * np.array([math.lgamma(k + 1) for k in n]) - nbar / 2
    phase = np.exp(1j * np.angle(alpha) * n)
    vec = np.exp(logmag) * phase
    vec /= np.linalg.norm(vec)
    return vec


def thermal_state(n_th: float, dim: int) -> np.ndarray:
    """Truncated thermal density matrix, p_n ~ (n_th/(1+n_th))^n, renormalized."""
    if n_th < 0:
        raise ValueError("mean thermal occupation must be >= 0")
    if n_th == 0:
        p = np.zeros(dim)
        p[0] = 1.0
    else:
        q = n_th / (1.0 + n_th)
        p = q ** np.arange(dim)
        p /= p.sum()
    return np.diag(p.astype(complex))


def fock_state(occupations: tuple[int, ...], layout: ModeLayout) -> QuantumState:
    """Product Fock basis state |n_0, n_1, ...>."""
    if len(occupations) != layout.nmodes:
        raise ValueError("one occupation per mode required")
    for n, d in zip(occupations, layout.dims):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} outside [0, {d})")
    idx = 0
    for n, d in zip(occupations, layout.dims):
        idx = idx * d + n
    vec = np.zeros(layout.total_dim, dtype=complex)
    vec[idx] = 1.0
    return QuantumState(layout, vector=vec)


def vacuum_state(layout: ModeLayout) -> QuantumState:
    return fock_state((0,) * layout.nmodes, layout)


def product_state(layout: ModeLayout, *factors) -> QuantumState:
    """Tensor product of per-mode factors (vectors and/or density matrices).

    If every factor is a vector the result is pure; otherwise everything is
    promoted to density matrices.
    """
    if len(factors) != layout.nmodes:
        raise ValueError("one factor per mode required")
    factors = [np.asarray(f, dtype=complex) for f in factors]
    for f, d in zip(factors, layout.dims):
        if f.shape not in ((d,), (d, d)):
            raise ValueError(f"factor shape {f.shape} does not match mode dim {d}")
    if all(f.ndim == 1 for f in factors):
        vec = factors[0]
        for f in factors[1:]:
            vec = np.kron(vec, f)
        vec = vec / np.linalg.norm(vec)
        return QuantumState(layout, vector=vec)
    mats = [np.outer(f, f.conj()) if f.ndim == 1 else f for f in factors]
    rho = mats[0]
    for m in mats[1:]:
        rho = np.kron(rho, m)
    rho = rho / np.trace(rho).real
    return QuantumState(layout, matrix=rho)


def top_level_population(state: QuantumState, levels: int = 2) -> dict[int, float]:
    """Total population in the top ``levels`` Fock levels of each mode.

    This is the post-hoc truncation guard: trajectories whose top two levels
    in any mode accumulate more than ~1e-6 population should not be trusted.
    """
    if state.is_pure:
        # only the nonzero amplitudes carry population
        idx = state.support
        p = np.abs(state.vector[idx]) ** 2
        occ = np.unravel_index(idx, state.layout.dims)
        return {mode: float(p[occ[mode] >= dim - levels].sum())
                for mode, dim in enumerate(state.layout.dims)}
    pops = state.populations()
    return {mode: float(np.moveaxis(pops, mode, 0)[-levels:].sum())
            for mode in range(state.layout.nmodes)}
