"""Interaction Hamiltonians and exact block time evolution.

The nonlinear interaction (hbar = 1) is

    H = i kappa (a+^k b+^l p  -  a^k b^l p+)

on a (pump, A, B) layout. The dimensionless sweep coordinate is
xi = kappa * t * alpha_p, so grid times are t_j = xi_j / (kappa * alpha_p).

a+^k b+^l p moves the flat Fock index r = (n_p d_A + n_a) d_B + n_b by
-(d_A d_B - k d_B - l), so H is two masked diagonals at that offset and its
negative. The builders write those CSR arrays straight from the ladder
weights by index arithmetic; the classical pump is the same two bands with
the shifts (1, 1).

H conserves k N_P + N_A and l N_A - k N_B, so its sparsity graph splits into
disjoint blocks: from |n0>_P |0,0> a state only ever visits the chain
|n0 - j, k j, l j>. Evolution walks the graph outward from the initial
state's support, labels the blocks of the part it reaches (a few thousand of
the hundreds of thousands of states), diagonalizes each block once and forms
every grid point exactly as psi(t) = V exp(-i Lambda t) V+ psi0. There is no
time stepper, so the result does not depend on the grid spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .fock import ModeLayout, QuantumState, TruncatedOperator, top_level_population

TOP_LEVEL_GUARD = 1e-6


class IntegratorError(RuntimeError):
    """Raised when evolution misses its accuracy target.

    ``residual`` is a block's eigen-residual max |H_b V - V Lambda| when it
    exceeds tol * max(1, max |Lambda|), or an evolved state's norm or trace
    drift when that exceeds norm_tol.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class InteractionSpec:
    """Process orders and coupling for the trilinear interaction.

    k = l = 1 may only be used with the classical-pump oracle builder; the
    trilinear builder requires k + l >= 3.
    """

    layout: ModeLayout
    k: int
    l: int
    kappa: float = 1.0

    def __post_init__(self):
        for name, val in (("k", self.k), ("l", self.l)):
            if not isinstance(val, (int, np.integer)) or isinstance(val, bool) or val < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {val!r}")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")


def _shift_weights(dim: int, m: int) -> np.ndarray:
    """Weights of the truncated ladder power that moves |n> to |n + m>.

    sqrt((n+1) ... (n+m)) for a+^m, 0 where n + m >= dim; sqrt(n (n-1) ...
    (n+m+1)) for a^|m|, which vanishes by itself where n < |m|.
    """
    n = np.arange(dim)
    w = np.ones(dim)
    for j in range(abs(m)):
        w *= n + j + 1 if m > 0 else n - j
    w[n + m >= dim] = 0.0
    return np.sqrt(w)


def _two_band(layout: ModeLayout, shifts: tuple[int, ...], coupling: float) -> sparse.csr_matrix:
    """CSR matrix of i*coupling*(U - U+), where U moves |n> to |n + shifts>.

    U is a product of one truncated ladder power per mode, so it is the flat
    index shift r -> r + t, t = sum(shifts * strides), with source weights
    c[r] that are an outer product of the modes' weights. H is then two
    masked diagonals: row i holds H[i, i - s] and H[i, i + s] = conj(H[i + s, i])
    with s = |t|, and no stored zeros. The arrays are written straight from
    the masks, with no operator product.
    """
    dims = layout.dims
    c = _shift_weights(dims[0], shifts[0])
    for dim, m in zip(dims[1:], shifts[1:]):
        c = np.multiply.outer(c, _shift_weights(dim, m))
    t = sum(m * math.prod(dims[i + 1:]) for i, m in enumerate(shifts))
    n, s = c.size, abs(t)
    # H[r + t, r] = i g c[r] and H[r, r + t] = -i g c[r], so row i holds
    # i g low[i] at column i - s and -i g low[i + s] at column i + s
    low = np.zeros(n)
    low[s:] = c.ravel()[:n - s] if t > 0 else -c.ravel()[s:]
    del c  # freed before the output arrays are allocated
    has_low = low != 0
    has_high = np.zeros(n, dtype=bool)
    has_high[:n - s] = has_low[s:]
    # the index dtype scipy would pick, so the arrays are not copied
    itype = np.int32 if 2 * n < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(has_low.astype(itype) + has_high, out=indptr[1:])
    # H is purely imaginary: only the imaginary parts are written
    data = np.zeros(indptr[-1], dtype=complex)
    indices = np.empty(indptr[-1], dtype=itype)
    rows = np.flatnonzero(has_low)
    at = indptr[rows]
    data.imag[at] = coupling * low[rows]
    indices[at] = rows - s
    rows = np.flatnonzero(has_high)
    at = indptr[rows + 1] - 1
    data.imag[at] = -coupling * low[rows + s]
    indices[at] = rows + s
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def build_hamiltonian(spec: InteractionSpec) -> TruncatedOperator:
    """Sparse trilinear Hamiltonian i*kappa*(a+^k b+^l p - h.c.) on a 3-mode layout."""
    layout = spec.layout
    if layout.nmodes != 3:
        raise ValueError("trilinear interaction needs a (pump, A, B) layout")
    if spec.k + spec.l < 3:
        raise ValueError(
            "k + l >= 3 required for the nonlinear interaction; "
            "use build_classical_pump_hamiltonian for the k = l = 1 Gaussian oracle"
        )
    _, dim_a, dim_b = layout.dims
    if spec.k >= dim_a:
        raise ValueError(f"k={spec.k} exceeds mode-A cutoff {dim_a}")
    if spec.l >= dim_b:
        raise ValueError(f"l={spec.l} exceeds mode-B cutoff {dim_b}")
    h = _two_band(layout, (-1, spec.k, spec.l), spec.kappa)
    return TruncatedOperator(layout, h, hermitian=True)


def build_classical_pump_hamiltonian(spec: InteractionSpec, alpha_p: float) -> TruncatedOperator:
    """Gaussian oracle H = i*kappa*alpha_p*(a+b+ - ab) on a two-mode (A, B) layout.

    Evolving vacuum for time t yields two-mode squeezed vacuum with
    r = kappa * alpha_p * t and <N_A> = sinh(r)^2.
    """
    layout = spec.layout
    if layout.nmodes != 2:
        raise ValueError("classical-pump oracle needs a two-mode (A, B) layout")
    if spec.k != 1 or spec.l != 1:
        raise ValueError("classical-pump oracle is defined for k = l = 1 only")
    h = _two_band(layout, (1, 1), spec.kappa * alpha_p)
    return TruncatedOperator(layout, h, hermitian=True)


@dataclass(frozen=True)
class EvolutionConfig:
    """Grid and tolerances for a trajectory.

    xi_grid must be strictly increasing and start at 0; times are
    t_j = xi_j / (kappa * alpha_p). tol bounds each block's eigen-residual
    max |H_b V - V Lambda| relative to max(1, max |Lambda|); norm_tol bounds
    the norm or trace drift of every evolved state.
    """

    xi_grid: tuple[float, ...]
    kappa: float
    alpha_p: float
    tol: float = 1e-9
    norm_tol: float = 1e-8

    def __post_init__(self):
        grid = tuple(float(x) for x in self.xi_grid)
        if len(grid) == 0 or grid[0] != 0.0:
            raise ValueError("xi_grid must start at 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("xi_grid must be strictly increasing")
        if self.kappa <= 0 or self.alpha_p <= 0:
            raise ValueError("kappa and alpha_p must be positive")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        object.__setattr__(self, "xi_grid", grid)

    def times(self) -> np.ndarray:
        return np.asarray(self.xi_grid) / (self.kappa * self.alpha_p)


def _sector_blocks(h: sparse.csr_matrix, support: np.ndarray, tol: float) -> list:
    """(indices, eigenvalues, eigenvectors) of every block of h meeting ``support``.

    Blocks are the connected components of h's sparsity graph; the others
    never exchange amplitude with the state and are skipped. The walk starts
    at ``support`` and adds every stored neighbour of the frontier, read from
    h.indptr and h.indices in one gather, until nothing new is reached; only
    that subgraph is labelled, so the cost follows the blocks, not h.
    """
    reached = np.zeros(h.shape[0], dtype=bool)
    reached[support] = True
    frontier = support
    while frontier.size:
        start = h.indptr[frontier]
        count = h.indptr[frontier + 1] - start
        # stored positions start[i] .. start[i] + count[i] - 1 of every frontier row
        pos = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
        nbr = h.indices[pos]
        frontier = np.unique(nbr[~reached[nbr]])
        reached[frontier] = True
    idx = np.flatnonzero(reached)
    # abs: connected_components casts to float, which zeroes a purely imaginary h
    _, labels = connected_components(abs(h[idx][:, idx]), directed=False)
    order = np.argsort(labels, kind="stable")
    idx = idx[order]
    sub = h[idx][:, idx]
    bounds = np.flatnonzero(np.diff(labels[order], prepend=-1, append=-1))
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        hb = sub[lo:hi, lo:hi].toarray()
        lam, vec = np.linalg.eigh(hb)
        residual = float(np.abs(hb @ vec - vec * lam).max())
        if residual > tol * max(1.0, float(np.abs(lam).max())):
            raise IntegratorError(
                f"eigen-residual {residual:.3e} on a block of {hi - lo} states "
                f"exceeds tol={tol:g}", residual=residual)
        blocks.append((idx[lo:hi], lam, vec))
    return blocks


def _propagate(blocks: list, x: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) x for a vector, or each column of a matrix, on the blocks."""
    out = np.zeros(x.shape, dtype=complex)
    for idx, lam, vec in blocks:
        out[idx] = (vec * np.exp(-1j * t * lam)) @ (vec.conj().T @ x[idx])
    return out


def evolve(state: QuantumState, hamiltonian: TruncatedOperator, config: EvolutionConfig) -> list[QuantumState]:
    """Propagate ``state`` to every xi grid point (the first entry is t = 0).

    ``hamiltonian`` may be any Hermitian operator on the state's layout. A
    density matrix evolves as U rho U+ = (U (U rho)+)+, with the same column
    propagator applied twice. Norm/trace deviations beyond config.norm_tol
    raise; a top-two-level population above the truncation guard is attached
    as a note.
    """
    if hamiltonian.layout.dims != state.layout.dims:
        raise ValueError("state and Hamiltonian live on different layouts")
    if state.is_pure:
        x0, support = state.vector, state.support
    else:
        x0 = state.matrix
        support = np.flatnonzero(np.any(x0 != 0, axis=1))
    blocks = _sector_blocks(hamiltonian.data, support, config.tol)

    states: list[QuantumState] = []
    for x, t in zip(config.xi_grid, config.times()):
        if state.is_pure:
            new = QuantumState(state.layout, vector=_propagate(blocks, x0, t), time=float(t))
        else:
            rho = _propagate(blocks, _propagate(blocks, x0, t).conj().T, t).conj().T
            new = QuantumState(state.layout, matrix=rho, time=float(t))
        drift = abs(new.norm() - 1.0)
        if drift > config.norm_tol:
            kind = "norm" if state.is_pure else "trace"
            raise IntegratorError(f"{kind} drifted to {new.norm():.12f} at xi={x}", residual=drift)
        pops = top_level_population(new)
        breaches = {m: p for m, p in pops.items() if p > TOP_LEVEL_GUARD}
        if breaches:
            note = ("truncation guard: top-two-level population "
                    + ", ".join(f"mode{m}={p:.2e}" for m, p in sorted(breaches.items())))
            new = QuantumState(new.layout, vector=new.vector, matrix=new.matrix,
                               time=new.time, notes=(note,))
        states.append(new)
    return states
