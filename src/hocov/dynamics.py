"""Interaction Hamiltonians and exact block time evolution.

The nonlinear interaction (hbar = 1) is

    H = i kappa (a+^k b+^l p  -  a^k b^l p+)

on a (pump, A, B) layout. The dimensionless sweep coordinate is
xi = kappa * t * alpha_p, so grid times are t_j = xi_j / (kappa * alpha_p).

a+^k b+^l p moves the flat Fock index r = (n_p d_A + n_a) d_B + n_b by
-(d_A d_B - k d_B - l), so H is two masked diagonals at that offset and its
negative. The builders write those CSR arrays row by row from the ladder
powers of ``fock.shift``, whose module docstring states the truncation
convention; the classical pump is the same two bands with the shifts (1, 1).

H conserves k N_P + N_A and l N_A - k N_B, so its sparsity graph splits into
disjoint blocks: from |n0>_P |0,0> a state only ever visits the chain
|n0 - j, k j, l j>. H is the direct sum of its charge blocks H_q on
l N_A - k N_B = q, and ``build_hamiltonian(spec, charge=q)`` writes the rows
of H_q only; the sweep starts in sector 0 and builds H_0 (6,490 of H's
713,900 nonzeros on window.cfg). H_q leaves a state outside sector q frozen,
without an error. The builders return H as a CSR triple of numpy arrays,
and evolution reads that triple, so this module needs no scipy. Evolution is
for pure states (a coherent pump and vacuum signal and idler stay pure): it
walks the graph from the state's support, labelling the blocks it reaches as
it goes, and diagonalizes each block once. It projects the initial amplitudes onto each block once and forms every grid
point exactly as psi(t) = V exp(-i Lambda t) V+ psi0, in one (times x block
size) product per block. There is no time stepper, so the result does not
depend on the grid spacing. The evolved states hold amplitudes on the
reached blocks only (1,820 of 376,320 states on window.cfg); no full-space
vector is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import ModeLayout, QuantumState, TruncatedOperator, shift

NORM_TOL = 1e-8  # largest drift of an evolved state's norm from 1


class IntegratorError(RuntimeError):
    """Raised when evolution misses its accuracy target.

    ``residual`` is a block's eigen-residual max |H_b V - V Lambda| when it
    exceeds tol * max(1, max |Lambda|), or an evolved state's norm drift
    when that exceeds NORM_TOL.
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
        if not (self.kappa > 0 and math.isfinite(self.kappa)):  # NaN too
            raise ValueError(f"kappa must be positive and finite, got {self.kappa!r}")


def _two_band(layout: ModeLayout, shifts: tuple[int, ...], coupling: float,
              rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR triple (values, indices, indptr) of i*coupling*(U - U+) on the
    sorted ``rows`` (all rows when None).

    U is the product of truncated ladder powers ``shifts`` (``fock.shift``),
    a flat index shift r -> r + t, and ``rows`` must be closed under U and
    U+ (a charge sector is). Where U takes |s> to |r> with weight w, H holds
    i g w at (r, s) and -i g w at (s, r); only the given rows are written,
    and the other rows of the (n, n) matrix are empty.
    """
    n = layout.total_dim
    rows = np.arange(n) if rows is None else np.asarray(rows)
    at, target, weight = shift(layout, rows, shifts)
    source = rows[at]
    # (row, column, value) of i g U and of -i g U+
    bands = [(target, source, coupling * weight), (source, target, -coupling * weight)]
    if source.size and target[0] < source[0]:
        bands.reverse()  # t < 0: column i + t comes first in each row
    # the index dtype scipy would pick, so its view does not copy them
    itype = np.int32 if 2 * n < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=itype)
    for row, _, _ in bands:
        indptr[row + 1] += 1
    np.cumsum(indptr, out=indptr)
    # H is purely imaginary: only the imaginary parts are written
    data = np.zeros(indptr[-1], dtype=complex)
    indices = np.empty(indptr[-1], dtype=itype)
    for (row, column, value), first in zip(bands, (True, False)):
        pos = indptr[row] if first else indptr[row + 1] - 1
        data.imag[pos] = value
        indices[pos] = column
    return data, indices, indptr


def _charge_rows(layout: ModeLayout, k: int, l: int, charge: int) -> np.ndarray:
    """Sorted flat indices of the (pump, A, B) states with l N_A - k N_B = charge."""
    dim_p, dim_a, dim_b = layout.dims
    n_a = np.arange(dim_a)
    n_b, rem = np.divmod(l * n_a - charge, k)
    keep = (rem == 0) & (n_b >= 0) & (n_b < dim_b)
    # n_b is fixed by n_a, so the indices rise with (n_p, n_a)
    pair = n_a[keep] * dim_b + n_b[keep]
    return (np.arange(dim_p)[:, None] * (dim_a * dim_b) + pair).ravel()


def build_hamiltonian(spec: InteractionSpec, charge: int | None = None) -> TruncatedOperator:
    """Sparse trilinear Hamiltonian i*kappa*(a+^k b+^l p - h.c.) on a 3-mode layout.

    H conserves l N_A - k N_B, so H is the direct sum of its blocks H_q on
    l N_A - k N_B = q. With ``charge=q`` only H_q is stored: the rows of the
    other sectors are empty, the shape stays (n, n), and H_q evolves any
    state in sector q exactly. A state outside sector q sees H = 0 there and
    is frozen, with no error, so the caller must know its charge; the
    sweep's initial state (pump times vacuum A and B) is in sector 0.
    ``charge=None`` stores the full H.
    """
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
    if charge is None:
        rows = None
    elif isinstance(charge, (int, np.integer)) and not isinstance(charge, bool):
        rows = _charge_rows(layout, spec.k, spec.l, int(charge))
    else:
        raise ValueError(f"charge must be an integer or None, got {charge!r}")
    h = _two_band(layout, (-1, spec.k, spec.l), spec.kappa, rows)
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
    max |H_b V - V Lambda| relative to max(1, max |Lambda|); the norm drift
    of every evolved state is held to the module's NORM_TOL.
    """

    xi_grid: tuple[float, ...]
    kappa: float
    alpha_p: float
    tol: float = 1e-9

    def __post_init__(self):
        grid = tuple(float(x) for x in self.xi_grid)
        if len(grid) == 0 or grid[0] != 0.0:
            raise ValueError("xi_grid must start at 0")
        if not all(a < b for a, b in zip(grid, grid[1:])) or not math.isfinite(grid[-1]):
            raise ValueError("xi_grid must be finite and strictly increasing")
        if not all(v > 0 and math.isfinite(v) for v in (self.kappa, self.alpha_p)):
            raise ValueError("kappa and alpha_p must be positive and finite")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tolerance must be positive and finite")
        object.__setattr__(self, "xi_grid", grid)

    def times(self) -> np.ndarray:
        return np.asarray(self.xi_grid) / (self.kappa * self.alpha_p)


def _stored(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in a CSR triple's values and indices of the stored entries
    of ``rows``, and the number each row holds, in one gather."""
    start = indptr[rows]
    count = indptr[rows + 1] - start
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count), count


def _sector_blocks(csr: tuple, support: np.ndarray, tol: float) -> list:
    """(indices, eigenvalues, eigenvectors) of every block of the CSR triple
    (values, indices, indptr) of h meeting ``support``.

    Blocks are the connected components of h's sparsity graph; the others
    never exchange amplitude with the state and are skipped. The walk labels
    while it goes: each support index starts with its own index as label,
    and every step pushes the smaller label across the stored entries of the
    rows whose label just fell, until no label falls. A block then carries
    the smallest support index in it, and the cost follows the blocks, not h.
    """
    values, indices, indptr = csr
    n = len(indptr) - 1
    label = np.full(n, n, dtype=indices.dtype)  # n: not reached
    label[support] = support
    fell = support
    while fell.size:
        pos, count = _stored(indptr, fell)
        nbr = indices[pos]
        before = label[nbr]
        np.minimum.at(label, nbr, np.repeat(label[fell], count))
        # sort and drop repeats as np.unique does, without the numpy.ma
        # import that np.unique makes on first use
        fell = np.sort(nbr[label[nbr] < before])
        keep = np.ones(fell.size, dtype=bool)
        np.not_equal(fell[1:], fell[:-1], out=keep[1:])
        fell = fell[keep]
    idx = np.flatnonzero(label < n)
    idx = idx[np.argsort(label[idx], kind="stable")]
    bounds = np.flatnonzero(np.diff(label[idx], prepend=-1, append=-1))
    # idx[i]'s stored entries are pos[ends[i]:ends[i + 1]], so each block's
    # entries form one run
    pos, count = _stored(indptr, idx)
    ends = np.concatenate(([0], np.cumsum(count)))
    row = np.repeat(np.arange(idx.size), count)
    label[idx] = np.arange(idx.size)  # from here on: position in idx
    col = label[indices[pos]]
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        run = slice(ends[lo], ends[hi])
        hb = np.zeros((hi - lo, hi - lo), dtype=complex)
        np.add.at(hb, (row[run] - lo, col[run] - lo), values[pos[run]])
        lam, vec = np.linalg.eigh(hb)
        residual = float(np.abs(hb @ vec - vec * lam).max())
        if residual > tol * max(1.0, float(np.abs(lam).max())):
            raise IntegratorError(
                f"eigen-residual {residual:.3e} on a block of {hi - lo} states "
                f"exceeds tol={tol:g}", residual=residual)
        blocks.append((idx[lo:hi], lam, vec))
    return blocks


def evolve(state: QuantumState, hamiltonian: TruncatedOperator, config: EvolutionConfig) -> list[QuantumState]:
    """Propagate a pure ``state`` to every xi grid point (the first entry is t = 0).

    ``hamiltonian`` may be any Hermitian operator on the state's layout. A
    density matrix is refused before any work: the interaction keeps a pure
    initial state pure. Amplitude on a row that ``hamiltonian`` leaves empty
    does not move, so a charge block H_q from ``build_hamiltonian(spec,
    charge=q)`` freezes any part of the state outside sector q, with no
    error; pass H_q only for a state in sector q. The returned states share one support, the sorted
    indices of the blocks the walk reached, and hold amplitudes there only.
    A state whose norm is further than NORM_TOL from 1 is refused with
    ValueError before any work; a norm drift beyond NORM_TOL during the
    evolution raises IntegratorError. Whether the truncation is adequate is
    the sweep's call.
    """
    if not state.is_pure:
        raise ValueError("evolve propagates pure states; got a density matrix")
    if hamiltonian.layout.dims != state.layout.dims:
        raise ValueError("state and Hamiltonian live on different layouts")
    norm = float(np.linalg.norm(state.amplitudes))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"evolve needs a normalized state; its norm is {norm:.12f}")
    blocks = _sector_blocks(hamiltonian.csr, state.support, config.tol)
    support = np.sort(np.concatenate([idx for idx, _, _ in blocks]))
    # the walk starts from the state's support, so every index it holds lies in a block
    x = np.zeros(support.size, dtype=complex)
    x[np.searchsorted(support, state.support)] = state.amplitudes
    times = config.times()
    amps = np.empty((times.size, support.size), dtype=complex)
    for idx, lam, vec in blocks:
        at = np.searchsorted(support, idx)
        # row j: V exp(-i Lambda t_j) V+ x on the block
        amps[:, at] = (np.exp(-1j * np.outer(times, lam)) * (vec.conj().T @ x[at])) @ vec.T
    norms = np.linalg.norm(amps, axis=1)
    drift = np.abs(norms - 1.0)
    if drift.max() > NORM_TOL:
        j = int(np.argmax(drift > NORM_TOL))
        raise IntegratorError(f"norm drifted to {norms[j]:.12f} at xi={config.xi_grid[j]}",
                              residual=float(drift[j]))
    return [QuantumState.on_support(state.layout, support, row, time=float(t))
            for row, t in zip(amps, times)]
