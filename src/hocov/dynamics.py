"""Interaction Hamiltonians and exact chain time evolution.

The nonlinear interaction (hbar = 1) is

    H = i kappa (a+^k b+^l p  -  a^k b^l p+)

on a (pump, A, B) layout. The dimensionless sweep coordinate is
xi = kappa * t * alpha_p, so grid times are t_j = xi_j / (kappa * alpha_p).

a+^k b+^l p moves the flat Fock index r = (n_p d_A + n_a) d_B + n_b by
-(d_A d_B - k d_B - l), so H is two masked diagonals at that offset and its
negative: ``fock.two_band`` with c = i kappa, the same builder as every
other operator here, writes their entries (rows, cols, values) from the
ladder powers of ``fock.shift``, whose module docstring states the
truncation convention.

H conserves k N_P + N_A and l N_A - k N_B, so from |n0>_P |0,0> a state
only ever visits the chain |n0 - j, k j, l j>. H is the direct sum of its
charge blocks H_q on l N_A - k N_B = q, and ``build_hamiltonian(spec,
charge=q)`` writes the rows of H_q only; the sweep starts in sector 0 and
builds H_0 (6,490 of H's 713,900 nonzeros on window.cfg). H_q leaves a state
outside sector q frozen, without an error. ``build_hamiltonian`` returns H
as those entries, numpy arrays of H's nnz length, and evolution reads them
directly, so this module needs numpy only and forms no full-space array.

Evolution is for pure states (a coherent pump and vacuum signal and idler
stay pure) and reads H as the set of chains it is: every stored entry sits
at (r, r +- s) for one offset s, so ordering the indices by (r mod s,
r div s) lays each chain out as one run in path order. An operator with a
second offset is refused, and so is one whose entries at (r + s, r) are not
the conjugates of those at (r, r + s). Only the chains that meet the
state's support are kept (60 chains, 1,820 of 376,320 states on
window.cfg). A diagonal
phase gauge makes each chain a real symmetric tridiagonal T with zero
diagonal, whose links join even sites to odd ones, T = [[0, B], [B^T, 0]];
one batched SVD of the bidiagonals B, padded with zero links to one length,
gives every chain's exp(-i T t) in closed form, and batched real products
form every grid point. There is no time stepper, so the result does not
depend on the grid spacing, and no full-space vector is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import ModeLayout, QuantumState, TruncatedOperator, two_band

NORM_TOL = 1e-8  # largest drift of an evolved state's norm from 1
# largest |h[r + s, r] - conj(h[r, r + s])| relative to max |h| that evolve accepts
HERMITIAN_TOL = 1e-12
GRID_CHUNK = 16  # grid points propagated at once; bounds evolve's padded (C, L, points) arrays


class IntegratorError(RuntimeError):
    """Raised when evolution misses its accuracy target.

    ``residual`` is a chain's singular-value residual max |B V - U Sigma|
    when it exceeds tol * max(1, max Sigma), or an evolved state's norm
    drift when that exceeds NORM_TOL.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class InteractionSpec:
    """Process orders and coupling for the trilinear interaction.

    k and l are integers >= 1; ``build_hamiltonian`` also needs k + l >= 3,
    since k = l = 1 is the Gaussian classical-pump process.
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
        raise ValueError("k + l >= 3 required for the nonlinear interaction; "
                         "k = l = 1 is the Gaussian classical-pump process")
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
    h = two_band(layout, (-1, spec.k, spec.l), 1j * spec.kappa, rows)
    return TruncatedOperator(layout, h, hermitian=True)


@dataclass(frozen=True)
class EvolutionConfig:
    """Grid and tolerances for a trajectory.

    xi_grid must be strictly increasing and start at 0; times are
    t_j = xi_j / (kappa * alpha_p). tol bounds each chain's singular-value
    residual max |B V - U Sigma| relative to max(1, max Sigma), where
    B = U Sigma V^T is the chain's bidiagonal of even -> odd links and max
    Sigma is the chain's spectral norm; the norm drift of every evolved
    state is held to the module's NORM_TOL.
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


def _chains(entries: tuple, n: int, support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and links of the chains of the (n, n) operator h, given as its
    entries (rows, cols, values) in row order, that meet ``support``, padded
    to one even length L.

    Every stored entry must sit at (r, r + s) or (r, r - s) for one offset
    s > 0, so h's sparsity graph is a set of paths r, r + s, r + 2s, ...,
    and h must be Hermitian: h[r + s, r] is stored where h[r, r + s] is and
    equals its conjugate to HERMITIAN_TOL relative to max |h|, since the
    chains read only h[r, r + s]. Any other operator is refused with
    ValueError. ``nodes`` (C, L) holds each chain's flat indices in path
    order and -1 past its end, ``links`` (C, L - 1) holds h[node_j, node_j+1]
    and 0 past the end. A support index that no entry touches is a chain of
    one node.
    """
    rows, cols, values = entries
    offset = cols - rows
    step = np.abs(offset)
    if step.size and (step.min() != step.max() or step[0] == 0):
        step = np.sort(step)
        step = step[np.append(True, step[1:] != step[:-1])]
        raise ValueError("evolve needs an operator whose entries all sit at (r, r +- s) for one "
                         f"s > 0; its entries use the offsets {', '.join(map(str, step))}")
    s = int(step[0]) if step.size else 1
    upper = offset > 0
    start, link = rows[upper], values[upper]  # h[r, r + s], r rising
    # h[r + s, r] in row order lines up with h[r, r + s] when h is Hermitian
    mirror, mirror_link = rows[~upper] - s, values[~upper]
    if mirror.size != start.size or np.any(mirror != start):
        raise ValueError("evolve needs a Hermitian operator; h[r + s, r] and h[r, r + s] "
                         "are not stored at the same r")
    gap = np.abs(mirror_link - link.conj()).max(initial=0.0)
    if not gap <= HERMITIAN_TOL * np.abs(link).max(initial=0.0):
        raise ValueError(f"evolve needs a Hermitian operator; |h[r + s, r] - conj(h[r, r + s])| "
                         f"reaches {gap:.3e}")
    # in (r mod s, r div s) order each chain's links form one run, in path order
    order = np.argsort(start % s, kind="stable")
    start, link = start[order], link[order]
    head = np.flatnonzero(np.diff(start, prepend=-s - 1) != s)  # links that start a chain
    count = np.diff(np.append(head, start.size)) + 1

    def rank(r):  # position of flat index r in (r mod s, r div s) order
        return r % s * (n // s + 1) + r // s

    # the chain that could hold each support index: the last one starting at or before it
    head_rank, at_rank = rank(start[head]), rank(np.asarray(support, dtype=np.int64))
    at = np.searchsorted(head_rank, at_rank, side="right") - 1
    hit = at >= 0
    hit[hit] = at_rank[hit] - head_rank[at[hit]] < count[at[hit]]
    kept = np.zeros(head.size, dtype=bool)
    kept[at[hit]] = True
    lone = support[~hit]
    first = np.concatenate((start[head[kept]], lone))
    head = np.concatenate((head[kept], np.zeros(lone.size, dtype=head.dtype)))
    count = np.concatenate((count[kept], np.ones(lone.size, dtype=count.dtype)))
    j = np.arange(2 * ((count.max() + 1) // 2))
    nodes = np.where(j < count[:, None], first[:, None] + s * j, -1)
    links = np.zeros((count.size, j.size - 1), dtype=values.dtype)
    inside = j[:-1] < count[:, None] - 1
    links[inside] = link[(head[:, None] + j[:-1])[inside]]
    return nodes, links


def _chain_svd(b: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U, Sigma and V of every chain's bidiagonal, b = U diag(Sigma) V^T, from
    one batched SVD.

    Raises IntegratorError when a chain's residual max |b V - U Sigma|
    exceeds tol * max(1, max Sigma).
    """
    u, sigma, vt = np.linalg.svd(b)
    v = vt.transpose(0, 2, 1)
    residual = np.abs(b @ v - u * sigma[:, None, :]).max(axis=(1, 2))
    bound = tol * np.maximum(1.0, sigma[:, 0])
    worst = int(np.argmax(residual / bound))
    if residual[worst] > bound[worst]:
        raise IntegratorError(
            f"singular-value residual {residual[worst]:.3e} on a chain with largest singular "
            f"value {sigma[worst, 0]:.3g} exceeds tol={tol:g}", residual=float(residual[worst]))
    return u, sigma, v


def _rotate(m: np.ndarray, cos: np.ndarray, sin: np.ndarray, p: np.ndarray, q: np.ndarray,
            out: np.ndarray) -> None:
    """Write m @ (cos p - i sin q) into ``out`` (complex, seen as real pairs)
    for real m, cos and sin and complex p and q, in real arithmetic only."""
    z = np.empty(cos.shape + (2,))
    np.multiply(cos, p.real, out=z[..., 0])
    z[..., 0] += sin * q.imag
    np.multiply(cos, p.imag, out=z[..., 1])
    z[..., 1] -= sin * q.real
    np.matmul(m, z.reshape(cos.shape[:-1] + (-1,)), out=out.view(np.float64))


def evolve(state: QuantumState, hamiltonian: TruncatedOperator, config: EvolutionConfig) -> list[QuantumState]:
    """Propagate a pure ``state`` to every xi grid point (the first entry is t = 0).

    ``hamiltonian`` may be any Hermitian operator on the state's layout whose
    stored entries all sit at (r, r +- s) for one offset s, as
    ``build_hamiltonian`` makes; any other, or one whose lower band is not
    the conjugate of its upper one, is refused with ValueError before any
    work. A density matrix is refused too: the interaction keeps a pure
    initial state pure. Amplitude on a row that ``hamiltonian`` leaves empty does not
    move, so a charge block H_q from ``build_hamiltonian(spec, charge=q)``
    freezes any part of the state outside sector q, with no error; pass H_q
    only for a state in sector q. The returned states share one support, the
    sorted indices of the chains that meet the state's support, and hold
    amplitudes there only. A state whose norm is further than NORM_TOL from 1
    is refused with ValueError before any work; a norm drift beyond NORM_TOL
    during the evolution raises IntegratorError. Whether the truncation is
    adequate is the sweep's call.
    """
    if not state.is_pure:
        raise ValueError("evolve propagates pure states; got a density matrix")
    if hamiltonian.layout.dims != state.layout.dims:
        raise ValueError("state and Hamiltonian live on different layouts")
    norm = float(np.linalg.norm(state.amplitudes))
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
        raise ValueError(f"evolve needs a normalized state; its norm is {norm:.12f}")
    nodes, links = _chains(hamiltonian.entries, hamiltonian.layout.total_dim, state.support)
    # the phase gauge psi_j -> conj(d_j) psi_j, d_j+1 = d_j conj(h_j) / |h_j|,
    # turns each chain into a real symmetric tridiagonal with zero diagonal
    weight = np.abs(links)
    phase = np.divide(links, weight, out=np.ones_like(links), where=weight > 0)
    gauge = np.ones(nodes.shape, dtype=complex)
    np.cumprod(phase.conj(), axis=1, out=gauge[:, 1:])
    # links join even sites to odd ones: T = [[0, B], [B^T, 0]], with the
    # links 2e -> 2e + 1 on B's diagonal and 2e - 1 -> 2e below it
    half = np.arange(nodes.shape[1] // 2)
    b = np.zeros((nodes.shape[0], half.size, half.size))
    b[:, half, half] = weight[:, 0::2]
    b[:, half[1:], half[:-1]] = weight[:, 1::2]
    u, sigma, v = _chain_svd(b, config.tol)
    pos = np.flatnonzero(nodes >= 0)
    pos = pos[np.argsort(nodes.flat[pos])]  # where each support index sits in nodes
    support = nodes.flat[pos]
    x = np.zeros(nodes.size, dtype=complex)
    x[pos[np.searchsorted(support, state.support)]] = state.amplitudes
    x = x.reshape(nodes.shape) * gauge.conj()
    p = u.transpose(0, 2, 1) @ x[:, 0::2, None]
    q = v.transpose(0, 2, 1) @ x[:, 1::2, None]
    # with B = U Sigma V^T, exp(-i T t) = [[U cos U^T, -i U sin V^T],
    # [-i V sin U^T, V cos V^T]], cos and sin taken of Sigma t
    times = config.times()
    amps = np.empty((times.size, support.size), dtype=complex)
    for at in range(0, times.size, GRID_CHUNK):
        angle = sigma[:, :, None] * times[at:at + GRID_CHUNK]
        cos, sin = np.cos(angle), np.sin(angle)
        y = np.empty(nodes.shape + (angle.shape[2],), dtype=complex)
        _rotate(u, cos, sin, p, q, out=y[:, 0::2])
        _rotate(v, cos, sin, q, p, out=y[:, 1::2])
        y *= gauge[:, :, None]
        amps[at:at + GRID_CHUNK] = y.reshape(nodes.size, -1)[pos].T
    norms = np.linalg.norm(amps, axis=1)
    drift = np.abs(norms - 1.0)
    if not drift.max() <= NORM_TOL:  # NaN fails too
        j = int(np.argmax(~(drift <= NORM_TOL)))
        raise IntegratorError(f"norm drifted to {norms[j]:.12f} at xi={config.xi_grid[j]}",
                              residual=float(drift[j]))
    return [QuantumState.on_support(state.layout, support, row) for row in amps]
