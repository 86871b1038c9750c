"""Truncated multimode Fock space: layouts, the truncated ladder rule, the
operators built from it, the states the sweep and the certification start
from (a coherent pump, a product of single-mode factors), and the
top-level populations of the truncation guard.

All multimode objects use a row-major basis over the mode order of the layout,
i.e. for a three-mode layout (pump, A, B) the flat index of |n_p, n_a, n_b> is
(n_p * dim_a + n_a) * dim_b + n_b, which is exactly the ordering produced by
chained Kronecker products.

A pure state is stored on its support only: the sorted flat indices it may
occupy and its amplitudes there. The interaction keeps a trajectory on a
few chains of the space (1,820 of 376,320 states on window.cfg), so nothing
the sweep reads is a full-space vector; ``QuantumState.vector`` builds one on
demand.

Ladder powers act on flat indices directly, with no operator formed:
a+^m moves |j> to |j + m> with weight sqrt((j+1) ... (j+m)), and a^m is
its transpose, |j + m> -> |j> with the same weight. A power that would push
a level to or past the cutoff, or below 0, annihilates that index, so the
truncated a+^m drops the top m levels and <a^m a+^m> is |a+^m psi|^2, not
<a+^m a^m> + 2 <f_m>. A product of powers on several modes is one shift of
the flat index by sum(m_i * stride_i), with stride_i the product of the
dims after mode i, and its weight is the square root of the product of
the modes' integer factors. ``shift`` is that rule, and ``occupations``
reads a mode's level off a flat index; the covariance's ladder powers are
built from them.

Every operator the package makes, except the diagonal f_m(N), is
c U + conj(c) U+ for one such product U: two bands at one flat-index
offset. ``two_band`` writes it as an entry list (rows, cols, values) in
row order: the Hamiltonian with c = i kappa, the quadratures Q^m and P^m
with c = 1/2 and c = i/2. An operator on the full space is a
``TruncatedOperator`` that holds those entries and nothing of the full
space's length. Its ``data`` is a scipy view built on first access, and
nothing in the package reads it, so the package runs on numpy alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TOP_LEVELS = 2  # the truncation guard reads each mode's top two Fock levels


class TruncationError(ValueError):
    """A requested object does not fit (or no longer trusts) the Fock cutoff."""


class DegenerateStateError(ValueError):
    """A covariance block is numerically rank deficient."""


@dataclass(frozen=True)
class ModeLayout:
    """Per-mode truncation dimensions.

    Three-mode layouts are (pump, A, B), the interaction's modes. Two-mode
    layouts are (A, B): the covariance and the criteria read them, for
    example for a separable mixture or a two-mode squeezed state.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        for d in self.dims:
            if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
                raise ValueError(f"every mode dim must be an integer, got {d!r} in {self.dims!r}")
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


@dataclass(frozen=True, init=False, eq=False)
class TruncatedOperator:
    """A sparse operator on the full truncated space.

    ``entries`` holds the (n, n) matrix as (rows, cols, values), numpy
    arrays of one length in row order: values[i] sits at (rows[i], cols[i])
    and rows never decrease. ``matrix`` is that tuple or a scipy sparse
    matrix, whose entries are read in CSR order; anything else is refused.
    ``data`` is the scipy CSR view: the given matrix (in CSR form) when one
    was given, else built from the entries on first access and kept.
    ``hermitian`` is the maker's label; ``evolve`` checks the entries it
    reads itself.
    """

    layout: ModeLayout
    entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    hermitian: bool

    def __init__(self, layout: ModeLayout, matrix, hermitian: bool = False):
        n = layout.total_dim
        if isinstance(matrix, tuple) and len(matrix) == 3:
            rows, cols, values = (np.asarray(a) for a in matrix)
        elif hasattr(matrix, "tocsr"):  # a scipy sparse matrix
            if matrix.shape != (n, n):
                raise ValueError(f"operator shape {matrix.shape} != layout dim {n}")
            matrix = matrix.tocsr()  # a CSR matrix is kept as it is, not copied
            self.__dict__["data"] = matrix
            coo = matrix.tocoo()
            rows, cols, values = coo.row, coo.col, coo.data
        else:
            raise ValueError("an operator is a (rows, cols, values) tuple or a scipy sparse "
                             f"matrix, got {type(matrix).__name__}")
        if not rows.shape == cols.shape == values.shape == (rows.size,):
            raise ValueError(f"rows, cols and values hold {rows.size}, {cols.size} and "
                             f"{values.size} entries; they need one length")
        for name, idx in (("row", rows), ("column", cols)):
            if idx.size and not 0 <= idx.min() <= idx.max() < n:
                raise ValueError(f"{name} indices must lie in [0, n) with the layout's n = {n}")
        if np.any(rows[1:] < rows[:-1]):
            raise ValueError("entries must be in row order; their rows decrease")
        for name, value in (("layout", layout), ("entries", (rows, cols, values)),
                            ("hermitian", hermitian)):
            object.__setattr__(self, name, value)

    @cached_property
    def data(self):
        """The scipy ``csr_matrix`` view of the operator."""
        from scipy import sparse

        n = self.layout.total_dim
        rows, cols, values = self.entries
        return sparse.csr_matrix((values, (rows, cols)), shape=(n, n))


@dataclass(frozen=True, init=False)
class QuantumState:
    """Pure state or density matrix on a layout.

    A pure state is held sparse: ``support`` holds sorted flat Fock indices
    and ``amplitudes`` the state's values there; every other amplitude is
    zero. ``QuantumState(layout, vector=v)`` keeps the nonzero entries of a
    dense vector, ``QuantumState.on_support`` takes the sparse form as it is,
    and ``vector`` rebuilds the dense array on each access (nothing on the
    sweep path reads it). A state that ``evolve`` returns has the chains its
    trajectory reaches as ``support``, a superset of its nonzero amplitudes.
    Amplitudes must be finite. A density matrix is held as ``matrix``, with
    every index as its support and no amplitudes; it must be Hermitian to
    1e-10, since ``build_covariance`` reads one triangle, and have unit trace
    to 1e-8, as ``evolve`` holds a pure state's norm. All arrays are
    read-only.
    """

    layout: ModeLayout
    support: np.ndarray
    amplitudes: np.ndarray | None
    matrix: np.ndarray | None

    def __init__(self, layout: ModeLayout, vector=None, matrix=None):
        n = layout.total_dim
        if (vector is None) == (matrix is None):
            raise ValueError("exactly one of vector/matrix must be given")
        if vector is not None:
            v = np.asarray(vector, dtype=complex).reshape(n)
            support = np.flatnonzero(v)
            self._hold(layout, support, v[support], None)
        else:
            m = np.asarray(matrix, dtype=complex)
            if m.shape != (n, n):
                raise ValueError(f"density matrix shape {m.shape} != ({n},{n})")
            gap = np.abs(m - m.conj().T).max()
            if not gap <= 1e-10:  # NaN fails too
                raise ValueError(f"density matrix must be Hermitian, |rho - rho^H| reaches {gap:.3e}")
            trace = np.trace(m).real
            if not abs(trace - 1.0) <= 1e-8:
                raise ValueError(f"density matrix must have unit trace; its trace is {trace:.12f}")
            self._hold(layout, np.arange(n), None, m)

    @classmethod
    def on_support(cls, layout: ModeLayout, support, amplitudes) -> "QuantumState":
        """Pure state with ``amplitudes`` at the strictly increasing flat Fock
        indices ``support``; no full-space array is formed."""
        idx = np.asarray(support).reshape(-1)
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.issubdtype(idx.dtype, np.integer) or idx.shape != amp.shape:
            raise ValueError("support must be integer indices, one per amplitude")
        if idx.size and (idx[0] < 0 or idx[-1] >= layout.total_dim or np.any(idx[1:] <= idx[:-1])):
            raise ValueError(f"support must increase strictly within [0, {layout.total_dim})")
        state = object.__new__(cls)
        state._hold(layout, idx, amp, None)
        return state

    def _hold(self, layout, support, amplitudes, matrix) -> None:
        # a non-finite amplitude makes the sum non-finite, and the sum allocates no array
        if (amplitudes is not None and not cmath.isfinite(amplitudes.sum())
                and not np.isfinite(amplitudes).all()):
            bad = np.flatnonzero(~np.isfinite(amplitudes))[0]
            raise ValueError(f"amplitudes must be finite; flat index {support[bad]} "
                             f"holds {amplitudes[bad]}")
        for arr in (support, amplitudes, matrix):
            if arr is not None:
                arr.flags.writeable = False
        for name, value in (("layout", layout), ("support", support), ("amplitudes", amplitudes),
                            ("matrix", matrix)):
            object.__setattr__(self, name, value)

    @property
    def is_pure(self) -> bool:
        return self.matrix is None

    @property
    def vector(self) -> np.ndarray | None:
        """Dense read-only amplitudes of a pure state, built on each access;
        None for a density matrix."""
        if not self.is_pure:
            return None
        v = np.zeros(self.layout.total_dim, dtype=complex)
        v[self.support] = self.amplitudes
        v.flags.writeable = False
        return v


def occupations(layout: ModeLayout, idx, mode: int) -> np.ndarray:
    """Fock level of ``mode`` at each flat index of ``idx``."""
    return np.asarray(idx) // math.prod(layout.dims[mode + 1:]) % layout.dims[mode]


def shift(layout: ModeLayout, idx, shifts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The product of truncated ladder powers, one signed order per mode, on flat indices.

    Order m > 0 on a mode is a+^m, m < 0 is a^|m| and 0 leaves the mode
    alone. Returns (rows, target, weight): the product moves |idx[rows[i]]>
    to |target[i]> with weight[i] > 0, and the indices it annihilates are
    not in ``rows``. Targets are sorted when ``idx`` is.
    """
    idx = np.asarray(idx)
    kept = np.ones(idx.shape, dtype=bool)
    product = np.ones(idx.shape)
    offset = 0
    for mode, m in enumerate(shifts):
        if m == 0:
            continue
        low = occupations(layout, idx, mode) - max(-m, 0)  # |low> <-> |low + |m||
        kept &= low >= 0
        kept &= low < layout.dims[mode] - abs(m)
        for i in range(1, abs(m) + 1):
            product *= low + i
        offset += m * math.prod(layout.dims[mode + 1:])
    rows = np.flatnonzero(kept)
    return rows, idx[rows] + offset, np.sqrt(product[rows])


def two_band(layout: ModeLayout, shifts, coupling: complex,
             rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (rows, cols, values) of c U + conj(c) U+ on the sorted ``rows``
    (all rows when None), with c = ``coupling``, in row order and with
    columns rising within a row.

    U is the product of truncated ladder powers ``shifts`` (``shift``), a
    flat index shift r -> r + t, and ``rows`` must be closed under U and U+
    (a charge sector is). Where U takes |s> to |r> with weight w, the
    operator holds c w at (r, s) and conj(c) w at (s, r); only the given rows
    are written, and the other rows of the (n, n) matrix hold no entry.
    """
    rows = np.arange(layout.total_dim) if rows is None else np.asarray(rows)
    at, target, weight = shift(layout, rows, shifts)
    source = rows[at]
    coupling = complex(coupling)
    # the band of c U, then the band of conj(c) U+
    row = np.concatenate((target, source))
    col = np.concatenate((source, target))
    value = np.concatenate((coupling * weight, coupling.conjugate() * weight))
    order = np.lexsort((col, row))
    return row[order], col[order], value[order]


def coherent_state(alpha: complex, dim: int, allow_truncation: bool = False) -> np.ndarray:
    """Truncated coherent state |alpha>, renormalized on the cutoff space.

    The adequacy guard requires |alpha|^2 <= dim/4 so that the Poisson tail is
    far below the cutoff; pass allow_truncation=True to override (the caller
    then owns monitoring the top-level population). A non-finite alpha is
    refused with ValueError.
    """
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude alpha must be finite, got {alpha!r}")
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
    logmag = n * np.log(abs(alpha)) - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    # relative to the largest term, so a cutoff far below nbar cannot
    # underflow every amplitude to 0
    phase = np.exp(1j * np.angle(alpha) * n)
    vec = np.exp(logmag - logmag.max()) * phase
    vec /= np.linalg.norm(vec)
    return vec


def product_state(layout: ModeLayout, *factors) -> QuantumState:
    """Tensor product of per-mode factors (vectors and/or density matrices).

    If every factor is a vector the result is pure; otherwise everything is
    promoted to density matrices. Each factor must be finite with a positive
    norm (a vector) or trace (a matrix), since the product is renormalized.
    """
    if len(factors) != layout.nmodes:
        raise ValueError("one factor per mode required")
    factors = [np.asarray(f, dtype=complex) for f in factors]
    for i, (f, d) in enumerate(zip(factors, layout.dims)):
        if f.shape not in ((d,), (d, d)):
            raise ValueError(f"factor shape {f.shape} does not match mode dim {d}")
        size = np.linalg.norm(f) if f.ndim == 1 else np.trace(f).real
        if not (np.isfinite(f).all() and size > 0):
            raise ValueError(f"factor {i} must be finite with a positive "
                             f"{'norm' if f.ndim == 1 else 'trace'}, got {size:.3g}")
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


def top_level_populations(layout: ModeLayout, support, populations) -> np.ndarray:
    """(T, modes) population in the top TOP_LEVELS Fock levels of each mode,
    for T states whose (T, S) ``populations`` sit on one ``support``."""
    p = np.ascontiguousarray(populations)
    # np.take keeps each state's row contiguous (p[:, mask] would not), so a
    # state's sum is the same in a stack of any size
    return np.stack([np.take(p, np.flatnonzero(occupations(layout, support, mode) >= dim - TOP_LEVELS),
                             axis=1).sum(axis=1)
                     for mode, dim in enumerate(layout.dims)], axis=1)


def top_level_population(state: QuantumState) -> dict[int, float]:
    """Total population in the top TOP_LEVELS Fock levels of each mode.

    This is the post-hoc truncation guard: trajectories whose top two levels
    in any mode accumulate more than ~1e-6 population should not be trusted.
    A pure state's populations on its support, or a density matrix's
    diagonal, go through ``top_level_populations`` as a stack of one.
    """
    if state.is_pure:
        support, p = state.support, state.amplitudes.real ** 2 + state.amplitudes.imag ** 2
    else:
        support, p = np.arange(state.layout.total_dim), np.diag(state.matrix).real
    return dict(enumerate(top_level_populations(state.layout, support, p[None])[0].tolist()))
