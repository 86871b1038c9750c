"""Higher-order covariance matrices of the quadrature vector
R = (Q^{nk}_A, P^{nk}_A, Q^{nl}_B, P^{nl}_B) and their algebra.

Entries are the symmetrized second moments

    V_ij = <Delta R_i Delta R_j + Delta R_j Delta R_i> / 2,

so V is real symmetric and V + (i/2) <Omega> captures the full (generally
complex) second-moment matrix, with <Omega_ij> = -i <[R_i, R_j]> scalarized by
the state expectations of f_{nk}(N_A) and f_{nl}(N_B).

No operator is formed. Each entry of R is a fixed combination of the ladder
powers L = (1, A, A+, B, B+) with A = a^{nk} and B = b^{nl}, truncated as
the ``fock`` module docstring states. ``fock.shift`` places each L_a of the
sorted flat Fock indices of a support on sorted target indices, and
<R_i R_j> = (T* G T^T)_ij with T the coefficients of R in L and
G_ab = <L_a psi|L_b psi> = tr(L_a+ L_b rho) the Gram matrix.

Each pair of ladder powers is matched once, by ``searchsorted`` on their
targets, and G_ab is a sum over the matched indices only: of amplitude
products for a pure state, of entries of the matrix for a density matrix.
No selection rule is assumed: a pair whose targets never meet simply
contributes nothing. ``covariance_stack`` computes one hierarchy level for
a stack of T pure states that share one support, as the states of a
trajectory do, matching once for the whole stack; ``build_covariance`` is
that function on a stack of one for a pure state, and reads the same
matches on a density matrix. Both finish through the same Gram-to-covariance
step. The cost is linear in the support of a pure state.

One type, ``HigherOrderCovariance``, holds either one covariance, V as
(4, 4), or a stack, V as (T, 4, 4) with one f_kA, f_lB and first-moment row
per member; ``covariance_stack`` returns a stack and ``build_covariance`` one
covariance. The blocks and <Omega> act on the last two axes, so the criteria
run on either rank; a caller that needs one rank (``standard_form``,
``invariants``, ``evaluate_stack``, ``len``) refuses the other with
ValueError naming the shape.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .fock import DegenerateStateError, ModeLayout, QuantumState, occupations, shift
from .quadratures import check_order, f_values

_MIRROR = np.diag([1.0, 1.0, 1.0, -1.0])
# states per block of covariance_stack's sums; it bounds their temporaries
# to a few _BLOCK x support arrays
_BLOCK = 16
# R = (Q_A, P_A, Q_B, P_B) in terms of the ladder powers (1, A, A+, B, B+):
# Q = (A + A+)/2 and P = i(A+ - A)/2
_LADDER_TO_R = np.array([
    [0.0, 0.5, 0.5, 0.0, 0.0],
    [0.0, -0.5j, 0.5j, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.5, 0.5],
    [0.0, 0.0, 0.0, -0.5j, 0.5j],
])
_N_LADDER = _LADDER_TO_R.shape[1]


@dataclass(frozen=True)
class HigherOrderCovariance:
    """4x4 symmetrized covariance with its commutator expectations, of one
    state or of each state of a stack of T.

    matrix is (4, 4), or (T, 4, 4) for a stack; f_ka = <f_{nk}(N_A)> and
    f_lb = <f_{nl}(N_B)> hold one value per member (numbers, or (T,)
    arrays), and first_moments <R_i> is (4,) or (T, 4). ``cov[t]`` is member
    t of a stack. Every member must be symmetric with positive f_ka and
    f_lb; a failing member of a stack is named by its row.
    """

    matrix: np.ndarray
    f_ka: float | np.ndarray
    f_lb: float | np.ndarray
    first_moments: np.ndarray
    n: int
    k: int
    l: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
            raise ValueError(f"covariance must be (4, 4) or a (T, 4, 4) stack, got {m.shape}")
        mt = m.swapaxes(-1, -2)
        # symmetric to numpy's allclose tolerance with atol=1e-10; the members
        # are looked at one by one only to name a failing row (NaN fails too)
        gap = abs(m - mt) - abs(mt) * 1e-5
        if not gap.max() <= 1e-10:
            _refuse((gap <= 1e-10).all(axis=(-2, -1)), "covariance must be symmetric")
        f = np.array([self.f_ka, self.f_lb], dtype=float).reshape((2,) + m.shape[:-2])
        if not f.min() > 0:
            _refuse((f > 0).all(axis=0), "commutator expectations must be positive")
        fm = np.array(self.first_moments, dtype=float).reshape(m.shape[:-1])
        for name, value in (("matrix", (m + mt) * 0.5), ("f_ka", f[0]), ("f_lb", f[1]),
                            ("first_moments", fm)):
            if isinstance(value, np.ndarray):  # a single covariance's f is a numpy scalar
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        _require_rank(self, True, "len()")
        return len(self.matrix)

    def __getitem__(self, t: int) -> "HigherOrderCovariance":
        _require_rank(self, True, "indexing")
        # the stack's checks cover its members, so a member is not checked again
        member = copy.copy(self)
        for name in ("matrix", "f_ka", "f_lb", "first_moments"):
            object.__setattr__(member, name, getattr(self, name)[t])
        return member

    @property
    def block_a(self) -> np.ndarray:
        return self.matrix[..., :2, :2]

    @property
    def block_b(self) -> np.ndarray:
        return self.matrix[..., 2:, 2:]

    @property
    def block_c(self) -> np.ndarray:
        return self.matrix[..., :2, 2:]

    def omega(self) -> np.ndarray:
        """Scalarized commutator matrix <Omega>, (4, 4) or (T, 4, 4)."""
        om = np.zeros(np.shape(self.f_ka) + (4, 4))
        om[..., 0, 1], om[..., 1, 0] = self.f_ka, -self.f_ka
        om[..., 2, 3], om[..., 3, 2] = self.f_lb, -self.f_lb
        return om


def _refuse(ok: np.ndarray, message: str) -> None:
    """Raise ValueError with ``message``, naming the first failing row when
    ``ok`` holds one flag per member of a stack."""
    raise ValueError(message + (f" (row {np.argmin(ok)})" if ok.ndim else ""))


def _require_rank(cov: HigherOrderCovariance, stack: bool, caller: str) -> None:
    """Refuse a covariance of the other rank with ValueError naming its shape:
    ``caller`` takes a (T, 4, 4) stack if ``stack``, else one (4, 4) covariance."""
    if (cov.matrix.ndim == 3) != stack:
        want = "a (T, 4, 4) covariance stack" if stack else "one (4, 4) covariance"
        raise ValueError(f"{caller} takes {want}, got matrix shape {cov.matrix.shape}")


def _det2(m: np.ndarray):
    # explicit determinant of a 2x2 block, or of each block of a stack: keeps
    # sign flips exact under column negation
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


@dataclass(frozen=True)
class Invariants:
    """Local-symplectic invariants I1 = det A, I2 = det B, I3 = det C, I4 = det V."""

    i1: float
    i2: float
    i3: float
    i4: float

    @property
    def det_c(self) -> float:
        return self.i3


def invariants(cov: HigherOrderCovariance) -> Invariants:
    _require_rank(cov, False, "invariants")
    v = cov.matrix
    return Invariants(
        i1=float(_det2(v[:2, :2])),
        i2=float(_det2(v[2:, 2:])),
        i3=float(_det2(v[:2, 2:])),
        i4=float(np.linalg.det(v)),
    )


def mirror_reflect(cov: HigherOrderCovariance) -> HigherOrderCovariance:
    """Partial mirror reflection (PPT transform): P_B -> -P_B.

    The commutator expectations are functions of the number operators and are
    unchanged; the fourth first moment flips sign.
    """
    vt = _MIRROR @ cov.matrix @ _MIRROR
    fm = cov.first_moments * np.array([1.0, 1.0, 1.0, -1.0])
    return HigherOrderCovariance(vt, cov.f_ka, cov.f_lb, fm, cov.n, cov.k, cov.l)


def _gram_terms(layout: ModeLayout, idx: np.ndarray, n: int, k: int, l: int):
    """The terms of G over L = (1, A, A+, B, B+) on the sorted flat Fock
    indices ``idx``, shared by pure states and density matrices.

    ``diag`` is (7, S): its rows a < 5 weigh the populations into G_aa, and
    its last two into <f_{nk}(N_A)> and <f_{nl}(N_B)>. ``pairs`` holds
    (a, b, rows_a, rows_b, w) for each a < b whose targets meet, matched by
    ``searchsorted``: L_a and L_b move |idx[rows_a]> and |idx[rows_b]> to
    one target, so G_ab = sum w conj(psi[rows_a]) psi[rows_b]
    = sum w rho[rows_b, rows_a]. No selection rule is assumed: a pair whose
    targets never meet contributes nothing.
    """
    if n < 1:
        raise ValueError("hierarchy index n must be >= 1")
    orders = ((layout.mode_a, n * k), (layout.mode_b, n * l))
    for mode, m in orders:
        check_order(layout, mode, m)
    # each L_a as fock.shift's (rows, target, weight)
    ops = [(np.arange(len(idx)), idx, np.ones(len(idx)))]
    for mode, m in orders:
        for order in (-m, m):
            ops.append(shift(layout, idx, [order if i == mode else 0 for i in range(layout.nmodes)]))
    diag = np.zeros((_N_LADDER + 2, idx.size))
    for a, (rows, _, weight) in enumerate(ops):
        diag[a, rows] = weight ** 2
    for j, (mode, m) in enumerate(orders):
        diag[_N_LADDER + j] = f_values(m, occupations(layout, idx, mode))
    pairs = []
    for a, b in combinations(range(_N_LADDER), 2):
        rows_a, target_a, weight_a = ops[a]
        rows_b, target_b, weight_b = ops[b]
        if not target_a.size:
            continue
        at = np.searchsorted(target_a, target_b)
        hit = np.flatnonzero(target_a.take(at, mode="clip") == target_b)
        if hit.size:
            at = at[hit]
            pairs.append((a, b, rows_a[at], rows_b[hit], weight_a[at] * weight_b[hit]))
    return diag, pairs


@lru_cache(maxsize=8)
def _density_terms(layout: ModeLayout, n: int, k: int, l: int):
    """``_gram_terms`` on every index of ``layout``, the support of any
    density matrix. Cached and read-only: a set of density matrices on one
    layout and level, as a certification run has, shares one match."""
    diag, pairs = _gram_terms(layout, np.arange(layout.total_dim), n, k, l)
    for arr in (diag, *(arr for pair in pairs for arr in pair[2:])):
        arr.flags.writeable = False
    return diag, pairs


def _from_gram(gram: np.ndarray, f_ka, f_lb, n: int, k: int, l: int) -> HigherOrderCovariance:
    """Covariances from a (T, 5, 5) stack of Gram matrices over L, whose row 0
    holds <L_b> = G_0b."""
    first = (_LADDER_TO_R @ gram[:, 0, :, None])[..., 0]
    bad = np.abs(first.imag).max(axis=1) > 1e-8
    if bad.any():
        raise ValueError("first moments of Hermitian quadratures came out complex "
                         f"(row {np.argmax(bad)})")
    r = first.real
    v = (_LADDER_TO_R.conj() @ gram @ _LADDER_TO_R.T).real - r[:, :, None] * r[:, None, :]
    return HigherOrderCovariance(v, f_ka, f_lb, r, n, k, l)


def covariance_stack(layout: ModeLayout, support, amplitudes, n: int, k: int, l: int) -> HigherOrderCovariance:
    """Covariances of level n on T pure states that share ``support``.

    ``support`` holds S strictly increasing flat Fock indices and
    ``amplitudes`` is the (T, S) stack of the states' amplitudes there, for
    example ``np.stack([s.amplitudes for s in states])`` for the states that
    ``evolve`` returns. Each pair of ladder powers is matched once on its
    sorted targets, and G_ab of every state sums only the matched amplitude
    products; no selection rule is assumed, so any pure state is valid. The
    sums run over blocks of _BLOCK states, so the temporaries do not grow
    with T. The result is a stack: V is (T, 4, 4).
    """
    idx = np.asarray(support).reshape(-1)
    amp = np.ascontiguousarray(amplitudes, dtype=complex)
    if amp.ndim != 2 or amp.shape[1] != idx.size:
        raise ValueError(f"amplitudes must be (T, {idx.size}), one row per state, got {amp.shape}")
    diag, pairs = _gram_terms(layout, idx, n, k, l)
    gram = np.zeros((len(amp), _N_LADDER, _N_LADDER), dtype=complex)
    f = np.zeros((len(amp), 2))
    for t in range(0, len(amp), _BLOCK):
        block = amp[t:t + _BLOCK]
        pops = block.real ** 2 + block.imag ** 2
        sums = np.stack([(pops * d).sum(axis=1) for d in diag], axis=1)
        gram[t:t + _BLOCK, range(_N_LADDER), range(_N_LADDER)] = sums[:, :_N_LADDER]
        f[t:t + _BLOCK] = sums[:, _N_LADDER:]
        for a, b, rows_a, rows_b, w in pairs:
            # conj(x) y in real arithmetic, on row-major copies (block[:, i]
            # would be column-major): each state's sum then runs over one
            # contiguous row with correctly rounded terms, the same in a
            # stack of any size
            x, y = np.take(block, rows_a, axis=1), np.take(block, rows_b, axis=1)
            re = x.real * y.real
            re += x.imag * y.imag
            re *= w
            im = x.real * y.imag
            im -= x.imag * y.real
            im *= w
            g = re.sum(axis=1) + 1j * im.sum(axis=1)
            gram[t:t + _BLOCK, a, b], gram[t:t + _BLOCK, b, a] = g, g.conj()
    return _from_gram(gram, f[:, 0], f[:, 1], n, k, l)


def build_covariance(state: QuantumState, n: int, k: int, l: int) -> HigherOrderCovariance:
    """Covariance of (Q^{nk}_A, P^{nk}_A, Q^{nl}_B, P^{nl}_B) on ``state``.

    First moments are subtracted (they vanish identically on down-conversion
    trajectories, but subtracting keeps the object well defined on any state).
    A pure state goes through ``covariance_stack`` as a stack of one. The
    cost is linear in the support of a pure state, or in the dimension for a
    density matrix; no operator is formed.
    """
    if state.is_pure:
        return covariance_stack(state.layout, state.support, state.amplitudes[None], n, k, l)[0]
    diag, pairs = _density_terms(state.layout, n, k, l)
    rho = state.matrix
    sums = diag @ rho.diagonal().real
    gram = np.diag(sums[:_N_LADDER]).astype(complex)
    for a, b, rows_a, rows_b, w in pairs:
        gram[a, b] = w @ rho[rows_b, rows_a]
        gram[b, a] = gram[a, b].conjugate()
    return _from_gram(gram[None], sums[-2], sums[-1], n, k, l)[0]


def _sl2_normal_scaling(block: np.ndarray) -> tuple[np.ndarray, float]:
    """det-1 transform S with S block S^T = sqrt(det block) * I."""
    evals, vecs = np.linalg.eigh((block + block.T) / 2.0)
    if evals[0] <= 0:
        raise DegenerateStateError(f"covariance block not positive definite, eigs={evals}")
    if np.linalg.det(vecs) < 0:
        vecs = vecs[:, ::-1]
        evals = evals[::-1]
    l1, l2 = evals
    d = np.diag([(l2 / l1) ** 0.25, (l1 / l2) ** 0.25])
    s = d @ vecs.T
    return s, float(np.sqrt(l1 * l2))


@dataclass(frozen=True)
class StandardForm:
    """Standard-form scalars (a, b, c1, c2) and the local transforms reaching them.

    Convention: c1 >= |c2| with the sign of c2 carried (det C preserved).
    a and b stay attached to their parties, so I1 = a^2 and I2 = b^2 match the
    source covariance; the b >= a arrangement used in separability proofs is a
    relabeling applied downstream.
    """

    a: float
    b: float
    c1: float
    c2: float
    f_ka: float
    f_lb: float
    t_a: np.ndarray
    t_b: np.ndarray

    def matrix(self) -> np.ndarray:
        v0 = np.diag([self.a, self.a, self.b, self.b])
        v0[0, 2] = v0[2, 0] = self.c1
        v0[1, 3] = v0[3, 1] = self.c2
        return v0


def standard_form(cov: HigherOrderCovariance) -> StandardForm:
    """Reduce V to diag-block standard form via local det-1 transforms.

    Two-step construction: a 2x2 Williamson-like scaling per party makes each
    diagonal block proportional to the identity, then a special-orthogonal SVD
    of the cross block diagonalizes it with singular values ordered c1 >= |c2|
    and the sign of det C carried by c2.
    """
    _require_rank(cov, False, "standard_form")
    s_a, nu_a = _sl2_normal_scaling(cov.block_a)
    s_b, nu_b = _sl2_normal_scaling(cov.block_b)
    u = s_a @ cov.block_c @ s_b.T
    w, sig, xt = np.linalg.svd(u)
    x = xt.T
    dw, dx = np.linalg.det(w), np.linalg.det(x)
    # fold possible reflections into the second singular value
    o_a = (w @ np.diag([1.0, dw])).T
    o_b = (x @ np.diag([1.0, dx])).T
    c1 = float(sig[0])
    c2 = float(sig[1] * dw * dx)
    t_a = o_a @ s_a
    t_b = o_b @ s_b
    for t in (t_a, t_b):
        t.flags.writeable = False
    return StandardForm(nu_a, nu_b, c1, c2, cov.f_ka, cov.f_lb, t_a, t_b)
