"""Higher-order covariance matrices of the quadrature vector
R = (Q^{nk}_A, P^{nk}_A, Q^{nl}_B, P^{nl}_B) and their algebra.

Entries are the symmetrized second moments

    V_ij = <Delta R_i Delta R_j + Delta R_j Delta R_i> / 2,

so V is real symmetric and V + (i/2) <Omega> captures the full (generally
complex) second-moment matrix, with <Omega_ij> = -i <[R_i, R_j]> scalarized by
the state expectations of f_{nk}(N_A) and f_{nl}(N_B).

build_covariance forms no operator. Each entry of R is a fixed combination of
the ladder powers L = (A, A+, B, B+) with A = a^{nk} and B = b^{nl}. On the
cutoff, a^m is the index shift |j> -> |j - m> with weight
sqrt(j (j-1) ... (j-m+1)), and a+^m is its transpose, so a+^m drops the levels
it would push to or past the cutoff and <A A+> is |A+ psi|^2, not
<A+ A> + 2 <f_m>. Shifting the flat Fock indices of a pure state's support
(``QuantumState.support``, read with ``QuantumState.amplitudes``), or of a
density matrix's rows, places every L_a on one sorted set of target
indices, and the Gram matrix G_ab = <L_a psi|L_b psi> = tr(L_a+ L_b rho) is
one product (pure state) or one gather (density matrix) over that set. Then
<R_i R_j> = (T* G T^T)_ij with T the coefficients of R in L. The cost is
linear in the support of a pure state, and no full-space array is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .fock import DegenerateStateError, ModeLayout, QuantumState, TruncatedOperator
from .quadratures import check_order, expectation, f_polynomial, nonlinear_quadratures

_MIRROR = np.diag([1.0, 1.0, 1.0, -1.0])
# R = (Q_A, P_A, Q_B, P_B) in terms of the ladder powers (1, A, A+, B, B+):
# Q = (A + A+)/2 and P = i(A+ - A)/2
_LADDER_TO_R = np.array([
    [0.0, 0.5, 0.5, 0.0, 0.0],
    [0.0, -0.5j, 0.5j, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.5, 0.5],
    [0.0, 0.0, 0.0, -0.5j, 0.5j],
])


@dataclass(frozen=True)
class HigherOrderCovariance:
    """4x4 symmetrized covariance with its commutator expectations.

    f_ka = <f_{nk}(N_A)>, f_lb = <f_{nl}(N_B)>; first_moments are <R_i>.
    """

    matrix: np.ndarray
    f_ka: float
    f_lb: float
    first_moments: np.ndarray
    n: int
    k: int
    l: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("covariance must be 4x4")
        if not np.allclose(m, m.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        m = (m + m.T) / 2.0
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        fm = np.array(self.first_moments, dtype=float).reshape(4)
        fm.flags.writeable = False
        object.__setattr__(self, "first_moments", fm)
        if self.f_ka <= 0 or self.f_lb <= 0:
            raise ValueError("commutator expectations must be positive")

    @property
    def block_a(self) -> np.ndarray:
        return self.matrix[:2, :2]

    @property
    def block_b(self) -> np.ndarray:
        return self.matrix[2:, 2:]

    @property
    def block_c(self) -> np.ndarray:
        return self.matrix[:2, 2:]

    def omega(self) -> np.ndarray:
        """Scalarized commutator matrix <Omega>."""
        om = np.zeros((4, 4))
        om[0, 1], om[1, 0] = self.f_ka, -self.f_ka
        om[2, 3], om[3, 2] = self.f_lb, -self.f_lb
        return om


def _det2(m: np.ndarray) -> float:
    # explicit 2x2 determinant: keeps sign flips exact under column negation
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


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
    v = cov.matrix
    return Invariants(
        i1=_det2(v[:2, :2]),
        i2=_det2(v[2:, 2:]),
        i3=_det2(v[:2, 2:]),
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


def _levels(layout: ModeLayout, idx: np.ndarray, mode: int) -> np.ndarray:
    """Occupation of ``mode`` at each flat Fock index."""
    return idx // math.prod(layout.dims[mode + 1:]) % layout.dims[mode]


def _ladder(layout: ModeLayout, idx: np.ndarray, mode: int, m: int, dagger: bool):
    """Truncated a^m of ``mode``, or its transpose a+^m, on flat Fock indices.

    Returns (rows, target, weight): the operator moves row rows[i] of an
    amplitude array whose rows are the Fock indices ``idx`` to index
    target[i], scaled by weight[i]. Rows it annihilates are dropped: j < m for
    a^m, and j + m >= dim for a+^m, which is where the cutoff enters. Targets
    are sorted when ``idx`` is.
    """
    dim = layout.dims[mode]
    low = _levels(layout, idx, mode) - (0 if dagger else m)  # |low> <-> |low + m>
    rows = np.flatnonzero((low >= 0) & (low + m < dim))
    low = low[rows]
    weight = np.ones(len(rows))
    for i in range(1, m + 1):
        weight *= low + i
    shift = (m if dagger else -m) * math.prod(layout.dims[mode + 1:])
    return rows, idx[rows] + shift, np.sqrt(weight)


def build_covariance(state: QuantumState, n: int, k: int, l: int) -> HigherOrderCovariance:
    """Covariance of (Q^{nk}_A, P^{nk}_A, Q^{nl}_B, P^{nl}_B) on ``state``.

    First moments are subtracted (they vanish identically on down-conversion
    trajectories, but subtracting keeps the object well defined on any state).
    The cost is linear in the support of a pure state, or in the dimension
    for a density matrix; no operator is formed.
    """
    if n < 1:
        raise ValueError("hierarchy index n must be >= 1")
    layout = state.layout
    orders = ((layout.mode_a, n * k), (layout.mode_b, n * l))
    for mode, m in orders:
        check_order(layout, mode, m)
    # L = (1, A, A+, B, B+). Op b moves row src[b, t] of the amplitudes, whose
    # rows are the Fock indices idx, to the shared sorted target targets[t]
    # with weight w[b, t] (0 where it does not reach t). Then
    # G_ab = tr(L_a+ L_b rho) = sum_t w_a w_b rho[src_b, src_a], and row 0
    # holds <L_b> = tr(L_b rho).
    idx = state.support
    ops = [(np.arange(len(idx)), idx, np.ones(len(idx)))]
    ops += [_ladder(layout, idx, mode, m, dagger) for mode, m in orders for dagger in (False, True)]
    # sort and drop repeats by hand: np.unique is an order of magnitude slower here
    targets = np.sort(np.concatenate([target for _, target, _ in ops]))
    targets = targets[np.diff(targets, prepend=-1) != 0]
    src = np.zeros((len(ops), len(targets)), dtype=np.intp)
    w = np.zeros((len(ops), len(targets)))
    for b, (rows, target, weight) in enumerate(ops):
        at = np.searchsorted(targets, target)
        src[b, at] = rows
        w[b, at] = weight
    if state.is_pure:
        amp = state.amplitudes
        phi = w * amp[src]
        gram = phi.conj() @ phi.T
        pops = np.abs(amp) ** 2
    else:
        rho = state.matrix
        gram = np.einsum("at,bt,abt->ab", w, w, rho[src[None], src[:, None]])
        pops = np.diag(rho).real
    first = _LADDER_TO_R @ gram[0]
    if np.abs(first.imag).max() > 1e-8:
        raise ValueError("first moments of Hermitian quadratures came out complex")
    r = first.real
    v = (_LADDER_TO_R.conj() @ gram @ _LADDER_TO_R.T).real - np.outer(r, r)
    v = (v + v.T) / 2.0
    f_ka, f_lb = (float(pops @ f_polynomial(m)(_levels(layout, idx, mode))) for mode, m in orders)
    return HigherOrderCovariance(v, f_ka, f_lb, r, n, k, l)


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


def _linear_quads(layout: ModeLayout):
    qa = nonlinear_quadratures(layout, layout.mode_a, 1)
    qb = nonlinear_quadratures(layout, layout.mode_b, 1)
    return qa.q.data, qa.p.data, qb.q.data, qb.p.data


def coskewness_block(state: QuantumState) -> np.ndarray:
    """Third-moment block coupling linear A quadratures to quadratic B forms.

    Rows: (q_A, p_A); columns: (q_B^2 - p_B^2, q_B p_B + p_B q_B). The
    operator orderings are Hermitian as written, so the entries are real. For
    zero-mean down-conversion states this block equals the C block of the
    n = 1 covariance of the k = 1, l = 2 process.
    """
    qa, pa, qb, pb = _linear_quads(state.layout)
    out = np.zeros((2, 2))
    if state.is_pure:
        psi = state.vector
        qb2 = qb @ (qb @ psi)
        pb2 = pb @ (pb @ psi)
        sym = qb @ (pb @ psi) + pb @ (qb @ psi)
        for row, op in enumerate((qa, pa)):
            w = op @ psi
            e1 = complex(np.vdot(w, qb2 - pb2))
            e2 = complex(np.vdot(w, sym))
            out[row, 0], out[row, 1] = e1.real, e2.real
            if max(abs(e1.imag), abs(e2.imag)) > 1e-8:
                raise ValueError("coskewness entries came out complex")
    else:
        comb1 = qb @ qb - pb @ pb
        comb2 = qb @ pb + pb @ qb
        for row, op in enumerate((qa, pa)):
            e1 = expectation(op @ comb1, state)
            e2 = expectation(op @ comb2, state)
            out[row, 0], out[row, 1] = e1.real, e2.real
            if max(abs(e1.imag), abs(e2.imag)) > 1e-8:
                raise ValueError("coskewness entries came out complex")
    return out


_SELECTORS = {"qa": 0, "pa": 1, "qb": 2, "pb": 3}


def _resolve_selector(sel, layout: ModeLayout):
    if isinstance(sel, TruncatedOperator):
        return sel.data
    if isinstance(sel, str) and sel.lower() in _SELECTORS:
        return _linear_quads(layout)[_SELECTORS[sel.lower()]]
    raise ValueError(f"unknown quadrature selector {sel!r}; use qA/pA/qB/pB or an operator")


def cokurtosis(state: QuantumState, x, y, z, w) -> float:
    """Fourth-order joint cumulant with Weyl ordering over the four slots:

        sigma(X,Y,Z,W) = <XYZW>_W - <XY>_s<ZW>_s - <XZ>_s<YW>_s - <XW>_s<YZ>_s

    where <...>_W averages all operator orderings and <..>_s symmetrizes pairs.
    Selectors are 'qA', 'pA', 'qB', 'pB' or explicit Hermitian operators.
    """
    ops = [_resolve_selector(s, state.layout) for s in (x, y, z, w)]
    psi = state.vector

    def pair_sym(i, j):
        if state.is_pure:
            val = complex(np.vdot(ops[i] @ psi, ops[j] @ psi))
        else:
            val = expectation(ops[i] @ ops[j], state)
        return val.real  # Re<AB> = <{A,B}>/2 for Hermitian A, B

    fourth = 0.0 + 0.0j
    if state.is_pure:
        for perm in permutations(range(4)):
            i, j, kk, ll = perm
            vec = ops[ll] @ psi
            vec = ops[kk] @ vec
            vec = ops[j] @ vec
            fourth += np.vdot(psi, ops[i] @ vec)
        fourth /= 24.0
    else:
        for perm in permutations(range(4)):
            i, j, kk, ll = perm
            fourth += expectation(ops[i] @ ops[j] @ ops[kk] @ ops[ll], state)
        fourth /= 24.0
    if abs(fourth.imag) > 1e-8:
        raise ValueError(f"Weyl-ordered fourth moment has imaginary residue {fourth.imag:.2e}")
    return float(fourth.real) - pair_sym(0, 1) * pair_sym(2, 3) \
        - pair_sym(0, 2) * pair_sym(1, 3) - pair_sym(0, 3) * pair_sym(1, 2)
