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

``covariance_stack`` computes one hierarchy level for a stack of T pure
states that share one support, as the states of a trajectory do: the
targets and weights are built once, each pair of ladder powers is matched
by ``searchsorted`` on their targets once, and G_ab for every state is a sum
over the matched amplitudes only. No selection rule is assumed: a pair whose
targets never meet simply contributes nothing. ``build_covariance`` is that
function on a stack of one for a pure state; for a density matrix it gathers
G from the matrix over the union of the targets, and both finish through the
same Gram-to-covariance step. The cost is linear in the support of a pure
state.

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
from itertools import combinations, permutations

import numpy as np

from .fock import DegenerateStateError, ModeLayout, QuantumState, TruncatedOperator, occupations, shift
from .quadratures import check_order, f_polynomial, nonlinear_quadratures

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
        m = np.array(self.matrix, dtype=float)
        if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
            raise ValueError(f"covariance must be (4, 4) or a (T, 4, 4) stack, got {m.shape}")
        mt = np.swapaxes(m, -1, -2)
        # symmetric to numpy's allclose tolerance with atol=1e-10, per member
        symmetric = (np.abs(m - mt) <= 1e-10 + 1e-5 * np.abs(mt)).all(axis=(-2, -1))
        f = np.array([self.f_ka, self.f_lb], dtype=float).reshape((2,) + m.shape[:-2])
        for ok, message in ((symmetric, "covariance must be symmetric"),
                            ((f > 0).all(axis=0), "commutator expectations must be positive")):
            if not ok.all():
                raise ValueError(message + (f" (row {np.argmin(ok)})" if m.ndim == 3 else ""))
        fm = np.array(self.first_moments, dtype=float).reshape(m.shape[:-1])
        for name, value in (("matrix", (m + mt) / 2.0), ("f_ka", f[0]), ("f_lb", f[1]),
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


def _ladder_powers(layout: ModeLayout, idx: np.ndarray, n: int, k: int, l: int):
    """L = (1, A, A+, B, B+) on the sorted flat Fock indices ``idx``, each as
    ``fock.shift``'s (rows, target, weight), and (mode, order) of A and B."""
    if n < 1:
        raise ValueError("hierarchy index n must be >= 1")
    orders = ((layout.mode_a, n * k), (layout.mode_b, n * l))
    for mode, m in orders:
        check_order(layout, mode, m)
    ops = [(np.arange(len(idx)), idx, np.ones(len(idx)))]
    for mode, m in orders:
        for order in (-m, m):
            ops.append(shift(layout, idx, [order if i == mode else 0 for i in range(layout.nmodes)]))
    return ops, orders


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
    ops, orders = _ladder_powers(layout, idx, n, k, l)
    # population weights: |L_a psi|^2 for each a, then f_nk(N_A) and f_nl(N_B)
    diag = np.zeros((len(ops) + 2, idx.size))
    for a, (rows, _, weight) in enumerate(ops):
        diag[a, rows] = weight ** 2
    for j, (mode, m) in enumerate(orders):
        diag[len(ops) + j] = f_polynomial(m)(occupations(layout, idx, mode))
    pairs = []
    for a, b in combinations(range(len(ops)), 2):
        rows_a, target_a, weight_a = ops[a]
        rows_b, target_b, weight_b = ops[b]
        if not target_a.size:
            continue
        at = np.minimum(np.searchsorted(target_a, target_b), target_a.size - 1)
        hit = np.flatnonzero(target_a[at] == target_b)
        if hit.size:
            pairs.append((a, b, rows_a[at[hit]], rows_b[hit], weight_a[at[hit]] * weight_b[hit]))
    gram = np.zeros((len(amp), len(ops), len(ops)), dtype=complex)
    f = np.zeros((len(amp), 2))
    for t in range(0, len(amp), _BLOCK):
        block = amp[t:t + _BLOCK]
        pops = block.real ** 2 + block.imag ** 2
        sums = np.stack([(pops * d).sum(axis=1) for d in diag], axis=1)
        gram[t:t + _BLOCK, range(len(ops)), range(len(ops))] = sums[:, :len(ops)]
        f[t:t + _BLOCK] = sums[:, len(ops):]
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
    layout = state.layout
    idx = state.support
    ops, orders = _ladder_powers(layout, idx, n, k, l)
    # op b moves row src[b, t] of rho, whose rows are the Fock indices idx,
    # to the shared sorted target targets[t] with weight w[b, t] (0 where it
    # does not reach t); then G_ab = tr(L_a+ L_b rho) = sum_t w_a w_b
    # rho[src_b, src_a]. Sort and drop repeats by hand: np.unique is an order
    # of magnitude slower here
    targets = np.sort(np.concatenate([target for _, target, _ in ops]))
    targets = targets[np.diff(targets, prepend=-1) != 0]
    src = np.zeros((len(ops), len(targets)), dtype=np.intp)
    w = np.zeros((len(ops), len(targets)))
    for b, (rows, target, weight) in enumerate(ops):
        at = np.searchsorted(targets, target)
        src[b, at] = rows
        w[b, at] = weight
    rho = state.matrix
    gram = np.einsum("at,bt,abt->ab", w, w, rho[src[None], src[:, None]])
    pops = np.diag(rho).real
    f_ka, f_lb = (pops @ f_polynomial(m)(occupations(layout, idx, mode)) for mode, m in orders)
    return _from_gram(gram[None], f_ka, f_lb, n, k, l)[0]


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


def _linear_quads(layout: ModeLayout):
    qa = nonlinear_quadratures(layout, layout.mode_a, 1)
    qb = nonlinear_quadratures(layout, layout.mode_b, 1)
    return qa.q.data, qa.p.data, qb.q.data, qb.p.data


def _pure_vector(state: QuantumState, name: str) -> np.ndarray:
    if not state.is_pure:
        raise ValueError(f"{name} reads pure states; got a density matrix")
    return state.vector


def coskewness_block(state: QuantumState) -> np.ndarray:
    """Third-moment block coupling linear A quadratures to quadratic B forms.

    Rows: (q_A, p_A); columns: (q_B^2 - p_B^2, q_B p_B + p_B q_B). The
    operator orderings are Hermitian as written, so the entries are real. For
    zero-mean down-conversion states this block equals the C block of the
    n = 1 covariance of the k = 1, l = 2 process. A density matrix is
    refused with ValueError.
    """
    psi = _pure_vector(state, "coskewness_block")
    qa, pa, qb, pb = _linear_quads(state.layout)
    out = np.zeros((2, 2))
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
    A density matrix is refused with ValueError.
    """
    psi = _pure_vector(state, "cokurtosis")
    ops = [_resolve_selector(s, state.layout) for s in (x, y, z, w)]

    def pair_sym(i, j):
        # Re<AB> = <{A,B}>/2 for Hermitian A, B
        return complex(np.vdot(ops[i] @ psi, ops[j] @ psi)).real

    fourth = 0.0 + 0.0j
    for i, j, kk, ll in permutations(range(4)):
        fourth += np.vdot(psi, ops[i] @ (ops[j] @ (ops[kk] @ (ops[ll] @ psi))))
    fourth /= 24.0
    if abs(fourth.imag) > 1e-8:
        raise ValueError(f"Weyl-ordered fourth moment has imaginary residue {fourth.imag:.2e}")
    return float(fourth.real) - pair_sym(0, 1) * pair_sym(2, 3) \
        - pair_sym(0, 2) * pair_sym(1, 3) - pair_sym(0, 3) * pair_sym(1, 2)
