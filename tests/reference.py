"""The tests' operator reference: every operator written out by Kronecker
products of single-mode matrices, with scipy.

hocov builds its operators from one truncated-ladder rule (``fock.shift``,
and ``fock.two_band`` for the Hamiltonian and the quadratures). Nothing
here calls that rule, so a test that compares against these matrices
shares no code with what it checks. Matrices act on hocov's flat index
(n_p * dim_a + n_a) * dim_b + n_b, the order of chained Kronecker products.

The vacuum, Fock and thermal inputs that only the tests use are built
here too.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
from scipy import sparse

from hocov import EvolutionConfig, InteractionSpec, ModeLayout, QuantumState, TruncatedOperator, evolve

IMAG_TOL = 1e-8  # largest imaginary part <op> of a Hermitian operator may show


def annihilation(dim: int) -> np.ndarray:
    """Single-mode annihilation operator, a[n-1, n] = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def creation(dim: int) -> np.ndarray:
    return annihilation(dim).T.copy()


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(float(dim)))


def embed(op, mode: int, layout: ModeLayout) -> sparse.csr_matrix:
    """The single-mode ``op`` on ``mode`` of ``layout``, by Kronecker products."""
    full = sparse.csr_matrix(op)
    for m, dm in enumerate(layout.dims):
        if m != mode:
            eye = sparse.identity(dm, format="csr")
            full = sparse.kron(eye, full) if m < mode else sparse.kron(full, eye)
    return full.tocsr()


def reference_ladder_product(layout: ModeLayout, shifts) -> sparse.csr_matrix:
    """Product of the embedded truncated powers a+^m (m > 0) and a^|m| (m < 0),
    one signed order per mode."""
    full = sparse.identity(layout.total_dim, format="csr")
    for mode, m in enumerate(shifts):
        if m:
            power = np.linalg.matrix_power(annihilation(layout.dims[mode]), abs(m))
            full = embed(power.T if m > 0 else power, mode, layout) @ full
    return full.tocsr()


def kronecker_hamiltonian(spec: InteractionSpec, alpha_p: float | None = None) -> sparse.csr_matrix:
    """H = i kappa (a+^k b+^l p - h.c.) on a (pump, A, B) layout, or, given
    ``alpha_p``, the classical pump H = i kappa alpha_p (a+ b+ - a b) on (A, B)."""
    if alpha_p is None:
        up, g = reference_ladder_product(spec.layout, (-1, spec.k, spec.l)), spec.kappa
    else:
        up, g = reference_ladder_product(spec.layout, (1, 1)), spec.kappa * alpha_p
    return (1j * g * (up - up.conj().T)).tocsr()


def classical_pump(layout: ModeLayout, alpha_p: float, kappa: float = 1.0) -> TruncatedOperator:
    """The Kronecker classical-pump H on an (A, B) layout, as an operator
    that ``evolve`` takes: vacuum evolved to xi = r is two-mode squeezed
    vacuum with squeezing r."""
    spec = InteractionSpec(layout, k=1, l=1, kappa=kappa)
    return TruncatedOperator(layout, kronecker_hamiltonian(spec, alpha_p), hermitian=True)


def quadratures(layout: ModeLayout, mode: int, m: int) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Q^m = (a^m + a+^m)/2 and P^m = i(a+^m - a^m)/2 of ``mode``, embedded."""
    am = np.linalg.matrix_power(annihilation(layout.dims[mode]), m)
    return embed((am + am.T) / 2.0, mode, layout), embed(1j * (am.T - am) / 2.0, mode, layout)


def f_diagonal(dim: int, m: int) -> np.ndarray:
    """f_m(n) = [(n+1)...(n+m) - n(n-1)...(n-m+1)]/2 for n < dim, in exact integers."""
    return np.array([(math.prod(range(n + 1, n + m + 1)) - math.prod(range(n - m + 1, n + 1))) / 2
                     for n in range(dim)])


def fock_state(occupations, layout: ModeLayout) -> QuantumState:
    """The product Fock state |n_0, n_1, ...> on ``layout``."""
    return QuantumState.on_support(layout, [np.ravel_multi_index(occupations, layout.dims)], [1.0])


def vacuum_state(layout: ModeLayout) -> QuantumState:
    return fock_state((0,) * layout.nmodes, layout)


def thermal_density(n_th: float, dim: int) -> np.ndarray:
    """Single-mode thermal density matrix, p_n ~ (n_th / (1 + n_th))^n,
    renormalized on ``dim`` levels."""
    p = (n_th / (1.0 + n_th)) ** np.arange(dim)
    return np.diag(p / p.sum()).astype(complex)


def expectation(op, state) -> complex:
    """<op> on a pure or mixed state, for a sparse or dense matrix ``op``."""
    if state.is_pure:
        psi = state.vector
        return complex(np.vdot(psi, op @ psi))
    return complex(np.trace(op @ state.matrix))


def symmetrized_covariance(op1, op2, state) -> float:
    """Cov_sym(op1, op2) = <{op1, op2}>/2 - <op1><op2> for Hermitian matrices;
    an imaginary part of <op1> or <op2> above IMAG_TOL raises."""
    if state.is_pure:
        psi = state.vector
        w1, w2 = op1 @ psi, op2 @ psi
        m12 = complex(np.vdot(w1, w2))  # <op1 op2> using hermiticity of op1
        e1, e2 = complex(np.vdot(psi, w1)), complex(np.vdot(psi, w2))
    else:
        m12, e1, e2 = expectation(op1 @ op2, state), expectation(op1, state), expectation(op2, state)
    for z, name in ((e1, "op1"), (e2, "op2")):
        if abs(z.imag) > IMAG_TOL:
            raise ValueError(f"<{name}> has imaginary residue {z.imag:.2e} (not Hermitian?)")
    return m12.real - e1.real * e2.real  # Re<op1 op2> = <{op1,op2}>/2 for Hermitian ops


def reference_covariance(state, n: int, k: int, l: int):
    """The quadratures R = (Q_A, P_A, Q_B, P_B) of level n, and V, <R> and the
    f expectations from them."""
    lay = state.layout
    ops = [*quadratures(lay, lay.mode_a, n * k), *quadratures(lay, lay.mode_b, n * l)]
    second = np.array([[expectation(x @ y, state) for y in ops] for x in ops])
    first = np.array([expectation(x, state) for x in ops])
    v = second.real - np.outer(first.real, first.real)
    f_ka = expectation(embed(np.diag(f_diagonal(lay.dims[lay.mode_a], n * k)), lay.mode_a, lay), state).real
    f_lb = expectation(embed(np.diag(f_diagonal(lay.dims[lay.mode_b], n * l)), lay.mode_b, lay), state).real
    return ops, (v + v.T) / 2, first, f_ka, f_lb


def tmsv_state(r: float, dim: int = 24):
    """Two-mode squeezed vacuum of squeezing r on a (dim, dim) layout: the
    vacuum evolved under the Kronecker classical-pump H to xi = r."""
    lay = ModeLayout((dim, dim))
    if r == 0.0:
        return vacuum_state(lay)
    cfg = EvolutionConfig(xi_grid=(0.0, r), kappa=1.0, alpha_p=2.0)
    return evolve(vacuum_state(lay), classical_pump(lay, 2.0), cfg)[-1]


def coskewness_block(state) -> np.ndarray:
    """Third-moment block of a pure state: rows (q_A, p_A), columns
    (q_B^2 - p_B^2, q_B p_B + p_B q_B). For zero-mean down-conversion states
    it equals the C block of the n = 1 covariance of the k = 1, l = 2 process."""
    psi, lay = state.vector, state.layout
    (qa, pa), (qb, pb) = quadratures(lay, lay.mode_a, 1), quadratures(lay, lay.mode_b, 1)
    columns = (qb @ (qb @ psi) - pb @ (pb @ psi), qb @ (pb @ psi) + pb @ (qb @ psi))
    block = np.array([[np.vdot(op @ psi, col) for col in columns] for op in (qa, pa)])
    assert np.abs(block.imag).max() <= IMAG_TOL
    return block.real


def cokurtosis(state, x, y, z, w) -> float:
    """Fourth joint cumulant of four Hermitian matrices on a pure state, with
    Weyl ordering over the four slots:

        <XYZW>_W - <XY>_s<ZW>_s - <XZ>_s<YW>_s - <XW>_s<YZ>_s

    where <...>_W averages all operator orderings and <..>_s symmetrizes pairs.
    """
    psi, ops = state.vector, (x, y, z, w)

    def pair(i, j):  # Re<AB> = <{A,B}>/2 for Hermitian A, B
        return np.vdot(ops[i] @ psi, ops[j] @ psi).real

    fourth = sum(np.vdot(psi, ops[a] @ (ops[b] @ (ops[c] @ (ops[d] @ psi))))
                 for a, b, c, d in permutations(range(4))) / 24.0
    assert abs(fourth.imag) <= IMAG_TOL
    return float(fourth.real) - pair(0, 1) * pair(2, 3) - pair(0, 2) * pair(1, 3) - pair(0, 3) * pair(1, 2)


def lapack_standard_form(v: np.ndarray) -> tuple[float, float, float, float]:
    """(a, b, c1, c2) of the 4x4 covariance ``v`` by LAPACK: each diagonal
    block is scaled to a multiple of I along its ``eigh`` eigenvectors, and
    the scaled cross block's ``svd`` gives c1 and |c2|, with c2 signed like
    det C."""
    scalings, scales = [], []
    for block in (v[:2, :2], v[2:, 2:]):
        evals, vecs = np.linalg.eigh(block)
        scales.append(math.sqrt(evals.prod()))
        scalings.append(math.sqrt(scales[-1]) * np.diag(evals ** -0.5) @ vecs.T)
    sig = np.linalg.svd(scalings[0] @ v[:2, 2:] @ scalings[1].T, compute_uv=False)
    return scales[0], scales[1], float(sig[0]), float(sig[1] * np.sign(np.linalg.det(v[:2, 2:])))
