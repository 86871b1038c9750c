"""Nonlinear quadratures Q^m = (a^m + a+^m)/2, P^m = i(a+^m - a^m)/2 and the
commutator polynomials f_m with [Q^m, P^m] = i f_m(N).

f_m is read from the ladder identity

    f_m(N) = [ (N+1)(N+2)...(N+m) - N(N-1)...(N-m+1) ] / 2,

evaluated in float64. While the rising product stays below 2^53, as it
does at every order and cutoff of the shipped configs, each product and
the difference are exact integers, so the values are exact.

Orders above MAX_ORDER = 9 are refused for precision, not for f_m: a
covariance of order-m quadratures holds moments of order 2m, and the
witness is a small difference of their products. With the cap lifted,
configs/competition.cfg at n = 5 (order 15 on B) has covariance entries of
8e19 by xi 0.04 and wrote nu_minus -3.1e14 at xi 0.02, -2.1e18 at 0.04 and
-375 at 0.06, each row reading ``entangled`` and ``ok``; at n = 4
(order 12) the values were smooth.

The embedded Q^m, P^m come from ``fock.embed`` and so load scipy when first
built; ``f_operator`` is a diagonal CSR triple and needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import ModeLayout, QuantumState, TruncatedOperator, annihilation, embed

MAX_ORDER = 9
IMAG_TOL = 1e-8  # largest imaginary part <op> of a Hermitian operator may show


class UnsupportedOrderError(ValueError):
    """Quadrature order outside 1..MAX_ORDER."""


def f_values(m: int, n) -> np.ndarray:
    """f_m at the occupation(s) ``n`` from the ladder identity, in float64."""
    if not 1 <= m <= MAX_ORDER:
        raise UnsupportedOrderError(f"f_m is defined here for 1 <= m <= {MAX_ORDER}, got m={m}")
    n = np.asarray(n, dtype=float)
    rising = np.ones_like(n)
    falling = np.ones_like(n)
    for i in range(m):
        rising *= n + (i + 1)
        falling *= n - i
    return (rising - falling) / 2


@lru_cache(maxsize=None)
def _single_mode_power(dim: int, m: int) -> np.ndarray:
    a = annihilation(dim)
    return np.linalg.matrix_power(a, m)


@lru_cache(maxsize=None)
def _embedded_quadratures(dims: tuple[int, ...], mode: int, m: int):
    layout = ModeLayout(dims)
    am = _single_mode_power(layout.dims[mode], m)
    q1 = (am + am.T) / 2.0
    p1 = 1j * (am.T - am) / 2.0
    return embed(q1, mode, layout), embed(p1, mode, layout)


@dataclass(frozen=True)
class QuadraturePair:
    """Q^m and P^m of one mode, embedded in the full space."""

    mode: int
    m: int
    q: TruncatedOperator
    p: TruncatedOperator


def check_order(layout: ModeLayout, mode: int, m: int) -> None:
    """Refuse a quadrature order outside 1..MAX_ORDER or not below the mode cutoff."""
    if not 1 <= m <= MAX_ORDER:
        raise UnsupportedOrderError(f"quadrature order m={m} outside 1..{MAX_ORDER}")
    if m >= layout.dims[mode]:
        raise ValueError(f"m={m} needs mode dim > m, got {layout.dims[mode]}")


def nonlinear_quadratures(layout: ModeLayout, mode: int, m: int) -> QuadraturePair:
    """Embedded Q^m, P^m for ``mode``; m must not exceed MAX_ORDER."""
    check_order(layout, mode, m)
    q, p = _embedded_quadratures(layout.dims, mode, m)
    return QuadraturePair(mode, m, q, p)


def f_operator(layout: ModeLayout, mode: int, m: int) -> TruncatedOperator:
    """Diagonal operator f_m(N_mode) on the full space."""
    diag_single = f_values(m, np.arange(layout.dims[mode]))
    diag = np.ones(1)
    for i, d in enumerate(layout.dims):
        diag = np.kron(diag, diag_single if i == mode else np.ones(d))
    # f_m(N) >= m!/2 > 0, so every diagonal entry is stored
    rows = np.arange(layout.total_dim + 1, dtype=np.int32)
    return TruncatedOperator(layout, (diag, rows[:-1], rows), hermitian=True)


def expectation(op, state: QuantumState) -> complex:
    """<op> on a pure or mixed state. Accepts TruncatedOperator or sparse/ndarray."""
    mat = op.data if isinstance(op, TruncatedOperator) else op
    if state.is_pure:
        psi = state.vector
        return complex(np.vdot(psi, mat @ psi))
    return complex(np.trace(mat @ state.matrix))


def symmetrized_covariance(op1, op2, state: QuantumState) -> float:
    """Cov_sym(op1, op2) = <{op1, op2}>/2 - <op1><op2> for Hermitian operators.

    The symmetrized moment of two Hermitian operators is real up to numerics;
    a residual imaginary part above IMAG_TOL raises.
    """
    m1 = op1.data if isinstance(op1, TruncatedOperator) else op1
    m2 = op2.data if isinstance(op2, TruncatedOperator) else op2
    if state.is_pure:
        psi = state.vector
        w1 = m1 @ psi
        w2 = m2 @ psi
        m12 = complex(np.vdot(w1, w2))  # <op1 op2> using hermiticity of op1
        e1 = complex(np.vdot(psi, w1))
        e2 = complex(np.vdot(psi, w2))
    else:
        m12 = expectation(m1 @ m2, state)
        e1 = expectation(m1, state)
        e2 = expectation(m2, state)
    sym = m12.real - e1.real * e2.real  # Re<op1 op2> = <{op1,op2}>/2 for Hermitian ops
    for z, name in ((e1, "op1"), (e2, "op2")):
        if abs(z.imag) > IMAG_TOL:
            raise ValueError(f"<{name}> has imaginary residue {z.imag:.2e} (not Hermitian?)")
    return float(sym)
