"""Nonlinear quadratures Q^m = (a^m + a+^m)/2, P^m = i(a+^m - a^m)/2 and the
commutator polynomials f_m with [Q^m, P^m] = i f_m(N).

The f_m coefficient table is stored as exact rationals, transcribed from the
order-by-order commutator expansion. Because a transcription typo would silently
poison every criterion downstream, each polynomial is cross-checked at
construction against the exact ladder identity

    f_m(N) = [ (N+1)(N+2)...(N+m) - N(N-1)...(N-m+1) ] / 2

evaluated in integer arithmetic; any mismatch aborts with a diagnostic.

The embedded Q^m, P^m come from ``fock.embed`` and so load scipy when first
built; ``f_operator`` is a diagonal CSR triple and needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .fock import ModeLayout, QuantumState, TruncatedOperator, annihilation, embed

MAX_ORDER = 9
IMAG_TOL = 1e-8  # largest imaginary part <op> of a Hermitian operator may show


class UnsupportedOrderError(ValueError):
    """Quadrature order outside the tabulated range 1..9."""


# ascending coefficients of f_m(N), exact
_F_TABLE: dict[int, tuple[Fraction, ...]] = {
    1: (Fraction(1, 2),),
    2: (Fraction(1), Fraction(2)),
    3: (Fraction(3), Fraction(9, 2), Fraction(9, 2)),
    4: (Fraction(12), Fraction(28), Fraction(12), Fraction(8)),
    5: (Fraction(60), Fraction(125), Fraction(275, 2), Fraction(25), Fraction(25, 2)),
    6: (Fraction(360), Fraction(942), Fraction(675), Fraction(480), Fraction(45), Fraction(18)),
    7: (
        Fraction(2520),
        Fraction(6174),
        Fraction(7448),
        Fraction(5145, 2),
        Fraction(2695, 2),
        Fraction(147, 2),
        Fraction(49, 2),
    ),
    8: (
        Fraction(20160),
        Fraction(57312),
        Fraction(52528),
        Fraction(40208),
        Fraction(7840),
        Fraction(3248),
        Fraction(112),
        Fraction(32),
    ),
    9: (
        Fraction(181440),
        Fraction(493128),
        Fraction(641142),
        Fraction(302778),
        Fraction(336609, 2),
        Fraction(20412),
        Fraction(6993),
        Fraction(162),
        Fraction(81, 2),
    ),
}


def _ladder_commutator_value(m: int, n: int) -> Fraction:
    # exact diagonal of [a^m, a+^m]/2 at Fock level n
    rising = 1
    for i in range(1, m + 1):
        rising *= n + i
    falling = 1
    for i in range(0, m):
        falling *= n - i
    return Fraction(rising - falling, 2)


@dataclass(frozen=True)
class FPolynomial:
    """Exact polynomial f_m(N), ascending coefficients."""

    m: int
    coefficients: tuple[Fraction, ...]

    def __call__(self, n):
        """Evaluate at occupation(s) n; exact for int/Fraction, float for arrays."""
        if isinstance(n, (int, Fraction)):
            acc: Fraction | int = 0
            for c in reversed(self.coefficients):
                acc = acc * n + c
            return acc
        n = np.asarray(n, dtype=float)
        acc = np.zeros_like(n)
        for c in reversed(self.coefficients):
            acc = acc * n + float(c)
        return acc


@lru_cache(maxsize=None)
def f_polynomial(m: int) -> FPolynomial:
    """Tabulated f_m with the construction-time exact cross-check."""
    if not 1 <= m <= MAX_ORDER:
        raise UnsupportedOrderError(f"f_m tabulated for 1 <= m <= {MAX_ORDER}, got m={m}")
    poly = FPolynomial(m, _F_TABLE[m])
    # degree m-1 polynomial: m+1 exact sample points pin it uniquely
    for n in range(m + 2):
        expected = _ladder_commutator_value(m, n)
        got = poly(n)
        if got != expected:
            raise AssertionError(
                f"f_{m} table mismatch at N={n}: table gives {got}, "
                f"ladder commutator gives {expected}; refusing to run"
            )
    return poly


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
    """Refuse a quadrature order outside the table or not below the mode cutoff."""
    if not 1 <= m <= MAX_ORDER:
        raise UnsupportedOrderError(f"quadrature order m={m} outside 1..{MAX_ORDER}")
    if m >= layout.dims[mode]:
        raise ValueError(f"m={m} needs mode dim > m, got {layout.dims[mode]}")
    f_polynomial(m)  # trigger the table cross-check before anything uses order m


def nonlinear_quadratures(layout: ModeLayout, mode: int, m: int) -> QuadraturePair:
    """Embedded Q^m, P^m for ``mode``; m must not exceed the tabulated range."""
    check_order(layout, mode, m)
    q, p = _embedded_quadratures(layout.dims, mode, m)
    return QuadraturePair(mode, m, q, p)


def f_operator(layout: ModeLayout, mode: int, m: int) -> TruncatedOperator:
    """Diagonal operator f_m(N_mode) on the full space."""
    poly = f_polynomial(m)
    diag_single = poly(np.arange(layout.dims[mode]))
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
