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

Q^m and P^m are the one band pair ``fock.two_band`` writes for the shift
a+^m on one mode, with c = 1/2 and c = i/2, and ``f_operator`` is the
diagonal entry list (rows, rows, f_m); both need numpy only. Nothing on
the sweep path forms them: the covariance reads the same ladder powers
through ``fock.shift``.
"""

from __future__ import annotations

import numpy as np

from .fock import ModeLayout, TruncatedOperator, occupations, two_band

MAX_ORDER = 9


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


def check_order(layout: ModeLayout, mode: int, m: int) -> None:
    """Refuse a quadrature order outside 1..MAX_ORDER or not below the mode cutoff."""
    if not 1 <= m <= MAX_ORDER:
        raise UnsupportedOrderError(f"quadrature order m={m} outside 1..{MAX_ORDER}")
    if m >= layout.dims[mode]:
        raise ValueError(f"m={m} needs mode dim > m, got {layout.dims[mode]}")


def nonlinear_quadratures(layout: ModeLayout, mode: int,
                          m: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """The pair (Q^m, P^m), Q^m = (a^m + a+^m)/2 and P^m = i(a+^m - a^m)/2,
    of ``mode`` on the full space; m must not exceed MAX_ORDER."""
    check_order(layout, mode, m)
    shifts = [m if i == mode else 0 for i in range(layout.nmodes)]
    return tuple(TruncatedOperator(layout, two_band(layout, shifts, c), hermitian=True)
                 for c in (0.5, 0.5j))


def f_operator(layout: ModeLayout, mode: int, m: int) -> TruncatedOperator:
    """Diagonal operator f_m(N_mode) on the full space."""
    rows = np.arange(layout.total_dim)
    return TruncatedOperator(layout, (rows, rows, f_values(m, occupations(layout, rows, mode))),
                             hermitian=True)
