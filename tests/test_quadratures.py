import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hocov import (
    MAX_ORDER,
    ModeLayout,
    QuantumState,
    UnsupportedOrderError,
    f_operator,
    f_values,
    fock_state,
    nonlinear_quadratures,
    product_state,
    thermal_state,
    vacuum_state,
)
from hocov.sweep import CONVERGENCE_STEP, config_from_file
from reference import expectation, quadratures, symmetrized_covariance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# f_m(N) transcribed from the order-by-order commutator expansion, as exact
# ascending coefficients; an independent witness of the ladder identity that
# f_values evaluates
F_TABLE = {
    1: (Fraction(1, 2),),
    2: (Fraction(1), Fraction(2)),
    3: (Fraction(3), Fraction(9, 2), Fraction(9, 2)),
    4: (Fraction(12), Fraction(28), Fraction(12), Fraction(8)),
    5: (Fraction(60), Fraction(125), Fraction(275, 2), Fraction(25), Fraction(25, 2)),
    6: (Fraction(360), Fraction(942), Fraction(675), Fraction(480), Fraction(45), Fraction(18)),
    7: (Fraction(2520), Fraction(6174), Fraction(7448), Fraction(5145, 2), Fraction(2695, 2),
        Fraction(147, 2), Fraction(49, 2)),
    8: (Fraction(20160), Fraction(57312), Fraction(52528), Fraction(40208), Fraction(7840),
        Fraction(3248), Fraction(112), Fraction(32)),
    9: (Fraction(181440), Fraction(493128), Fraction(641142), Fraction(302778),
        Fraction(336609, 2), Fraction(20412), Fraction(6993), Fraction(162), Fraction(81, 2)),
}


def rising_falling_half(m, n):
    rising = 1
    falling = 1
    for i in range(1, m + 1):
        rising *= n + i
    for i in range(m):
        falling *= n - i
    return Fraction(rising - falling, 2)


def tabulated(m, n):
    acc = Fraction(0)
    for c in reversed(F_TABLE[m]):
        acc = acc * n + c
    return acc


def test_f_polynomial_exact_on_wide_range():
    # the transcribed table and the identity agree exactly, and f_values
    # reads the identity exactly in float64 while the rising product is
    # below 2**53
    assert sorted(F_TABLE) == list(range(1, MAX_ORDER + 1))
    for m in range(1, MAX_ORDER + 1):
        got = f_values(m, np.arange(31))
        for n in range(0, 31):
            assert tabulated(m, n) == rising_falling_half(m, n), (m, n)
            assert got[n] == rising_falling_half(m, n), (m, n)


def test_f_polynomial_at_vacuum():
    for m in range(1, MAX_ORDER + 1):
        assert f_values(m, 0) == Fraction(math.factorial(m), 2)


def test_f1_is_constant_half():
    grid = np.arange(50.0)
    assert np.all(f_values(1, grid) == 0.5)


def test_f_polynomial_rejects_out_of_range():
    with pytest.raises(UnsupportedOrderError):
        f_values(0, 3)
    with pytest.raises(UnsupportedOrderError):
        f_values(MAX_ORDER + 1, 3)


@pytest.mark.parametrize("name", ["window", "hierarchy", "competition"])
def test_f_values_exact_at_every_order_and_level_a_shipped_config_reaches(name):
    # the sweep and its check's boosted run read f_m at every Fock level of
    # the A and B cutoffs; there the rising product stays below 2**53, so
    # every float64 product and the difference are exact integers
    cfg = config_from_file(str(CONFIGS / f"{name}.cfg"))
    for dims in (cfg.dims, tuple(d + b for d, b in zip(cfg.dims, CONVERGENCE_STEP))):
        for n in cfg.hierarchy:
            for m, dim in ((n * cfg.k, dims[1]), (n * cfg.l, dims[2])):
                assert math.prod(range(dim, dim + m)) < 2 ** 53, (name, dims, n, m)
                got = f_values(m, np.arange(dim))
                assert all(got[level] == rising_falling_half(m, level)
                           for level in range(dim)), (name, dims, n, m)


def test_quadrature_hermiticity():
    lay = ModeLayout((8, 9))
    for m in (1, 2, 3):
        pair = nonlinear_quadratures(lay, 1, m)
        assert pair.q.hermitian
        assert pair.p.hermitian
        for op in (pair.q, pair.p):
            dense = op.data.toarray()
            assert np.abs(dense - dense.conj().T).max() < 1e-14


def test_commutator_matches_f_on_safe_block():
    dim = 20
    lay = ModeLayout((dim, 2))
    for m in (1, 2, 3, 4):
        pair = nonlinear_quadratures(lay, 0, m)
        q, p = pair.q.data, pair.p.data
        comm = q @ p - p @ q
        f_diag = f_operator(lay, 0, m).data
        resid = (comm - 1j * f_diag).toarray()
        # only levels with m of headroom below the cutoff are exact
        safe = (dim - m) * 2
        assert np.abs(resid[:safe, :safe]).max() < 1e-9, m


def test_quadrature_action_on_vacuum():
    lay = ModeLayout((12, 2))
    vac = vacuum_state(lay)
    for m in (1, 2, 3, 5):
        pair = nonlinear_quadratures(lay, 0, m)
        vec = pair.q.data @ vac.vector
        target = fock_state((m, 0), lay).vector * (np.sqrt(math.factorial(m)) / 2)
        assert np.abs(vec - target).max() < 1e-12
        # vacuum variance of Q^m is f_m(0)/2 = m!/4
        var = symmetrized_covariance(pair.q.data, pair.q.data, vac)
        assert var == pytest.approx(math.factorial(m) / 4, rel=1e-12)


def test_f_operator_diagonal_values():
    lay = ModeLayout((4, 5, 6))
    for mode, m in ((0, 2), (1, 1), (2, 3)):
        op = f_operator(lay, mode, m)
        assert op.hermitian
        dense = op.data.toarray()
        assert np.abs(dense - np.diag(np.diag(dense))).max() == 0
        for flat in range(lay.total_dim):
            occ = np.unravel_index(flat, lay.dims)[mode]
            assert dense[flat, flat].real == pytest.approx(float(rising_falling_half(m, int(occ))))


def test_expectation_pure_and_mixed_agree():
    rng = np.random.default_rng(11)
    lay = ModeLayout((5, 6))
    vec = rng.normal(size=30) + 1j * rng.normal(size=30)
    vec /= np.linalg.norm(vec)
    pure = QuantumState(lay, vector=vec)
    mixed = QuantumState(lay, matrix=np.outer(vec, vec.conj()))
    for m in (1, 2):
        for op in quadratures(lay, 1, m):
            assert expectation(op, pure) == pytest.approx(expectation(op, mixed), abs=1e-12)


def test_symmetrized_covariance_against_dense_formula():
    rng = np.random.default_rng(23)
    lay = ModeLayout((6, 7))
    q_a, p_a = quadratures(lay, 0, 2)
    q_b, p_b = quadratures(lay, 1, 1)
    for _ in range(20):
        vec = rng.normal(size=42) + 1j * rng.normal(size=42)
        vec /= np.linalg.norm(vec)
        state = QuantumState(lay, vector=vec)
        for op1, op2 in ((q_a, q_b), (p_a, p_b), (q_a, p_a)):
            m1 = op1.toarray()
            m2 = op2.toarray()
            anti = 0.5 * (m1 @ m2 + m2 @ m1)
            direct = np.vdot(vec, anti @ vec).real
            direct -= np.vdot(vec, m1 @ vec).real * np.vdot(vec, m2 @ vec).real
            got = symmetrized_covariance(op1, op2, state)
            assert got == pytest.approx(direct, abs=1e-10)


def test_symmetrized_covariance_on_mixed_state():
    lay = ModeLayout((40, 2))
    rho_a = thermal_state(0.4, 40)
    ground = np.eye(2, dtype=complex)[:, 0]
    state = product_state(lay, rho_a, ground)
    pair = nonlinear_quadratures(lay, 0, 1)
    # single-mode thermal state: Var(Q) = (2 n_th + 1)/4 in our scaling
    var = symmetrized_covariance(pair.q.data, pair.q.data, state)
    assert var == pytest.approx((2 * 0.4 + 1) / 4, abs=1e-12)
    assert symmetrized_covariance(pair.q.data, pair.p.data, state) == pytest.approx(0.0, abs=1e-12)


def test_nonlinear_quadratures_order_guards():
    lay = ModeLayout((4, 4))
    with pytest.raises(UnsupportedOrderError):
        nonlinear_quadratures(lay, 0, MAX_ORDER + 1)
    with pytest.raises(ValueError):
        nonlinear_quadratures(lay, 0, 4)
