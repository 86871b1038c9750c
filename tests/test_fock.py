import math
import re
import warnings

import numpy as np
import pytest

from hocov import (
    DegenerateStateError,
    ModeLayout,
    QuantumState,
    TruncationError,
    coherent_state,
    fock_state,
    product_state,
    thermal_state,
    top_level_population,
    vacuum_state,
)
from hocov.fock import occupations, shift
from reference import annihilation, creation, embed, number_operator, reference_ladder_product


def test_annihilation_matrix_elements():
    a = annihilation(6)
    for n in range(1, 6):
        assert a[n - 1, n] == pytest.approx(np.sqrt(n))
    assert np.count_nonzero(a) == 5


def test_ladder_commutator_on_safe_block():
    dim = 12
    a = annihilation(dim)
    comm = a @ creation(dim) - creation(dim) @ a
    # the top diagonal entry is corrupted by truncation, everything else exact
    assert np.allclose(comm[: dim - 1, : dim - 1], np.eye(dim - 1))
    assert comm[dim - 1, dim - 1] == pytest.approx(1 - dim)


def test_occupations_read_the_row_major_digits():
    lay = ModeLayout((3, 4, 5))
    flat = np.arange(lay.total_dim)
    for mode, digits in enumerate(np.unravel_index(flat, lay.dims)):
        assert np.array_equal(occupations(lay, flat, mode), digits)


@pytest.mark.parametrize("dims,shifts", [
    ((4, 5, 6), (-2, 0, 0)),
    ((4, 5, 6), (0, 3, 0)),
    ((4, 5, 6), (0, 0, -1)),
    ((4, 5, 6), (1, -2, 0)),
    ((4, 5, 6), (-1, 2, 3)),
    ((4, 5, 6), (1, -1, -2)),
    ((4, 5, 6), (2, 0, -3)),
    ((4, 5, 6), (0, 0, 0)),
    ((4, 5, 6), (4, 0, 0)),  # a+^4 on a dim-4 mode annihilates everything
    ((7, 6), (1, 1)),
    ((7, 6), (-3, -5)),
])
def test_shift_matches_the_embedded_ladder_powers(dims, shifts):
    lay = ModeLayout(dims)
    n = lay.total_dim
    rng = np.random.default_rng(sum(dims) + 7 * sum(abs(m) for m in shifts))
    # random indices plus the corners, where every mode sits at 0 or at its cutoff
    corners = [int(np.ravel_multi_index(c, dims))
               for c in np.stack(np.meshgrid(*[(0, d - 1) for d in dims])).reshape(len(dims), -1).T]
    idx = np.union1d(rng.choice(n, size=n // 3, replace=False), corners)
    rows, target, weight = shift(lay, idx, shifts)
    assert np.all(np.diff(target) > 0)  # sorted input, sorted targets
    assert np.all(weight > 0)
    out = reference_ladder_product(lay, shifts).toarray()[:, idx]  # the product on |idx[i]>
    expected = np.zeros((n, idx.size))
    expected[target, rows] = weight
    assert np.abs(out - expected).max() <= 1e-12 * max(1.0, np.abs(out).max())
    # an index is dropped exactly when the product annihilates it
    assert np.array_equal(rows, np.flatnonzero(np.abs(out).max(axis=0) > 0))


def test_number_operator_diagonal():
    n = number_operator(7)
    assert np.allclose(np.diag(n), np.arange(7))


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout((5,))
    with pytest.raises(ValueError):
        ModeLayout((5, 1))
    lay = ModeLayout((3, 4, 5))
    assert lay.total_dim == 60
    assert (lay.pump, lay.mode_a, lay.mode_b) == (0, 1, 2)
    two = ModeLayout((4, 5))
    assert (two.mode_a, two.mode_b) == (0, 1)
    assert two.pump is None
    # a dim that is not an integer is refused, not truncated
    for dims, bad in (((12, 6.5, 11), "6.5"), (("12", 6, 11), "'12'"), ((12, True, 11), "True"),
                      ((12.0, 6, 11), "12.0")):
        with pytest.raises(ValueError, match=rf"must be an integer, got {re.escape(bad)} in"):
            ModeLayout(dims)
    assert ModeLayout((np.int64(4), 5)).dims == (4, 5)


def test_embed_index_convention():
    # flat index (n_p * dim_a + n_a) * dim_b + n_b
    lay = ModeLayout((3, 4, 5))
    state = fock_state((2, 1, 3), lay)
    flat = (2 * 4 + 1) * 5 + 3
    assert state.vector[flat] == 1.0
    for mode, occ in ((0, 2), (1, 1), (2, 3)):
        n_op = embed(number_operator(lay.dims[mode]), mode, lay)
        val = np.vdot(state.vector, n_op @ state.vector)
        assert val == pytest.approx(occ)


def test_operator_dagger_and_matmul():
    # a+ a = N for the embedded ladder operator of every mode
    lay = ModeLayout((4, 3))
    for mode, dim in enumerate(lay.dims):
        a_full = embed(annihilation(dim), mode, lay)
        direct = embed(number_operator(dim), mode, lay)
        assert abs(a_full.conj().T @ a_full - direct).max() < 1e-14


def test_coherent_state_poisson_populations():
    alpha = 1.2
    dim = 30
    vec = coherent_state(alpha, dim)
    pops = np.abs(vec) ** 2
    mean = alpha**2
    expected = np.exp(-mean) * mean ** np.arange(dim) / [
        float(math.factorial(n)) for n in range(dim)
    ]
    assert np.abs(pops - expected).max() < 1e-12
    # annihilation eigenstate up to truncation
    a = annihilation(dim)
    resid = a @ vec - alpha * vec
    assert np.abs(resid[: dim - 5]).max() < 1e-9
    # alpha = 0 is the vacuum
    assert np.array_equal(coherent_state(0, dim), np.eye(dim, dtype=complex)[0])


def test_coherent_state_far_below_its_mean_stays_finite():
    # every term of |50> below n = 20 is under exp(-1250) relative to the mean,
    # so unscaled weights underflow to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = coherent_state(50.0, 20, allow_truncation=True)
    assert np.isfinite(vec).all()
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(vec[1:] / vec[:-1], 50.0 / np.sqrt(np.arange(1, 20)), rtol=1e-12, atol=0)


def test_coherent_state_truncation_guard():
    with pytest.raises(TruncationError):
        coherent_state(4.0, 20)
    vec = coherent_state(4.0, 20, allow_truncation=True)
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    # NaN passes a |alpha|^2 > dim/4 guard, so non-finite alpha is refused first
    for bad in (float("nan"), complex(1.0, float("inf")), np.nan * 1j):
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_state(bad, 6, allow_truncation=True)


def test_thermal_state_geometric_weights():
    rho = thermal_state(0.5, 3)
    expected = np.array([9.0, 3.0, 1.0]) / 13.0
    assert np.abs(np.diag(rho) - expected).max() < 1e-14
    big = thermal_state(0.5, 60)
    mean = np.diag(big) @ np.arange(60)
    assert mean == pytest.approx(0.5, abs=1e-10)


def test_thermal_state_zero_temperature():
    rho = thermal_state(0.0, 4)
    assert rho[0, 0] == pytest.approx(1.0)
    assert np.abs(rho).sum() == pytest.approx(1.0)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="n_th must be finite and >= 0"):
            thermal_state(bad, 4)


def test_vacuum_and_product_states():
    lay = ModeLayout((3, 4, 5))
    vac = vacuum_state(lay)
    assert vac.is_pure
    assert vac.vector[0] == 1.0
    assert vac.norm() == pytest.approx(1.0)

    pump = coherent_state(0.7, 3, allow_truncation=True)
    ground_a = np.eye(4, dtype=complex)[:, 0]
    ground_b = np.eye(5, dtype=complex)[:, 0]
    psi = product_state(lay, pump, ground_a, ground_b)
    assert psi.is_pure
    # pump populations must match the single-mode ones
    assert np.abs(psi.mode_populations(0) - np.abs(pump) ** 2).max() < 1e-14


def test_product_state_with_mixed_factor():
    lay = ModeLayout((3, 4))
    rho_a = thermal_state(0.3, 3)
    ground = np.eye(4, dtype=complex)[:, 0]
    state = product_state(lay, rho_a, ground)
    assert not state.is_pure
    assert state.matrix.shape == (12, 12)
    assert np.trace(state.matrix).real == pytest.approx(1.0)
    assert np.abs(state.mode_populations(0) - np.diag(rho_a).real).max() < 1e-14
    # a factor the renormalization would divide by zero or carry NaN through
    for bad, match in ((np.zeros(4), "factor 1 must be finite with a positive norm"),
                       (np.full(4, np.nan), "factor 1 must be finite with a positive norm"),
                       (np.zeros((4, 4)), "factor 1 must be finite with a positive trace")):
        with pytest.raises(ValueError, match=match):
            product_state(lay, rho_a, bad)
        with pytest.raises(ValueError, match=match):
            product_state(lay, np.eye(3)[:, 0], bad)


def test_mode_populations_sum_to_one():
    rng = np.random.default_rng(7)
    lay = ModeLayout((3, 4, 5))
    vec = rng.normal(size=60) + 1j * rng.normal(size=60)
    vec /= np.linalg.norm(vec)
    state = QuantumState(lay, vector=vec)
    for mode in range(3):
        pops = state.mode_populations(mode)
        assert pops.sum() == pytest.approx(1.0)
        assert pops.min() >= 0


def test_density_matches_outer_product():
    lay = ModeLayout((2, 3))
    rng = np.random.default_rng(3)
    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    vec /= np.linalg.norm(vec)
    state = QuantumState(lay, vector=vec)
    assert np.abs(state.density() - np.outer(vec, vec.conj())).max() < 1e-14


def test_state_requires_exactly_one_representation():
    lay = ModeLayout((2, 2))
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1.0
    with pytest.raises(ValueError):
        QuantumState(lay)
    with pytest.raises(ValueError):
        QuantumState(lay, vector=vec, matrix=np.outer(vec, vec))


def test_state_refuses_a_non_hermitian_density_matrix():
    lay = ModeLayout((2, 2))
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rho[0, 1] = 0.25
    with pytest.raises(ValueError, match="Hermitian"):
        QuantumState(lay, matrix=rho)
    rho[1, 0] = 0.25
    assert QuantumState(lay, matrix=rho).matrix[1, 0] == 0.25
    # a density matrix must also have unit trace, as evolve holds a pure state's norm
    for scale, trace in ((2.0, r"2\.000000000000"), (1.0 + 2e-8, r"1\.000000020000")):
        with pytest.raises(ValueError, match=rf"unit trace; its trace is {trace}$"):
            QuantumState(lay, matrix=scale * rho)
    QuantumState(lay, matrix=(1.0 + 5e-9) * rho)
    with pytest.raises(ValueError, match="Hermitian"):
        QuantumState(lay, matrix=np.full((4, 4), np.nan))


def test_state_arrays_are_frozen():
    lay = ModeLayout((2, 2))
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1.0
    idx, amp = np.array([0, 3]), np.array([0.6, 0.8j])
    for state in (QuantumState(lay, vector=vec), QuantumState.on_support(lay, idx, amp)):
        for arr in (state.vector, state.support, state.amplitudes):
            with pytest.raises(ValueError):
                arr[0] = 0
    # the caller's arrays are not frozen with them
    vec[1] = idx[1] = amp[1] = 0


def test_on_support_matches_the_dense_form():
    lay = ModeLayout((3, 4, 5))
    idx = np.array([2, 17, 18, 59])
    amp = np.array([0.5, -0.5j, 0.5, 0.5j])
    state = QuantumState.on_support(lay, idx, amp, time=0.25)
    dense = QuantumState(lay, vector=state.vector)
    assert state.is_pure and state.time == 0.25
    assert np.array_equal(dense.support, idx) and np.array_equal(dense.amplitudes, amp)
    assert np.count_nonzero(state.vector) == 4
    assert state.norm() == pytest.approx(1.0)
    assert np.array_equal(state.populations(), dense.populations())
    # QuantumState(vector=...) keeps only the nonzero amplitudes
    assert np.array_equal(fock_state((1, 2, 3), lay).support, [1 * 20 + 2 * 5 + 3])
    for bad_idx, bad_amp in (([17, 2], [1, 0]), ([2, 2], [1, 0]), ([0, 60], [1, 0]),
                             ([-1, 3], [1, 0]), ([0, 3], [1.0]), ([0.0, 3.0], [1, 0])):
        with pytest.raises(ValueError):
            QuantumState.on_support(lay, np.array(bad_idx), bad_amp)


def test_top_level_population():
    lay = ModeLayout((3, 4))
    state = fock_state((2, 0), lay)
    pops = top_level_population(state)
    assert pops[0] == pytest.approx(1.0)
    assert pops[1] == pytest.approx(0.0)

    # against the marginals of random pure and mixed three-mode states
    rng = np.random.default_rng(4)
    lay = ModeLayout((3, 4, 5))
    psi = rng.normal(size=60) + 1j * rng.normal(size=60)
    g = rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))
    rho = g @ g.conj().T
    for st in (QuantumState(lay, vector=psi / np.linalg.norm(psi)),
               QuantumState(lay, matrix=rho / np.trace(rho).real)):
        for levels in (1, 2, 3):
            pops = top_level_population(st, levels)
            for mode in range(3):
                marginal = st.mode_populations(mode)[-levels:].sum()
                assert pops[mode] == pytest.approx(marginal, abs=1e-14)


def test_fock_state_occupation_bounds():
    lay = ModeLayout((3, 4))
    with pytest.raises(ValueError):
        fock_state((3, 0), lay)
    with pytest.raises(ValueError):
        fock_state((0,), lay)
