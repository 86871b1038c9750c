import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from hocov import (
    EvolutionConfig,
    IntegratorError,
    InteractionSpec,
    ModeLayout,
    QuantumState,
    annihilation,
    build_classical_pump_hamiltonian,
    build_hamiltonian,
    coherent_state,
    embed,
    evolve,
    expectation,
    number_operator,
    product_state,
    thermal_state,
    vacuum_state,
)
from hocov.dynamics import _sector_blocks


def trilinear_setup(dims=(6, 5, 9), k=1, l=2, kappa=1.0):
    lay = ModeLayout(dims)
    spec = InteractionSpec(lay, k=k, l=l, kappa=kappa)
    return lay, build_hamiltonian(spec)


def test_hamiltonian_is_hermitian_and_traceless():
    lay, h = trilinear_setup()
    dense = h.data.toarray()
    assert np.abs(dense - dense.conj().T).max() < 1e-14
    assert abs(np.trace(dense)) < 1e-14
    assert h.hermitian


def kronecker_hamiltonian(spec, alpha_p=None):
    """Reference H from embedded single-mode operators and sparse products."""
    lay = spec.layout
    if alpha_p is None:
        adag_k = np.linalg.matrix_power(annihilation(lay.dims[1]).T, spec.k)
        bdag_l = np.linalg.matrix_power(annihilation(lay.dims[2]).T, spec.l)
        up = (embed(adag_k, 1, lay).data @ embed(bdag_l, 2, lay).data
              @ embed(annihilation(lay.dims[0]), 0, lay).data)
        g = spec.kappa
    else:
        up = embed(annihilation(lay.dims[0]).T, 0, lay).data @ embed(annihilation(lay.dims[1]).T, 1, lay).data
        g = spec.kappa * alpha_p
    return (1j * g * (up - up.conj().T)).tocsr()


def assert_same_operator(h, ref):
    ref.sort_indices()
    assert h.nnz == ref.nnz
    assert np.all(h.data != 0)
    assert np.array_equal(h.indptr, ref.indptr)
    assert np.array_equal(h.indices, ref.indices)
    assert np.abs(h.data - ref.data).max() <= 1e-12 * np.abs(ref.data).max()


@pytest.mark.parametrize("k,l", [(1, 2), (1, 3), (2, 1), (2, 3)])
@pytest.mark.parametrize("dims", [(5, 7, 8), (6, 4, 12), (9, 11, 13), (2, 4, 4)])
def test_banded_hamiltonian_matches_kronecker_construction(k, l, dims):
    spec = InteractionSpec(ModeLayout(dims), k=k, l=l, kappa=1.7)
    assert_same_operator(build_hamiltonian(spec).data, kronecker_hamiltonian(spec))


@pytest.mark.parametrize("dims", [(2, 2), (5, 9), (12, 7), (24, 24)])
def test_classical_pump_matches_kronecker_construction(dims):
    spec = InteractionSpec(ModeLayout(dims), k=1, l=1, kappa=0.8)
    assert_same_operator(build_classical_pump_hamiltonian(spec, 2.5).data,
                         kronecker_hamiltonian(spec, alpha_p=2.5))


def planted_hermitian(rng, sizes):
    """Random sparse Hermitian matrix whose components are random trees over
    the given sizes (plus random extra edges), on a shuffled index set; its
    entries are purely imaginary, like the interaction's."""
    n = sum(sizes)
    perm = rng.permutation(n)
    rows, cols = [], []
    start = 0
    for size in sizes:
        members = perm[start:start + size]
        for j in range(1, size):
            rows.append(members[j])
            cols.append(members[rng.integers(j)])
        for _ in range(size // 3):
            a, b = rng.choice(members, 2)
            rows.append(a)
            cols.append(b)
        start += size
    vals = 1j * rng.uniform(0.5, 2.0, size=len(rows))
    up = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return (up + up.conj().T).tocsr()


def whole_graph_blocks(h, support):
    _, labels = connected_components(abs(h), directed=False)
    hit = np.unique(labels[support])
    return {tuple(np.flatnonzero(labels == lab)) for lab in hit}


def test_support_walk_finds_the_blocks_of_whole_graph_labelling():
    rng = np.random.default_rng(11)
    for _ in range(30):
        sizes = list(rng.integers(1, 9, size=rng.integers(3, 25)))
        h = planted_hermitian(rng, sizes)
        n = h.shape[0]
        _, labels = connected_components(abs(h), directed=False)
        big = np.flatnonzero(labels == np.bincount(labels).argmax())
        supports = [
            np.arange(n),  # a full-support density matrix
            np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False)),
            np.sort(rng.choice(big, size=min(2, len(big)), replace=False)),  # two states in one block
            np.array([rng.integers(n)]),
        ]
        for support in supports:
            blocks = _sector_blocks(h, support, 1e-9)
            assert {tuple(np.sort(idx)) for idx, _, _ in blocks} == whole_graph_blocks(h, support)
            for idx, lam, vec in blocks:
                hb = h[idx][:, idx].toarray()
                assert np.abs(hb @ vec - vec * lam).max() < 1e-12


def test_support_walk_on_the_interaction():
    lay, h = trilinear_setup(dims=(7, 6, 11), k=1, l=2)
    pump = coherent_state(1.1, 7)
    psi0 = product_state(lay, pump, np.eye(6, dtype=complex)[:, 0], np.eye(11, dtype=complex)[:, 0])
    blocks = _sector_blocks(h.data, psi0.support, 1e-9)
    assert {tuple(np.sort(idx)) for idx, _, _ in blocks} == whole_graph_blocks(h.data, psi0.support)
    # one chain |n0 - j, j, 2j> per pump number, cut by the A and B cutoffs
    assert sorted(len(idx) for idx, _, _ in blocks) == sorted(min(n0, 5) + 1 for n0 in range(7))


def test_builder_validation():
    lay3 = ModeLayout((4, 4, 4))
    with pytest.raises(ValueError):
        build_hamiltonian(InteractionSpec(lay3, k=1, l=1))
    with pytest.raises(ValueError):
        build_hamiltonian(InteractionSpec(ModeLayout((4, 4)), k=1, l=2))
    with pytest.raises(ValueError):
        build_hamiltonian(InteractionSpec(ModeLayout((4, 3, 8)), k=3, l=2))
    with pytest.raises(ValueError):
        InteractionSpec(lay3, k=0, l=2)
    with pytest.raises(ValueError):
        InteractionSpec(lay3, k=1, l=2, kappa=-1.0)
    with pytest.raises(ValueError):
        build_classical_pump_hamiltonian(InteractionSpec(ModeLayout((4, 4)), k=1, l=2), 2.0)
    with pytest.raises(ValueError):
        build_classical_pump_hamiltonian(InteractionSpec(lay3, k=1, l=1), 2.0)


def test_conserved_charges_commute_exactly():
    # each conversion event moves one pump photon into k photons of A and l of B,
    # so l*N_A - k*N_B and k*N_P + N_A commute with H
    for k, l in ((1, 2), (2, 1), (1, 3), (2, 2)):
        lay = ModeLayout((5, 7, 8))
        h = build_hamiltonian(InteractionSpec(lay, k=k, l=l)).data
        n_p = embed(number_operator(5), 0, lay).data
        n_a = embed(number_operator(7), 1, lay).data
        n_b = embed(number_operator(8), 2, lay).data
        charge1 = l * n_a - k * n_b
        charge2 = k * n_p + n_a
        for q in (charge1, charge2):
            comm = (h @ q - q @ h).toarray()
            assert np.abs(comm).max() < 1e-12, (k, l)


def test_classical_pump_reproduces_two_mode_squeezing():
    dim = 24
    lay = ModeLayout((dim, dim))
    spec = InteractionSpec(lay, k=1, l=1, kappa=1.0)
    alpha_p = 2.0
    h = build_classical_pump_hamiltonian(spec, alpha_p)
    r = 0.5
    cfg = EvolutionConfig(xi_grid=(0.0, r), kappa=1.0, alpha_p=alpha_p)
    final = evolve(vacuum_state(lay), h, cfg)[-1]
    n_a = embed(number_operator(dim), 0, lay)
    assert expectation(n_a, final).real == pytest.approx(np.sinh(r) ** 2, abs=1e-8)
    # Schmidt amplitudes tanh(r)^n / cosh(r) on the twin-photon diagonal
    grid = final.vector.reshape(dim, dim)
    for n in range(8):
        target = np.tanh(r) ** n / np.cosh(r)
        assert grid[n, n].real == pytest.approx(target, abs=1e-9)
        assert abs(grid[n, n].imag) < 1e-9
    off = grid - np.diag(np.diag(grid))
    assert np.abs(off).max() < 1e-9


def test_evolve_against_dense_expm():
    lay, h = trilinear_setup(dims=(3, 3, 5))
    pump = coherent_state(0.6, 3, allow_truncation=True)
    ground_a = np.eye(3, dtype=complex)[:, 0]
    ground_b = np.eye(5, dtype=complex)[:, 0]
    psi0 = product_state(lay, pump, ground_a, ground_b)
    cfg = EvolutionConfig(xi_grid=(0.0, 0.2, 0.4), kappa=1.0, alpha_p=1.5)
    states = evolve(psi0, h, cfg)
    dense = h.data.toarray()
    for state, t in zip(states, cfg.times()):
        direct = expm(-1j * t * dense) @ psi0.vector
        assert np.abs(state.vector - direct).max() < 1e-9


def test_evolve_against_expm_multiply():
    lay, h = trilinear_setup(dims=(8, 6, 11), k=1, l=2)
    pump = coherent_state(1.2, 8)
    ground_a = np.eye(6, dtype=complex)[:, 0]
    ground_b = np.eye(11, dtype=complex)[:, 0]
    psi0 = product_state(lay, pump, ground_a, ground_b)
    xi = 0.5
    cfg = EvolutionConfig(xi_grid=(0.0, xi), kappa=1.0, alpha_p=1.2)
    final = evolve(psi0, h, cfg)[-1]
    t = xi / 1.2
    direct = expm_multiply(-1j * t * h.data.tocsc(), psi0.vector)
    assert np.abs(final.vector - direct).max() < 1e-8


def test_large_norm_long_interval_against_dense_expm():
    # k=1, l=3 gives a large spectral norm and a random state spreads over
    # every sector: the interval a fixed-size Krylov stepper must subdivide
    lay, h = trilinear_setup(dims=(6, 4, 12), k=1, l=3)
    rng = np.random.default_rng(5)
    v = rng.normal(size=lay.total_dim) + 1j * rng.normal(size=lay.total_dim)
    psi0 = QuantumState(lay, vector=v / np.linalg.norm(v))
    cfg = EvolutionConfig(xi_grid=(0.0, 1.0, 6.0), kappa=1.0, alpha_p=1.2)
    dense = h.data.toarray()
    assert np.linalg.norm(dense, 2) * cfg.times()[-1] > 500
    for state, t in zip(evolve(psi0, h, cfg), cfg.times()):
        direct = expm(-1j * t * dense) @ psi0.vector
        assert np.abs(state.vector - direct).max() < 1e-10


def test_dense_density_matrix_against_expm():
    lay, h = trilinear_setup(dims=(3, 3, 5))
    rng = np.random.default_rng(7)
    g = rng.normal(size=(lay.total_dim,) * 2) + 1j * rng.normal(size=(lay.total_dim,) * 2)
    rho0 = g @ g.conj().T
    rho0 /= np.trace(rho0).real
    cfg = EvolutionConfig(xi_grid=(0.0, 0.3, 0.7), kappa=1.0, alpha_p=1.0)
    states = evolve(QuantumState(lay, matrix=rho0), h, cfg)
    dense = h.data.toarray()
    for state, t in zip(states, cfg.times()):
        u = expm(-1j * t * dense)
        assert np.abs(state.matrix - u @ rho0 @ u.conj().T).max() < 1e-12


def test_result_does_not_depend_on_grid():
    lay, h = trilinear_setup(dims=(8, 6, 11))
    pump = coherent_state(1.2, 8)
    psi0 = product_state(
        lay, pump, np.eye(6, dtype=complex)[:, 0], np.eye(11, dtype=complex)[:, 0]
    )
    xi = 0.9
    coarse = evolve(psi0, h, EvolutionConfig(xi_grid=(0.0, xi), kappa=1.0, alpha_p=1.2))
    fine_grid = tuple(np.linspace(0.0, xi, 46))
    fine = evolve(psi0, h, EvolutionConfig(xi_grid=fine_grid, kappa=1.0, alpha_p=1.2))
    assert fine_grid[-1] == xi
    assert np.abs(coarse[-1].vector - fine[-1].vector).max() < 1e-12


def test_eigen_residual_above_tol_raises():
    lay, h = trilinear_setup(dims=(6, 5, 9))
    psi0 = product_state(
        lay, coherent_state(1.0, 6), np.eye(5, dtype=complex)[:, 0], np.eye(9, dtype=complex)[:, 0]
    )
    with pytest.raises(IntegratorError) as err:
        evolve(psi0, h, EvolutionConfig(xi_grid=(0.0, 0.3), kappa=1.0, alpha_p=1.0, tol=1e-30))
    assert 0.0 < err.value.residual < 1e-9


def test_photon_number_ratio_follows_process_orders():
    for k, l, dims in ((1, 2, (6, 8, 15)), (2, 1, (6, 11, 6))):
        lay = ModeLayout(dims)
        h = build_hamiltonian(InteractionSpec(lay, k=k, l=l))
        pump = coherent_state(1.0, dims[0])
        psi0 = product_state(
            lay, pump, np.eye(dims[1], dtype=complex)[:, 0], np.eye(dims[2], dtype=complex)[:, 0]
        )
        cfg = EvolutionConfig(xi_grid=(0.0, 0.15, 0.3), kappa=1.0, alpha_p=1.0)
        final = evolve(psi0, h, cfg)[-1]
        na = expectation(embed(number_operator(dims[1]), 1, lay), final).real
        nb = expectation(embed(number_operator(dims[2]), 2, lay), final).real
        assert na > 1e-4
        assert nb * k == pytest.approx(na * l, rel=1e-8)


def test_energy_and_norm_conservation():
    lay, h = trilinear_setup(dims=(8, 6, 11))
    pump = coherent_state(1.3, 8)
    psi0 = product_state(
        lay, pump, np.eye(6, dtype=complex)[:, 0], np.eye(11, dtype=complex)[:, 0]
    )
    grid = tuple(np.round(np.arange(0.0, 0.61, 0.1), 10))
    cfg = EvolutionConfig(xi_grid=grid, kappa=1.0, alpha_p=1.3)
    for state in evolve(psi0, h, cfg):
        assert state.norm() == pytest.approx(1.0, abs=1e-9)
        assert abs(expectation(h, state)) < 1e-8


def test_time_reversal_recovers_initial_state():
    lay, h = trilinear_setup(dims=(6, 5, 9))
    pump = coherent_state(1.0, 6)
    psi0 = product_state(
        lay, pump, np.eye(5, dtype=complex)[:, 0], np.eye(9, dtype=complex)[:, 0]
    )
    cfg = EvolutionConfig(xi_grid=(0.0, 0.35), kappa=1.0, alpha_p=1.0)
    forward = evolve(psi0, h, cfg)[-1]
    h_rev = type(h)(h.layout, (-h.data).tocsr(), hermitian=True)
    fwd_state = type(psi0)(lay, vector=forward.vector)
    back = evolve(fwd_state, h_rev, cfg)[-1]
    assert np.abs(back.vector - psi0.vector).max() < 1e-8


def test_mixed_state_evolution_matches_branch_mixture():
    lay, h = trilinear_setup(dims=(4, 4, 7))
    ground_a = np.eye(4, dtype=complex)[:, 0]
    ground_b = np.eye(7, dtype=complex)[:, 0]
    rho_p = thermal_state(0.3, 4)
    mixed0 = product_state(lay, rho_p, ground_a, ground_b)
    cfg = EvolutionConfig(xi_grid=(0.0, 0.25), kappa=1.0, alpha_p=1.0)
    rho_final = evolve(mixed0, h, cfg)[-1]
    assert not rho_final.is_pure

    manual = np.zeros((lay.total_dim, lay.total_dim), dtype=complex)
    weights = np.diag(rho_p).real
    for n, w in enumerate(weights):
        if w < 1e-14:
            continue
        pump_vec = np.zeros(4, dtype=complex)
        pump_vec[n] = 1.0
        branch0 = product_state(lay, pump_vec, ground_a, ground_b)
        branch = evolve(branch0, h, cfg)[-1]
        manual += w * np.outer(branch.vector, branch.vector.conj())
    assert np.abs(rho_final.matrix - manual).max() < 1e-9


def test_truncation_guard_note_attached():
    # deliberately starve mode A so the wavefunction piles up at the cutoff
    lay = ModeLayout((8, 3, 5))
    h = build_hamiltonian(InteractionSpec(lay, k=1, l=2))
    pump = coherent_state(1.4, 8)
    psi0 = product_state(
        lay, pump, np.eye(3, dtype=complex)[:, 0], np.eye(5, dtype=complex)[:, 0]
    )
    cfg = EvolutionConfig(xi_grid=(0.0, 1.2), kappa=1.0, alpha_p=1.4)
    final = evolve(psi0, h, cfg)[-1]
    assert any("truncation guard" in note for note in final.notes)


def test_evolution_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(xi_grid=(0.1, 0.2), kappa=1.0, alpha_p=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(xi_grid=(0.0, 0.2, 0.2), kappa=1.0, alpha_p=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(xi_grid=(0.0, 0.2), kappa=-1.0, alpha_p=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(xi_grid=(0.0, 0.2), kappa=1.0, alpha_p=1.0, tol=0.0)


def test_layout_mismatch_raises():
    lay, h = trilinear_setup(dims=(4, 4, 7))
    other = vacuum_state(ModeLayout((4, 4, 8)))
    cfg = EvolutionConfig(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0)
    with pytest.raises(ValueError):
        evolve(other, h, cfg)
