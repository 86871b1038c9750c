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
    vacuum_state,
)
import hocov.dynamics
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


def fock_charges(lay, k, l):
    """l N_A - k N_B of every flat Fock index, and the pump, A and B digits."""
    n_p, n_a, n_b = np.unravel_index(np.arange(lay.total_dim), lay.dims)
    return l * n_a - k * n_b, n_p, n_a, n_b


@pytest.mark.parametrize("k,l", [(1, 2), (1, 3), (2, 1), (2, 3)])
@pytest.mark.parametrize("dims", [(5, 7, 8), (6, 4, 12), (9, 11, 13), (2, 4, 4)])
def test_charge_blocks_sum_to_the_full_hamiltonian(k, l, dims):
    lay = ModeLayout(dims)
    spec = InteractionSpec(lay, k=k, l=l, kappa=1.7)
    full = build_hamiltonian(spec).data
    charges, n_p, n_a, n_b = fock_charges(lay, k, l)
    # a raising event needs a pump photon and room in A and B; a lowering
    # event room in the pump and k photons in A, l in B
    ups = (n_p >= 1) & (n_a + k < dims[1]) & (n_b + l < dims[2])
    downs = (n_p + 1 < dims[0]) & (n_a >= k) & (n_b >= l)
    total = sparse.csr_matrix(full.shape, dtype=complex)
    for q in np.unique(charges):
        block = build_hamiltonian(spec, charge=q).data
        assert block.shape == full.shape
        rows = np.repeat(np.arange(full.shape[0]), np.diff(block.indptr))
        assert np.all(charges[rows] == q)
        assert np.all(charges[block.indices] == q)
        in_q = charges == q
        assert block.nnz == np.count_nonzero(ups & in_q) + np.count_nonzero(downs & in_q)
        total = total + block
    assert np.array_equal(total.indptr, full.indptr)
    assert np.array_equal(total.indices, full.indices)
    assert np.array_equal(total.data, full.data)


def test_charge_block_must_be_an_integer():
    spec = InteractionSpec(ModeLayout((4, 4, 8)), k=1, l=2)
    for bad in (0.5, "0", True):
        with pytest.raises(ValueError, match="charge"):
            build_hamiltonian(spec, charge=bad)
    # a charge no state carries leaves H_q empty
    assert build_hamiltonian(spec, charge=100).data.nnz == 0


@pytest.mark.parametrize("k,l,dims", [(1, 2, (7, 6, 11)), (1, 3, (6, 4, 12)), (2, 1, (6, 9, 5))])
def test_charge_block_evolves_its_sector_like_the_full_hamiltonian(k, l, dims):
    from hocov.sweep import SweepConfig, _initial_state

    lay = ModeLayout(dims)
    spec = InteractionSpec(lay, k=k, l=l)
    full = build_hamiltonian(spec)
    charges = fock_charges(lay, k, l)[0]
    cfg = EvolutionConfig(xi_grid=(0.0, 0.2, 0.5), kappa=1.0, alpha_p=1.1)
    # the sweep's initial state lies in sector 0
    psi0 = _initial_state(SweepConfig(k=k, l=l, alpha_p=1.1, dims=dims, hierarchy=(1,)), lay)
    assert np.all(charges[psi0.support] == 0)
    # one A photon and no B photon: sector l
    pump = coherent_state(1.1, dims[0], allow_truncation=True)
    psi_l = product_state(lay, pump, np.eye(dims[1], dtype=complex)[:, 1],
                          np.eye(dims[2], dtype=complex)[:, 0])
    assert np.all(charges[psi_l.support] == l)
    for psi, q in ((psi0, 0), (psi_l, l)):
        block = build_hamiltonian(spec, charge=q)
        for j, (a, b) in enumerate(zip(evolve(psi, block, cfg), evolve(psi, full, cfg))):
            assert np.abs(a.vector - b.vector).max() < 1e-12
            assert j == 0 or np.abs(a.vector - psi.vector).max() > 1e-3
    # H_0 leaves the sector-l state where it was
    for state in evolve(psi_l, build_hamiltonian(spec, charge=0), cfg):
        assert np.array_equal(state.vector, psi_l.vector)


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


@pytest.mark.parametrize("k,l,dims", [(1, 2, (7, 6, 11)), (1, 3, (6, 4, 12)), (2, 1, (6, 9, 5))])
def test_evolved_states_hold_their_chains_only(k, l, dims):
    lay, h = trilinear_setup(dims=dims, k=k, l=l)
    pump = coherent_state(1.1, dims[0], allow_truncation=True)
    psi0 = product_state(lay, pump, np.eye(dims[1], dtype=complex)[:, 0],
                         np.eye(dims[2], dtype=complex)[:, 0])
    # chain |n0 - j, k j, l j> for j <= min(n0, (d_A - 1) // k, (d_B - 1) // l)
    last = [min(n0, (dims[1] - 1) // k, (dims[2] - 1) // l) for n0 in range(dims[0])]
    chains = sorted(((n0 - j) * dims[1] + k * j) * dims[2] + l * j
                    for n0 in range(dims[0]) for j in range(last[n0] + 1))
    assert len(chains) == sum(j + 1 for j in last) < lay.total_dim
    cfg = EvolutionConfig(xi_grid=(0.0, 0.2, 0.5), kappa=1.0, alpha_p=1.1)
    for state in evolve(psi0, h, cfg):
        assert state.support.size == state.amplitudes.size == len(chains)
        assert np.array_equal(state.support, chains)
        off = np.ones(lay.total_dim, dtype=bool)
        off[state.support] = False
        assert not state.vector[off].any()


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
    with pytest.raises(ValueError, match="kappa must be positive and finite"):
        InteractionSpec(lay3, k=1, l=2, kappa=float("inf"))
    with pytest.raises(ValueError):
        build_classical_pump_hamiltonian(InteractionSpec(ModeLayout((4, 4)), k=1, l=2), 2.0)
    with pytest.raises(ValueError):
        build_classical_pump_hamiltonian(InteractionSpec(lay3, k=1, l=1), 2.0)


@pytest.mark.parametrize("bad,match", [
    (dict(xi_grid=(0.0, float("nan"))), "xi_grid must be finite"),
    (dict(xi_grid=(0.0, 0.1, float("inf"))), "xi_grid must be finite"),
    (dict(xi_grid=(0.0, 0.2, 0.1)), "strictly increasing"),
    (dict(kappa=float("inf")), "kappa and alpha_p must be positive and finite"),
    (dict(alpha_p=float("nan")), "kappa and alpha_p must be positive and finite"),
    (dict(tol=float("inf")), "tolerance must be positive and finite"),
])
def test_evolution_config_refuses_non_finite_values(bad, match):
    with pytest.raises(ValueError, match=match):
        EvolutionConfig(**{**dict(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0), **bad})


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


def test_evolution_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(xi_grid=(0.1, 0.2), kappa=1.0, alpha_p=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(xi_grid=(0.0, 0.2, 0.2), kappa=1.0, alpha_p=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(xi_grid=(0.0, 0.2), kappa=-1.0, alpha_p=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(xi_grid=(0.0, 0.2), kappa=1.0, alpha_p=1.0, tol=0.0)


def test_density_matrix_input_raises():
    lay, h = trilinear_setup(dims=(3, 3, 5))
    rho = vacuum_state(lay).density()
    cfg = EvolutionConfig(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0)
    with pytest.raises(ValueError, match="density matrix"):
        evolve(QuantumState(lay, matrix=rho), h, cfg)


def test_unnormalized_state_is_refused_before_the_block_walk(monkeypatch):
    lay, h = trilinear_setup(dims=(4, 4, 7))
    psi = product_state(
        lay, coherent_state(1.0, 4), np.eye(4, dtype=complex)[:, 0], np.eye(7, dtype=complex)[:, 0]
    )
    cfg = EvolutionConfig(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0)
    monkeypatch.setattr(hocov.dynamics, "_sector_blocks", lambda *a: pytest.fail("block walk ran"))
    for scale, norm in ((2.0, r"2\.000000000000"), (1.0 - 1e-6, r"0\.999999000000")):
        with pytest.raises(ValueError, match=rf"normalized state; its norm is {norm}$"):
            evolve(QuantumState(lay, vector=scale * psi.vector), h, cfg)


def test_norm_drift_in_the_propagator_raises_integrator_error(monkeypatch):
    # a normalized state through eigenvectors scaled by 1.1: the propagator,
    # not the input, is at fault, and the drift error names the grid point
    lay, h = trilinear_setup(dims=(4, 4, 7))
    psi = product_state(
        lay, coherent_state(1.0, 4), np.eye(4, dtype=complex)[:, 0], np.eye(7, dtype=complex)[:, 0]
    )
    blocks = hocov.dynamics._sector_blocks
    monkeypatch.setattr(hocov.dynamics, "_sector_blocks",
                        lambda *a: [(idx, lam, 1.1 * vec) for idx, lam, vec in blocks(*a)])
    cfg = EvolutionConfig(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0)
    with pytest.raises(IntegratorError, match=r"^norm drifted to 1\.210000000000 at xi=0\.0$") as err:
        evolve(psi, h, cfg)
    assert err.value.residual == pytest.approx(0.21)


def test_layout_mismatch_raises():
    lay, h = trilinear_setup(dims=(4, 4, 7))
    other = vacuum_state(ModeLayout((4, 4, 8)))
    cfg = EvolutionConfig(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0)
    with pytest.raises(ValueError):
        evolve(other, h, cfg)
