import hashlib
from pathlib import Path

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
    TruncatedOperator,
    build_hamiltonian,
    coherent_state,
    evolve,
    nonlinear_quadratures,
    product_state,
)
import hocov.dynamics
from hocov.dynamics import _chains
from hocov.fock import two_band
from hocov.sweep import config_from_file
from reference import (
    classical_pump,
    embed,
    expectation,
    kronecker_hamiltonian,
    number_operator,
    quadratures,
    reference_ladder_product,
    vacuum_state,
)


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
    lay = ModeLayout(dims)
    spec = InteractionSpec(lay, k=k, l=l, kappa=1.7)
    assert_same_operator(build_hamiltonian(spec).data, kronecker_hamiltonian(spec))
    # the quadratures come from the same band builder, with c = 1/2 and i/2
    for mode, m in ((0, 1), (1, k), (2, l)):
        for op, ref in zip(nonlinear_quadratures(lay, mode, m), quadratures(lay, mode, m)):
            assert_same_operator(op.data, ref)


@pytest.mark.parametrize("dims", [(2, 2), (5, 9), (12, 7), (24, 24)])
def test_classical_pump_matches_kronecker_construction(dims):
    # the band builder on a two-mode layout, with the shifts (1, 1)
    lay = ModeLayout(dims)
    spec = InteractionSpec(lay, k=1, l=1, kappa=0.8)
    h = TruncatedOperator(lay, two_band(lay, (1, 1), 1j * 0.8 * 2.5), hermitian=True)
    assert_same_operator(h.data, kronecker_hamiltonian(spec, alpha_p=2.5))


class WrappedMatrix(sparse.csr_matrix):
    """A scipy CSR subclass, as a caller that wraps H's matrix builds one."""


@pytest.mark.parametrize("charge,digest", [(None, "f956f1d181fcf113"), (0, "4cd92c0ede91ae74")])
def test_operator_rebuilt_around_a_csr_subclass_evolves_the_same(charge, digest):
    lay = ModeLayout((6, 5, 9))
    n = lay.total_dim
    h = build_hamiltonian(InteractionSpec(lay, k=1, l=2, kappa=1.7), charge=charge)
    view = h.data
    assert type(view) is sparse.csr_matrix and view.shape == (n, n) and h.data is view
    # the digest of the arrays H held when the builders returned a scipy
    # matrix: the view is the same H, bit for bit
    sha = hashlib.sha256()
    for a in (view.indptr, view.indices, view.data):
        sha.update(a.dtype.str.encode())
        sha.update(a.tobytes())
    assert sha.hexdigest()[:16] == digest
    wrapped = WrappedMatrix(view)
    rebuilt = type(h)(h.layout, wrapped, h.hermitian)
    assert rebuilt.data is wrapped
    psi0 = product_state(lay, coherent_state(1.0, 6), np.eye(5)[:, 0], np.eye(9)[:, 0])
    cfg = EvolutionConfig(xi_grid=(0.0, 0.2, 0.45), kappa=1.7, alpha_p=1.0)
    for a, b in zip(evolve(psi0, h, cfg), evolve(psi0, rebuilt, cfg), strict=True):
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.amplitudes, b.amplitudes)


def test_operator_refuses_entries_that_do_not_fit_its_layout():
    lay = ModeLayout((3, 4))
    rows, cols, values = np.array([0, 1, 1]), np.array([0, 5, 11]), np.ones(3)
    op = TruncatedOperator(lay, (rows, cols, values))
    assert np.array_equal(op.data.toarray()[[0, 1, 1], [0, 5, 11]], values)
    with pytest.raises(ValueError, match=r"rows, cols and values hold 3, 3 and 2 entries; they need one length"):
        TruncatedOperator(lay, (rows, cols, values[:2]))
    with pytest.raises(ValueError, match=r"rows, cols and values hold 2, 3 and 3 entries"):
        TruncatedOperator(lay, (rows[:2], cols, values))
    for bad in (12, -1):
        with pytest.raises(ValueError, match=r"column indices must lie in \[0, n\) with the layout's n = 12"):
            TruncatedOperator(lay, (rows, np.array([0, 5, bad]), values))
    for bad in ([0, 1, 12], [-1, 0, 1]):
        with pytest.raises(ValueError, match=r"row indices must lie in \[0, n\) with the layout's n = 12"):
            TruncatedOperator(lay, (np.array(bad), cols, values))
    with pytest.raises(ValueError, match=r"entries must be in row order; their rows decrease"):
        TruncatedOperator(lay, (np.array([0, 2, 1]), cols, values))
    with pytest.raises(ValueError, match=r"operator shape \(12, 13\) != layout dim 12"):
        TruncatedOperator(lay, sparse.csr_matrix((12, 13)))


def test_operator_refuses_an_input_that_is_neither_entries_nor_sparse():
    lay = ModeLayout((2, 3))
    for bad, name in ((np.eye(6), "ndarray"), (np.eye(6).tolist(), "list"),
                      ((np.arange(6), np.arange(6)), "tuple")):
        with pytest.raises(ValueError, match=r"a \(rows, cols, values\) tuple or a scipy sparse "
                                             f"matrix, got {name}$"):
            TruncatedOperator(lay, bad)


@pytest.mark.parametrize("name", ["window", "hierarchy", "competition"])
def test_sweep_hamiltonian_holds_only_arrays_of_its_nnz_length(name):
    # H_0 is an entry list: on window.cfg 6,490 entries, where a CSR row
    # pointer would hold the layout's n + 1 = 376,321
    cfg = config_from_file(str(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"))
    h = build_hamiltonian(InteractionSpec(ModeLayout(cfg.dims), k=cfg.k, l=cfg.l), charge=0)
    assert "data" not in vars(h)  # the scipy view is not built
    nnz = h.entries[0].size
    assert 0 < nnz < h.layout.total_dim // 10
    assert [a.shape for a in h.entries] == [(nnz,)] * 3
    # row order, and columns rising within a row: the order of the CSR view
    rows, cols, _ = h.entries
    assert np.all(np.diff(rows * h.layout.total_dim + cols) > 0)
    if name == "window":
        assert nnz == 6490


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


def component_chains(h, support):
    """Node sets of the connected components of h's sparsity graph that meet
    ``support``, from scipy's whole-graph labelling."""
    _, labels = connected_components(abs(h), directed=False)
    return {tuple(np.flatnonzero(labels == lab)) for lab in np.unique(labels[support])}


def assert_chains_of(h, support):
    """_chains finds the components meeting ``support``, each as a path in
    order with its links read from h."""
    coo = h.tocoo()
    nodes, links = _chains((coo.row, coo.col, coo.data), h.shape[0], support)
    assert nodes.shape[1] % 2 == 0 and links.shape == (nodes.shape[0], nodes.shape[1] - 1)
    found = set()
    for row, link in zip(nodes, links):
        path = row[row >= 0]
        assert np.all(row[path.size:] == -1) and not link[path.size - 1:].any()
        for j in range(path.size - 1):
            assert link[j] == h[path[j], path[j + 1]] != 0
        found.add(tuple(np.sort(path)))
    assert found == component_chains(h, support)
    # every found node lies in exactly one chain
    assert sum(len(c) for c in found) == len(set().union(*found))


def chain_supports(rng, h):
    """Random, mid-chain and isolated-node supports of an operator."""
    n = h.shape[0]
    deg = np.diff(h.indptr)
    isolated = np.flatnonzero(deg == 0)
    middle = np.flatnonzero(deg == 2)
    supports = [
        np.sort(rng.choice(n, size=min(n, 12), replace=False)),
        np.sort(rng.choice(middle, size=min(3, middle.size), replace=False)),
        np.sort(np.concatenate((rng.choice(isolated, size=min(2, isolated.size), replace=False),
                                rng.choice(middle, size=min(2, middle.size), replace=False)))),
        np.array([rng.integers(n)]),
        np.arange(n),
    ]
    return [sup for sup in supports if sup.size]


@pytest.mark.parametrize("k,l,dims", [(1, 2, (7, 6, 11)), (1, 3, (6, 4, 12)), (2, 1, (6, 9, 5)),
                                      (2, 3, (5, 7, 8))])
def test_chain_reader_finds_the_components_of_every_hamiltonian(k, l, dims):
    rng = np.random.default_rng(sum(dims) + 10 * k + l)
    lay = ModeLayout(dims)
    spec = InteractionSpec(lay, k=k, l=l, kappa=1.3)
    full = build_hamiltonian(spec).data
    for support in chain_supports(rng, full):
        assert_chains_of(full, support)
    charges = fock_charges(lay, k, l)[0]
    for q in np.unique(charges):
        block = build_hamiltonian(spec, charge=q).data
        for support in chain_supports(rng, block):
            assert_chains_of(block, support)
        # the first states of sector q, whatever their links
        assert_chains_of(block, np.flatnonzero(charges == q)[:5])


@pytest.mark.parametrize("dims", [(2, 2), (5, 9), (12, 7)])
def test_chain_reader_finds_the_components_of_the_classical_pump(dims):
    rng = np.random.default_rng(dims[0])
    h = kronecker_hamiltonian(InteractionSpec(ModeLayout(dims), k=1, l=1), 0.7)
    for support in chain_supports(rng, h):
        assert_chains_of(h, support)


def test_support_walk_on_the_interaction():
    lay, h = trilinear_setup(dims=(7, 6, 11), k=1, l=2)
    pump = coherent_state(1.1, 7)
    psi0 = product_state(lay, pump, np.eye(6, dtype=complex)[:, 0], np.eye(11, dtype=complex)[:, 0])
    assert_chains_of(h.data, psi0.support)
    nodes, _ = _chains(h.entries, lay.total_dim, psi0.support)
    # one chain |n0 - j, j, 2j> per pump number, cut by the A and B cutoffs,
    # padded to the even length at or above the longest
    assert sorted(np.count_nonzero(row >= 0) for row in nodes) == sorted(min(n0, 5) + 1 for n0 in range(7))
    assert nodes.shape == (7, 6)


def test_complex_single_offset_operator_evolves_like_dense_expm():
    # random complex links on chains of odd and even length, some split by a
    # missing link: the phase gauge and the padding are exact
    rng = np.random.default_rng(3)
    lay = ModeLayout((5, 7))
    n, s = lay.total_dim, 3
    rows = np.arange(n - s)
    keep = rng.random(rows.size) < 0.8
    vals = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    up = sparse.csr_matrix((vals[keep], (rows[keep], rows[keep] + s)), shape=(n, n))
    h = TruncatedOperator(lay, (up + up.conj().T).tocsr(), hermitian=True)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0 = QuantumState(lay, vector=v / np.linalg.norm(v))
    cfg = EvolutionConfig(xi_grid=(0.0, 0.3, 2.0), kappa=1.0, alpha_p=1.0)
    dense = h.data.toarray()
    for state, t in zip(evolve(psi0, h, cfg), cfg.times()):
        assert np.abs(state.vector - expm(-1j * t * dense) @ psi0.vector).max() < 1e-12


def test_empty_hamiltonian_leaves_the_state_unchanged():
    lay = ModeLayout((6, 5, 9))
    h = build_hamiltonian(InteractionSpec(lay, k=1, l=2), charge=100)
    assert h.data.nnz == 0
    psi0 = product_state(lay, coherent_state(1.0, 6), np.eye(5)[:, 1], np.eye(9)[:, 0])
    cfg = EvolutionConfig(xi_grid=(0.0, 0.4, 3.0), kappa=1.0, alpha_p=1.0)
    for state in evolve(psi0, h, cfg):
        assert np.array_equal(state.support, psi0.support)
        assert np.array_equal(state.amplitudes, psi0.amplitudes)


def test_operator_with_two_offsets_is_refused_before_any_decomposition(monkeypatch):
    lay = ModeLayout((3, 4))
    n = lay.total_dim
    up = sparse.csr_matrix((1j * np.ones(3), ([0, 1, 2], [1, 2, 5])), shape=(n, n))
    h = TruncatedOperator(lay, (up + up.conj().T).tocsr(), hermitian=True)
    monkeypatch.setattr(hocov.dynamics, "_chain_svd", lambda *a: pytest.fail("SVD ran"))
    cfg = EvolutionConfig(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0)
    with pytest.raises(ValueError, match=r"for one s > 0; its entries use the offsets 1, 3$"):
        evolve(vacuum_state(lay), h, cfg)
    diagonal = TruncatedOperator(lay, sparse.identity(n, format="csr", dtype=complex), hermitian=True)
    with pytest.raises(ValueError, match=r"its entries use the offsets 0$"):
        evolve(vacuum_state(lay), diagonal, cfg)
    # one offset but not Hermitian: i a+ b+ alone, whose upper band is empty,
    # and the anti-Hermitian i (a+ b+ + a b), whose bands differ by up to
    # 2 max |h| = 14
    pair = ModeLayout((8, 8))
    up = reference_ladder_product(pair, (1, 1))
    for op, match in ((1j * up, "are not stored at the same r"),
                      (1j * (up + up.T), r"conj\(h\[r, r \+ s\]\)\| reaches 1\.400e\+01$")):
        with pytest.raises(ValueError, match="evolve needs a Hermitian operator; .*" + match):
            evolve(vacuum_state(pair), TruncatedOperator(pair, op.tocsr(), hermitian=True), cfg)


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
    with pytest.raises(ValueError, match="l=2 exceeds mode-B cutoff 2"):
        build_hamiltonian(InteractionSpec(ModeLayout((4, 4, 2)), k=1, l=2))
    with pytest.raises(ValueError):
        InteractionSpec(lay3, k=0, l=2)
    with pytest.raises(ValueError):
        InteractionSpec(lay3, k=1, l=2, kappa=-1.0)
    with pytest.raises(ValueError, match="kappa must be positive and finite"):
        InteractionSpec(lay3, k=1, l=2, kappa=float("inf"))


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
        n_p = embed(number_operator(5), 0, lay)
        n_a = embed(number_operator(7), 1, lay)
        n_b = embed(number_operator(8), 2, lay)
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
    h = classical_pump(lay, alpha_p)
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
    dense = kronecker_hamiltonian(InteractionSpec(lay, k=1, l=2)).toarray()
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
    direct = expm_multiply(-1j * t * kronecker_hamiltonian(InteractionSpec(lay, k=1, l=2)).tocsc(),
                           psi0.vector)
    assert np.abs(final.vector - direct).max() < 1e-8


def test_large_norm_long_interval_against_dense_expm():
    # k=1, l=3 gives a large spectral norm and a random state spreads over
    # every sector: the interval a fixed-size Krylov stepper must subdivide
    lay, h = trilinear_setup(dims=(6, 4, 12), k=1, l=3)
    rng = np.random.default_rng(5)
    v = rng.normal(size=lay.total_dim) + 1j * rng.normal(size=lay.total_dim)
    psi0 = QuantumState(lay, vector=v / np.linalg.norm(v))
    cfg = EvolutionConfig(xi_grid=(0.0, 1.0, 6.0), kappa=1.0, alpha_p=1.2)
    dense = kronecker_hamiltonian(InteractionSpec(lay, k=1, l=3)).toarray()
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
    reference = kronecker_hamiltonian(InteractionSpec(lay, k=1, l=2))
    for state in evolve(psi0, h, cfg):
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-9)
        assert abs(expectation(reference, state)) < 1e-8


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
    vac = vacuum_state(lay).vector
    rho = np.outer(vac, vac)
    cfg = EvolutionConfig(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0)
    with pytest.raises(ValueError, match="density matrix"):
        evolve(QuantumState(lay, matrix=rho), h, cfg)


def test_unnormalized_state_is_refused_before_the_block_walk(monkeypatch):
    lay, h = trilinear_setup(dims=(4, 4, 7))
    psi = product_state(
        lay, coherent_state(1.0, 4), np.eye(4, dtype=complex)[:, 0], np.eye(7, dtype=complex)[:, 0]
    )
    cfg = EvolutionConfig(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0)
    monkeypatch.setattr(hocov.dynamics, "_chains", lambda *a: pytest.fail("chain reader ran"))
    for scale, norm in ((2.0, r"2\.000000000000"), (1.0 - 1e-6, r"0\.999999000000")):
        with pytest.raises(ValueError, match=rf"normalized state; its norm is {norm}$"):
            evolve(QuantumState(lay, vector=scale * psi.vector), h, cfg)
    # a NaN norm fails the check too, for a state whose amplitudes were
    # replaced after the constructors' finiteness check
    object.__setattr__(psi, "amplitudes", np.full(psi.support.size, np.nan + 0j))
    with pytest.raises(ValueError, match=r"normalized state; its norm is nan$"):
        evolve(psi, h, cfg)


def test_norm_drift_in_the_propagator_raises_integrator_error(monkeypatch):
    # a normalized state through singular vectors U and V scaled by 1.1: the
    # propagator, not the input, is at fault, and the drift error names the
    # grid point
    lay, h = trilinear_setup(dims=(4, 4, 7))
    psi = product_state(
        lay, coherent_state(1.0, 4), np.eye(4, dtype=complex)[:, 0], np.eye(7, dtype=complex)[:, 0]
    )
    svd = hocov.dynamics._chain_svd

    def scaled(*a):
        u, sigma, v = svd(*a)
        return 1.1 * u, sigma, 1.1 * v

    monkeypatch.setattr(hocov.dynamics, "_chain_svd", scaled)
    cfg = EvolutionConfig(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0)
    with pytest.raises(IntegratorError, match=r"^norm drifted to 1\.210000000000 at xi=0\.0$") as err:
        evolve(psi, h, cfg)
    assert err.value.residual == pytest.approx(0.21)
    # a propagator that yields NaN fails the drift check as well
    monkeypatch.setattr(hocov.dynamics, "_chain_svd", lambda *a: tuple(np.nan * x for x in svd(*a)))
    with pytest.raises(IntegratorError, match=r"^norm drifted to nan at xi=0\.0$"):
        evolve(psi, h, cfg)


def test_layout_mismatch_raises():
    lay, h = trilinear_setup(dims=(4, 4, 7))
    other = vacuum_state(ModeLayout((4, 4, 8)))
    cfg = EvolutionConfig(xi_grid=(0.0, 0.1), kappa=1.0, alpha_p=1.0)
    with pytest.raises(ValueError):
        evolve(other, h, cfg)
