import math

import numpy as np
import pytest

from hocov import (
    DegenerateStateError,
    EvolutionConfig,
    HigherOrderCovariance,
    InteractionSpec,
    ModeLayout,
    QuantumState,
    build_covariance,
    build_hamiltonian,
    coherent_state,
    covariance_stack,
    evaluate_stack,
    evolve,
    inequality7_margin,
    inequality8_margin,
    invariants,
    lemma1_check,
    mirror_reflect,
    nonlinear_quadratures,
    product_state,
    standard_form,
    top_level_population,
    uncertainty_margin,
    vacuum_state,
    witness_nu_minus,
)
from reference import cokurtosis, coskewness_block, expectation, quadratures, reference_covariance, tmsv_state


def spdc_state(xi=0.3, dims=(6, 5, 9), k=1, l=2, alpha=1.5):
    lay = ModeLayout(dims)
    h = build_hamiltonian(InteractionSpec(lay, k=k, l=l))
    pump = coherent_state(alpha, dims[0], allow_truncation=True)
    psi0 = product_state(
        lay, pump, np.eye(dims[1], dtype=complex)[:, 0], np.eye(dims[2], dtype=complex)[:, 0]
    )
    cfg = EvolutionConfig(xi_grid=(0.0, xi), kappa=1.0, alpha_p=alpha)
    return evolve(psi0, h, cfg)[-1]


def random_covariance(rng, scale=1.0):
    g = rng.normal(size=(4, 4))
    v = g @ g.T + 0.5 * np.eye(4)
    return HigherOrderCovariance(
        scale * v, rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), np.zeros(4), 1, 1, 2
    )


def test_tmsv_covariance_matches_analytics():
    for r in (0.25, 0.5):
        cov = build_covariance(tmsv_state(r), 1, 1, 1)
        alpha = np.cosh(2 * r) / 4
        gamma = np.sinh(2 * r) / 4
        target = np.diag([alpha, alpha, alpha, alpha])
        target[0, 2] = target[2, 0] = gamma
        target[1, 3] = target[3, 1] = -gamma
        assert np.abs(cov.matrix - target).max() < 1e-9, r
        assert cov.f_ka == pytest.approx(0.5, abs=1e-12)
        assert cov.f_lb == pytest.approx(0.5, abs=1e-12)
        assert np.abs(cov.first_moments).max() < 1e-10


def test_vacuum_covariance_diagonal():
    lay = ModeLayout((4, 6, 8))
    vac = vacuum_state(lay)
    for n, k, l in ((1, 1, 2), (1, 1, 3), (2, 1, 2)):
        cov = build_covariance(vac, n, k, l)
        da = math.factorial(n * k) / 4
        db = math.factorial(n * l) / 4
        assert np.abs(cov.matrix - np.diag([da, da, db, db])).max() < 1e-12
        assert cov.f_ka == pytest.approx(math.factorial(n * k) / 2)
        assert cov.f_lb == pytest.approx(math.factorial(n * l) / 2)


def test_moment_imaginary_parts_are_commutators():
    # Im<R_i R_j> must reproduce the scalarized commutator matrix Omega/2.
    # Order-m operator products corrupt the top m levels, so the mode cutoffs
    # leave headroom beyond the exact interaction support (N_B = 2 N_A,
    # N_A bounded by the pump cutoff).
    state = spdc_state(xi=0.3, dims=(8, 11, 26), alpha=1.2)
    for n in (1, 2):
        cov = build_covariance(state, n, 1, 2)
        ops, _, _, f_ka, _ = reference_covariance(state, n, 1, 2)
        im = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                im[i, j] = expectation(ops[i] @ ops[j], state).imag
        assert np.abs(im - cov.omega() / 2).max() < 1e-10
        assert cov.f_ka == pytest.approx(f_ka, abs=1e-12)

    # the ladder-shift moments against the embedded operators, on dense random
    # pure and mixed states and on a state confined to the top three levels
    # of every mode, where the truncated a+^m drops terms
    rng = np.random.default_rng(23)
    states = [state]
    for dims in ((3, 7, 10), (7, 10)):
        lay = ModeLayout(dims)
        d = lay.total_dim
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        tops = []
        for dim in dims:
            f = np.zeros(dim, dtype=complex)
            f[-3:] = rng.normal(size=3) + 1j * rng.normal(size=3)
            tops.append(f)
        states += [QuantumState(lay, vector=psi / np.linalg.norm(psi)),
                   QuantumState(lay, matrix=rho / np.trace(rho).real),
                   product_state(lay, *tops)]
    for st in states:
        for k, l in ((1, 2), (1, 3), (2, 1)):
            for n in (1, 2, 3):
                if st is state and n * l > 9:
                    continue
                cov = build_covariance(st, n, k, l)
                _, v, first, f_ka, f_lb = reference_covariance(st, n, k, l)
                scale = max(1.0, np.abs(v).max())
                assert np.abs(cov.matrix - v).max() < 1e-12 * scale, (st.layout, n, k, l)
                assert np.abs(cov.first_moments - first.real).max() < 1e-12 * scale
                assert cov.f_ka == pytest.approx(f_ka, rel=1e-12)
                assert cov.f_lb == pytest.approx(f_lb, rel=1e-12)


def test_mixed_state_covariance_matches_pure():
    pure = tmsv_state(0.3, dim=16)
    mixed = QuantumState(pure.layout, matrix=np.outer(pure.vector, pure.vector.conj()))
    cov_p = build_covariance(pure, 1, 1, 1)
    cov_m = build_covariance(mixed, 1, 1, 1)
    assert np.abs(cov_p.matrix - cov_m.matrix).max() < 1e-10
    assert cov_p.f_ka == pytest.approx(cov_m.f_ka, abs=1e-12)


def test_density_and_pure_gram_branches_agree():
    # |psi><psi| as a density matrix sums the matched ladder pairs over
    # entries of the matrix in build_covariance, psi itself over amplitude
    # products
    rng = np.random.default_rng(41)
    states = [spdc_state(xi=0.3, dims=(8, 11, 26), alpha=1.2)]
    for dims in ((3, 7, 10), (7, 10)):
        lay = ModeLayout(dims)
        psi = rng.normal(size=lay.total_dim) + 1j * rng.normal(size=lay.total_dim)
        tops = []
        for dim in dims:
            f = np.zeros(dim, dtype=complex)
            f[-3:] = rng.normal(size=3) + 1j * rng.normal(size=3)
            tops.append(f / np.linalg.norm(f))
        states += [QuantumState(lay, vector=psi / np.linalg.norm(psi)), product_state(lay, *tops)]
    for pure in states:
        assert np.array_equal(pure.support, np.flatnonzero(pure.vector != 0))
        assert pure.support is pure.support
        mixed = QuantumState(pure.layout, matrix=pure.density())
        for k, l in ((1, 2), (1, 3), (2, 1)):
            for n in (1, 2, 3):
                if max(n * k, n * l) > 9:
                    continue
                cov_p = build_covariance(pure, n, k, l)
                cov_m = build_covariance(mixed, n, k, l)
                scale = max(1.0, np.abs(cov_p.matrix).max())
                assert np.abs(cov_p.matrix - cov_m.matrix).max() < 1e-12 * scale, (pure.layout, n, k, l)
                assert np.abs(cov_p.first_moments - cov_m.first_moments).max() < 1e-12 * scale
                assert cov_p.f_ka == pytest.approx(cov_m.f_ka, rel=1e-12)
                assert cov_p.f_lb == pytest.approx(cov_m.f_lb, rel=1e-12)


@pytest.mark.parametrize("k,l,dims", [(1, 2, (7, 8, 14)), (1, 3, (6, 5, 13)), (2, 1, (6, 9, 6))])
def test_evolved_state_reads_like_its_dense_vector(k, l, dims):
    # an evolved state holds its chains only; rebuilt from the dense vector
    # it must give the same moments and top-level weights
    state = spdc_state(xi=0.4, dims=dims, k=k, l=l, alpha=1.1)
    dense = QuantumState(state.layout, vector=state.vector)
    top, top_dense = top_level_population(state), top_level_population(dense)
    for mode in range(3):
        assert top[mode] == pytest.approx(top_dense[mode], abs=1e-12)
    for n in (1, 2, 3):
        cov, ref = build_covariance(state, n, k, l), build_covariance(dense, n, k, l)
        scale = max(1.0, np.abs(ref.matrix).max())
        assert np.abs(cov.matrix - ref.matrix).max() < 1e-12 * scale
        assert np.abs(cov.first_moments - ref.first_moments).max() < 1e-12 * scale
        assert cov.f_ka == pytest.approx(ref.f_ka, rel=1e-12)
        assert cov.f_lb == pytest.approx(ref.f_lb, rel=1e-12)


def random_stack(rng, lay, size, count):
    """``count`` random pure states on one random support of ``size`` flat
    indices that also holds every index at the top level of mode A or B;
    state 0 lives on those top-level indices only."""
    occ = np.unravel_index(np.arange(lay.total_dim), lay.dims)
    top = np.flatnonzero((occ[lay.mode_a] == lay.dims[lay.mode_a] - 1)
                         | (occ[lay.mode_b] == lay.dims[lay.mode_b] - 1))
    support = np.union1d(rng.choice(lay.total_dim, size, replace=False), top)
    amps = rng.normal(size=(count, support.size)) + 1j * rng.normal(size=(count, support.size))
    amps[0, ~np.isin(support, top)] = 0.0
    return support, amps / np.linalg.norm(amps, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covariance_stack_matches_the_operator_path(n):
    # hierarchy.cfg's orders (k=1, l=2, n = 1..3) on a T = 5 stack of random
    # states outside charge 0, whose support reaches both cutoffs: the first
    # moments and the entries a selection rule would zero are all present
    rng = np.random.default_rng(100 + n)
    lay = ModeLayout((3, 8, 14))
    support, amps = random_stack(rng, lay, 150, 5)
    stack = covariance_stack(lay, support, amps, n, 1, 2)
    assert len(stack) == 5 and stack.matrix.shape == (5, 4, 4)
    for t in range(5):
        state = QuantumState.on_support(lay, support, amps[t])
        _, v, first, f_ka, f_lb = reference_covariance(state, n, 1, 2)
        first = first.real
        scale = max(1.0, np.abs(v).max())
        assert np.abs(stack.matrix[t] - v).max() < 1e-12 * scale, t
        assert np.abs(stack.first_moments[t] - first).max() < 1e-12 * scale, t
        assert stack.f_ka[t] == pytest.approx(f_ka, rel=1e-12)
        assert stack.f_lb[t] == pytest.approx(f_lb, rel=1e-12)
        # outside charge 0: nonzero first moments and <Q^2> != <P^2>
        if t:
            assert np.abs(first).max() > 1e-3
            assert abs(v[0, 0] - v[1, 1]) > 1e-3
        # a stack of one, and build_covariance, give the member exactly
        one = covariance_stack(lay, support, amps[t:t + 1], n, 1, 2)
        single = build_covariance(state, n, 1, 2)
        for got in (one[0], single):
            assert np.array_equal(got.matrix, stack.matrix[t])
            assert np.array_equal(got.first_moments, stack.first_moments[t])
            assert (got.f_ka, got.f_lb) == (stack.f_ka[t], stack.f_lb[t])


def test_covariance_stack_members_do_not_depend_on_the_stack():
    # more states than one block of the sums: every member equals the same
    # state evaluated alone, bit for bit, whichever block it falls in
    from hocov.covariance import _BLOCK

    lay = ModeLayout((3, 8, 14))
    support, amps = random_stack(np.random.default_rng(9), lay, 150, 2 * _BLOCK + 3)
    for n in (1, 2):
        stack = covariance_stack(lay, support, amps, n, 1, 2)
        for t in range(len(amps)):
            one = covariance_stack(lay, support, amps[t:t + 1], n, 1, 2)
            assert np.array_equal(one.matrix[0], stack.matrix[t]), (n, t)
            assert np.array_equal(one.first_moments[0], stack.first_moments[t]), (n, t)
            assert (one.f_ka[0], one.f_lb[0]) == (stack.f_ka[t], stack.f_lb[t]), (n, t)


def test_covariance_stack_refuses_a_bad_stack():
    lay = ModeLayout((3, 8, 14))
    support, amps = random_stack(np.random.default_rng(5), lay, 40, 3)
    with pytest.raises(ValueError, match="amplitudes must be"):
        covariance_stack(lay, support, amps[:, 1:], 1, 1, 2)
    with pytest.raises(ValueError, match="amplitudes must be"):
        covariance_stack(lay, support, amps[0], 1, 1, 2)
    with pytest.raises(ValueError, match="hierarchy index"):
        covariance_stack(lay, support, amps, 0, 1, 2)
    # the checks of one covariance hold for every member, naming the row
    stack = covariance_stack(lay, support, amps, 1, 1, 2)
    bad = stack.matrix.copy()
    bad[2, 0, 1] += 1.0
    with pytest.raises(ValueError, match=r"symmetric \(row 2\)"):
        type(stack)(bad, stack.f_ka, stack.f_lb, stack.first_moments, 1, 1, 2)
    f_ka = stack.f_ka.copy()
    f_ka[1] = 0.0
    with pytest.raises(ValueError, match=r"positive \(row 1\)"):
        type(stack)(stack.matrix, f_ka, stack.f_lb, stack.first_moments, 1, 1, 2)


def test_one_type_holds_a_covariance_or_a_stack():
    lay = ModeLayout((3, 8, 14))
    support, amps = random_stack(np.random.default_rng(7), lay, 40, 3)
    stack = covariance_stack(lay, support, amps, 1, 1, 2)
    assert type(stack) is HigherOrderCovariance and len(stack) == 3
    assert stack.f_ka.shape == stack.f_lb.shape == (3,) and stack.first_moments.shape == (3, 4)
    for t in range(3):
        one = stack[t]
        assert one.matrix.shape == (4, 4) and one.first_moments.shape == (4,)
        assert isinstance(one.f_ka, float) and isinstance(one.f_lb, float)
        assert not (one.matrix.flags.writeable or one.first_moments.flags.writeable)
        assert np.array_equal(one.matrix, stack.matrix[t]) and one.f_ka == stack.f_ka[t]
        for name in ("block_a", "block_b", "block_c"):
            assert np.array_equal(getattr(stack, name)[t], getattr(one, name)), name
        assert np.array_equal(stack.omega()[t], one.omega())
        assert np.array_equal(mirror_reflect(stack).matrix[t], mirror_reflect(one).matrix)
    assert [len(stack[1:]), len(stack[:0])] == [2, 0]
    omega = stack[0].omega()
    assert np.array_equal(omega, -omega.T)
    assert (omega[0, 1], omega[2, 3]) == (stack.f_ka[0], stack.f_lb[0])
    with pytest.raises(ValueError, match=r"\(4, 4\) or a \(T, 4, 4\) stack, got \(2, 3, 4, 4\)"):
        HigherOrderCovariance(np.zeros((2, 3, 4, 4)), 0.5, 0.5, np.zeros(4), 1, 1, 1)


def test_each_caller_refuses_the_other_rank():
    lay = ModeLayout((3, 8, 14))
    support, amps = random_stack(np.random.default_rng(8), lay, 40, 2)
    stack = covariance_stack(lay, support, amps, 1, 1, 2)
    one = stack[0]
    for call in (standard_form, invariants, uncertainty_margin, witness_nu_minus,
                 inequality7_margin, inequality8_margin, lemma1_check):
        with pytest.raises(ValueError, match=rf"^{call.__name__} takes one \(4, 4\) covariance, "
                                             r"got matrix shape \(2, 4, 4\)$"):
            call(stack)
        call(one)
    stack_only = ((evaluate_stack, "evaluate_stack"), (len, r"len\(\)"),
                  (lambda cov: cov[0], "indexing"), (list, r"len\(\)"))
    for call, name in stack_only:
        with pytest.raises(ValueError, match=rf"^{name} takes a \(T, 4, 4\) covariance stack, "
                                             r"got matrix shape \(4, 4\)$"):
            call(one)
        call(stack)


def test_invariants_on_tmsv_and_vacuum():
    r = 0.5
    cov = build_covariance(tmsv_state(r), 1, 1, 1)
    inv = invariants(cov)
    alpha = np.cosh(2 * r) / 4
    gamma = np.sinh(2 * r) / 4
    assert inv.i1 == pytest.approx(alpha**2, abs=1e-9)
    assert inv.i2 == pytest.approx(alpha**2, abs=1e-9)
    assert inv.i3 == pytest.approx(-(gamma**2), abs=1e-9)
    assert inv.i4 == pytest.approx((alpha**2 - gamma**2) ** 2, abs=1e-9)
    assert inv.i4 == pytest.approx(1.0 / 256, abs=1e-9)
    assert inv.det_c == inv.i3

    vac_cov = build_covariance(vacuum_state(ModeLayout((3, 4, 6))), 1, 1, 2)
    vinv = invariants(vac_cov)
    assert vinv.i1 == pytest.approx(1.0 / 16, abs=1e-12)
    assert vinv.i2 == pytest.approx(1.0 / 4, abs=1e-12)
    assert vinv.i3 == pytest.approx(0.0, abs=1e-14)
    assert vinv.i4 == pytest.approx(1.0 / 64, abs=1e-12)


def test_mirror_reflection_algebra():
    rng = np.random.default_rng(17)
    for _ in range(50):
        cov = random_covariance(rng)
        inv = invariants(cov)
        mirrored = mirror_reflect(cov)
        minv = invariants(mirrored)
        # exact sign flip of det C, exact invariance of the rest
        assert minv.i3 == -inv.i3
        assert minv.i1 == inv.i1
        assert minv.i2 == inv.i2
        assert abs(minv.i4 - inv.i4) <= 1e-12 * max(1.0, abs(inv.i4))
        back = mirror_reflect(mirrored)
        assert np.array_equal(back.matrix, cov.matrix)
        assert back.f_ka == cov.f_ka


def test_mirror_flips_momentum_first_moment():
    cov = HigherOrderCovariance(np.eye(4), 0.5, 0.5, np.array([0.1, 0.2, 0.3, 0.4]), 1, 1, 1)
    m = mirror_reflect(cov)
    assert np.allclose(m.first_moments, [0.1, 0.2, 0.3, -0.4])


def test_standard_form_on_tmsv():
    r = 0.4
    cov = build_covariance(tmsv_state(r), 1, 1, 1)
    sf = standard_form(cov)
    assert sf.a == pytest.approx(np.cosh(2 * r) / 4, abs=1e-9)
    assert sf.b == pytest.approx(np.cosh(2 * r) / 4, abs=1e-9)
    assert sf.c1 == pytest.approx(np.sinh(2 * r) / 4, abs=1e-9)
    assert sf.c2 == pytest.approx(-np.sinh(2 * r) / 4, abs=1e-9)


def test_standard_form_properties_on_random_covariances():
    rng = np.random.default_rng(41)
    for _ in range(60):
        cov = random_covariance(rng, scale=rng.uniform(0.5, 3.0))
        inv = invariants(cov)
        sf = standard_form(cov)
        # local transforms are special linear
        assert np.linalg.det(sf.t_a) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.det(sf.t_b) == pytest.approx(1.0, abs=1e-10)
        # the transforms actually produce the standard-form matrix
        t = np.zeros((4, 4))
        t[:2, :2] = sf.t_a
        t[2:, 2:] = sf.t_b
        assert np.abs(t @ cov.matrix @ t.T - sf.matrix()).max() < 1e-9
        # invariants survive: a = sqrt(I1), b = sqrt(I2), c1 c2 = det C
        assert sf.a == pytest.approx(np.sqrt(inv.i1), abs=1e-9)
        assert sf.b == pytest.approx(np.sqrt(inv.i2), abs=1e-9)
        assert sf.c1 * sf.c2 == pytest.approx(inv.i3, abs=1e-9)
        assert sf.c1 >= abs(sf.c2) - 1e-12
        assert sf.c1 >= 0


def test_standard_form_idempotent():
    rng = np.random.default_rng(5)
    cov = random_covariance(rng)
    sf = standard_form(cov)
    again = standard_form(
        HigherOrderCovariance(sf.matrix(), cov.f_ka, cov.f_lb, np.zeros(4), 1, 1, 2)
    )
    assert again.a == pytest.approx(sf.a, abs=1e-10)
    assert again.b == pytest.approx(sf.b, abs=1e-10)
    assert again.c1 == pytest.approx(sf.c1, abs=1e-10)
    assert again.c2 == pytest.approx(sf.c2, abs=1e-10)


def test_standard_form_rejects_degenerate_block():
    v = np.diag([0.0, 1.0, 1.0, 1.0])
    cov = HigherOrderCovariance(v, 0.5, 0.5, np.zeros(4), 1, 1, 1)
    with pytest.raises(DegenerateStateError):
        standard_form(cov)


def test_covariance_validation():
    bad = np.arange(16.0).reshape(4, 4)
    with pytest.raises(ValueError):
        HigherOrderCovariance(bad, 0.5, 0.5, np.zeros(4), 1, 1, 1)
    with pytest.raises(ValueError):
        HigherOrderCovariance(np.eye(4), -0.5, 0.5, np.zeros(4), 1, 1, 1)
    with pytest.raises(ValueError):
        build_covariance(vacuum_state(ModeLayout((3, 4, 6))), 0, 1, 2)


def test_coskewness_equals_covariance_cross_block():
    state = spdc_state(xi=0.4)
    cov = build_covariance(state, 1, 1, 2)
    block = coskewness_block(state)
    assert np.abs(block - cov.block_c).max() < 1e-11


def linear_quadratures(lay):
    """The reference q_A, p_A, q_B, p_B of ``lay`` by name."""
    ops = (*quadratures(lay, lay.mode_a, 1), *quadratures(lay, lay.mode_b, 1))
    return dict(zip(("qA", "pA", "qB", "pB"), ops))


def test_cokurtosis_vanishes_on_gaussian_states():
    # Weyl-ordered fourth cumulants of any Gaussian state vanish identically
    names = ("qA", "pA", "qB", "pB")
    state = tmsv_state(0.3, dim=20)
    ops = linear_quadratures(state.layout)
    rng = np.random.default_rng(3)
    for _ in range(25):
        combo = rng.choice(names, size=4)
        assert abs(cokurtosis(state, *(ops[c] for c in combo))) < 1e-9, combo
    vac = vacuum_state(ModeLayout((6, 6)))
    ops = linear_quadratures(vac.layout)
    for combo in (("qA",) * 4, ("qA", "qA", "pA", "pA"), ("qA", "qB", "qB", "qB")):
        assert abs(cokurtosis(vac, *(ops[c] for c in combo))) < 1e-12


def test_cokurtosis_reconstructs_cubic_cross_block():
    # diagonal of the (1,3)-process C block from fourth joint cumulants
    state = spdc_state(xi=0.3, dims=(6, 5, 13), k=1, l=3)
    cov = build_covariance(state, 1, 1, 3)
    ops = linear_quadratures(state.layout)
    qa, pa, qb, pb = (ops[c] for c in ("qA", "pA", "qB", "pB"))
    c00 = cokurtosis(state, qa, qb, qb, qb) - 3 * cokurtosis(state, qa, qb, pb, pb)
    c11 = -cokurtosis(state, pa, pb, pb, pb) + 3 * cokurtosis(state, pa, qb, qb, pb)
    assert c00 == pytest.approx(cov.block_c[0, 0], abs=1e-9)
    assert c11 == pytest.approx(cov.block_c[1, 1], abs=1e-9)


def test_cubic_quadrature_decomposition():
    # Q^3 = q^3 - 3 q p^2 + (3i/2) p and P^3 = -p^3 + 3 q^2 p - (3i/2) q with
    # literal operator ordering
    dim = 24
    lay = ModeLayout((dim, 2))
    pair1 = nonlinear_quadratures(lay, 0, 1)
    pair3 = nonlinear_quadratures(lay, 0, 3)
    q = pair1.q.data.toarray()
    p = pair1.p.data.toarray()
    q3 = q @ q @ q - 3 * q @ p @ p + 1.5j * p
    p3 = -p @ p @ p + 3 * q @ q @ p - 1.5j * q
    safe = (dim - 3) * 2
    assert np.abs((q3 - pair3.q.data.toarray())[:safe, :safe]).max() < 1e-12
    assert np.abs((p3 - pair3.p.data.toarray())[:safe, :safe]).max() < 1e-12
