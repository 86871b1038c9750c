import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import hocov

from hocov import (
    EvolutionConfig,
    HigherOrderCovariance,
    InteractionSpec,
    ModeLayout,
    NumericalConsistencyError,
    QuantumState,
    StandardForm,
    build_classical_pump_hamiltonian,
    build_covariance,
    build_hamiltonian,
    coherent_state,
    covariance_stack,
    embed,
    evaluate_criteria,
    evaluate_stack,
    evolve,
    expectation,
    inequality7_margin,
    inequality8_margin,
    lemma1_check,
    lemma2_transform,
    nha_zubairy,
    nonlinear_quadratures,
    nz_values,
    number_operator,
    product_state,
    standard_form,
    symmetrized_covariance,
    thermal_state,
    uncertainty_margin,
    vacuum_state,
    witness_nu_minus,
)


def tmsv_state(r, dim=24):
    lay = ModeLayout((dim, dim))
    if r == 0.0:
        return vacuum_state(lay)
    spec = InteractionSpec(lay, k=1, l=1, kappa=1.0)
    h = build_classical_pump_hamiltonian(spec, 2.0)
    cfg = EvolutionConfig(xi_grid=(0.0, r), kappa=1.0, alpha_p=2.0)
    return evolve(vacuum_state(lay), h, cfg)[-1]


def spdc_trajectory(dims=(8, 7, 13), k=1, l=2, alpha=1.3, xi_max=0.5, steps=5):
    lay = ModeLayout(dims)
    h = build_hamiltonian(InteractionSpec(lay, k=k, l=l))
    pump = coherent_state(alpha, dims[0], allow_truncation=True)
    psi0 = product_state(
        lay, pump, np.eye(dims[1], dtype=complex)[:, 0], np.eye(dims[2], dtype=complex)[:, 0]
    )
    grid = tuple(np.round(np.linspace(0.0, xi_max, steps + 1), 12))
    cfg = EvolutionConfig(xi_grid=grid, kappa=1.0, alpha_p=alpha)
    return evolve(psi0, h, cfg)


def coherent_mixture_covariance(rng, dim=14, samples=40, rho=0.6, noise=0.15):
    """Separable two-mode mixture of correlated coherent pairs, det C > 0."""
    lay = ModeLayout((dim, dim))
    total = np.zeros((dim * dim, dim * dim), dtype=complex)
    for _ in range(samples):
        beta = 0.5 * (rng.normal() + 1j * rng.normal())
        gamma = rho * beta + noise * (rng.normal() + 1j * rng.normal())
        vec = np.kron(coherent_state(beta, dim, allow_truncation=True),
                      coherent_state(gamma, dim, allow_truncation=True))
        total += np.outer(vec, vec.conj())
    total /= samples
    state = QuantumState(lay, matrix=total)
    return build_covariance(state, 1, 1, 1)


def test_tmsv_witness_analytics():
    for r in (0.0, 0.25, 0.5):
        cov = build_covariance(tmsv_state(r), 1, 1, 1)
        nu = witness_nu_minus(cov)
        assert nu == pytest.approx((np.exp(-2 * r) - 1) / 4, abs=1e-9), r
        # pure states saturate the determinant uncertainty relation
        assert abs(inequality7_margin(cov)) < 1e-10
        m8 = inequality8_margin(cov)
        if r == 0.0:
            assert abs(m8) < 1e-10
        else:
            assert m8 < -1e-6
        assert uncertainty_margin(cov) >= -1e-10


def test_lemma1_on_tmsv():
    r = 0.5
    cov = build_covariance(tmsv_state(r), 1, 1, 1)
    alpha = np.cosh(2 * r) / 4
    gamma = np.sinh(2 * r) / 4
    expected = ((alpha - 0.25) ** 2 - gamma**2) ** 2
    val = lemma1_check(cov)
    assert val == pytest.approx(expected, abs=1e-9)
    assert val == pytest.approx(4.608384e-03, abs=1e-8)
    # positive determinant yet not separable: the PSD reading is negative
    f = np.diag([cov.f_ka, cov.f_ka, cov.f_lb, cov.f_lb])
    min_eig = np.linalg.eigvalsh(cov.matrix - f / 2)[0]
    assert min_eig == pytest.approx((np.exp(-2 * r) - 1) / 4, abs=1e-9)
    assert min_eig < 0


def test_witness_and_inequality_sign_agreement_on_trajectory():
    # evaluate_criteria raises NumericalConsistencyError on any disagreement.
    # Mode dimensions leave the top n*l levels of B (and n*k of A) clear of
    # the exact support so moment products are truncation free.
    cases = (
        (1, 2, (6, 6, 16), (1, 2), 0.4),
        (1, 3, (5, 5, 17), (1,), 0.4),
        (2, 2, (6, 11, 11), (1,), 0.3),
    )
    for k, l, dims, orders, xi_max in cases:
        for state in spdc_trajectory(dims=dims, k=k, l=l, xi_max=xi_max):
            for n in orders:
                report = evaluate_criteria(state, n, k, l)
                assert report.verdict in ("entangled", "separable", "boundary")
                assert report.uncertainty >= -1e-8


def test_stack_criteria_equal_the_single_covariance_functions():
    # evaluate_stack on a trajectory stack gives, member by member, exactly
    # what the functions of one covariance give
    states = spdc_trajectory(dims=(6, 6, 16), xi_max=0.4)
    amps = np.stack([s.amplitudes for s in states])
    for n in (1, 2):
        stack = covariance_stack(states[0].layout, states[0].support, amps, n, 1, 2)
        nz = nz_values(covariance_stack(states[0].layout, states[0].support, amps, 1, 1, 2))
        reports = evaluate_stack(stack, nz)
        assert len(reports) == len(states)
        assert {r.verdict for r in reports} == {"boundary", "entangled"}
        for t, (rep, state) in enumerate(zip(reports, states)):
            cov = stack[t]
            assert (rep.n, rep.k, rep.l) == (n, 1, 2)
            assert rep.nu_minus == witness_nu_minus(cov)
            assert rep.uncertainty == uncertainty_margin(cov)
            assert rep.ineq7_margin == inequality7_margin(cov)
            assert rep.ineq8_margin == inequality8_margin(cov)
            assert rep.lemma1_value == lemma1_check(cov)
            assert rep.det_c == hocov.invariants(cov).det_c
            assert rep.nz_value == nha_zubairy(state)
            assert rep == evaluate_criteria(state, n, 1, 2, with_nz=True)


def test_stack_cross_check_names_the_disagreeing_row():
    # V = I/10 with f = 1 breaks the uncertainty relation: nu_minus = -0.4
    # while inequality 8 reads +0.0576, so the sign cross-check must fire on
    # that member and name it
    good = build_covariance(tmsv_state(0.5), 1, 1, 1)
    assert evaluate_criteria(tmsv_state(0.5), 1, 1, 1).verdict == "entangled"
    matrix = np.stack([good.matrix, good.matrix, np.eye(4) / 10, good.matrix])
    stack = HigherOrderCovariance(matrix, [0.5, 0.5, 1.0, 0.5], [0.5, 0.5, 1.0, 0.5],
                                  np.zeros((4, 4)), 1, 1, 1)
    with pytest.raises(NumericalConsistencyError, match=r"at xi=0\.3, n=1: nu_minus=-4\.0+e-01"):
        evaluate_stack(stack, xi=(0.0, 0.1, 0.3, 0.5))
    with pytest.raises(NumericalConsistencyError, match=r"at row 2, n=1"):
        evaluate_stack(stack)


def test_verdicts():
    lay = ModeLayout((4, 6, 10))
    vac = vacuum_state(lay)
    rep = evaluate_criteria(vac, 1, 1, 2)
    assert rep.verdict == "boundary"
    assert abs(rep.nu_minus) < 1e-12

    ent = evaluate_criteria(tmsv_state(0.5), 1, 1, 1)
    assert ent.verdict == "entangled"
    assert ent.nu_minus < -0.1

    # product of thermal states: strictly separable with a finite margin
    pump = np.zeros(4, dtype=complex)
    pump[0] = 1.0
    therm = product_state(lay, pump, thermal_state(0.4, 6), thermal_state(0.3, 10))
    sep = evaluate_criteria(therm, 1, 1, 2)
    assert sep.verdict == "separable"
    assert sep.nu_minus > 1e-3


def test_nha_zubairy_vacuum_and_guard():
    lay = ModeLayout((4, 5, 9))
    assert nha_zubairy(vacuum_state(lay)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        nha_zubairy(vacuum_state(ModeLayout((4, 5, 2))))


def test_nha_zubairy_detects_downconversion():
    states = spdc_trajectory(dims=(8, 7, 13), k=1, l=2, xi_max=0.25, steps=2)
    assert nha_zubairy(states[-1]) < -1e-4

    # against L1 = Q_A - Q^2_B, L2 = P_A + P^2_B and N_B written out as
    # operators, on the trajectory, a mixture with a displaced component, a
    # thermal product and a random density matrix
    lay = states[-1].layout
    pump = np.eye(8, dtype=complex)[:, 2]
    displaced = product_state(lay, pump, coherent_state(0.4, 7),
                              coherent_state(0.3 * np.exp(0.25j * np.pi), 13))
    mixed = QuantumState(lay, matrix=0.5 * states[-1].density() + 0.5 * displaced.density())
    therm = product_state(lay, pump, thermal_state(0.3, 7), thermal_state(0.2, 13))
    g = np.random.default_rng(8).normal(size=(lay.total_dim, 2 * lay.total_dim))
    g = g[:, ::2] + 1j * g[:, 1::2]
    noise = QuantumState(lay, matrix=g @ g.conj().T / np.trace(g @ g.conj().T).real)
    qa = nonlinear_quadratures(lay, lay.mode_a, 1)
    qb = nonlinear_quadratures(lay, lay.mode_b, 2)
    l1 = qa.q.data - qb.q.data
    l2 = qa.p.data + qb.p.data
    n_b = embed(number_operator(13), lay.mode_b, lay)
    for state in (*states, displaced, mixed, therm, noise):
        expected = (symmetrized_covariance(l1, l1, state) * symmetrized_covariance(l2, l2, state)
                    - (expectation(n_b, state).real + 0.75) ** 2
                    - symmetrized_covariance(l1, l2, state) ** 2)
        assert nha_zubairy(state) == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))


def test_lemma2_zero_detc_path():
    sf = StandardForm(
        a=0.8, b=1.1, c1=0.4, c2=0.0, f_ka=0.5, f_lb=1.0,
        t_a=np.eye(2), t_b=np.eye(2),
    )
    res = lemma2_transform(sf)
    # the det C = 0 scaling is recognised by its lambdas and its kept q-q coupling
    assert res.residual == 0.0
    lam = res.lambdas
    assert lam[0] == pytest.approx(2 * 0.8**2 / 0.5, abs=1e-12)
    assert lam[1] == pytest.approx(0.25, abs=1e-12)
    assert lam[2] == pytest.approx(2 * 1.1**2 / 1.0, abs=1e-12)
    assert lam[3] == pytest.approx(0.5, abs=1e-12)
    off = res.transformed[0, 2]
    assert off == pytest.approx(2 * np.sqrt(0.8 * 1.1) * 0.4 / np.sqrt(0.5), abs=1e-12)
    assert lemma1_check(res.as_covariance()) >= -1e-10


def test_lemma2_saturates_on_separable_mixtures():
    rng = np.random.default_rng(29)
    for trial in range(5):
        cov = coherent_mixture_covariance(rng)
        sf = standard_form(cov)
        assert sf.c1 * sf.c2 > 0, "mixture should have positively correlated planes"
        res = lemma2_transform(sf)
        assert res.lambdas[1] == pytest.approx(res.f_k / 2, abs=1e-6)
        assert res.lambdas[3] == pytest.approx(res.f_l / 2, abs=1e-6)
        assert res.residual <= 1e-6 * max(1.0, res.f_k + res.f_l)
        trans_cov = res.as_covariance()
        assert lemma1_check(trans_cov) >= -1e-8
        f = np.diag([res.f_k, res.f_k, res.f_l, res.f_l])
        assert np.linalg.eigvalsh(res.transformed - f / 2)[0] >= -1e-8


# (a, b, c1, c2, f_ka, f_lb): both orders of a and b, unequal f, one c1 < 0
HAND_BUILT_FORMS = (
    (0.9, 1.2, 0.3, 0.1, 0.5, 0.5),
    (1.2, 0.9, 0.3, 0.1, 0.5, 0.5),
    (0.8, 1.1, 0.4, 0.2, 0.5, 1.0),
    (2.0, 1.5, 0.9, 0.6, 1.5, 1.0),
    (0.3, 0.4, -0.1, -0.05, 0.5, 0.5),
)


def acceptance_09_standard_forms():
    """The 100 seeded mixtures of acceptance test 09, in standard form."""
    rng = np.random.default_rng(71)
    for _ in range(100):
        rho = 0.45 + 0.3 * rng.random()
        noise = 0.1 + 0.1 * rng.random()
        yield standard_form(coherent_mixture_covariance(rng, rho=rho, noise=noise))


def plane_blocks(a, b, c1, c2, u, v):
    """The qq and pp planes of a standard form scaled by (u, v)."""
    s = np.sqrt(abs(u * v))
    qq = np.array([[a * u, c1 * s], [c1 * s, b * v]])
    pp = np.array([[a / u, c2 / s], [c2 / s, b / v]])
    return qq, pp


def scaled_planes(sf, res):
    """u and the qq and pp planes of sf after the scaling res reports, in the
    arrangement it used (c1 >= 0, b >= a)."""
    a, b, c1, c2 = sf.a, sf.b, sf.c1, sf.c2
    if c1 < 0:
        c1, c2 = -c1, -c2
    if res.swapped:
        a, b = b, a
    u = (res.x * res.y1 / res.f_k) ** 2
    v = (res.y2 / (res.x * res.f_l)) ** 2
    return (u, *plane_blocks(a, b, c1, c2, u, v))


def test_lemma2_quadratic_saturates_both_planes():
    forms = [StandardForm(*f, np.eye(2), np.eye(2)) for f in HAND_BUILT_FORMS]
    for sf in [*forms, *acceptance_09_standard_forms()]:
        res = lemma2_transform(sf)
        _, qq, pp = scaled_planes(sf, res)
        assert abs(np.linalg.eigvalsh(qq)[0] - res.f_k / 2) < 1e-10, sf
        assert abs(np.linalg.eigvalsh(pp)[0] - res.f_l / 2) < 1e-10, sf
        assert np.abs(np.linalg.eigvalsh(qq)[::-1] - res.lambdas[:2]).max() < 1e-10
        assert np.abs(np.linalg.eigvalsh(pp)[::-1] - res.lambdas[2:]).max() < 1e-10
        assert res.residual < 1e-10
        assert (res.f_k, res.f_l) == ((sf.f_lb, sf.f_ka) if res.swapped else (sf.f_ka, sf.f_lb))


def admissible_scalings(a, b, c1, c2, fk, fl):
    """Every u where both planes' smaller eigenvalues sit at f/2, found
    without the quadratic: along the curve where det(qq - f_k/2) = 0, keep
    the stretches where f_k/2 is the smaller qq eigenvalue and bracket the
    zeros of the pp plane's smaller eigenvalue minus f_l/2."""

    def planes(u):
        v = (fk * a * u / 2 - fk**2 / 4) / ((a * b - c1**2) * u - fk * b / 2)
        return (v, *plane_blocks(a, b, c1, c2, u, v))

    def admissible(u):
        v, qq, _ = planes(u)
        return v > 0 and abs(np.linalg.eigvalsh(qq)[0] - fk / 2) < 1e-9

    def gap(u):
        return np.linalg.eigvalsh(planes(u)[2])[0] - fl / 2

    grid = np.geomspace(1e-2, 1e2, 1601)
    return [brentq(gap, lo, hi, xtol=1e-15)
            for lo, hi in zip(grid[:-1], grid[1:])
            if admissible(lo) and admissible(hi) and gap(lo) * gap(hi) < 0]


def test_lemma2_takes_the_admissible_root_with_larger_u():
    forms = [StandardForm(*f, np.eye(2), np.eye(2)) for f in HAND_BUILT_FORMS[2:4]]
    forms += list(islice(acceptance_09_standard_forms(), 3))
    for sf in forms:
        res = lemma2_transform(sf)
        a, b = (sf.b, sf.a) if res.swapped else (sf.a, sf.b)
        roots = admissible_scalings(a, b, sf.c1, sf.c2, res.f_k, res.f_l)
        assert len(roots) == 2
        u, _, _ = scaled_planes(sf, res)
        assert u == pytest.approx(max(roots), rel=1e-9)


def test_lemma2_without_admissible_root_raises():
    # both planes far below f/2: the quadratic has two positive roots, but at
    # each f/2 is the larger eigenvalue of both planes (traces 0.28 < f)
    sf = StandardForm(0.1, 0.1, 0.05, 0.05, 0.5, 0.5, np.eye(2), np.eye(2))
    with pytest.raises(NumericalConsistencyError, match="no admissible scaling .* for "
                       "a=0.1, b=0.1, c1=0.05, c2=0.05, f_k=0.5, f_l=0.5"):
        lemma2_transform(sf)


def test_import_does_not_load_scipy_optimize():
    src = str(Path(hocov.__file__).resolve().parents[1])
    code = ("import sys, hocov; "
            "print([m for m in ('scipy.optimize', 'scipy.sparse.csgraph') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_lemma2_rejects_negative_detc():
    cov = build_covariance(tmsv_state(0.4), 1, 1, 1)
    sf = standard_form(cov)
    assert sf.c1 * sf.c2 < 0
    with pytest.raises(ValueError):
        lemma2_transform(sf)


def test_lemma2_handles_negative_c1_gauge():
    # flipping both signs of the cross block is a local half-turn: same result
    sf_pos = StandardForm(0.9, 1.2, 0.3, 0.1, 0.5, 0.5, np.eye(2), np.eye(2))
    sf_neg = StandardForm(0.9, 1.2, -0.3, -0.1, 0.5, 0.5, np.eye(2), np.eye(2))
    r_pos = lemma2_transform(sf_pos)
    r_neg = lemma2_transform(sf_neg)
    assert r_pos.lambdas == pytest.approx(r_neg.lambdas, abs=1e-10)


def test_witness_report_fields():
    state = spdc_trajectory(xi_max=0.3, steps=1)[-1]
    rep = evaluate_criteria(state, 1, 1, 2, with_nz=True)
    assert (rep.n, rep.k, rep.l) == (1, 1, 2)
    assert rep.nz_value is not None
    assert isinstance(rep.verdict, str)
    assert rep.det_c == pytest.approx(rep.det_c)
    no_nz = evaluate_criteria(state, 1, 1, 2)
    assert no_nz.nz_value is None
    assert no_nz.nu_minus == pytest.approx(rep.nu_minus, abs=1e-14)


def test_consistency_error_type():
    assert issubclass(NumericalConsistencyError, RuntimeError)
