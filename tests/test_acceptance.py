"""End-to-end acceptance checks.

Ten checks pin the quantitative claims the package is built around: the
exact commutator table, vanishing first moments along the sweep, the
two-mode squeezed vacuum oracle, physicality margins, the sign agreement
between the eigenvalue witness and the determinant inequality, the three
reference sweeps (detection windows, hierarchy ordering, order
competition), the constructive separability transform, and the
mirror-reflection invariant algebra.

One more check pins the verdict and truncation flag of every grid point
of the three reference sweeps.

Each numbered test prints one summary line (visible with pytest -s); the
per-test PASSED/FAILED line of pytest -v is the machine-readable verdict. The
sweep-backed checks share module-scoped fixtures, so the first of them
pays the evolution cost. The convergence check re-runs a subsample at
boosted truncations and dominates the runtime (about ten minutes).
"""

import math
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from hocov import (
    EvolutionConfig,
    InteractionSpec,
    ModeLayout,
    QuantumState,
    StandardForm,
    build_classical_pump_hamiltonian,
    build_covariance,
    build_hamiltonian,
    coherent_state,
    evaluate_criteria,
    evolve,
    inequality7_margin,
    inequality8_margin,
    invariants,
    lemma1_check,
    lemma2_transform,
    mirror_reflect,
    product_state,
    standard_form,
    uncertainty_margin,
    vacuum_state,
)
from hocov.covariance import HigherOrderCovariance
from hocov.quadratures import f_polynomial
from hocov.sweep import config_from_file, convergence_check, run_sweep

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BAND = 1e-9


def _report(index, label, detail):
    print(f"[acceptance {index:2d}/10] PASS {label}: {detail}")


def _zero_crossing(xis, values):
    """Last downward-to-nonnegative zero crossing, linearly interpolated."""
    idx = None
    for i in range(len(values) - 1):
        if values[i] < 0.0 <= values[i + 1]:
            idx = i
    if idx is None:
        return None
    x0, x1 = xis[idx], xis[idx + 1]
    v0, v1 = values[idx], values[idx + 1]
    return x0 + (x1 - x0) * (0.0 - v0) / (v1 - v0)


def _series(result, n, field):
    rows = sorted((r for r in result.rows if r.n == n), key=lambda r: r.xi)
    xis = [r.xi for r in rows]
    return xis, [getattr(r, field) for r in rows]


@pytest.fixture(scope="module")
def window_sweep():
    cfg = config_from_file(str(CONFIG_DIR / "window.cfg"))
    return run_sweep(cfg, keep_states=True)


@pytest.fixture(scope="module")
def hierarchy_sweep():
    cfg = config_from_file(str(CONFIG_DIR / "hierarchy.cfg"))
    return run_sweep(cfg, keep_states=True)


@pytest.fixture(scope="module")
def competition_sweep():
    cfg = config_from_file(str(CONFIG_DIR / "competition.cfg"))
    return run_sweep(cfg, keep_states=True)


@pytest.fixture(scope="module")
def sweep_margins(window_sweep, hierarchy_sweep, competition_sweep):
    """One covariance pass per (state, level) across all reference sweeps."""
    out = {}
    for name, result in (("window", window_sweep), ("hierarchy", hierarchy_sweep),
                         ("competition", competition_sweep)):
        cfg = result.config
        entries = []
        for xi, state in zip(result.xi_grid, result.states):
            for n in cfg.hierarchy:
                cov = build_covariance(state, n, cfg.k, cfg.l)
                entries.append({
                    "xi": xi,
                    "n": n,
                    "max_moment": float(np.max(np.abs(cov.first_moments))),
                    "uncertainty": uncertainty_margin(cov),
                    "ineq7": inequality7_margin(cov),
                })
        out[name] = entries
    return out


def test_01_commutator_table_exact():
    worst = 0.0
    with mp.workdps(50):
        imag_unit = mp.mpc(0, 1)
        for m in range(1, 10):
            dim = 3 * m + 8
            am = mp.matrix(dim, dim)
            for i in range(dim - m):
                prod = 1
                for j in range(i + 1, i + m + 1):
                    prod *= j
                am[i, i + m] = mp.sqrt(prod)
            adm = am.T
            qm = (am + adm) / 2
            pm = imag_unit * (adm - am) / 2
            comm = qm * pm - pm * qm
            poly = f_polynomial(m)
            safe = dim - m
            for i in range(safe):
                for j in range(safe):
                    target = mp.mpf(0)
                    if i == j:
                        frac = poly(i)
                        target = mp.mpf(frac.numerator) / frac.denominator
                    worst = max(worst, float(abs(comm[i, j] - imag_unit * target)))
    assert worst < 1e-10
    _report(1, "commutator table", f"max deviation {worst:.3e} for m=1..9")


def test_02_first_moments_vanish(hierarchy_sweep, sweep_margins):
    assert {n for r in hierarchy_sweep.rows for n in [r.n]} == {1, 2, 3}
    worst = {n: 0.0 for n in (1, 2, 3)}
    for entry in sweep_margins["hierarchy"]:
        worst[entry["n"]] = max(worst[entry["n"]], entry["max_moment"])
    for n, value in worst.items():
        assert value < 1e-8, f"first moments leak at n={n}: {value:.3e}"
    detail = ", ".join(f"n={n}: {v:.2e}" for n, v in worst.items())
    _report(2, "first moments vanish", detail)


def test_03_gaussian_oracle():
    worst_entry = 0.0
    for r, dim in ((0.25, 24), (0.5, 24), (1.0, 40)):
        lay = ModeLayout((dim, dim))
        ham = build_classical_pump_hamiltonian(InteractionSpec(lay, 1, 1, 1.0), 2.0)
        cfg = EvolutionConfig(xi_grid=(0.0, r), kappa=1.0, alpha_p=2.0)
        state = evolve(vacuum_state(lay), ham, cfg)[-1]
        cov = build_covariance(state, 1, 1, 1)
        alpha = math.cosh(2 * r) / 4
        gamma = math.sinh(2 * r) / 4
        expected = np.diag([alpha] * 4).astype(float)
        expected[0, 2] = expected[2, 0] = gamma
        expected[1, 3] = expected[3, 1] = -gamma
        worst_entry = max(worst_entry, float(np.max(np.abs(cov.matrix - expected))))
        assert inequality8_margin(cov) < -BAND, f"entanglement missed at r={r}"
    assert worst_entry < 1e-5
    vac_cov = build_covariance(vacuum_state(ModeLayout((8, 8))), 1, 1, 1)
    m8_vac = inequality8_margin(vac_cov)
    assert m8_vac >= -BAND, "r=0 wrongly reported entangled"
    _report(3, "squeezed-vacuum oracle",
            f"worst entry deviation {worst_entry:.3e}, r=0 margin {m8_vac:.1e}")


def test_04_physicality_margins(sweep_margins, window_sweep, hierarchy_sweep,
                                competition_sweep):
    worst_unc = min(e["uncertainty"] for es in sweep_margins.values() for e in es)
    worst_i7 = min(e["ineq7"] for es in sweep_margins.values() for e in es)
    assert worst_unc >= -1e-8
    assert worst_i7 >= -1e-8
    for result in (window_sweep, hierarchy_sweep, competition_sweep):
        for row in result.rows:
            assert row.ineq7 >= -1e-8
    total = sum(len(es) for es in sweep_margins.values())
    _report(4, "physicality margins",
            f"min uncertainty {worst_unc:.2e}, min variance-product "
            f"margin {worst_i7:.2e} over {total} sweep points")


def test_05_witness_inequality_equivalence(window_sweep, hierarchy_sweep,
                                           competition_sweep):
    count = 0

    def agree(nu, m8, where):
        nonlocal count
        count += 1
        assert (nu < -BAND) == (m8 < -BAND), \
            f"sign disagreement at {where}: nu={nu:.3e}, ineq8={m8:.3e}"

    for name, result in (("window", window_sweep), ("hierarchy", hierarchy_sweep),
                         ("competition", competition_sweep)):
        for row in result.rows:
            agree(row.nu_minus, row.ineq8, f"{name} xi={row.xi} n={row.n}")

    systems = (
        dict(k=1, l=2, dims=(12, 6, 16), alpha=1.0, xi_max=0.3, steps=110,
             levels=(1, 2)),
        dict(k=1, l=2, dims=(12, 8, 20), alpha=0.8, xi_max=0.4, steps=110,
             levels=(1, 2)),
        dict(k=2, l=1, dims=(10, 11, 6), alpha=1.0, xi_max=0.3, steps=80,
             levels=(1,)),
        dict(k=1, l=3, dims=(10, 5, 17), alpha=1.0, xi_max=0.3, steps=80,
             levels=(1,)),
        dict(k=2, l=2, dims=(10, 11, 11), alpha=1.0, xi_max=0.25, steps=80,
             levels=(1,)),
    )
    for sys_cfg in systems:
        lay = ModeLayout(sys_cfg["dims"])
        ham = build_hamiltonian(InteractionSpec(lay, sys_cfg["k"], sys_cfg["l"]))
        pump = coherent_state(sys_cfg["alpha"], sys_cfg["dims"][0],
                              allow_truncation=True)
        ground_a = np.zeros(sys_cfg["dims"][1], dtype=complex)
        ground_a[0] = 1.0
        ground_b = np.zeros(sys_cfg["dims"][2], dtype=complex)
        ground_b[0] = 1.0
        psi0 = product_state(lay, pump, ground_a, ground_b)
        grid = tuple(np.round(np.linspace(0.0, sys_cfg["xi_max"],
                                          sys_cfg["steps"] + 1), 12))
        evo = EvolutionConfig(xi_grid=grid, kappa=1.0, alpha_p=sys_cfg["alpha"])
        for xi, state in zip(grid, evolve(psi0, ham, evo)):
            for n in sys_cfg["levels"]:
                rep = evaluate_criteria(state, n, sys_cfg["k"], sys_cfg["l"])
                agree(rep.nu_minus, rep.ineq8_margin,
                      f"k={sys_cfg['k']} l={sys_cfg['l']} xi={xi} n={n}")

    lay = ModeLayout((30, 30))
    ham = build_classical_pump_hamiltonian(InteractionSpec(lay, 1, 1, 1.0), 2.0)
    r_grid = tuple(np.round(np.linspace(0.0, 1.0, 101), 12))
    evo = EvolutionConfig(xi_grid=r_grid, kappa=1.0, alpha_p=2.0)
    for r, state in zip(r_grid, evolve(vacuum_state(lay), ham, evo)):
        rep = evaluate_criteria(state, 1, 1, 1)
        agree(rep.nu_minus, rep.ineq8_margin, f"squeezed r={r}")

    assert count >= 1000
    _report(5, "witness equivalence", f"100% sign agreement on {count} states")


def test_06_detection_window_two_photon_idler(window_sweep):
    assert window_sweep.clean, "truncation guard tripped along the reference sweep"
    xis, nu1 = _series(window_sweep, 1, "nu_minus")
    _, nz = _series(window_sweep, 1, "nz")
    assert all(v is not None for v in nz)

    nz_detect = {x for x, v in zip(xis, nz) if v < -BAND}
    nu_detect = {x for x, v in zip(xis, nu1) if v < -BAND}
    assert nz_detect, "variance-product comparator never fires"
    assert nz_detect < nu_detect, "witness interval is not a strict superset"

    nz_cross = _zero_crossing(xis, nz)
    assert nz_cross is not None
    assert 0.225 <= nz_cross <= 0.375

    nu_cross = _zero_crossing(xis, nu1)
    assert nu_cross is not None
    assert 0.75 <= nu_cross <= 1.25
    assert abs(nu_cross - 1.0071) < 0.02, "witness crossing moved"

    tail = [v for x, v in zip(xis, nu1) if x > nu_cross]
    assert all(v >= -BAND for v in tail), "entanglement re-enters after crossing"
    assert nu1[-1] > 0.5

    report = convergence_check(window_sweep.config)
    assert report["pass"], (
        f"truncation drift {report['max_drift']:.3e} exceeds "
        f"{report['threshold']:.0e} at dims {report['boosted_dims']}"
    )
    _report(6, "detection window",
            f"comparator crossing {nz_cross:.4f}, witness crossing "
            f"{nu_cross:.4f}, drift {report['max_drift']:.2e}")


def test_07_hierarchy_onsets_coexist(hierarchy_sweep):
    assert hierarchy_sweep.clean
    onsets = {}
    series = {}
    for n in (1, 2, 3):
        xis, nu = _series(hierarchy_sweep, n, "nu_minus")
        series[n] = (xis, nu)
        detected = [x for x, v in zip(xis, nu) if v < -BAND]
        assert detected, f"level n={n} never detects"
        onsets[n] = min(detected)
    assert onsets[1] <= onsets[2] <= onsets[3]

    xis = series[1][0]
    coexist = [x for i, x in enumerate(xis)
               if x > 0 and all(series[n][1][i] < -BAND for n in (1, 2, 3))]
    assert len(coexist) >= 10, "coexistence interval too short"
    end = {n: series[n][1][-1] for n in (1, 2, 3)}
    assert end[3] < end[2] < end[1] < -BAND
    _report(7, "hierarchy ordering",
            f"onsets {onsets[1]:.2f}/{onsets[2]:.2f}/{onsets[3]:.2f}, "
            f"coexistence over {len(coexist)} grid points up to xi={max(coexist):.2f}")


def test_08_order_competition(competition_sweep):
    assert competition_sweep.clean
    xis, nu1 = _series(competition_sweep, 1, "nu_minus")
    _, nu2 = _series(competition_sweep, 2, "nu_minus")
    window = [i for i, x in enumerate(xis) if 0.10 <= x <= 0.50]
    assert window
    for i in window:
        assert nu1[i] >= -BAND
        assert nu1[i] > 1e-3, "first level unexpectedly close to detection"
        assert nu2[i] < -1e-2, "second level lost the entanglement"
    lo, hi = xis[window[0]], xis[window[-1]]
    _report(8, "order competition",
            f"level 1 blind while level 2 detects across xi in [{lo:.2f}, {hi:.2f}] "
            f"({len(window)} points)")


# verdict and truncation_flag of every level of the three reference sweeps,
# run-length encoded along the xi grid: a change to the moments, the criteria
# or the evolution that moves any verdict or flag fails here
REFERENCE_VERDICTS = {
    ("window", 1): [("boundary", 1), ("entangled", 50), ("separable", 25)],
    ("hierarchy", 1): [("boundary", 1), ("entangled", 30)],
    ("hierarchy", 2): [("boundary", 1), ("entangled", 30)],
    ("hierarchy", 3): [("boundary", 1), ("entangled", 30)],
    ("competition", 1): [("boundary", 1), ("entangled", 4), ("separable", 21)],
    ("competition", 2): [("boundary", 1), ("entangled", 2), ("separable", 1), ("entangled", 22)],
}


def _runs(values):
    return [(value, len(list(group))) for value, group in groupby(values)]


def test_reference_verdicts_and_flags_are_pinned(window_sweep, hierarchy_sweep,
                                                 competition_sweep):
    sweeps = {"window": window_sweep, "hierarchy": hierarchy_sweep,
              "competition": competition_sweep}
    levels = {(name, n) for name, result in sweeps.items() for n in result.config.hierarchy}
    assert levels == set(REFERENCE_VERDICTS)
    for (name, n), verdicts in REFERENCE_VERDICTS.items():
        rows = [r for r in sweeps[name].rows if r.n == n]
        assert [r.xi for r in rows] == list(sweeps[name].xi_grid), (name, n)
        assert _runs(r.verdict for r in rows) == verdicts, (name, n)
        assert _runs(r.truncation_flag for r in rows) == [("ok", len(rows))], (name, n)


def test_09_separable_transform_saturates():
    rng = np.random.default_rng(71)
    dim = 14
    lay = ModeLayout((dim, dim))
    worst = 0.0
    for trial in range(100):
        rho = 0.45 + 0.3 * rng.random()
        noise = 0.1 + 0.1 * rng.random()
        total = np.zeros((dim * dim, dim * dim), dtype=complex)
        for _ in range(40):
            beta = 0.5 * (rng.normal() + 1j * rng.normal())
            gamma = rho * beta + noise * (rng.normal() + 1j * rng.normal())
            vec = np.kron(coherent_state(beta, dim, allow_truncation=True),
                          coherent_state(gamma, dim, allow_truncation=True))
            total += np.outer(vec, vec.conj())
        total /= 40
        cov = build_covariance(QuantumState(lay, matrix=total), 1, 1, 1)
        sf = standard_form(cov)
        assert sf.c1 * sf.c2 > 0, f"trial {trial} lost the positive correlation"
        res = lemma2_transform(sf)
        worst = max(worst, res.residual)
        assert abs(res.lambdas[1] - res.f_k / 2) < 1e-6, f"trial {trial}"
        assert abs(res.lambdas[3] - res.f_l / 2) < 1e-6, f"trial {trial}"
        assert lemma1_check(res.as_covariance()) >= -1e-8, f"trial {trial}"
    _report(9, "separable transform",
            f"both plane minima saturate f/2 on 100 mixtures "
            f"(worst summed deviation {worst:.1e})")


def test_10_mirror_reflection_algebra():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        g = rng.normal(size=(4, 4))
        matrix = g @ g.T + 0.5 * np.eye(4)
        cov = HigherOrderCovariance(
            matrix=matrix,
            f_ka=0.3 + 2.7 * rng.random(),
            f_lb=0.3 + 2.7 * rng.random(),
            first_moments=rng.normal(size=4),
            n=1, k=1, l=1,
        )
        inv = invariants(cov)
        minv = invariants(mirror_reflect(cov))
        assert minv.i3 == -inv.i3, "cross-block determinant flip is not exact"
        for a, b in ((inv.i1, minv.i1), (inv.i2, minv.i2), (inv.i4, minv.i4)):
            diff = abs(a - b) / max(1.0, abs(a))
            worst = max(worst, diff)
            assert diff < 1e-12
    _report(10, "mirror algebra",
            f"det C flips exactly, invariants drift at most {worst:.1e} "
            f"on 1000 samples")
