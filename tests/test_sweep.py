import math
import os
import stat
from dataclasses import fields

import numpy as np
import pytest

import hocov.cli
import hocov.criteria
import hocov.sweep
from hocov import UnsupportedOrderError, top_level_population
from hocov.cli import main
from hocov.sweep import (
    SweepConfig,
    SweepRow,
    config_from_file,
    convergence_check,
    emit_plot_data,
    load_config,
    read_csv,
    run_sweep,
    write_csv,
)

TINY = dict(k=1, l=2, alpha_p=1.0, dims=(12, 6, 11), xi_max=0.06,
            xi_step=0.03, hierarchy=(1, 2))


def tiny_config(**kw):
    merged = {**TINY, **kw}
    return SweepConfig(**merged)


def write_tiny_cfg(path, **kw):
    merged = {**TINY, **kw}
    lines = []
    for key, value in merged.items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_sweep_rows_and_zero_point():
    result = run_sweep(tiny_config())
    assert len(result.rows) == 3 * 2
    for row in result.rows:
        assert row.truncation_flag == "ok"
        if row.xi == 0.0:
            assert row.verdict == "boundary"
            assert abs(row.nu_minus) < 1e-8
        else:
            assert row.verdict == "entangled"
            assert row.nu_minus < 0
            assert row.ineq8 < 0
        assert row.nz is None
    by_n = {n: [r for r in result.rows if r.n == n] for n in (1, 2)}
    assert [r.xi for r in by_n[1]] == [r.xi for r in by_n[2]]


@pytest.mark.parametrize("k,l,dims", [(1, 2, (12, 6, 11)), (1, 3, (10, 5, 13)), (2, 1, (10, 9, 5))])
def test_sweep_builds_only_the_charge_zero_block(monkeypatch, k, l, dims):
    built = []
    original = hocov.sweep.build_hamiltonian

    def recording(spec, *args, **kwargs):
        op = original(spec, *args, **kwargs)
        built.append(op.data)
        return op

    monkeypatch.setattr(hocov.sweep, "build_hamiltonian", recording)
    run_sweep(tiny_config(k=k, l=l, dims=dims, hierarchy=(1,)), keep_states=False)
    assert len(built) == 1
    # rows with l N_A - k N_B = 0 that a raising or a lowering event couples
    n_p, n_a, n_b = np.unravel_index(np.arange(math.prod(dims)), dims)
    zero = l * n_a == k * n_b
    ups = zero & (n_p >= 1) & (n_a + k < dims[1]) & (n_b + l < dims[2])
    downs = zero & (n_p + 1 < dims[0]) & (n_a >= k) & (n_b >= l)
    assert built[0].shape == (math.prod(dims),) * 2
    assert built[0].nnz == np.count_nonzero(ups) + np.count_nonzero(downs)


def test_sweep_with_nz_column(monkeypatch):
    stacks, per_state = [], []
    stack = hocov.sweep.covariance_stack
    build = hocov.criteria.build_covariance
    monkeypatch.setattr(hocov.sweep, "covariance_stack",
                        lambda *args: stacks.append(args[3:]) or stack(*args))
    monkeypatch.setattr(hocov.criteria, "build_covariance",
                        lambda *args: per_state.append(args[1:]) or build(*args))
    result = run_sweep(tiny_config(with_nz=True))
    # one covariance stack per level, no covariance per (point, level): the
    # comparator reuses the n = 1 stack
    assert stacks == [(1, 1, 2), (2, 1, 2)]
    assert per_state == []
    for row in result.rows:
        if row.n == 1:
            assert row.nz == hocov.criteria.nha_zubairy(result.states[result.xi_grid.index(row.xi)])
        else:
            assert row.nz is None
    # the zero-variance comparator starts at zero and goes negative
    nz = [r.nz for r in result.rows if r.n == 1]
    assert abs(nz[0]) < 1e-12
    assert nz[-1] < 0

    # without level 1 the comparator still comes from the n = 1 covariance
    stacks.clear()
    result = run_sweep(tiny_config(with_nz=True, hierarchy=(2,)))
    assert stacks == [(2, 1, 2), (1, 1, 2)]
    for row, state in zip(result.rows, result.states):
        assert row.nz == hocov.criteria.nha_zubairy(state)


def test_csv_determinism_and_roundtrip(tmp_path):
    result = run_sweep(tiny_config(), keep_states=False)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(result, str(p1))
    write_csv(result, str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    text = p1.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0].startswith("# higher-order covariance sweep")
    assert "k=1 l=2" in lines[1]
    assert lines[2].startswith("n,k,l,xi,nu_minus")

    assert lines[1] == ("# k=1 l=2 alpha_p=1.0 dims=12,6,11 xi_max=0.06 xi_step=0.03 "
                        "hierarchy=1,2 with_nz=false")

    rows = read_csv(str(p1))
    assert len(rows) == len(result.rows)
    for got, want in zip(rows, result.rows):
        for field in fields(SweepRow):
            g, w = getattr(got, field.name), getattr(want, field.name)
            if w is None or isinstance(w, (int, str)):
                assert type(g) is type(w) and g == w, field.name
            else:
                assert g == pytest.approx(w, rel=1e-11, abs=0), field.name


def test_csv_header_records_with_nz(tmp_path):
    # the header's key=value pairs read back as the config that wrote it
    cfg = tiny_config(with_nz=True)
    result = run_sweep(cfg, keep_states=False)
    path = tmp_path / "nz.csv"
    write_csv(result, str(path))
    header = path.read_text(encoding="utf-8").splitlines()[1]
    assert header.startswith("# ") and " with_nz=true" in header
    cfg_path = tmp_path / "header.cfg"
    cfg_path.write_text("\n".join(header[2:].split()) + "\n", encoding="utf-8")
    assert config_from_file(str(cfg_path)) == cfg
    rows = read_csv(str(path))
    assert [r.nz for r in rows] == pytest.approx([r.nz for r in result.rows], rel=1e-11, abs=1e-300)


def test_read_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed"):
        read_csv(str(path))


def test_load_config_reports_file_and_line(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("k = 1\nbogus = 3\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    assert "bogus" in str(err.value)
    assert "sweep.cfg:2" in str(err.value)

    path.write_text("k one\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key=value"):
        load_config(str(path))

    path.write_text("k = x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad value for k"):
        load_config(str(path))

    path.write_text("with_nz = maybe\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad value for with_nz"):
        load_config(str(path))

    # a repeated key is refused, not won by its last line, also when spelled differently
    for text, key, first, again in (("k = 1\nl = 2\nk = 3\n", "k", 1, 3),
                                    ("# pump\nalpha_p = 2\n\nAlpha-P = 2\n", "alpha_p", 2, 4)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"sweep\.cfg:{again}: key '{key}' is already set on "
                                             rf"line {first}$"):
            load_config(str(path))


def test_load_config_parses_types(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# comment line\n"
        "k = 1\n"
        "l = 3\n"
        "alpha_p = 2.5   # inline comment\n"
        "dims = 10, 6, 16\n"
        "hierarchy = 1 2\n"
        "with_nz = no\n"
        "out = run.csv\n",
        encoding="utf-8",
    )
    values = load_config(str(path))
    assert values == {
        "k": 1, "l": 3, "alpha_p": 2.5, "dims": (10, 6, 16),
        "hierarchy": (1, 2), "with_nz": False, "out": "run.csv",
    }

    # every SweepConfig key, each parsed as the type of its default
    path.write_text(
        "k = 2\nl = 1\nalpha_p = 3\ndims = 8 9 10\nxi_max = 1\n"
        "xi_step = 0.25\nhierarchy = 2,1\nwith_nz = ON\nout = sweep.csv\n",
        encoding="utf-8",
    )
    values = load_config(str(path))
    assert values.keys() == {f.name for f in fields(SweepConfig)}
    assert values == {
        "k": 2, "l": 1, "alpha_p": 3.0, "dims": (8, 9, 10),
        "xi_max": 1.0, "xi_step": 0.25, "hierarchy": (2, 1), "with_nz": True,
        "out": "sweep.csv",
    }
    for f in fields(SweepConfig):
        want = str if f.default is None else type(f.default)
        assert type(values[f.name]) is want, f.name


def test_config_from_file_overrides(tmp_path):
    path = tmp_path / "sweep.cfg"
    write_tiny_cfg(path, l=3)
    cfg = config_from_file(str(path), l=2, xi_max=None)
    assert cfg.l == 2
    assert cfg.xi_max == pytest.approx(TINY["xi_max"])
    assert cfg.dims == TINY["dims"]


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(xi_step=0.0)
    with pytest.raises(ValueError):
        tiny_config(hierarchy=())
    with pytest.raises(ValueError):
        tiny_config(hierarchy=(0,))
    with pytest.raises(ValueError):
        tiny_config(dims=(4, 5))
    with pytest.raises(ValueError):
        tiny_config(l=3, with_nz=True)


@pytest.mark.parametrize("bad,match", [
    (dict(hierarchy=(1.5,)), r"hierarchy must hold integers, got \(1\.5,\)"),
    (dict(xi_max=-0.5), "xi_max must be nonnegative and finite, got -0.5"),
    (dict(alpha_p=-5.0), "alpha_p must be positive"),
    (dict(dims=(12, 6.5, 11)), "dims must hold integers"),
    (dict(k=0), "k must be an integer >= 1"),
    (dict(k=1, l=1, hierarchy=(1,)), r"k \+ l >= 3"),
    (dict(hierarchy=(1, 1)), "hierarchy lists a level twice"),
    (dict(dims=(12, 6)), "dims must name"),
    (dict(hierarchy=("1",)), "hierarchy must hold integers"),
    (dict(alpha_p=float("inf")), "alpha_p must be positive and finite, got inf"),
    (dict(dims=(12.0, 6, 11)), "dims must hold integers"),
    (dict(xi_step=float("nan")), "xi_step must be positive and finite, got nan"),
    (dict(xi_step=float("inf")), "xi_step must be positive and finite, got inf"),
    (dict(xi_max=float("nan")), "xi_max must be nonnegative and finite, got nan"),
    (dict(xi_max=float("inf")), "xi_max must be nonnegative and finite, got inf"),
])
def test_config_refuses_each_bad_key(bad, match):
    with pytest.raises(ValueError, match=match):
        tiny_config(**bad)


@pytest.mark.parametrize("command", ["sweep", "check"])
def test_cli_reports_a_refused_config_as_usage_error(tmp_path, capsys, command):
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg", alpha_p=0.0)
    out = tmp_path / "out.txt"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alpha_p must be positive")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,key", [
    ("--xi-step", "nan", "xi_step"),
    ("--xi-max", "nan", "xi_max"),
    ("--xi-max", "inf", "xi_max"),
    ("--alpha-p", "inf", "alpha_p"),
])
@pytest.mark.parametrize("command", ["sweep", "check"])
def test_cli_refuses_a_non_finite_value_before_any_work(tmp_path, capsys, monkeypatch,
                                                      command, flag, value, key):
    monkeypatch.setattr(hocov.cli, "run_sweep", None)  # any work would raise
    monkeypatch.setattr(hocov.cli, "convergence_check", None)
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg")
    out = tmp_path / "out.txt"
    assert main([command, "--config", cfg_path, flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_kappa_and_tol_are_not_sweep_settings(tmp_path, capsys, monkeypatch):
    # xi = kappa t alpha_p, so kappa cancels out of every output, and the
    # propagator's residual guard is EvolutionConfig's own
    assert [f.name for f in fields(SweepConfig)] == [
        "k", "l", "alpha_p", "dims", "xi_max", "xi_step", "hierarchy", "with_nz", "out"]
    monkeypatch.setattr(hocov.cli, "run_sweep", None)  # any work would raise
    monkeypatch.setattr(hocov.cli, "convergence_check", None)
    capsys.readouterr()
    for command in ("sweep", "check"):
        for key in ("kappa", "tol"):
            cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg", **{key: 1.0})
            assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"error: {cfg_path}:8: unknown key {key!r}\n"
            with pytest.raises(SystemExit) as exc:
                main([command, f"--{key}", "1"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = capsys.readouterr().out
        assert "kappa" not in help_text and "--tol" not in help_text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.cfg"]


def test_cli_reports_a_missing_config_and_a_bad_stride(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "run.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg")
    assert main(["check", "--config", cfg_path, "--stride", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: --stride must be >= 1")


def test_unsupported_order_fails_before_evolution():
    # n=5 with l=2 needs Q^10 on mode B; orders above MAX_ORDER = 9 are
    # refused for precision
    with pytest.raises(UnsupportedOrderError, match=r"n=5 .*order 10"):
        tiny_config(hierarchy=(1, 5))
    with pytest.raises(UnsupportedOrderError, match=r"n=4 .*order 12"):
        tiny_config(l=3, hierarchy=(4,))
    assert tiny_config(l=3, hierarchy=(3,)).hierarchy == (3,)


def test_cutoff_fit_fails_before_evolution():
    # n=3 with l=2 needs Q^6 on mode B, which a cutoff of 6 cannot hold; the
    # config refuses it when built, so no sweep can start
    with pytest.raises(ValueError, match=r"dims=\(12, 6, 6\).*n=3 .*order 6 on mode B"):
        tiny_config(dims=(12, 6, 6), hierarchy=(1, 3))
    with pytest.raises(ValueError, match=r"dims=\(12, 4, 11\).*n=2 .*order 4 on mode A"):
        tiny_config(k=2, l=1, dims=(12, 4, 11), hierarchy=(2,))
    assert tiny_config(dims=(12, 4, 5)).dims == (12, 4, 5)


def test_xi_grid_spacing():
    cfg = tiny_config(xi_max=0.1, xi_step=0.02)
    grid = cfg.xi_grid()
    assert grid[0] == 0.0
    assert len(grid) == 6
    assert np.allclose(np.diff(grid), 0.02)
    assert grid[-1] == pytest.approx(0.1)


def test_emit_plot_data(tmp_path):
    result = run_sweep(tiny_config(with_nz=True), keep_states=False)
    out = tmp_path / "series.tsv"
    emit_plot_data(result.rows, str(out), series=("nu1", "nu2", "ineq8_1", "nz", "nu3"))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# xi\tnu1\tnu2\tineq8_1\tnz\tnu3"
    assert len(lines) == 1 + 3
    first = lines[1].split("\t")
    assert float(first[0]) == 0.0
    assert first[5] == "nan", "hierarchy level 3 was not computed"
    last = lines[-1].split("\t")
    assert float(last[1]) < 0
    assert float(last[4]) < 0

    with pytest.raises(ValueError, match="selector"):
        emit_plot_data(result.rows, str(out), series=("nope_1",))


def test_convergence_check_structure():
    cfg = tiny_config()
    with pytest.raises(ValueError):
        convergence_check(cfg, stride=0)
    report = convergence_check(cfg, stride=2)
    assert set(report) == {"max_drift", "max_drift_by_level", "threshold", "pass",
                           "points", "base_dims", "boosted_dims"}
    assert report["base_dims"] == cfg.dims
    assert report["boosted_dims"] == tuple(
        d + b for d, b in zip(cfg.dims, hocov.sweep.CONVERGENCE_STEP))
    assert report["max_drift"] == max(p["drift"] for p in report["points"])
    assert report["pass"] == (report["max_drift"] < report["threshold"])
    xis = {p["xi"] for p in report["points"]}
    assert xis == {0.0, 0.06}
    # xi = 0 is the same product state at both cutoffs, so its drift is numerical noise
    assert max(p["drift"] for p in report["points"] if p["xi"] == 0.0) < 1e-12


def test_convergence_check_reports_the_drift_of_each_level():
    report = convergence_check(tiny_config(xi_max=0.09), stride=1)
    by_level = report["max_drift_by_level"]
    assert list(by_level) == [1, 2]
    for n, drift in by_level.items():
        assert drift == max(p["drift"] for p in report["points"] if p["n"] == n)
    assert report["max_drift"] == max(by_level.values())
    # the level-2 witness reads higher moments, which the cutoff bounds worse
    assert by_level[2] > by_level[1]


def test_convergence_check_refuses_a_check_that_cannot_fail(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(hocov.sweep, "run_sweep", no_sweep)
    # a stride past the 3-point grid leaves only xi = 0
    for stride in (3, 50):
        with pytest.raises(ValueError, match=f"stride={stride}"):
            convergence_check(tiny_config(), stride=stride)
    with pytest.raises(ValueError, match="stride"):
        convergence_check(tiny_config(xi_max=0.0), stride=1)


def test_cli_sweep_exit_codes(tmp_path, capsys):
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg")
    out = tmp_path / "run.csv"

    code = main(["sweep", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "clean" in capsys.readouterr().out
    assert len(read_csv(str(out))) == 6

    # starved mode truncations trip the guard and flip the exit code
    code = main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--dims", "8,3,5", "--alpha-p", "2.0", "--hierarchy", "1",
                 "--xi-max", "0.4", "--xi-step", "0.2"])
    assert code == 3
    assert "flagged" in capsys.readouterr().out

    code = main(["sweep", "--k", "1", "--l", "2"])
    assert code == 2
    assert "no output path" in capsys.readouterr().err


def test_catastrophic_truncation_raises():
    # beyond mild guard breaches, corrupted moments break the sign agreement
    # between the witness and the determinant inequality; the cross-check
    # refuses to emit rows instead of writing garbage
    from hocov import NumericalConsistencyError

    cfg = tiny_config(dims=(8, 3, 5), alpha_p=2.0, xi_max=0.4, xi_step=0.2,
                      hierarchy=(1, 2))
    with pytest.raises(NumericalConsistencyError):
        run_sweep(cfg)


def test_cross_check_failure_names_its_grid_point_and_level():
    from hocov import NumericalConsistencyError

    cfg = tiny_config(dims=(8, 3, 5), alpha_p=2.0, xi_max=0.4, xi_step=0.2,
                      hierarchy=(1, 2))
    with pytest.raises(NumericalConsistencyError, match=r"disagree at xi=0\.[24], n=[12]: "):
        run_sweep(cfg)


def test_pump_cutoff_far_below_its_mean_fails_the_cross_check():
    # |alpha_p|^2 = 2500 on 20 pump levels: the pump is still a finite unit
    # vector, and the corrupted moments trip the sign cross-check
    from hocov import NumericalConsistencyError

    with pytest.raises(NumericalConsistencyError):
        run_sweep(tiny_config(alpha_p=50.0, dims=(20, 6, 11)))


def test_kept_states_hold_no_full_space_array():
    cfg = tiny_config()
    n = math.prod(cfg.dims)
    result = run_sweep(cfg, keep_states=True)
    assert len(result.states) == len(cfg.xi_grid())
    for state in result.states:
        held = [v for v in vars(state).values() if isinstance(v, np.ndarray)]
        held += [a.base for a in held if a.base is not None]
        assert held
        assert all(n not in a.shape for a in held)


@pytest.mark.parametrize("k,l,dims,hierarchy,with_nz", [
    (1, 2, (12, 6, 11), (1, 2), True),
    (1, 2, (12, 6, 11), (2,), True),
    (1, 3, (10, 5, 13), (1,), False),
])
def test_sweep_rows_equal_the_per_state_criteria(k, l, dims, hierarchy, with_nz):
    # the stack passes give every row exactly what evaluate_criteria and
    # top_level_population give on the kept state
    cfg = tiny_config(k=k, l=l, dims=dims, hierarchy=hierarchy, with_nz=with_nz)
    result = run_sweep(cfg, keep_states=True)
    assert len(result.rows) == len(result.states) * len(hierarchy)
    rows = iter(result.rows)
    for xi, state in zip(result.xi_grid, result.states):
        pops = top_level_population(state)
        for n in hierarchy:
            row = next(rows)
            rep = hocov.criteria.evaluate_criteria(state, n, k, l,
                                                   with_nz=with_nz and n == min(hierarchy))
            assert (row.n, row.xi) == (n, xi)
            assert (row.nu_minus, row.ineq7, row.ineq8, row.lemma1, row.det_c, row.nz,
                    row.verdict) == (rep.nu_minus, rep.ineq7_margin, rep.ineq8_margin,
                                     rep.lemma1_value, rep.det_c, rep.nz_value, rep.verdict)
            assert (row.pop_pump, row.pop_a, row.pop_b) == (pops[0], pops[1], pops[2])
            flag = "breach" if max(pops.values()) > hocov.sweep.TOP_LEVEL_GUARD else "ok"
            assert row.truncation_flag == flag


def test_check_base_sweep_matches_full_grid(monkeypatch):
    # exact propagation: the stride-5 check grid reproduces the full grid's
    # witness at the shared points instead of adding step error
    cfg = tiny_config(xi_max=0.3)
    runs = []
    original = hocov.sweep.run_sweep

    def recording(config, keep_states=True):
        runs.append(original(config, keep_states))
        return runs[-1]

    monkeypatch.setattr(hocov.sweep, "run_sweep", recording)
    convergence_check(cfg, stride=5)
    base = {(round(r.xi / cfg.xi_step), r.n): r.nu_minus for r in runs[0].rows}
    full = run_sweep(cfg, keep_states=False)
    shared = [(round(r.xi / cfg.xi_step), r.n, r.nu_minus) for r in full.rows
              if (round(r.xi / cfg.xi_step), r.n) in base]
    assert len(shared) == len(base) == 3 * 2
    for i, n, nu in shared:
        assert abs(base[(i, n)] - nu) < 1e-10


def test_cli_usage_errors(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # a bad flag value fails as a bad config value does: one error line naming its key
    monkeypatch.setattr(hocov.cli, "run_sweep", None)  # any work would raise
    capsys.readouterr()
    for flag, value, key in (("--dims", "4,5", "dims"), ("--hierarchy", ",", "hierarchy"),
                             ("--k", "x", "k"), ("--xi-step", "abc", "xi_step")):
        assert main(["sweep", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err
        assert "usage:" not in err


def test_cli_check_exit_codes(tmp_path, capsys):
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg")

    code = main(["check", "--config", cfg_path, "--xi-max", "0.03", "--stride", "1"])
    assert code == 0
    assert "convergence pass" in capsys.readouterr().out

    drift_out = tmp_path / "drift.tsv"
    code = main(["check", "--config", cfg_path, "--stride", "2",
                 "--out", str(drift_out)])
    assert code == 4
    assert "convergence FAIL" in capsys.readouterr().out
    assert drift_out.read_text(encoding="utf-8").startswith("# xi\tn\tdrift")


def test_cli_check_prints_the_worst_level(tmp_path, capsys):
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg")
    assert main(["check", "--config", cfg_path, "--stride", "2"]) == 4
    report = convergence_check(config_from_file(cfg_path), stride=2)
    by_level = report["max_drift_by_level"]
    worst = max(by_level, key=by_level.get)
    line = capsys.readouterr().out.splitlines()[1]
    assert line.startswith(f"worst level n={worst}: ")
    for n, drift in by_level.items():
        assert f"n={n} {drift:.3e}" in line


@pytest.mark.parametrize("command", [
    ["sweep", "--out", "{missing}/run.csv"],
    ["sweep"],  # out= in the config
    ["check", "--stride", "2", "--out", "{missing}/drift.tsv"],
    ["sweep", "--out", "{tmp}"],
])
def test_cli_refuses_an_output_path_before_any_work(tmp_path, capsys, monkeypatch, command):
    missing = tmp_path / "no" / "such"
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg", out=f"{missing}/cfg.csv")
    for name in ("run_sweep", "convergence_check"):
        monkeypatch.setattr(hocov.cli, name, lambda *a, **k: pytest.fail("work started"))
    argv = [arg.format(missing=missing, tmp=tmp_path) for arg in command]
    code = main(argv[:1] + ["--config", cfg_path] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write ") and len(err.splitlines()) == 1
    assert str(missing) in err or "is a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.cfg"]


def test_cli_plotdata_refuses_an_output_path_before_reading(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hocov.cli, "read_csv", lambda *a: pytest.fail("input read"))
    missing = tmp_path / "no" / "such" / "series.tsv"
    code = main(["plotdata", "--in", str(tmp_path / "run.csv"), "--out", str(missing)])
    assert code == 2
    assert capsys.readouterr().err == (f"error: cannot write {missing}: directory "
                                       f"{missing.parent} does not exist\n")


def test_cli_check_report_written_atomically(tmp_path, capsys):
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg")
    drift_out = tmp_path / "drift.tsv"
    drift_out.write_text("stale\n", encoding="utf-8")
    main(["check", "--config", cfg_path, "--stride", "2", "--out", str(drift_out)])
    assert f"wrote {drift_out}" in capsys.readouterr().out

    report = convergence_check(config_from_file(cfg_path), stride=2)
    lines = drift_out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# xi\tn\tdrift"
    assert len(lines) == 1 + len(report["points"])
    for line, point in zip(lines[1:], report["points"]):
        xi, n, drift = line.split("\t")
        assert (float(xi), int(n)) == (point["xi"], point["n"])
        assert float(drift) == pytest.approx(point["drift"], rel=1e-11, abs=1e-300)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["drift.tsv", "tiny.cfg"]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_outputs_get_the_mode_a_plain_open_would_give(tmp_path, umask):
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_text("stale\n", encoding="utf-8")
    old.chmod(0o640)
    previous = os.umask(umask)
    try:
        hocov.sweep._atomic_write(str(new), "fresh\n")
        hocov.sweep._atomic_write(str(old), "fresh\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert old.read_text(encoding="utf-8") == "fresh\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.txt", "old.txt"]


def test_a_failed_atomic_write_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "out.csv"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        hocov.sweep._atomic_write(str(target), "rows\n")
    assert target.is_dir() and not any(target.iterdir())
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_cli_plotdata(tmp_path, capsys):
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg")
    csv_path = tmp_path / "run.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(csv_path)]) == 0
    capsys.readouterr()

    series_path = tmp_path / "series.tsv"
    code = main(["plotdata", "--in", str(csv_path), "--out", str(series_path),
                 "--series", "nu1,nu2"])
    assert code == 0
    lines = series_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# xi\tnu1\tnu2"
    assert len(lines) == 4


def test_cli_check_refuses_a_check_that_cannot_fail(tmp_path, capsys):
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg")
    out = tmp_path / "drift.tsv"
    assert main(["check", "--config", cfg_path, "--stride", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stride=5 leaves only xi=0")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_plotdata_reports_a_missing_input_file(tmp_path, capsys):
    out = tmp_path / "series.tsv"
    missing = tmp_path / "missing.csv"
    assert main(["plotdata", "--in", str(missing), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_plotdata_reports_a_malformed_row_by_file_and_line(tmp_path, capsys):
    cfg_path = write_tiny_cfg(tmp_path / "tiny.cfg")
    csv_path = tmp_path / "run.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    # line 5 is the second data row, after two comment lines and the column names
    lines[4] = lines[4].replace(",ok,", ",ok,oops", 1)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "series.tsv"
    assert main(["plotdata", "--in", str(csv_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path}:5: malformed sweep row")
    assert not out.exists()


def test_cli_plotdata_checks_series_before_reading(tmp_path, capsys):
    out = tmp_path / "series.tsv"
    # the selector is refused before the (missing) input file is opened
    assert main(["plotdata", "--in", str(tmp_path / "missing.csv"), "--out", str(out),
                 "--series", "nu1,nope_1"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown series selector 'nope_1'")
    assert not out.exists()
