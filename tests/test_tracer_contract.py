"""The benchmark's contract with the package.

perfbench/tracing.py wraps hocov functions by (module, name) and rebuilds the
Hamiltonian around a counting matrix, and perfbench/oracles.py checks the
states ``evolve`` returns, the sweep rows and the CSV. Both are loaded here
from their files, read-only, so a package change that breaks the benchmark
fails the tests instead of only the benchmark's smoke run.
"""

import importlib.util
from pathlib import Path

import hocov
from hocov.sweep import SweepConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, oracles = load("tracing"), load("oracles")


def test_every_traced_name_resolves_on_the_package():
    for name, (home, _) in tracing.TRACED.items():
        assert home in tracing.MODULES, name
        assert callable(getattr(getattr(hocov, home), name)), (home, name)


def test_a_traced_sweep_passes_the_benchmark_oracles(tmp_path):
    originals = {(home, name): getattr(getattr(hocov, home), name)
                 for name, (home, _) in tracing.TRACED.items()}
    cfg = SweepConfig(k=1, l=2, alpha_p=1.0, dims=(12, 6, 11), xi_max=0.06, xi_step=0.015,
                      hierarchy=(1, 2))
    tracer = tracing.Tracer(lambda npoints: [0, npoints // 2, npoints - 1])
    tracer.install(hocov)
    try:
        result = hocov.sweep.run_sweep(cfg, keep_states=False)
        hocov.sweep.write_csv(result, str(tmp_path / "traced.csv"))
    finally:
        tracer.uninstall()
    assert all(getattr(getattr(hocov, home), name) is fn for (home, name), fn in originals.items())
    assert {"run_sweep", "build_hamiltonian", "evolve", "write_csv"} <= {s[0] for s in tracer.spans}

    [capture] = tracer.captures
    assert capture["points"] == [0, 2, 4] and len(capture["vectors"]) == 3
    errors, worst = oracles.check_chain_states(tracer.captures)
    assert errors == [] and worst["amplitude"] < 1e-9
    assert oracles.check_sweep_rows("", result.rows) == []
    assert oracles.check_csv(str(tmp_path / "traced.csv"), result.rows) == []
