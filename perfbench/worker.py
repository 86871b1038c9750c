"""One benchmark round, or one set-up sample, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

Prints one JSON object. The set-up time covers importing hocov from the
checkout's ``src/`` and loading and validating the workload's config (its
layout, for ``separable``), so only the standard library is imported before
the clock starts. The task time covers exactly the calls a user of the
program makes; building inputs and checking outputs are outside it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"

# Each sweep workload runs a reference config on its own truncation and xi
# step, cut to the first grid points so that several rounds fit in a run;
# ``xi_max`` is the cut. ``claims`` names the paper claims its rows cover.
WORKLOADS = {
    "window": {"config": "window.cfg", "xi_max": 0.1, "claims": "window"},
    "hierarchy": {"config": "hierarchy.cfg", "xi_max": 0.1, "claims": "hierarchy"},
    "competition": {"config": "competition.cfg", "xi_max": 0.02, "claims": "competition"},
    "convergence": {"config": "window.cfg", "xi_max": 0.1, "check": True},
    "separable": {"dim": 14, "mixtures": 300, "components": 40},
}
STRIDE = 5  # hocov check's default stride


def setup(name: str):
    """Import hocov from the checkout and load the workload's input."""
    sys.path.insert(0, str(ROOT / "src"))
    import hocov

    if Path(hocov.__file__).resolve().parent != (ROOT / "src" / "hocov").resolve():
        raise SystemExit(f"hocov was imported from {hocov.__file__}, not from the checkout")
    spec = WORKLOADS[name]
    if "config" in spec:
        loaded = hocov.config_from_file(str(ROOT / "configs" / spec["config"]),
                                        xi_max=spec["xi_max"])
    else:
        loaded = hocov.ModeLayout((spec["dim"], spec["dim"]))
    return hocov, loaded


def capture_points(seed: int):
    """Grid indices whose states the traced run compares with the chain oracle:
    the first, the last and up to two more drawn from the seed."""
    rng = random.Random(seed)

    def pick(npoints: int) -> list:
        inner = list(range(1, npoints - 1))
        return sorted({0, npoints - 1, *rng.sample(inner, min(2, len(inner)))})

    return pick


def mixtures(seed: int, count: int, components: int, np):
    """Separable coherent mixtures as in acceptance test 09: per mixture a
    correlation rho and noise level, then beta ~ CN(0, 1/2) and
    gamma = rho beta + noise CN(0, 2). A draw whose closed-form cross block
    has det C below 1e-3 is drawn again, so every input is a det C > 0 case
    of Lemma 2 and no seed produces an input outside the lemma's domain."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        rho = 0.45 + 0.3 * rng.random()
        noise = 0.1 + 0.1 * rng.random()
        beta = 0.5 * (rng.normal(size=components) + 1j * rng.normal(size=components))
        gamma = rho * beta + noise * (rng.normal(size=components)
                                      + 1j * rng.normal(size=components))
        x = np.stack([beta.real, beta.imag, gamma.real, gamma.imag])
        if np.linalg.det(np.cov(x, bias=True)[:2, 2:]) > 1e-3:
            out.append((beta, gamma))
    return out


def sweep_round(name, hocov, cfg):
    import oracles

    ops = len(cfg.xi_grid()) * len(cfg.hierarchy)
    OUT.mkdir(exist_ok=True)
    csv = OUT / f"{name}-{os.getpid()}.csv"
    start = time.perf_counter()
    try:
        result = hocov.sweep.run_sweep(cfg, keep_states=False)
        hocov.sweep.write_csv(result, str(csv))
    except Exception as exc:  # a failing sweep fails every row it owed
        return {"attempted": ops, "failed": ops, "errors": [f"sweep raised {exc!r}"]}
    task_s = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = oracles.check_sweep_rows(WORKLOADS[name]["claims"], result.rows)
    errors += oracles.check_csv(str(csv), result.rows)
    out = {"attempted": ops, "failed": 0, "errors": errors, "task_s": task_s,
           "windows": [(start, start + task_s)], "rss_mb": rss,
           "csv_bytes": csv.stat().st_size}
    csv.unlink()
    return out


def check_round(name, hocov, cfg):
    levels = sorted(set(cfg.hierarchy))
    ops = len(cfg.xi_grid()[::STRIDE]) * len(levels)
    start = time.perf_counter()
    try:
        report = hocov.sweep.convergence_check(cfg, stride=STRIDE)
    except Exception as exc:
        return {"attempted": ops, "failed": ops, "errors": [f"check raised {exc!r}"]}
    task_s = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = []
    if not (report["pass"] and report["max_drift"] < 1e-4 and report["threshold"] == 1e-4):
        errors.append(f"convergence gate failed: drift {report['max_drift']:.3e}")
    if len(report["points"]) != ops:
        errors.append(f"convergence compared {len(report['points'])} points, expected {ops}")
    return {"attempted": ops, "failed": 0, "errors": errors, "task_s": task_s,
            "windows": [(start, start + task_s)], "rss_mb": rss,
            "notes": {"max_drift": report["max_drift"]}}


def separable_round(name, hocov, layout, seed):
    import numpy as np

    import oracles

    spec = WORKLOADS[name]
    dim = spec["dim"]
    inputs = mixtures(seed, spec["mixtures"], spec["components"], np)
    results = []
    failed = []
    windows = []
    for i, (beta, gamma) in enumerate(inputs):
        # each density is built just before its certification and dropped
        # after it, so peak memory is the program's and not the input set's
        vecs = np.array([np.kron(oracles.coherent_amplitudes(b, dim),
                                 oracles.coherent_amplitudes(g, dim))
                         for b, g in zip(beta, gamma)])
        state = hocov.QuantumState(layout, matrix=vecs.T @ vecs.conj() / len(vecs))
        start = time.perf_counter()
        try:
            cov = hocov.build_covariance(state, 1, 1, 1)
            sf = hocov.standard_form(cov)
            res = hocov.lemma2_transform(sf)
            results.append((i, cov, sf, res, hocov.lemma1_check(res.as_covariance())))
        except Exception as exc:
            failed.append(f"mixture {i} raised {exc!r}")
        windows.append((start, time.perf_counter()))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = []
    worst = 0.0
    worst_bound = 0.0
    for i, cov, sf, res, lemma1 in results:
        closed, bound = oracles.mixture_covariance(*inputs[i], dim)
        diff = float(np.max(np.abs(cov.matrix - closed)))
        worst, worst_bound = max(worst, diff), max(worst_bound, bound)
        if diff > bound or abs(cov.f_ka - 0.5) > 1e-12 or abs(cov.f_lb - 0.5) > 1e-12:
            errors.append(f"mixture {i}: covariance off the closed form by {diff:.3e} "
                          f"(tail bound {bound:.3e})")
        errors += [f"mixture {i}: {e}" for e in oracles.check_standard_form(cov.matrix, sf)]
        errors += [f"mixture {i}: {e}" for e in oracles.check_lemma2(sf, res, lemma1)]
    return {"attempted": len(inputs), "failed": len(failed), "errors": errors,
            "failures": failed, "task_s": sum(b - a for a, b in windows),
            "windows": windows, "rss_mb": rss,
            "notes": {"closed_form_max_diff": worst, "closed_form_max_bound": worst_bound}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    hocov, loaded = setup(args.workload)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(capture_points(args.seed))
        tracer.install(hocov)
    spec = WORKLOADS[args.workload]
    if "config" not in spec:
        out = separable_round(args.workload, hocov, loaded, args.seed)
    elif spec.get("check"):
        out = check_round(args.workload, hocov, loaded)
    else:
        out = sweep_round(args.workload, hocov, loaded)
    out["setup_s"] = setup_s

    if tracer is not None and "task_s" in out:
        tracer.uninstall()
        if "config" in spec:
            import oracles

            caps = tracer.captures
            errors, worst = oracles.check_chain_states(caps)
            out["errors"] += errors or ([] if caps else ["traced run captured no evolved states"])
            out.setdefault("notes", {}).update({
                "chain_oracle_worst": worst,
                "chain_states_checked": sum(len(c["points"]) for c in caps),
                "nonzero_amplitudes_last_point": [
                    f"{int((c['vectors'][-1] != 0).sum())} of {len(c['vectors'][-1])}" for c in caps],
            })
        out["layers"] = tracer.layer_metrics(out["windows"], out["task_s"])
        out["layers"]["sweep.csv_bytes"] = out.get("csv_bytes", 0)
        out["calls"] = tracer.call_durations()
        origin = out["windows"][0][0]
        out["spans"] = [[n, p, s - origin, e - origin] for n, p, s, e in tracer.spans]
    out.pop("windows", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
