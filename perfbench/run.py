"""hocov benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record runs.jsonl]

Every round runs in a fresh single process (perfbench/worker.py) with BLAS
and OpenMP held to one thread, so each round pays the cold caches a
``hocov sweep`` or ``hocov check`` invocation pays. Rounds repeat while
another one fits in ``--seconds`` (at least one runs); the run prints a
summary, then as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

--trace 0 reports the end-to-end metrics: ``setup_s`` (median over two
set-up-only processes and every round), ``task_s`` and ``peak_rss_mb``
(medians over rounds). --trace 1 alternates an untraced and a traced round,
reports the per-layer metrics as medians over the traced rounds, the
tracing overhead as the difference of the two rounds' median task times,
and writes every span to perfbench/out/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT, ROOT, WORKLOADS

SETUP_SAMPLES = 2
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _spawn(workload: str, seed: int, trace: int, deadline: float, setup_only=False) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREADS},
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _tail(samples: list) -> str:
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(samples)
    text = f"n={n} median={statistics.median(samples):.6g}s"
    for q in (0.999, 0.99, 0.9):
        if n >= 40 and n * (1 - q) >= 10:
            cut = statistics.quantiles(samples, n=1000)[round(q * 1000) - 1]
            return f"{text} p{q * 100:g}={cut:.6g}s"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one hocov benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", metavar="PATH",
                        help="append this run's result as one JSON line (for compare.py)")
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "hocov" / "__init__.py", ROOT / "configs"]
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a hocov checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    setup = []
    if not args.trace:
        setup = [_spawn(args.workload, args.seed, 0, deadline, setup_only=True)["setup_s"]
                 for _ in range(SETUP_SAMPLES)]

    plain, traced = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        plain.append(_spawn(args.workload, args.seed, 0, deadline))
        if args.trace:
            traced.append(_spawn(args.workload, args.seed, 1, deadline))
        took = time.monotonic() - began
        # start another round only if it would end inside the measured span
        if time.monotonic() - start + took > args.seconds:
            break

    rounds = plain + traced
    errors = [e for r in rounds for e in r["errors"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    timed = [r for r in plain if "task_s" in r]
    if not timed or (args.trace and not any("layers" in r for r in traced)):
        print("error: no round finished its task", *errors, sep="\n", file=sys.stderr)
        return 1
    task = [r["task_s"] for r in timed]

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} rounds "
          f"(+{len(traced)} traced), {attempted} operations, {failed} failed")
    for i, r in enumerate(rounds):
        if r.get("notes"):
            print(f"  round {i}: {json.dumps(r['notes'])}")
        for f in r.get("failures", []):
            print(f"  failed: {f}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")

    if args.trace:
        layer_rounds = [r["layers"] for r in traced if "layers" in r]
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   for name in layer_rounds[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(r["task_s"] for r in traced if "task_s" in r)
            - statistics.median(task))
        calls: dict = {}
        for r in traced:
            for name, durations in r.get("calls", {}).items():
                calls.setdefault(name, []).extend(durations)
        print("  per-call inclusive times over the traced rounds:")
        for name in sorted(calls):
            print(f"    {name}: {_tail(calls[name])}")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["function", "parent index", "start s", "end s"],
            "rounds": [r.get("spans", []) for r in traced],
        }))
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    else:
        setup += [r["setup_s"] for r in rounds]
        metrics = {
            "setup_s": statistics.median(setup),
            "task_s": statistics.median(task),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in timed),
        }
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def _units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
