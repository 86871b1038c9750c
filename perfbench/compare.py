"""Compare two sets of benchmark runs, or check the spread of one.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

A set is the JSON-lines file that ``run.py --record`` appends to, one line
per run. For every (workload, end-to-end metric) it prints each set's
median, first and third quartile (``statistics.quantiles(values, n=4)``) and
spread, the quartile distance as a share of the median.

With one set, a metric is ``steady`` when its spread is below a third of its
bound in BENCHMARK.json. With two, a pair is ``within`` when the change's
median is no worse than the base's by more than the bound, ``worse`` when it
is, and ``unresolved`` when either spread is wider than the bound, unless
every run of the change beats every run of the base. ``setup_s`` is judged
by its median alone. The failed share of
operations must be equal in both sets. Exit status 1 flags any ``worse``,
unsteady or unequal-failure line.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: str) -> dict:
    """(workload, metric) -> values, plus workload -> [attempted, failed]."""
    values: dict = {}
    ops: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            res = run["result"]
            tally = ops.setdefault(run["workload"], [0, 0])
            tally[0] += res["attempted"]
            tally[1] += res["failed"]
            if run["trace"]:
                continue
            for name, metric in res["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return {"values": values, "ops": ops}


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def _fmt(s: dict) -> str:
    return (f"n={s['n']:2d} median={s['median']:.5g} "
            f"q1={s['q1']:.5g} q3={s['q3']:.5g} spread={s['spread']:.2%}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(p) for p in argv]
    bad = False
    for workload in sorted(sets[0]["ops"]):
        for name, m in metrics.items():
            runs = [s["values"].get((workload, name)) for s in sets]
            if not all(runs):
                print(f"{workload:12s} {name:12s} missing from a set")
                bad = True
                continue
            st = [stats(v) for v in runs]
            bound = m["bound"]
            if len(sets) == 1:
                # set-up time is compared by median only; its spread is not gated
                if name == "setup_s":
                    verdict = "not gated"
                else:
                    verdict = "steady" if st[0]["spread"] < bound / 3 else "UNSTEADY"
                print(f"{workload:12s} {name:12s} {_fmt(st[0])} bound={bound:.0%} {verdict}")
                bad |= verdict == "UNSTEADY"
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (st[1]["median"] - st[0]["median"]) / st[0]["median"]
            beats = (max(runs[1]) < min(runs[0])) if sign > 0 else (min(runs[1]) > max(runs[0]))
            if beats:
                verdict = "better"
            elif name != "setup_s" and max(st[0]["spread"], st[1]["spread"]) > bound:
                verdict = "unresolved"
            else:
                verdict = "WORSE" if change > bound else "within"
            bad |= verdict == "WORSE"
            print(f"{workload:12s} {name:12s} base {_fmt(st[0])}\n"
                  f"{'':25s} new  {_fmt(st[1])}\n"
                  f"{'':25s} worse by {change:+.2%} (bound {bound:.0%}): {verdict}")
    for workload in sorted(sets[0]["ops"]):
        shares = [s["ops"].get(workload, [0, 0]) for s in sets]
        text = ", ".join(f"{f}/{a} failed" for a, f in shares)
        same = len({f / a if a else None for a, f in shares}) == 1
        bad |= not same
        print(f"{workload:12s} operations: {text}{'' if same else '  FAILED SHARES DIFFER'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
