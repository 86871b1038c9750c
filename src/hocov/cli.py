"""Command-line front end for sweeps, convergence checks, and series export.

A sweep flag's value uses the config-file syntax of its key (``--dims 60,52,104``
reads as ``dims = 60,52,104``) and overrides the file's value.

Exit codes: 0 clean completion, 2 usage error (a flag value, config file,
config value or stride refused before any work; an output path whose
directory does not exist; or a plotdata input file that is missing or
malformed, or an unknown series selector; each reported as one ``error:``
line naming the key, path or flag; argparse's usage block is left to an
unknown flag, a missing subcommand or --in, and a --stride that is not an
integer), 3 sweep finished but at least one grid point tripped the
truncation guard, 4 convergence check exceeded its drift threshold.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .sweep import (
    SweepConfig,
    _atomic_write,
    _coerce,
    _convergence_configs,
    convergence_check,
    emit_plot_data,
    load_config,
    read_csv,
    run_sweep,
    series_fields,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRUNCATION = 3
EXIT_DRIFT = 4


def _add_sweep_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="key=value parameter file; flags override it")
    sub.add_argument("--k", help="signal photon order")
    sub.add_argument("--l", help="idler photon order")
    sub.add_argument("--alpha-p", help="pump coherent amplitude")
    sub.add_argument("--dims", metavar="P,A,B", help="Fock truncations per mode")
    sub.add_argument("--xi-max", help="largest xi on the grid")
    sub.add_argument("--xi-step", help="xi grid spacing")
    sub.add_argument("--hierarchy", metavar="1,2,3",
                     help="hierarchy levels n to evaluate")
    sub.add_argument("--with-nz", action="store_const", const="true",
                     help="also evaluate the variance-product comparator")


def _build_config(args) -> SweepConfig:
    """The config file's values, overridden by each sweep flag given; --out
    is the subcommand's own output path, not the config's out key."""
    overrides = {
        f.name: _coerce(f.name, getattr(args, f.name), "--" + f.name.replace("_", "-"))
        for f in fields(SweepConfig)
        if f.name != "out" and getattr(args, f.name, None) is not None
    }
    values = load_config(args.config) if args.config else {}
    return SweepConfig(**{**values, **overrides})


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_out(path: str) -> None:
    """Refuse an output path that cannot be written: its directory is
    missing, or the path itself is a directory."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"cannot write {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")


def _cmd_sweep(args) -> int:
    try:
        config = _build_config(args)
        out = args.out or config.out
        if not out:
            return _usage_error("no output path (pass --out or set out= in the config)")
        _check_out(out)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    result = run_sweep(config, keep_states=False)
    write_csv(result, out)
    n_points = len(result.xi_grid)
    n_levels = len(config.hierarchy)
    flagged = sum(1 for row in result.rows if row.truncation_flag != "ok")
    status = "clean" if flagged == 0 else f"{flagged} rows flagged"
    print(f"wrote {out}: {n_points} xi points x {n_levels} hierarchy "
          f"levels ({status})")
    return EXIT_OK if flagged == 0 else EXIT_TRUNCATION


def _cmd_check(args) -> int:
    if args.stride < 1:
        return _usage_error(f"--stride must be >= 1, got {args.stride}")
    try:
        config = _build_config(args)
        _convergence_configs(config, args.stride)  # a check that could not fail
        if args.out:
            _check_out(args.out)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    report = convergence_check(config, stride=args.stride)
    verdict = "pass" if report["pass"] else "FAIL"
    print(f"convergence {verdict}: max |drift(nu_minus)| = "
          f"{report['max_drift']:.3e} over {len(report['points'])} subsampled "
          f"points (threshold {report['threshold']:.0e}, dims "
          f"{report['base_dims']} -> {report['boosted_dims']})")
    by_level = report["max_drift_by_level"]
    worst = max(by_level, key=by_level.get)
    print(f"worst level n={worst}: max |drift(nu_minus)| by level "
          + ", ".join(f"n={n} {drift:.3e}" for n, drift in by_level.items()))
    if args.out:
        lines = ["# xi\tn\tdrift"]
        for point in report["points"]:
            lines.append(f"{point['xi']:.12g}\t{point['n']}\t{point['drift']:.12g}")
        _atomic_write(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK if report["pass"] else EXIT_DRIFT


def _cmd_plotdata(args) -> int:
    series = tuple(s for s in args.series.split(",") if s)
    try:
        series_fields(series)
        _check_out(args.out)
        rows = read_csv(args.infile)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    emit_plot_data(rows, args.out, series=series)
    print(f"wrote {args.out}: columns xi, {', '.join(series)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hocov",
        description="Higher-order covariance entanglement criteria for "
                    "partially degenerate down-conversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="run a sweep and write the CSV")
    _add_sweep_options(sweep_p)
    sweep_p.add_argument("--out", default=None, metavar="PATH",
                         help="output CSV path (falls back to out= in the config)")
    sweep_p.set_defaults(func=_cmd_sweep)

    check_p = sub.add_parser("check", help="convergence check against "
                                           "boosted mode truncations")
    _add_sweep_options(check_p)
    check_p.add_argument("--stride", type=int, default=5,
                         help="subsample every STRIDE-th grid point")
    check_p.add_argument("--out", default=None, metavar="PATH",
                         help="optional per-point drift report")
    check_p.set_defaults(func=_cmd_check)

    plot_p = sub.add_parser("plotdata", help="extract xi-indexed series "
                                             "from a sweep CSV")
    plot_p.add_argument("--in", dest="infile", required=True, metavar="PATH",
                        help="sweep CSV produced by the sweep command")
    plot_p.add_argument("--out", required=True, metavar="PATH",
                        help="tab-separated series file")
    plot_p.add_argument("--series", default="nu1,nu2,nu3",
                        help="comma list: nu<n>, ineq7_<n>, ineq8_<n>, "
                             "lemma1_<n>, detc_<n>, nz")
    plot_p.set_defaults(func=_cmd_plotdata)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
