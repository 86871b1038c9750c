"""Parameter sweeps over the pump-strength coordinate xi = kappa t alpha_p.

A sweep evolves one initial state through the trilinear interaction and
evaluates the criteria stack at every grid point for every requested
hierarchy level, serializing the results to a plain CSV that downstream
plotting tools can consume. Runs are deterministic: no RNG enters anywhere,
numbers are printed with a fixed format, and files are written atomically.
"""

from __future__ import annotations

import math
import os
import stat
import tempfile
from dataclasses import dataclass, fields, replace
from operator import attrgetter

import numpy as np

from .covariance import covariance_stack
from .criteria import evaluate_stack, nz_values
from .dynamics import EvolutionConfig, InteractionSpec, build_hamiltonian, evolve
from .fock import (
    ModeLayout,
    QuantumState,
    coherent_state,
    top_level_populations,
)
from .quadratures import MAX_ORDER, UnsupportedOrderError

# a grid point whose top two Fock levels hold more population than this, in
# any mode, is flagged "breach"
TOP_LEVEL_GUARD = 1e-6
# (pump, A, B) increments of the cutoffs in convergence_check's boosted run
CONVERGENCE_STEP = (4, 8, 16)

@dataclass(frozen=True)
class SweepConfig:
    """The parameters of one sweep, each of which moves an output.

    dims orders the truncation as (pump, A, B). xi = kappa t alpha_p runs
    from 0 to xi_max in steps of xi_step, so kappa cancels out of every
    output and the sweep keeps the dynamics layer's kappa = 1; hierarchy
    lists the n values evaluated at each point. with_nz adds the
    product-of-variances comparator (k=1, l=2 only).
    Every value is checked here, before any evolution, with a message that
    names its key: dims (three integer cutoffs >= 2), k and l (integers
    >= 1, not both 1), alpha_p and xi_step (positive and finite), xi_max
    (nonnegative and finite), hierarchy (positive integers, no level twice),
    and the orders the hierarchy needs (at most MAX_ORDER, a cap of
    precision that the ``quadratures`` docstring states, and below each
    mode's cutoff).
    """

    k: int = 1
    l: int = 2
    alpha_p: float = 5.0
    dims: tuple[int, int, int] = (60, 26, 52)
    xi_max: float = 1.5
    xi_step: float = 0.02
    hierarchy: tuple[int, ...] = (1, 2, 3)
    with_nz: bool = False
    out: str | None = None

    def __post_init__(self):
        for name in ("dims", "hierarchy"):
            values = tuple(getattr(self, name))
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                       for v in values):
                raise ValueError(f"{name} must hold integers, got {values!r}")
        if len(self.dims) != 3:
            raise ValueError("dims must name (pump, A, B) truncations")
        # k and l integers >= 1 and every dim >= 2
        InteractionSpec(ModeLayout(tuple(self.dims)), self.k, self.l)
        if self.k + self.l < 3:
            raise ValueError("k = l = 1 is the Gaussian classical-pump process; "
                             "the trilinear sweep needs k + l >= 3")
        for name in ("alpha_p", "xi_step"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (self.xi_max >= 0 and math.isfinite(self.xi_max)):
            raise ValueError(f"xi_max must be nonnegative and finite, got {self.xi_max!r}")
        if not self.hierarchy or any(n < 1 for n in self.hierarchy):
            raise ValueError("hierarchy levels must be positive integers")
        if len(set(self.hierarchy)) != len(self.hierarchy):
            raise ValueError(f"hierarchy lists a level twice: {tuple(self.hierarchy)}")
        if self.with_nz and (self.k, self.l) != (1, 2):
            raise ValueError("the variance-product comparator is defined for k=1, l=2")
        top = max(self.hierarchy)
        for mode, order, dim in (("A", top * self.k, self.dims[1]),
                                 ("B", top * self.l, self.dims[2])):
            if order > MAX_ORDER:
                raise UnsupportedOrderError(
                    f"hierarchy level n={top} needs quadrature order {order} on mode "
                    f"{mode}; orders above {MAX_ORDER} are not supported")
            if order >= dim:
                raise ValueError(
                    f"dims={tuple(self.dims)}: hierarchy level n={top} needs quadrature "
                    f"order {order} on mode {mode}, whose cutoff {dim} must exceed it")

    def xi_grid(self) -> tuple[float, ...]:
        npoints = int(np.floor(self.xi_max / self.xi_step + 1e-9)) + 1
        return tuple(i * self.xi_step for i in range(npoints))


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parse_ints(value: str) -> tuple[int, ...]:
    return tuple(int(p) for p in value.replace(",", " ").split())


# each key parses as the type of its default; out (default None) stays a string
_KEY_PARSERS = {
    f.name: {bool: _parse_bool, int: int, float: float, tuple: _parse_ints}.get(
        type(f.default), str)
    for f in fields(SweepConfig)
}


def load_config(path: str) -> dict:
    """Parse a key=value config file into a typed mapping.

    Blank lines and '#' comments are ignored; keys match SweepConfig fields,
    and a key set twice is refused with ValueError naming both lines.
    """
    out: dict = {}
    lines: dict = {}  # key -> the line that set it
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.lower().replace("-", "_")
            if key not in _KEY_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in lines:
                raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line {lines[key]}")
            lines[key] = lineno
            out[key] = _coerce(key, value, f"{path}:{lineno}")
    return out


def _coerce(key: str, value: str, where: str):
    """Parse a config value as its SweepConfig field's type; a bad value
    raises ValueError naming ``where`` and the key."""
    try:
        return _KEY_PARSERS[key](value)
    except ValueError as exc:
        raise ValueError(f"{where}: bad value for {key}: {exc}") from exc


def config_from_file(path: str, **overrides) -> SweepConfig:
    """Build a SweepConfig from a file plus explicit overrides."""
    values = load_config(path)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return SweepConfig(**values)


@dataclass(frozen=True)
class SweepRow:
    """One grid point at one hierarchy level, ready for serialization."""

    n: int
    k: int
    l: int
    xi: float
    nu_minus: float
    ineq7: float
    ineq8: float
    lemma1: float
    det_c: float
    nz: float | None
    verdict: str
    truncation_flag: str
    pop_pump: float
    pop_a: float
    pop_b: float


# the CSV columns are SweepRow's fields in order; det_c is written as detC, and
# each column's reader is picked by its annotation's text (annotations are postponed)
_ROW_FIELDS = [f.name for f in fields(SweepRow)]
_CSV_HEADER = ",".join("detC" if name == "det_c" else name for name in _ROW_FIELDS)
_row_values = attrgetter(*_ROW_FIELDS)
_ROW_READERS = [
    {"int": int, "float": float, "str": str,
     "float | None": lambda text: float(text) if text else None}[f.type]
    for f in fields(SweepRow)
]


@dataclass(frozen=True)
class SweepResult:
    """Rows plus the evolved states they were computed from."""

    config: SweepConfig
    xi_grid: tuple
    rows: tuple
    states: tuple


def _initial_state(config: SweepConfig, layout: ModeLayout) -> QuantumState:
    """Coherent pump with vacuum signal and idler: the pump's n_p amplitude
    sits at flat index n_p d_A d_B, and no other index is stored."""
    pump = coherent_state(config.alpha_p, layout.dims[layout.pump],
                          allow_truncation=True)
    n_p = np.flatnonzero(pump)
    stride = layout.dims[layout.mode_a] * layout.dims[layout.mode_b]
    return QuantumState.on_support(layout, n_p * stride, pump[n_p])


def run_sweep(config: SweepConfig, keep_states: bool = True) -> SweepResult:
    """Evolve from vacuum signal/idler and evaluate every criterion.

    The evolution runs once, and its states share one support, so the sweep
    stacks their amplitudes into one (T, S) array. The truncation flags and
    top-level populations come from that stack in one pass, and each
    hierarchy level takes one ``covariance_stack`` and one ``evaluate_stack``
    over all T grid points. A grid point is flagged "breach" when a mode's
    top-two-level population exceeds TOP_LEVEL_GUARD.
    """
    layout = ModeLayout(tuple(config.dims))
    spec = InteractionSpec(layout, config.k, config.l)
    # pump times vacuum A and B lies in sector l N_A - k N_B = 0, and H keeps it there
    hamiltonian = build_hamiltonian(spec, charge=0)
    grid = config.xi_grid()
    evo = EvolutionConfig(xi_grid=grid, kappa=spec.kappa, alpha_p=config.alpha_p)
    states = evolve(_initial_state(config, layout), hamiltonian, evo)
    support = states[0].support
    amps = np.stack([state.amplitudes for state in states])

    # (pump, A, B) columns, one row per grid point
    pops = top_level_populations(layout, support, amps.real ** 2 + amps.imag ** 2)
    flags = np.where(pops.max(axis=1) > TOP_LEVEL_GUARD, "breach", "ok").tolist()
    pops = pops.tolist()

    # the comparator rides on the smallest level's row; with k=1, l=2 its
    # n = 1 covariance is that level's own when the smallest level is 1
    smallest_n = min(config.hierarchy)
    reports = {}
    for n in config.hierarchy:
        cov = covariance_stack(layout, support, amps, n, config.k, config.l)
        nz = None
        if config.with_nz and n == smallest_n:
            nz = nz_values(cov if n == 1 else covariance_stack(layout, support, amps, 1, 1, 2))
        reports[n] = evaluate_stack(cov, nz, xi=grid)

    rows = []
    for i in range(len(states)):
        for n in config.hierarchy:
            rep = reports[n][i]
            rows.append(SweepRow(
                n=n,
                k=config.k,
                l=config.l,
                xi=grid[i],
                nu_minus=rep.nu_minus,
                ineq7=rep.ineq7_margin,
                ineq8=rep.ineq8_margin,
                lemma1=rep.lemma1_value,
                det_c=rep.det_c,
                nz=rep.nz_value,
                verdict=rep.verdict,
                truncation_flag=flags[i],
                pop_pump=pops[i][0],
                pop_a=pops[i][1],
                pop_b=pops[i][2],
            ))
    return SweepResult(
        config=config,
        xi_grid=tuple(grid),
        rows=tuple(rows),
        states=tuple(states) if keep_states else (),
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _config_text(value) -> str:
    """A config value in the syntax _coerce reads back exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(map(str, value))
    return str(value) if isinstance(value, (int, np.integer)) else repr(float(value))


def _atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` through a temporary file in its directory.

    The file gets the mode a plain ``open`` would give: an existing file
    keeps its mode, and a new one gets 0o666 less the umask (mkstemp alone
    would leave it 0o600).
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(result: SweepResult, path: str) -> None:
    """Serialize sweep rows with a parameter header, atomically.

    The header's second line records every SweepConfig field but out as
    key=value pairs in the config-file syntax, so it loads back as the
    config that wrote it; read_csv skips it.
    """
    cfg = result.config
    params = " ".join(f"{f.name}={_config_text(getattr(cfg, f.name))}"
                      for f in fields(SweepConfig) if f.name != "out")
    lines = ["# higher-order covariance sweep", "# " + params, _CSV_HEADER]
    for row in result.rows:
        lines.append(",".join(map(_fmt, _row_values(row))))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_csv(path: str) -> list[SweepRow]:
    """Load rows written by write_csv (header lines are skipped).

    A row that does not parse raises ValueError naming path:line.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("n,"):
                continue
            parts = line.split(",")
            where = f"{path}:{lineno}: malformed sweep row {line!r}"
            if len(parts) != len(_ROW_READERS):
                raise ValueError(f"{where}: expected {len(_ROW_READERS)} fields, "
                                 f"got {len(parts)}")
            try:
                rows.append(SweepRow(*(read(part) for read, part
                                       in zip(_ROW_READERS, parts))))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
    return rows


_SERIES_FIELDS = {"nu": "nu_minus", "ineq7": "ineq7", "ineq8": "ineq8",
                  "lemma1": "lemma1", "detc": "det_c"}


def series_fields(series) -> list[tuple[str, int | None]]:
    """(SweepRow field, hierarchy level) for each plot selector, nz as
    ("nz", None); an unknown selector raises ValueError naming it."""
    out = []
    for selector in series:
        sel = selector.lower()
        if sel == "nz":
            out.append(("nz", None))
            continue
        name, _, n_str = (("nu", "", sel[2:]) if sel.startswith("nu")
                          else sel.partition("_"))
        if name not in _SERIES_FIELDS or not n_str.isdigit():
            raise ValueError(f"unknown series selector {selector!r}")
        out.append((_SERIES_FIELDS[name], int(n_str)))
    return out


def emit_plot_data(rows, path: str, series: tuple = ("nu1", "nu2", "nu3")) -> None:
    """Extract xi-indexed series into a tab-separated file.

    Selectors: nu<n>, ineq7_<n>, ineq8_<n>, lemma1_<n>, detc_<n>, nz; they
    are checked before anything is written.
    Missing values render as 'nan' so column alignment survives.
    """
    picks = series_fields(series)
    by_xi: dict = {}
    for row in rows:
        by_xi.setdefault(row.xi, {})[row.n] = row

    def pick(point: dict, field: str, n: int | None) -> float:
        if field == "nz":
            for row in point.values():
                if row.nz is not None:
                    return row.nz
            return float("nan")
        row = point.get(n)
        return getattr(row, field) if row is not None else float("nan")

    lines = ["# xi\t" + "\t".join(series)]
    for xi in sorted(by_xi):
        values = [pick(by_xi[xi], field, n) for field, n in picks]
        lines.append("\t".join([_fmt(xi)] + [
            _fmt(v) if v == v else "nan" for v in values
        ]))
    _atomic_write(path, "\n".join(lines) + "\n")


def _convergence_configs(config: SweepConfig, stride: int) -> tuple[SweepConfig, SweepConfig]:
    """The base and boosted sweeps of convergence_check.

    A check that could not fail is refused with ValueError: a stride that
    leaves only xi = 0.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    grid = config.xi_grid()
    if stride >= len(grid):
        raise ValueError(f"stride={stride} leaves only xi=0 of the {len(grid)}-point "
                         f"grid; it must be below {len(grid)}")
    base_cfg = replace(config, with_nz=False,
                       xi_step=config.xi_step * stride, xi_max=grid[::stride][-1])
    boosted_cfg = replace(
        base_cfg,
        dims=tuple(d + b for d, b in zip(config.dims, CONVERGENCE_STEP)),
    )
    return base_cfg, boosted_cfg


def convergence_check(config: SweepConfig, stride: int = 5) -> dict:
    """Estimate the truncation error of the witness values.

    Re-runs a strided subsample of the xi grid with every mode truncation
    enlarged by CONVERGENCE_STEP and reports the
    largest |drift| of nu_minus across grid points and hierarchy levels
    (``max_drift``, which alone decides ``pass``), and the largest for each
    level (``max_drift_by_level``, {n: drift}).
    Evolution is exact within each charge sector, so the coarser check grid
    reproduces the full grid's values at the shared points and enlarging the
    truncation is the only error axis left. A check that could not fail
    (a stride that leaves only xi = 0) is refused with ValueError before
    any sweep runs.
    """
    base_cfg, boosted_cfg = _convergence_configs(config, stride)
    base = run_sweep(base_cfg, keep_states=False)
    boosted = run_sweep(boosted_cfg, keep_states=False)

    # both sweeps share one xi grid and one hierarchy, so their rows pair by position
    points = []
    by_level = {n: 0.0 for n in config.hierarchy}
    for row, boosted_row in zip(base.rows, boosted.rows, strict=True):
        drift = abs(row.nu_minus - boosted_row.nu_minus)
        points.append({"xi": row.xi, "n": row.n, "drift": drift})
        by_level[row.n] = max(by_level[row.n], drift)
    max_drift = max(by_level.values())
    threshold = 1e-4
    return {
        "max_drift": max_drift,
        "max_drift_by_level": by_level,
        "threshold": threshold,
        "pass": bool(max_drift < threshold),
        "points": points,
        "base_dims": tuple(config.dims),
        "boosted_dims": boosted_cfg.dims,
    }
