"""Timing wrappers installed from outside around hocov's public functions.

``Tracer.install`` replaces each traced function in every hocov module
namespace that binds it, so calls between modules (run_sweep -> evolve ->
top_level_population, build_covariance -> nonlinear_quadratures, ...) go
through the wrapper. Spans are kept in memory as (name, parent, start, end)
and written out by the caller when the run ends. A span's self time is its
duration minus the durations of its direct children; the sweeps run serially
(workers = 0), so children never overlap.

Two wrappers record more than time:

* build_hamiltonian returns the same operator with its sparse matrix swapped
  for a subclass that counts matrix-vector products (``dynamics.matvecs``)
  and records its nnz;
* evolve keeps copies of the states at the requested grid points, for the
  exact-chain oracle.
"""

from __future__ import annotations

import functools
import time

from scipy import sparse

# traced function -> (module it is defined in, per-layer self-time bucket)
TRACED = {
    "coherent_state": ("fock", "fock.initial_state_s"),
    "product_state": ("fock", "fock.initial_state_s"),
    "top_level_population": ("fock", "fock.top_level_population_s"),
    "nonlinear_quadratures": ("quadratures", "quadratures.operator_s"),
    "f_operator": ("quadratures", "quadratures.operator_s"),
    "build_hamiltonian": ("dynamics", "dynamics.build_hamiltonian_s"),
    "evolve": ("dynamics", "dynamics.evolve_s"),
    "build_covariance": ("covariance", "covariance.build_s"),
    "standard_form": ("covariance", "covariance.standard_form_s"),
    "evaluate_criteria": ("criteria", "criteria.evaluate_self_s"),
    "nha_zubairy": ("criteria", "criteria.nz_s"),
    "lemma2_transform": ("criteria", "criteria.lemma2_s"),
    "lemma1_check": ("criteria", "criteria.lemma1_s"),
    "run_sweep": ("sweep", "sweep.run_self_s"),
    "write_csv": ("sweep", "sweep.write_csv_s"),
    "convergence_check": ("sweep", "sweep.check_self_s"),
}

MODULES = ("fock", "quadratures", "dynamics", "covariance", "criteria", "sweep")


class CountingMatrix(sparse.csr_matrix):
    """CSR matrix that counts its products with vectors."""

    matvecs = 0

    def __matmul__(self, other):
        if getattr(other, "ndim", 2) == 1:
            CountingMatrix.matvecs += 1
        return super().__matmul__(other)


class Tracer:
    def __init__(self, capture_points):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.hamiltonians: dict[int, dict] = {}
        self.captures: list[dict] = []
        self.evolve_intervals = 0
        self.nnz = 0
        self.capture_points = capture_points  # number of states -> indices to keep
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        extra = {"build_hamiltonian": self._after_hamiltonian,
                 "evolve": self._after_evolve}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            return extra(out, args, kwargs) if extra else out

        return traced

    def _after_hamiltonian(self, op, args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        counted = CountingMatrix(op.data)
        self.nnz += counted.nnz
        new = type(op)(op.layout, counted, op.hermitian)
        self.hamiltonians[id(counted)] = {"k": spec.k, "l": spec.l, "kappa": spec.kappa}
        return new

    def _after_evolve(self, states, args, kwargs):
        hamiltonian = args[1] if len(args) > 1 else kwargs["hamiltonian"]
        config = args[2] if len(args) > 2 else kwargs["config"]
        self.evolve_intervals += len(states) - 1
        spec = self.hamiltonians.get(id(hamiltonian.data))
        if spec is not None:
            points = self.capture_points(len(states))
            times = config.times()
            self.captures.append({
                **spec,
                "dims": tuple(hamiltonian.layout.dims),
                "alpha_p": config.alpha_p,
                "tol": config.tol,
                "points": points,
                "times": [float(times[i]) for i in points],
                "vectors": [states[i].vector.copy() for i in points],
            })
        return states

    def install(self, package) -> None:
        """Wrap every TRACED function wherever a hocov module binds it."""
        namespaces = [package] + [getattr(package, m) for m in MODULES]
        for name, (home, _) in TRACED.items():
            original = getattr(getattr(package, home), name)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
        CountingMatrix.matvecs = 0

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(end - start) - c for (_, _, start, end), c in zip(self.spans, child)]

    def layer_metrics(self, windows: list, task_s: float) -> dict:
        """Per-layer totals for one traced round.

        windows are the (start, end) intervals timed as the task;
        trace.unaccounted_s is the part of them that no span covers: the
        benchmark's own glue plus the wrappers' cost.
        """
        metrics = {bucket: 0.0 for _, bucket in TRACED.values()}
        calls = {name: 0 for name in TRACED}
        in_task = 0.0
        for (name, _, start, _), self_s in zip(self.spans, self.self_times()):
            metrics[TRACED[name][1]] += self_s
            calls[name] += 1
            if any(a <= start <= b for a, b in windows):
                in_task += self_s
        check_runs = [end - start for name, parent, start, end in self.spans
                      if name == "run_sweep" and parent is not None
                      and self.spans[parent][0] == "convergence_check"]
        check_runs += [0.0, 0.0]
        metrics.update({
            "fock.top_level_population_calls": calls["top_level_population"],
            "quadratures.operator_calls": calls["nonlinear_quadratures"] + calls["f_operator"],
            "dynamics.hamiltonian_nnz": self.nnz,
            "dynamics.matvecs": CountingMatrix.matvecs,
            "dynamics.evolve_point_s": (metrics["dynamics.evolve_s"] / self.evolve_intervals
                                        if self.evolve_intervals else 0.0),
            "covariance.build_calls": calls["build_covariance"],
            "sweep.check_base_s": check_runs[0],
            "sweep.check_boosted_s": check_runs[1],
            "trace.spans": len(self.spans),
            "trace.unaccounted_s": task_s - in_task,
        })
        return metrics

    def call_durations(self) -> dict:
        """Inclusive duration of every call, by function name."""
        out: dict = {}
        for name, _, start, end in self.spans:
            out.setdefault(name, []).append(end - start)
        return out
