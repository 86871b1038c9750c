"""Reference values the benchmark checks hocov's outputs against.

Nothing here imports hocov: every reference is rebuilt from the physics with
numpy and scipy, so a change to the program cannot move its own yardstick.

* ``chain_reference``: exact evolved states. H = i kappa (a+^k b+^l p - h.c.)
  conserves k N_P + N_A and l N_A - k N_B, so from |n0>_P |0,0> the state stays
  on the chain |n0 - j, k j, l j>. After the gauge psi_j -> i^j psi_j each chain
  Hamiltonian is real tridiagonal and one ``eigh_tridiagonal`` per pump number
  gives every grid point exactly, on the same truncation as the program.
* ``check_sweep_rows``: analytic values and properties every sweep row must
  have, plus the paper's window claims on the rows that cover them.
* ``mixture_covariance``: the n = 1 covariance of an equal-weight mixture of
  two-mode coherent states, with the bound on the truncated Poisson tail.
* ``check_lemma2``: the Lemma-2 plane minima recomputed from the scaled
  standard form and from the transformed matrix.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

BAND = 1e-9  # the criteria stack's boundary band


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Fock amplitudes of |alpha>, renormalized on the first ``dim`` levels."""
    n = np.arange(dim)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    mag = np.exp(n * math.log(abs(alpha)) - 0.5 * log_fact - abs(alpha) ** 2 / 2)
    amp = mag * np.exp(1j * np.angle(alpha) * n)
    return amp / np.linalg.norm(amp)


def chain_reference(dims, k: int, l: int, kappa: float, alpha_p: float,
                    times) -> np.ndarray:
    """Exact full-space states at ``times``, shape (len(times), prod(dims))."""
    dim_p, dim_a, dim_b = dims
    times = np.asarray(times, dtype=float)
    pump = coherent_amplitudes(alpha_p, dim_p)
    out = np.zeros((len(times), dim_p * dim_a * dim_b), dtype=complex)
    for n0 in range(dim_p):
        last = min(n0, (dim_a - 1) // k, (dim_b - 1) // l)
        j = np.arange(last + 1)
        index = ((n0 - j) * dim_a + k * j) * dim_b + l * j
        if last == 0:
            out[:, index[0]] = pump[n0]
            continue
        hop = np.array([
            math.sqrt((n0 - i) * math.prod(range(k * i + 1, k * i + k + 1))
                      * math.prod(range(l * i + 1, l * i + l + 1)))
            for i in range(last)
        ])
        energies, vecs = eigh_tridiagonal(np.zeros(last + 1), kappa * hop)
        phase = np.exp(-1j * np.outer(energies, times))
        chain = vecs @ (phase * vecs[0][:, None])  # (chain length, len(times))
        out[:, index] = pump[n0] * (1j ** j)[None, :] * chain.T
    return out


def check_chain_states(captures: list) -> tuple[list, dict]:
    """Compare captured evolve() outputs with ``chain_reference``.

    Each capture is a dict with dims, k, l, kappa, alpha_p, tol, the grid
    indices and times taken, and the state vectors there. The allowed
    amplitude error is 10 * (intervals integrated) * tol, ten times the
    propagator's own per-interval target summed over the intervals; norm and
    both charges are checked on every captured state.
    """
    errors = []
    worst = {"amplitude": 0.0, "norm": 0.0, "charge": 0.0}
    for cap in captures:
        dims, k, l = cap["dims"], cap["k"], cap["l"]
        ref = chain_reference(dims, k, l, cap["kappa"], cap["alpha_p"], cap["times"])
        pump = coherent_amplitudes(cap["alpha_p"], dims[0])
        n_p, n_a, n_b = np.indices(dims).reshape(3, -1)
        charge1 = k * n_p + n_a
        off_chain = (l * n_a - k * n_b) != 0
        sector_ref = np.zeros(k * dims[0] + dims[1])
        sector_ref[k * np.arange(dims[0])] = np.abs(pump) ** 2
        for point, vec, ref_vec in zip(cap["points"], cap["vectors"], ref):
            allowed = 10 * max(point, 1) * cap["tol"]
            where = f"dims={tuple(dims)} point={point}"
            amp = float(np.max(np.abs(vec - ref_vec)))
            norm = abs(float(np.linalg.norm(vec)) - 1.0)
            weight = np.abs(vec) ** 2
            sectors = np.bincount(charge1, weights=weight, minlength=len(sector_ref))
            charge = max(float(weight[off_chain].sum()),
                         float(np.max(np.abs(sectors - sector_ref))))
            worst["amplitude"] = max(worst["amplitude"], amp)
            worst["norm"] = max(worst["norm"], norm)
            worst["charge"] = max(worst["charge"], charge)
            if amp > allowed:
                errors.append(f"chain oracle: amplitude error {amp:.3e} > {allowed:.1e} at {where}")
            if norm > 1e-8:
                errors.append(f"chain oracle: norm off by {norm:.3e} at {where}")
            if charge > allowed:
                errors.append(f"chain oracle: charge leak {charge:.3e} > {allowed:.1e} at {where}")
    return errors, worst


def _crossing(xis, values):
    """Last downward-to-nonnegative zero crossing, linearly interpolated."""
    found = None
    for i in range(len(values) - 1):
        if values[i] < 0.0 <= values[i + 1]:
            x0, x1, v0, v1 = xis[i], xis[i + 1], values[i], values[i + 1]
            found = x0 + (x1 - x0) * (0.0 - v0) / (v1 - v0)
    return found


def _detection_window_claim(name, xis, values, lo, hi, errors):
    """Detection on (0, lo), none beyond hi, and the crossing inside [lo, hi]
    once the rows span that interval."""
    for x, v in zip(xis, values):
        if 0.0 < x < lo and not v < -BAND:
            errors.append(f"{name} misses detection at xi={x:.4g} (value {v:.3e})")
        if x > hi and v < -BAND:
            errors.append(f"{name} re-enters detection at xi={x:.4g} (value {v:.3e})")
    if xis and xis[0] <= 0.0 and xis[-1] >= hi:
        cross = _crossing(xis, values)
        if cross is None or not lo <= cross <= hi:
            errors.append(f"{name} crossing {cross} outside [{lo}, {hi}]")


def check_sweep_rows(claims: str, rows) -> list:
    """Properties every sweep row must have, then the claims of ``claims``.

    claims is 'window', 'hierarchy', 'competition' or '' and names which of
    the paper's claims apply; each is checked only on the rows that cover it.
    """
    errors = []
    for r in rows:
        at = f"xi={r.xi:.4g} n={r.n}"
        if r.xi == 0.0 and (abs(r.nu_minus) > BAND or abs(r.det_c) > BAND):
            errors.append(f"vacuum row {at}: nu={r.nu_minus:.3e} detC={r.det_c:.3e}, expected 0")
        if r.ineq7 < -1e-8:
            errors.append(f"inequality 7 violated at {at}: {r.ineq7:.3e}")
        if (r.nu_minus < -BAND) != (r.ineq8 < -BAND):
            errors.append(f"witness/inequality-8 sign disagree at {at}: "
                          f"{r.nu_minus:.3e} vs {r.ineq8:.3e}")
        if r.truncation_flag != "ok" or max(r.pop_pump, r.pop_a, r.pop_b) > 1e-6:
            errors.append(f"truncation breach at {at}: flag={r.truncation_flag} "
                          f"pops=({r.pop_pump:.2e}, {r.pop_a:.2e}, {r.pop_b:.2e})")
        if (r.nz is not None and r.nz < -BAND) and not r.nu_minus < -BAND:
            errors.append(f"comparator detects where the witness does not at {at}")

    levels = sorted({r.n for r in rows})
    series = {n: sorted((r.xi, r.nu_minus, r.nz) for r in rows if r.n == n) for n in levels}
    if claims == "window":
        xis = [p[0] for p in series[1]]
        _detection_window_claim("comparator", xis, [p[2] for p in series[1]],
                                0.225, 0.375, errors)
        _detection_window_claim("witness", xis, [p[1] for p in series[1]],
                                1.0071 - 0.02, 1.0071 + 0.02, errors)
    elif claims == "hierarchy":
        onsets = [min((x for x, nu, _ in series[n] if nu < -BAND), default=math.inf)
                  for n in levels]
        if onsets != sorted(onsets):
            errors.append(f"hierarchy onsets decrease with n: {onsets}")
    elif claims == "competition":
        for n, blind in ((1, True), (2, False)):
            for x, nu, _ in series.get(n, []):
                if 0.10 <= x <= 0.50 and (nu <= 1e-3 if blind else nu >= -1e-2):
                    errors.append(f"order competition broken at xi={x:.4g} n={n}: nu={nu:.3e}")
    return errors


def check_csv(path: str, rows) -> list:
    """The written CSV holds one line per row, in order, with the same witness."""
    with open(path, encoding="utf-8") as fh:
        data = [line.split(",") for line in fh.read().splitlines()
                if line and not line.startswith("#") and not line.startswith("n,")]
    if len(data) != len(rows):
        return [f"csv has {len(data)} rows, sweep returned {len(rows)}"]
    errors = []
    for fields, r in zip(data, rows):
        if int(fields[0]) != r.n or abs(float(fields[4]) - r.nu_minus) > 1e-11 * max(1.0, abs(r.nu_minus)):
            errors.append(f"csv row for xi={r.xi:.4g} n={r.n} does not match the sweep")
    return errors


def _poisson_tail_terms(nbar: np.ndarray, dim: int):
    """p_{dim-2}, p_{dim-1} and S = sum_{n<dim} p_n of Poisson(nbar)."""
    n = np.arange(dim)
    lgam = np.array([math.lgamma(m + 1.0) for m in n])
    with np.errstate(divide="ignore"):
        logp = n[None, :] * np.log(nbar)[:, None] - lgam[None, :] - nbar[:, None]
    p = np.exp(logp)
    p[nbar == 0, 0] = 1.0
    return p[:, dim - 2], p[:, dim - 1], p.sum(axis=1)


def mixture_covariance(betas, gammas, dim: int) -> tuple[np.ndarray, float]:
    """Closed-form n = 1 covariance of the mixture and its truncation bound.

    For untruncated coherent components V is the ensemble covariance of
    (Re beta, Im beta, Re gamma, Im gamma) plus I/4. Truncating each factor to
    ``dim`` levels and renormalizing shifts <a> by alpha p_{d-1}/S, <a^2> by
    alpha^2 (p_{d-2} + p_{d-1})/S, <a+a> by |alpha|^2 p_{d-1}/S and <a a+>
    by a further d p_{d-1}/S (S is the kept Poisson weight). Propagating those
    shifts through the mixture's first and second moments bounds every entry
    of the difference; that bound is returned with the matrix.
    """
    betas = np.asarray(betas)
    gammas = np.asarray(gammas)
    samples = np.stack([betas.real, betas.imag, gammas.real, gammas.imag], axis=1)
    mean = samples.mean(axis=0)
    centred = samples - mean
    cov = centred.T @ centred / len(samples) + np.eye(4) / 4.0

    first = []
    second = []
    for amp in (betas, gammas):
        nbar = np.abs(amp) ** 2
        p2, p1, kept = _poisson_tail_terms(nbar, dim)
        d1 = np.abs(amp) * p1 / kept
        d2 = nbar * (p2 + p1) / kept
        dn = nbar * p1 / kept
        first.append(d1)
        second.append((2 * d2 + 2 * dn + dim * p1 / kept) / 4.0)
    e1 = np.maximum(*first)
    e2 = np.maximum(*second)
    mu = np.maximum(np.abs(betas), np.abs(gammas))
    e1_mean = float(e1.mean())
    bound = float(np.mean(e2 + 2 * mu * e1 + e1**2)
                  + 2 * np.max(np.abs(mean)) * e1_mean + e1_mean**2)
    return cov, bound + 1e-12


def check_standard_form(cov_matrix: np.ndarray, sf) -> list:
    """The local transforms reach (a, b, c1, c2) and keep the invariants."""
    errors = []
    a_blk, b_blk, c_blk = cov_matrix[:2, :2], cov_matrix[2:, 2:], cov_matrix[:2, 2:]
    scale = max(1.0, float(np.max(np.abs(cov_matrix))))
    got = (sf.t_a @ a_blk @ sf.t_a.T, sf.t_b @ b_blk @ sf.t_b.T, sf.t_a @ c_blk @ sf.t_b.T)
    want = (sf.a * np.eye(2), sf.b * np.eye(2), np.diag([sf.c1, sf.c2]))
    for name, g, w in zip(("A", "B", "C"), got, want):
        if np.max(np.abs(g - w)) > 1e-9 * scale:
            errors.append(f"standard form block {name} off by {np.max(np.abs(g - w)):.3e}")
    if abs(sf.c1 * sf.c2 - np.linalg.det(c_blk)) > 1e-9 * scale**2:
        errors.append("standard form does not keep det C")
    return errors


def check_lemma2(sf, res, lemma1_value: float) -> list:
    """Both plane minima sit at f/2, recomputed with numpy.

    The scaled standard form is rebuilt from (a, b, c1, c2) and the returned
    scalings u = (x y1 / f_k)^2, v = (y2 / (x f_l))^2, in the arrangement the
    transform used (c1 >= 0, b >= a); the transformed matrix's own plane
    blocks and det(V - F/2) are recomputed as well.
    """
    errors = []
    a, b, c1, c2 = sf.a, sf.b, sf.c1, sf.c2
    if c1 < 0:
        c1, c2 = -c1, -c2
    if res.swapped:
        a, b = b, a
    fk, fl = res.f_k, res.f_l
    u = (res.x * res.y1 / fk) ** 2
    v = (res.y2 / (res.x * fl)) ** 2
    s = math.sqrt(u * v)
    qq = np.array([[a * u, c1 * s], [c1 * s, b * v]])
    pp = np.array([[a / u, c2 / s], [c2 / s, b / v]])
    t = np.asarray(res.transformed)
    for label, plane, blk, f in (("qq", qq, t[:2, :2], fk), ("pp", pp, t[2:, 2:], fl)):
        for source, m in (("scaled standard form", plane), ("transformed matrix", blk)):
            low = float(np.linalg.eigvalsh(m)[0])
            if abs(low - f / 2) > 1e-6:
                errors.append(f"lemma 2 {label} minimum from the {source} is {low:.9g}, "
                              f"expected f/2 = {f / 2:.9g}")
    det = float(np.linalg.det(t - np.diag([fk, fk, fl, fl]) / 2))
    if det < -1e-8 or lemma1_value < -1e-8:
        errors.append(f"lemma 1 check on the transformed matrix fails: {det:.3e} / {lemma1_value:.3e}")
    if abs(det - lemma1_value) > 1e-9 * max(1.0, abs(det)):
        errors.append(f"lemma1_check {lemma1_value:.6e} != numpy determinant {det:.6e}")
    return errors
