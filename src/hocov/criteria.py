"""Separability tests built on higher-order covariance matrices.

The hierarchy evaluated here, from weakest to strongest binding:

  * uncertainty_margin: physicality of V + (i/2)<Omega> (every state passes),
  * inequality7_margin: the determinant-form uncertainty inequality,
  * inequality8_margin: the same expression with |det C|, violated only by
    entangled states,
  * witness_nu_minus: minimum eigenvalue of the mirror-reflected uncertainty
    matrix, negative exactly when inequality (8) is violated,
  * lemma1_check / lemma2_transform: the constructive separability argument
    for det C >= 0 covariances,
  * nha_zubairy: the product-of-variances comparator for the k=1, l=2 process.

All scalarizations use the state expectations f_kA = <f_{nk}(N_A)> and
f_lB = <f_{nl}(N_B)> carried by the covariance object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .covariance import (
    HigherOrderCovariance,
    StandardForm,
    build_covariance,
    invariants,
    mirror_reflect,
)
from .fock import QuantumState

_J0 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class NumericalConsistencyError(RuntimeError):
    """Two independent evaluations of the same criterion disagreed."""


def _hermitian_part(cov: HigherOrderCovariance, mirrored: bool) -> np.ndarray:
    base = mirror_reflect(cov) if mirrored else cov
    return base.matrix + 0.5j * base.omega()


def uncertainty_margin(cov: HigherOrderCovariance) -> float:
    """Minimum eigenvalue of V + (i/2)<Omega>; >= 0 for every physical state."""
    return float(np.linalg.eigvalsh(_hermitian_part(cov, mirrored=False))[0])


def witness_nu_minus(cov: HigherOrderCovariance) -> float:
    """Minimum eigenvalue of S-tilde = mirror(V) + (i/2)<Omega>.

    Negative values certify entanglement; the sign agrees with
    inequality8_margin because the mirror changes the uncertainty matrix by a
    rank-two perturbation with a single negative direction.
    """
    return float(np.linalg.eigvalsh(_hermitian_part(cov, mirrored=True))[0])


def _invariant_form(cov: HigherOrderCovariance, det_c: float) -> float:
    inv = invariants(cov)
    fk, fl = cov.f_ka, cov.f_lb
    a = cov.block_a
    b = cov.block_b
    c = cov.block_c
    cross = float(np.trace(a @ _J0 @ c @ _J0 @ b @ _J0 @ c.T @ _J0))
    return (
        inv.i1 * inv.i2
        + (fk * fl / 4.0 - det_c) ** 2
        - cross
        - (inv.i1 * fl**2 + inv.i2 * fk**2) / 4.0
    )


def inequality7_margin(cov: HigherOrderCovariance) -> float:
    """LHS - RHS of the determinant-form uncertainty inequality.

    Written in local-symplectic invariants; the cross term is the trace of the
    symplectically dressed product A J C J B J C^T J, which reduces to
    tr[A C B C^T]-type products in standard form. Nonnegative for every
    physical state.
    """
    return _invariant_form(cov, invariants(cov).i3)


def inequality8_margin(cov: HigherOrderCovariance) -> float:
    """Same functional as inequality (7) but with |det C|.

    Separable states satisfy margin >= 0; a negative value certifies
    entanglement. For det C >= 0 the value coincides with inequality7_margin.
    """
    return _invariant_form(cov, abs(invariants(cov).i3))


def lemma1_check(cov: HigherOrderCovariance) -> float:
    """det(V - F/2) with F = diag(f_kA, f_kA, f_lB, f_lB).

    A nonnegative determinant is the separability certificate only when
    V - F/2 is also positive semidefinite (the determinant alone can be
    positive with two negative eigenvalues, as a two-mode squeezed state
    shows); pair with the minimum eigenvalue when certifying.
    """
    f = np.diag([cov.f_ka, cov.f_ka, cov.f_lb, cov.f_lb])
    return float(np.linalg.det(cov.matrix - f / 2.0))


@dataclass(frozen=True)
class Lemma2Result:
    """Outcome of the constructive det C >= 0 separability transformation.

    lambdas holds (lambda_+, lambda_-, lambda'_+, lambda'_-): the eigenvalue
    pairs of the transformed qq and pp planes. f_k and f_l are the commutator
    expectations in the arrangement actually used (parties relabeled when
    b < a, recorded by ``swapped``). x, y1, y2 are the scaling parameters in
    the gauge x = 1 unless the closed form succeeded. transformed is the 4x4
    matrix after scaling and equal rotation, ordered (q_A, p_A, q_B, p_B).
    """

    lambdas: tuple
    x: float
    y1: float
    y2: float
    f_k: float
    f_l: float
    transformed: np.ndarray
    used_fallback: bool
    residual: float
    swapped: bool
    path: str

    def as_covariance(self, n: int = 1, k: int = 1, l: int = 1) -> HigherOrderCovariance:
        """Package the transformed matrix for lemma1_check."""
        return HigherOrderCovariance(
            self.transformed, self.f_k, self.f_l, np.zeros(4), n, k, l
        )


def _plane_blocks(a, b, c1, c2, u, v):
    s = np.sqrt(u * v)
    qq = np.array([[a * u, c1 * s], [c1 * s, b * v]])
    pp = np.array([[a / u, c2 / s], [c2 / s, b / v]])
    return qq, pp


def _min_eig2(m):
    h = (m[0, 0] + m[1, 1]) / 2.0
    d = (m[0, 0] - m[1, 1]) / 2.0
    return h - np.hypot(d, m[0, 1])


def _closed_form_attempt(a, b, c1, c2, fk, fl, iters=80):
    """Fixed-point iteration of the closed-form x, y1, y2 expressions.

    Returns (u, v, x, y1, y2) on convergence, None when a radicand goes
    negative, a value overflows, or the iteration fails to settle. The
    companion discriminant M5 enters unsquared; squaring it would be
    dimensionally inconsistent with its M2 counterpart.
    """
    x = 1.0
    y1 = fk
    y2 = fl
    with np.errstate(all="ignore"):
        for _ in range(iters):
            m1 = 2 * (8 * a * b**2 * fl * x**4 - 8 * b * c1**2 * fl * x**4
                      - 2 * a * fk * fl**2 * x**4)
            m2 = (-16 * a**2 * b**2 * fk**2 * x**2 + 16 * a * b * c1**2 * fk**2 * x**2
                  + 16 * a * b * c2**2 * fk**2 * x**2 - 16 * c1**2 * c2**2 * fk**2 * x**2
                  + 4 * a**2 * fk**3 * fl * x**2 - 4 * b**2 * fk**3 * fl * x**2
                  + fk**4 * fl**2 * x**2)
            m3 = m2**2 - 2 * (8 * a * b**2 * fk**5 - 8 * b * c2**2 * fk**5
                              - 2 * a * fk**6 * fl) * m1
            m4 = 2 * (8 * a**2 * b - 8 * a * c1**2 - 2 * b * fk * fl)
            m5 = (-16 * a**2 * b**2 * fl * x**2 + 16 * a * b * c1**2 * fl * x**2
                  + 16 * a * b * c2**2 * fl * x**2 - 16 * c1**2 * c2**2 * fl * x**2
                  - 4 * a**2 * fk * fl**2 * x**2 + 4 * b**2 * fk * fl**2 * x**2
                  + fk**2 * fl**3 * x**2)
            m6 = m5**2 - 2 * (8 * a**2 * b * fk * fl**3 * x**4
                              - 8 * a * c2**2 * fk * fl**3 * x**4
                              - 2 * b * fk**2 * fl**4 * x**4) * m4
            if not np.isfinite(m1) or not np.isfinite(m4) or m1 == 0 or m4 == 0:
                return None
            if m3 < 0 or m6 < 0:
                return None
            r1 = m2 / m1 + np.sqrt(m3) / m1
            r2 = m5 / m4 + np.sqrt(m6) / m4
            if r1 <= 0 or r2 <= 0 or not np.isfinite(r1) or not np.isfinite(r2):
                return None
            y1_new, y2_new = np.sqrt(r1), np.sqrt(r2)
            theta_k, theta_l = y1_new / fk, y2_new / fl
            num, den = a * c1 + b * c2, b * c1 + a * c2
            if num <= 0 or den <= 0:
                return None
            x_new = num**0.25 * np.sqrt(theta_l) / (den**0.25 * np.sqrt(theta_k))
            if not np.isfinite(x_new) or x_new <= 0:
                return None
            drift = abs(x_new - x) + abs(y1_new - y1) + abs(y2_new - y2)
            x, y1, y2 = x_new, y1_new, y2_new
            if drift < 1e-14 * (1.0 + x + y1 + y2):
                break
        else:
            return None
    theta_k, theta_l = y1 / fk, y2 / fl
    u, v = (x * theta_k) ** 2, (theta_l / x) ** 2
    return u, v, x, y1, y2


def _saturation_residual(a, b, c1, c2, fk, fl, u, v):
    qq, pp = _plane_blocks(a, b, c1, c2, u, v)
    return abs(_min_eig2(qq) - fk / 2.0) + abs(_min_eig2(pp) - fl / 2.0)


def _fallback_solve(a, b, c1, c2, fk, fl):
    """Root-find the two-plane saturation conditions over log scalings.

    The transformed matrix depends on (x, theta_k, theta_l) only through
    u = (x theta_k)^2 and v = (theta_l / x)^2, so the search space is two
    dimensional.
    """

    def residual_vec(logs):
        u, v = np.exp(logs)
        qq, pp = _plane_blocks(a, b, c1, c2, u, v)
        return [_min_eig2(qq) - fk / 2.0, _min_eig2(pp) - fl / 2.0]

    starts = [
        (np.log(fk / (2 * a)), np.log(fl / (2 * b))),
        (0.0, 0.0),
        (0.7, -0.7),
        (-0.7, 0.7),
        (1.5, -1.5),
        (-1.5, 1.5),
        (2.5, 0.5),
        (0.5, 2.5),
    ]
    best = None
    for s in starts:
        sol = optimize.root(residual_vec, s, method="hybr", tol=1e-14)
        u, v = np.exp(sol.x)
        res = _saturation_residual(a, b, c1, c2, fk, fl, u, v)
        if best is None or res < best[2]:
            best = (u, v, res)
        if res < 1e-12 * (fk + fl):
            break
    return best


def lemma2_transform(
    sf: StandardForm,
    f_ka: float | None = None,
    f_lb: float | None = None,
    tol: float = 1e-6,
) -> Lemma2Result:
    """Constructive local transformation for det C >= 0 standard forms.

    Scales each quadrature so that the minimum eigenvalues of the qq and pp
    planes hit f_k/2 and f_l/2, after which an equal rotation in the two
    planes diagonalizes the matrix and det(V2 - F/2) >= 0 certifies
    separability. The closed form for (x, y1, y2) is attempted first and
    checked against the saturation postcondition; on failure a
    two-dimensional root-find over the scaling invariants takes over
    (used_fallback=True).

    det C < 0 inputs are rejected: they are mirror images of the covered case
    and are exactly the entanglement candidates the lemma does not address.
    """
    a, b = sf.a, sf.b
    c1, c2 = sf.c1, sf.c2
    fk = sf.f_ka if f_ka is None else float(f_ka)
    fl = sf.f_lb if f_lb is None else float(f_lb)
    if c1 < 0:
        # a local half-turn on one party flips both signs at once
        c1, c2 = -c1, -c2
    swapped = False
    if b < a:
        a, b = b, a
        fk, fl = fl, fk
        swapped = True
    scale = max(abs(c1), abs(c2), a, b)
    det_c = c1 * c2
    if det_c < -1e-12 * scale**2:
        raise ValueError(
            "lemma 2 transformation requires det C >= 0; "
            f"got c1={c1:.3e}, c2={c2:.3e}"
        )

    if abs(c2) <= 1e-12 * scale:
        # det C = 0 branch: plain scaling, pp plane lands exactly on (fk/2, fl/2)
        off = 2.0 * np.sqrt(a * b) * c1 / np.sqrt(fk * fl)
        v1 = np.diag([2 * a**2 / fk, fk / 2.0, 2 * b**2 / fl, fl / 2.0])
        v1[0, 2] = v1[2, 0] = off
        lambdas = (2 * a**2 / fk, fk / 2.0, 2 * b**2 / fl, fl / 2.0)
        x = 1.0
        y1 = fk * np.sqrt(2 * a / fk)
        y2 = fl * np.sqrt(2 * b / fl)
        return Lemma2Result(
            lambdas, x, y1, y2, fk, fl, v1, False, 0.0, swapped,
            "zero-detC scaling",
        )

    attempt = _closed_form_attempt(a, b, c1, c2, fk, fl)
    used_fallback = False
    path = "closed form"
    if attempt is not None:
        u, v, x, y1, y2 = attempt
        res = _saturation_residual(a, b, c1, c2, fk, fl, u, v)
        if res > tol * max(1.0, fk + fl):
            attempt = None
    if attempt is None:
        u, v, res = _fallback_solve(a, b, c1, c2, fk, fl)
        used_fallback = True
        path = "numerical scaling search"
        x = 1.0
        y1 = fk * np.sqrt(u)
        y2 = fl * np.sqrt(v)
        if res > tol * max(1.0, fk + fl):
            raise NumericalConsistencyError(
                "scaling search failed to saturate the separability bounds: "
                f"residual {res:.3e} for a={a:.4g}, b={b:.4g}, "
                f"c1={c1:.4g}, c2={c2:.4g}, f_k={fk:.4g}, f_l={fl:.4g}"
            )

    qq, pp = _plane_blocks(a, b, c1, c2, u, v)
    lam_q = np.linalg.eigvalsh(qq)
    lam_p = np.linalg.eigvalsh(pp)
    lambdas = (lam_q[1], lam_q[0], lam_p[1], lam_p[0])
    v1 = np.diag(lambdas)
    return Lemma2Result(
        lambdas, float(x), float(y1), float(y2), fk, fl, v1,
        used_fallback, float(res), swapped, path,
    )


def nha_zubairy(state: QuantumState) -> float:
    """Product-of-variances comparator for the k=1, l=2 down-conversion.

    N_Z = Var(L1) Var(L2) - <N_B + 3/4>^2 - Cov_sym(L1, L2)^2 with
    L1 = Q^1_A - Q^2_B and L2 = P^1_A + P^2_B. Negative values witness
    entanglement; the witness hierarchy detects a strictly wider interval.

    Every term is read off the n = 1 covariance of the (1, 2) process,
    V = cov(Q^1_A, P^1_A, Q^2_B, P^2_B): Var(L1) = V00 + V22 - 2 V02, and
    likewise for L2 and the cross term. Since f_1 = 1/2 and f_2(N) = 2N + 1,
    the bound <N_B + 3/4> is (<f_1(N_A)> + <f_2(N_B)>)/2, with <f_2(N_B)>
    taken from the mode-B populations.
    """
    cov = build_covariance(state, 1, 1, 2)
    v = cov.matrix
    var1 = v[0, 0] + v[2, 2] - 2.0 * v[0, 2]
    var2 = v[1, 1] + v[3, 3] + 2.0 * v[1, 3]
    cross = v[0, 1] + v[0, 3] - v[2, 1] - v[2, 3]
    bound = (cov.f_ka + cov.f_lb) / 2.0
    return float(var1 * var2 - bound**2 - cross**2)


@dataclass(frozen=True)
class WitnessReport:
    """All criteria values for one state and one hierarchy level."""

    n: int
    k: int
    l: int
    nu_minus: float
    ineq7_margin: float
    ineq8_margin: float
    lemma1_value: float
    det_c: float
    uncertainty: float
    verdict: str
    nz_value: float | None = None


def evaluate_criteria(
    state: QuantumState,
    n: int,
    k: int,
    l: int,
    with_nz: bool = False,
    boundary_tol: float = 1e-9,
) -> WitnessReport:
    """Evaluate the full criteria stack on one state.

    The verdict is cross-checked between the eigenvalue witness and the
    determinant inequality; disagreement outside the boundary band raises
    NumericalConsistencyError. Values within +-boundary_tol of zero report
    "boundary" rather than forcing a side.
    """
    cov = build_covariance(state, n, k, l)
    nu = witness_nu_minus(cov)
    m7 = inequality7_margin(cov)
    m8 = inequality8_margin(cov)
    ent_nu = nu < -boundary_tol
    ent_m8 = m8 < -boundary_tol
    if ent_nu != ent_m8:
        raise NumericalConsistencyError(
            "witness and determinant inequality disagree: "
            f"nu_minus={nu:.6e}, ineq8_margin={m8:.6e}"
        )
    if ent_nu:
        verdict = "entangled"
    elif abs(nu) <= boundary_tol or abs(m8) <= boundary_tol:
        verdict = "boundary"
    else:
        verdict = "separable"
    nz = nha_zubairy(state) if with_nz else None
    return WitnessReport(
        n=n,
        k=k,
        l=l,
        nu_minus=nu,
        ineq7_margin=m7,
        ineq8_margin=m8,
        lemma1_value=lemma1_check(cov),
        det_c=invariants(cov).i3,
        uncertainty=uncertainty_margin(cov),
        verdict=verdict,
        nz_value=nz,
    )
