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

Every criterion is written once, on the last two axes of a
``HigherOrderCovariance``, so the same code serves one covariance and a
(T, 4, 4) stack: one batched ``eigvalsh`` per eigenvalue criterion, the 2x2
invariants once for both determinant inequalities, one batched ``det``.
``evaluate_stack`` returns a report per member of a stack, and
``evaluate_criteria`` the report of one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import (
    _MIRROR,
    HigherOrderCovariance,
    StandardForm,
    _det2,
    _require_rank,
    build_covariance,
)
from .fock import QuantumState

_J0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
# witness and determinant-inequality values this close to zero read "boundary"
BOUNDARY_TOL = 1e-9
# largest summed miss of the lemma-2 plane minima from f/2, relative to
# max(1, f_k + f_l)
LEMMA2_TOL = 1e-6


class NumericalConsistencyError(RuntimeError):
    """Two independent evaluations of the same criterion disagreed."""


def _min_eigenvalue(cov: HigherOrderCovariance, mirrored: bool) -> np.ndarray:
    """Minimum eigenvalue of (mirror(V) or V) + (i/2)<Omega>, one per member."""
    v = _MIRROR @ cov.matrix @ _MIRROR if mirrored else cov.matrix
    return np.linalg.eigvalsh(v + 0.5j * cov.omega())[..., 0]


def _determinant_margins(cov: HigherOrderCovariance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inequality 7 margin, inequality 8 margin, det C), one each per member.

    Both margins are one functional of the local-symplectic invariants,
    evaluated at det C and at |det C|; the cross term is the trace of the
    symplectically dressed product A J C J B J C^T J.
    """
    a, b, c = cov.block_a, cov.block_b, cov.block_c
    i1, i2, i3 = _det2(a), _det2(b), _det2(c)
    fk, fl = cov.f_ka, cov.f_lb
    cross = np.trace(a @ _J0 @ c @ _J0 @ b @ _J0 @ np.swapaxes(c, -1, -2) @ _J0, axis1=-2, axis2=-1)

    def form(det_c):
        return i1 * i2 + (fk * fl / 4.0 - det_c) ** 2 - cross - (i1 * fl**2 + i2 * fk**2) / 4.0

    return form(i3), form(np.abs(i3)), i3


def _lemma1(cov: HigherOrderCovariance) -> np.ndarray:
    m = cov.matrix.copy()
    for i, f in enumerate((cov.f_ka, cov.f_ka, cov.f_lb, cov.f_lb)):
        m[..., i, i] -= f / 2.0
    return np.linalg.det(m)


def uncertainty_margin(cov: HigherOrderCovariance) -> float:
    """Minimum eigenvalue of V + (i/2)<Omega>; >= 0 for every physical state."""
    _require_rank(cov, False, "uncertainty_margin")
    return float(_min_eigenvalue(cov, mirrored=False))


def witness_nu_minus(cov: HigherOrderCovariance) -> float:
    """Minimum eigenvalue of S-tilde = mirror(V) + (i/2)<Omega>.

    Negative values certify entanglement; the sign agrees with
    inequality8_margin because the mirror changes the uncertainty matrix by a
    rank-two perturbation with a single negative direction.
    """
    _require_rank(cov, False, "witness_nu_minus")
    return float(_min_eigenvalue(cov, mirrored=True))


def inequality7_margin(cov: HigherOrderCovariance) -> float:
    """LHS - RHS of the determinant-form uncertainty inequality.

    Written in local-symplectic invariants; the cross term is the trace of the
    symplectically dressed product A J C J B J C^T J, which reduces to
    tr[A C B C^T]-type products in standard form. Nonnegative for every
    physical state.
    """
    _require_rank(cov, False, "inequality7_margin")
    return float(_determinant_margins(cov)[0])


def inequality8_margin(cov: HigherOrderCovariance) -> float:
    """Same functional as inequality (7) but with |det C|.

    Separable states satisfy margin >= 0; a negative value certifies
    entanglement. For det C >= 0 the value coincides with inequality7_margin.
    """
    _require_rank(cov, False, "inequality8_margin")
    return float(_determinant_margins(cov)[1])


def lemma1_check(cov: HigherOrderCovariance) -> float:
    """det(V - F/2) with F = diag(f_kA, f_kA, f_lB, f_lB).

    A nonnegative determinant is the separability certificate only when
    V - F/2 is also positive semidefinite (the determinant alone can be
    positive with two negative eigenvalues, as a two-mode squeezed state
    shows); pair with the minimum eigenvalue when certifying.
    """
    _require_rank(cov, False, "lemma1_check")
    return float(_lemma1(cov))


@dataclass(frozen=True)
class Lemma2Result:
    """Outcome of the constructive det C >= 0 separability transformation.

    The standard form is scaled by q_A -> sqrt(u) q_A, p_A -> p_A / sqrt(u),
    q_B -> sqrt(v) q_B, p_B -> p_B / sqrt(v), with (u, v) the exact root
    chosen by lemma2_transform. x, y1, y2 record that scaling in the gauge
    x = 1: y1 = f_k sqrt(u), y2 = f_l sqrt(v). lambdas holds
    (lambda_+, lambda_-, lambda'_+, lambda'_-), the eigenvalue pairs of the
    scaled qq and pp planes, so lambda_- = f_k/2 and lambda'_- = f_l/2 up to
    ``residual`` (the summed deviation of the two minima from f/2).
    transformed is diag(lambdas), the matrix after the equal rotation of the
    two planes; for det C = 0 it is the plain scaling, which keeps the
    q_A q_B coupling and has residual 0. f_k and f_l are the commutator
    expectations in the arrangement actually used: the parties are relabeled
    when b < a, which ``swapped`` records.
    """

    lambdas: tuple
    x: float
    y1: float
    y2: float
    f_k: float
    f_l: float
    transformed: np.ndarray
    residual: float
    swapped: bool

    def as_covariance(self) -> HigherOrderCovariance:
        """Package the transformed matrix for lemma1_check."""
        return HigherOrderCovariance(self.transformed, self.f_k, self.f_l, np.zeros(4), 1, 1, 1)


def _plane_eigenvalues(a, b, c1, c2, u, v):
    """(larger, smaller) eigenvalues of the qq plane [[a u, c1 w], [c1 w, b v]]
    and of the pp plane [[a/u, c2/w], [c2/w, b/v]], w = sqrt(u v)."""
    w = math.sqrt(u * v)
    out = ()
    for p, q, r in ((a * u, c1 * w, b * v), (a / u, c2 / w, b / v)):
        h, d = (p + r) / 2.0, math.hypot((p - r) / 2.0, q)
        out += (h + d, h - d)
    return out


def _saturating_scalings(a, b, c1, c2, fk, fl):
    """Admissible roots (u, v) of det(qq - f_k/2) = det(pp - f_l/2) = 0.

    The qq condition, (ab - c1^2) uv - (f_k/2)(a u + b v) + f_k^2/4 = 0, is
    solved for v, and substituting v into the pp condition,
    (ab - c2^2) - (f_l/2)(b u + a v) + (f_l^2/4) uv = 0, leaves
    lead u^2 + mid u + const = 0. A root is admissible when u > 0, v > 0,
    a u + b v >= f_k and a/u + b/v >= f_l: a plane's trace of at least f
    makes f/2 its smaller eigenvalue.
    """
    d1, d2 = a * b - c1**2, a * b - c2**2
    lead = fl / 2.0 * (fk * fl * a / 4.0 - b * d1)
    mid = d1 * d2 + fk * fl * (b * b - a * a) / 4.0 - (fk * fl) ** 2 / 16.0
    const = fk / 2.0 * (fk * fl * a / 4.0 - b * d2)
    disc = mid * mid - 4.0 * lead * const
    if disc < -1e-10 * mid * mid:
        return []
    # a boundary state's double root can round disc below 0; the caller's
    # residual check guards it. Cancellation-free roots: q/lead and const/q
    q = -(mid + math.copysign(math.sqrt(max(disc, 0.0)), mid)) / 2.0
    roots = [const / q] if q != 0 else []
    if lead != 0:
        roots.append(q / lead)
    out = []
    for u in roots:
        den = d1 * u - fk * b / 2.0
        if u <= 0 or den == 0:
            continue
        v = (fk * a * u / 2.0 - fk**2 / 4.0) / den
        if v > 0 and a * u + b * v >= fk and a / u + b / v >= fl:
            out.append((u, v))
    return out


def lemma2_transform(sf: StandardForm) -> Lemma2Result:
    """Constructive local transformation for det C >= 0 standard forms.

    Scales the quadratures so that the minimum eigenvalues of the qq and pp
    planes hit f_k/2 and f_l/2, after which an equal rotation in the two
    planes diagonalizes the matrix and det(V2 - F/2) >= 0 certifies
    separability. The scalings (u, v) solve the two saturation conditions
    exactly: eliminating v leaves one quadratic in u, solved in closed form.
    When both roots are admissible (the usual case for det C > 0), the root
    with the larger u is taken. No admissible root, or minima further than
    LEMMA2_TOL * max(1, f_k + f_l) from f/2, raises NumericalConsistencyError.

    det C < 0 inputs are rejected: they are mirror images of the covered case
    and are exactly the entanglement candidates the lemma does not address.
    """
    a, b, c1, c2 = sf.a, sf.b, sf.c1, sf.c2
    fk, fl = float(sf.f_ka), float(sf.f_lb)
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
        lambdas = (2 * a**2 / fk, fk / 2.0, 2 * b**2 / fl, fl / 2.0)
        v1 = np.diag(lambdas)
        v1[0, 2] = v1[2, 0] = 2.0 * math.sqrt(a * b) * c1 / math.sqrt(fk * fl)
        return Lemma2Result(lambdas, 1.0, fk * math.sqrt(2 * a / fk), fl * math.sqrt(2 * b / fl),
                            fk, fl, v1, 0.0, swapped)

    roots = _saturating_scalings(a, b, c1, c2, fk, fl)
    if not roots:
        raise NumericalConsistencyError(
            "no admissible scaling saturates the separability bounds for "
            f"a={a:.6g}, b={b:.6g}, c1={c1:.6g}, c2={c2:.6g}, "
            f"f_k={fk:.6g}, f_l={fl:.6g}"
        )
    u, v = max(roots)
    lambdas = _plane_eigenvalues(a, b, c1, c2, u, v)
    res = abs(lambdas[1] - fk / 2.0) + abs(lambdas[3] - fl / 2.0)
    if res > LEMMA2_TOL * max(1.0, fk + fl):
        raise NumericalConsistencyError(
            f"scaling (u={u:.6g}, v={v:.6g}) misses the separability bounds by "
            f"{res:.3e} for a={a:.6g}, b={b:.6g}, c1={c1:.6g}, c2={c2:.6g}, "
            f"f_k={fk:.6g}, f_l={fl:.6g}"
        )
    return Lemma2Result(lambdas, 1.0, fk * math.sqrt(u), fl * math.sqrt(v), fk, fl,
                        np.diag(lambdas), res, swapped)


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
    return float(nz_values(build_covariance(state, 1, 1, 2)))


def nz_values(cov: HigherOrderCovariance) -> np.ndarray:
    """nha_zubairy of an n = 1, (k, l) = (1, 2) covariance, one value per
    member of a stack."""
    if (cov.n, cov.k, cov.l) != (1, 1, 2):
        raise ValueError("the variance-product comparator reads the n = 1 covariance "
                         f"of k=1, l=2, got n={cov.n}, k={cov.k}, l={cov.l}")
    v = cov.matrix
    var1 = v[..., 0, 0] + v[..., 2, 2] - 2.0 * v[..., 0, 2]
    var2 = v[..., 1, 1] + v[..., 3, 3] + 2.0 * v[..., 1, 3]
    cross = v[..., 0, 1] + v[..., 0, 3] - v[..., 2, 1] - v[..., 2, 3]
    bound = (cov.f_ka + cov.f_lb) / 2.0
    return var1 * var2 - bound**2 - cross**2


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


def evaluate_stack(cov: HigherOrderCovariance, nz=None, xi=None) -> list[WitnessReport]:
    """Evaluate the full criteria stack on every member of the (T, 4, 4)
    stack ``cov``; one covariance is refused with ValueError.

    The verdict is cross-checked between the eigenvalue witness and the
    determinant inequality; disagreement outside the boundary band raises
    NumericalConsistencyError naming the member by xi (when the T grid
    values ``xi`` are given) or by row, and by n. Values within
    +-BOUNDARY_TOL of zero report "boundary" rather than forcing a side.
    ``nz``, T comparator values (see nz_values), fills nz_value.
    """
    _require_rank(cov, True, "evaluate_stack")
    return _reports(cov, nz, xi)


def _reports(cov: HigherOrderCovariance, nz=None, xi=None) -> list[WitnessReport]:
    """evaluate_stack's reports, one per member; one covariance gives a list of one."""
    nu, m7, m8, det_c, lemma1, uncertainty = map(np.atleast_1d, (
        _min_eigenvalue(cov, mirrored=True), *_determinant_margins(cov), _lemma1(cov),
        _min_eigenvalue(cov, mirrored=False)))
    ent_nu = nu < -BOUNDARY_TOL
    ent_m8 = m8 < -BOUNDARY_TOL
    bad = np.flatnonzero(ent_nu != ent_m8)
    if bad.size:
        t = bad[0]
        at = f"xi={xi[t]:.6g}" if xi is not None else f"row {t}"
        raise NumericalConsistencyError(
            f"witness and determinant inequality disagree at {at}, n={cov.n}: "
            f"nu_minus={nu[t]:.6e}, ineq8_margin={m8[t]:.6e}"
        )
    boundary = (np.abs(nu) <= BOUNDARY_TOL) | (np.abs(m8) <= BOUNDARY_TOL)
    verdict = np.where(ent_nu, "entangled", np.where(boundary, "boundary", "separable"))
    columns = zip(nu.tolist(), m7.tolist(), m8.tolist(), lemma1.tolist(), det_c.tolist(),
                  uncertainty.tolist(), verdict.tolist(),
                  [None] * nu.size if nz is None else np.atleast_1d(nz).astype(float).tolist())
    return [WitnessReport(cov.n, cov.k, cov.l, *values) for values in columns]


def evaluate_criteria(
    state: QuantumState,
    n: int,
    k: int,
    l: int,
    with_nz: bool = False,
) -> WitnessReport:
    """Evaluate the full criteria stack on one state, as ``evaluate_stack``
    does on each member of a stack. with_nz adds nha_zubairy, read off this
    covariance when it is the n = 1 one of the (1, 2) process.
    """
    cov = build_covariance(state, n, k, l)
    nz = None
    if with_nz:
        nz = nz_values(cov if (n, k, l) == (1, 1, 2) else build_covariance(state, 1, 1, 2))
    return _reports(cov, nz)[0]
