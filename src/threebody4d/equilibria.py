"""Relative equilibria of the reduced system and their stability.

Critical points of the effective potential

    V_eff = (mu1^2 I1^-1 + mu2^2 I2^-1)/2 + V,
    I1^-1 = (q1^2/nu2 + q3^2/nu1)/(4 A^2),
    I2^-1 = (q2^2/nu2 + q4^2/nu1)/(4 A^2)

are relative equilibria.  For two equal masses the isosceles family is
solved in closed form (parametrised by the mass ratio n = m1/m and the
shape parameter t with rho = q1/q4 = 4t/(1-t^2)); for general masses a
power-series seed in the small momentum ratio feeds one Newton solver on
the V_eff gradient, on floats or on D-digit Decimals.
Stability is decided by the 8x8 Hessian of the reduced Hamiltonian, which
at p = 0 splits into the Hessian of V_eff and the momentum block
diag(1/nu) + 2*c2_comb * (dL3/dp)(dL3/dp)^t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from typing import Optional

import numpy as np

from .errors import (
    DegenerateMomenta,
    DegenerateHessian,
    NoConvergence,
    NoRealMomenta,
    SolverFailure,
)
from .model import (
    MassTriple,
    potential_partials,
    potential_second_partials,
)
from . import reduction

EQUILATERAL_T = 2.0 - math.sqrt(3.0)


# --- effective potential: value, gradient, Hessian --------------------------

def _inertia_terms(masses: MassTriple, q):
    """(T1, T2) = (q1^2/nu2 + q3^2/nu1, q2^2/nu2 + q4^2/nu1), so I_i^-1 = T_i/(4 A^2)."""
    return (q[0] ** 2 / masses.nu2 + q[2] ** 2 / masses.nu1,
            q[1] ** 2 / masses.nu2 + q[3] ** 2 / masses.nu1)


def moments_of_inertia_inv(masses: MassTriple, q) -> tuple[float, float]:
    """(I1^-1, I2^-1) from the 4 A^2 form (no solvability assumption)."""
    a = reduction._chart_area(q, masses.potential_constants[-1])
    t1, t2 = _inertia_terms(masses, q)
    return t1 / (4 * a * a), t2 / (4 * a * a)


def effective_potential_kernel(masses: MassTriple, q, mu1, mu2):
    """(V_eff, gradient, Hessian) at q = (q1, q2, q3, q4) in plain scalars.

    The gradient is a 4-tuple and the Hessian a symmetric 4x4 nested list.
    It holds no float constant, in its arithmetic or its comparisons, so it
    runs unchanged on Python floats, on mpmath numbers and on Decimals (with
    a MassTriple of masses of the same type, whose constants carry the
    working precision and the tolerances too).  V_eff is the centrifugal term
    num/(8 A^2), num = mu1^2 T1 + mu2^2 T2 (see `_inertia_terms`), plus V
    of the scalar products of q.
    """
    value, grad, terms = _veff_value_gradient(masses, q, mu1, mu2)
    return value, grad, _veff_hessian(terms)


def _veff_value_gradient(masses: MassTriple, q, mu1, mu2):
    """(V_eff, gradient, terms): the kernel's first stage.

    `terms` holds what `_veff_hessian` shares with it, so callers that need
    no Hessian pay nothing for it.
    """
    q1, q2, q3, q4 = q
    k = masses.potential_constants
    a = reduction._chart_area(q, k[-1])
    nu1, nu2 = masses.nu1, masses.nu2
    m1s, m2s = mu1 * mu1, mu2 * mu2
    t1, t2 = _inertia_terms(masses, q)
    num = m1s * t1 + m2s * t2
    dnum = (m1s * (2 * q1 / nu2), m2s * (2 * q2 / nu2),
            m1s * (2 * q3 / nu1), m2s * (2 * q4 / nu1))
    da = (q4 / 2, -q3 / 2, -q2 / 2, q1 / 2)
    den2 = 8 * a * a
    den3 = 4 * a ** 3
    e1 = num / den3

    s11 = q1 * q1 + q2 * q2
    s22 = q3 * q3 + q4 * q4
    s12 = q1 * q3 + q2 * q4
    (v, v1, v2, v3), dist = potential_partials(k, s11, s22, s12, distances=True)
    # 0 in the number type of q: on floats a mixed int-float product costs
    # more than a float one
    zero = a - a
    # js[i] = d(s11, s22, s12)/dq_i
    js = ((2 * q1, zero, q3), (2 * q2, zero, q4), (zero, 2 * q3, q1), (zero, 2 * q4, q2))

    # the order of operations in `grad` is part of the output: reports print
    # its norm to 17 digits, and the float Newton stops on it
    grad = tuple(dnum[i] / den2 - e1 * da[i] + (js[i][0] * v1 + js[i][1] * v2 + js[i][2] * v3)
                 for i in range(4))
    terms = (nu1, nu2, a, m1s, m2s, num, dnum, da, den2, den3, e1, k, dist, v1, v2, v3, js)
    return num / den2 + v, grad, terms


def _veff_hessian(terms):
    """The 4x4 V_eff Hessian: the kernel's second stage."""
    nu1, nu2, a, m1s, m2s, num, dnum, da, den2, den3, e1, k, dist, v1, v2, v3, js = terms
    e2 = 3 * num / (4 * a ** 4)
    v11, v22, v33, v12, v13, v23 = potential_second_partials(k, dist)
    # w[i] = Vss js[i]
    w = [(v11 * c0 + v12 * c1 + v13 * c2, v12 * c0 + v22 * c1 + v23 * c2,
          v13 * c0 + v23 * c1 + v33 * c2) for c0, c1, c2 in js]
    # constant second derivatives: of num (diagonal), of s11, s22 (diagonal),
    # of s12 (weight V3) and of A (d2A/dq1dq4 = -d2A/dq2dq3 = 1/2, weight -e1)
    diag = (2 * m1s / nu2 / den2 + 2 * v1, 2 * m2s / nu2 / den2 + 2 * v1,
            2 * m1s / nu1 / den2 + 2 * v2, 2 * m2s / nu1 / den2 + 2 * v2)
    he = e1 / 2
    zero = a - a
    const = ((diag[0], zero, v3, -he), (zero, diag[1], he, v3),
             (v3, he, diag[2], zero), (-he, v3, zero, diag[3]))
    hess = [[0] * 4 for _ in range(4)]
    for i in range(4):
        dnum_i, da_i, e2da_i, (w0, w1, w2) = dnum[i], da[i], e2 * da[i], w[i]
        for j in range(i, 4):
            j0, j1, j2 = js[j]
            hess[i][j] = hess[j][i] = (
                const[i][j] - (dnum_i * da[j] + da_i * dnum[j]) / den3
                + e2da_i * da[j] + j0 * w0 + j1 * w1 + j2 * w2)
    return hess


def effective_potential(masses: MassTriple, q, mu1: float, mu2: float) -> float:
    return _veff_value_gradient(masses, np.asarray(q, dtype=float).tolist(), mu1, mu2)[0]


def effective_potential_gradient(masses: MassTriple, q, mu1: float,
                                 mu2: float) -> np.ndarray:
    return np.array(_veff_value_gradient(
        masses, np.asarray(q, dtype=float).tolist(), mu1, mu2)[1])


def effective_potential_hessian(masses: MassTriple, q, mu1: float,
                                mu2: float) -> np.ndarray:
    """Analytic 4x4 Hessian of V_eff with respect to q."""
    return np.array(effective_potential_kernel(
        masses, np.asarray(q, dtype=float).tolist(), mu1, mu2)[2])


def keff_correction(masses: MassTriple, q, mu1: float, mu2: float) -> float:
    """Coefficient of L3^2 in K_eff: (-mu1^2 I1^-1 + mu2^2 I2^-1)/(2(mu1^2-mu2^2)).

    Positive value is the sufficient condition for the momentum block of the
    Hessian to be positive definite (it is not necessary).
    """
    if mu1 == mu2:
        raise DegenerateMomenta("keff correction undefined for mu1 == mu2")
    i1inv, i2inv = moments_of_inertia_inv(masses, q)
    return (-mu1 * mu1 * i1inv + mu2 * mu2 * i2inv) / (2 * (mu1 * mu1 - mu2 * mu2))


# --- equilibrium reports -----------------------------------------------------

@dataclass
class EquilibriumReport:
    q: np.ndarray
    mu1: float
    mu2: float
    masses: MassTriple
    hessian: np.ndarray
    eigenvalues: np.ndarray
    classification: str
    omega1: float
    omega2: float
    h: float
    b: float
    gradient_norm: float
    keff_coefficient: float
    energy: float
    kepler1: float
    kepler2: float

    def to_dict(self) -> dict:
        return {
            "q": [float(v) for v in self.q],
            "mu1": self.mu1,
            "mu2": self.mu2,
            "masses": [self.masses.m1, self.masses.m2, self.masses.m3],
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "classification": self.classification,
            "omega1": self.omega1,
            "omega2": self.omega2,
            "h": self.h,
            "b": self.b,
            "gradient_norm": self.gradient_norm,
            "keff_coefficient": self.keff_coefficient,
            "energy": self.energy,
            "kepler1": self.kepler1,
            "kepler2": self.kepler2,
        }


def _unit_diagonal(block: list) -> list:
    """D^-1/2 B D^-1/2 with D = |diag B|: a symmetric block scaled to a unit diagonal.

    `block` is a 4x4 matrix as 16 floats, row by row, and so is the result; a
    diagonal entry that is not > 0 scales by 1.  By Sylvester's law of inertia
    its eigenvalues have the signs of B's own, but a small eigenvalue next to
    entries some u^-6 larger keeps its sign in float64 (Demmel & Veselic, SIAM
    J. Matrix Anal. Appl. 13, 1992).
    """
    r = [1.0 / math.sqrt(d) if d > 0 else 1.0 for d in (abs(block[k]) for k in (0, 5, 10, 15))]
    return [b * (r[k // 4] * r[k % 4]) for k, b in enumerate(block)]


def _classify(vq_scaled_eigs, kin_scaled_eigs) -> str:
    """Class by the signs of the eigenvalues of the two `_unit_diagonal` blocks."""
    if not all(e > 0 for e in vq_scaled_eigs):
        return "saddle"
    return "minimum" if all(e > 0 for e in kin_scaled_eigs) else "indefinite-K"


def frequencies(masses: MassTriple, q, mu1: float, mu2: float):
    """(omega1, omega2) = mu_i / I_i with the solvability-simplified inertia.

    omega1 = mu1/(nu2 q4^2 + nu1 q2^2), omega2 = mu2/(nu1 q1^2 + nu2 q3^2);
    also returns the Kepler diagnostics omega1^2 q4^3 / M and
    omega2^2 q1^3 / (m2 + m3), both -> 1 in the small-mu2 limit.
    """
    nu1, nu2 = masses.nu1, masses.nu2
    om1 = mu1 / (nu2 * q[3] ** 2 + nu1 * q[1] ** 2)
    om2 = mu2 / (nu1 * q[0] ** 2 + nu2 * q[2] ** 2)
    kep1 = om1 ** 2 * q[3] ** 3 / masses.total
    kep2 = om2 ** 2 * q[0] ** 3 / (masses.m2 + masses.m3)
    return om1, om2, kep1, kep2


def _build_report(masses: MassTriple, q, mu1: float, mu2: float,
                  kernel=None) -> EquilibriumReport:
    """The report at q; `kernel` is effective_potential_kernel at q, if known.

    Plain floats summed in numpy's order, so each field keeps the numpy form's bits,
    around one batched eigvalsh call for the raw and scaled eigenvalues of both blocks.
    """
    q = np.asarray(q, dtype=float)
    ql = q.tolist()
    if kernel is None:
        kernel = effective_potential_kernel(masses, ql, mu1, mu2)
    energy, grad, hess_v = kernel
    # the momentum block, the Hessian of H in p at p = 0: diag(1/nu) + 2 gamma v v^t
    # with v = dL3/dp; an off-diagonal entry is 0.0 + ..., so -0.0 comes out 0.0
    gamma = keff_correction(masses, ql, mu1, mu2)
    g2, v = 2 * gamma, (-ql[1], ql[0], -ql[3], ql[2])
    inv_nu = (1 / masses.nu1, 1 / masses.nu1, 1 / masses.nu2, 1 / masses.nu2)
    kin = [(inv_nu[i] if i == j else 0.0) + g2 * (v[i] * v[j]) for i in range(4) for j in range(4)]
    vq = [x for row in hess_v for x in row]
    if not all(map(math.isfinite, vq + kin)):
        raise DegenerateHessian("Hessian of the reduced Hamiltonian not finite")
    blocks = np.array(vq + kin + _unit_diagonal(vq) + _unit_diagonal(kin)).reshape(4, 4, 4)
    eigs = np.linalg.eigvalsh(blocks)
    # the 8x8 Hessian of the reduced Hamiltonian at (q, p = 0) is block diagonal
    hess = np.zeros((8, 8))
    hess[0:4, 0:4] = blocks[0]
    hess[4:8, 4:8] = blocks[1]
    om1, om2, kep1, kep2 = frequencies(masses, ql, mu1, mu2)
    return EquilibriumReport(
        q=q, mu1=mu1, mu2=mu2, masses=masses, hessian=hess,
        eigenvalues=eigs[0:2].ravel(),
        classification=_classify(*eigs[2:4].tolist()),
        omega1=om1, omega2=om2, h=(mu1 + mu2) ** 2 * energy,
        b=mu1 * mu2 / (mu1 + mu2) ** 2,
        gradient_norm=float(np.linalg.norm(grad)),
        keff_coefficient=gamma,
        energy=energy, kepler1=kep1, kepler2=kep2,
    )


# --- isosceles family (m2 = m3 = m) ------------------------------------------

def rho_from_t(t: float) -> float:
    return 4.0 * t / (1.0 - t * t)


def _check_mass_ratio(n: float) -> None:
    if not n > 0:
        raise ValueError(f"mass ratio n must be positive, got {n}")


def isosceles_momenta(n: float, t: float, m: float = 1.0,
                      q4: float = 1.0) -> tuple[float, float, float]:
    """(mu1^2, mu2^2, q1) solving the two isosceles equilibrium conditions.

    m^2/q1^2 + 4 m m1 q1 (q1^2+4 q4^2)^(-3/2) = mu2^2/(nu1 q1^3),
    16 m m1 q4 (q1^2+4 q4^2)^(-3/2) = mu1^2/(nu2 q4^3).
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"shape parameter t must be in (0, 1), got {t}")
    _check_mass_ratio(n)
    m1 = n * m
    nu1 = m / 2.0
    nu2 = 2.0 * m * m1 / (2.0 * m + m1)
    q1 = rho_from_t(t) * q4
    q1sq = q1 * q1
    r32 = (q1sq + 4.0 * q4 * q4) ** 1.5
    # where q1^2 underflows, mu2^2 is 0 * inf or (at q1^2 = 0) NaN: refused like mu^2 <= 0
    mu2sq = nu1 * q1 ** 3 * (m * m / q1sq + 4.0 * m * m1 * q1 / r32) if q1sq else math.nan
    mu1sq = 16.0 * m * m1 * nu2 * q4 ** 4 / r32
    if not (mu1sq > 0.0 and mu2sq > 0.0):
        raise NoRealMomenta(f"mu^2 = ({mu1sq}, {mu2sq}) not positive")
    return mu1sq, mu2sq, q1


def isosceles_equilibrium(n: float, t: float, m: float = 1.0,
                          q4: float = 1.0) -> EquilibriumReport:
    """Isosceles relative equilibrium for m2 = m3 = m, normalised to q4.

    q2 = q3 = 0, p = 0; mu_i^2 are rational in (n, t) up to the m^3 q4
    scaling.  Note mu1 > mu2 only holds below the P2 = 0 curve; above it the
    report still describes the critical point but with the labels swapped
    into mu1 < mu2 (the Hessian formulas stay valid as written).
    """
    mu1sq, mu2sq, q1 = isosceles_momenta(n, t, m, q4)
    masses = MassTriple(n * m, m, m)
    q = np.array([q1, 0.0, 0.0, q4])
    return _build_report(masses, q, math.sqrt(mu1sq), math.sqrt(mu2sq))


def isosceles_hessian_blocks(n: float, t: float):
    """The three 2x2 blocks of the Hessian plus the explicit 1/nu eigenvalues.

    Returns (q23_block, q14_block, p23_block, 1/nu1, 1/nu2) in the variable
    pairs (q2,q3), (q1,q4), (p2,p3), in the m = q4 = 1 scale; the remaining
    directions p1, p4 are eigenvectors with eigenvalues 1/nu1, 1/nu2.
    """
    m = q4 = 1.0
    mu1sq, mu2sq, q1 = isosceles_momenta(n, t, m, q4)
    m1 = n * m
    nu1 = m / 2.0
    nu2 = 2.0 * m * m1 / (2.0 * m + m1)
    r = q1 * q1 + 4.0 * q4 * q4
    r52 = r ** 2.5

    q23 = np.empty((2, 2))
    q23[0, 0] = mu2sq / (nu2 * q1 ** 2 * q4 ** 2) + m * m / q1 ** 3 \
        + 4 * m * m1 * (q1 ** 2 - 8 * q4 ** 2) / r52
    q23[0, 1] = mu1sq / (nu2 * q1 * q4 ** 3) + mu2sq / (nu1 * q1 ** 3 * q4) \
        - 48 * m * m1 * q1 * q4 / r52
    q23[1, 0] = q23[0, 1]
    q23[1, 1] = mu1sq / (nu1 * q1 ** 2 * q4 ** 2) \
        - 32 * m * m1 * (q1 ** 2 - 2 * q4 ** 2) / r52

    q14 = np.empty((2, 2))
    q14[0, 0] = 3 * mu2sq / (nu1 * q1 ** 4) - 2 * m * m / q1 ** 3 \
        - 8 * m * m1 * (q1 ** 2 - 2 * q4 ** 2) / r52
    q14[0, 1] = -48 * m * m1 * q1 * q4 / r52
    q14[1, 0] = q14[0, 1]
    q14[1, 1] = 3 * mu1sq / (nu2 * q4 ** 4) \
        + 16 * m * m1 * (q1 ** 2 - 8 * q4 ** 2) / r52

    p23 = np.empty((2, 2))
    dmu = mu1sq - mu2sq
    p23[0, 0] = mu1sq * (1 / nu1 - q1 ** 2 / (nu2 * q4 ** 2)) / dmu
    p23[0, 1] = (mu1sq * q1 / (nu2 * q4) - mu2sq * q4 / (nu1 * q1)) / dmu
    p23[1, 0] = p23[0, 1]
    p23[1, 1] = mu2sq * (q4 ** 2 / (nu1 * q1 ** 2) - 1 / nu2) / dmu

    return q23, q14, p23, 1.0 / nu1, 1.0 / nu2


def isosceles_eigenvalue_series(n: float, t: float) -> dict:
    """Leading small-t expansions of the block eigenvalues (m = q4 = 1 scale).

    The q-blocks are scaled by m^2/q4^3 and the (p2,p3) block by 1/m.
    """
    return {
        "q23": (n * n / ((2 * n + 4) * t * t) - 1 / (4 * t)
                - 2 * (7 * n * n + 2 * n) / (n + 2),
                1 / (64 * t ** 3) + (17 / 64 + 1 / (8 * n)) / t
                + (11 * n * n + 6 * n) / (n + 2)),
        "q14": (1 / (64 * t ** 3) - 3 / (64 * t) + 2 * n,
                2 * n + 12 * n * t * t),
        "p23": (2 - 8 * (3 * n - 2) * t * t / n,
                (n + 2) / (16 * n * n * t) + (n + 2) ** 2 / (32 * n ** 4)),
    }


def isosceles_frequency_ratio_sq(n: float, t: float) -> float:
    """(omega2/omega1)^2 = ((1+t^2)^3 + 32 n t^3) / (32 (2+n) t^3)."""
    return ((1 + t * t) ** 3 + 32 * n * t ** 3) / (32 * (2 + n) * t ** 3)


def stability_polynomials(n: float, t: float) -> tuple[float, float]:
    """(P1, P2): sign carriers for the (q2,q3)-block and for mu1^2 - mu2^2.

    P1 = 32 t^3 (3n(t^4-6t^2+1) + 2(t^4-10t^2+1)) - (t^2+1)^5
    P2 = 2 n^2 (t^4-6t^2+1)(t^2+1)^2 - n t (64t^3 + (t^2+1)^3) - 2t(t^2+1)^3
    """
    t2 = t * t
    p1 = 32 * t ** 3 * (3 * n * (t2 * t2 - 6 * t2 + 1)
                        + 2 * (t2 * t2 - 10 * t2 + 1)) - (t2 + 1) ** 5
    p2 = 2 * n * n * (t2 * t2 - 6 * t2 + 1) * (t2 + 1) ** 2 \
        - n * t * (64 * t ** 3 + (t2 + 1) ** 3) - 2 * t * (t2 + 1) ** 3
    return p1, p2


@dataclass(frozen=True)
class RegionLabel:
    p1: float             # the stability polynomials at (n, t)
    p2: float
    name: str
    minimum: bool         # all eight Hessian eigenvalues positive
    adjacent_to_n_axis: bool  # the canonical mu1 > mu2 minimum region
    boundary: bool


def region_classification(n: float, t: float) -> RegionLabel:
    """Region of the (n, t) quadrant by the signs of P1, P2 and t - (2-sqrt 3).

    sign(P2) tracks sign(mu1^2 - mu2^2).  The (q2,q3)-block is positive
    definite iff sign(P2) * P1 < 0 (P1 -> -1 as t -> 0, where all
    eigenvalues are positive) and the (p2,p3)-block iff
    sign(P2) * ((2 - sqrt 3) - t) > 0.  `minimum` marks an all-positive
    Hessian; `adjacent_to_n_axis` additionally requires mu1 > mu2, which
    singles out the strip along the n-axis.  A point where |P1|, |P2| or
    |t - (2 - sqrt 3)| is below 1e-6 is named `boundary`.
    """
    p1, p2 = stability_polynomials(n, t)
    dt = EQUILATERAL_T - t
    boundary = abs(p1) < 1e-6 or abs(p2) < 1e-6 or abs(dt) < 1e-6
    s1 = 1 if p1 > 0 else -1
    s2 = 1 if p2 > 0 else -1
    st = 1 if dt > 0 else -1
    minimum = (s2 * s1 < 0 and s2 * st > 0)
    name = "boundary" if boundary else \
        f"P1{'+' if s1 > 0 else '-'}P2{'+' if s2 > 0 else '-'}T{'+' if st > 0 else '-'}"
    return RegionLabel(p1, p2, name, minimum, minimum and s2 > 0, boundary)


def predicted_negative_count(n: float, t: float) -> int:
    """Negative Hessian eigenvalues predicted from P1, P2 and the t-line.

    The (q1,q4) block and the p1, p4 directions are always positive; the
    (q2,q3) block contributes one negative eigenvalue when
    sign(mu1^2-mu2^2) * P1 > 0 and the (p2,p3) block one when
    sign(mu1^2-mu2^2) * ((2-sqrt 3) - t) < 0.
    """
    p1, p2 = stability_polynomials(n, t)
    s = 1.0 if p2 > 0 else -1.0
    neg = 0
    if s * p1 > 0:
        neg += 1
    if s * (EQUILATERAL_T - t) < 0:
        neg += 1
    return neg


# --- general masses -----------------------------------------------------------

def solvability_residual(masses: MassTriple, q) -> float:
    """q1 q2 nu1 + q3 q4 nu2; vanishes at every critical point of V_eff."""
    q1, q2, q3, q4 = np.asarray(q, dtype=float).tolist()
    return q1 * q2 * masses.nu1 + q3 * q4 * masses.nu2


@dataclass(frozen=True)
class SeriesSeed:
    q: np.ndarray
    mu1: float
    mu2: float
    u: float
    kappa: float


def expansion_parameters(masses: MassTriple, mu1: float, mu2: float):
    """(kappa, u) for the small-momentum expansion; u is dimensionless."""
    kappa = masses.total / (masses.m1 ** 2 * (masses.m2 + masses.m3) ** 2)
    mu = mu2 / mu1
    u = mu / (masses.m2 * masses.m3 * math.sqrt(kappa / (masses.m2 + masses.m3)))
    return kappa, u


def general_series_equilibrium(masses: MassTriple, u: float) -> SeriesSeed:
    """Power-series equilibrium location for small u.

    Series through orders u^8 (q1), u^14 (q2), u^16 (q3), u^4 (q4), scaled by
    kappa mu1^2, with mu1 normalised to kappa mu1^2 = 1.
    """
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    msum = m2 + m3
    den = m1 ** 2 * msum ** 2
    if not den > 0.0:
        raise DegenerateMomenta(f"m1^2 (m2 + m3)^2 underflows to 0 for masses {(m1, m2, m3)}")
    if den == math.inf:
        raise DegenerateMomenta(f"m1^2 (m2 + m3)^2 overflows for masses {(m1, m2, m3)}")
    kappa = masses.total / den
    mu1 = 1.0 / math.sqrt(kappa)
    mu = u * m2 * m3 * math.sqrt(kappa / msum)
    scale = kappa * mu1 * mu1
    u2 = u * u
    u4 = u2 * u2
    q1 = u2 - m1 / msum * u4 * u4
    q2 = (3 * u4 * u4 * u2 * m1 * (m2 - m3) / (2 * msum ** 2)) \
        * (1 - u4 * (5 * m2 * m2 + 24 * m2 * m3 + 5 * m3 * m3) / (4 * msum ** 2))
    q3 = (-3 * u4 * u4 * u4 * masses.total * m2 * m3 * (m2 - m3) / (2 * msum ** 4)) \
        * (1 - 5 * u4 * (m2 * m2 + 6 * m2 * m3 + m3 * m3) / (4 * msum ** 2))
    q4 = 1 + 3 * u4 * m2 * m3 / (2 * msum ** 2)
    return SeriesSeed(q=scale * np.array([q1, q2, q3, q4]),
                      mu1=mu1, mu2=mu * mu1, u=u, kappa=kappa)


def general_hessian_eigen_asymptotics(masses: MassTriple, u: float) -> np.ndarray:
    """Four predicted eigenvalues of the V_eff Hessian, scaled by m2 m3/q4^3.

    Laurent expansions in u, ordered from the O(1) eigenvalue up to the two
    1/u^6 ones.
    """
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    msum = m2 + m3
    u2 = u * u
    lam1 = m1 * msum / (m2 * m3)
    lam2 = m1 ** 2 * msum ** 3 / (m2 ** 2 * m3 ** 2 * masses.total * u2 * u2) \
        - 1.0 / u2
    lam3 = 1.0 / u2 ** 3 + (1 + 11 * m2 * m3 / (2 * msum ** 2)
                            + m2 * m3 / (m1 * msum)) / u2
    lam4 = 1.0 / u2 ** 3 + 9 * m2 * m3 / (2 * msum ** 2 * u2) + 7 * m1 / msum
    return np.array([lam1, lam2, lam3, lam4])


# accepted Decimal digits of the high-precision Newton.  Its stopping test
# max|grad| < 10^-(dps - 15) x `_gradient_scale` is finer than double
# precision only above 30 digits.  One solve took at most 0.45 s at 2000
# digits, 1.3 s at 5000 and 23 s at 20000 (masses in [0.5, 2.5], u down to
# 3e-5, one core of a 2-vCPU Xeon); at 60 digits it takes about 0.6 ms.
DPS_MIN, DPS_MAX = 31, 2000

# Newton steps before a solve is reported as NoConvergence
NEWTON_MAX_STEPS = 60


def _check_dps(dps) -> None:
    if not (isinstance(dps, numbers.Integral) and DPS_MIN <= dps <= DPS_MAX):
        raise ValueError(f"dps must be in [{DPS_MIN}, {DPS_MAX}] and an integer, got {dps}")


def newton_equilibrium(masses: MassTriple, mu1: float, mu2: float, seed,
                       dps: Optional[int] = None) -> EquilibriumReport:
    """Newton refinement of a relative equilibrium from a seed.

    Newton's method on the V_eff gradient with the analytic V_eff Hessian as
    its Jacobian (`_newton`).  On floats it stops at 16 units of rounding of
    the gradient's summands, so a seed already at that floor, as the
    power-series seed is at small u, comes back unchanged; the report reuses
    the kernel values of the last iterate.  With `dps` set (an integer in
    [DPS_MIN, DPS_MAX], else ValueError) the same solve runs on `dps`-digit
    Decimals, which is what resolves the q2, q3 components (of order u^10,
    u^12) below double precision; the float inputs convert to Decimal
    exactly and the root is rounded back to floats.
    """
    reduction.check_momenta(mu1, mu2)
    q = np.asarray(seed, dtype=float).tolist()
    if dps is None:
        q, value, grad, terms = _newton(masses, mu1, mu2, q, 16 * 2.0 ** -52, 2.0 ** -52)
        kernel = value, grad, _veff_hessian(terms)
    else:
        _check_dps(dps)
        dps = int(dps)  # a numpy integer does not mix with Decimal
        with localcontext(Context(prec=dps)):
            mm = MassTriple(Decimal(masses.m1), Decimal(masses.m2), Decimal(masses.m3))
            q = _newton(mm, Decimal(mu1), Decimal(mu2), [Decimal(v) for v in q],
                        Decimal(10) ** (15 - dps), Decimal(10) ** -dps)[0]
        q, kernel = [float(v) for v in q], None
    report = _build_report(masses, q, mu1, mu2, kernel)
    hdet = abs(np.linalg.det(report.hessian[0:4, 0:4]))
    if hdet < 1e-300:
        raise DegenerateHessian("V_eff Hessian determinant below tolerance")
    return report


def _gauss_solve(a, b, eps):
    """x with a x = b, by Gaussian elimination with partial pivoting.

    `a` is a square nested list and `b` a list of plain scalars (floats,
    mpmath numbers or Decimals); neither is changed.  A pivot no larger
    than eps times the largest |a_ij| leaves the system singular at this
    precision, which is a failed Newton step: NoConvergence.
    """
    n = len(b)
    m = [list(row) + [bi] for row, bi in zip(a, b)]
    tiny = eps * max(abs(v) for row in a for v in row)
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(m[i][j]))
        if not abs(m[p][j]) > tiny:
            raise NoConvergence("singular Newton system")
        m[j], m[p] = m[p], m[j]
        pivot = m[j]
        for row in m[j + 1:]:
            f = row[j] / pivot[j]
            for k in range(j + 1, n + 1):
                row[k] -= f * pivot[k]
    x = [None] * n
    for i in range(n - 1, -1, -1):
        s = m[i][n]
        for k in range(i + 1, n):
            s -= m[i][k] * x[k]
        x[i] = s / m[i][i]
    return x


def _newton(masses, mu1, mu2, q, tol, eps):
    """Newton on the exact V_eff gradient; returns q and (V_eff, gradient, terms) at q.

    One body for floats and Decimals: `masses`, `mu1`, `mu2` and the list
    `q` are of one number type, and a Decimal solve runs inside its
    context.  The simplified equations have spurious roots that deviate
    from the critical point at the q2, q3 orders (they violate the
    solvability identity), so the raw gradient is the residual.  The
    Jacobian is the analytic V_eff Hessian of the same kernel, computed
    only where a step is taken, and each step is one `_gauss_solve` with
    pivot bound `eps`.  It stops when max|grad| falls below `tol` times
    `_gradient_scale` at the current iterate, a bound the working precision
    can meet even where the gradient's summands are of order u^-6; a bound
    fixed at the seed would pass iterates that run off to large |q|, where
    the gradient decays with its summands.  The test comes before the
    first step too: a step from a point at that floor moves it by rounding
    noise alone.
    """
    value, grad, terms = _veff_value_gradient(masses, q, mu1, mu2)
    steps = 0
    while not max(abs(g) for g in grad) < tol * _gradient_scale(terms):
        if steps == NEWTON_MAX_STEPS:
            raise NoConvergence(f"Newton did not reach {tol} relative to the gradient's "
                                f"terms in {NEWTON_MAX_STEPS} steps")
        dq = _gauss_solve(_veff_hessian(terms), [-g for g in grad], eps)
        q = [qi + dqi for qi, dqi in zip(q, dq)]
        value, grad, terms = _veff_value_gradient(masses, q, mu1, mu2)
        steps += 1
    return q, value, grad, terms


def _gradient_scale(terms):
    """The size of the summands that cancel in the V_eff gradient.

    For each component, |dnum_i / den2| + |e1 dA/dq_i| + |ds/dq_i . (V1, V2, V3)|,
    and the largest of the four.  Near the collision limit these are of
    order u^-6 while the gradient is a difference of them, so its rounding
    floor scales with this, not with 1.
    """
    dnum, da, den2, e1 = terms[6], terms[7], terms[8], terms[10]
    v1, v2, v3, js = terms[13:]
    return max(abs(dnum[i] / den2) + abs(e1 * da[i]) + abs(j0 * v1 + j1 * v2 + j2 * v3)
               for i, (j0, j1, j2) in enumerate(js))


# --- energy-momentum scans ----------------------------------------------------

@dataclass
class ScanRow:
    param: float
    mu1: float = math.nan
    mu2: float = math.nan
    h: float = math.nan
    b: float = math.nan
    neg_inv_h: float = math.nan
    classification: str = "error"
    eigenvalues: np.ndarray = field(default_factory=lambda: np.full(8, math.nan))
    error: Optional[str] = None


@dataclass
class ScanTable:
    rows: list

    HEADER = ["param", "mu1", "mu2", "h", "b", "neg_inv_h", "class"] \
        + [f"eig{i}" for i in range(1, 9)]

    def to_csv(self, fh):
        fh.write(",".join(self.HEADER) + "\n")
        for r in self.rows:
            vals = [f"{r.param:.17g}", f"{r.mu1:.17g}", f"{r.mu2:.17g}",
                    f"{r.h:.17g}", f"{r.b:.17g}", f"{r.neg_inv_h:.17g}",
                    r.classification] + [f"{e:.17g}" for e in r.eigenvalues]
            fh.write(",".join(vals) + "\n")

    def to_json(self, fh):
        import json
        obj = [{
            "param": r.param, "mu1": r.mu1, "mu2": r.mu2, "h": r.h, "b": r.b,
            "neg_inv_h": r.neg_inv_h, "class": r.classification,
            "eigenvalues": [float(e) for e in r.eigenvalues],
            "error": r.error,
        } for r in self.rows]
        json.dump(obj, fh)


def _scan_point(param: float, solve, *args) -> ScanRow:
    """The row of solve(*args) at `param`, or an error row when the solve fails."""
    try:
        rep = solve(*args)
    except (SolverFailure, ValueError) as exc:
        return ScanRow(param=param, error=str(exc))
    return ScanRow(param=param, mu1=rep.mu1, mu2=rep.mu2, h=rep.h, b=rep.b,
                   neg_inv_h=-1.0 / rep.h, classification=rep.classification,
                   eigenvalues=rep.eigenvalues)


def isosceles_scan(n: float, t_grid) -> ScanTable:
    """Energy-momentum data of the isosceles family over a t grid.

    Per-point failures are recorded in the row and the scan continues.  A
    bad mass ratio `n` is shared by every point, so it raises ValueError at
    once.
    """
    _check_mass_ratio(n)
    return ScanTable([_scan_point(float(t), isosceles_equilibrium, n, float(t))
                      for t in t_grid])


def general_scan(masses: MassTriple, u_grid, pair: tuple[int, int] = (2, 3),
                 dps: Optional[int] = None) -> ScanTable:
    """Energy-momentum data of a general-mass family over a u grid.

    `pair` names the binary (which bodies collide as u -> 0); the masses are
    permuted accordingly before solving.  A `dps` outside [DPS_MIN, DPS_MAX]
    is shared by every point, so it raises ValueError at once.
    """
    if dps is not None:
        _check_dps(dps)
    mm = masses.permuted(pair)

    def solve(u):
        seed = general_series_equilibrium(mm, u)
        return newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q, dps=dps)
    return ScanTable([_scan_point(float(u), solve, float(u)) for u in u_grid])
