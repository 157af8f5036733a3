"""Rotation reduction: the SO(4) chart, partial and fully reduced Hamiltonians.

The chart writes x1 = M (q1,q2,0,0)^t, x2 = M (q3,q4,0,0)^t with
M = exp(B12 th1) exp(B34 th2) exp(B13 ps1) exp(B24 ps2), and extends this to
phase space by cotangent lift.  Two conserved momenta p_theta1, p_theta2
appear (the theta angles are cyclic), and on the invariant set where the
angular momentum tensor takes its normal form the system restricts to a
4-degree-of-freedom Hamiltonian in (q, p) alone.

Conventions fixed here (they make all the cross checks in the test suite
close to machine precision):

* the momenta conjugate to theta satisfy L_12 = -p_theta1, L_34 = -p_theta2
  identically, so on the invariant set with p_theta = (mu1, mu2) the space
  angular momentum is -(mu1 B12 + mu2 B34);
* the invariant set is cut out by p_psi1 = p_psi2 = 0 together with
  Sigma cos(delta) + L3 = 0 and Delta cos(sigma) + L3 = 0, where
  sigma = psi1 + psi2, delta = psi1 - psi2, Sigma = mu1 + mu2,
  Delta = mu1 - mu2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ChartSingular,
    DegenerateMomenta,
    DegeneratePlane,
    KineticDomainError,
)
from .model import (
    AREA_TOL,
    FullState,
    MassTriple,
    angular_momentum_components,
    full_to_array,
    potential_partials,
)

# chart-validity floors: AREA_TOL (from `model`) on |A|, PSI_TOL on the angles
PSI_TOL = 1e-10


def oriented_area(q) -> float:
    """A = (q1 q4 - q2 q3)/2, the oriented area of the configuration q."""
    return _chart_area(q, 0)


def _chart_area(q, tol=AREA_TOL):
    """A of q[0:4], or ChartSingular when |A| < tol: the chart's area floor.

    `tol` is in the number type of q (`potential_constants[-1]` on
    Decimals), so the comparison mixes in no float; 0 is no floor.
    """
    area = (q[0] * q[3] - q[1] * q[2]) / 2
    if abs(area) < tol:
        raise ChartSingular(f"oriented area A = {area} too small")
    return area


def _chart_e(cos2a, cos2b):
    """e = cos 2psi1 - cos 2psi2, or ChartSingular when |e| < PSI_TOL: the chart's angle floor."""
    e = cos2a - cos2b
    if abs(e) < PSI_TOL:
        raise ChartSingular("cos(2 psi1) == cos(2 psi2)")
    return e


def momentum_l3(q, p) -> float:
    """L3 = q1 p2 - q2 p1 + q3 p4 - q4 p3."""
    return q[0] * p[1] - q[1] * p[0] + q[2] * p[3] - q[3] * p[2]


@dataclass(frozen=True)
class RotationAngles:
    """The four angles of the rotation factor M = M_theta * M_psi."""

    psi1: float
    psi2: float
    theta1: float = 0.0
    theta2: float = 0.0

    @property
    def sigma(self) -> float:
        return self.psi1 + self.psi2

    @property
    def delta(self) -> float:
        return self.psi1 - self.psi2

    def require_valid(self):
        _chart_e(math.cos(2 * self.psi1), math.cos(2 * self.psi2))


@dataclass(frozen=True)
class PartialState:
    """Point of the partially reduced system: (q, p, angles, p_psi, p_theta)."""

    q: np.ndarray
    p: np.ndarray
    angles: RotationAngles
    p_psi: np.ndarray
    p_theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "p_psi", np.asarray(self.p_psi, dtype=float))
        object.__setattr__(self, "p_theta", np.asarray(self.p_theta, dtype=float))

    @property
    def area(self) -> float:
        return oriented_area(self.q)

    @property
    def l3(self) -> float:
        # on Python floats, an overflowing product is inf without numpy's warning
        return momentum_l3(self.q.tolist(), self.p.tolist())

    @property
    def sigma_momentum(self) -> float:
        return float(self.p_theta[0] + self.p_theta[1])

    @property
    def delta_momentum(self) -> float:
        return float(self.p_theta[0] - self.p_theta[1])


def check_momenta(mu1: float, mu2: float) -> None:
    """Raise unless mu1 > mu2 >= 0, the domain of the reduced system."""
    if not (math.isfinite(mu1) and math.isfinite(mu2)):
        raise ValueError(f"momenta must be finite, got ({mu1}, {mu2})")
    if mu2 < 0:
        raise ValueError(f"mu2 must be >= 0, got {mu2}")
    if mu1 <= mu2:
        raise DegenerateMomenta(f"need mu1 > mu2, got ({mu1}, {mu2})")


@dataclass(frozen=True)
class ReducedState:
    """Point of the fully reduced system with fixed momenta mu1 > mu2 >= 0."""

    q: np.ndarray
    p: np.ndarray
    mu1: float
    mu2: float

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        check_momenta(self.mu1, self.mu2)

    @property
    def area(self) -> float:
        return oriented_area(self.q)

    @property
    def l3(self) -> float:
        # on Python floats, an overflowing product is inf without numpy's warning
        return momentum_l3(self.q.tolist(), self.p.tolist())


def _lift_momenta(q, l3, p_theta, p_psi, psi1, psi2):
    """(u1, u2, u3, u4), the last two components of M^t y1 and M^t y2 in the lift.

    u1 = q3 B - q4 p_psi1/(2A), u2 = -q4 C + q3 p_psi2/(2A),
    u3 = -q1 B + q2 p_psi1/(2A), u4 = q2 C - q1 p_psi2/(2A), with B = nb/den,
    C = nc/den linear in the momenta and den = 2 A (cos 2psi1 - cos 2psi2).
    """
    area = _chart_area(q)
    den = 2.0 * area * _chart_e(math.cos(2 * psi1), math.cos(2 * psi2))
    s1, c1 = math.sin(psi1), math.cos(psi1)
    s2, c2 = math.sin(psi2), math.cos(psi2)
    b = (l3 * math.sin(2 * psi1) + 2.0 * (p_theta[0] * s1 * c2 + p_theta[1] * c1 * s2)) / den
    c = (l3 * math.sin(2 * psi2) + 2.0 * (p_theta[0] * c1 * s2 + p_theta[1] * s1 * c2)) / den
    pp1, pp2 = p_psi
    inv2a = 0.5 / area
    return (q[2] * b - q[3] * pp1 * inv2a,
            -q[3] * c + q[2] * pp2 * inv2a,
            -q[0] * b + q[1] * pp1 * inv2a,
            q[1] * c - q[0] * pp2 * inv2a)


def lift_kernel(z) -> list:
    """The cotangent lift on plain floats: the 16 chart values -> (x1, x2, y1, y2).

    `z` holds the 16 floats in the order of `partial_to_array`; the values
    come back in the order of `full_to_array`.  x1 = M (q1, q2, 0, 0),
    x2 = M (q3, q4, 0, 0), y1 = M (p1, p2, u1, u2), y2 = M (p3, p4, u3, u4)
    with u from `_lift_momenta`; each vector is turned by M_psi and then by
    M_theta, one plane at a time.  `inverse_chart` is its inverse.
    """
    (q1, q2, q3, q4, psi1, psi2, theta1, theta2,
     p1, p2, p3, p4, pp1, pp2, pt1, pt2) = z
    l3 = q1 * p2 - q2 * p1 + q3 * p4 - q4 * p3
    u1, u2, u3, u4 = _lift_momenta((q1, q2, q3, q4), l3, (pt1, pt2), (pp1, pp2),
                                   psi1, psi2)
    cp1, sp1 = math.cos(psi1), math.sin(psi1)
    cp2, sp2 = math.cos(psi2), math.sin(psi2)
    ct1, st1 = math.cos(theta1), math.sin(theta1)
    ct2, st2 = math.cos(theta2), math.sin(theta2)

    def rotate(v0, v1, v2, v3):
        # exp(B_ij t) sends (v_i, v_j) to (c v_i + s v_j, -s v_i + c v_j)
        v0, v2 = cp1 * v0 + sp1 * v2, -sp1 * v0 + cp1 * v2
        v1, v3 = cp2 * v1 + sp2 * v3, -sp2 * v1 + cp2 * v3
        v0, v1 = ct1 * v0 + st1 * v1, -st1 * v0 + ct1 * v1
        v2, v3 = ct2 * v2 + st2 * v3, -st2 * v2 + ct2 * v3
        # + 0.0 turns -0.0 into 0.0: a matrix product summed up from 0.0
        # never gives -0.0, and the lift's zeros keep that sign
        return [v0 + 0.0, v1 + 0.0, v2 + 0.0, v3 + 0.0]

    return (rotate(q1, q2, 0.0, 0.0) + rotate(q3, q4, 0.0, 0.0)
            + rotate(p1, p2, u1, u2) + rotate(p3, p4, u3, u4))


def lift_to_full(partial: PartialState) -> FullState:
    """Chart point -> (x1, x2, y1, y2); the exact cotangent lift, by `lift_kernel`."""
    z = lift_kernel(partial_to_array(partial).tolist())
    return FullState(z[0:4], z[4:8], z[8:12], z[12:16])


def configuration_jacobian_det(partial: PartialState) -> float:
    """det U = 2 A^2 (cos 2psi1 - cos 2psi2), in closed form.

    U is the 8x8 factor with d(x1,x2)/d(q,psi,theta) = diag(M,M) U.
    """
    a = partial.area
    return 2.0 * a * a * (math.cos(2 * partial.angles.psi1)
                          - math.cos(2 * partial.angles.psi2))


def lift_jacobian(partial: PartialState) -> np.ndarray:
    """Richardson-extrapolated 16x16 Jacobian of the lift, O(h^4) at h = 1e-4 max(1, |z_k|).

    Row order (x1, x2, y1, y2); column order
    (q1..q4, psi1, psi2, theta1, theta2, p1..p4, p_psi1, p_psi2, p_th1, p_th2).
    """
    base = partial_to_array(partial).tolist()

    def column(k, hk):
        zp, zm = list(base), list(base)
        zp[k] += hk
        zm[k] -= hk
        return (np.array(lift_kernel(zp)) - np.array(lift_kernel(zm))) / (2.0 * hk)

    jac = np.zeros((16, 16))
    for k in range(16):
        hk = 1e-4 * max(1.0, abs(base[k]))
        jac[:, k] = (4.0 * column(k, hk / 2.0) - column(k, hk)) / 3.0
    return jac


def partial_to_array(partial: PartialState) -> np.ndarray:
    """(q, psi, theta, p, p_psi, p_theta) as a flat 16-vector."""
    ang = partial.angles
    return np.concatenate([
        partial.q,
        [ang.psi1, ang.psi2, ang.theta1, ang.theta2],
        partial.p,
        partial.p_psi,
        partial.p_theta,
    ])


def array_to_partial(z: np.ndarray) -> PartialState:
    z = np.asarray(z, dtype=float)
    return PartialState(
        q=z[0:4],
        p=z[8:12],
        angles=RotationAngles(z[4], z[5], z[6], z[7]),
        p_psi=z[12:14],
        p_theta=z[14:16],
    )


def inverse_chart(z) -> list:
    """Inverse chart on plain floats: (x1, x2, y1, y2) -> the 16 chart values.

    `z` holds the 16 floats of `full_to_array`; the values come back in the
    order of `partial_to_array`.  With R(t) = [[cos t, sin t], [-sin t, cos t]]
    (the convention of the elementary rotations), the block ratio of the
    configuration is G = -pbot ptop^-1 = R(theta2) diag(tan psi1, tan psi2)
    R(-theta1), a rotation-only SVD taken in closed form (Blinn, IEEE CG&A
    1996) with tan psi1 >= |tan psi2| and tan psi2 of the sign of det G.  The
    q are the rows of R(-theta1) ptop divided by cos psi, and the momenta
    follow from exact identities: p = first components of M^t y,
    p_theta = -(L_12, L_34) and p_psi = -(Lhat_13, Lhat_24) with
    Lhat = M_theta^t L M_theta.  The result is one of the finitely many chart
    preimages; `lift_kernel` maps it back onto the state.
    """
    (a0, a1, a2, a3, b0, b1, b2, b3,
     u0, u1, u2, u3, v0, v1, v2, v3) = z
    # the plane x1 ^ x2 in its components w_ij = x1_i x2_j - x1_j x2_i
    w01 = a0 * b1 - a1 * b0
    w02 = a0 * b2 - a2 * b0
    w03 = a0 * b3 - a3 * b0
    w12 = a1 * b2 - a2 * b1
    w13 = a1 * b3 - a3 * b1
    w23 = a2 * b3 - a3 * b2
    floor = AREA_TOL * max(math.sqrt(a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3)
                           * math.sqrt(b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3), 1e-30)
    if max(abs(w01), abs(w02), abs(w03), abs(w12), abs(w13), abs(w23)) < floor:
        raise DegeneratePlane("x1 and x2 are collinear (A = 0)")
    if abs(w01) < floor:
        raise ChartSingular("configuration orthogonal to the (1,2)-plane")
    # G = [[w12, -w02], [w13, -w03]] / w01 split into a rotation part (e, h)
    # and a reflection part (f, g) gives G = R(theta2) diag(tan1, tan2) R(-theta1)
    e = 0.5 * (w12 - w03) / w01
    f = 0.5 * (w12 + w03) / w01
    g = 0.5 * (w13 - w02) / w01
    h = 0.5 * (w13 + w02) / w01
    qq, rr = math.hypot(e, h), math.hypot(f, g)
    tan1, tan2 = qq + rr, qq - rr
    ang1, ang2 = math.atan2(g, f), math.atan2(h, e)
    theta1 = 0.5 * (ang2 - ang1)
    theta2 = -0.5 * (ang2 + ang1)
    ct1, st1 = math.cos(theta1), math.sin(theta1)
    ct2, st2 = math.cos(theta2), math.sin(theta2)
    sec1, sec2 = math.hypot(1.0, tan1), math.hypot(1.0, tan2)
    cp1, sp1 = 1.0 / sec1, tan1 / sec1
    cp2, sp2 = 1.0 / sec2, tan2 / sec2
    q1 = (ct1 * a0 - st1 * a1) * sec1
    q2 = (st1 * a0 + ct1 * a1) * sec2
    q3 = (ct1 * b0 - st1 * b1) * sec1
    q4 = (st1 * b0 + ct1 * b1) * sec2
    _chart_area((q1, q2, q3, q4))

    def momenta(y0, y1, y2, y3):
        # the first two components of M_psi^t M_theta^t y
        r0, r1 = ct1 * y0 - st1 * y1, st1 * y0 + ct1 * y1
        r2, r3 = ct2 * y2 - st2 * y3, st2 * y2 + ct2 * y3
        return cp1 * r0 - sp1 * r2, cp2 * r1 - sp2 * r3

    p1, p2 = momenta(u0, u1, u2, u3)
    p3, p4 = momenta(v0, v1, v2, v3)
    l12, l13, l14, l23, l24, l34 = angular_momentum_components(z)
    pp1 = -(ct1 * ct2 * l13 - ct1 * st2 * l14 - st1 * ct2 * l23 + st1 * st2 * l24)
    pp2 = -(st1 * st2 * l13 + st1 * ct2 * l14 + ct1 * st2 * l23 + ct1 * ct2 * l24)
    return [q1, q2, q3, q4, math.atan(tan1), math.atan(tan2), theta1, theta2,
            p1, p2, p3, p4, pp1, pp2, -l12, -l34]


def project_to_partial(state: FullState) -> PartialState:
    """Inverse chart: the chart point of `inverse_chart` as a PartialState."""
    return array_to_partial(inverse_chart(full_to_array(state).tolist()))


def chart_images(partial: PartialState) -> list[PartialState]:
    """Discrete chart symmetries: equivalent preimages of the same full state.

    Shifting psi_i by pi flips the sign of the corresponding q/p column;
    shifting both thetas by pi flips all q and p.  Used to align projected
    trajectories with a reference branch.
    """
    out = []
    ang = partial.angles
    for f1 in (False, True):
        for f2 in (False, True):
            for ft in (False, True):
                q = partial.q.copy()
                p = partial.p.copy()
                psi1, psi2 = ang.psi1, ang.psi2
                th1, th2 = ang.theta1, ang.theta2
                if f1:
                    psi1 += math.pi
                    q[0], q[2], p[0], p[2] = -q[0], -q[2], -p[0], -p[2]
                if f2:
                    psi2 += math.pi
                    q[1], q[3], p[1], p[3] = -q[1], -q[3], -p[1], -p[3]
                if ft:
                    th1 += math.pi
                    th2 += math.pi
                    q, p = -q, -p
                out.append(PartialState(q=q, p=p,
                                        angles=RotationAngles(psi1, psi2, th1, th2),
                                        p_psi=partial.p_psi.copy(),
                                        p_theta=partial.p_theta.copy()))
    return out


def aligned_deviation(values, qp) -> float:
    """min over the `chart_images` of `values` of max |(q, p) - qp|, on floats.

    `values` are 16 chart values in the order of `partial_to_array` and `qp`
    the 8 floats (q, p).  The eight images carry four sign patterns: one sign
    on the columns (q1, q3, p1, p3), flipped by psi1 + pi, and one on
    (q2, q4, p2, p4), flipped by psi2 + pi (theta + pi flips both).  So the
    minimum is the larger of the two column groups' minima over their sign,
    and it needs no image.
    """
    worst = 0.0
    for pairs in (((0, 0), (2, 2), (8, 4), (10, 6)), ((1, 1), (3, 3), (9, 5), (11, 7))):
        same = max(abs(values[i] - qp[j]) for i, j in pairs)
        flipped = max(abs(values[i] + qp[j]) for i, j in pairs)
        worst = max(worst, min(same, flipped))
    return worst


def partial_values_kernel(masses: Optional[MassTriple], mu1: float, mu2: float):
    """Kernel from the 16 chart values to (H, c1, c2, c3, c4) on plain floats.

    The values come as Python floats in the order of `partial_to_array`.  H
    is the partial Hamiltonian of `hamiltonian_partial`, its kinetic terms
    f~(q3, q4) = u1^2 + u2^2 and f~(q1, q2) = u3^2 + u4^2 from
    `_lift_momenta`, and (c1, c2, c3, c4) the invariant-set residual of
    `invariant_set_residual` for p_theta = (mu1, mu2).  Without `masses` the
    kernel returns H = None and checks no chart condition.  The partial
    monitors call it once per sample.
    """
    if masses is not None:
        two_nu1, two_nu2 = 2.0 * masses.nu1, 2.0 * masses.nu2
        kv = masses.potential_constants
    sum_mu, diff_mu = mu1 + mu2, mu1 - mu2

    def values(z):
        (q1, q2, q3, q4, psi1, psi2, _, _,
         p1, p2, p3, p4, pp1, pp2, pt1, pt2) = z
        l3 = q1 * p2 - q2 * p1 + q3 * p4 - q4 * p3
        c3 = sum_mu * math.cos(psi1 - psi2) + l3
        c4 = diff_mu * math.cos(psi1 + psi2) + l3
        if masses is None:
            return None, pp1, pp2, c3, c4
        u1, u2, u3, u4 = _lift_momenta((q1, q2, q3, q4), l3, (pt1, pt2), (pp1, pp2),
                                       psi1, psi2)
        f34 = u1 * u1 + u2 * u2
        f12 = u3 * u3 + u4 * u4
        v = potential_partials(kv, q1 ** 2 + q2 ** 2, q3 ** 2 + q4 ** 2, q1 * q3 + q2 * q4)[0]
        h = ((p1 ** 2 + p2 ** 2 + f34) / two_nu1
             + (p3 ** 2 + p4 ** 2 + f12) / two_nu2 + v)
        return h, pp1, pp2, c3, c4
    return values


def hamiltonian_partial(masses: MassTriple, partial: PartialState) -> float:
    """Partially reduced Hamiltonian (6 degrees of freedom, theta cyclic).

    H = (p1^2 + p2^2 + f~(q3,q4))/(2 nu1) + (p3^2 + p4^2 + f~(q1,q2))/(2 nu2)
        + V(q1^2+q2^2, q3^2+q4^2, q1 q3 + q2 q4),

    by `partial_values_kernel`.
    """
    # the momenta of the residual do not enter H
    values = partial_values_kernel(masses, 0.0, 0.0)
    return values(partial_to_array(partial).tolist())[0]


def invariant_set_residual(partial: PartialState, mu1: float, mu2: float) -> np.ndarray:
    """(c1, c2, c3, c4) whose zero level is the invariant set for p_theta = mu.

    c1 = p_psi1, c2 = p_psi2,
    c3 = (mu1 + mu2) cos(delta) + L3, c4 = (mu1 - mu2) cos(sigma) + L3.
    """
    values = partial_values_kernel(None, mu1, mu2)
    return np.array(values(partial_to_array(partial).tolist())[1:])


def restriction_matrix_A(partial: PartialState) -> tuple[np.ndarray, float]:
    """Bracket matrix A_ij = {g_i, g_j} of the four constraint functions.

    The g_i are the off-normal-plane components of the conjugated angular
    momentum Lhat = M_theta^t L M_theta: g1 = -p_psi1, g2 = -p_psi2,
    g3 = Lhat_23, g4 = Lhat_14.  Hard-coded closed forms; a finite-difference
    bracket oracle covers them in the test suite.  Restricted to the invariant
    set the only non-zero entries are +-p_theta_i and the determinant is
    (mu1^2 - mu2^2)^2.
    """
    ang = partial.angles
    sig, dlt = ang.sigma, ang.delta
    sd, ss = math.sin(dlt), math.sin(sig)
    if abs(sd) < PSI_TOL or abs(ss) < PSI_TOL:
        raise ChartSingular("sin(sigma) or sin(delta) vanishes")
    cd, cs = math.cos(dlt), math.cos(sig)
    l3 = partial.l3
    pt1, pt2 = partial.p_theta
    v1 = l3 + (pt1 + pt2) * cd
    v2 = l3 + (pt1 - pt2) * cs
    w1 = 0.5 * v1 * cd / (sd * sd)
    w2 = 0.5 * v2 * cs / (ss * ss)
    a13 = -pt1 - w1 - w2
    a14 = -pt2 - w1 + w2
    mat = np.array([
        [0.0, 0.0, a13, a14],
        [0.0, 0.0, -a14, -a13],
        [-a13, a14, 0.0, 0.0],
        [-a14, a13, 0.0, 0.0],
    ])
    return mat, float(np.linalg.det(mat))


def restriction_matrix_det_closed(partial: PartialState) -> float:
    """det A = (Sigma + L3 cos delta)^2 (Delta + L3 cos sigma)^2 / (sin^4 delta sin^4 sigma)."""
    ang = partial.angles
    sd, ss = math.sin(ang.delta), math.sin(ang.sigma)
    l3 = partial.l3
    num = ((partial.sigma_momentum + l3 * math.cos(ang.delta))
           * (partial.delta_momentum + l3 * math.cos(ang.sigma)))
    return num * num / (sd ** 4 * ss ** 4)


def kinetic_f(qi: float, qj: float, l3: float, mu1: float, mu2: float,
              area: float) -> float:
    """Restricted kinetic function f on the invariant set.

    f = ((L_d + L_s)^2 qi^2 + (L_d - L_s)^2 qj^2) / (16 A^2) with
    L_d = sqrt(Delta^2 - L3^2), L_s = sqrt(Sigma^2 - L3^2) (principal roots;
    f only uses their squares, so the branch does not matter).
    """
    sig = mu1 + mu2
    dlt = mu1 - mu2
    ld2 = dlt * dlt - l3 * l3
    ls2 = sig * sig - l3 * l3
    if ld2 < 0.0 or ls2 < 0.0:
        raise KineticDomainError(
            f"L3^2 = {l3 * l3} exceeds Delta^2 = {dlt * dlt} or Sigma^2 = {sig * sig}")
    ld = math.sqrt(ld2)
    ls = math.sqrt(ls2)
    return ((ld + ls) ** 2 * qi * qi + (ld - ls) ** 2 * qj * qj) / (16.0 * area * area)


def reduced_values_kernel(masses: MassTriple, mu1: float, mu2: float):
    """Kernel from the 8 reduced values (q1..q4, p1..p4) to H on plain floats.

    H = (p1^2 + p2^2 + f(q3,q4))/(2 nu1) + (p3^2 + p4^2 + f(q1,q2))/(2 nu2)
        + V(q1^2+q2^2, q3^2+q4^2, q1 q3 + q2 q4),

    with f = `kinetic_f` at the momenta (mu1, mu2), which are checked once,
    here.  On Python floats, whose `**` raises OverflowError where numpy's
    warns.  `hamiltonian_reduced` and the reduced monitor call it, the
    monitor once per sample.
    """
    check_momenta(mu1, mu2)
    two_nu1, two_nu2 = 2.0 * masses.nu1, 2.0 * masses.nu2
    kv = masses.potential_constants

    def value(z):
        q, p = z[0:4], z[4:8]
        area = _chart_area(q)
        l3 = momentum_l3(q, p)
        f34 = kinetic_f(q[2], q[3], l3, mu1, mu2, area)
        f12 = kinetic_f(q[0], q[1], l3, mu1, mu2, area)
        v = potential_partials(kv, q[0] ** 2 + q[1] ** 2, q[2] ** 2 + q[3] ** 2,
                               q[0] * q[2] + q[1] * q[3])[0]
        return ((p[0] ** 2 + p[1] ** 2 + f34) / two_nu1
                + (p[2] ** 2 + p[3] ** 2 + f12) / two_nu2 + v)
    return value


def hamiltonian_reduced(masses: MassTriple, state: ReducedState) -> float:
    """Fully reduced Hamiltonian on the 8-dimensional phase space, by `reduced_values_kernel`."""
    value = reduced_values_kernel(masses, state.mu1, state.mu2)
    return value(state.q.tolist() + state.p.tolist())


def embed_reduced(state: ReducedState, theta1: float = 0.0,
                  theta2: float = 0.0) -> PartialState:
    """Canonical section of the invariant set over a reduced state.

    Picks delta = arccos(-L3/Sigma), sigma = arccos(-L3/Delta) in (0, pi)
    (the smaller-angle branch keeps sin > 0), sets p_psi = 0 and
    p_theta = (mu1, mu2).  The theta values are free parameters.
    """
    sig_m = state.mu1 + state.mu2
    dlt_m = state.mu1 - state.mu2
    l3 = state.l3
    if abs(l3) > sig_m or abs(l3) > dlt_m:
        raise KineticDomainError(
            f"|L3| = {abs(l3)} exceeds Sigma = {sig_m} or Delta = {dlt_m}")
    delta = math.acos(-l3 / sig_m)
    sigma = math.acos(-l3 / dlt_m)
    psi1 = 0.5 * (sigma + delta)
    psi2 = 0.5 * (sigma - delta)
    ang = RotationAngles(psi1, psi2, theta1, theta2)
    ang.require_valid()
    return PartialState(
        q=state.q.copy(),
        p=state.p.copy(),
        angles=ang,
        p_psi=np.zeros(2),
        p_theta=np.array([state.mu1, state.mu2]),
    )


# --- random sample points ------------------------------------------------------
#
# The verification suites and the tests draw their points from these two
# generators; the draw order is part of what a seed means.

def _random_q(rng) -> np.ndarray:
    """A configuration q with |qi| in [0.6, 1.6] and |A| > 1/4."""
    while True:
        q = rng.uniform(0.6, 1.6, size=4) * rng.choice([-1.0, 1.0], size=4)
        if abs(oriented_area(q)) > 0.25:
            return q


def random_chart_point(rng) -> PartialState:
    """A generic partial state away from the chart boundaries."""
    q = _random_q(rng)
    while True:
        psi1 = rng.uniform(0.25, 1.3)
        psi2 = rng.uniform(0.25, 1.3)
        if abs(math.cos(2 * psi1) - math.cos(2 * psi2)) > 0.15 \
                and abs(math.sin(psi1 + psi2)) > 0.1 \
                and abs(math.sin(psi1 - psi2)) > 0.1:
            break
    ang = RotationAngles(psi1, psi2, rng.uniform(-math.pi, math.pi),
                         rng.uniform(-math.pi, math.pi))
    p_theta = np.array([rng.uniform(0.8, 1.6), rng.uniform(0.1, 0.5)])
    return PartialState(q=q, p=rng.normal(0.0, 0.3, size=4), angles=ang,
                        p_psi=rng.normal(0.0, 0.2, size=2), p_theta=p_theta)


def random_reduced_state(rng, mu1: float, mu2: float) -> ReducedState:
    """A reduced state with |L3| safely inside the kinetic domain."""
    check_momenta(mu1, mu2)
    dlt = mu1 - mu2
    while True:
        q = _random_q(rng)
        p = rng.normal(0.0, 0.25, size=4)
        if abs(momentum_l3(q, p)) < 0.8 * dlt:
            return ReducedState(q, p, mu1, mu2)
