"""Reference implementations the library's float kernels are compared against.

These are the straightforward numpy forms of the mutual distances, the
potential partials and its s-Hessian, the effective potential with its
gradient and Hessian, the analytic gradients, the three vector fields, the
full, partial and reduced Hamiltonians, the invariant-set residual, the
monitors of the three systems, the conjugated angular momentum and the
Pfaffian in closed form, the rotation matrix with the lift through it and
the configuration Jacobian, the inverse chart, the CSV rows of a
trajectory, the Dormand-Prince step and its error norm (numpy and list
forms), the implicit midpoint step on lists and its predictor on arrays
with its least-squares rows from the normal equations on fractions, the
simplified equilibrium equations, the equilibrium report with its numpy
momentum block and unit-diagonal scaling, and the high-precision
equilibrium Newton on mpmath numbers: one small array per term, a fresh
decoding of the phase point for every monitor, one eigvalsh call per
Hessian block, and one svd call per inverse chart.  They are slower than
the library versions and exist only so the tests can check that the fast
forms compute the same numbers.
"""

import math
from fractions import Fraction

import numpy as np

from threebody4d import equilibria, model, reduction
from threebody4d.dynamics import (_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
                                 _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _C2,
                                 _C3, _C4, _C5, _E1, _E2, _E3, _E4, _E5, _E6, _E7)
from threebody4d.errors import (ChartSingular, CollisionError, DegeneratePlane, DomainError,
                               KineticDomainError, NoConvergence)
from threebody4d.model import MassTriple, ScalarProducts


def potential_derivatives(masses: MassTriple, s: ScalarProducts):
    """V and (V1, V2, V3), summed term by term over the three pairs."""
    d1, d2, d3 = mutual_distances_sq(masses, s)
    if min(d1, d2, d3) <= model.COLLISION_TOL:
        raise CollisionError(f"squared distance below tolerance: {(d1, d2, d3)}")
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    a2, a3 = masses.a2, masses.a3
    c1, c2, c3 = -m2 * m3, -m3 * m1, -m1 * m2
    g = ((1.0, 0.0, 0.0), (a2 * a2, 1.0, 2.0 * a2), (a3 * a3, 1.0, -2.0 * a3))
    v = 0.0
    grad = [0.0, 0.0, 0.0]
    for ck, dk, gk in zip((c1, c2, c3), (d1, d2, d3), g):
        inv = dk ** -0.5
        v += ck * inv
        w = -0.5 * ck * inv / dk
        for i in range(3):
            grad[i] += w * gk[i]
    return v, grad[0], grad[1], grad[2]


def potential_gradient_q(masses: MassTriple, q: np.ndarray) -> np.ndarray:
    s = ScalarProducts(q[0] ** 2 + q[1] ** 2, q[2] ** 2 + q[3] ** 2,
                       q[0] * q[2] + q[1] * q[3])
    _, v1, v2, v3 = potential_derivatives(masses, s)
    return np.array([
        2.0 * q[0] * v1 + q[2] * v3,
        2.0 * q[1] * v1 + q[3] * v3,
        2.0 * q[2] * v2 + q[0] * v3,
        2.0 * q[3] * v2 + q[1] * v3,
    ])


def gradient_reduced(masses: MassTriple, state: reduction.ReducedState) -> np.ndarray:
    q, p = state.q, state.p
    nu1, nu2 = masses.nu1, masses.nu2
    area = state.area
    if abs(area) < reduction.AREA_TOL:
        raise ChartSingular(f"oriented area A = {area} too small")
    l3 = state.l3
    sig = state.mu1 + state.mu2
    dlt = state.mu1 - state.mu2
    ld2 = dlt * dlt - l3 * l3
    ls2 = sig * sig - l3 * l3
    if ld2 <= 0.0 or ls2 <= 0.0:
        raise KineticDomainError(f"L3^2 = {l3 * l3} at the kinetic domain boundary")
    ld, ls = math.sqrt(ld2), math.sqrt(ls2)
    gp = (ld + ls) ** 2
    gm = (ld - ls) ** 2
    wp = gp * (q[2] ** 2 / (2.0 * nu1) + q[0] ** 2 / (2.0 * nu2))
    wm = gm * (q[3] ** 2 / (2.0 * nu1) + q[1] ** 2 / (2.0 * nu2))
    w = wp + wm
    w_l3 = 2.0 * l3 * (wm - wp) / (ld * ls)
    inv16a2 = 1.0 / (16.0 * area * area)

    dw_q = np.array([gp * q[0] / nu2, gm * q[1] / nu2,
                     gp * q[2] / nu1, gm * q[3] / nu1])
    da_q = 0.5 * np.array([q[3], -q[2], -q[1], q[0]])
    dl3_q = np.array([p[1], -p[0], p[3], -p[2]])
    dl3_p = np.array([-q[1], q[0], -q[3], q[2]])

    grad_q = (dw_q + w_l3 * dl3_q) * inv16a2 \
        - w / (8.0 * area ** 3) * da_q + potential_gradient_q(masses, q)
    grad_p = np.array([p[0] / nu1, p[1] / nu1, p[2] / nu2, p[3] / nu2]) \
        + (w_l3 * inv16a2) * dl3_p
    return np.concatenate([grad_q, grad_p])


def gradient_partial(masses: MassTriple, z: np.ndarray) -> np.ndarray:
    q = z[0:4]
    ps1, ps2 = z[4], z[5]
    p = z[8:12]
    pp1, pp2 = z[12], z[13]
    pt1, pt2 = z[14], z[15]
    nu1, nu2 = masses.nu1, masses.nu2

    area = 0.5 * (q[0] * q[3] - q[1] * q[2])
    if abs(area) < reduction.AREA_TOL:
        raise ChartSingular(f"oriented area A = {area} too small")
    l3 = q[0] * p[1] - q[1] * p[0] + q[2] * p[3] - q[3] * p[2]
    s1, c1 = math.sin(ps1), math.cos(ps1)
    s2, c2 = math.sin(ps2), math.cos(ps2)
    sin2a, cos2a = math.sin(2 * ps1), math.cos(2 * ps1)
    sin2b, cos2b = math.sin(2 * ps2), math.cos(2 * ps2)
    e = cos2a - cos2b
    if abs(e) < reduction.PSI_TOL:
        raise ChartSingular("cos(2 psi1) == cos(2 psi2)")
    den = 2.0 * area * e
    nb = l3 * sin2a + 2.0 * (pt1 * s1 * c2 + pt2 * c1 * s2)
    nc = l3 * sin2b + 2.0 * (pt1 * c1 * s2 + pt2 * s1 * c2)
    b = nb / den
    c = nc / den
    inv2a = 0.5 / area

    u1 = q[2] * b - q[3] * pp1 * inv2a
    u2 = -q[3] * c + q[2] * pp2 * inv2a
    u3 = -q[0] * b + q[1] * pp1 * inv2a
    u4 = q[1] * c - q[0] * pp2 * inv2a
    r1, r2 = u1 / nu1, u2 / nu1
    r3, r4 = u3 / nu2, u4 / nu2

    da_q = 0.5 * np.array([q[3], -q[2], -q[1], q[0]])
    dl3_q = np.array([p[1], -p[0], p[3], -p[2]])
    dl3_p = np.array([-q[1], q[0], -q[3], q[2]])

    grad = np.zeros(16)

    def du_all(db, dc, da, dl, k_q=None):
        da2 = -da * inv2a / area
        d1 = q[2] * db - q[3] * pp1 * da2
        d2 = -q[3] * dc + q[2] * pp2 * da2
        d3 = -q[0] * db + q[1] * pp1 * da2
        d4 = q[1] * dc - q[0] * pp2 * da2
        if k_q == 0:
            d3 += -b
            d4 += -pp2 * inv2a
        elif k_q == 1:
            d3 += pp1 * inv2a
            d4 += c
        elif k_q == 2:
            d1 += b
            d2 += pp2 * inv2a
        elif k_q == 3:
            d1 += -pp1 * inv2a
            d2 += -c
        return r1 * d1 + r2 * d2 + r3 * d3 + r4 * d4

    dv_q = potential_gradient_q(masses, q)
    for k in range(4):
        dden = 2.0 * da_q[k] * e
        db = (dl3_q[k] * sin2a - b * dden) / den
        dc = (dl3_q[k] * sin2b - c * dden) / den
        grad[k] = du_all(db, dc, da_q[k], dl3_q[k], k_q=k) + dv_q[k]

    dnb1 = 2.0 * l3 * cos2a + 2.0 * (pt1 * c1 * c2 - pt2 * s1 * s2)
    dnc1 = 2.0 * (-pt1 * s1 * s2 + pt2 * c1 * c2)
    de1 = -2.0 * sin2a
    dnb2 = 2.0 * (-pt1 * s1 * s2 + pt2 * c1 * c2)
    dnc2 = 2.0 * l3 * cos2b + 2.0 * (pt1 * c1 * c2 - pt2 * s1 * s2)
    de2 = 2.0 * sin2b
    for idx, (dnb_, dnc_, de_) in ((4, (dnb1, dnc1, de1)), (5, (dnb2, dnc2, de2))):
        dden = 2.0 * area * de_
        db = (dnb_ - b * dden) / den
        dc = (dnc_ - c * dden) / den
        grad[idx] = du_all(db, dc, 0.0, 0.0)

    for k in range(4):
        db = dl3_p[k] * sin2a / den
        dc = dl3_p[k] * sin2b / den
        grad[8 + k] = du_all(db, dc, 0.0, dl3_p[k])
    grad[8] += p[0] / nu1
    grad[9] += p[1] / nu1
    grad[10] += p[2] / nu2
    grad[11] += p[3] / nu2

    grad[12] = r1 * (-q[3] * inv2a) + r3 * (q[1] * inv2a)
    grad[13] = r2 * (q[2] * inv2a) + r4 * (-q[0] * inv2a)

    for idx, (dnb_, dnc_) in ((14, (2.0 * s1 * c2, 2.0 * c1 * s2)),
                              (15, (2.0 * c1 * s2, 2.0 * s1 * c2))):
        db = dnb_ / den
        dc = dnc_ / den
        grad[idx] = du_all(db, dc, 0.0, 0.0)

    return grad


def reduced_rhs(masses: MassTriple, mu1: float, mu2: float, z: np.ndarray) -> np.ndarray:
    g = gradient_reduced(masses, reduction.ReducedState(z[0:4], z[4:8], mu1, mu2))
    return np.concatenate([g[4:8], -g[0:4]])


def partial_rhs(masses: MassTriple, z: np.ndarray) -> np.ndarray:
    g = gradient_partial(masses, z)
    return np.concatenate([g[8:16], -g[0:8]])


def full_rhs(masses: MassTriple, z: np.ndarray) -> np.ndarray:
    x1, x2 = z[0:4], z[4:8]
    y1, y2 = z[8:12], z[12:16]
    s = ScalarProducts(float(x1 @ x1), float(x2 @ x2), float(x1 @ x2))
    _, v1, v2, v3 = potential_derivatives(masses, s)
    return np.concatenate([
        y1 / masses.nu1,
        y2 / masses.nu2,
        -(2.0 * v1 * x1 + v3 * x2),
        -(2.0 * v2 * x2 + v3 * x1),
    ])


def _bc_coefficients(q, l3, p_theta, psi1, psi2):
    """The linear-in-momenta coefficients B and C of the cotangent lift."""
    area = 0.5 * (q[0] * q[3] - q[1] * q[2])
    if abs(area) < reduction.AREA_TOL:
        raise ChartSingular(f"oriented area A = {area} too small")
    e = math.cos(2 * psi1) - math.cos(2 * psi2)
    if abs(e) < reduction.PSI_TOL:
        raise ChartSingular("cos(2 psi1) == cos(2 psi2)")
    den = 2.0 * area * e
    s1, c1 = math.sin(psi1), math.cos(psi1)
    s2, c2 = math.sin(psi2), math.cos(psi2)
    b = (l3 * math.sin(2 * psi1) + 2.0 * (p_theta[0] * s1 * c2 + p_theta[1] * c1 * s2)) / den
    c = (l3 * math.sin(2 * psi2) + 2.0 * (p_theta[0] * c1 * s2 + p_theta[1] * s1 * c2)) / den
    return b, c, area


def kinetic_tilde(qi, qj, b, c, pp1, pp2, area):
    """f~(qi, qj) = (qi B - qj p_psi1/(2A))^2 + (-qj C + qi p_psi2/(2A))^2."""
    inv2a = 0.5 / area
    t1 = qi * b - qj * pp1 * inv2a
    t2 = -qj * c + qi * pp2 * inv2a
    return t1 * t1 + t2 * t2


def hamiltonian_full(masses: MassTriple, state: model.FullState) -> float:
    """|y1|^2/(2 nu1) + |y2|^2/(2 nu2) + V on the numpy vectors of a FullState."""
    kin = float(state.y1 @ state.y1) / (2.0 * masses.nu1) \
        + float(state.y2 @ state.y2) / (2.0 * masses.nu2)
    s = ScalarProducts(float(state.x1 @ state.x1), float(state.x2 @ state.x2),
                       float(state.x1 @ state.x2))
    return kin + model.potential_derivatives(masses, s)[0]


def hamiltonian_reduced(masses: MassTriple, state: reduction.ReducedState) -> float:
    """The reduced Hamiltonian on the Python floats of a ReducedState."""
    q, p = state.q.tolist(), state.p.tolist()
    area = reduction.oriented_area(q)
    if abs(area) < reduction.AREA_TOL:
        raise ChartSingular(f"oriented area A = {area} too small")
    l3 = reduction.momentum_l3(q, p)
    f34 = reduction.kinetic_f(q[2], q[3], l3, state.mu1, state.mu2, area)
    f12 = reduction.kinetic_f(q[0], q[1], l3, state.mu1, state.mu2, area)
    s = ScalarProducts(q[0] ** 2 + q[1] ** 2, q[2] ** 2 + q[3] ** 2,
                       q[0] * q[2] + q[1] * q[3])
    return ((p[0] ** 2 + p[1] ** 2 + f34) / (2.0 * masses.nu1)
            + (p[2] ** 2 + p[3] ** 2 + f12) / (2.0 * masses.nu2)
            + model.potential_derivatives(masses, s)[0])


def hamiltonian_partial(masses: MassTriple, partial: reduction.PartialState) -> float:
    """The partial Hamiltonian on the numpy scalars of a PartialState."""
    q, p = partial.q, partial.p
    ang = partial.angles
    b, c, area = _bc_coefficients(q, partial.l3, partial.p_theta, ang.psi1, ang.psi2)
    pp1, pp2 = partial.p_psi
    f34 = kinetic_tilde(q[2], q[3], b, c, pp1, pp2, area)
    f12 = kinetic_tilde(q[0], q[1], b, c, pp1, pp2, area)
    s = ScalarProducts(q[0] ** 2 + q[1] ** 2, q[2] ** 2 + q[3] ** 2,
                       q[0] * q[2] + q[1] * q[3])
    return ((p[0] ** 2 + p[1] ** 2 + f34) / (2.0 * masses.nu1)
            + (p[2] ** 2 + p[3] ** 2 + f12) / (2.0 * masses.nu2)
            + model.potential_derivatives(masses, s)[0])


def invariant_set_residual(partial: reduction.PartialState, mu1: float,
                           mu2: float) -> np.ndarray:
    """(c1, c2, c3, c4) on the numpy scalars of a PartialState."""
    ang = partial.angles
    l3 = partial.l3
    return np.array([
        partial.p_psi[0],
        partial.p_psi[1],
        (mu1 + mu2) * math.cos(ang.delta) + l3,
        (mu1 - mu2) * math.cos(ang.sigma) + l3,
    ])


def partial_monitors(masses: MassTriple, mu1: float, mu2: float) -> dict:
    """One decoding of the phase point per callable."""
    def ham(t, z):
        return hamiltonian_partial(masses, reduction.array_to_partial(z))

    def make_c(i):
        def c(t, z):
            return invariant_set_residual(reduction.array_to_partial(z), mu1, mu2)[i]
        return c

    mons = {"H": ham}
    for i in range(4):
        mons[f"c{i + 1}"] = make_c(i)
    mons["p_theta1"] = lambda t, z: z[14]
    mons["p_theta2"] = lambda t, z: z[15]
    return mons


def reduced_monitors(masses: MassTriple, mu1: float, mu2: float) -> dict:
    """One ReducedState per sample."""
    def ham(t, z):
        return hamiltonian_reduced(masses, reduction.ReducedState(z[0:4], z[4:8], mu1, mu2))
    return {"H": ham}


def full_monitors(masses: MassTriple) -> dict:
    """One decoding and one angular momentum per callable."""
    def ham(t, z):
        return hamiltonian_full(masses, array_to_full(z))

    def mu1(t, z):
        return model.angular_momentum(array_to_full(z)).mu1

    def mu2(t, z):
        return model.angular_momentum(array_to_full(z)).mu2

    return {"H": ham, "mu1": mu1, "mu2": mu2}


def array_to_full(z: np.ndarray) -> model.FullState:
    z = np.asarray(z, dtype=float)
    return model.FullState(z[0:4], z[4:8], z[8:12], z[12:16])


def pfaffian4(l: np.ndarray) -> float:
    """Pfaffian of a 4x4 antisymmetric matrix by the closed formula."""
    return float(l[0, 1] * l[2, 3] - l[0, 2] * l[1, 3] + l[0, 3] * l[1, 2])


def angular_momentum_partial(partial: reduction.PartialState) -> np.ndarray:
    """The conjugated angular momentum M_theta^t L M_theta in closed form.

    Equals -B12 p_th1 - B34 p_th2 - B13 p_psi1 - B24 p_psi2
    + (1/2)(v1/sin delta)(B23 + B14) + (1/2)(v2/sin sigma)(B23 - B14)
    with v1 = L3 + Sigma cos delta, v2 = L3 + Delta cos sigma.
    """
    ang = partial.angles
    sig, dlt = ang.sigma, ang.delta
    sd, ss = math.sin(dlt), math.sin(sig)
    if abs(sd) < reduction.PSI_TOL or abs(ss) < reduction.PSI_TOL:
        raise ChartSingular("sin(sigma) or sin(delta) vanishes")
    l3 = partial.l3
    v1 = l3 + partial.sigma_momentum * math.cos(dlt)
    v2 = l3 + partial.delta_momentum * math.cos(sig)
    l23 = 0.5 * (v1 / sd + v2 / ss)
    l14 = 0.5 * (v1 / sd - v2 / ss)
    pt1, pt2 = partial.p_theta
    pp1, pp2 = partial.p_psi
    out = np.zeros((4, 4))
    out[0, 1], out[1, 0] = -pt1, pt1
    out[2, 3], out[3, 2] = -pt2, pt2
    out[0, 2], out[2, 0] = -pp1, pp1
    out[1, 3], out[3, 1] = -pp2, pp2
    out[1, 2], out[2, 1] = l23, -l23
    out[0, 3], out[3, 0] = l14, -l14
    return out


def plane_rotation(i: int, j: int, t: float) -> np.ndarray:
    """exp(B_ij t): rotation by t in the oriented (i, j) plane (0-based)."""
    m = np.eye(4)
    c, s = math.cos(t), math.sin(t)
    m[i, i] = c
    m[j, j] = c
    m[i, j] = s
    m[j, i] = -s
    return m


def rotation_matrix(angles: reduction.RotationAngles) -> np.ndarray:
    """M = exp(B12 th1) exp(B34 th2) exp(B13 ps1) exp(B24 ps2)."""
    return (plane_rotation(0, 1, angles.theta1)
            @ plane_rotation(2, 3, angles.theta2)
            @ plane_rotation(0, 2, angles.psi1)
            @ plane_rotation(1, 3, angles.psi2))


def theta_rotation(angles: reduction.RotationAngles) -> np.ndarray:
    """M_theta = exp(B12 theta1) exp(B34 theta2)."""
    return plane_rotation(0, 1, angles.theta1) @ plane_rotation(2, 3, angles.theta2)


def lift_to_full(partial: reduction.PartialState) -> model.FullState:
    """The cotangent lift as the 4x4 product `rotation_matrix` times each vector."""
    q, p = partial.q, partial.p
    ang = partial.angles
    u1, u2, u3, u4 = reduction._lift_momenta(q, partial.l3, partial.p_theta, partial.p_psi,
                                             ang.psi1, ang.psi2)
    m = rotation_matrix(ang)
    return model.FullState(m @ np.array([q[0], q[1], 0.0, 0.0]),
                           m @ np.array([q[2], q[3], 0.0, 0.0]),
                           m @ np.array([p[0], p[1], u1, u2]),
                           m @ np.array([p[2], p[3], u3, u4]))


def configuration_jacobian(partial: reduction.PartialState) -> np.ndarray:
    """The 8x8 factor U with d(x1,x2)/d(q,psi,theta) = diag(M,M) U.

    Column order (q1, q2, q3, q4, psi1, psi2, theta1, theta2).  Its
    determinant is `reduction.configuration_jacobian_det`.
    """
    q = partial.q
    ps1, ps2 = partial.angles.psi1, partial.angles.psi2
    s1, c1 = math.sin(ps1), math.cos(ps1)
    s2, c2 = math.sin(ps2), math.cos(ps2)
    u = np.zeros((8, 8))
    for row, (qa, qb) in enumerate(((q[0], q[1]), (q[2], q[3]))):
        r = 4 * row
        u[r + 0, 2 * row + 0] = 1.0
        u[r + 1, 2 * row + 1] = 1.0
        u[r + 0, 6] = qb * c1 * c2
        u[r + 0, 7] = qb * s1 * s2
        u[r + 1, 6] = -qa * c1 * c2
        u[r + 1, 7] = -qa * s1 * s2
        u[r + 2, 4] = -qa
        u[r + 2, 6] = qb * s1 * c2
        u[r + 2, 7] = -qb * c1 * s2
        u[r + 3, 5] = -qb
        u[r + 3, 6] = -qa * c1 * s2
        u[r + 3, 7] = qa * s1 * c2
    return u


def wedge(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x ^ y = x y^t - y x^t."""
    return np.outer(x, y) - np.outer(y, x)


def project_to_partial(state: model.FullState) -> reduction.PartialState:
    """The inverse chart on numpy 2x2 and 4x4 matrices, with `np.linalg.svd`."""
    ptop = np.column_stack([state.x1[0:2], state.x2[0:2]])
    pbot = np.column_stack([state.x1[2:4], state.x2[2:4]])
    gram = wedge(state.x1, state.x2)
    scale = float(np.linalg.norm(state.x1) * np.linalg.norm(state.x2))
    if np.max(np.abs(gram)) < reduction.AREA_TOL * max(scale, 1e-30):
        raise DegeneratePlane("x1 and x2 are collinear (A = 0)")
    if abs(np.linalg.det(ptop)) < reduction.AREA_TOL * max(scale, 1e-30):
        raise ChartSingular("configuration orthogonal to the (1,2)-plane")
    # with R(t) = [[cos t, sin t], [-sin t, cos t]]:
    # g = R(theta2) diag(tan psi1, tan psi2) R(-theta1)
    g = -pbot @ np.linalg.inv(ptop)
    uu, sv, vt = np.linalg.svd(g)
    d = sv.copy()
    if np.linalg.det(uu) < 0:
        uu[:, 1] *= -1.0
        d[1] *= -1.0
    if np.linalg.det(vt) < 0:
        vt[1, :] *= -1.0
        d[1] *= -1.0
    theta2 = math.atan2(uu[0, 1], uu[0, 0])
    theta1 = math.atan2(vt[1, 0], vt[0, 0])  # vt = R(-theta1)
    psi1 = math.atan(d[0])
    psi2 = math.atan(d[1])
    ang = reduction.RotationAngles(psi1, psi2, theta1, theta2)
    cinv = np.diag([1.0 / math.cos(psi1), 1.0 / math.cos(psi2)])
    rm1 = np.array([[math.cos(theta1), -math.sin(theta1)],
                    [math.sin(theta1), math.cos(theta1)]])  # R(-theta1)
    qmat = cinv @ rm1 @ ptop
    q = np.array([qmat[0, 0], qmat[1, 0], qmat[0, 1], qmat[1, 1]])
    area = 0.5 * (q[0] * q[3] - q[1] * q[2])
    if abs(area) < reduction.AREA_TOL:
        raise ChartSingular(f"oriented area A = {area} too small")

    m = rotation_matrix(ang)
    yh1 = m.T @ state.y1
    yh2 = m.T @ state.y2
    p = np.array([yh1[0], yh1[1], yh2[0], yh2[1]])
    lmat = wedge(state.x1, state.y1) + wedge(state.x2, state.y2)
    mth = theta_rotation(ang)
    lhat = mth.T @ lmat @ mth
    p_theta = np.array([-lmat[0, 1], -lmat[2, 3]])
    p_psi = np.array([-lhat[0, 2], -lhat[1, 3]])
    return reduction.PartialState(q=q, p=p, angles=ang, p_psi=p_psi, p_theta=p_theta)


def midpoint_step(field, t, y, h, tol=1e-14, max_iter=100):
    """Implicit midpoint, iterated on the new state from an explicit Euler guess.

    The guess costs one field evaluation.  The iteration stops when successive
    iterates differ by less than tol * (max|y| + 1); after `max_iter`
    iterations the last iterate is returned whether or not it converged.
    """
    ynext = y + h * field.evaluate(t, y)
    scale = np.max(np.abs(y)) + 1.0
    for _ in range(max_iter):
        ymid = 0.5 * (y + ynext)
        ynew = y + h * field.evaluate(t + 0.5 * h, ymid)
        delta = np.max(np.abs(ynew - ynext))
        ynext = ynew
        if delta < tol * scale:
            break
    return ynext


def predictor_row(m, degree=6):
    """The weights, oldest first, that evaluate at x = m the least-squares
    polynomial of degree min(m - 1, degree) through values at x = 0..m-1.

    Exact: the normal equations (X^T X) g = e(m), with X_jk = j^k and
    e(m)_k = m^k, are solved by Gauss-Jordan elimination on fractions, and
    the row is X g.
    """
    d = min(m - 1, degree) + 1
    x = [[Fraction(j) ** k for k in range(d)] for j in range(m)]
    a = [[sum(x[j][r] * x[j][c] for j in range(m)) for c in range(d)] + [Fraction(m) ** r]
         for r in range(d)]
    for c in range(d):
        pivot = next(r for r in range(c, d) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(d):
            if r != c:
                a[r] = [v - a[r][c] * w for v, w in zip(a[r], a[c])]
    g = [a[r][d] for r in range(d)]
    return [sum(x[j][k] * g[k] for k in range(d)) for j in range(m)]


def extrapolate(slopes, m):
    """The midpoint predictor on arrays: the last m of `slopes` (oldest first)
    extrapolated to the next, their weights `predictor_row(m)` applied by a
    BLAS dot product."""
    weights = np.array([float(w) for w in predictor_row(m)])
    return (weights @ np.array(slopes[-m:], dtype=float)).tolist()


def _midpoint_iterate(kernel, t, y, h, k, bound, max_iter):
    """Fixed-point iteration k <- f(t + h/2, y + (h/2) k) from the slope `k`.

    Returns the last slope and the last difference of successive iterates of
    the new state, which is below `bound` when the iteration converged within
    `max_iter` iterations; raises `NoConvergence` at once when the
    difference is not finite.
    """
    tm = t + 0.5 * h
    half = 0.5 * h
    for _ in range(max_iter):
        knew = kernel(tm, [u + half * v for u, v in zip(y, k)])
        diff = [abs(u - v) for u, v in zip(knew, k)]
        # max passes over a NaN that is not first; their sum keeps it
        total = sum(diff)
        delta = h * (max(diff) if total == total else total)
        k = knew
        if delta < bound:
            break
        if not math.isfinite(delta):
            raise NoConvergence(f"implicit midpoint diverged at t = {t!r}: "
                                f"iterate difference {delta!r}")
    return k, delta


def midpoint_step_list(kernel, t, y, h, k, max_iter=100):
    """One implicit midpoint step on lists of floats: (y + h k, k) with
    k = f(t + h/2, y + (h/2) k).

    The slope k is found by fixed-point iteration from the predicted slope
    `k`, or from f(t, y) when `k` is None.  It stops when successive iterates
    of the new state differ by less than 1e-14 (max|y| + 1).  When the
    iteration from a predicted slope leaves the field's domain at an iterate,
    or does not converge within `max_iter` iterations, the step is solved
    again from f(t, y): a poor prediction can stray where the solution does
    not.  Only a domain error in that solve propagates, as the trajectory's
    domain exit, and only its failure to converge raises `NoConvergence`;
    a non-finite iterate difference raises `NoConvergence` at once.
    """
    # y holds no NaN, so max sees every entry
    bound = 1e-14 * (max(map(abs, y)) + 1.0)
    if k is not None:
        try:
            k, delta = _midpoint_iterate(kernel, t, y, h, k, bound, max_iter)
            if delta < bound:
                return [u + h * v for u, v in zip(y, k)], k
        except DomainError:
            pass
    k, delta = _midpoint_iterate(kernel, t, y, h, kernel(t, y), bound, max_iter)
    if delta < bound:
        return [u + h * v for u, v in zip(y, k)], k
    raise NoConvergence(f"implicit midpoint did not converge at t = {t!r} in "
                        f"{max_iter} iterations: last iterate difference {delta!r}")


def to_csv(rec, fh, state_labels):
    """TrajectoryRecord.to_csv formatting each value as a numpy scalar."""
    cols = ["t"] + list(state_labels) + list(rec.monitors.keys())
    fh.write(",".join(cols) + "\n")
    mon = [np.asarray(v) for v in rec.monitors.values()]
    for k in range(len(rec.times)):
        row = [rec.times[k]] + list(rec.states[k]) + [m[k] for m in mon]
        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


# Dormand-Prince 5(4) tableau as arrays, row i of A for stage i + 1.
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = [
    None,
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                  187 / 2100, 1 / 40])
DP_E = DP_B5 - DP_B4


def dopri_step(field, t, y, h, k):
    """One Dormand-Prince step on arrays: (fifth-order state, local error estimate).

    `k` is a (7, dimension) array that receives the stages; exactly seven
    field evaluations per call.
    """
    k[0] = field.evaluate(t, y)
    for i in range(1, 7):
        yi = y + h * (DP_A[i] @ k[:i])
        k[i] = field.evaluate(t + DP_C[i] * h, yi)
    return yi, h * (DP_E @ k)


def dopri_step_list(kernel, t, y, h):
    """One Dormand-Prince step on lists of floats: (fifth-order state, error estimate).

    Exactly seven kernel calls.  Each stage sums its slopes and then adds
    them to y.  The error estimate carries the second slope with its zero
    weight, so a NaN in any stage reaches it.
    """
    k1 = kernel(t, y)
    a1 = h * _A21
    k2 = kernel(t + _C2 * h, [u + a1 * v1 for u, v1 in zip(y, k1)])
    a1, a2 = h * _A31, h * _A32
    k3 = kernel(t + _C3 * h, [u + (a1 * v1 + a2 * v2) for u, v1, v2 in zip(y, k1, k2)])
    a1, a2, a3 = h * _A41, h * _A42, h * _A43
    k4 = kernel(t + _C4 * h, [u + (a1 * v1 + a2 * v2 + a3 * v3)
                              for u, v1, v2, v3 in zip(y, k1, k2, k3)])
    a1, a2, a3, a4 = h * _A51, h * _A52, h * _A53, h * _A54
    k5 = kernel(t + _C5 * h, [u + (a1 * v1 + a2 * v2 + a3 * v3 + a4 * v4)
                              for u, v1, v2, v3, v4 in zip(y, k1, k2, k3, k4)])
    a1, a2, a3, a4, a5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6 = kernel(t + h, [u + (a1 * v1 + a2 * v2 + a3 * v3 + a4 * v4 + a5 * v5)
                        for u, v1, v2, v3, v4, v5 in zip(y, k1, k2, k3, k4, k5)])
    b1, b3, b4, b5, b6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
    ynew = [u + (b1 * v1 + b3 * v3 + b4 * v4 + b5 * v5 + b6 * v6)
            for u, v1, v3, v4, v5, v6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = kernel(t + h, ynew)
    e1, e2, e3, e4, e5, e6, e7 = (h * _E1, h * _E2, h * _E3, h * _E4, h * _E5, h * _E6,
                                  h * _E7)
    err = [e1 * v1 + e2 * v2 + e3 * v3 + e4 * v4 + e5 * v5 + e6 * v6 + e7 * v7
           for v1, v2, v3, v4, v5, v6, v7 in zip(k1, k2, k3, k4, k5, k6, k7)]
    return ynew, err


def error_norm(err, y, ynew, abs_tol, rel_tol):
    """RMS of err / (abs_tol + rel_tol * max(|y|, |ynew|)) on arrays, numpy's pairwise sum."""
    ratio, work = np.abs(y), np.abs(ynew)
    np.maximum(ratio, work, out=ratio)
    ratio *= rel_tol
    ratio += abs_tol
    np.divide(err, ratio, out=ratio)
    ratio *= ratio
    return math.sqrt(float(ratio.sum()) / ratio.size)


def error_norm_list(err, y, ynew, abs_tol, rel_tol):
    """The same norm on lists of floats, its squares summed left to right."""
    ratios = [e / (abs_tol + rel_tol * max(abs(b), abs(a)))
              for e, a, b in zip(err, y, ynew)]
    total = 0.0
    for r in ratios:
        total = total + r * r
    return math.sqrt(total / len(ratios))


def potential_hessian_s(masses: MassTriple, s: ScalarProducts) -> np.ndarray:
    """3x3 Hessian of V in (s11, s22, s12) as a sum of outer products."""
    k = masses.potential_constants
    d = mutual_distances_sq(masses, s)
    if min(d) <= model.COLLISION_TOL:
        raise CollisionError(f"squared distance below tolerance: {d}")
    aa2, g2, aa3, g3 = k[0:4]
    g = np.array([[1.0, 0.0, 0.0], [aa2, 1.0, g2], [aa3, 1.0, -g3]])
    h = np.zeros((3, 3))
    for ck, dk, gk in zip(k[4:7], d, g):
        h += 0.75 * ck * dk ** -2.5 * np.outer(gk, gk)
    return h


def _veff_setup(masses: MassTriple, q):
    q = np.asarray(q, dtype=float)
    a = 0.5 * (q[0] * q[3] - q[1] * q[2])
    if abs(a) < reduction.AREA_TOL:
        raise ChartSingular(f"oriented area A = {a} too small")
    s = ScalarProducts(q[0] ** 2 + q[1] ** 2, q[2] ** 2 + q[3] ** 2,
                       q[0] * q[2] + q[1] * q[3])
    t1 = q[0] ** 2 / masses.nu2 + q[2] ** 2 / masses.nu1
    t2 = q[1] ** 2 / masses.nu2 + q[3] ** 2 / masses.nu1
    return q, a, s, t1, t2


def effective_potential(masses: MassTriple, q, mu1: float, mu2: float) -> float:
    """(mu1^2 I1^-1 + mu2^2 I2^-1)/2 + V with I^-1 = T/(4 A^2)."""
    q, a, s, t1, t2 = _veff_setup(masses, q)
    i1inv, i2inv = t1 / (4 * a * a), t2 / (4 * a * a)
    return 0.5 * (mu1 * mu1 * i1inv + mu2 * mu2 * i2inv) + potential_derivatives(masses, s)[0]


def effective_potential_gradient(masses: MassTriple, q, mu1: float,
                                 mu2: float) -> np.ndarray:
    q, a, s, t1, t2 = _veff_setup(masses, q)
    nu1, nu2 = masses.nu1, masses.nu2
    num = mu1 * mu1 * t1 + mu2 * mu2 * t2
    dt1 = np.array([2 * q[0] / nu2, 0.0, 2 * q[2] / nu1, 0.0])
    dt2 = np.array([0.0, 2 * q[1] / nu2, 0.0, 2 * q[3] / nu1])
    da = 0.5 * np.array([q[3], -q[2], -q[1], q[0]])
    grad_cf = (mu1 * mu1 * dt1 + mu2 * mu2 * dt2) / (8 * a * a) \
        - num / (4 * a ** 3) * da
    return grad_cf + potential_gradient_q(masses, q)


_D2A = 0.5 * np.array([
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
])


def effective_potential_hessian(masses: MassTriple, q, mu1: float,
                                mu2: float) -> np.ndarray:
    """Centrifugal part by outer products, V part as J^t Vss J plus V_s d2s."""
    q, a, s, t1, t2 = _veff_setup(masses, q)
    nu1, nu2 = masses.nu1, masses.nu2
    num = mu1 * mu1 * t1 + mu2 * mu2 * t2
    dt1 = np.array([2 * q[0] / nu2, 0.0, 2 * q[2] / nu1, 0.0])
    dt2 = np.array([0.0, 2 * q[1] / nu2, 0.0, 2 * q[3] / nu1])
    dnum = mu1 * mu1 * dt1 + mu2 * mu2 * dt2
    d2num = np.diag([2 * mu1 * mu1 / nu2, 2 * mu2 * mu2 / nu2,
                     2 * mu1 * mu1 / nu1, 2 * mu2 * mu2 / nu1])
    da = 0.5 * np.array([q[3], -q[2], -q[1], q[0]])
    hess = d2num / (8 * a * a) \
        - (np.outer(dnum, da) + np.outer(da, dnum)) / (4 * a ** 3) \
        + 3 * num / (4 * a ** 4) * np.outer(da, da) \
        - num / (4 * a ** 3) * _D2A
    _, v1, v2, v3 = potential_derivatives(masses, s)
    js = np.array([
        [2 * q[0], 2 * q[1], 0.0, 0.0],
        [0.0, 0.0, 2 * q[2], 2 * q[3]],
        [q[2], q[3], q[0], q[1]],
    ])
    hess += js.T @ potential_hessian_s(masses, s) @ js
    hess += v1 * np.diag([2.0, 2.0, 0.0, 0.0]) + v2 * np.diag([0.0, 0.0, 2.0, 2.0])
    hess += v3 * np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    return hess


def mutual_distances_sq(masses: MassTriple, s: ScalarProducts):
    """Squared mutual distances (d1, d2, d3) = (|r2-r3|, |r3-r1|, |r1-r2|).

    In Jacobi coordinates d1 = |x1|, d2 = |a2 x1 + x2|, d3 = |a3 x1 - x2|.
    """
    a2, a3 = masses.a2, masses.a3
    return (s.s11, a2 * a2 * s.s11 + 2.0 * a2 * s.s12 + s.s22,
            a3 * a3 * s.s11 - 2.0 * a3 * s.s12 + s.s22)


# --- equilibrium solver: residuals, the mpmath Newton and the report ----------

def solvability_residual(masses: MassTriple, q) -> float:
    q = np.asarray(q, dtype=float)
    return float(q[0] * q[1] * masses.nu1 + q[2] * q[3] * masses.nu2)


def simplified_equilibrium_residual(masses: MassTriple, q, mu1: float,
                                    mu2: float) -> np.ndarray:
    """The four simplified equations on numpy scalars."""
    q = np.asarray(q, dtype=float)
    nu1, nu2 = masses.nu1, masses.nu2
    a = reduction._chart_area(q, masses.potential_constants[-1])
    i1 = nu2 * q[3] ** 2 + nu1 * q[1] ** 2
    i2 = nu1 * q[0] ** 2 + nu2 * q[2] ** 2
    s = ScalarProducts(q[0] ** 2 + q[1] ** 2, q[2] ** 2 + q[3] ** 2,
                       q[0] * q[2] + q[1] * q[3])
    _, v1, v2, v3 = model.potential_derivatives(masses, s)
    pref = 1.0 / (8.0 * a ** 3 * nu1 * nu2)
    return np.array([
        2 * q[0] * v1 + q[2] * v3 - i1 * mu2 * mu2 * q[3] * pref,
        2 * q[1] * v1 + q[3] * v3 + i2 * mu1 * mu1 * q[2] * pref,
        2 * q[2] * v2 + q[0] * v3 + i1 * mu2 * mu2 * q[1] * pref,
        2 * q[3] * v2 + q[1] * v3 - i2 * mu1 * mu1 * q[0] * pref,
    ])


def newton_mp(masses, mu1, mu2, seed, max_iter=60, dps=60):
    """The high-precision Newton on mpmath numbers inside `mpmath.workdps`.

    The same kernel, elimination and stopping bound as the library's
    Decimal solve, so the two roots agree as floats.
    """
    import mpmath as mp

    with mp.workdps(dps):
        mm = MassTriple(mp.mpf(masses.m1), mp.mpf(masses.m2), mp.mpf(masses.m3))
        mu1_, mu2_ = mp.mpf(mu1), mp.mpf(mu2)
        mp_tol = mp.mpf(10) ** (-(dps - 15))
        q = [mp.mpf(float(v)) for v in seed]
        _, grad, terms = equilibria._veff_value_gradient(mm, q, mu1_, mu2_)
        for _ in range(max_iter + 1):
            if max(abs(g) for g in grad) < mp_tol * equilibria._gradient_scale(terms):
                return np.array([float(v) for v in q])
            dq = equilibria._gauss_solve(equilibria._veff_hessian(terms), [-g for g in grad],
                                         mp.eps)
            q = [qi + dqi for qi, dqi in zip(q, dq)]
            _, grad, terms = equilibria._veff_value_gradient(mm, q, mu1_, mu2_)
        raise NoConvergence(f"mp Newton did not reach {mp_tol} relative to the gradient's "
                            f"terms in {max_iter} steps")


def momentum_block(masses: MassTriple, q, mu1: float, mu2: float) -> np.ndarray:
    """4x4 Hessian of H in p at p = 0: diag(1/nu) + 2 c2_comb v v^t, v = dL3/dp."""
    nu1, nu2 = masses.nu1, masses.nu2
    gamma = equilibria.keff_correction(masses, q, mu1, mu2)
    v = np.array([-q[1], q[0], -q[3], q[2]])
    return np.diag([1 / nu1, 1 / nu1, 1 / nu2, 1 / nu2]) + 2 * gamma * np.outer(v, v)


def unit_diagonal(block: np.ndarray) -> np.ndarray:
    """D^-1/2 B D^-1/2 with D = |diag B|, and 1 where |diag B| is not > 0."""
    d = np.abs(np.diag(block))
    r = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    return block * np.outer(r, r)


def inertia_positive(block: np.ndarray) -> bool:
    return bool(np.all(np.linalg.eigvalsh(unit_diagonal(block)) > 0))


def build_report(masses: MassTriple, q, mu1: float, mu2: float):
    """The report from a fresh kernel call and one eigvalsh call per block."""
    q = np.asarray(q, dtype=float)
    energy, grad, hess_v = equilibria.effective_potential_kernel(masses, q.tolist(), mu1, mu2)
    hess = np.zeros((8, 8))
    hess[0:4, 0:4] = hess_v
    hess[4:8, 4:8] = momentum_block(masses, q, mu1, mu2)
    vq_eigs = np.linalg.eigvalsh(hess[0:4, 0:4])
    kin_eigs = np.linalg.eigvalsh(hess[4:8, 4:8])
    if not inertia_positive(hess[0:4, 0:4]):
        cls = "saddle"
    else:
        cls = "minimum" if inertia_positive(hess[4:8, 4:8]) else "indefinite-K"
    om1, om2, kep1, kep2 = equilibria.frequencies(masses, q, mu1, mu2)
    return equilibria.EquilibriumReport(
        q=q, mu1=mu1, mu2=mu2, masses=masses, hessian=hess,
        eigenvalues=np.concatenate([vq_eigs, kin_eigs]),
        classification=cls,
        omega1=om1, omega2=om2, h=(mu1 + mu2) ** 2 * energy,
        b=mu1 * mu2 / (mu1 + mu2) ** 2,
        gradient_norm=float(np.linalg.norm(grad)),
        keff_coefficient=equilibria.keff_correction(masses, q, mu1, mu2),
        energy=energy, kepler1=kep1, kepler2=kep2,
    )
