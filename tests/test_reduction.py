"""Rotation chart, lift/projection, invariant set, reduced Hamiltonian."""

import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from threebody4d import dynamics, equilibria, model, reduction
from threebody4d.errors import (
    ChartSingular,
    DegenerateMomenta,
    DegeneratePlane,
    KineticDomainError,
)

import oracles
from conftest import (angle, chart_q, momenta, p_psi, p_theta, random_chart_point,
                      random_reduced_state)

MASSES = model.MassTriple(1.0, 2.0, 3.0)
MU1, MU2 = 1.3, 0.4

J16 = np.zeros((16, 16))
J16[0:8, 8:16] = np.eye(8)
J16[8:16, 0:8] = -np.eye(8)


def test_rotation_matrix_identity():
    m = oracles.rotation_matrix(reduction.RotationAngles(0.0, 0.0, 0.0, 0.0))
    assert np.allclose(m, np.eye(4))


def test_rotation_matrix_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(10):
        ang = reduction.RotationAngles(*rng.uniform(-3, 3, size=4))
        m = oracles.rotation_matrix(ang)
        assert np.max(np.abs(m.T @ m - np.eye(4))) < 1e-13
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_theta_factors_commute():
    rng = np.random.default_rng(1)
    th1, th2 = rng.uniform(-3, 3, size=2)
    a = oracles.plane_rotation(0, 1, th1) @ oracles.plane_rotation(2, 3, th2)
    b = oracles.plane_rotation(2, 3, th2) @ oracles.plane_rotation(0, 1, th1)
    assert np.max(np.abs(a - b)) < 1e-14


def test_lift_zero_momenta():
    rng = np.random.default_rng(2)
    part = random_chart_point(rng)
    part = reduction.PartialState(q=part.q, p=np.zeros(4), angles=part.angles,
                                  p_psi=np.zeros(2), p_theta=np.zeros(2))
    full = reduction.lift_to_full(part)
    m = oracles.rotation_matrix(part.angles)
    assert np.allclose(full.x1, m @ np.array([part.q[0], part.q[1], 0, 0]))
    assert np.allclose(full.x2, m @ np.array([part.q[2], part.q[3], 0, 0]))
    assert np.allclose(full.y1, 0) and np.allclose(full.y2, 0)


def test_lift_writes_no_negative_zero():
    # mu2 = 0 puts psi2 at 0, where the rotations meet exact zeros; the CLI
    # prints the lifted start, and its zeros keep the matrix lift's "0"
    for q, p in (([0.5, 0.0, 0.0, 2.0], [-0.6, 0.0, 0.0, 0.0]),
                 ([1.1, 0.1, -0.2, 0.9], [0.1, 0.2, 0.0, 0.1])):
        emb = reduction.embed_reduced(reduction.ReducedState(q, p, 1.0, 0.0))
        z = reduction.full_to_array(reduction.lift_to_full(emb))
        assert np.count_nonzero(z == 0.0) >= 4
        assert not np.any(np.signbit(z[z == 0.0]))


def test_lift_symplectic():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        part = random_chart_point(rng)
        d = reduction.lift_jacobian(part)
        worst = max(worst, float(np.max(np.abs(d.T @ J16 @ d - J16))))
    assert worst < 1e-9


def test_configuration_jacobian_determinant():
    rng = np.random.default_rng(4)
    for _ in range(10):
        part = random_chart_point(rng)
        u = oracles.configuration_jacobian(part)
        det = np.linalg.det(u)
        closed = reduction.configuration_jacobian_det(part)
        assert det == pytest.approx(closed, rel=1e-10)


def test_lift_chart_singular():
    part = random_chart_point(np.random.default_rng(5))
    bad = reduction.PartialState(
        q=part.q, p=part.p,
        angles=reduction.RotationAngles(0.7, 0.7, 0.0, 0.0),
        p_psi=part.p_psi, p_theta=part.p_theta)
    with pytest.raises(ChartSingular):
        reduction.lift_to_full(bad)


def test_project_round_trip():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        part = random_chart_point(rng)
        full = reduction.lift_to_full(part)
        back = reduction.lift_to_full(reduction.project_to_partial(full))
        err = max(np.max(np.abs(full.x1 - back.x1)), np.max(np.abs(full.x2 - back.x2)),
                  np.max(np.abs(full.y1 - back.y1)), np.max(np.abs(full.y2 - back.y2)))
        worst = max(worst, err)
    assert worst < 1e-8


def test_project_round_trip_wide_angles():
    # negative and mixed-sign psi, theta near +-pi
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(50):
        part = random_chart_point(rng)
        sgn1, sgn2 = rng.choice([-1.0, 1.0], size=2)
        ang = reduction.RotationAngles(sgn1 * part.angles.psi1,
                                       sgn2 * part.angles.psi2,
                                       rng.uniform(-math.pi, math.pi),
                                       rng.uniform(-math.pi, math.pi))
        try:
            ang.require_valid()
        except Exception:
            continue
        moved = reduction.PartialState(q=part.q, p=part.p, angles=ang,
                                       p_psi=part.p_psi, p_theta=part.p_theta)
        full = reduction.lift_to_full(moved)
        back = reduction.lift_to_full(reduction.project_to_partial(full))
        err = max(np.max(np.abs(full.x1 - back.x1)), np.max(np.abs(full.x2 - back.x2)),
                  np.max(np.abs(full.y1 - back.y1)), np.max(np.abs(full.y2 - back.y2)))
        worst = max(worst, err)
    assert worst < 1e-8


def test_chart_images_lift_identically():
    rng = np.random.default_rng(27)
    for _ in range(5):
        part = random_chart_point(rng)
        ref = reduction.full_to_array(reduction.lift_to_full(part))
        images = reduction.chart_images(part)
        assert len(images) == 8
        for img in images:
            z = reduction.full_to_array(reduction.lift_to_full(img))
            assert np.max(np.abs(z - ref)) < 1e-12


def test_project_normal_form():
    full = model.FullState([1.2, 0, 0, 0], [0, 0.7, 0, 0], np.zeros(4), np.zeros(4))
    part = reduction.project_to_partial(full)
    assert np.allclose(part.q, [1.2, 0.0, 0.0, 0.7])
    assert np.allclose(part.p, 0)
    assert part.angles.psi1 == 0 and part.angles.psi2 == 0
    assert np.allclose(part.p_theta, 0) and np.allclose(part.p_psi, 0)


def test_project_collinear_raises():
    with pytest.raises(DegeneratePlane):
        reduction.project_to_partial(model.FullState(
            [1, 0.5, 0, 0], [2, 1.0, 0, 0], np.zeros(4), np.zeros(4)))


def _cos2_gap(psi):
    return abs(math.cos(2 * psi[0]) - math.cos(2 * psi[1]))


# psi2 = psi1 + d with |d| log-uniform in [1e-6, 1]: pairs from well inside the
# chart down to |cos 2psi1 - cos 2psi2| = 1e-6, near its singular set
near_psi_pair = st.builds(lambda a, x, s: (a, a + s * 10.0 ** x), st.floats(0.25, 1.3),
                          st.floats(-6.0, 0.0), st.sampled_from((-1.0, 1.0))).filter(
    lambda a: 0.25 <= a[1] <= 1.3 and _cos2_gap(a) >= 1e-6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(q=chart_q, p=momenta, psi=near_psi_pair, theta=st.tuples(angle, angle),
       pp=p_psi, pt=p_theta)
def test_hamiltonian_partial_matches_full(q, p, psi, theta, pp, pt):
    # H_partial = H_full o lift at chart points off the invariant set
    part = reduction.PartialState(q=q, p=p, angles=reduction.RotationAngles(*psi, *theta),
                                  p_psi=pp, p_theta=pt)
    hp = reduction.hamiltonian_partial(MASSES, part)
    hf = model.hamiltonian_full(MASSES, reduction.lift_to_full(part))
    assert hp == pytest.approx(hf, rel=1e-10)


def test_hamiltonian_partial_theta_independent():
    rng = np.random.default_rng(8)
    part = random_chart_point(rng)
    h0 = reduction.hamiltonian_partial(MASSES, part)
    for dth1, dth2 in ((1e-4, 0.0), (0.0, 1e-4), (0.3, -1.1)):
        ang = reduction.RotationAngles(part.angles.psi1, part.angles.psi2,
                                       part.angles.theta1 + dth1,
                                       part.angles.theta2 + dth2)
        moved = reduction.PartialState(q=part.q, p=part.p, angles=ang,
                                       p_psi=part.p_psi, p_theta=part.p_theta)
        assert abs(reduction.hamiltonian_partial(MASSES, moved) - h0) < 1e-9


def test_hamiltonian_partial_zero_momenta_is_potential():
    rng = np.random.default_rng(9)
    part = random_chart_point(rng)
    rest = reduction.PartialState(q=part.q, p=np.zeros(4), angles=part.angles,
                                  p_psi=np.zeros(2), p_theta=np.zeros(2))
    q = rest.q
    s = model.ScalarProducts(q[0] ** 2 + q[1] ** 2, q[2] ** 2 + q[3] ** 2,
                             q[0] * q[2] + q[1] * q[3])
    assert reduction.hamiltonian_partial(MASSES, rest) == pytest.approx(
        model.potential_derivatives(MASSES, s)[0], rel=1e-14)


def test_angular_momentum_partial_matches_conjugated():
    rng = np.random.default_rng(10)
    for _ in range(20):
        part = random_chart_point(rng)
        lhat = oracles.angular_momentum_partial(part)
        full = reduction.lift_to_full(part)
        l = model.angular_momentum(full).matrix
        mth = oracles.theta_rotation(part.angles)
        assert np.max(np.abs(mth.T @ l @ mth - lhat)) < 1e-10


def test_angular_momentum_partial_on_invariant_set():
    rng = np.random.default_rng(11)
    for _ in range(10):
        red = random_reduced_state(rng, MU1, MU2)
        part = reduction.embed_reduced(red)
        lhat = oracles.angular_momentum_partial(part)
        target = np.zeros((4, 4))
        target[0, 1], target[1, 0] = -MU1, MU1
        target[2, 3], target[3, 2] = -MU2, MU2
        assert np.max(np.abs(lhat - target)) < 1e-12


def test_invariant_set_residual_of_embedding():
    rng = np.random.default_rng(12)
    for _ in range(10):
        red = random_reduced_state(rng, MU1, MU2)
        part = reduction.embed_reduced(red)
        res = reduction.invariant_set_residual(part, MU1, MU2)
        assert np.max(np.abs(res)) < 1e-13


def test_invariant_set_residual_perturbation():
    rng = np.random.default_rng(13)
    red = random_reduced_state(rng, MU1, MU2)
    part = reduction.embed_reduced(red)
    eps = 3e-4
    bumped = reduction.PartialState(q=part.q, p=part.p, angles=part.angles,
                                    p_psi=np.array([eps, 0.0]),
                                    p_theta=part.p_theta)
    res = reduction.invariant_set_residual(bumped, MU1, MU2)
    assert res[0] == pytest.approx(eps)


def test_invariant_set_drift_under_flow():
    rng = np.random.default_rng(14)
    field = dynamics.partial_field(MASSES)
    cfg = dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    mons = dynamics.partial_monitors(MASSES, MU1, MU2)
    for _ in range(3):
        red = random_reduced_state(rng, MU1, MU2)
        z0 = reduction.partial_to_array(reduction.embed_reduced(red))
        rec = dynamics.integrate(field, z0, 2.0, cfg, monitors=mons)
        assert rec.domain_exit is None
        assert rec.n_steps > 500
        for i in range(1, 5):
            assert np.max(np.abs(rec.monitors[f"c{i}"])) < 1e-8


def test_restriction_matrix_on_invariant_set():
    rng = np.random.default_rng(15)
    for _ in range(10):
        red = random_reduced_state(rng, MU1, MU2)
        part = reduction.embed_reduced(red)
        amat, det = reduction.restriction_matrix_A(part)
        target = (MU1 ** 2 - MU2 ** 2) ** 2
        assert det == pytest.approx(target, rel=1e-9)
        # only +-p_theta_i entries survive on the invariant set
        expected = np.zeros((4, 4))
        for (i, j), v in (((0, 2), -MU1), ((0, 3), -MU2),
                          ((1, 2), MU2), ((1, 3), MU1)):
            expected[i, j] = v
            expected[j, i] = -v
        assert np.max(np.abs(amat - expected)) < 1e-10


def test_restriction_matrix_brackets_fd():
    # finite-difference Poisson bracket oracle for the hard-coded entries
    rng = np.random.default_rng(16)
    part = random_chart_point(rng)
    z0 = reduction.partial_to_array(part)

    def constraint(i):
        def f(z):
            lhat = oracles.angular_momentum_partial(reduction.array_to_partial(z))
            return (lhat[0, 2], lhat[1, 3], lhat[1, 2], lhat[0, 3])[i]
        return f

    def grad(fn):
        g = np.zeros(16)
        for k in range(16):
            h = 1e-6 * max(1.0, abs(z0[k]))
            zp, zm = z0.copy(), z0.copy()
            zp[k] += h
            zm[k] -= h
            g[k] = (fn(zp) - fn(zm)) / (2 * h)
        return g

    grads = [grad(constraint(i)) for i in range(4)]
    amat, _ = reduction.restriction_matrix_A(part)
    for i in range(4):
        for j in range(4):
            pb = float(grads[i][:8] @ grads[j][8:] - grads[i][8:] @ grads[j][:8])
            assert amat[i, j] == pytest.approx(pb, abs=5e-9)


def test_restriction_matrix_det_general():
    rng = np.random.default_rng(17)
    for _ in range(10):
        part = random_chart_point(rng)
        _, det = reduction.restriction_matrix_A(part)
        closed = reduction.restriction_matrix_det_closed(part)
        assert det == pytest.approx(closed, rel=1e-8)


def test_kinetic_f_zero_l3():
    # f(qi, qj, 0) = (mu1^2 qi^2 + mu2^2 qj^2) / (4 A^2)
    qi, qj, area = 1.2, -0.7, 0.43
    f = reduction.kinetic_f(qi, qj, 0.0, MU1, MU2, area)
    ref = (MU1 ** 2 * qi ** 2 + MU2 ** 2 * qj ** 2) / (4 * area ** 2)
    assert f == pytest.approx(ref, rel=1e-14)


def test_kinetic_f_equal_momenta_boundary():
    # mu2 = mu1 forces Delta = 0: only L3 = 0 is allowed, and L_d = 0 there
    f = reduction.kinetic_f(1.0, 2.0, 0.0, 0.9, 0.9, 0.5)
    sig = 1.8
    ref = (sig ** 2 * 1.0 + sig ** 2 * 4.0) / (16 * 0.25)
    assert f == pytest.approx(ref, rel=1e-14)
    with pytest.raises(KineticDomainError):
        reduction.kinetic_f(1.0, 2.0, 0.1, 0.9, 0.9, 0.5)


def test_kinetic_f_matches_restricted_tilde():
    rng = np.random.default_rng(18)
    for _ in range(20):
        red = random_reduced_state(rng, MU1, MU2)
        part = reduction.embed_reduced(red)
        hp = reduction.hamiltonian_partial(MASSES, part)
        hr = reduction.hamiltonian_reduced(MASSES, red)
        assert hr == pytest.approx(hp, rel=1e-10)


def test_hamiltonian_reduced_momentum_homogeneity():
    rng = np.random.default_rng(19)
    for _ in range(10):
        red = random_reduced_state(rng, MU1, MU2)
        q = red.q
        s = model.ScalarProducts(q[0] ** 2 + q[1] ** 2, q[2] ** 2 + q[3] ** 2,
                                 q[0] * q[2] + q[1] * q[3])
        v = model.potential_derivatives(MASSES, s)[0]
        kin0 = reduction.hamiltonian_reduced(MASSES, red) - v
        lam = 1.73
        scaled = reduction.ReducedState(red.q, lam * red.p, lam * MU1, lam * MU2)
        kin1 = reduction.hamiltonian_reduced(MASSES, scaled) - v
        assert kin1 == pytest.approx(lam ** 2 * kin0, rel=1e-12)


def test_hamiltonian_reduced_rest_is_effective_potential():
    from threebody4d import equilibria
    rng = np.random.default_rng(20)
    red = random_reduced_state(rng, MU1, MU2)
    rest = reduction.ReducedState(red.q, np.zeros(4), MU1, MU2)
    assert reduction.hamiltonian_reduced(MASSES, rest) == pytest.approx(
        equilibria.effective_potential(MASSES, red.q, MU1, MU2), rel=1e-12)


def test_reduced_state_validation():
    with pytest.raises(DegenerateMomenta):
        reduction.ReducedState([1, 0, 0, 1], np.zeros(4), 0.5, 0.5)
    with pytest.raises(ValueError):
        reduction.ReducedState([1, 0, 0, 1], np.zeros(4), 0.5, -0.1)
    for mu1, mu2 in ((math.nan, 0.3), (1.0, math.nan), (math.inf, 0.3)):
        with pytest.raises(ValueError, match="finite"):
            reduction.ReducedState([1, 0, 0, 1], np.zeros(4), mu1, mu2)


def test_embed_requires_kinetic_domain():
    q = np.array([1.0, 0.0, 0.0, 1.0])
    p = np.array([0.0, 1.0, 0.0, 0.0])  # L3 = 1
    red = reduction.ReducedState(q, p, 1.2, 0.5)  # Delta = 0.7 < |L3|
    with pytest.raises(KineticDomainError):
        reduction.embed_reduced(red)


def test_embed_zero_l3_right_angles():
    rng = np.random.default_rng(21)
    red = random_reduced_state(rng, MU1, MU2)
    rest = reduction.ReducedState(red.q, np.zeros(4), MU1, MU2)
    part = reduction.embed_reduced(rest)
    assert part.angles.delta == pytest.approx(math.pi / 2)
    assert part.angles.sigma == pytest.approx(math.pi / 2)


def test_embed_theta_free_parameters():
    rng = np.random.default_rng(22)
    red = random_reduced_state(rng, MU1, MU2)
    h0 = reduction.hamiltonian_partial(MASSES, reduction.embed_reduced(red))
    for th1, th2 in ((0.4, 0.0), (0.0, -1.2), (2.0, 0.7)):
        h = reduction.hamiltonian_partial(
            MASSES, reduction.embed_reduced(red, theta1=th1, theta2=th2))
        assert abs(h - h0) < 1e-12 * max(1.0, abs(h0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(q=chart_q, p=momenta, mu1=st.floats(0.8, 2.0), ratio=st.floats(0.05, 0.85),
       theta=st.tuples(angle, angle))
def test_reduced_partial_and_lifted_kinetic_energies_agree(q, p, mu1, ratio, theta):
    # the reduction acts on the kinetic part alone: H - V agrees at every
    # level, whatever V of the scalar products is added
    red = reduction.ReducedState(q, p, mu1, ratio * mu1)
    assume(abs(red.l3) < 0.8 * (red.mu1 - red.mu2))
    v = model.potential_derivatives(MASSES, model.ScalarProducts(
        q[0] ** 2 + q[1] ** 2, q[2] ** 2 + q[3] ** 2, q[0] * q[2] + q[1] * q[3]))[0]
    emb = reduction.embed_reduced(red, *theta)
    kin_partial = reduction.hamiltonian_partial(MASSES, emb) - v
    assert reduction.hamiltonian_reduced(MASSES, red) - v == pytest.approx(kin_partial,
                                                                          rel=1e-12)
    full = reduction.lift_to_full(emb)
    kin_full = (full.y1 @ full.y1) / (2 * MASSES.nu1) + (full.y2 @ full.y2) / (2 * MASSES.nu2)
    assert kin_full == pytest.approx(kin_partial, rel=1e-12)


def test_chart_failure_raises_not_nan():
    part = random_chart_point(np.random.default_rng(23))
    flat = reduction.PartialState(
        q=np.array([1.0, 2.0, 0.5, 1.0]),  # A = 0
        p=part.p, angles=part.angles, p_psi=part.p_psi, p_theta=part.p_theta)
    with pytest.raises(ChartSingular):
        reduction.hamiltonian_partial(MASSES, flat)
    with pytest.raises(ChartSingular):
        reduction.lift_to_full(flat)


# --- the chart floors: one check, one message, in every chart kernel ---------

def _chart_values(q, psi=(0.4, 1.1)):
    """16 chart values with configuration q and angles psi, off the invariant set."""
    return list(q) + list(psi) + [0.3, -0.5, 0.2, -0.1, 0.3, 0.1, 0.2, -0.3, MU1, MU2]


def _veff_decimal(q):
    with localcontext(Context(prec=40)):
        masses = model.MassTriple(Decimal(1), Decimal(2), Decimal(3))
        return equilibria.effective_potential_kernel(
            masses, [Decimal(v) for v in q], Decimal(MU1), Decimal(MU2))


AREA_FLOOR_KERNELS = {
    "reduced_field": lambda q: dynamics.reduced_field(MASSES, MU1, MU2).kernel(
        0.0, q + [0.1, 0.2, 0.0, 0.1]),
    "partial_field": lambda q: dynamics.partial_field(MASSES).kernel(0.0, _chart_values(q)),
    "reduced_values_kernel": lambda q: reduction.reduced_values_kernel(MASSES, MU1, MU2)(
        q + [0.1, 0.2, 0.0, 0.1]),
    "partial_values_kernel": lambda q: reduction.partial_values_kernel(MASSES, MU1, MU2)(
        _chart_values(q)),
    "lift_to_full": lambda q: reduction.lift_to_full(
        reduction.array_to_partial(_chart_values(q))),
    "effective_potential_kernel": lambda q: equilibria.effective_potential_kernel(
        MASSES, q, MU1, MU2),
    "effective_potential_kernel_decimal": _veff_decimal,
}


@pytest.mark.parametrize("evaluate", AREA_FLOOR_KERNELS.values(), ids=AREA_FLOOR_KERNELS)
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_area_floor_is_one_check(evaluate, sign):
    # x1 = (1, 0), x2 = (1, 2a): the oriented area is a, and no two bodies collide
    def q(a):
        return [1.0, 0.0, 1.0, 2.0 * sign * a]
    with pytest.raises(ChartSingular, match=r"^oriented area A = \S+ too small$"):
        evaluate(q(model.AREA_TOL / 2))
    evaluate(q(2 * model.AREA_TOL))


def _psi_with_gap(gap):
    """(psi1, psi2) with cos 2psi1 - cos 2psi2 = gap, up to rounding."""
    psi1 = 0.6
    return psi1, 0.5 * math.acos(math.cos(2 * psi1) - gap)


Q_CHART = [1.1, 0.1, -0.2, 0.9]
PSI_FLOOR_KERNELS = {
    "partial_field": lambda psi: dynamics.partial_field(MASSES).kernel(
        0.0, _chart_values(Q_CHART, psi)),
    "partial_values_kernel": lambda psi: reduction.partial_values_kernel(MASSES, MU1, MU2)(
        _chart_values(Q_CHART, psi)),
    "lift_to_full": lambda psi: reduction.lift_to_full(
        reduction.array_to_partial(_chart_values(Q_CHART, psi))),
    "require_valid": lambda psi: reduction.RotationAngles(*psi).require_valid(),
}


@pytest.mark.parametrize("evaluate", PSI_FLOOR_KERNELS.values(), ids=PSI_FLOOR_KERNELS)
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_psi_floor_is_one_check(evaluate, sign):
    psi = _psi_with_gap(sign * reduction.PSI_TOL / 2)
    assert _cos2_gap(psi) == pytest.approx(reduction.PSI_TOL / 2, rel=1e-4)
    with pytest.raises(ChartSingular, match=r"^cos\(2 psi1\) == cos\(2 psi2\)$"):
        evaluate(psi)
    psi = _psi_with_gap(sign * 2 * reduction.PSI_TOL)
    assert _cos2_gap(psi) == pytest.approx(2 * reduction.PSI_TOL, rel=1e-4)
    evaluate(psi)
