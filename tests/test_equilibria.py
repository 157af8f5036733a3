"""Effective potential, isosceles and general-mass equilibria, stability."""

import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import threebody4d
from threebody4d import equilibria, model, reduction
from threebody4d.errors import DegenerateMomenta, NoConvergence

import oracles
from conftest import (bisect, central_gradient, hessian_fd, random_reduced_state,
                      singular_newton_system)

MASSES = model.MassTriple(1.0, 2.0, 3.0)
EQUAL = model.MassTriple(1.0, 1.0, 1.0)
MU1, MU2 = 1.3, 0.4


# --- effective potential ------------------------------------------------------

def test_effective_potential_matches_reduced_at_rest():
    rng = np.random.default_rng(0)
    for _ in range(10):
        red = random_reduced_state(rng, MU1, MU2)
        rest = reduction.ReducedState(red.q, np.zeros(4), MU1, MU2)
        assert equilibria.effective_potential(MASSES, red.q, MU1, MU2) == \
            pytest.approx(reduction.hamiltonian_reduced(MASSES, rest), rel=1e-12)


def test_effective_potential_gradient_fd():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        red = random_reduced_state(rng, MU1, MU2)
        g = equilibria.effective_potential_gradient(MASSES, red.q, MU1, MU2)
        fd = central_gradient(
            lambda q: equilibria.effective_potential(MASSES, q, MU1, MU2), red.q)
        worst = max(worst, float(np.max(np.abs(g - fd)))
                    / max(1.0, float(np.max(np.abs(fd)))))
    assert worst < 1e-7


def test_effective_potential_hessian_fd():
    rng = np.random.default_rng(2)
    red = random_reduced_state(rng, MU1, MU2)
    hess = equilibria.effective_potential_hessian(MASSES, red.q, MU1, MU2)
    fd = hessian_fd(
        lambda q: equilibria.effective_potential(MASSES, q, MU1, MU2), red.q)
    assert np.max(np.abs(hess - fd)) / np.max(np.abs(fd)) < 1e-8


def test_equilateral_shape_is_critical():
    # t = 2 - sqrt(3) gives rho = 2/sqrt(3); with the solved momenta the
    # full effective-potential gradient vanishes there
    t_eq = equilibria.EQUILATERAL_T
    assert equilibria.rho_from_t(t_eq) == pytest.approx(2 / math.sqrt(3.0))
    rep = equilibria.isosceles_equilibrium(1.0, t_eq)
    g = equilibria.effective_potential_gradient(EQUAL, rep.q, rep.mu1, rep.mu2)
    assert abs(g[0]) < 1e-12 and abs(g[3]) < 1e-12


def test_keff_correction_taylor():
    # d^2 f / d L3^2 at L3 = 0 equals 2 c2 for each block; test the combined
    # coefficient against finite differences in L3
    rng = np.random.default_rng(3)
    for _ in range(10):
        red = random_reduced_state(rng, MU1, MU2)
        q = red.q
        area = red.area
        gamma = equilibria.keff_correction(MASSES, q, MU1, MU2)
        h = 1e-2

        def kin(l3):
            return (reduction.kinetic_f(q[2], q[3], l3, MU1, MU2, area)
                    / (2 * MASSES.nu1)
                    + reduction.kinetic_f(q[0], q[1], l3, MU1, MU2, area)
                    / (2 * MASSES.nu2))

        # fourth-order central stencil for d^2/dL3^2 at 0
        second = (-kin(2 * h) + 16 * kin(h) - 30 * kin(0.0)
                  + 16 * kin(-h) - kin(-2 * h)) / (12 * h ** 2)
        assert second == pytest.approx(2 * gamma, rel=1e-8)


def test_keff_correction_signs():
    rng = np.random.default_rng(4)
    red = random_reduced_state(rng, MU1, MU2)
    # mu2 = 0 at generic q: coefficient is -I1^-1/2 < 0
    gamma0 = equilibria.keff_correction(MASSES, red.q, MU1, 0.0)
    i1inv, _ = equilibria.moments_of_inertia_inv(MASSES, red.q)
    assert gamma0 == pytest.approx(-0.5 * i1inv, rel=1e-12)
    assert gamma0 < 0
    # at the small-mu2 general equilibrium the q1 = O(mu2^2) mechanism wins
    seed = equilibria.general_series_equilibrium(MASSES, 1e-2)
    rep = equilibria.newton_equilibrium(MASSES, seed.mu1, seed.mu2, seed.q)
    assert rep.keff_coefficient > 0
    with pytest.raises(DegenerateMomenta):
        equilibria.keff_correction(MASSES, red.q, 0.7, 0.7)


# --- isosceles family ----------------------------------------------------------

def test_isosceles_conditions_residual():
    for n in (0.5, 1.0, 2.0, 5.0):
        for t in (0.05, 0.2, 0.268, 0.5, 0.9):
            mu1sq, mu2sq, q1 = equilibria.isosceles_momenta(n, t)
            m, m1, q4 = 1.0, n, 1.0
            r32 = (q1 ** 2 + 4 * q4 ** 2) ** 1.5
            nu1, nu2 = 0.5, 2 * n / (2 + n)
            c1 = m * m / q1 ** 2 + 4 * m * m1 * q1 / r32 - mu2sq / (nu1 * q1 ** 3)
            c2 = 16 * m * m1 * q4 / r32 - mu1sq / (nu2 * q4 ** 3)
            assert abs(c1) < 1e-12 and abs(c2) < 1e-12


def test_isosceles_gradient_vanishes():
    for n, t in ((1.0, 0.1), (2.0, 0.25), (0.7, 0.6)):
        rep = equilibria.isosceles_equilibrium(n, t)
        mm = model.MassTriple(n, 1.0, 1.0)
        g = equilibria.effective_potential_gradient(mm, rep.q, rep.mu1, rep.mu2)
        assert np.max(np.abs(g)) < 1e-12


def test_isosceles_hessian_blocks_match_numerical():
    n, t = 1.4, 0.18
    rep = equilibria.isosceles_equilibrium(n, t)
    mm = model.MassTriple(n, 1.0, 1.0)
    q23, q14, p23, inv_nu1, inv_nu2 = equilibria.isosceles_hessian_blocks(n, t)
    z0 = np.concatenate([rep.q, np.zeros(4)])

    def ham(z):
        return reduction.hamiltonian_reduced(
            mm, reduction.ReducedState(z[0:4], z[4:8], rep.mu1, rep.mu2))

    h8 = hessian_fd(ham, z0, h=1e-3)
    scale = np.max(np.abs(h8))
    assert np.max(np.abs(q23 - h8[np.ix_([1, 2], [1, 2])])) / scale < 1e-8
    assert np.max(np.abs(q14 - h8[np.ix_([0, 3], [0, 3])])) / scale < 1e-8
    assert np.max(np.abs(p23 - h8[np.ix_([5, 6], [5, 6])])) / scale < 1e-8
    assert abs(inv_nu1 - h8[4, 4]) / scale < 1e-8
    assert abs(inv_nu2 - h8[7, 7]) / scale < 1e-8


def test_isosceles_hessian_block_diagonal():
    n, t = 1.0, 0.22
    rep = equilibria.isosceles_equilibrium(n, t)
    mm = model.MassTriple(n, 1.0, 1.0)
    z0 = np.concatenate([rep.q, np.zeros(4)])

    def ham(z):
        return reduction.hamiltonian_reduced(
            mm, reduction.ReducedState(z[0:4], z[4:8], rep.mu1, rep.mu2))

    h8 = hessian_fd(ham, z0, h=1e-3)
    mask = np.ones((8, 8), dtype=bool)
    for idx in ([1, 2], [0, 3], [5, 6], [4], [7]):
        mask[np.ix_(idx, idx)] = False
    assert np.max(np.abs(h8[mask])) < 1e-9


def test_isosceles_small_t_eigenvalue_series():
    n, t = 1.0, 1e-3
    q23, q14, p23, _, _ = equilibria.isosceles_hessian_blocks(n, t)
    ser = equilibria.isosceles_eigenvalue_series(n, t)
    for block, key in ((q23, "q23"), (q14, "q14"), (p23, "p23")):
        eigs = np.sort(np.linalg.eigvalsh(block))
        pred = np.sort(np.array(ser[key]))
        assert np.all(np.abs(eigs - pred) / np.abs(eigs) < 1e-3)


def test_isosceles_frequencies_closed_form():
    for n, t in ((1.0, 0.1), (2.5, 0.4), (0.6, 0.7)):
        rep = equilibria.isosceles_equilibrium(n, t)
        om1 = math.sqrt((2 + n)) * ((1 - t * t) / (1 + t * t)) ** 1.5
        q1 = equilibria.rho_from_t(t)
        om2 = math.sqrt(2 / q1 ** 3) * math.sqrt(1 + 32 * n * t ** 3 / (1 + t * t) ** 3)
        assert rep.omega1 == pytest.approx(om1, rel=1e-10)
        assert rep.omega2 == pytest.approx(om2, rel=1e-10)
        ratio_sq = equilibria.isosceles_frequency_ratio_sq(n, t)
        assert (rep.omega2 / rep.omega1) ** 2 == pytest.approx(ratio_sq, rel=1e-9)


def test_p23_determinant_flips_at_equilateral():
    # with mu1^2 > mu2^2 fixed, the (p2,p3)-block determinant changes sign
    # exactly at t = 2 - sqrt(3)
    n = 3.0  # P2 > 0 on both sides of t_eq for this n
    t_eq = equilibria.EQUILATERAL_T
    for t, positive in ((t_eq - 1e-3, True), (t_eq + 1e-3, False)):
        _, p2 = equilibria.stability_polynomials(n, t)
        assert p2 > 0  # mu1 > mu2 here
        _, _, p23, _, _ = equilibria.isosceles_hessian_blocks(n, t)
        det = np.linalg.det(p23)
        assert (det > 0) == positive
    # determinant goes through zero at t_eq
    f = lambda t: np.linalg.det(equilibria.isosceles_hessian_blocks(n, t)[2])
    root = bisect(f, t_eq - 1e-3, t_eq + 1e-3)
    assert abs(root - t_eq) < 1e-9


# --- stability polynomials and regions -----------------------------------------

def test_p1_small_t_limit():
    for n in (0.5, 1.0, 10.0):
        p1, _ = equilibria.stability_polynomials(n, 1e-9)
        assert p1 == pytest.approx(-1.0, abs=1e-6)


def test_p2_zero_matches_momentum_crossing():
    for n in (0.7, 1.0, 3.0):
        f = lambda t: equilibria.stability_polynomials(n, t)[1]
        g = lambda t: (equilibria.isosceles_momenta(n, t)[0]
                       - equilibria.isosceles_momenta(n, t)[1])
        t_p2 = bisect(f, 0.05, 0.6)
        t_mu = bisect(g, 0.05, 0.6)
        assert abs(t_p2 - t_mu) < 1e-6


def test_p2_asymptote():
    f = lambda t: equilibria.stability_polynomials(1e6, t)[1]
    root = bisect(f, 0.3, 0.45)
    assert abs(root - (math.sqrt(2.0) - 1.0)) < 1e-3


def test_region_minimum_near_n_axis():
    lab = equilibria.region_classification(1.0, 0.01)
    assert lab.minimum and lab.adjacent_to_n_axis
    rep = equilibria.isosceles_equilibrium(1.0, 0.01)
    assert rep.classification == "minimum"
    assert np.all(rep.eigenvalues > 0)


def test_region_boundary_label():
    lab = equilibria.region_classification(1.0, equilibria.EQUILATERAL_T)
    assert lab.boundary and lab.name == "boundary"


def test_region_labels_consistent_with_eigenvalues():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = rng.uniform(0.1, 5.0)
        t = rng.uniform(0.02, 0.98)
        lab = equilibria.region_classification(n, t)
        if lab.boundary:
            continue
        q23, q14, p23, i1, i2 = equilibria.isosceles_hessian_blocks(n, t)
        eigs = np.concatenate([np.linalg.eigvalsh(q23), np.linalg.eigvalsh(q14),
                               np.linalg.eigvalsh(p23), [i1, i2]])
        assert int(np.sum(eigs < 0)) == equilibria.predicted_negative_count(n, t)
        assert lab.minimum == bool(np.all(eigs > 0))


# --- general masses -------------------------------------------------------------

def test_solvability_identity():
    # (-q2, q1, -q4, q3) . grad V_eff is proportional to the solvability
    # residual: -(mu1^2 - mu2^2) * (q1 q2 nu1 + q3 q4 nu2)/(4 A^2 nu1 nu2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        red = random_reduced_state(rng, MU1, MU2)
        q = red.q
        g = equilibria.effective_potential_gradient(MASSES, q, MU1, MU2)
        kernel = np.array([-q[1], q[0], -q[3], q[2]])
        lhs = float(kernel @ g)
        area = red.area
        rhs = -(MU1 ** 2 - MU2 ** 2) * equilibria.solvability_residual(MASSES, q) \
            / (4 * area ** 2 * MASSES.nu1 * MASSES.nu2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_kernel_orthogonal_at_equilibrium():
    rep = equilibria.isosceles_equilibrium(1.2, 0.15)
    mm = model.MassTriple(1.2, 1.0, 1.0)
    q = rep.q
    g = equilibria.effective_potential_gradient(mm, q, rep.mu1, rep.mu2)
    kernel = np.array([-q[1], q[0], -q[3], q[2]])
    assert abs(float(kernel @ g)) < 1e-9


def test_solvability_at_isosceles():
    rep = equilibria.isosceles_equilibrium(1.3, 0.3)
    mm = model.MassTriple(1.3, 1.0, 1.0)
    assert equilibria.solvability_residual(mm, rep.q) == 0.0


def test_simplified_equations_vanish_at_equilibrium():
    rep = equilibria.isosceles_equilibrium(1.0, 0.2)
    mm = model.MassTriple(1.0, 1.0, 1.0)
    e = oracles.simplified_equilibrium_residual(mm, rep.q, rep.mu1, rep.mu2)
    assert np.max(np.abs(e)) < 1e-12


def test_series_symmetric_masses_exactly_isosceles():
    mm = model.MassTriple(1.7, 1.1, 1.1)
    seed = equilibria.general_series_equilibrium(mm, 1e-2)
    assert seed.q[1] == 0.0 and seed.q[2] == 0.0


def test_series_vs_newton_q1_q4():
    seed = equilibria.general_series_equilibrium(MASSES, 1e-2)
    rep = equilibria.newton_equilibrium(MASSES, seed.mu1, seed.mu2, seed.q)
    assert rep.q[0] == pytest.approx(seed.q[0], rel=1e-4)
    assert rep.q[3] == pytest.approx(seed.q[3], rel=1e-4)
    assert abs(equilibria.solvability_residual(MASSES, rep.q)) < 1e-10


def test_series_vs_newton_q2_q3_high_precision():
    seed = equilibria.general_series_equilibrium(MASSES, 1e-2)
    rep = equilibria.newton_equilibrium(MASSES, seed.mu1, seed.mu2, seed.q, dps=60)
    # two significant digits on the tiny components, sign included
    assert rep.q[1] == pytest.approx(seed.q[1], rel=5e-2)
    assert rep.q[2] == pytest.approx(seed.q[2], rel=5e-2)
    assert rep.q[1] < 0 < rep.q[2]  # m2 < m3 fixes the signs


def test_series_distances():
    # |r2 - r3| = kappa mu1^2 u^2 (1 + O(u^4))
    u = 1e-2
    seed = equilibria.general_series_equilibrium(MASSES, u)
    q = seed.q
    s11 = q[0] ** 2 + q[1] ** 2
    kappa_mu2 = seed.kappa * seed.mu1 ** 2
    assert math.sqrt(s11) == pytest.approx(kappa_mu2 * u * u, rel=1e-6)


def test_newton_equal_masses_recovers_isosceles():
    rep_iso = equilibria.isosceles_equilibrium(1.0, 0.05)
    seed_q = rep_iso.q + np.array([1e-4, 1e-5, -1e-5, -1e-4])
    rep = equilibria.newton_equilibrium(EQUAL, rep_iso.mu1, rep_iso.mu2, seed_q)
    assert abs(rep.q[1]) < 1e-10 and abs(rep.q[2]) < 1e-10
    assert rep.q[0] == pytest.approx(rep_iso.q[0], rel=1e-10)


def test_newton_minimum_classification():
    seed = equilibria.general_series_equilibrium(MASSES, 1e-2)
    rep = equilibria.newton_equilibrium(MASSES, seed.mu1, seed.mu2, seed.q)
    assert rep.classification == "minimum"
    assert np.all(rep.eigenvalues > 0)
    assert np.all(np.linalg.eigvalsh(rep.hessian[4:8, 4:8]) > 0)


def _small_u_points(n):
    """Random masses in [0.5, 2.5] and log-uniform u in [3e-5, 3e-3]."""
    rng = np.random.default_rng(9)
    for _ in range(n):
        mm = model.MassTriple(*rng.uniform(0.5, 2.5, size=3))
        yield mm, float(np.exp(rng.uniform(math.log(3e-5), math.log(3e-3))))
    # the README's general scan labelled this row a saddle by float rounding
    yield MASSES, 0.0016761601701448395


def _veff_hessian_signs_dps60(rep):
    """Signs of the V_eff Hessian eigenvalues at rep.q, from mpmath.eigsy at dps=60."""
    import mpmath

    with mpmath.workdps(60):
        mm = model.MassTriple(*(mpmath.mpf(m) for m in (rep.masses.m1, rep.masses.m2,
                                                          rep.masses.m3)))
        _, _, hess = equilibria.effective_potential_kernel(
            mm, [mpmath.mpf(float(v)) for v in rep.q], mpmath.mpf(rep.mu1),
            mpmath.mpf(rep.mu2))
        eigs, _ = mpmath.eigsy(mpmath.matrix(hess))
        return [int(mpmath.sign(e)) for e in eigs]


def test_small_u_equilibria_classified_minimum_by_scaled_inertia():
    # The raw V_eff Hessian spans ~u^-6 decades, so float64 eigvalsh can flip
    # the sign of its O(1) eigenvalue; the unit-diagonal scaling cannot.
    for mm, u in _small_u_points(40):
        seed = equilibria.general_series_equilibrium(mm, u)
        rep = equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q)
        assert rep.classification == "minimum", (mm, u)


def test_scaled_inertia_matches_dps60_eigenvalue_signs():
    # the independent answer is the inertia of the dps=60 Hessian at the same
    # q; sampled small-u minima (the README row included) and true isosceles
    # saddles beyond the equilateral line
    reps = []
    for k, (mm, u) in enumerate(_small_u_points(40)):
        if k % 8 == 0:
            seed = equilibria.general_series_equilibrium(mm, u)
            reps.append(equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q))
    saddles = [equilibria.isosceles_equilibrium(n, t) for n, t in ((1.0, 0.5), (2.0, 0.4))]
    for rep in reps + saddles:
        signs = _veff_hessian_signs_dps60(rep)
        assert (rep.classification != "saddle") == (min(signs) > 0)
    assert all(min(_veff_hessian_signs_dps60(r)) < 0 for r in saddles)
    assert all(r.classification == "saddle" for r in saddles)


def test_mp_newton_analytic_jacobian_reproduces_float_roots(monkeypatch):
    # criterion 8 inputs; the roots are those of the finite-difference
    # Jacobian solve, rounded to float; one elimination per Newton step
    solves = []
    gauss_solve = equilibria._gauss_solve
    monkeypatch.setattr(equilibria, "_gauss_solve",
                        lambda *a: solves.append(1) or gauss_solve(*a))
    expected = {
        1e-2: (9.999999999998001e-05, -5.999999874603605e-22,
               8.639999788323464e-26, 1.0000000036),
        3e-3: (9.000000000000005e-06, -3.542939999400229e-27,
               4.591650239088807e-32, 1.00000000002916),
    }
    for u, q_ref in expected.items():
        solves.clear()
        seed = equilibria.general_series_equilibrium(MASSES, u)
        rep = equilibria.newton_equilibrium(MASSES, seed.mu1, seed.mu2, seed.q, dps=60)
        assert 1 <= len(solves) <= 3
        for got, ref in zip(rep.q, q_ref):
            assert abs(got - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("k, u_ref", [(2, 4.05e-5), (13, 8.25e-5)])
def test_mp_newton_stops_at_small_u(monkeypatch, k, u_ref):
    # there the gradient is a difference of terms of order u^-6; an absolute
    # bound of 1e-45 lies below its dps=60 rounding floor, and these two
    # solves took 9 and 19 eliminations under it
    solves = []
    gauss_solve = equilibria._gauss_solve
    monkeypatch.setattr(equilibria, "_gauss_solve",
                        lambda *a: solves.append(1) or gauss_solve(*a))
    mm, u = list(_small_u_points(k + 1))[k]
    assert u == pytest.approx(u_ref, rel=1e-3)
    seed = equilibria.general_series_equilibrium(mm, u)
    equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q, dps=60)
    assert len(solves) <= 3


def test_decimal_hessian_reuses_the_gradients_square_roots(monkeypatch):
    # each gradient takes three Decimal square roots, and the Hessian at the
    # same point reuses them: 9 per two-step dps=60 solve, not 15
    roots, solves = [], []
    rsqrt, gauss_solve = model._decimal_rsqrt, equilibria._gauss_solve
    monkeypatch.setattr(model, "_decimal_rsqrt", lambda d: roots.append(1) or rsqrt(d))
    monkeypatch.setattr(equilibria, "_gauss_solve",
                        lambda *a: solves.append(1) or gauss_solve(*a))
    seed = equilibria.general_series_equilibrium(MASSES, 1e-2)
    equilibria.newton_equilibrium(MASSES, seed.mu1, seed.mu2, seed.q, dps=60)
    assert len(solves) == 2
    assert len(roots) == 3 * (len(solves) + 1)


def _oracle_points():
    """Masses in [0.5, 2.5], each binary pair in turn, u log-uniform in [3e-5, 0.1]."""
    rng = np.random.default_rng(41)
    for k in range(42):
        mm = model.MassTriple(*rng.uniform(0.5, 2.5, size=3))
        yield (mm.permuted(((2, 3), (1, 3), (1, 2))[k % 3]),
               float(np.exp(rng.uniform(math.log(3e-5), math.log(0.1)))))


@pytest.mark.parametrize("dps, every", [(60, 1), (200, 7)])
def test_decimal_newton_roots_equal_the_mpmath_oracle(dps, every):
    # the same algorithm on mpmath numbers; the roots agree to well below
    # an ulp, so their floats are equal
    for mm, u in list(_oracle_points())[::every]:
        seed = equilibria.general_series_equilibrium(mm, u)
        q = equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q, dps=dps).q
        ref = oracles.newton_mp(mm, seed.mu1, seed.mu2, seed.q, dps=dps)
        assert q.tolist() == ref.tolist(), (mm, u)


def test_float_newton_meets_the_dps_root_on_the_readme_sweep():
    # the README sweep: one default_rng(4) stream, 12 triples per u, each a
    # random binary pair and masses U(0.5, 2.5).  At small u the series seed
    # is already at the float rounding floor; a solve that steps from it
    # moved q2 and q3 by up to 2e-2
    rng = np.random.default_rng(4)
    for u, rel in ((1e-3, 1e-11), (3e-3, 1e-11), (1e-2, 1e-11), (0.1, 1e-10)):
        for _ in range(12):
            pair = ((2, 3), (1, 3), (1, 2))[int(rng.integers(3))]
            mm = model.MassTriple(*rng.uniform(0.5, 2.5, size=3)).permuted(pair)
            seed = equilibria.general_series_equilibrium(mm, u)
            ref = equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q, dps=60).q
            q = equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q).q
            for k in range(4):
                assert abs(q[k] - ref[k]) <= rel * abs(ref[k]), (mm, u, k)


def test_float_newton_reports_no_false_root_far_out():
    # a u ~ 1 seed, outside the series' range: the Newton steps carry q out
    # to |q| ~ 1e7, where the gradient decays with its summands; a bound
    # fixed at the seed's summands passed that point as a root
    mm = model.MassTriple(1.1374951774281923, 1.050558135829066, 1.9266008168244317)
    seed = equilibria.general_series_equilibrium(mm, 0.9945093552897518)
    try:
        rep = equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q)
    except NoConvergence:
        return
    grad = equilibria.effective_potential_gradient(mm, rep.q, rep.mu1, rep.mu2)
    scale = np.max(np.abs(rep.hessian[0:4, 0:4])) * np.max(np.abs(rep.q))
    assert np.linalg.norm(grad) < 1e-10 * scale


def test_dps_solve_does_not_import_mpmath():
    code = ("import sys\n"
            "from threebody4d import equilibria, model\n"
            "mm = model.MassTriple(1.0, 2.0, 3.0)\n"
            "seed = equilibria.general_series_equilibrium(mm, 1e-2)\n"
            "equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q, dps=60)\n"
            "sys.exit('mpmath' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(threebody4d.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=path))


def test_permuted_families_limits():
    for pair in ((2, 3), (1, 3), (1, 2)):
        mm = MASSES.permuted(pair)
        seed = equilibria.general_series_equilibrium(mm, 1e-3)
        rep = equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q)
        mi, mj = mm.m2, mm.m3
        lim = -(mi * mj) ** 3 / (2 * (mi + mj))
        assert rep.h * rep.b ** 2 == pytest.approx(lim, rel=1e-2)
        assert -1 / (2 * rep.h * rep.b ** 2) == pytest.approx(
            (mi + mj) / (mi * mj) ** 3, rel=1e-2)


def test_hessian_eigen_asymptotics():
    seed = equilibria.general_series_equilibrium(MASSES, 1e-2)
    rep = equilibria.newton_equilibrium(MASSES, seed.mu1, seed.mu2, seed.q)
    pred = np.sort(equilibria.general_hessian_eigen_asymptotics(MASSES, 1e-2))
    scale = MASSES.m2 * MASSES.m3 / rep.q[3] ** 3
    actual = np.sort(np.linalg.eigvalsh(
        equilibria.effective_potential_hessian(MASSES, rep.q, rep.mu1, rep.mu2)))
    actual /= scale
    assert actual[-1] == pytest.approx(pred[-1], rel=1e-2)
    assert np.all(np.abs(pred - actual) / np.abs(actual) < 1e-2)


def test_eigen_asymptotics_positive_on_mass_grid():
    import itertools
    for m1, m2, m3 in itertools.permutations((0.5, 1.0, 2.0)):
        mm = model.MassTriple(m1, m2, m3)
        for u in (1e-2, 1e-3):
            assert np.all(equilibria.general_hessian_eigen_asymptotics(mm, u) > 0)


def test_eigen_asymptotics_reduce_to_isosceles():
    # u^2 = 4t + 28 t^3 + 128 n t^4 + O(t^5) links the two parametrisations
    n, t = 1.5, 1e-2
    mu1sq, mu2sq, _ = equilibria.isosceles_momenta(n, t)
    mm = model.MassTriple(n, 1.0, 1.0)
    kappa, u = equilibria.expansion_parameters(mm, math.sqrt(mu1sq),
                                               math.sqrt(mu2sq))
    u2_pred = 4 * t + 28 * t ** 3 + 128 * n * t ** 4
    assert u * u == pytest.approx(u2_pred, rel=1e-5)
    pred = np.sort(equilibria.general_hessian_eigen_asymptotics(mm, u))
    rep = equilibria.isosceles_equilibrium(n, t)
    actual = np.sort(np.linalg.eigvalsh(equilibria.effective_potential_hessian(
        mm, rep.q, rep.mu1, rep.mu2))) * rep.q[3] ** 3
    assert np.all(np.abs(pred - actual) / np.abs(actual) < 1e-2)


def test_equilibrium_shape_scale_invariant():
    # dimensionless shape of the critical point is invariant under mass and
    # length rescalings that preserve n (isosceles) or u (general)
    r1 = equilibria.isosceles_equilibrium(1.3, 0.2, m=1.0, q4=1.0)
    r2 = equilibria.isosceles_equilibrium(1.3, 0.2, m=2.0, q4=3.0)
    assert r2.q[0] / r2.q[3] == pytest.approx(r1.q[0] / r1.q[3], rel=1e-12)
    assert r2.b == pytest.approx(r1.b, rel=1e-12)
    s1 = equilibria.general_series_equilibrium(model.MassTriple(1, 2, 3), 1e-2)
    s2 = equilibria.general_series_equilibrium(model.MassTriple(2, 4, 6), 1e-2)
    n1 = equilibria.newton_equilibrium(model.MassTriple(1, 2, 3),
                                       s1.mu1, s1.mu2, s1.q)
    n2 = equilibria.newton_equilibrium(model.MassTriple(2, 4, 6),
                                       s2.mu1, s2.mu2, s2.q)
    assert n2.q[0] / n2.q[3] == pytest.approx(n1.q[0] / n1.q[3], rel=1e-10)
    assert n2.b == pytest.approx(n1.b, rel=1e-10)


def test_q2_q3_flip_sign_under_mass_swap():
    mm_a = model.MassTriple(1.0, 2.0, 3.0)
    mm_b = model.MassTriple(1.0, 3.0, 2.0)
    sa = equilibria.general_series_equilibrium(mm_a, 1e-2)
    sb = equilibria.general_series_equilibrium(mm_b, 1e-2)
    ra = equilibria.newton_equilibrium(mm_a, sa.mu1, sa.mu2, sa.q, dps=60)
    rb = equilibria.newton_equilibrium(mm_b, sb.mu1, sb.mu2, sb.q, dps=60)
    assert rb.q[0] == pytest.approx(ra.q[0], rel=1e-12)
    assert rb.q[3] == pytest.approx(ra.q[3], rel=1e-12)
    assert rb.q[1] == pytest.approx(-ra.q[1], rel=1e-9)
    assert rb.q[2] == pytest.approx(-ra.q[2], rel=1e-9)
    assert rb.h == pytest.approx(ra.h, rel=1e-12)


def test_frequencies_kepler_limits():
    seed = equilibria.general_series_equilibrium(MASSES, 1e-2)
    rep = equilibria.newton_equilibrium(MASSES, seed.mu1, seed.mu2, seed.q)
    om1, om2, kep1, kep2 = equilibria.frequencies(MASSES, rep.q, rep.mu1, rep.mu2)
    assert abs(kep1 - 1.0) < 1e-3
    assert abs(kep2 - 1.0) < 1e-3
    assert om1 == pytest.approx(rep.omega1) and om2 == pytest.approx(rep.omega2)


# --- scans ------------------------------------------------------------------------

def test_isosceles_scan_momentum_bound():
    table = equilibria.isosceles_scan(1.0, np.geomspace(1e-3, 0.99, 40))
    bs = np.array([r.b for r in table.rows if r.error is None])
    assert np.all(bs <= 0.25 + 1e-12)
    # single hump: rises then falls
    k = int(np.argmax(bs))
    assert np.all(np.diff(bs[:k + 1]) > 0) and np.all(np.diff(bs[k:]) < 0)
    # both endpoints head towards b = 0
    assert bs[0] < 0.05 and bs[-1] < 1e-3


def test_b_quarter_at_momentum_crossing():
    g = lambda t: (equilibria.isosceles_momenta(1.0, t)[0]
                   - equilibria.isosceles_momenta(1.0, t)[1])
    t_star = bisect(g, 0.05, 0.6)
    rep = equilibria.isosceles_equilibrium(1.0, t_star * (1 - 1e-7))
    assert rep.b == pytest.approx(0.25, abs=1e-10)


def test_hb_small_b_expansion():
    # h = -m2^3 m3^3/(2(m2+m3) b^2) (1 - 2b + O(b^2)); check the correction
    # term itself at b ~ 1e-3 to 1%
    u = 7.6e-4  # tuned so that b is close to 1e-3
    seed = equilibria.general_series_equilibrium(MASSES, u)
    rep = equilibria.newton_equilibrium(MASSES, seed.mu1, seed.mu2, seed.q)
    assert rep.b == pytest.approx(1e-3, rel=0.05)
    lim = -MASSES.m2 ** 3 * MASSES.m3 ** 3 / (2 * (MASSES.m2 + MASSES.m3))
    corr = (rep.h * rep.b ** 2 / lim - 1.0) / (-2.0 * rep.b)
    assert corr == pytest.approx(1.0, abs=1e-2)


def test_general_scan_table():
    table = equilibria.general_scan(MASSES, [1e-2, 3e-3], pair=(2, 3))
    assert all(r.error is None for r in table.rows)
    assert all(r.classification == "minimum" for r in table.rows)
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "param,mu1,mu2,h,b,neg_inv_h,class," + \
        ",".join(f"eig{i}" for i in range(1, 9))
    assert len(lines) == 3


@pytest.mark.parametrize("n", [-1.0, 0.0, math.nan])
def test_isosceles_scan_refuses_a_bad_mass_ratio_before_the_scan(n):
    with pytest.raises(ValueError, match="mass ratio"):
        equilibria.isosceles_scan(n, [0.2, 0.3])


def test_scan_records_per_point_errors():
    table = equilibria.isosceles_scan(1.0, [0.2, 1.5])  # t = 1.5 invalid
    assert table.rows[0].error is None
    assert table.rows[1].error is not None
    assert table.rows[1].classification == "error"


@pytest.mark.parametrize("dps", [-5, 0, 3, 20, 30, 60.5, equilibria.DPS_MAX + 1, 100000000])
def test_dps_outside_the_accepted_range_refused(dps):
    seed = equilibria.general_series_equilibrium(MASSES, 1e-2)
    with pytest.raises(ValueError, match="dps must be in"):
        equilibria.newton_equilibrium(MASSES, seed.mu1, seed.mu2, seed.q, dps=dps)
    with pytest.raises(ValueError, match="dps must be in"):
        equilibria.general_scan(MASSES, [1e-2, 3e-3], dps=dps)


def test_singular_newton_system_is_an_error_row_of_the_scan(monkeypatch):
    singular_newton_system(monkeypatch)
    table = equilibria.general_scan(MASSES, [1e-2, 3e-3], dps=60)
    assert [r.classification for r in table.rows] == ["error", "error"]
    assert all(r.error == "singular Newton system" for r in table.rows)
