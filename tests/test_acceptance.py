"""Acceptance suite: one test per criterion, fixed tolerances, PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from threebody4d import dynamics, equilibria, model, reduction

from conftest import hessian_fd, random_chart_point, random_reduced_state

EQUAL = model.MassTriple(1.0, 1.0, 1.0)
MASSES123 = model.MassTriple(1.0, 2.0, 3.0)

J16 = np.zeros((16, 16))
J16[0:8, 8:16] = np.eye(8)
J16[8:16, 0:8] = -np.eye(8)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_mu_pair(rng):
    mu1 = rng.uniform(0.8, 2.0)
    mu2 = rng.uniform(0.05, 0.85) * mu1
    return mu1, mu2


def test_criterion_1_symplecticity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        part = random_chart_point(rng)
        d = reduction.lift_jacobian(part)
        worst = max(worst, float(np.max(np.abs(d.T @ J16 @ d - J16))))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-9 and elapsed < 5.0,
           f"lift symplecticity max |DtJD - J| = {worst:.3e} (tol 1e-9), "
           f"runtime {elapsed:.2f} s (< 5 s)")


def test_criterion_2_hamiltonian_chain():
    rng = np.random.default_rng(102)
    worst_full = 0.0
    for _ in range(100):
        part = random_chart_point(rng)
        hp = reduction.hamiltonian_partial(MASSES123, part)
        hf = model.hamiltonian_full(MASSES123, reduction.lift_to_full(part))
        worst_full = max(worst_full, abs(hp - hf) / abs(hf))
    worst_red = 0.0
    for _ in range(100):
        mu1, mu2 = random_mu_pair(rng)
        red = random_reduced_state(rng, mu1, mu2)
        hr = reduction.hamiltonian_reduced(MASSES123, red)
        he = reduction.hamiltonian_partial(MASSES123, reduction.embed_reduced(red))
        worst_red = max(worst_red, abs(hr - he) / abs(hr))
    ok = worst_full < 1e-10 and worst_red < 1e-10
    report(2, ok, f"H_full(lift) vs H_partial rel = {worst_full:.3e}, "
                  f"H_partial(embed) vs H_reduced rel = {worst_red:.3e} (tol 1e-10)")


def test_criterion_3_restricted_form():
    rng = np.random.default_rng(103)
    worst_det = 0.0
    worst_struct = 0.0
    for _ in range(20):
        mu1, mu2 = random_mu_pair(rng)
        red = random_reduced_state(rng, mu1, mu2)
        part = reduction.embed_reduced(red)
        amat, det = reduction.restriction_matrix_A(part)
        target = (mu1 ** 2 - mu2 ** 2) ** 2
        worst_det = max(worst_det, abs(det - target) / target)
        expected = np.zeros((4, 4))
        for (i, j), v in (((0, 2), -mu1), ((0, 3), -mu2),
                          ((1, 2), mu2), ((1, 3), mu1)):
            expected[i, j] = v
            expected[j, i] = -v
        worst_struct = max(worst_struct,
                           float(np.max(np.abs(amat - expected))) / mu1)
    ok = worst_det < 1e-9 and worst_struct < 1e-9
    report(3, ok, f"det A|I vs (mu1^2-mu2^2)^2 rel = {worst_det:.3e}, "
                  f"off-pattern entries rel = {worst_struct:.3e} (tol 1e-9)")


def test_criterion_4_invariant_set_dynamics():
    rng = np.random.default_rng(104)
    field = dynamics.partial_field(MASSES123)
    cfg = dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13,
                                    max_step=1.2e-3)
    worst_c = 0.0
    worst_pth = 0.0
    min_steps = 10 ** 9
    n_runs = 0
    while n_runs < 20:
        mu1, mu2 = random_mu_pair(rng)
        red = random_reduced_state(rng, mu1, mu2)
        z0 = reduction.partial_to_array(reduction.embed_reduced(red))
        rec = dynamics.integrate(field, z0, 1.2, cfg,
                                 monitors=dynamics.partial_monitors(MASSES123,
                                                                    mu1, mu2))
        if rec.domain_exit is not None:
            continue  # rare collision-bound sample; criterion wants I-dynamics
        n_runs += 1
        min_steps = min(min_steps, rec.n_steps)
        for i in range(1, 5):
            worst_c = max(worst_c, float(np.max(np.abs(rec.monitors[f"c{i}"]))))
        worst_pth = max(worst_pth,
                        float(np.max(np.abs(rec.monitors["p_theta1"] - mu1))),
                        float(np.max(np.abs(rec.monitors["p_theta2"] - mu2))))
    ok = worst_c < 1e-7 and worst_pth < 1e-9 and min_steps >= 1000
    report(4, ok, f"20 runs on I, >= {min_steps} adaptive steps: "
                  f"max |c_i| = {worst_c:.3e} (tol 1e-7), "
                  f"max |dp_theta| = {worst_pth:.3e} (tol 1e-9)")


def test_criterion_5_full_vs_reduced():
    rng = np.random.default_rng(105)
    cfg = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    worst = 0.0
    cases = [(1.0, 0.25), (1.0, 0.15), (2.0, 0.2), (0.6, 0.12), (1.5, 0.1)]
    for n, t in cases:
        rep = equilibria.isosceles_equilibrium(n, t)
        pert = 1e-3 * rng.normal(size=4)
        start = reduction.ReducedState(rep.q, pert, rep.mu1, rep.mu2)
        period = 2 * math.pi / rep.omega1
        out = dynamics.compare_full_vs_reduced(model.MassTriple(n, 1.0, 1.0),
                                               start, period, cfg)
        assert out.domain_exit is None
        worst = max(worst, out.max_qp_deviation)
    report(5, worst < 1e-6,
           f"5 near-equilibrium starts, one period: max (q,p) deviation "
           f"= {worst:.3e} (tol 1e-6)")


def test_criterion_6_isosceles():
    # (a) equilibrium conditions on an (n, t) grid
    worst_res = 0.0
    for n in (0.3, 1.0, 2.0, 5.0):
        for t in (0.05, 0.15, 0.268, 0.5, 0.8):
            mu1sq, mu2sq, q1 = equilibria.isosceles_momenta(n, t)
            r32 = (q1 ** 2 + 4.0) ** 1.5
            nu1, nu2 = 0.5, 2 * n / (2 + n)
            c1 = 1.0 / q1 ** 2 + 4 * n * q1 / r32 - mu2sq / (nu1 * q1 ** 3)
            c2 = 16 * n / r32 - mu1sq / nu2
            scale = max(mu1sq, mu2sq)
            worst_res = max(worst_res, abs(c1) / scale, abs(c2) / scale)
    # (b) Hessian block formulas vs the numerical Hessian
    worst_blk = 0.0
    for n, t in ((1.0, 0.2), (2.0, 0.3), (0.6, 0.12)):
        rep = equilibria.isosceles_equilibrium(n, t)
        mm = model.MassTriple(n, 1.0, 1.0)
        q23, q14, p23, inv_nu1, inv_nu2 = equilibria.isosceles_hessian_blocks(n, t)
        z0 = np.concatenate([rep.q, np.zeros(4)])

        def ham(z, mm=mm, rep=rep):
            return reduction.hamiltonian_reduced(
                mm, reduction.ReducedState(z[0:4], z[4:8], rep.mu1, rep.mu2))

        h8 = hessian_fd(ham, z0, h=1e-3)
        scale = np.max(np.abs(h8))
        worst_blk = max(
            worst_blk,
            float(np.max(np.abs(q23 - h8[np.ix_([1, 2], [1, 2])]))) / scale,
            float(np.max(np.abs(q14 - h8[np.ix_([0, 3], [0, 3])]))) / scale,
            float(np.max(np.abs(p23 - h8[np.ix_([5, 6], [5, 6])]))) / scale,
            abs(inv_nu1 - h8[4, 4]) / scale,
            abs(inv_nu2 - h8[7, 7]) / scale)
    # (c) small-t eigenvalue series at t = 1e-3
    worst_ser = 0.0
    for n in (0.5, 1.0, 3.0):
        t = 1e-3
        q23, q14, p23, _, _ = equilibria.isosceles_hessian_blocks(n, t)
        ser = equilibria.isosceles_eigenvalue_series(n, t)
        for block, key in ((q23, "q23"), (q14, "q14"), (p23, "p23")):
            eigs = np.sort(np.linalg.eigvalsh(block))
            pred = np.sort(np.array(ser[key]))
            worst_ser = max(worst_ser, float(np.max(np.abs(eigs - pred)
                                                    / np.abs(eigs))))
    ok = worst_res < 1e-12 and worst_blk < 1e-8 and worst_ser < 1e-3
    report(6, ok, f"isosceles: condition residual = {worst_res:.3e} (tol 1e-12), "
                  f"Hessian blocks vs numerical = {worst_blk:.3e} (tol 1e-8), "
                  f"small-t eigenvalue series = {worst_ser:.3e} (tol 1e-3)")


def test_criterion_7_stability_regions():
    ngrid = np.linspace(0.1, 5.0, 50)
    tgrid = np.linspace(0.02, 0.98, 50)
    mismatches = 0
    boundary = 0
    labels = set()
    for n in ngrid:
        for t in tgrid:
            lab = equilibria.region_classification(n, t)
            if lab.boundary:
                boundary += 1
                continue
            labels.add(lab.name)
            q23, q14, p23, i1, i2 = equilibria.isosceles_hessian_blocks(n, t)
            eigs = np.concatenate([np.linalg.eigvalsh(q23),
                                   np.linalg.eigvalsh(q14),
                                   np.linalg.eigvalsh(p23), [i1, i2]])
            if int(np.sum(eigs < 0)) != equilibria.predicted_negative_count(n, t):
                mismatches += 1
            if bool(np.all(eigs > 0)) != lab.minimum:
                mismatches += 1
    ok = mismatches == 0
    report(7, ok, f"50x50 region grid: {mismatches} mismatches "
                  f"({boundary} boundary cells exempt), "
                  f"{len(labels)} distinct region labels")


def test_criterion_8_general_series():
    worst_q14 = 0.0
    worst_solv = 0.0
    sign_ok = True
    order_ok = True
    for u in (1e-2, 3e-3):
        seed = equilibria.general_series_equilibrium(MASSES123, u)
        rep = equilibria.newton_equilibrium(MASSES123, seed.mu1, seed.mu2, seed.q)
        worst_q14 = max(worst_q14,
                        abs(rep.q[0] - seed.q[0]) / abs(seed.q[0]),
                        abs(rep.q[3] - seed.q[3]) / abs(seed.q[3]))
        worst_solv = max(worst_solv,
                         abs(equilibria.solvability_residual(MASSES123, rep.q)))
        rep_mp = equilibria.newton_equilibrium(MASSES123, seed.mu1, seed.mu2,
                                               seed.q, dps=60)
        sign_ok &= (rep_mp.q[1] < 0 < rep_mp.q[2])  # m2 < m3
        for k in (1, 2):
            ratio = rep_mp.q[k] / seed.q[k]
            order_ok &= 0.5 < ratio < 1.5
    ok = worst_q14 < 1e-4 and worst_solv < 1e-10 and sign_ok and order_ok
    report(8, ok, f"series vs Newton (masses 1,2,3): q1/q4 rel = {worst_q14:.3e} "
                  f"(tol 1e-4), q2/q3 sign and leading order confirmed = "
                  f"{sign_ok and order_ok}, solvability = {worst_solv:.3e} "
                  f"(tol 1e-10)")


def test_criterion_9_minimum_property():
    all_min = True
    detail = []
    for m1, m2, m3 in itertools.permutations((0.5, 1.0, 2.0)):
        mm = model.MassTriple(m1, m2, m3)
        for u in (1e-2, 3e-3):
            seed = equilibria.general_series_equilibrium(mm, u)
            rep = equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q)
            vq = np.linalg.eigvalsh(rep.hessian[0:4, 0:4])
            kin = np.linalg.eigvalsh(rep.hessian[4:8, 4:8])
            good = bool(np.all(vq > 0) and np.all(kin > 0))
            all_min &= good
            if not good:
                detail.append(f"({m1},{m2},{m3}) u={u}")
    report(9, all_min, "all 8 Hessian eigenvalues and the K_eff momentum block "
                       "positive across the distinct-mass grid {0.5,1,2}^3 at "
                       f"u in (1e-2, 3e-3)" + ("; failed: " + ", ".join(detail)
                                               if detail else ""))


def test_criterion_10_kepler_and_hb():
    # Kepler diagnostics at u = 1e-2
    seed = equilibria.general_series_equilibrium(MASSES123, 1e-2)
    rep = equilibria.newton_equilibrium(MASSES123, seed.mu1, seed.mu2, seed.q)
    _, _, kep1, kep2 = equilibria.frequencies(MASSES123, rep.q, rep.mu1, rep.mu2)
    kep_ok = abs(kep1 - 1.0) < 1e-3 and abs(kep2 - 1.0) < 1e-3
    # h b^2 limit as b -> 0 (scan data, Figure-1-style table)
    table = equilibria.general_scan(MASSES123, [1e-2, 3e-3, 1e-3], pair=(2, 3))
    assert all(r.error is None for r in table.rows)
    row = table.rows[-1]
    lim = -MASSES123.m2 ** 3 * MASSES123.m3 ** 3 / (2 * (MASSES123.m2 + MASSES123.m3))
    hb2_err = abs(row.h * row.b ** 2 / lim - 1.0)
    # three permuted families hit their limiting values
    fam_err = 0.0
    for pair in ((2, 3), (1, 3), (1, 2)):
        mm = MASSES123.permuted(pair)
        s = equilibria.general_series_equilibrium(mm, 1e-3)
        r = equilibria.newton_equilibrium(mm, s.mu1, s.mu2, s.q)
        fam_lim = -(mm.m2 * mm.m3) ** 3 / (2 * (mm.m2 + mm.m3))
        fam_err = max(fam_err, abs(r.h * r.b ** 2 / fam_lim - 1.0))
    # energy-momentum diagram data tables (two mass ratios) come out of the
    # same scan machinery: single-humped b(t) with max below 1/4, both
    # endpoints heading to b = 0
    curves_ok = True
    for n in (1.0, 4.0):
        tab = equilibria.isosceles_scan(n, np.geomspace(1e-3, 0.99, 50))
        bs = np.array([row.b for row in tab.rows if row.error is None])
        neg_inv_h = np.array([row.neg_inv_h for row in tab.rows
                              if row.error is None])
        k = int(np.argmax(bs))
        curves_ok &= bool(np.all(bs <= 0.25) and bs[0] < 0.06 and bs[-1] < 1e-3
                          and np.all(np.diff(bs[:k + 1]) > 0)
                          and np.all(np.diff(bs[k:]) < 0)
                          and np.all(np.isfinite(neg_inv_h)))
    ok = kep_ok and hb2_err < 1e-2 and fam_err < 1e-2 and curves_ok
    report(10, ok, f"Kepler diagnostics |.-1| = ({abs(kep1 - 1):.2e}, "
                   f"{abs(kep2 - 1):.2e}) (tol 1e-3); h b^2 limit rel err "
                   f"= {hb2_err:.3e} (tol 1e-2); permuted-family limits rel err "
                   f"= {fam_err:.3e} (tol 1e-2); energy-momentum curves "
                   f"well-formed for two mass ratios = {curves_ok}")


def test_criterion_11_energy_behaviour():
    # adaptive: relative drift < 1e-8 over >= 1e3 steps at tolerance 1e-10
    red0 = reduction.ReducedState([1.1, 0.1, -0.2, 0.9],
                                  [0.02, -0.01, 0.03, 0.01], 1.3, 0.4)
    z0 = np.concatenate([red0.q, red0.p])
    cfg = dynamics.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    rec = dynamics.integrate(dynamics.reduced_field(MASSES123, 1.3, 0.4), z0,
                             2.0, cfg,
                             monitors=dynamics.reduced_monitors(MASSES123, 1.3, 0.4))
    h = rec.monitors["H"]
    drift_adaptive = float(np.max(np.abs(h - h[0])) / abs(h[0]))
    adaptive_steps = rec.n_steps
    adaptive_ok = drift_adaptive < 1e-8 and adaptive_steps >= 1000

    # symplectic: bounded error, no secular trend, over 1e5 steps
    rep = equilibria.isosceles_equilibrium(1.0, 0.25)
    z0 = np.concatenate([rep.q, [1e-3, -5e-4, 8e-4, -2e-4]])
    period = 2 * math.pi / rep.omega1
    dt = period / 300.0
    cfg = dynamics.IntegratorConfig(method="midpoint", dt=dt, monitor_every=500)
    rec = dynamics.integrate(dynamics.reduced_field(EQUAL, rep.mu1, rep.mu2),
                             z0, 100_000 * dt, cfg,
                             monitors=dynamics.reduced_monitors(EQUAL, rep.mu1,
                                                                rep.mu2))
    h = rec.monitors["H"]
    drift = np.abs(h - h[0]) / abs(h[0])
    tenth = max(len(h) // 10, 1)
    head = float(np.max(drift[:tenth]))
    tail = float(np.max(drift[-tenth:]))
    symplectic_ok = (rec.n_steps >= 100_000 and float(np.max(drift)) < 1e-9
                     and tail < 5.0 * max(head, 1e-14))
    ok = adaptive_ok and symplectic_ok
    report(11, ok, f"adaptive drift = {drift_adaptive:.3e} over {adaptive_steps} "
                   f"steps (tol 1e-8); midpoint over 1e5 steps: max rel energy "
                   f"error = {float(np.max(drift)):.3e}, head/tail = "
                   f"{head:.2e}/{tail:.2e} (bounded, no secular trend)")
