"""The float gradient kernels, the partial Hamiltonian/residual kernel, the
shared-decoding monitors, the inverse chart and the equilibrium solver's
kernels against the reference forms in `oracles.py`."""

import math
from decimal import Context, Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from threebody4d import dynamics, equilibria, model, reduction
from threebody4d.errors import ChartSingular, NoConvergence

import oracles
from conftest import (angle, chart_q, gradient_partial, momenta, p_psi, p_theta, psi_pair,
                      random_chart_point, random_full_state, random_reduced_state)

MASSES = model.MassTriple(1.0, 2.0, 3.0)
RTOL = 1e-13
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def _close(fast, ref):
    return float(np.max(np.abs(fast - ref))) <= RTOL * float(np.max(np.abs(ref)))


@PROPERTY
@given(q=chart_q, p=momenta, mu1=st.floats(0.8, 2.0), ratio=st.floats(0.05, 0.85))
def test_reduced_kernel_matches_oracle(q, p, mu1, ratio):
    mu2 = ratio * mu1
    state = reduction.ReducedState(q, p, mu1, mu2)
    assume(abs(state.l3) < 0.8 * (mu1 - mu2))
    assert _close(dynamics.gradient_reduced(MASSES, state),
                  oracles.gradient_reduced(MASSES, state))
    z = np.concatenate([state.q, state.p])
    assert _close(dynamics.reduced_field(MASSES, mu1, mu2).evaluate(0.0, z),
                  oracles.reduced_rhs(MASSES, mu1, mu2, z))


@PROPERTY
@given(q=chart_q, p=momenta, psi=psi_pair, theta=st.tuples(angle, angle),
       pp=p_psi, pt=p_theta)
def test_partial_and_full_kernels_match_oracles(q, p, psi, theta, pp, pt):
    part = reduction.PartialState(q=q, p=p,
                                  angles=reduction.RotationAngles(*psi, *theta),
                                  p_psi=pp, p_theta=pt)
    z = reduction.partial_to_array(part)
    assert _close(gradient_partial(MASSES, z), oracles.gradient_partial(MASSES, z))
    assert _close(dynamics.partial_field(MASSES).evaluate(0.0, z),
                  oracles.partial_rhs(MASSES, z))
    zf = reduction.full_to_array(reduction.lift_to_full(part))
    assert _close(dynamics.full_field(MASSES).evaluate(0.0, zf), oracles.full_rhs(MASSES, zf))


@PROPERTY
@given(x=st.tuples(*[st.floats(-2.0, 2.0)] * 8))
def test_potential_partials_match_summed_terms(x):
    s11 = x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2
    s22 = x[4] ** 2 + x[5] ** 2 + x[6] ** 2 + x[7] ** 2
    s12 = x[0] * x[4] + x[1] * x[5] + x[2] * x[6] + x[3] * x[7]
    s = model.ScalarProducts(s11, s22, s12)
    assume(min(oracles.mutual_distances_sq(MASSES, s)) > 1e-6)
    assert model.potential_derivatives(MASSES, s) == oracles.potential_derivatives(MASSES, s)
    k = MASSES.potential_constants
    partials, distances = model.potential_partials(k, s11, s22, s12, distances=True)
    assert partials == model.potential_partials(k, s11, s22, s12)
    v11, v22, v33, v12, v13, v23 = model.potential_second_partials(k, distances)
    assert _close(np.array([[v11, v12, v13], [v12, v22, v23], [v13, v23, v33]]),
                  oracles.potential_hessian_s(MASSES, s))


@PROPERTY
@given(q=chart_q, m=st.tuples(*[st.floats(0.5, 2.5)] * 3), mu1=st.floats(0.8, 2.0),
       ratio=st.floats(0.0, 0.85))
def test_effective_potential_kernel_matches_oracle(q, m, mu1, ratio):
    masses = model.MassTriple(*m)
    args = (masses, np.array(q), mu1, ratio * mu1)
    value, grad, hess = equilibria.effective_potential_kernel(masses, list(q), mu1, ratio * mu1)
    ref = oracles.effective_potential(*args)
    assert abs(value - ref) <= RTOL * abs(ref)
    assert _close(np.array(grad), oracles.effective_potential_gradient(*args))
    assert _close(np.array(hess), oracles.effective_potential_hessian(*args))
    assert equilibria.effective_potential(*args) == value
    assert tuple(equilibria.effective_potential_gradient(*args)) == grad
    assert np.array_equal(equilibria.effective_potential_hessian(*args), hess)


def _parts(kernel_out):
    value, grad, hess = kernel_out
    return [value], list(grad), [h for row in hess for h in row]


def _veff_from_distances(m1, m2, m3, q, mu1, mu2):
    """V_eff written out from the docstring forms and the three distances."""
    q1, q2, q3, q4 = q
    nu1, nu2 = m2 * m3 / (m2 + m3), m1 * (m2 + m3) / (m1 + m2 + m3)
    a2, a3 = m2 / (m2 + m3), m3 / (m2 + m3)
    area = (q1 * q4 - q2 * q3) / 2
    i1inv = (q1 ** 2 / nu2 + q3 ** 2 / nu1) / (4 * area ** 2)
    i2inv = (q2 ** 2 / nu2 + q4 ** 2 / nu1) / (4 * area ** 2)
    return (mu1 ** 2 * i1inv + mu2 ** 2 * i2inv) / 2 \
        - m2 * m3 / mpmath.hypot(q1, q2) \
        - m3 * m1 / mpmath.hypot(a2 * q1 + q3, a2 * q2 + q4) \
        - m1 * m2 / mpmath.hypot(a3 * q1 - q3, a3 * q2 - q4)


def test_effective_potential_kernel_at_dps_60():
    # the same kernel on mpmath numbers matches the float kernel; at dps = 60
    # its value matches V_eff written out independently, its gradient the
    # numerical derivative of the value and its Hessian that of the gradient,
    # so a float constant anywhere in it would show as a 1e-17 error
    rng = np.random.default_rng(31)
    for _ in range(3):
        m = rng.uniform(0.5, 2.5, size=3)
        q = random_reduced_state(rng, 1.3, 0.4).q.tolist()
        fp = _parts(equilibria.effective_potential_kernel(model.MassTriple(*m), q, 1.3, 0.4))
        with mpmath.workdps(60):
            mp_m = [mpmath.mpf(v) for v in m]
            mp_q = [mpmath.mpf(v) for v in q]
            mu1, mu2 = mpmath.mpf(1.3), mpmath.mpf(0.4)

            def kernel(i, x):
                qx = mp_q[:i] + [x] + mp_q[i + 1:]
                return equilibria.effective_potential_kernel(
                    model.MassTriple(*mp_m), qx, mu1, mu2)

            hi = _parts(kernel(0, mp_q[0]))
            ref = ([_veff_from_distances(*mp_m, mp_q, mu1, mu2)],
                   [mpmath.diff(lambda x: kernel(i, x)[0], mp_q[i]) for i in range(4)],
                   [mpmath.diff(lambda x: kernel(j, x)[1][i], mp_q[j])
                    for i in range(4) for j in range(4)])
            for f, h, r in zip(fp, hi, ref):  # value, gradient, Hessian
                assert all(isinstance(x, mpmath.mpf) for x in h)
                assert max(abs(x - float(y)) for x, y in zip(f, h)) <= RTOL * max(map(abs, f))
                assert max(abs(x - y) for x, y in zip(h, r)) <= 1e-45 * max(map(abs, r))


def test_effective_potential_kernel_on_decimals_at_60_digits():
    # the kernel on 60-digit Decimals, whose square roots come from the
    # Decimal hook, matches it on mpmath numbers at dps = 60
    rng = np.random.default_rng(32)
    for _ in range(3):
        m = rng.uniform(0.5, 2.5, size=3)
        q = random_reduced_state(rng, 1.3, 0.4).q.tolist()
        with localcontext(Context(prec=60)):
            dec = _parts(equilibria.effective_potential_kernel(
                model.MassTriple(*map(Decimal, m)), list(map(Decimal, q)),
                Decimal(1.3), Decimal(0.4)))
        with mpmath.workdps(60):
            ref = _parts(equilibria.effective_potential_kernel(
                model.MassTriple(*map(mpmath.mpf, m)), list(map(mpmath.mpf, q)),
                mpmath.mpf(1.3), mpmath.mpf(0.4)))
            for d, r in zip(dec, ref):  # value, gradient, Hessian
                assert all(isinstance(x, Decimal) for x in d)
                assert max(abs(mpmath.mpf(str(x)) - y) for x, y in zip(d, r)) \
                    <= 1e-45 * max(map(abs, r))


@PROPERTY
@given(q=chart_q, p=momenta, psi=psi_pair, theta=st.tuples(angle, angle),
       pp=p_psi, pt=p_theta, mu=st.tuples(st.floats(0.8, 2.0), st.floats(0.0, 0.7)))
def test_partial_hamiltonian_and_residual_equal_oracle_bodies(q, p, psi, theta, pp, pt, mu):
    part = reduction.PartialState(q=q, p=p,
                                  angles=reduction.RotationAngles(*psi, *theta),
                                  p_psi=pp, p_theta=pt)
    # as built, with float angles, and as the monitors see it, decoded from an array
    for state in (part, reduction.array_to_partial(reduction.partial_to_array(part))):
        assert (reduction.hamiltonian_partial(MASSES, state)
                == oracles.hamiltonian_partial(MASSES, state))
        assert np.array_equal(reduction.invariant_set_residual(state, *mu),
                              oracles.invariant_set_residual(state, *mu))


@PROPERTY
@given(q=chart_q, p=momenta, mu1=st.floats(0.8, 2.0), ratio=st.floats(0.05, 0.85))
def test_reduced_hamiltonian_equals_oracle_body(q, p, mu1, ratio):
    state = reduction.ReducedState(q, p, mu1, ratio * mu1)
    assume(abs(state.l3) < 0.8 * (state.mu1 - state.mu2))
    assert (reduction.hamiltonian_reduced(MASSES, state)
            == oracles.hamiltonian_reduced(MASSES, state))


def test_full_hamiltonian_equals_oracle_body():
    rng = np.random.default_rng(14)
    for _ in range(200):
        state = random_full_state(rng, scale=10.0 ** rng.uniform(-3, 3))
        assert model.hamiltonian_full(MASSES, state) == oracles.hamiltonian_full(MASSES, state)


def _squares_round_apart(rng, lo, hi):
    """Floats from [lo, hi) whose pow(x, 2) and x * x round differently."""
    return [x for x in rng.uniform(lo, hi, size=300_000).tolist() if x ** 2 != x * x]


def test_partial_hamiltonian_squares_like_the_oracle():
    # about one float in a thousand squares to another last bit under x * x
    # than under pow(x, 2), so random points alone rarely show the difference;
    # on these coordinates and momenta every square does
    rng = np.random.default_rng(13)
    qs, ps = _squares_round_apart(rng, 0.6, 1.6), _squares_round_apart(rng, -0.6, 0.6)
    checked = 0
    while checked < 400:
        q = rng.choice(qs, size=4) * rng.choice([-1.0, 1.0], size=4)
        if abs(0.5 * (q[0] * q[3] - q[1] * q[2])) <= 0.25:
            continue
        part = reduction.PartialState(
            q=q, p=rng.choice(ps, size=4),
            angles=reduction.RotationAngles(*rng.uniform(0.25, 1.3, size=2),
                                            *rng.uniform(-math.pi, math.pi, size=2)),
            p_psi=rng.uniform(-0.3, 0.3, size=2), p_theta=rng.uniform(0.1, 2.0, size=2))
        assert (reduction.hamiltonian_partial(MASSES, part)
                == oracles.hamiltonian_partial(MASSES, part))
        checked += 1


def _counted(module, name, monkeypatch):
    """Patch the kernel factory module.name to count its kernel's calls in the returned list."""
    calls = []
    factory = getattr(module, name)

    def counted(*args):
        values = factory(*args)
        return lambda z: calls.append(1) or values(z)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_partial_monitors_equal_per_callable_values_and_decode_once(monkeypatch):
    rng = np.random.default_rng(11)
    decodes = _counted(reduction, "partial_values_kernel", monkeypatch)
    fast = dynamics.partial_monitors(MASSES, 1.3, 0.4)
    ref = oracles.partial_monitors(MASSES, 1.3, 0.4)
    for k in range(50):
        z = reduction.partial_to_array(random_chart_point(rng))
        del decodes[:]
        values = {name: fn(0.1 * k, z) for name, fn in fast.items()}
        assert len(decodes) == 1
        assert values == {name: fn(0.1 * k, z) for name, fn in ref.items()}
    z[14] += 1.0  # the same array, changed in place, is a new sample
    assert fast["H"](0.0, z) == ref["H"](0.0, z)


def test_full_monitors_equal_per_callable_values_and_decode_once(monkeypatch):
    rng = np.random.default_rng(12)
    ref = oracles.full_monitors(MASSES)
    calls = _counted(dynamics, "full_values_kernel", monkeypatch)
    fast = dynamics.full_monitors(MASSES)
    for k in range(50):
        z = reduction.full_to_array(random_full_state(rng))
        del calls[:]
        values = {name: fn(0.1 * k, z) for name, fn in fast.items()}
        assert len(calls) == 1
        assert values == {name: fn(0.1 * k, z) for name, fn in ref.items()}


def test_reduced_monitor_equals_oracle_with_one_kernel_call(monkeypatch):
    rng = np.random.default_rng(15)
    ref = oracles.reduced_monitors(MASSES, 1.3, 0.4)
    calls = _counted(reduction, "reduced_values_kernel", monkeypatch)
    fast = dynamics.reduced_monitors(MASSES, 1.3, 0.4)
    for k in range(50):
        state = random_reduced_state(rng, 1.3, 0.4)
        z = np.concatenate([state.q, state.p])
        del calls[:]
        values = {name: fn(0.1 * k, z) for name, fn in fast.items()}
        assert len(calls) == 1
        assert values == {name: fn(0.1 * k, z) for name, fn in ref.items()}


# --- the inverse chart and the comparison's alignment ----------------------------

signed_psi_pair = st.tuples(psi_pair, st.sampled_from((-1.0, 1.0)),
                            st.sampled_from((-1.0, 1.0))).map(
    lambda a: (a[1] * a[0][0], a[2] * a[0][1]))


def _chart_distance(values, part):
    """max |values - part| over the 16 chart values, the angles compared mod 2 pi."""
    diff = np.array(values) - reduction.partial_to_array(part)
    diff[4:8] = (diff[4:8] + math.pi) % (2.0 * math.pi) - math.pi
    return float(np.max(np.abs(diff)))


def test_inverse_chart_equals_oracle_up_to_chart_images():
    rng = np.random.default_rng(30)
    for k in range(200):
        part = random_chart_point(rng)
        if k % 2:  # negative and mixed-sign psi
            sgn = rng.choice([-1.0, 1.0], size=2)
            ang = part.angles
            part = reduction.PartialState(
                q=part.q, p=part.p, p_psi=part.p_psi, p_theta=part.p_theta,
                angles=reduction.RotationAngles(sgn[0] * ang.psi1, sgn[1] * ang.psi2,
                                                ang.theta1, ang.theta2))
        full = reduction.lift_to_full(part)
        values = reduction.inverse_chart(reduction.full_to_array(full).tolist())
        ref = oracles.project_to_partial(full)
        scale = max(1.0, float(np.max(np.abs(reduction.partial_to_array(ref)))))
        assert min(_chart_distance(values, img)
                   for img in reduction.chart_images(ref)) <= 1e-12 * scale


@PROPERTY
@given(q=chart_q, p=momenta, psi=signed_psi_pair, theta=st.tuples(angle, angle),
       pp=p_psi, pt=p_theta)
def test_inverse_chart_round_trip(q, p, psi, theta, pp, pt):
    part = reduction.PartialState(q=q, p=p,
                                  angles=reduction.RotationAngles(*psi, *theta),
                                  p_psi=pp, p_theta=pt)
    full = reduction.full_to_array(reduction.lift_to_full(part))
    values = reduction.inverse_chart(full.tolist())
    back = reduction.full_to_array(reduction.lift_to_full(reduction.array_to_partial(values)))
    assert float(np.max(np.abs(back - full))) <= 1e-12 * float(np.max(np.abs(full)))


@st.composite
def near_e_psi_pair(draw):
    """(psi1, psi2) with |cos 2psi1 - cos 2psi2| log-uniform in [1e-6, 1]."""
    psi1 = draw(st.floats(-1.5, 1.5))
    gap = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-6.0, 0.0))
    cos2 = math.cos(2 * psi1) - gap
    assume(abs(cos2) <= 1.0)
    return psi1, draw(st.sampled_from((-1.0, 1.0))) * 0.5 * math.acos(cos2)


@PROPERTY
@given(q=chart_q, p=momenta, psi=near_e_psi_pair(), theta=st.tuples(angle, angle),
       pp=p_psi, pt=p_theta)
def test_lift_kernel_matches_matrix_oracle(q, p, psi, theta, pp, pt):
    # relative, not bitwise: how numpy's 4x4 products round depends on its BLAS
    part = reduction.PartialState(q=q, p=p,
                                  angles=reduction.RotationAngles(*psi, *theta),
                                  p_psi=pp, p_theta=pt)
    ref = reduction.full_to_array(oracles.lift_to_full(part))
    z = np.array(reduction.lift_kernel(reduction.partial_to_array(part).tolist()))
    assert float(np.max(np.abs(z - ref))) <= 1e-15 * float(np.max(np.abs(ref)))


def test_aligned_deviation_equals_min_over_chart_images():
    rng = np.random.default_rng(31)
    for k in range(200):
        full = reduction.lift_to_full(random_chart_point(rng))
        values = reduction.inverse_chart(reduction.full_to_array(full).tolist())
        part = reduction.array_to_partial(values)
        if k % 2:
            red = random_reduced_state(rng, 1.3, 0.4)
            qp = np.concatenate([red.q, red.p])
        else:  # near one of the four sign patterns
            signs = np.tile(rng.choice([-1.0, 1.0], size=2), 4)
            qp = (signs * np.concatenate([part.q, part.p])
                  + rng.normal(0.0, 10.0 ** rng.uniform(-12, 0), size=8))
        ref = min(max(np.max(np.abs(img.q - qp[0:4])), np.max(np.abs(img.p - qp[4:8])))
                  for img in reduction.chart_images(part))
        assert reduction.aligned_deviation(values, qp.tolist()) == ref


@pytest.mark.parametrize("x", [
    ([1.0, 0.5, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0]),     # collinear
    ([0.0, 0.0, 0.0, 0.0], [0.3, 1.0, -0.2, 0.5]),    # x1 = 0
    ([0.0, 0.0, 1.0, 0.3], [0.0, 0.0, 0.2, 1.0]),     # orthogonal to the (1,2)-plane
    ([6.123233995736766e-17, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 0.0]),  # embedded L3 = 0
    ([1e-7, 0.0, 0.0, 0.0], [0.0, 1e-7, 0.0, 0.0]),   # a plane, but A = 5e-15
])
def test_inverse_chart_refuses_like_the_oracle(x):
    z = x[0] + x[1] + [0.1, -0.2, 0.3, 0.0, 0.2, 0.1, 0.0, -0.3]
    with pytest.raises(ChartSingular) as fast:
        reduction.inverse_chart(z)
    with pytest.raises(ChartSingular) as ref:
        oracles.project_to_partial(oracles.array_to_full(z))
    assert (type(fast.value), str(fast.value)) == (type(ref.value), str(ref.value))


def test_comparison_equals_the_oracle_sample_loop(monkeypatch):
    # the per-sample work of compare_full_vs_reduced redone on numpy arrays:
    # the svd inverse chart, all eight chart images, the residual of the
    # PartialState and the spectral pair from the eigenvalues of L
    records = []
    integrate = dynamics.integrate
    monkeypatch.setattr(dynamics, "integrate",
                        lambda *a, **k: records.append(integrate(*a, **k)) or records[-1])
    start = random_reduced_state(np.random.default_rng(33), 1.3, 0.4)
    cfg = dynamics.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)
    report = dynamics.compare_full_vs_reduced(MASSES, start, 0.6, cfg, n_samples=6)
    rec_full, rec_red = records

    def mu(z):
        l = model.angular_momentum(oracles.array_to_full(z)).matrix
        im = sorted(abs(np.linalg.eigvals(l).imag))
        return im[-1], math.copysign(im[0], oracles.pfaffian4(l))

    mu10, mu20 = mu(rec_full.states[0])
    devs, res, drift = [], 0.0, 0.0
    for ts in report.times:
        zf = rec_full.states[np.argmin(np.abs(rec_full.times - ts))]
        zr = rec_red.states[np.argmin(np.abs(rec_red.times - ts))]
        proj = oracles.project_to_partial(oracles.array_to_full(zf))
        devs.append(min(max(np.max(np.abs(img.q - zr[0:4])), np.max(np.abs(img.p - zr[4:8])))
                        for img in reduction.chart_images(proj)))
        res = max(res, np.max(np.abs(oracles.invariant_set_residual(proj, mu10, abs(mu20)))))
        mu1, mu2 = mu(zf)
        drift = max(drift, abs(mu1 - mu10), abs(mu2 - mu20))
    assert len(report.times) == 6
    assert np.max(np.abs(report.qp_deviation - devs)) < 1e-13
    assert abs(report.max_qp_deviation - max(devs)) < 1e-13
    assert abs(report.max_invariant_residual - res) < 1e-13
    assert abs(report.max_mu_drift - drift) < 1e-13


def test_angular_momentum_components_are_the_matrix_entries():
    rng = np.random.default_rng(32)
    for _ in range(50):
        state = random_full_state(rng)
        am = model.angular_momentum(state)
        comps = model.angular_momentum_components(reduction.full_to_array(state).tolist())
        assert comps == tuple(am.matrix[np.triu_indices(4, 1)].tolist())
        assert model.spectral_pair_components(comps) == (am.mu1, am.mu2)


# --- the equilibrium solver's float kernel, report and elimination ------------

@PROPERTY
@given(q=chart_q, m=st.tuples(*[st.floats(0.5, 2.5)] * 3))
def test_solvability_residual_equals_oracle_bitwise(q, m):
    masses = model.MassTriple(*m)
    assert equilibria.solvability_residual(masses, q) == oracles.solvability_residual(masses, q)


def _assert_reports_equal(rep, ref):
    for name in ("q", "hessian", "eigenvalues"):
        assert getattr(rep, name).tobytes() == getattr(ref, name).tobytes(), name
    for name in ("mu1", "mu2", "masses", "classification", "omega1", "omega2", "h", "b",
                 "gradient_norm", "keff_coefficient", "energy", "kepler1", "kepler2"):
        assert getattr(rep, name) == getattr(ref, name), name


def test_float_report_equals_oracle_bitwise():
    # em-diagram-like inputs: all three binaries, masses in [0.5, 2.5],
    # u log-uniform in [3e-3, 1e-2]; the report reuses the solve's last
    # kernel values, the oracle evaluates the kernel afresh at the root.
    # Every third input is solved at --dps 60 too, whose report evaluates
    # the kernel afresh at the rounded root
    rng = np.random.default_rng(21)
    for k in range(60):
        pair = ((2, 3), (1, 3), (1, 2))[int(rng.integers(3))]
        mm = model.MassTriple(*rng.uniform(0.5, 2.5, size=3)).permuted(pair)
        u = math.exp(rng.uniform(math.log(3e-3), math.log(1e-2)))
        seed = equilibria.general_series_equilibrium(mm, u)
        for dps in (None, 60) if k % 3 == 0 else (None,):
            rep = equilibria.newton_equilibrium(mm, seed.mu1, seed.mu2, seed.q, dps=dps)
            _assert_reports_equal(rep, oracles.build_report(mm, rep.q, seed.mu1, seed.mu2))


def test_isosceles_report_equals_oracle_bitwise():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n, t = math.exp(rng.uniform(math.log(0.2), math.log(5.0))), rng.uniform(0.02, 0.98)
        rep = equilibria.isosceles_equilibrium(n, t)
        _assert_reports_equal(rep, oracles.build_report(rep.masses, rep.q, rep.mu1, rep.mu2))


def test_report_equals_oracle_bitwise_in_every_class():
    # the isosceles family holds saddles and minima but no indefinite-K
    # point (the region map has no P1-P2+T- or P1+P2-T+ cell), so the
    # report is also taken at its q with mu2 moved by 10 %, off the family,
    # where the V_eff block can stay definite while the momentum block is not
    seen = set()
    for n in (0.2, 0.5, 1.0, 1.6, 3.0, 5.0):
        for t in np.linspace(0.02, 0.98, 25).tolist():
            rep = equilibria.isosceles_equilibrium(n, t)
            _assert_reports_equal(rep, oracles.build_report(rep.masses, rep.q, rep.mu1, rep.mu2))
            seen.add(rep.classification)
            for mu2 in (0.9 * rep.mu2, 1.1 * rep.mu2):
                off = equilibria._build_report(rep.masses, rep.q, rep.mu1, mu2)
                _assert_reports_equal(off, oracles.build_report(rep.masses, rep.q, rep.mu1, mu2))
                seen.add(off.classification)
    assert seen == {"saddle", "indefinite-K", "minimum"}


def _random_systems(rng):
    """4x4 systems: random, with a tiny leading entry (which needs pivoting),
    symmetric indefinite, and with u^-6 row/column scales."""
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        yield a, rng.normal(size=4)
        a[0, 0] *= 1e-40
        yield a, rng.normal(size=4)
        o, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        yield o @ np.diag([-2.0, -0.5, 0.7, 3.0]) @ o.T, rng.normal(size=4)
        u = math.exp(rng.uniform(math.log(3e-5), math.log(1e-2)))
        d = np.diag([u ** 2, u ** -1, u ** -3, 1.0])
        a = rng.normal(size=(4, 4))
        yield d @ (a + a.T + 8.0 * np.eye(4)) @ d, rng.normal(size=4)


def test_gauss_solve_matches_mpmath_lu_solve():
    rng = np.random.default_rng(23)
    with mpmath.workdps(60):
        for a, b in _random_systems(rng):
            a_mp = [[mpmath.mpf(v) for v in row] for row in a.tolist()]
            b_mp = [mpmath.mpf(v) for v in b.tolist()]
            x = equilibria._gauss_solve(a_mp, b_mp, mpmath.eps)
            ref = mpmath.lu_solve(mpmath.matrix(a_mp), mpmath.matrix(b_mp))
            for xi, ri in zip(x, ref):
                assert isinstance(xi, mpmath.mpf)
                assert abs(xi - ri) <= 1e-50 * abs(ri)
            assert [row[:] for row in a_mp] == [[mpmath.mpf(v) for v in row]
                                                for row in a.tolist()]
            with localcontext(Context(prec=60)):
                x = equilibria._gauss_solve([[Decimal(v) for v in row] for row in a.tolist()],
                                            [Decimal(v) for v in b.tolist()], Decimal(10) ** -60)
            for xi, ri in zip(x, ref):
                assert isinstance(xi, Decimal)
                assert abs(mpmath.mpf(str(xi)) - ri) <= 1e-50 * abs(ri)


def test_gauss_solve_refuses_singular_systems():
    with mpmath.workdps(60):
        one = mpmath.mpf(1)
        for a in ([[one, 2 * one], [2 * one, 4 * one]], [[0 * one] * 2] * 2):
            with pytest.raises(NoConvergence):
                equilibria._gauss_solve(a, [one, one], mpmath.eps)


def test_gradient_stage_equals_kernel_gradient():
    rng = np.random.default_rng(24)
    for _ in range(20):
        m = rng.uniform(0.5, 2.5, size=3)
        q = random_reduced_state(rng, 1.3, 0.4).q.tolist()
        masses = model.MassTriple(*m)
        value, grad, terms = equilibria._veff_value_gradient(masses, q, 1.3, 0.4)
        assert (value, grad, equilibria._veff_hessian(terms)) \
            == equilibria.effective_potential_kernel(masses, q, 1.3, 0.4)
        assert tuple(equilibria.effective_potential_gradient(masses, q, 1.3, 0.4)) == grad
        assert equilibria.effective_potential(masses, q, 1.3, 0.4) == value
    with mpmath.workdps(60):
        mp_m = model.MassTriple(*(mpmath.mpf(v) for v in m))
        mp_q = [mpmath.mpf(v) for v in q]
        args = (mp_m, mp_q, mpmath.mpf(1.3), mpmath.mpf(0.4))
        value, grad, terms = equilibria._veff_value_gradient(*args)
        assert (value, grad, equilibria._veff_hessian(terms)) \
            == equilibria.effective_potential_kernel(*args)
