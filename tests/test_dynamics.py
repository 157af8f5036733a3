"""Vector fields, integrators, conservation, full-vs-reduced comparison."""

import dataclasses
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threebody4d import dynamics, equilibria, model, reduction
from threebody4d.errors import (
    ChartSingular,
    CollisionError,
    DegenerateMomenta,
    KineticDomainError,
    NoConvergence,
    StepLimitExceeded,
    StepSizeUnderflow,
)

import oracles
from conftest import (central_gradient, gradient_partial, random_chart_point,
                      random_reduced_state, scalar_products, zero_field)

MASSES = model.MassTriple(1.0, 2.0, 3.0)
MU1, MU2 = 1.3, 0.4
EQUAL = model.MassTriple(1.0, 1.0, 1.0)


def test_gradient_reduced_finite_differences():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        red = random_reduced_state(rng, MU1, MU2)
        g = dynamics.gradient_reduced(MASSES, red)
        z0 = np.concatenate([red.q, red.p])

        def ham(z):
            return reduction.hamiltonian_reduced(
                MASSES, reduction.ReducedState(z[0:4], z[4:8], MU1, MU2))

        fd = central_gradient(ham, z0)
        worst = max(worst, float(np.max(np.abs(g - fd)))
                    / max(1.0, float(np.max(np.abs(fd)))))
    assert worst < 1e-6


def test_gradient_reduced_momentum_part_at_rest():
    rng = np.random.default_rng(1)
    red = random_reduced_state(rng, MU1, MU2)
    rest = reduction.ReducedState(red.q, np.zeros(4), MU1, MU2)
    g = dynamics.gradient_reduced(MASSES, rest)
    assert np.max(np.abs(g[4:8])) < 1e-14


def test_gradient_reduced_zero_at_equilibrium():
    rep = equilibria.isosceles_equilibrium(1.0, 0.2)
    red = reduction.ReducedState(rep.q, np.zeros(4), rep.mu1, rep.mu2)
    g = dynamics.gradient_reduced(EQUAL, red)
    assert np.max(np.abs(g)) < 1e-9


def test_gradient_partial_finite_differences():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        part = random_chart_point(rng)
        z0 = reduction.partial_to_array(part)
        g = gradient_partial(MASSES, z0)

        def ham(z):
            return reduction.hamiltonian_partial(MASSES, reduction.array_to_partial(z))

        fd = central_gradient(ham, z0)
        worst = max(worst, float(np.max(np.abs(g - fd)))
                    / max(1.0, float(np.max(np.abs(fd)))))
    assert worst < 1e-6


def test_restricted_field_matches_reduced():
    # X_{H|I} from the reduced Hamiltonian == projection of X_H at embedded points
    rng = np.random.default_rng(3)
    for _ in range(10):
        red = random_reduced_state(rng, MU1, MU2)
        zp = reduction.partial_to_array(reduction.embed_reduced(red))
        fp = dynamics.partial_field(MASSES).evaluate(0.0, zp)
        fr = dynamics.reduced_field(MASSES, MU1, MU2).evaluate(
            0.0, np.concatenate([red.q, red.p]))
        assert np.max(np.abs(fp[0:4] - fr[0:4])) < 1e-7
        assert np.max(np.abs(fp[8:12] - fr[4:8])) < 1e-7


def test_zero_field_constant_trajectory():
    cfg = dynamics.IntegratorConfig()
    z0 = np.array([1.0, -2.0, 0.5])
    rec = dynamics.integrate(zero_field(3), z0, 5.0, cfg)
    assert np.max(np.abs(rec.states - z0)) == 0.0
    assert rec.times[-1] == pytest.approx(5.0)


def test_kepler_circular_orbit():
    # circular binary with a far-away third body: radius constant to 1e-7
    mm = model.MassTriple(1e-5, 1.0, 1.5)
    a = 1.0
    om = math.sqrt((mm.m2 + mm.m3) / a ** 3)
    r2 = np.array([mm.a3 * a, 0, 0, 0])
    r3 = np.array([-mm.a2 * a, 0, 0, 0])
    r1 = np.array([0, 0, 1e4, 0])
    v2 = np.array([0, om * mm.a3 * a, 0, 0])
    v3 = np.array([0, -om * mm.a2 * a, 0, 0])
    st = model.jacobi_from_positions(mm, r1, r2, r3, np.zeros(4), v2, v3)
    z0 = reduction.full_to_array(st)
    period = 2 * math.pi / om
    cfg = dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    rec = dynamics.integrate(dynamics.full_field(mm), z0, period, cfg)
    radii = np.linalg.norm(rec.states[:, 0:4], axis=1)
    assert np.max(np.abs(radii - a)) < 1e-7
    assert np.max(np.abs(rec.states[-1] - z0)) < 1e-5  # closed orbit


def test_energy_drift_adaptive():
    red0 = reduction.ReducedState([1.1, 0.1, -0.2, 0.9],
                                  [0.02, -0.01, 0.03, 0.01], MU1, MU2)
    z0 = np.concatenate([red0.q, red0.p])
    cfg = dynamics.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    rec = dynamics.integrate(dynamics.reduced_field(MASSES, MU1, MU2), z0, 2.0, cfg,
                             monitors=dynamics.reduced_monitors(MASSES, MU1, MU2))
    assert rec.n_steps >= 1000
    h = rec.monitors["H"]
    assert np.max(np.abs(h - h[0])) / abs(h[0]) < 1e-8


def test_reversibility():
    red0 = reduction.ReducedState([1.1, 0.1, -0.2, 0.9],
                                  [0.02, -0.01, 0.03, 0.01], MU1, MU2)
    z0 = np.concatenate([red0.q, red0.p])
    cfg = dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    fwd = dynamics.reduced_field(MASSES, MU1, MU2)
    bwd = dynamics.VectorField(8, lambda t, z: -fwd.evaluate(t, z))
    rec = dynamics.integrate(fwd, z0, 3.0, cfg)
    back = dynamics.integrate(bwd, rec.states[-1], 3.0, cfg)
    tol = 10 * cfg.rel_tol * (rec.n_steps + back.n_steps)
    assert np.max(np.abs(back.states[-1] - z0)) < tol


def test_midpoint_energy_bounded():
    rep = equilibria.isosceles_equilibrium(1.0, 0.25)
    z0 = np.concatenate([rep.q, [1e-3, -5e-4, 8e-4, -2e-4]])
    period = 2 * math.pi / rep.omega1
    cfg = dynamics.IntegratorConfig(method="midpoint", dt=period / 200,
                                    monitor_every=10)
    rec = dynamics.integrate(dynamics.reduced_field(EQUAL, rep.mu1, rep.mu2),
                             z0, 20 * period, cfg,
                             monitors=dynamics.reduced_monitors(EQUAL, rep.mu1, rep.mu2))
    h = rec.monitors["H"]
    drift = np.abs(h - h[0]) / abs(h[0])
    half = len(h) // 2
    assert np.max(drift) < 1e-10
    # bounded oscillation, no secular growth
    assert np.max(drift[half:]) < 3.0 * max(np.max(drift[:half]), 1e-14)


def test_domain_exit_on_collision_course():
    red = reduction.ReducedState([0.5, 0.0, 0.0, 2.0], [-0.6, 0.0, 0.0, 0.0],
                                 1.0, 0.0)
    z0 = np.concatenate([red.q, red.p])
    rec = dynamics.integrate(dynamics.reduced_field(EQUAL, 1.0, 0.0), z0, 10.0,
                             dynamics.IntegratorConfig(max_steps=100000))
    assert rec.domain_exit is not None
    assert rec.exit_time is not None and 0 < rec.exit_time < 10.0
    assert len(rec.times) > 10  # partial trajectory retained
    assert rec.states[-1][0] < 0.01  # binary separation collapsed


def _parabola_field():
    """x' = 1, y' = x on the domain y <= 1/2: from 0, y = t^2/2 leaves it at t = 1."""
    def evaluate(t, z):
        if z[1] > 0.5:
            raise KineticDomainError("y past 1/2")
        return np.array([1.0, z[0]])
    return dynamics.VectorField(2, evaluate)


@pytest.mark.parametrize("cfg", [dynamics.IntegratorConfig(),
                                 dynamics.IntegratorConfig(rel_tol=1e-6),
                                 dynamics.IntegratorConfig(max_step=0.3)],
                         ids=["default", "rel_tol", "max_step"])
def test_dopri_exits_where_the_flow_leaves_the_domain(cfg):
    rec = dynamics.integrate(_parabola_field(), np.zeros(2), 2.0, cfg)
    assert rec.domain_exit == "KineticDomainError: y past 1/2"
    assert abs(rec.exit_time - 1.0) < 1e-12
    assert rec.times[-1] == rec.exit_time and rec.states[-1][1] <= 0.5


def test_dopri_step_too_long_for_the_domain_is_no_exit():
    # a rotation on the disc |z|^2 <= 1.001: the orbit from (1, 0) stays
    # inside, the stages of a long step do not
    def evaluate(t, z):
        if z[0] * z[0] + z[1] * z[1] > 1.001:
            raise ChartSingular("outside the disc")
        return np.array([-z[1], z[0]])

    rec = dynamics.integrate(dynamics.VectorField(2, evaluate), np.array([1.0, 0.0]),
                             2 * math.pi, dynamics.IntegratorConfig(rel_tol=1e-6))
    assert rec.domain_exit is None and rec.n_rejected > 0
    assert np.max(np.abs(rec.states[-1] - [1.0, 0.0])) < 1e-6


def test_dopri_exit_at_the_start():
    def evaluate(t, z):
        raise CollisionError("at the start")

    rec = dynamics.integrate(dynamics.VectorField(1, evaluate), np.zeros(1), 1.0,
                             dynamics.IntegratorConfig())
    assert rec.domain_exit == "CollisionError: at the start"
    assert rec.exit_time == 0.0
    assert rec.times.tolist() == [0.0] and rec.n_steps == 0


def test_sample_times_are_hit():
    cfg = dynamics.IntegratorConfig()
    samples = np.array([0.31, 0.72, 1.5])
    red0 = reduction.ReducedState([1.1, 0.1, -0.2, 0.9], np.zeros(4), MU1, MU2)
    z0 = np.concatenate([red0.q, red0.p])
    rec = dynamics.integrate(dynamics.reduced_field(MASSES, MU1, MU2), z0, 2.0,
                             cfg, t_samples=samples)
    for s in samples:
        assert np.min(np.abs(rec.times - s)) < 1e-9


def test_compare_full_vs_reduced_near_equilibrium():
    rep = equilibria.isosceles_equilibrium(1.0, 0.25)
    pert = np.array([1e-3, -5e-4, 8e-4, -2e-4])
    start = reduction.ReducedState(rep.q, pert, rep.mu1, rep.mu2)
    period = 2 * math.pi / rep.omega1
    cfg = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    report = dynamics.compare_full_vs_reduced(EQUAL, start, period, cfg)
    assert report.domain_exit is None
    assert report.max_qp_deviation < 1e-6
    assert report.max_mu_drift < 1e-9
    assert report.max_invariant_residual < 1e-7


def test_compare_records_only_the_start_and_the_sample_times(monkeypatch):
    records = []
    integrate = dynamics.integrate
    monkeypatch.setattr(dynamics, "integrate",
                        lambda *a, **k: records.append(integrate(*a, **k)) or records[-1])
    rep = equilibria.isosceles_equilibrium(1.0, 0.25)
    start = reduction.ReducedState(rep.q, np.array([1e-3, -5e-4, 8e-4, -2e-4]),
                                   rep.mu1, rep.mu2)
    cfg = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    report = dynamics.compare_full_vs_reduced(EQUAL, start, 0.5, cfg, n_samples=8)
    assert report.times.tolist() == np.linspace(0.0, 0.5, 9)[1:].tolist()
    for rec in records:
        assert rec.n_steps > 9
        assert rec.times.tolist() == [0.0] + report.times.tolist()
        assert len(rec.states) == 9


@pytest.mark.parametrize("n_samples", [1, 6, 32])
def test_compare_runs_pair_up_row_by_row(monkeypatch, n_samples):
    # compare_full_vs_reduced zips the states of its two runs: each run holds
    # the start and then one row at each sample time
    records = []
    integrate = dynamics.integrate
    monkeypatch.setattr(dynamics, "integrate",
                        lambda *a, **k: records.append(integrate(*a, **k)) or records[-1])
    rep = equilibria.isosceles_equilibrium(1.0, 0.25)
    start = reduction.ReducedState(rep.q, np.array([1e-3, -5e-4, 8e-4, -2e-4]),
                                   rep.mu1, rep.mu2)
    cfg = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    report = dynamics.compare_full_vs_reduced(EQUAL, start, 0.5, cfg, n_samples=n_samples)
    assert len(records) == 2 and len(report.times) == n_samples
    for rec in records:
        assert len(rec.times) == len(rec.states) == n_samples + 1
        assert rec.times[0] == 0.0
        for t, sample in zip(rec.times[1:].tolist(), report.times.tolist()):
            assert abs(t - sample) <= 1e-13 * sample


@pytest.mark.parametrize("method", ["dopri", "midpoint"])
def test_sample_landings_are_recorded_between_monitor_every_rows(method):
    rep = equilibria.isosceles_equilibrium(1.0, 0.25)
    z0 = np.concatenate([rep.q, [1e-3, -5e-4, 8e-4, -2e-4]])
    samples = [0.0123, 0.05, 0.1, 0.17, 0.2345]
    cfg = dynamics.IntegratorConfig(method=method, dt=1e-3, monitor_every=3)
    rec = dynamics.integrate(dynamics.reduced_field(EQUAL, rep.mu1, rep.mu2), z0, 0.3, cfg,
                             monitors=dynamics.reduced_monitors(EQUAL, rep.mu1, rep.mu2),
                             t_samples=np.array(samples))
    times = rec.times.tolist()
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[-1] == 0.3 and len(rec.monitors["H"]) == len(times)
    for sample in samples:
        assert min(abs(t - sample) for t in times) <= 1e-13 * sample
    # every third step is recorded too, so far more rows than samples
    assert len(times) > rec.n_steps // 3


@pytest.mark.parametrize("method", ["dopri", "midpoint"])
def test_monitor_domain_error_propagates(method):
    # only the field's domain errors end a run as a domain exit
    def monitor(t, z):
        if t > 0.05:
            raise CollisionError("in a monitor")
        return 0.0
    cfg = dynamics.IntegratorConfig(method=method, dt=0.01)
    with pytest.raises(CollisionError, match="in a monitor"):
        dynamics.integrate(dynamics.VectorField(1, kernel=lambda t, z: [1.0]), [0.0], 0.1, cfg,
                           monitors={"m": monitor})


def test_compare_at_equilibrium_stays_on_group_orbit():
    rep = equilibria.isosceles_equilibrium(1.0, 0.2)
    start = reduction.ReducedState(rep.q, np.zeros(4), rep.mu1, rep.mu2)
    period = 2 * math.pi / rep.omega1
    cfg = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    # reduced state stays put
    z0 = np.concatenate([start.q, start.p])
    rec = dynamics.integrate(dynamics.reduced_field(EQUAL, rep.mu1, rep.mu2),
                             z0, period, cfg)
    assert np.max(np.abs(rec.states - z0)) < 1e-8
    # full trajectory stays on the group orbit: scalar products constant
    zf = reduction.full_to_array(
        reduction.lift_to_full(reduction.embed_reduced(start)))
    recf = dynamics.integrate(dynamics.full_field(EQUAL), zf, period, cfg)
    s0 = scalar_products(oracles.array_to_full(recf.states[0]))
    for row in recf.states:
        s = scalar_products(oracles.array_to_full(row))
        assert abs(s.s11 - s0.s11) < 1e-8
        assert abs(s.s22 - s0.s22) < 1e-8
        assert abs(s.s12 - s0.s12) < 1e-8


def test_trajectory_record_csv_json():
    cfg = dynamics.IntegratorConfig()
    red0 = reduction.ReducedState([1.1, 0.1, -0.2, 0.9], np.zeros(4), MU1, MU2)
    z0 = np.concatenate([red0.q, red0.p])
    rec = dynamics.integrate(dynamics.reduced_field(MASSES, MU1, MU2), z0, 0.3,
                             cfg, monitors=dynamics.reduced_monitors(MASSES, MU1, MU2))
    assert np.all(np.diff(rec.times) > 0)
    for vals in rec.monitors.values():
        assert len(vals) == len(rec.times)
    buf = io.StringIO()
    labels = [f"q{i}" for i in range(1, 5)] + [f"p{i}" for i in range(1, 5)]
    rec.to_csv(buf, state_labels=labels)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,q1,q2,q3,q4,p1,p2,p3,p4,H"
    assert len(lines) == len(rec.times) + 1
    # 17 significant digits round-trip
    first = lines[1].split(",")
    assert float(first[1]) == rec.states[0][0]
    buf = io.StringIO()
    rec.to_json(buf, state_labels=labels)
    obj = json.loads(buf.getvalue())
    assert obj["domain_exit"] is None
    assert len(obj["t"]) == len(rec.times)
    assert obj["states"]["q1"][0] == rec.states[0][0]


def _csv(write, rec, labels):
    buf = io.StringIO()
    write(rec, buf, state_labels=labels)
    return buf.getvalue()


def test_to_csv_bytes_equal_numpy_scalar_formatting():
    red = reduction.ReducedState([1.1, 0.1, -0.2, 0.9], [0.02, -0.01, 0.03, 0.01], MU1, MU2)
    zr = np.concatenate([red.q, red.p])
    zp = reduction.partial_to_array(reduction.embed_reduced(red))
    zf = reduction.full_to_array(reduction.lift_to_full(reduction.embed_reduced(red)))
    cfg = dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    runs = [
        (dynamics.reduced_field(MASSES, MU1, MU2), zr,
         dynamics.reduced_monitors(MASSES, MU1, MU2), 0.5),
        (dynamics.partial_field(MASSES), zp, dynamics.partial_monitors(MASSES, MU1, MU2), 0.5),
        (dynamics.full_field(MASSES), zf, dynamics.full_monitors(MASSES), 0.5),
        # collision course: the record ends at a domain exit
        (dynamics.reduced_field(EQUAL, 1.0, 0.0),
         np.array([0.5, 0.0, 0.0, 2.0, -0.6, 0.0, 0.0, 0.0]),
         dynamics.reduced_monitors(EQUAL, 1.0, 0.0), 10.0),
    ]
    for field, z0, mons, t_end in runs:
        rec = dynamics.integrate(field, z0, t_end, cfg, monitors=mons)
        assert len(rec.times) > 10
        labels = [f"s{i}" for i in range(field.dimension)]
        assert (_csv(dynamics.TrajectoryRecord.to_csv, rec, labels)
                == _csv(oracles.to_csv, rec, labels))
    assert rec.domain_exit is not None


def _fixed_slopes(slopes):
    """A kernel that ignores its input and returns the next row of `slopes`."""
    rows = iter(slopes)
    return lambda t, z: next(rows)


def _hex(values):
    return [float.hex(v) for v in values]


def test_error_norm_equals_list_oracle_bitwise():
    # fixed slopes hand the step its y, new state and error estimate: the new
    # state and y vanish at every third component (the seventh slope enters
    # only the estimate), and the estimate at every second one
    rng = np.random.default_rng(5)
    for dim in (1, 7, 8, 16, 200):
        for scale in (1e-12, 1.0, 1e150, 1e300):
            draws = scale * rng.normal(size=(8, dim))
            y, slopes = draws[0], draws[1:]
            y[::3] = 0.0
            slopes[:6, ::3] = 0.0
            slopes[:, ::2] = 0.0
            for abs_tol, rel_tol in ((1e-13, 1e-11), (1e-10, 1e-10)):
                ynew, fast = dynamics._dopri_step(dim)(_fixed_slopes(slopes.tolist()), 0.3,
                                                       y.tolist(), 1.0, abs_tol, rel_tol)
                ynew_ref, err = oracles.dopri_step_list(_fixed_slopes(slopes.tolist()), 0.3,
                                                        y.tolist(), 1.0)
                assert _hex(ynew) == _hex(ynew_ref)
                assert fast.hex() == oracles.error_norm_list(err, y.tolist(), ynew, abs_tol,
                                                             rel_tol).hex()
                with np.errstate(over="ignore"):
                    ref = oracles.error_norm(np.array(err), y, np.array(ynew), abs_tol, rel_tol)
                if scale == 1e300 and dim > 1:
                    # an error over abs_tol alone overflows to inf, in every form
                    assert fast == ref == math.inf
                else:
                    assert fast == pytest.approx(ref, rel=1e-14)


def test_error_norm_is_nan_when_the_new_state_is():
    # the sixth slope enters the new state and the error estimate alike
    for i in range(4):
        slopes = [[1.0] * 4 for _ in range(7)]
        slopes[5][i] = math.nan
        ynew, norm = dynamics._dopri_step(4)(_fixed_slopes(slopes), 0.0, [1.0] * 4, 1e-3,
                                             1e-12, 1e-10)
        assert [math.isnan(v) for v in ynew] == [j == i for j in range(4)]
        assert math.isnan(norm)


def _random_kernel(rng, n):
    """A nonlinear field on n floats whose components mix others, some of them -0.0 or NaN."""
    a, b, c = rng.normal(size=(3, n)).tolist()
    j, m = rng.integers(0, n, size=(2, n)).tolist()
    form = rng.choice(5, size=n, p=[0.3, 0.3, 0.3, 0.08, 0.02]).tolist()

    def kernel(t, z):
        return tuple(a[i] * math.sin(z[j[i]] + t) + b[i] if f == 0
                     else a[i] * z[i] * z[m[i]] - c[i] * z[j[i]] if f == 1
                     else b[i] / (1.0 + z[j[i]] * z[j[i]]) - c[i] * t if f == 2
                     else -0.0 if f == 3 else math.nan
                     for i, f in enumerate(form))
    return kernel


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.sampled_from((1, 2, 7, 8, 16, 17)), h=st.sampled_from((1e-1, 1e-3, 1e-6)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_generated_dopri_step_equals_the_list_step_bitwise(n, h, seed):
    rng = np.random.default_rng(seed)
    kernel = _random_kernel(rng, n)
    y = (rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)).tolist()
    for i in rng.integers(0, n, size=2).tolist():
        y[i] = float(rng.choice((0.0, -0.0)))
    calls = []
    ynew, enorm = dynamics._dopri_step(n)(_counted(kernel, calls), 0.7, y, h, 1e-12, 1e-10)
    ynew_ref, err = oracles.dopri_step_list(kernel, 0.7, y, h)
    assert len(calls) == 7
    assert _hex(ynew) == _hex(ynew_ref)
    assert enorm.hex() == oracles.error_norm_list(err, y, ynew_ref, 1e-12, 1e-10).hex()


@pytest.mark.parametrize("stage", range(7))
def test_generated_dopri_step_at_a_nan_or_out_of_domain_stage(stage):
    # the slopes ignore the input, so only the error estimate can carry a NaN
    # of the second or seventh stage to the norm
    for n in (1, 2, 7, 8, 16, 17):
        slopes = [[0.5] * n for _ in range(7)]
        slopes[stage][n // 2] = math.nan
        _, norm = dynamics._dopri_step(n)(_fixed_slopes(slopes), 0.0, [1.0] * n, 1e-3,
                                          1e-12, 1e-10)
        assert math.isnan(norm)
        calls = []

        def kernel(t, z):
            calls.append(t)
            if len(calls) == stage + 1:
                raise KineticDomainError("stage outside the domain")
            return [0.5] * n

        with pytest.raises(KineticDomainError):
            dynamics._dopri_step(n)(kernel, 0.0, [1.0] * n, 1e-3, 1e-12, 1e-10)
        assert len(calls) == stage + 1


def _seeded_fields(rng):
    """The reduced, partial and full fields, each with a start from a random reduced state."""
    red = random_reduced_state(rng, MU1, MU2)
    part = reduction.embed_reduced(red)
    return [(dynamics.reduced_field(MASSES, MU1, MU2), np.concatenate([red.q, red.p])),
            (dynamics.partial_field(MASSES), reduction.partial_to_array(part)),
            (dynamics.full_field(MASSES),
             reduction.full_to_array(reduction.lift_to_full(part)))]


def test_dopri_list_step_agrees_with_the_numpy_step():
    # normwise, relative to the largest component: the stage sums run in
    # another order than numpy's dot products, and the partial field's
    # p_psi rates are rounding noise of size eps around 0, so a component
    # alone can move by its whole size; the error estimate cancels the
    # slopes to O(h^5), so it is measured against h max|k|
    rng = np.random.default_rng(6)
    abs_tol, rel_tol = 1e-12, 1e-10
    for _ in range(10):
        for field, z in _seeded_fields(rng):
            for h in (1e-1, 1e-2, 1e-3):
                k = np.empty((7, z.size))
                ynew_ref, err_ref = oracles.dopri_step(field, 0.3, z, h, k)
                ynew, err = oracles.dopri_step_list(field.kernel, 0.3, z.tolist(), h)
                assert np.max(np.abs(np.array(ynew) - ynew_ref)) \
                    <= 1e-14 * np.max(np.abs(ynew_ref))
                assert np.max(np.abs(np.array(err) - err_ref)) <= 1e-14 * h * np.max(np.abs(k))
                step_ynew, norm = dynamics._dopri_step(z.size)(field.kernel, 0.3, z.tolist(), h,
                                                               abs_tol, rel_tol)
                assert _hex(step_ynew) == _hex(ynew)
                assert norm == pytest.approx(
                    oracles.error_norm(np.array(err), z, np.array(ynew), abs_tol, rel_tol),
                    rel=1e-14)


def _counted(fn, calls):
    def counted(t, z):
        calls.append(t)
        return fn(t, z)
    return counted


def _same_records(a, b):
    return (a.times.tobytes() == b.times.tobytes() and a.states.tobytes() == b.states.tobytes()
            and a.monitors.keys() == b.monitors.keys()
            and all(np.asarray(a.monitors[k]).tobytes() == np.asarray(b.monitors[k]).tobytes()
                    for k in a.monitors)
            and (a.n_steps, a.n_rejected, a.domain_exit, a.exit_time)
            == (b.n_steps, b.n_rejected, b.domain_exit, b.exit_time))


@pytest.mark.parametrize("method", ["dopri", "midpoint"])
def test_kernel_path_equals_the_evaluate_only_path(method):
    # the benchmark's tracer wraps `evaluate`, so its counts hold for the kernel path
    cfg = dynamics.IntegratorConfig(method=method, rel_tol=1e-11, abs_tol=1e-13, dt=2e-3)
    monitors = [dynamics.reduced_monitors(MASSES, MU1, MU2),
                dynamics.partial_monitors(MASSES, MU1, MU2), dynamics.full_monitors(MASSES)]
    for (vf, z0), mons in zip(_seeded_fields(np.random.default_rng(7)), monitors):
        runs = []
        for build in (lambda calls: dynamics.VectorField(vf.dimension, name=vf.name,
                                                         kernel=_counted(vf.kernel, calls)),
                      lambda calls: dynamics.VectorField(vf.dimension,
                                                         _counted(vf.evaluate, calls), vf.name)):
            calls = []
            rec = dynamics.integrate(build(calls), z0, 0.3, cfg, monitors=mons,
                                     t_samples=np.array([0.0137, 0.25]))
            runs.append((rec, calls))
        (rec, calls), (rec_eval, calls_eval) = runs
        assert rec.n_steps > 20 and 0.0137 in rec.times.tolist()
        assert _same_records(rec, rec_eval)
        assert calls == calls_eval


def test_numpy_scalars_stop_at_the_integrator_boundary():
    inner = dynamics.reduced_field(MASSES, MU1, MU2)

    def kernel(t, z):
        assert type(t) is float and all(type(x) is float for x in z)
        return inner.kernel(t, z)

    field = dynamics.VectorField(8, name="strict", kernel=kernel)
    z0 = np.array([1.1, 0.1, -0.2, 0.9, 0.02, -0.01, 0.03, 0.01])
    samples = [0.0137, 0.125]
    for method in ("dopri", "midpoint"):
        runs = []
        for number, sample_times in ((np.float64, np.array(samples)), (float, samples)):
            cfg = dynamics.IntegratorConfig(method=method, rel_tol=number(1e-10),
                                            abs_tol=number(1e-12), max_step=number(0.05),
                                            dt=number(math.pi / 1000))
            assert all(type(v) is float for v in (cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.dt))
            runs.append(dynamics.integrate(field, z0, number(0.2), cfg,
                                           monitors=dynamics.reduced_monitors(MASSES, MU1, MU2),
                                           t_samples=sample_times))
        assert runs[0].n_steps > 10 and _same_records(*runs)


def test_vector_field_needs_evaluate_or_kernel():
    with pytest.raises(TypeError):
        dynamics.VectorField(2)


def test_step_limit_raises_before_stepping_or_once_reached():
    assert issubclass(StepLimitExceeded, RuntimeError)
    counted = itertools.count()

    def evaluate(t, z):
        next(counted)
        return -z

    field = dynamics.VectorField(2, evaluate)
    z0 = np.array([1.0, 0.5])
    midpoint = dict(method="midpoint", dt=1e-3, max_steps=10)
    # 1000 steps of dt asked for: refused before any field evaluation
    with pytest.raises(StepLimitExceeded):
        dynamics.integrate(field, z0, 1.0, dynamics.IntegratorConfig(**midpoint))
    assert next(counted) == 0
    # exactly max_steps steps pass; landing on samples off the grid takes more
    rec = dynamics.integrate(field, z0, 10 * 1e-3, dynamics.IntegratorConfig(**midpoint))
    assert rec.n_steps == 10
    with pytest.raises(StepLimitExceeded, match="reached"):
        dynamics.integrate(field, z0, 10 * 1e-3, dynamics.IntegratorConfig(**midpoint),
                           t_samples=np.array([2.5e-3, 5.5e-3]))
    with pytest.raises(StepLimitExceeded, match="dopri"):
        dynamics.integrate(field, z0, 100.0,
                           dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14,
                                                     max_steps=10))


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        dynamics.IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        dynamics.IntegratorConfig(dt=0.0)
    for bad in ({"dt": math.nan}, {"dt": math.inf}, {"rel_tol": math.nan},
                {"abs_tol": math.nan}, {"max_step": math.nan}):
        with pytest.raises(ValueError):
            dynamics.IntegratorConfig(**bad)
    for every in (0, -3):
        with pytest.raises(ValueError, match="monitor_every"):
            dynamics.IntegratorConfig(monitor_every=every)
    # a NaN limit compares false with every step count, switching it off
    for limit in (math.nan, 0, -1, 2.5):
        with pytest.raises(ValueError, match="max_steps"):
            dynamics.IntegratorConfig(max_steps=limit)
    assert dynamics.IntegratorConfig(max_steps=np.int64(7)).max_steps == 7
    # an unknown method is refused when the config is made, naming the known ones
    with pytest.raises(ValueError, match="method") as exc:
        dynamics.IntegratorConfig(method="rk4")
    assert "dopri" in str(exc.value) and "midpoint" in str(exc.value)
    cfg = dynamics.IntegratorConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.method = "rk4"


def test_reduced_field_checks_momenta_once():
    with pytest.raises(DegenerateMomenta):
        dynamics.reduced_field(MASSES, 0.4, 1.3)
    with pytest.raises(ValueError):
        dynamics.reduced_field(MASSES, 1.3, -0.1)


def test_integrate_rejects_non_finite_input():
    field = dynamics.reduced_field(MASSES, MU1, MU2)
    z0 = np.array([1.1, 0.1, -0.2, 0.9, 0.0, 0.0, 0.0, 0.0])
    cfg = dynamics.IntegratorConfig()
    with pytest.raises(ValueError):
        dynamics.integrate(field, np.where(np.arange(8) == 5, math.nan, z0), 1.0, cfg)
    for t_end in (math.nan, math.inf):
        with pytest.raises(ValueError):
            dynamics.integrate(field, z0, t_end, cfg)


def test_dopri_nan_momentum_raises_step_size_underflow():
    # a NaN makes every error estimate NaN; the step must not shrink for ever
    z0 = np.array([1.1, 0.1, -0.2, 0.9, 0.02, -0.01, 0.03, 0.01])
    field = dynamics.VectorField(8, lambda t, z: np.full(8, math.nan))
    with pytest.raises(StepSizeUnderflow):
        dynamics.integrate(field, z0, 1.0, dynamics.IntegratorConfig(max_steps=10_000))


@pytest.mark.parametrize("mu1, mu2", [(math.nan, 0.4), (1.3, math.nan), (math.inf, 0.4)])
def test_reduced_field_refuses_non_finite_momenta(mu1, mu2):
    with pytest.raises(ValueError, match="finite"):
        dynamics.reduced_field(MASSES, mu1, mu2)


@pytest.mark.parametrize("stage", range(7))
def test_dopri_nan_in_one_stage_raises_step_size_underflow(stage):
    # the field ignores its input, so the NaN reaches no later stage; the
    # error estimate still carries it, the second slope's zero weight too
    calls = itertools.count()

    def evaluate(t, z):
        return np.array([math.nan if next(calls) == stage else 1.0])

    with pytest.raises(StepSizeUnderflow):
        dynamics.integrate(dynamics.VectorField(1, evaluate), np.zeros(1), 1.0,
                           dynamics.IntegratorConfig(max_steps=10_000))


def test_dopri_collapsing_step_raises_step_size_underflow():
    # finite error estimates that no step size can bring under tolerance
    calls = itertools.count()
    noisy = dynamics.VectorField(1, lambda t, z: np.array([(-1e6) ** (next(calls) % 2)]))
    with pytest.raises(StepSizeUnderflow):
        dynamics.integrate(noisy, np.zeros(1), 1.0,
                           dynamics.IntegratorConfig(max_steps=10_000))


def test_dopri_takes_seven_evaluations_per_attempted_step():
    counted = itertools.count()
    field = dynamics.partial_field(MASSES)

    def evaluate(t, z):
        next(counted)
        return field.evaluate(t, z)

    red = random_reduced_state(np.random.default_rng(4), MU1, MU2)
    z0 = reduction.partial_to_array(reduction.embed_reduced(red))
    cfg = dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    rec = dynamics.integrate(dynamics.VectorField(16, evaluate), z0, 1.0, cfg)
    assert rec.domain_exit is None and rec.n_rejected > 0
    assert next(counted) == 7 * (rec.n_steps + rec.n_rejected)


@pytest.mark.parametrize("n", [10, 100, 300, 1000])
def test_midpoint_takes_exactly_n_steps_to_n_dt(n):
    rep = equilibria.isosceles_equilibrium(1.0, 0.25)
    z0 = np.concatenate([rep.q, [1e-3, -5e-4, 8e-4, -2e-4]])
    dt = 2 * math.pi / rep.omega1 / 300
    cfg = dynamics.IntegratorConfig(method="midpoint", dt=dt, monitor_every=n)
    rec = dynamics.integrate(dynamics.reduced_field(EQUAL, rep.mu1, rep.mu2),
                             z0, n * dt, cfg)
    assert rec.n_steps == n
    assert rec.times[-1] == n * dt


def _criterion_11_start():
    """Isosceles n = 1, t = 0.25 with the criterion-11 perturbation; field, z0, dt."""
    rep = equilibria.isosceles_equilibrium(1.0, 0.25)
    z0 = np.concatenate([rep.q, [1e-3, -5e-4, 8e-4, -2e-4]])
    dt = 2 * math.pi / rep.omega1 / 300
    return dynamics.reduced_field(EQUAL, rep.mu1, rep.mu2), z0, dt


def _oracle_deviation(field, rec):
    """Max-abs distance of every recorded state from oracle steps between the recorded times."""
    y = rec.states[0]
    worst = 0.0
    for i in range(1, len(rec.times)):
        y = oracles.midpoint_step(field, rec.times[i - 1], y,
                                  rec.times[i] - rec.times[i - 1])
        worst = max(worst, float(np.max(np.abs(y - rec.states[i]))))
    return worst


def test_midpoint_predictor_matches_oracle_at_about_one_evaluation_per_step():
    field, z0, dt = _criterion_11_start()
    counted = itertools.count()

    def evaluate(t, z):
        next(counted)
        return field.evaluate(t, z)

    rec = dynamics.integrate(dynamics.VectorField(8, evaluate), z0, 300 * dt,
                             dynamics.IntegratorConfig(method="midpoint", dt=dt))
    assert rec.n_steps == 300 and len(rec.times) == 301
    # 327 evaluations, 1.09 per step, with the degree-6 least-squares
    # slope over eight steps
    assert next(counted) <= 1.2 * rec.n_steps
    assert _oracle_deviation(field, rec) < 1e-12


@pytest.mark.parametrize("mu1, mu2, q, p, dt", [
    (1.2083326941244694, 0.28993850131066673,
     [-0.667843284495583, 0.8439320205228151, 0.8890204472068732, 0.9441313115063237],
     [-0.14523773091474054, -0.3087039208529332, -0.27154180180566134,
      -0.1759908156542992],
     0.003392120946057813),
    (1.0155223789598726, 0.1885977718545966,
     [-1.0655870589212517, 1.0772661659628662, -1.280317050186798, -1.5883630901229335],
     [0.11856642414546414, 0.0681714584209864, -0.1487166528726193,
      -0.044528207493100276],
     0.0007096532880122635),
])
def test_midpoint_iterate_outside_the_domain_is_no_domain_exit(mu1, mu2, q, p, dt):
    # a dopri run at rel 1e-12 keeps max|L3| at 0.887 < mu1 - mu2 = 0.918 and
    # 0.799 < 0.827; an iteration from the extrapolated slope leaves the
    # kinetic domain on the way (at t = 0.556 and t = 0.919), the solve from
    # f(t, y) does not
    field = dynamics.reduced_field(MASSES, mu1, mu2)
    rec = dynamics.integrate(field, np.array(q + p), 1.0,
                             dynamics.IntegratorConfig(method="midpoint", dt=dt))
    assert rec.domain_exit is None and rec.times[-1] == 1.0


def test_midpoint_retries_a_predicted_solve_from_the_field_at_the_step_start():
    field, z0, dt = _criterion_11_start()
    called, refused = [], []

    def evaluate(t, z):
        called.append(t)
        if t > 10.2 * dt and not refused:
            refused.append(len(called) - 1)
            raise KineticDomainError("iterate outside the domain")
        return field.evaluate(t, z)

    rec = dynamics.integrate(dynamics.VectorField(8, evaluate), z0, 300 * dt,
                             dynamics.IntegratorConfig(method="midpoint", dt=dt))
    assert rec.domain_exit is None and rec.n_steps == 300
    # the refused evaluation is the first iterate of the eleventh step, at its
    # midpoint; the solve then starts again from f(t, y) at the step's start
    i = refused[0]
    assert called[i] == rec.times[10] + 0.5 * dt and called[i - 1] < rec.times[10]
    assert called[i + 1] == rec.times[10]
    assert _oracle_deviation(field, rec) < 1e-12


def test_midpoint_retries_an_unconverged_predicted_solve():
    # dz/dt = -z at h = 1e-3: each iteration shrinks the error by h/2, so five
    # iterations converge from f(t, y) but not from a slope 1e6 off
    kernel = dynamics.VectorField(2, lambda t, z: -z).kernel
    y = [1.0, -0.5]
    far = [1e6 - v for v in y]
    solved = dynamics._midpoint_step(kernel, 0.0, y, 1e-3, None, max_iter=5)
    retried = dynamics._midpoint_step(kernel, 0.0, y, 1e-3, far, max_iter=5)
    assert all(a == b for a, b in zip(solved, retried))
    with pytest.raises(NoConvergence, match="did not converge"):
        dynamics._midpoint_step(kernel, 0.0, y, 1e-3, far, max_iter=2)


def _solve_outcome(solve, kernel, *args):
    """(ynew, k) as hex, or the type and message of the error raised, with the kernel calls."""
    calls = []
    try:
        ynew, k = solve(_counted(kernel, calls), *args)
    except (KineticDomainError, NoConvergence) as exc:
        return type(exc), str(exc), len(calls)
    return _hex(ynew), _hex(k), len(calls)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.sampled_from((1, 2, 7, 8, 16, 17)), h=st.sampled_from((1e-1, 1e-2, 1e-3)),
       start=st.sampled_from((None, 1e-9, 1e2)), fault=st.sampled_from((None, "domain", "nan")),
       at=st.integers(0, 6), contracting=st.booleans(), max_iter=st.sampled_from((1, 3, 100)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_generated_midpoint_solve_equals_the_list_step_bitwise(n, h, start, fault, at,
                                                               contracting, max_iter, seed):
    # the linear field -6/h z makes each iteration triple the error: it never converges
    rng = np.random.default_rng(seed)
    field = _random_kernel(rng, n) if contracting else (lambda t, z: [-6.0 / h * v for v in z])
    y = rng.normal(size=n).tolist()
    y[int(rng.integers(n))] = float(rng.choice((0.0, -0.0)))
    k = None if start is None else [v + start * w for v, w in zip(field(0.3, y),
                                                                   rng.normal(size=n))]
    where = int(rng.integers(n))

    def faulty():
        calls = itertools.count()

        def kernel(t, z):
            out = list(field(t, z))
            if next(calls) == at:
                if fault == "domain":
                    raise KineticDomainError("iterate outside the domain")
                if fault == "nan":
                    out[where] = math.nan
            return out
        return kernel

    args = (0.3, y, h, k, max_iter)
    assert (_solve_outcome(dynamics._midpoint_solve(n), faulty(), *args)
            == _solve_outcome(oracles.midpoint_step_list, faulty(), *args))


@pytest.mark.parametrize("m", range(1, dynamics._PREDICTOR_SLOPES + 1))
def test_predictor_extrapolates_polynomials_of_degree_below_m_exactly(m):
    # integer values this small are exact in every product and partial sum,
    # and the weights of the least-squares row are multiples of 1/8
    rng = np.random.default_rng(m)
    degree = min(m - 1, dynamics._PREDICTOR_DEGREE)
    coefficients = rng.integers(-50, 50, size=(9, degree + 1)).tolist()
    first = int(rng.integers(-20, 20))

    def values(x):
        return [float(sum(c * x ** d for d, c in enumerate(cs))) for cs in coefficients]

    predicted = dynamics._predictor(m, 9)(*[values(first + j) for j in range(m)])
    assert list(predicted) == values(first + m)
    if m <= 2:
        # the numpy row adds to +0.0, so only a slope's signed zero can tell them apart
        for n in (1, 2, 7, 8, 16, 17):
            slopes = (rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-100, 100, (m, n))).tolist()
            assert (_hex(dynamics._predictor(m, n)(*slopes))
                    == _hex(oracles.extrapolate(slopes, m)))


@pytest.mark.parametrize("m", range(1, dynamics._PREDICTOR_SLOPES + 1))
def test_predictor_weights_are_the_least_squares_rows_of_the_normal_equations(m):
    row = oracles.predictor_row(m)
    assert dynamics._predictor_weights(m) == row
    # the unit slopes pick each weight out of the generated sums exactly
    units = [[float(j == i) for i in range(m)] for j in range(m)]
    assert dynamics._predictor(m, m)(*units) == [float(w) for w in row]
    if m == 8:
        assert [8 * w for w in row] == [7, -41, 91, -77, -35, 133, -119, 49]


def test_midpoint_domain_exit_when_the_solve_from_the_step_start_fails():
    # dz/dt = 1 on z <= 1: from t = 1 on, every iterate of a step lies past
    # the boundary, from the predicted slope and from f(t, y) alike
    called = []

    def evaluate(t, z):
        called.append(t)
        if z[0] > 1.0:
            raise KineticDomainError("z past 1")
        return np.ones(1)

    rec = dynamics.integrate(dynamics.VectorField(1, evaluate), np.zeros(1), 2.0,
                             dynamics.IntegratorConfig(method="midpoint", dt=0.1))
    assert rec.domain_exit == "KineticDomainError: z past 1"
    assert rec.exit_time == rec.times[-1] and abs(rec.exit_time - 1.0) < 1e-12
    assert called[-2:] == [rec.exit_time, rec.exit_time + 0.05]


def test_midpoint_lands_on_samples_off_the_grid():
    field, z0, dt = _criterion_11_start()
    samples = dt * np.array([10.4, 77.7, 150.25, 299.5])
    rec = dynamics.integrate(field, z0, 300 * dt,
                             dynamics.IntegratorConfig(method="midpoint", dt=dt),
                             t_samples=samples)
    assert all(s in rec.times for s in samples)
    assert rec.times[-1] == 300 * dt
    assert _oracle_deviation(field, rec) < 1e-12


def test_midpoint_step_too_long_raises_no_convergence():
    # the command line's default start; at dt = 0.05 the fixed-point map is
    # not a contraction
    field = dynamics.reduced_field(EQUAL, 1.0, 0.3)
    z0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(NoConvergence, match="did not converge"):
        dynamics.integrate(field, z0, 3.0,
                           dynamics.IntegratorConfig(method="midpoint", dt=0.05))


def test_midpoint_nan_field_raises_no_convergence_at_once():
    field, z0, dt = _criterion_11_start()
    calls = itertools.count()

    def evaluate(t, z):
        return field.evaluate(t, z) if next(calls) < 5 else np.full(8, math.nan)

    with pytest.raises(NoConvergence, match="diverged"):
        dynamics.integrate(dynamics.VectorField(8, evaluate), z0, 300 * dt,
                           dynamics.IntegratorConfig(method="midpoint", dt=dt))
    assert next(calls) <= 7


def test_midpoint_nan_in_one_component_raises_no_convergence_at_once():
    # dz/dt = -z keeps the NaN in its component, where Python's max skips it
    calls = itertools.count()

    def evaluate(t, z):
        out = -z
        if next(calls) >= 5:
            out[-1] = math.nan
        return out

    with pytest.raises(NoConvergence, match="diverged"):
        dynamics.integrate(dynamics.VectorField(3, evaluate), np.array([1.0, -0.5, 0.25]),
                           1.0, dynamics.IntegratorConfig(method="midpoint", dt=1e-3))
    assert next(calls) == 6
