"""The four closed-loop workloads: seeded inputs, one item at a time, checked.

Every input comes from the workload's own `numpy.random.Generator`, seeded
from the command line; the library receives only arrays and floats.  An item
returns the worst error / tolerance ratio of its checks and the number of
rows it wrote; a check that fails raises `CheckFailed`.

Tolerances are the paper's acceptance criteria (criterion numbers as in
`tests/test_acceptance.py`).
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from threebody4d import dynamics, equilibria, model, reduction

# criterion 4: invariant-set dynamics of the partial system
INVARIANT_MASSES = model.MassTriple(1.0, 2.0, 3.0)
INVARIANT_CFG = dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, max_step=1.2e-3)
INVARIANT_HORIZON = 0.12
INVARIANT_C_TOL = 1e-7
INVARIANT_PTHETA_TOL = 1e-9
PARTIAL_LABELS = ([f"q{i}" for i in range(1, 5)] + ["psi1", "psi2", "theta1", "theta2"]
                  + [f"p{i}" for i in range(1, 5)]
                  + ["p_psi1", "p_psi2", "p_theta1", "p_theta2"])
REDUCED_LABELS = [f"q{i}" for i in range(1, 5)] + [f"p{i}" for i in range(1, 5)]

# criterion 11: implicit midpoint near the isosceles equilibrium (n=1, t=0.25)
MIDPOINT_MASSES = model.MassTriple(1.0, 1.0, 1.0)
MIDPOINT_STEPS = 300
MIDPOINT_MONITOR_EVERY = 30
MIDPOINT_ENERGY_TOL = 1e-9

# criterion 5: full versus reduced system
COMPARE_CFG = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
COMPARE_PERIOD_FRACTION = 0.25
COMPARE_SAMPLES = 8
COMPARE_TOL = 1e-6

# criteria 6-10: equilibria; a Newton solve may stop at 100 * its tol = 1e-10
GRADIENT_TOL = 1e-10
FP_MP_TOL = 1e-10
# one mix cycle of the energy-momentum workload: sorted by cost, the isosceles
# solves fill the lowest 35 %, float Newton 35-85 % and mpmath Newton the top
# 15 %, so the median item is a float Newton solve and the 90th percentile an
# mpmath one
EM_CYCLE = ("iso",) * 7 + ("fp",) * 10 + ("mp",) * 3
EM_DPS = 60


class CheckFailed(Exception):
    """An item's output is outside the paper's tolerance."""


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _random_mu_pair(rng):
    mu1 = rng.uniform(0.8, 2.0)
    return mu1, rng.uniform(0.05, 0.85) * mu1


def _random_reduced_start(rng, mu1, mu2):
    """(q, p) with |A| > 0.25 and |L3| well inside the kinetic domain."""
    while True:
        q = rng.uniform(0.6, 1.6, size=4) * rng.choice([-1.0, 1.0], size=4)
        if abs(0.5 * (q[0] * q[3] - q[1] * q[2])) <= 0.25:
            continue
        p = rng.normal(0.0, 0.25, size=4)
        l3 = q[0] * p[1] - q[1] * p[0] + q[2] * p[3] - q[3] * p[2]
        if abs(l3) < 0.8 * (mu1 - mu2):
            return q, p


def _written(tr, write):
    tr.call("cli.write", write, io.StringIO())


def _visit_record(tr, masses, rec):
    for z in (rec.states[0], rec.states[-1]):
        tr.visit(masses, z[0:2], z[2:4])


class Workload:
    """One closed-loop workload: `inputs[i]` feeds item i."""

    name = ""
    why = ""
    cycle = 1                  # items per input-mix cycle
    nominal_items_per_s = 1.0  # at the seed commit; sizes the traced run
    pool = 2000                # inputs drawn; item i uses inputs[i % pool]

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = [self.draw(rng) for _ in range(self.pool)]

    def draw(self, rng):
        raise NotImplementedError

    def run(self, index: int, tr):
        """Run item `index` through recorder `tr`; returns (err_ratio, rows)."""
        return self.run_item(self.inputs[index % self.pool], tr)

    def run_item(self, inp, tr):
        raise NotImplementedError


class InvariantEnsemble(Workload):
    name = "invariant-ensemble"
    why = ("adaptive dopri on the 16-dim partial field with partial_monitors at every "
           "step: the heaviest path (criterion 4, verify --checks invariant)")
    nominal_items_per_s = 10.0

    def draw(self, rng):
        mu1, mu2 = _random_mu_pair(rng)
        q, p = _random_reduced_start(rng, mu1, mu2)
        return mu1, mu2, q, p

    def run_item(self, inp, tr):
        mu1, mu2, q, p = inp
        masses = INVARIANT_MASSES
        start = reduction.embed_reduced(reduction.ReducedState(q, p, mu1, mu2))
        z0 = reduction.partial_to_array(start)
        field = tr.field(dynamics.partial_field(masses))
        mons = tr.monitors(dynamics.partial_monitors(masses, mu1, mu2))
        rec = tr.integrated(tr.call("dynamics.integrate", dynamics.integrate, field, z0,
                                    INVARIANT_HORIZON, INVARIANT_CFG, monitors=mons))
        err_c = max(float(np.max(np.abs(rec.monitors[f"c{i}"]))) for i in range(1, 5))
        err_p = max(float(np.max(np.abs(rec.monitors["p_theta1"] - mu1))),
                    float(np.max(np.abs(rec.monitors["p_theta2"] - mu2))))
        ratio = max(err_c / INVARIANT_C_TOL, err_p / INVARIANT_PTHETA_TOL)
        if not ratio < 1.0:
            raise CheckFailed(f"max |c_i| = {err_c:.3e}, max |dp_theta| = {err_p:.3e}")
        _written(tr, lambda fh: rec.to_csv(fh, state_labels=PARTIAL_LABELS))
        _visit_record(tr, masses, rec)
        return ratio, len(rec.times)


class LongrunMidpoint(Workload):
    name = "longrun-midpoint"
    why = ("one period of implicit midpoint (300 fixed steps) on the 8-dim reduced "
           "field, sparse monitors: fixed-point solves, no step control (criterion 11)")
    nominal_items_per_s = 9.0

    def __init__(self, seed: int):
        rep = equilibria.isosceles_equilibrium(1.0, 0.25)
        self.q0, self.mu1, self.mu2 = rep.q, rep.mu1, rep.mu2
        self.cfg = dynamics.IntegratorConfig(
            method="midpoint", dt=2.0 * math.pi / rep.omega1 / MIDPOINT_STEPS,
            monitor_every=MIDPOINT_MONITOR_EVERY)
        # the horizon is the time the integrator reaches after exactly
        # MIDPOINT_STEPS steps of dt, summed the way it sums them
        self.t_end = 0.0
        for _ in range(MIDPOINT_STEPS):
            self.t_end += self.cfg.dt
        super().__init__(seed)

    def draw(self, rng):
        return 1e-3 * rng.normal(size=4)

    def run_item(self, inp, tr):
        masses = MIDPOINT_MASSES
        z0 = np.concatenate([self.q0, inp])
        field = tr.field(dynamics.reduced_field(masses, self.mu1, self.mu2))
        mons = tr.monitors(dynamics.reduced_monitors(masses, self.mu1, self.mu2))
        rec = tr.integrated(tr.call("dynamics.integrate", dynamics.integrate, field, z0,
                                    self.t_end, self.cfg, monitors=mons))
        h = rec.monitors["H"]
        err = float(np.max(np.abs(h - h[0]))) / abs(float(h[0]))
        ratio = err / MIDPOINT_ENERGY_TOL
        if rec.n_steps != MIDPOINT_STEPS or not ratio < 1.0:
            raise CheckFailed(f"{rec.n_steps} steps, max relative energy error {err:.3e}")
        _written(tr, lambda fh: rec.to_csv(fh, state_labels=REDUCED_LABELS))
        _visit_record(tr, masses, rec)
        return ratio, len(rec.times)


class CompareFullReduced(Workload):
    name = "compare-full-reduced"
    why = ("compare_full_vs_reduced near isosceles equilibria: the only path through the "
           "full 16-dim field, full_monitors and the chart projection (criterion 5)")
    nominal_items_per_s = 7.0

    def draw(self, rng):
        # n >= 1 and t <= 0.25 keep P2 > 0, i.e. mu1 > mu2; below t = 0.15 the
        # tight binary makes an item cost up to 2.5 times more, which would
        # spread items_per_s from seed to seed
        return rng.uniform(1.0, 2.5), rng.uniform(0.15, 0.25), 1e-3 * rng.normal(size=4)

    def run_item(self, inp, tr):
        n, t, pert = inp
        rep = tr.call("equilibria.isosceles", equilibria.isosceles_equilibrium, n, t)
        start = reduction.ReducedState(rep.q, pert, rep.mu1, rep.mu2)
        masses = model.MassTriple(n, 1.0, 1.0)
        t_end = COMPARE_PERIOD_FRACTION * 2.0 * math.pi / rep.omega1
        with tr.patched():
            out = tr.call("dynamics.compare", dynamics.compare_full_vs_reduced, masses,
                          start, t_end, COMPARE_CFG, n_samples=COMPARE_SAMPLES)
        if out.domain_exit is not None:
            raise CheckFailed(f"domain exit: {out.domain_exit}")
        ratio = out.max_qp_deviation / COMPARE_TOL
        if not ratio < 1.0:
            raise CheckFailed(f"max (q, p) deviation {out.max_qp_deviation:.3e}")
        _written(tr, lambda fh: fh.write(
            f"# compare: max_qp_deviation = {out.max_qp_deviation:.17g}, "
            f"max_invariant_residual = {out.max_invariant_residual:.17g}, "
            f"max_mu_drift = {out.max_mu_drift:.17g}\n"))
        tr.visit(masses, rep.q[0:2], rep.q[2:4])
        return ratio, 1


class EmDiagram(Workload):
    name = "em-diagram"
    why = ("single equilibrium solves interleaved: isosceles closed form, float Newton, "
           "dps=60 mpmath Newton; equilibria and model only, no integrator")
    cycle = len(EM_CYCLE)
    nominal_items_per_s = 400.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = [self.draw(rng, EM_CYCLE[k]) for _ in range(self.pool // self.cycle)
                       for k in rng.permutation(self.cycle)]

    def draw(self, rng, kind):
        if kind == "iso":
            return kind, _log_uniform(rng, 0.2, 5.0), rng.uniform(0.02, 0.98)
        # u in the range of criterion 9; below about 2e-3 the O(1) Hessian
        # eigenvalue sinks under the float64 rounding of the u^-6 ones
        pair = ((2, 3), (1, 3), (1, 2))[int(rng.integers(3))]
        return kind, tuple(rng.uniform(0.5, 2.5, size=3)), pair, \
            _log_uniform(rng, 3e-3, 1e-2)

    @staticmethod
    def _scaled_gradient(tr, rep):
        """|grad V_eff| / (max |Hessian| * max |q|) at the solved point."""
        args = (rep.masses, rep.q, rep.mu1, rep.mu2)
        grad = tr.call("equilibria.veff_gradient",
                       equilibria.effective_potential_gradient, *args)
        hess = tr.call("equilibria.veff_hessian",
                       equilibria.effective_potential_hessian, *args)
        scale = float(np.max(np.abs(hess))) * float(np.max(np.abs(rep.q)))
        err = float(np.linalg.norm(grad)) / scale
        if not err < GRADIENT_TOL:
            raise CheckFailed(f"scaled gradient {err:.3e}")
        return err / GRADIENT_TOL

    def run_item(self, inp, tr):
        kind = inp[0]
        if kind == "iso":
            _, n, t = inp
            rep = tr.call("equilibria.isosceles", equilibria.isosceles_equilibrium, n, t)
            ratio = self._scaled_gradient(tr, rep)
            if rep.mu1 > rep.mu2:
                label = equilibria.region_classification(n, t)
                if not label.boundary and (rep.classification == "minimum") != label.minimum:
                    raise CheckFailed(f"class {rep.classification} in region {label.name}")
        else:
            _, masses, pair, u = inp
            mm = model.MassTriple(*masses).permuted(pair)
            seed = equilibria.general_series_equilibrium(mm, u)
            rep = tr.call("equilibria.newton_fp", equilibria.newton_equilibrium,
                          mm, seed.mu1, seed.mu2, seed.q)
            ratio = self._scaled_gradient(tr, rep)
            if kind == "mp":
                fp_q = rep.q
                rep = tr.call("equilibria.newton_mp", equilibria.newton_equilibrium,
                              mm, seed.mu1, seed.mu2, seed.q, dps=EM_DPS)
                ratio = max(ratio, self._scaled_gradient(tr, rep))
                agree = max(abs(rep.q[k] - fp_q[k]) / abs(rep.q[k]) for k in (0, 3))
                if not agree < FP_MP_TOL:
                    raise CheckFailed(f"float and dps={EM_DPS} q1/q4 differ by {agree:.3e}")
                ratio = max(ratio, agree / FP_MP_TOL)
            if rep.classification != "minimum":
                raise CheckFailed(f"small-u equilibrium is a {rep.classification}")
        _written(tr, lambda fh: json.dump(rep.to_dict(), fh, indent=2))
        tr.visit(rep.masses, rep.q[0:2], rep.q[2:4])
        return ratio, 1


WORKLOADS = {w.name: w for w in (InvariantEnsemble, LongrunMidpoint, CompareFullReduced,
                                 EmDiagram)}
