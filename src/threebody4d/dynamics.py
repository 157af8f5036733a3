"""Hamiltonian vector fields, trajectory integration, conservation monitors.

Gradients are hand-coded (no automatic differentiation) and every one of
them is gated by a central finite-difference test in the suite.  Two
integrators are provided: an adaptive embedded Dormand-Prince 5(4) pair for
accuracy work and a fixed-step implicit midpoint rule for long-time energy
behaviour.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    KineticDomainError,
    NoConvergence,
    StepLimitExceeded,
    StepSizeUnderflow,
)
from .model import (
    MassTriple,
    angular_momentum_components,
    full_values_kernel,
    potential_partials,
    spectral_pair_components,
)
from . import reduction
from .reduction import ReducedState


@dataclass(frozen=True)
class VectorField:
    """A first-order field dz/dt = f(t, z) on phase points of size `dimension`.

    `kernel(t, z)` is f on a list of Python floats and returns a sequence of
    floats; the integrators call it.  `evaluate(t, z)` is f on an ndarray
    and returns an ndarray.  Give either one: a field built from `kernel`
    alone evaluates as `np.array(kernel(t, z.tolist()))`, and one built from
    `evaluate` alone runs as `evaluate(t, np.array(z)).tolist()`, with t
    passed unchanged.
    """

    dimension: int
    evaluate: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    name: str = ""
    kernel: Optional[Callable[[float, list], Sequence[float]]] = None

    def __post_init__(self):
        evaluate, kernel = self.evaluate, self.kernel
        if kernel is None:
            if evaluate is None:
                raise TypeError("a VectorField needs evaluate or kernel")
            object.__setattr__(self, "kernel",
                               lambda t, z: evaluate(t, np.array(z)).tolist())
        elif evaluate is None:
            object.__setattr__(self, "evaluate",
                               lambda t, z: np.array(kernel(t, z.tolist())))


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "dopri"          # "dopri" or "midpoint"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    dt: float = 1e-3               # fixed step for the midpoint rule
    max_steps: int = 10_000_000
    monitor_every: int = 1

    def __post_init__(self):
        if self.method not in ("dopri", "midpoint"):
            raise ValueError(f"unknown method {self.method!r}: use 'dopri' or 'midpoint'")
        # written as not (x > 0) so that NaN fails too
        if not (self.rel_tol > 0 and self.abs_tol > 0 and self.max_step > 0
                and self.dt > 0) or not math.isfinite(self.dt):
            raise ValueError("tolerances and steps must be positive, dt finite")
        if not self.monitor_every >= 1:
            raise ValueError(f"monitor_every must be >= 1, got {self.monitor_every}")
        # a NaN or fractional limit would silently switch the step limit off
        if not (isinstance(self.max_steps, numbers.Integral) and self.max_steps >= 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        # the integrators run on Python floats; a numpy scalar here would
        # turn every list operation of a step into numpy scalar arithmetic
        for name in ("rel_tol", "abs_tol", "max_step", "dt"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass
class TrajectoryRecord:
    """Sampled trajectory with aligned monitor values.

    `domain_exit` is set (with `exit_time`) when the integration stopped at
    the boundary of the field's domain; that is a reported event, not an
    error.
    """

    times: np.ndarray
    states: np.ndarray
    monitors: dict = field(default_factory=dict)
    domain_exit: Optional[str] = None
    exit_time: Optional[float] = None
    n_steps: int = 0
    n_rejected: int = 0

    def to_csv(self, fh, state_labels):
        cols = ["t"] + list(state_labels) + list(self.monitors.keys())
        fh.write(",".join(cols) + "\n")
        table = np.column_stack([self.times, self.states]
                                + [np.asarray(v) for v in self.monitors.values()])
        # each row goes out as Python floats, which format faster than numpy
        # scalars and to the same digits; one row at a time, so the table
        # never exists as Python objects all at once
        line = ",".join(["%.17g"] * table.shape[1]) + "\n"
        for row in table:
            fh.write(line % tuple(row.tolist()))

    def to_json(self, fh, state_labels):
        obj = {
            "t": [float(t) for t in self.times],
            "states": {lab: [float(v) for v in self.states[:, i]]
                       for i, lab in enumerate(state_labels)},
            "monitors": {k: [float(v) for v in np.asarray(vs)]
                         for k, vs in self.monitors.items()},
            "domain_exit": self.domain_exit,
            "exit_time": self.exit_time,
        }
        json.dump(obj, fh)


# --- analytic field kernels -------------------------------------------------
#
# Each field kernel is the hand-coded derivative of its Hamiltonian: a
# closure over the mass constants that takes t and the phase point as a list
# of Python floats and returns the tuple (dH/dp, -dH/dq) directly.  The public
# gradients are derived from the same kernels by exact negation.

def _potential_gradient_q(k: tuple, q1: float, q2: float, q3: float, q4: float):
    """d/dq of V(q1^2+q2^2, q3^2+q4^2, q1 q3 + q2 q4); `k` is `MassTriple.potential_constants`."""
    s11 = q1 * q1 + q2 * q2
    s22 = q3 * q3 + q4 * q4
    s12 = q1 * q3 + q2 * q4
    _, v1, v2, v3 = potential_partials(k, s11, s22, s12)
    return (2.0 * q1 * v1 + q3 * v3,
            2.0 * q2 * v1 + q4 * v3,
            2.0 * q3 * v2 + q1 * v3,
            2.0 * q4 * v2 + q2 * v3)


def _reduced_kernel(masses: MassTriple, mu1: float, mu2: float):
    """Field kernel (t, (q1..q4, p1..p4)) -> (dH/dp, -dH/dq) of the reduced Hamiltonian.

    The kinetic functions enter through W = sum over the two blocks of
    (2 nu)^-1 ((Ld+Ls)^2 qi^2 + (Ld-Ls)^2 qj^2); the roots depend on q, p
    only through L3, with d(Ld+Ls)^2/dL3 = -2 L3 (Ld+Ls)^2/(Ld Ls) and
    d(Ld-Ls)^2/dL3 = +2 L3 (Ld-Ls)^2/(Ld Ls).  With dA/dq = (q4, -q3, -q2, q1)/2,
    dL3/dq = (p2, -p1, p4, -p3) and dL3/dp = (-q2, q1, -q4, q3).
    """
    nu1, nu2 = masses.nu1, masses.nu2
    two_nu1, two_nu2 = 2.0 * nu1, 2.0 * nu2
    kv = masses.potential_constants
    sig = mu1 + mu2
    dlt = mu1 - mu2
    sig2, dlt2 = sig * sig, dlt * dlt
    chart_area = reduction._chart_area

    def kernel(t, z):
        q1, q2, q3, q4, p1, p2, p3, p4 = z
        area = chart_area(z)
        l3 = q1 * p2 - q2 * p1 + q3 * p4 - q4 * p3
        ld2 = dlt2 - l3 * l3
        ls2 = sig2 - l3 * l3
        if ld2 <= 0.0 or ls2 <= 0.0:
            raise KineticDomainError(f"L3^2 = {l3 * l3} at the kinetic domain boundary")
        ld, ls = math.sqrt(ld2), math.sqrt(ls2)
        gp = (ld + ls) ** 2
        gm = (ld - ls) ** 2
        wp = gp * (q3 * q3 / two_nu1 + q1 * q1 / two_nu2)
        wm = gm * (q4 * q4 / two_nu1 + q2 * q2 / two_nu2)
        w_l3 = 2.0 * l3 * (wm - wp) / (ld * ls)
        inv16a2 = 1.0 / (16.0 * area * area)
        wa = 0.5 * (wp + wm) / (8.0 * area ** 3)
        wl = w_l3 * inv16a2
        v1, v2, v3, v4 = _potential_gradient_q(kv, q1, q2, q3, q4)
        return (p1 / nu1 - wl * q2,
                p2 / nu1 + wl * q1,
                p3 / nu2 - wl * q4,
                p4 / nu2 + wl * q3,
                -((gp * q1 / nu2 + w_l3 * p2) * inv16a2 - wa * q4 + v1),
                -((gm * q2 / nu2 - w_l3 * p1) * inv16a2 + wa * q3 + v2),
                -((gp * q3 / nu1 + w_l3 * p4) * inv16a2 + wa * q2 + v3),
                -((gm * q4 / nu1 - w_l3 * p3) * inv16a2 - wa * q1 + v4))
    return kernel


def gradient_reduced(masses: MassTriple, state: ReducedState) -> np.ndarray:
    """(dH/dq, dH/dp) of the fully reduced Hamiltonian, from the field kernel."""
    f = _reduced_kernel(masses, state.mu1, state.mu2)(0.0, state.q.tolist() + state.p.tolist())
    return np.array([-v for v in f[4:]] + list(f[:4]))


def _partial_kernel(masses: MassTriple):
    """Field kernel (t, the 16 chart variables) -> (dH/dp, -dH/dq) of the partial Hamiltonian.

    The kinetic part is (u1^2 + u2^2)/(2 nu1) + (u3^2 + u4^2)/(2 nu2) with
    the lifted momenta u_i of `reduction._lift_momenta`, inlined here.  Its
    derivative along any variable is sum_i (u_i/nu) du_i, and du_i is linear
    in (dB, dC, d(1/2A)) plus the explicit q-dependence of u_i.  H does not
    depend on theta, so the rates of p_theta are -0.0.
    """
    nu1, nu2 = masses.nu1, masses.nu2
    kv = masses.potential_constants
    sin, cos = math.sin, math.cos
    chart_area, chart_e = reduction._chart_area, reduction._chart_e

    def kernel(t, z):
        (q1, q2, q3, q4, ps1, ps2, _, _,
         p1, p2, p3, p4, pp1, pp2, pt1, pt2) = z
        area = chart_area(z)
        l3 = q1 * p2 - q2 * p1 + q3 * p4 - q4 * p3
        s1, c1 = sin(ps1), cos(ps1)
        s2, c2 = sin(ps2), cos(ps2)
        sin2a, cos2a = sin(2 * ps1), cos(2 * ps1)
        sin2b, cos2b = sin(2 * ps2), cos(2 * ps2)
        e = chart_e(cos2a, cos2b)
        den = 2.0 * area * e
        s1c2, c1s2 = s1 * c2, c1 * s2
        b = (l3 * sin2a + 2.0 * (pt1 * s1c2 + pt2 * c1s2)) / den
        c = (l3 * sin2b + 2.0 * (pt1 * c1s2 + pt2 * s1c2)) / den
        inv2a = 0.5 / area
        r1 = (q3 * b - q4 * pp1 * inv2a) / nu1
        r2 = (-q4 * c + q3 * pp2 * inv2a) / nu1
        r3 = (-q1 * b + q2 * pp1 * inv2a) / nu2
        r4 = (q2 * c - q1 * pp2 * inv2a) / nu2
        # sum_i r_i du_i = rb dB + rc dC + ra d(1/2A) + explicit q terms
        rb = r1 * q3 - r3 * q1
        rc = r4 * q2 - r2 * q4
        ra = pp1 * (r3 * q2 - r1 * q4) + pp2 * (r2 * q3 - r4 * q1)
        # d/dL3 and d/dA of the kinetic part through B, C and 1/2A
        g_l = (rb * sin2a + rc * sin2b) / den
        g_a = 2.0 * e * (rb * b + rc * c) / den + ra * inv2a / area
        ha = 0.5 * g_a
        v1, v2, v3, v4 = _potential_gradient_q(kv, q1, q2, q3, q4)
        # d/dpsi: dB = dnb/den - B de/e, dC = dnc/den - C de/e
        cc, ss = c1 * c2, s1 * s2
        dn_mixed = 2.0 * (pt2 * cc - pt1 * ss)
        dn_diag = 2.0 * (pt1 * cc - pt2 * ss)
        de1 = -2.0 * sin2a / e
        de2 = 2.0 * sin2b / e
        return (
            p1 / nu1 - q2 * g_l,
            p2 / nu1 + q1 * g_l,
            p3 / nu2 - q4 * g_l,
            p4 / nu2 + q3 * g_l,
            (r3 * q2 - r1 * q4) * inv2a,
            (r2 * q3 - r4 * q1) * inv2a,
            2.0 * (rb * s1c2 + rc * c1s2) / den,
            2.0 * (rb * c1s2 + rc * s1c2) / den,
            -(p2 * g_l - q4 * ha - r3 * b - r4 * pp2 * inv2a + v1),
            -(-p1 * g_l + q3 * ha + r3 * pp1 * inv2a + r4 * c + v2),
            -(p4 * g_l + q2 * ha + r1 * b + r2 * pp2 * inv2a + v3),
            -(-p3 * g_l - q1 * ha - r1 * pp1 * inv2a - r2 * c + v4),
            -(rb * ((2.0 * l3 * cos2a + dn_diag) / den - b * de1)
              + rc * (dn_mixed / den - c * de1)),
            -(rb * (dn_mixed / den - b * de2)
              + rc * ((2.0 * l3 * cos2b + dn_diag) / den - c * de2)),
            -0.0,
            -0.0,
        )
    return kernel


def reduced_field(masses: MassTriple, mu1: float, mu2: float) -> VectorField:
    """Canonical field of the reduced Hamiltonian on z = (q1..q4, p1..p4)."""
    reduction.check_momenta(mu1, mu2)
    return VectorField(8, name="reduced", kernel=_reduced_kernel(masses, mu1, mu2))


def partial_field(masses: MassTriple) -> VectorField:
    """Canonical field of the partial Hamiltonian on the 16 chart variables."""
    return VectorField(16, name="partial", kernel=_partial_kernel(masses))


def full_field(masses: MassTriple) -> VectorField:
    """Canonical field on (x1, x2, y1, y2) in R^16."""
    nu1, nu2 = masses.nu1, masses.nu2
    kv = masses.potential_constants

    def kernel(t, z):
        (a1, a2, a3, a4, b1, b2, b3, b4,
         y1, y2, y3, y4, y5, y6, y7, y8) = z
        s11 = a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4
        s22 = b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4
        s12 = a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4
        _, v1, v2, v3 = potential_partials(kv, s11, s22, s12)
        w1, w2 = 2.0 * v1, 2.0 * v2
        return (
            y1 / nu1, y2 / nu1, y3 / nu1, y4 / nu1,
            y5 / nu2, y6 / nu2, y7 / nu2, y8 / nu2,
            -(w1 * a1 + v3 * b1), -(w1 * a2 + v3 * b2),
            -(w1 * a3 + v3 * b3), -(w1 * a4 + v3 * b4),
            -(w2 * b1 + v3 * a1), -(w2 * b2 + v3 * a2),
            -(w2 * b3 + v3 * a3), -(w2 * b4 + v3 * a4),
        )
    return VectorField(16, name="full", kernel=kernel)


# --- integrators ------------------------------------------------------------

# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner).  The last row of A
# equals the fifth-order weights B, so the input of stage 7 is the new state;
# E = B - B*, with B* the fourth-order weights.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = (
    _B1 - 5179 / 57600, 0.0, _B3 - 7571 / 16695, _B4 - 393 / 640,
    _B5 + 92097 / 339200, _B6 - 187 / 2100, -1 / 40)


def _dopri_step(kernel, t, y, h):
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


def _error_norm(err, y, ynew, abs_tol, rel_tol):
    """RMS of err / (abs_tol + rel_tol * max(|y|, |ynew|)), the step-control norm.

    The squares are summed left to right.  The maximum is taken so that a
    NaN in ynew makes the norm NaN (y holds no NaN).
    """
    total = 0.0
    for e, u, v in zip(err, map(abs, y), map(abs, ynew)):
        r = e / (abs_tol + rel_tol * (u if v < u else v))
        total += r * r
    return math.sqrt(total / len(err))


class _Run:
    """One integration as it goes: where it is, what it recorded, how it ended."""

    def __init__(self, z, t_end, config, monitors, t_samples):
        self.t, self.y, self.t_end = 0.0, z.tolist(), t_end
        self.every = config.monitor_every
        self.monitors = monitors
        self.times, self.states, self.values = [], [], []
        queue = [] if t_samples is None else [float(s) for s in t_samples]
        self.queue = sorted(s for s in queue if 0.0 < s <= t_end)
        self.n_steps = self.n_rejected = 0
        self.exit = None
        self.record()

    def record(self):
        """Record the state at t with its monitor values, all or nothing."""
        t, z = self.t, np.array(self.y)
        self.values.append([fn(t, z) for fn in self.monitors.values()])
        self.times.append(t)
        self.states.append(z)

    def next_stop(self):
        """The next sample time past t, or t_end; None once t has reached t_end."""
        t, t_end, queue = self.t, self.t_end, self.queue
        if not t < t_end - 1e-15 * max(1.0, t_end):
            return None
        while queue and queue[0] <= t + 1e-15 * max(1.0, abs(t)):
            queue.pop(0)
        return queue[0] if queue else t_end

    def accept(self, t, y, stop):
        """Count the step to (t, y); record it every `monitor_every` steps or on `stop`."""
        self.t, self.y = t, y
        self.n_steps += 1
        if self.n_steps % self.every == 0 or abs(t - stop) < 1e-13 * max(1.0, stop):
            self.record()

    def finish(self) -> TrajectoryRecord:
        # a state that a monitor refused is tried again here, so its error propagates
        if self.times[-1] != self.t:
            self.record()
        return TrajectoryRecord(
            times=np.array(self.times),
            states=np.array(self.states),
            monitors={k: np.array(v) for k, v in zip(self.monitors, zip(*self.values))},
            domain_exit=self.exit,
            exit_time=None if self.exit is None else self.t,
            n_steps=self.n_steps,
            n_rejected=self.n_rejected,
        )


def _midpoint_loop(run: _Run, kernel, config: IntegratorConfig) -> None:
    h, max_steps, t, y = config.dt, config.max_steps, run.t, run.y
    # the same as ceil(t_end / h) > max_steps, and safe when t_end / h overflows
    if run.t_end / h > max_steps:
        raise StepLimitExceeded(f"t_end / dt = {run.t_end / h:.6g} steps exceed "
                                f"max_steps = {max_steps}")
    # converged slopes of the last steps, oldest first; `equal` counts the trailing
    # ones from consecutive steps of length h, the only ones the extrapolation
    # may span (with none, the solve starts from the last slope)
    slopes = np.empty((_PREDICTOR_SLOPES, len(y)))
    equal = 0
    k0 = None
    while (stop := run.next_stop()) is not None:
        if run.n_steps == max_steps:
            raise StepLimitExceeded(f"midpoint reached max_steps = {max_steps} at t = {t!r}")
        # within 1e-9 h of h, the distance to the stop is h plus the rounding of
        # the summed steps: land on the stop, leaving no sliver step of a few ulps
        land = stop - t <= h * (1.0 + 1e-9)
        hs = stop - t if land else h
        if hs != h:
            equal = 0
        if run.n_steps:
            m = max(equal, 1)
            k0 = (_EXTRAPOLATE[m] @ slopes[-m:]).tolist()
        y, k = _midpoint_step(kernel, t, y, hs, k0)
        slopes[:-1] = slopes[1:]
        slopes[-1] = k
        if hs == h:
            equal = min(equal + 1, _PREDICTOR_SLOPES)
        t = stop if land else t + hs
        run.accept(t, y, stop)


def _dopri_loop(run: _Run, kernel, config: IntegratorConfig) -> None:
    max_step, max_steps = config.max_step, config.max_steps
    t, y = run.t, run.y
    h = max(min(max_step, run.t_end / 50.0), 1e-12)
    while (stop := run.next_stop()) is not None:
        h = min(h, max_step, stop - t)
        try:
            ynew, err = _dopri_step(kernel, t, y, h)
        except DomainError:
            # a stage outside the domain rejects the step, as an infinite
            # error estimate would; the run exits where even a step below
            # the floor leaves the domain
            if h < 1e-14 * max(1.0, abs(t)):
                raise
            run.n_rejected += 1
            h *= 0.2
        else:
            enorm = _error_norm(err, y, ynew, config.abs_tol, config.rel_tol)
            if not math.isfinite(enorm):
                raise StepSizeUnderflow(f"non-finite error estimate at t = {t!r}")
            if enorm <= 1.0:
                t += h
                y = ynew
                run.accept(t, y, stop)
            else:
                run.n_rejected += 1
            fac = 0.9 * (enorm + 1e-300) ** -0.2
            h *= min(5.0, max(0.2, fac))
            h = min(h, max_step)
            if enorm > 1.0 and h < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflow(f"step size {h!r} underflows at t = {t!r}")
        if run.n_steps + run.n_rejected > max_steps:
            raise StepLimitExceeded(f"dopri exceeded max_steps = {max_steps} at t = {t!r}")


def integrate(field: VectorField, start, t_end: float, config: IntegratorConfig,
              monitors: Optional[dict] = None,
              t_samples: Optional[np.ndarray] = None) -> TrajectoryRecord:
    """Integrate dz/dt = field(t, z) from t = 0 to t_end.

    Both methods step on lists of Python floats through `field.kernel`;
    `t_end` and the sample times are taken as floats.  `monitors` maps names
    to callables fn(t, z) on the array of a recorded state; an error of a
    monitor propagates.  If `t_samples` is given, steps land exactly on those
    times (on top of adaptive control).  A `DomainError` of the field
    (collision, chart failure, kinetic boundary) ends the run as a domain
    exit: the record is returned with `domain_exit` set to the error and
    `exit_time` to the last time reached.

    `dopri` rejects a step with a stage outside the domain and shrinks it by
    0.2; it exits when a step shorter than 1e-14 * max(1, |t|) still leaves
    the domain, and raises `StepSizeUnderflow` when its step control
    collapses.  The midpoint rule starts each implicit solve from the
    polynomial extrapolation of the slopes of up to six preceding steps of
    length dt (the last slope after a landing step of another length,
    f(t, y) at the first step).  A solve from a predicted slope that leaves
    the domain at an iterate or does not converge is solved again from
    f(t, y); only a domain error in that solve ends the run as a domain exit,
    and only its failure to converge raises `NoConvergence` (see
    `_midpoint_step`).  Both raise `StepLimitExceeded` when a run needs more
    than `config.max_steps` steps; the midpoint rule does so before its
    first step when t_end / dt alone exceeds the limit.
    """
    z = np.array(start, dtype=float)
    if not (np.all(np.isfinite(z)) and math.isfinite(t_end)):
        raise ValueError("start and t_end must be finite")
    run = _Run(z, float(t_end), config, monitors or {}, t_samples)
    try:
        (_midpoint_loop if config.method == "midpoint" else _dopri_loop)(run, field.kernel, config)
    except DomainError as exc:
        run.exit = f"{type(exc).__name__}: {exc}"
    return run.finish()


# The midpoint predictor extrapolates the polynomial through the last m
# equally spaced slopes, oldest first, to the next: weights (-1)^(m-1-j) C(m, j),
# so that the m-th difference vanishes.  m = 1 is the last slope.  Past six
# slopes (degree 5) fewer iterations no longer pay for the wider stencil,
# which also amplifies the slopes' rounding by up to 2^m - 1 (the sum of the
# absolute weights).
_PREDICTOR_SLOPES = 6
_EXTRAPOLATE = [None] + [np.array([(-1) ** (m - 1 - j) * math.comb(m, j) for j in range(m)],
                                  dtype=float)
                         for m in range(1, _PREDICTOR_SLOPES + 1)]


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


def _midpoint_step(kernel, t, y, h, k, max_iter=100):
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


# --- standard monitors and the full/reduced comparison ----------------------

def reduced_monitors(masses: MassTriple, mu1: float, mu2: float) -> dict:
    """H from one kernel call per sample."""
    value = reduction.reduced_values_kernel(masses, mu1, mu2)
    return {"H": lambda t, z: value(z.tolist())}


def _sample_monitors(values, names) -> dict:
    """One monitor per name, the i-th entry of values(z), evaluated once per sample.

    The integrator passes one phase point to every monitor of a sample, so
    values(z) is memoised on z compared bit for bit.  The key is the bytes
    of z: cheaper to take and compare than its list of floats, and unlike
    that list it tells 0.0 from -0.0.
    """
    key = value = None

    def make(i):
        def monitor(t, z):
            nonlocal key, value
            raw = z.tobytes()
            if raw != key:
                key, value = raw, values(z)
            return value[i]
        return monitor
    return {name: make(i) for i, name in enumerate(names)}


def partial_monitors(masses: MassTriple, mu1: float, mu2: float) -> dict:
    """H, the invariant-set residual c1..c4 and p_theta, from one kernel call per sample."""
    kernel = reduction.partial_values_kernel(masses, mu1, mu2)
    mons = _sample_monitors(lambda z: kernel(z.tolist()), ("H", "c1", "c2", "c3", "c4"))
    mons["p_theta1"] = lambda t, z: z[14]
    mons["p_theta2"] = lambda t, z: z[15]
    return mons


def full_monitors(masses: MassTriple) -> dict:
    """H, mu1 and mu2 from one kernel call per sample."""
    return _sample_monitors(full_values_kernel(masses), ("H", "mu1", "mu2"))


@dataclass
class ComparisonReport:
    """Outcome of integrating the full and the reduced systems side by side."""

    times: np.ndarray
    max_qp_deviation: float
    max_invariant_residual: float
    max_mu_drift: float
    qp_deviation: np.ndarray
    domain_exit: Optional[str] = None


def compare_full_vs_reduced(masses: MassTriple, reduced_start: ReducedState,
                            t_end: float, config: IntegratorConfig,
                            n_samples: int = 32) -> ComparisonReport:
    """Integrate the 16-dim translation-reduced system and the 8-dim reduced
    system from the same embedded start and report the maximal deviation.

    The full trajectory is projected back through the chart at sample times
    (`reduction.inverse_chart`, on plain floats); the projection is aligned
    to the reduced reference over the discrete chart symmetries
    (`reduction.aligned_deviation`) before measuring the (q, p) deviation.
    Both runs record only the start and one forced landing per sample time,
    the last one at t_end, so their states pair up row by row.
    """
    part0 = reduction.embed_reduced(reduced_start)
    z_full0 = reduction.full_to_array(reduction.lift_to_full(part0))
    z_red0 = np.concatenate([reduced_start.q, reduced_start.p])
    samples = np.linspace(0.0, t_end, n_samples + 1)[1:]
    # no step count reaches monitor_every, so only the forced landings are kept
    sparse = replace(config, monitor_every=config.max_steps + 1)

    rec_full = integrate(full_field(masses), z_full0, t_end, sparse, t_samples=samples)
    rec_red = integrate(reduced_field(masses, reduced_start.mu1, reduced_start.mu2),
                        z_red0, t_end, sparse, t_samples=samples)
    if rec_full.domain_exit or rec_red.domain_exit:
        return ComparisonReport(times=np.array([]), max_qp_deviation=math.inf,
                                max_invariant_residual=math.inf, max_mu_drift=math.inf,
                                qp_deviation=np.array([]),
                                domain_exit=rec_full.domain_exit or rec_red.domain_exit)

    def spectral_pair(z):
        return spectral_pair_components(angular_momentum_components(z))

    mu10, mu20 = spectral_pair(z_full0.tolist())
    residual = reduction.partial_values_kernel(None, mu10, abs(mu20))
    devs = []
    max_res = 0.0
    max_mu = 0.0
    for zf, zr in zip(rec_full.states[1:].tolist(), rec_red.states[1:].tolist()):
        values = reduction.inverse_chart(zf)
        devs.append(reduction.aligned_deviation(values, zr))
        max_res = max(max_res, *map(abs, residual(values)[1:]))
        mu1, mu2 = spectral_pair(zf)
        max_mu = max(max_mu, abs(mu1 - mu10), abs(mu2 - mu20))
    return ComparisonReport(
        times=samples,
        max_qp_deviation=float(max(devs)) if devs else math.inf,
        max_invariant_residual=max_res,
        max_mu_drift=max_mu,
        qp_deviation=np.array(devs),
    )
