"""Shared generators and finite-difference helpers for the test suite."""

import math

import numpy as np
from hypothesis import strategies as st

from threebody4d import dynamics, equilibria, model
from threebody4d.reduction import random_chart_point, random_reduced_state  # noqa: F401

# hypothesis strategies for chart points: |qi| in [0.6, 1.6] with |A| > 1/4,
# psi away from the chart's singular set, p_psi away from zero and p_theta
# drawn freely (points off the invariant set)
signed = st.builds(lambda m, s: m * s, st.floats(0.6, 1.6), st.sampled_from((-1.0, 1.0)))
chart_q = st.tuples(signed, signed, signed, signed).filter(
    lambda q: abs(0.5 * (q[0] * q[3] - q[1] * q[2])) > 0.25)
momenta = st.tuples(*[st.floats(-0.6, 0.6)] * 4)
psi_pair = st.tuples(st.floats(0.25, 1.3), st.floats(0.25, 1.3)).filter(
    lambda a: abs(math.cos(2 * a[0]) - math.cos(2 * a[1])) > 0.15)
p_psi = st.tuples(signed, signed).map(lambda v: (0.3 * v[0], 0.3 * v[1]))
p_theta = st.tuples(st.floats(0.1, 2.0), st.floats(-2.0, 2.0))
angle = st.floats(-math.pi, math.pi)


def zero_field(dimension: int) -> dynamics.VectorField:
    return dynamics.VectorField(dimension, lambda t, z: np.zeros(dimension), name="zero")


def gradient_partial(masses: model.MassTriple, z) -> np.ndarray:
    """Gradient of the partial Hamiltonian in all 16 chart variables, from the field kernel.

    Variable order matches `reduction.partial_to_array`:
    (q1..q4, psi1, psi2, th1, th2, p1..p4, p_psi1, p_psi2, p_th1, p_th2).
    """
    f = dynamics._partial_kernel(masses)(0.0, np.asarray(z, dtype=float).tolist())
    return np.array([-v for v in f[8:]] + list(f[:8]))


def scalar_products(state: model.FullState) -> model.ScalarProducts:
    return model.ScalarProducts(float(state.x1 @ state.x1), float(state.x2 @ state.x2),
                                float(state.x1 @ state.x2))


def rotated(state: model.FullState, m: np.ndarray) -> model.FullState:
    return model.FullState(m @ state.x1, m @ state.x2, m @ state.y1, m @ state.y2)


def rescaled(state: model.FullState, s: float) -> model.FullState:
    """Image under the scaling symmetry r -> s r, t -> s^(3/2) t.

    Positions scale by s and momenta by s^(-1/2); H scales by 1/s.
    """
    c = s ** -0.5
    return model.FullState(s * state.x1, s * state.x2, c * state.y1, c * state.y2)


def random_so4(rng) -> np.ndarray:
    """Haar-ish random rotation from the QR of a Gaussian matrix."""
    a = rng.normal(size=(4, 4))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def random_full_state(rng, scale=1.0) -> model.FullState:
    return model.FullState(
        scale * rng.normal(size=4), scale * rng.normal(size=4),
        0.4 * rng.normal(size=4), 0.4 * rng.normal(size=4))


def central_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(len(x)):
        hk = h * max(1.0, abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += hk
        xm[k] -= hk
        g[k] = (f(xp) - f(xm)) / (2.0 * hk)
    return g


def hessian_fd(f, x, h=1e-3):
    """Richardson-extrapolated central second differences, O(h^4)."""
    def second(hh):
        n = len(x)
        out = np.zeros((n, n))
        f0 = f(x)
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    xp, xm = x.copy(), x.copy()
                    xp[i] += hh
                    xm[i] -= hh
                    out[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / hh ** 2
                else:
                    xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
                    xpp[i] += hh
                    xpp[j] += hh
                    xpm[i] += hh
                    xpm[j] -= hh
                    xmp[i] -= hh
                    xmp[j] += hh
                    xmm[i] -= hh
                    xmm[j] -= hh
                    out[i, j] = out[j, i] = \
                        (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * hh ** 2)
        return out
    x = np.asarray(x, dtype=float)
    d1 = second(h)
    d2 = second(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def bisect(f, lo, hi, tol=1e-12, max_iter=200):
    flo = f(lo)
    fhi = f(hi)
    assert flo * fhi < 0, "bisection needs a sign change"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def singular_newton_system(monkeypatch):
    """Patch the V_eff Hessian stage so that its first two rows are equal."""
    hessian = equilibria._veff_hessian

    def singular(terms):
        hess = hessian(terms)
        hess[1] = list(hess[0])
        return hess
    monkeypatch.setattr(equilibria, "_veff_hessian", singular)
