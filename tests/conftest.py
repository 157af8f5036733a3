"""Shared generators and finite-difference helpers for the test suite."""

import numpy as np

from threebody4d import model
from threebody4d.reduction import random_chart_point, random_reduced_state  # noqa: F401


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
