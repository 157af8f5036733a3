"""Masses, Jacobi vectors, the Newtonian potential, and angular momentum.

Everything here lives on the translation-reduced phase space: two position
vectors x1, x2 in R^4 and their conjugate momenta y1, y2 (the centre of mass
and total linear momentum are split off and set to zero).  The gravitational
constant is fixed to 1.  The potential is evaluated through the scalar
products of x1 and x2 only, which is what makes the later rotation reduction
possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from .errors import CollisionError

# floors of a valid configuration: squared distances above COLLISION_TOL, and an
# oriented area |A| of at least AREA_TOL, which keeps it in the rotation chart
COLLISION_TOL = 1e-24
AREA_TOL = 1e-12


@dataclass(frozen=True)
class MassTriple:
    """The three masses with the derived reduced masses and ratios.

    `total`, `nu1`, `nu2`, `a2`, `a3` and `potential_constants` (see
    `_potential_constants`) are formed once, when the triple is made, in the
    masses' own number type and at the precision then current.  Equality,
    hash and repr read only the masses.
    """

    m1: float
    m2: float
    m3: float
    total: float = field(init=False, repr=False, compare=False)
    nu1: float = field(init=False, repr=False, compare=False)
    nu2: float = field(init=False, repr=False, compare=False)
    a2: float = field(init=False, repr=False, compare=False)
    a3: float = field(init=False, repr=False, compare=False)
    potential_constants: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m1, m2, m3 = self.m1, self.m2, self.m3
        if not (m1 > 0 and m2 > 0 and m3 > 0):
            raise ValueError(f"masses must be positive, got {(m1, m2, m3)}")
        total, m23 = m1 + m2 + m3, m2 + m3
        for name, value in (("total", total), ("nu1", m2 * m3 / m23), ("nu2", m1 * m23 / total),
                            ("a2", m2 / m23), ("a3", m3 / m23)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "potential_constants", _potential_constants(self))

    def permuted(self, pair: tuple[int, int]) -> "MassTriple":
        """Masses reordered so that the bodies `pair` (1-based) form the binary.

        The Jacobi construction singles out bodies 2 and 3 as the binary;
        choosing a different pair is done by permuting the masses.
        """
        i, j = sorted(pair)
        if (i, j) == (2, 3):
            return self
        if (i, j) == (1, 3):
            return MassTriple(self.m2, self.m1, self.m3)
        if (i, j) == (1, 2):
            return MassTriple(self.m3, self.m1, self.m2)
        raise ValueError(f"pair must name two distinct bodies in 1..3, got {pair}")


@dataclass(frozen=True)
class ScalarProducts:
    """s11 = |x1|^2, s22 = |x2|^2, s12 = x1.x2."""

    s11: float
    s22: float
    s12: float

    def __post_init__(self):
        check_scalar_products(self.s11, self.s22, self.s12)


def check_scalar_products(s11: float, s22: float, s12: float) -> None:
    """Raise ValueError unless (s11, s22, s12) can be (|x1|^2, |x2|^2, x1.x2).

    For values from outside the package, in `ScalarProducts`.  Products the
    kernels form from two vectors pass it, so they do not make it.
    """
    if s11 < 0 or s22 < 0:
        raise ValueError("squared norms must be non-negative")
    slack = 1e-9 * (s11 * s22) + 1e-300
    if s12 * s12 > s11 * s22 + slack:
        raise ValueError("s12^2 exceeds s11*s22 (Cauchy-Schwarz violated)")


@dataclass(frozen=True)
class FullState:
    """Translation-reduced phase point (x1, x2, y1, y2), vectors in R^4."""

    x1: np.ndarray
    x2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray

    def __post_init__(self):
        for name in ("x1", "x2", "y1", "y2"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (4,):
                raise ValueError(f"{name} must be a 4-vector, got shape {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class AngularMomentum:
    """Antisymmetric angular momentum tensor with its spectral pair.

    The eigenvalues of L are +-i*mu1, +-i*mu2 with mu1 >= |mu2|; mu2 carries
    the sign of the Pfaffian so that Pf(L) = mu1*mu2 holds exactly.  States
    aligned with the positive normal form mu1*B12 + mu2*B34 have mu2 >= 0.
    """

    matrix: np.ndarray
    mu1: float
    mu2: float


def full_to_array(state: FullState) -> np.ndarray:
    return np.concatenate([state.x1, state.x2, state.y1, state.y2])


def jacobi_from_positions(masses: MassTriple, r1, r2, r3, v1, v2, v3) -> FullState:
    """Jacobi vectors and conjugate momenta from raw positions/velocities.

    x1 = r2 - r3 (the binary), x2 = r1 - centre of mass of the binary.
    The conjugate momenta are y1 = nu1 * dx1/dt and y2 = nu2 * dx2/dt; with
    these the kinetic energy splits as |y1|^2/(2 nu1) + |y2|^2/(2 nu2) plus
    the centre-of-mass term, which is dropped (it can always be removed by a
    frame shift, see `centre_of_mass`).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    r3 = np.asarray(r3, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    v3 = np.asarray(v3, dtype=float)
    a2, a3 = masses.a2, masses.a3
    x1 = r2 - r3
    x2 = r1 - (masses.m2 * r2 + masses.m3 * r3) / (masses.m2 + masses.m3)
    y1 = masses.nu1 * (v2 - v3)
    y2 = masses.nu2 * (v1 - a2 * v2 - a3 * v3)
    return FullState(x1, x2, y1, y2)


def centre_of_mass(masses: MassTriple, r1, r2, r3, v1, v2, v3):
    """The dropped pair (x3, y3): centre of mass and total linear momentum."""
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    x3 = (m1 * np.asarray(r1) + m2 * np.asarray(r2) + m3 * np.asarray(r3)) / masses.total
    y3 = m1 * np.asarray(v1) + m2 * np.asarray(v2) + m3 * np.asarray(v3)
    return x3, y3


def _decimal_rsqrt(d: Decimal) -> Decimal:
    # a Decimal power with a fractional exponent costs some 40 square roots
    return 1 / d.sqrt()


def _potential_constants(masses: MassTriple) -> tuple:
    """Mass constants of V(s11, s22, s12), the inverse-square-root hook, the tolerances.

    (a2^2, 2 a2, a3^2, 2 a3, c1, c2, c3, -c1/2, -c2/2, -c3/2, 3 c1/4, 3 c2/4,
    3 c3/4, rsqrt, collision_tol, area_tol) with (c1, c2, c3) =
    (-m2 m3, -m3 m1, -m1 m2): the squared distances are d1 = s11,
    d2 = a2^2 s11 + 2 a2 s12 + s22 and d3 = a3^2 s11 - 2 a3 s12 + s22,
    V = sum_k c_k / sqrt(d_k), and -c_k/2 and 3 c_k/4 weigh its first and
    second derivatives in d_k, so the partials hold no float constant.  The
    one dispatch on the number type: Decimal masses get 1/sqrt in the current
    context and the exact Decimal values of `COLLISION_TOL` and `AREA_TOL`,
    so no comparison mixes in a float or changes its outcome; other masses
    get None (for `d ** -0.5` inline) and the floats.
    """
    m1, m2, m3, a2, a3 = masses.m1, masses.m2, masses.m3, masses.a2, masses.a3
    c1, c2, c3 = -m2 * m3, -m3 * m1, -m1 * m2
    num = Decimal if isinstance(m1, Decimal) else float
    rsqrt = _decimal_rsqrt if num is Decimal else None
    return (a2 * a2, 2 * a2, a3 * a3, 2 * a3, c1, c2, c3, -c1 / 2, -c2 / 2, -c3 / 2,
            3 * c1 / 4, 3 * c2 / 4, 3 * c3 / 4, rsqrt, num(COLLISION_TOL), num(AREA_TOL))


def potential_partials(k: tuple, s11: float, s22: float, s12: float,
                       distances: bool = False):
    """V and its partials (V1, V2, V3) wrt (s11, s22, s12) in plain scalars.

    `k` is `masses.potential_constants`.  It runs unchanged on
    Python floats, mpmath numbers and Decimals (with `k` built from masses
    of the same type).  Its collision test against `k`'s `COLLISION_TOL` is
    the one check a potential evaluation makes.  With `distances` it returns
    the pair (partials, (d1, d2, d3, i1, i2, i3)): the squared distances and
    their inverse square roots, which `potential_second_partials` takes.
    """
    aa2, g2, aa3, g3, c1, c2, c3, b1, b2, b3, _, _, _, rsqrt, tol, _ = k
    d1, d2, d3 = s11, aa2 * s11 + g2 * s12 + s22, aa3 * s11 - g3 * s12 + s22
    if d1 <= tol or d2 <= tol or d3 <= tol:
        raise CollisionError(f"squared distance below tolerance: {(d1, d2, d3)}")
    if rsqrt is None:
        i1, i2, i3 = d1 ** -0.5, d2 ** -0.5, d3 ** -0.5
    else:
        i1, i2, i3 = rsqrt(d1), rsqrt(d2), rsqrt(d3)
    # w_k = d(c_k / sqrt(d_k))/d(d_k); the gradients of d1, d2, d3 in
    # (s11, s22, s12) are (1, 0, 0), (a2^2, 1, 2 a2) and (a3^2, 1, -2 a3)
    w1 = b1 * i1 / d1
    w2 = b2 * i2 / d2
    w3 = b3 * i3 / d3
    partials = (c1 * i1 + c2 * i2 + c3 * i3,
                w1 + w2 * aa2 + w3 * aa3,
                w2 + w3,
                w2 * g2 - w3 * g3)
    return (partials, (d1, d2, d3, i1, i2, i3)) if distances else partials


def potential_derivatives(masses: MassTriple, s: ScalarProducts):
    """Newtonian potential V and its partials (V1, V2, V3) wrt (s11, s22, s12)."""
    return potential_partials(masses.potential_constants, s.s11, s.s22, s.s12)


def potential_second_partials(k: tuple, distances: tuple):
    """Second partials (V11, V22, V33, V12, V13, V23) of V wrt (s11, s22, s12).

    `distances` is what `potential_partials(k, s11, s22, s12, distances=True)`
    returns second, so the distances are neither formed nor checked twice.
    Plain scalar arithmetic like `potential_partials`: it runs unchanged on
    Python floats, mpmath numbers and Decimals.
    """
    aa2, g2, aa3, g3, _, _, _, _, _, _, e1, e2, e3, rsqrt, _, _ = k
    d1, d2, d3, i1, i2, i3 = distances
    if rsqrt is None:
        r1, r2, r3 = d1 ** -2.5, d2 ** -2.5, d3 ** -2.5
    else:
        r1, r2, r3 = i1 / (d1 * d1), i2 / (d2 * d2), i3 / (d3 * d3)
    # h_k = d^2(c_k / sqrt(d_k))/d(d_k)^2, times the outer products of the
    # gradients (1, 0, 0), (a2^2, 1, 2 a2) and (a3^2, 1, -2 a3) of d1, d2, d3
    h1 = e1 * r1
    h2 = e2 * r2
    h3 = e3 * r3
    return (h1 + h2 * aa2 * aa2 + h3 * aa3 * aa3,
            h2 + h3,
            h2 * g2 * g2 + h3 * g3 * g3,
            h2 * aa2 + h3 * aa3,
            h2 * aa2 * g2 - h3 * aa3 * g3,
            h2 * g2 - h3 * g3)


def full_values_kernel(masses: MassTriple):
    """Kernel from the array (x1, x2, y1, y2) of `full_to_array` to (H, mu1, mu2).

    H = |y1|^2/(2 nu1) + |y2|^2/(2 nu2) + V from numpy dot products, V from
    `potential_partials`; (mu1, mu2) is the spectral pair of L from its six
    components.  The full monitors call it once per sample.
    """
    two_nu1, two_nu2 = 2.0 * masses.nu1, 2.0 * masses.nu2
    kv = masses.potential_constants

    def values(z):
        x1, x2, y1, y2 = z[0:4], z[4:8], z[8:12], z[12:16]
        kin = float(y1 @ y1) / two_nu1 + float(y2 @ y2) / two_nu2
        v = potential_partials(kv, float(x1 @ x1), float(x2 @ x2), float(x1 @ x2))[0]
        mu1, mu2 = spectral_pair_components(angular_momentum_components(z.tolist()))
        return kin + v, mu1, mu2
    return values


def hamiltonian_full(masses: MassTriple, state: FullState) -> float:
    """H = |y1|^2/(2 nu1) + |y2|^2/(2 nu2) + V(scalar products of x), by `full_values_kernel`."""
    return full_values_kernel(masses)(full_to_array(state))[0]


def angular_momentum_components(z) -> tuple:
    """(L12, L13, L14, L23, L24, L34) of L = x1 ^ y1 + x2 ^ y2 on plain floats.

    `z` holds the 16 floats (x1, x2, y1, y2) of `full_to_array`;
    each wedge entry is exactly antisymmetric, so these are L's upper entries.
    """
    (a0, a1, a2, a3, b0, b1, b2, b3,
     u0, u1, u2, u3, v0, v1, v2, v3) = z
    return ((a0 * u1 - u0 * a1) + (b0 * v1 - v0 * b1),
            (a0 * u2 - u0 * a2) + (b0 * v2 - v0 * b2),
            (a0 * u3 - u0 * a3) + (b0 * v3 - v0 * b3),
            (a1 * u2 - u1 * a2) + (b1 * v2 - v1 * b2),
            (a1 * u3 - u1 * a3) + (b1 * v3 - v1 * b3),
            (a2 * u3 - u2 * a3) + (b2 * v3 - v2 * b3))


def spectral_pair_components(l) -> tuple[float, float]:
    """(mu1, mu2) from the six components (L12, L13, L14, L23, L24, L34).

    Solves the quadratic in mu^2 given by tr L^2 = -2(mu1^2 + mu2^2) and
    Pf L = mu1 mu2, with mu1 >= |mu2| >= 0 and sign(mu2) = sign(Pf L), so
    that both invariants are reproduced exactly.
    """
    l12, l13, l14, l23, l24, l34 = l
    pf = l12 * l34 - l13 * l24 + l14 * l23
    ssum = l12 * l12 + l13 * l13 + l14 * l14 + l23 * l23 + l24 * l24 + l34 * l34
    root = math.sqrt(max(ssum * ssum - 4.0 * pf * pf, 0.0))
    mu1 = math.sqrt(0.5 * (ssum + root))
    mu2 = math.sqrt(max(0.5 * (ssum - root), 0.0))
    return mu1, (-mu2 if pf < 0.0 else mu2)


def angular_momentum(state: FullState) -> AngularMomentum:
    """L = x1 ^ y1 + x2 ^ y2 with its spectral pair."""
    comps = angular_momentum_components(full_to_array(state).tolist())
    upper = np.zeros((4, 4))
    upper[(0, 0, 0, 1, 1, 2), (1, 2, 3, 2, 3, 3)] = comps
    mu1, mu2 = spectral_pair_components(comps)
    return AngularMomentum(upper - upper.T, mu1, mu2)
