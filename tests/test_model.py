"""Masses, Jacobi vectors, potential, Hamiltonian and angular momentum."""

import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threebody4d import dynamics, model
from threebody4d.errors import CollisionError

import oracles
from conftest import (central_gradient, random_full_state, random_so4, rescaled, rotated,
                      scalar_products)


def test_mass_triple_derived():
    m = model.MassTriple(1.0, 2.0, 3.0)
    assert m.nu1 == pytest.approx(6.0 / 5.0)
    assert m.nu2 == pytest.approx(5.0 / 6.0)
    assert m.a2 + m.a3 == pytest.approx(1.0)
    assert m.total == 6.0


def _derived_by_formula(m1, m2, m3):
    return (m1 + m2 + m3, m2 * m3 / (m2 + m3), m1 * (m2 + m3) / (m1 + m2 + m3),
            m2 / (m2 + m3), m3 / (m2 + m3))


def _derived(m):
    return m.total, m.nu1, m.nu2, m.a2, m.a3


def test_mass_triple_derived_fields_equal_the_formulas_bitwise():
    # formed once, at construction: on floats, and on Decimals in the context
    # current then, which is not the one current when they are read
    rng = np.random.default_rng(40)
    for m in rng.uniform(0.5, 2.5, size=(50, 3)).tolist():
        assert list(map(repr, _derived(model.MassTriple(*m)))) \
            == list(map(repr, _derived_by_formula(*m)))
        with localcontext(Context(prec=60)):
            dm = [Decimal(v) for v in m]
            triple, ref = model.MassTriple(*dm), _derived_by_formula(*dm)
        assert list(map(repr, _derived(triple))) == list(map(repr, ref))
        assert _derived(model.MassTriple(*dm)) != ref  # at the default 28 digits


def test_mass_triple_equality_hash_and_repr_read_only_the_masses():
    a, b = model.MassTriple(1.0, 2.0, 3.0), model.MassTriple(1.0, 2.0, 3.0)
    for name in ("total", "nu1", "nu2", "a2", "a3", "potential_constants"):
        object.__setattr__(b, name, None)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "MassTriple(m1=1.0, m2=2.0, m3=3.0)"
    assert a != model.MassTriple(1.0, 3.0, 2.0)


def test_mass_triple_rejects_nonpositive():
    with pytest.raises(ValueError):
        model.MassTriple(1.0, -2.0, 3.0)
    with pytest.raises(ValueError):
        model.MassTriple(0.0, 1.0, 1.0)


def test_mass_permutations():
    m = model.MassTriple(1.0, 2.0, 3.0)
    assert m.permuted((2, 3)) is m
    m13 = m.permuted((1, 3))
    assert (m13.m1, m13.m2, m13.m3) == (2.0, 1.0, 3.0)
    m12 = m.permuted((1, 2))
    assert (m12.m1, m12.m2, m12.m3) == (3.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        m.permuted((1, 1))


def test_jacobi_zero_configuration():
    m = model.MassTriple(1.0, 1.0, 1.0)
    z = np.zeros(4)
    st = model.jacobi_from_positions(m, z, z, z, z, z, z)
    assert np.all(st.x1 == 0) and np.all(st.x2 == 0)
    assert np.all(st.y1 == 0) and np.all(st.y2 == 0)


def test_jacobi_symmetric_example():
    # equal masses, binary on the x-axis, third body above: direct arithmetic
    m = model.MassTriple(1.0, 1.0, 1.0)
    z = np.zeros(4)
    st = model.jacobi_from_positions(
        m, [0, 1, 0, 0], [1, 0, 0, 0], [-1, 0, 0, 0], z, z, z)
    assert np.allclose(st.x1, [2, 0, 0, 0])
    assert np.allclose(st.x2, [0, 1, 0, 0])
    assert np.allclose(st.y1, 0) and np.allclose(st.y2, 0)


def test_jacobi_mutual_distances():
    rng = np.random.default_rng(0)
    m = model.MassTriple(1.3, 0.7, 2.1)
    for _ in range(20):
        r1, r2, r3 = rng.normal(size=(3, 4))
        st = model.jacobi_from_positions(m, r1, r2, r3, *rng.normal(size=(3, 4)))
        assert np.linalg.norm(r2 - r3) == pytest.approx(np.linalg.norm(st.x1))
        assert np.linalg.norm(r3 - r1) == pytest.approx(
            np.linalg.norm(m.a2 * st.x1 + st.x2))
        assert np.linalg.norm(r1 - r2) == pytest.approx(
            np.linalg.norm(m.a3 * st.x1 - st.x2))


def test_centre_of_mass_drops_out():
    rng = np.random.default_rng(1)
    m = model.MassTriple(1.0, 2.0, 3.0)
    rs = rng.normal(size=(3, 4))
    vs = rng.normal(size=(3, 4))
    st = model.jacobi_from_positions(m, *rs, *vs)
    # shift frame: the Jacobi state is unchanged, x3/y3 absorb the shift
    shift = rng.normal(size=4)
    boost = rng.normal(size=4)
    st2 = model.jacobi_from_positions(m, *(r + shift for r in rs),
                                      *(v + boost for v in vs))
    assert np.allclose(st.x1, st2.x1) and np.allclose(st.x2, st2.x2)
    assert np.allclose(st.y1, st2.y1) and np.allclose(st.y2, st2.y2)
    x3, y3 = model.centre_of_mass(m, *rs, *vs)
    assert np.allclose(x3, (rs[0] + 2 * rs[1] + 3 * rs[2]) / 6.0)
    assert np.allclose(y3, vs[0] + 2 * vs[1] + 3 * vs[2])


def test_potential_equilateral_unit():
    m = model.MassTriple(1.0, 1.0, 1.0)
    # unit-side equilateral triangle in the plane
    r2 = np.array([0.5, 0, 0, 0])
    r3 = np.array([-0.5, 0, 0, 0])
    r1 = np.array([0, math.sqrt(3) / 2, 0, 0])
    st = model.jacobi_from_positions(m, r1, r2, r3, *np.zeros((3, 4)))
    v = model.potential_derivatives(m, scalar_products(st))[0]
    assert v == pytest.approx(-3.0, abs=1e-14)


def test_potential_derived_value():
    m = model.MassTriple(1.0, 1.0, 1.0)
    s = model.ScalarProducts(4.0, 1.0, 0.0)  # x1 = (2,0,0,0), x2 = (0,1,0,0)
    d1, d2, d3 = oracles.mutual_distances_sq(m, s)
    assert (d1, d2, d3) == pytest.approx((4.0, 2.0, 2.0))
    v = model.potential_derivatives(m, s)[0]
    assert v == pytest.approx(-(0.5 + math.sqrt(2.0)), abs=1e-14)


def test_potential_gradient_finite_differences():
    rng = np.random.default_rng(2)
    m = model.MassTriple(1.0, 2.0, 3.0)
    for _ in range(10):
        st = random_full_state(rng)
        s = scalar_products(st)
        _, v1, v2, v3 = model.potential_derivatives(m, s)

        def f(x):
            return model.potential_derivatives(m, model.ScalarProducts(*x))[0]

        fd = central_gradient(f, [s.s11, s.s22, s.s12], h=1e-7)
        assert np.allclose([v1, v2, v3], fd, rtol=1e-7)


def test_potential_hessian_finite_differences():
    rng = np.random.default_rng(12)
    m = model.MassTriple(0.8, 1.1, 2.4)
    st = random_full_state(rng)
    s = scalar_products(st)
    k = m.potential_constants
    v11, v22, v33, v12, v13, v23 = model.potential_second_partials(
        k, model.potential_partials(k, s.s11, s.s22, s.s12, distances=True)[1])
    hess = np.array([[v11, v12, v13], [v12, v22, v23], [v13, v23, v33]])

    def grad(x):
        return np.array(model.potential_derivatives(m, model.ScalarProducts(*x))[1:])

    x0 = np.array([s.s11, s.s22, s.s12])
    fd = np.zeros((3, 3))
    for k in range(3):
        h = 1e-6 * max(1.0, abs(x0[k]))
        xp, xm = x0.copy(), x0.copy()
        xp[k] += h
        xm[k] -= h
        fd[:, k] = (grad(xp) - grad(xm)) / (2 * h)
    assert np.allclose(hess, fd, rtol=1e-6, atol=1e-9)


def test_collision_raises():
    m = model.MassTriple(1.0, 1.0, 1.0)
    with pytest.raises(CollisionError):
        model.potential_derivatives(m, model.ScalarProducts(0.0, 1.0, 0.0))[0]
    # tolerance boundary: squared distance below 1e-24 trips the guard
    with pytest.raises(CollisionError):
        model.potential_derivatives(m, model.ScalarProducts(5e-25, 1.0, 0.0))[0]
    assert model.potential_derivatives(m, model.ScalarProducts(1e-10, 1.0, 0.0))[0] < 0


def test_collision_fires_at_one_squared_distance_on_floats_and_decimals():
    tol = model.COLLISION_TOL
    k = model.MassTriple(1.0, 1.0, 1.0).potential_constants
    with pytest.raises(CollisionError):
        model.potential_partials(k, tol, 1.0, 0.0)
    model.potential_partials(k, math.nextafter(tol, 1.0), 1.0, 0.0)
    with localcontext(Context(prec=60)):
        k = model.MassTriple(Decimal(1), Decimal(1), Decimal(1)).potential_constants
        # the tolerances a Decimal kernel compares against are Decimals
        assert all(isinstance(v, Decimal) for v in k[-2:])
        d = Decimal(tol)
        with pytest.raises(CollisionError):
            model.potential_partials(k, d, Decimal(1), Decimal(0))
        model.potential_partials(k, d.next_plus(), Decimal(1), Decimal(0))


def test_hamiltonian_equilateral():
    m = model.MassTriple(1.0, 1.0, 1.0)
    r2 = np.array([0.5, 0, 0, 0])
    r3 = np.array([-0.5, 0, 0, 0])
    r1 = np.array([0, math.sqrt(3) / 2, 0, 0])
    st = model.jacobi_from_positions(m, r1, r2, r3, *np.zeros((3, 4)))
    assert model.hamiltonian_full(m, st) == pytest.approx(-3.0, abs=1e-14)


def test_hamiltonian_rotation_invariance():
    rng = np.random.default_rng(3)
    m = model.MassTriple(1.0, 2.0, 3.0)
    for _ in range(10):
        st = random_full_state(rng)
        h0 = model.hamiltonian_full(m, st)
        rot = random_so4(rng)
        h1 = model.hamiltonian_full(m, rotated(st, rot))
        assert abs(h1 - h0) < 1e-12 * max(1.0, abs(h0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_full_values_kernel_invariant_under_rotations(seed):
    rng = np.random.default_rng(seed)
    st0 = random_full_state(rng)
    values = model.full_values_kernel(model.MassTriple(1.0, 2.0, 3.0))
    h0, a1, a2 = values(model.full_to_array(st0))
    h1, b1, b2 = values(model.full_to_array(rotated(st0, random_so4(rng))))
    assert abs(h1 - h0) <= 1e-12 * max(1.0, abs(h0))
    assert abs(b1 - a1) <= 1e-12 * a1
    # mu2^2 is the small root of a quadratic in mu^2: its rounding is
    # absolute, of the size of mu1^2
    assert abs(b2 * b2 - a2 * a2) <= 1e-12 * a1 * a1 and b2 * a2 >= 0.0


def test_full_hamiltonian_and_monitor_at_a_subnormal_squared_norm():
    # s22 = 4.66e-323 is subnormal, so s12^2 exceeds s11 s22 by more than
    # the slack of the Cauchy-Schwarz check, which formed products skip
    m = model.MassTriple(1.0, 1.0, 1.0)
    st0 = model.FullState([0.0, 0.0, 0.0, 1e12], [0.0, 0.0, 0.0, 6.828e-162],
                          np.zeros(4), np.zeros(4))
    assert model.hamiltonian_full(m, st0) == -5.0000000000000005e-12
    h = dynamics.full_monitors(m)["H"]
    assert h(0.0, model.full_to_array(st0)) == -5.0000000000000005e-12


def test_hamiltonian_newtonian_oracle():
    # H must equal kinetic + potential computed from raw bodies
    rng = np.random.default_rng(4)
    m = model.MassTriple(1.7, 0.6, 1.1)
    for _ in range(10):
        rs = rng.normal(size=(3, 4))
        vs = 0.3 * rng.normal(size=(3, 4))
        # remove total momentum so the centre-of-mass kinetic term vanishes
        ptot = m.m1 * vs[0] + m.m2 * vs[1] + m.m3 * vs[2]
        vs = vs - ptot / m.total
        st = model.jacobi_from_positions(m, *rs, *vs)
        kin = 0.5 * (m.m1 * vs[0] @ vs[0] + m.m2 * vs[1] @ vs[1] + m.m3 * vs[2] @ vs[2])
        pot = -(m.m2 * m.m3 / np.linalg.norm(rs[1] - rs[2])
                + m.m3 * m.m1 / np.linalg.norm(rs[2] - rs[0])
                + m.m1 * m.m2 / np.linalg.norm(rs[0] - rs[1]))
        href = kin + pot
        assert model.hamiltonian_full(m, st) == pytest.approx(href, rel=1e-12)


def test_angular_momentum_zero_momenta():
    st = model.FullState([1, 2, 0, 1], [0, 1, 1, 0], np.zeros(4), np.zeros(4))
    am = model.angular_momentum(st)
    assert np.all(am.matrix == 0)
    assert am.mu1 == 0 and am.mu2 == 0


def test_angular_momentum_normal_form():
    mu1, mu2 = 1.4, 0.3
    l0 = np.zeros((4, 4))
    l0[0, 1], l0[1, 0] = mu1, -mu1
    l0[2, 3], l0[3, 2] = mu2, -mu2
    got = model.spectral_pair_components(l0[np.triu_indices(4, 1)].tolist())
    assert got == pytest.approx((mu1, mu2))
    assert oracles.pfaffian4(l0) == pytest.approx(mu1 * mu2)


def test_angular_momentum_matrix_is_the_wedge_sum():
    rng = np.random.default_rng(33)
    for _ in range(50):
        state = random_full_state(rng)
        ref = oracles.wedge(state.x1, state.y1) + oracles.wedge(state.x2, state.y2)
        assert np.array_equal(model.angular_momentum(state).matrix, ref)


def test_pfaffian_squared_is_determinant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        st = random_full_state(rng)
        l = model.angular_momentum(st).matrix
        det = np.linalg.det(l)
        assert oracles.pfaffian4(l) ** 2 == pytest.approx(det, rel=1e-10, abs=1e-14)


def test_spectral_reconstruction():
    rng = np.random.default_rng(6)
    for _ in range(20):
        st = random_full_state(rng)
        am = model.angular_momentum(st)
        tr2 = float(np.trace(am.matrix @ am.matrix))
        assert -2.0 * (am.mu1 ** 2 + am.mu2 ** 2) == pytest.approx(tr2, rel=1e-10)
        assert am.mu1 * am.mu2 == pytest.approx(oracles.pfaffian4(am.matrix),
                                                rel=1e-10, abs=1e-12)
        assert am.mu1 >= abs(am.mu2) >= 0.0


def test_angular_momentum_equivariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        st = random_full_state(rng)
        rot = random_so4(rng)
        l0 = model.angular_momentum(st).matrix
        l1 = model.angular_momentum(rotated(st, rot)).matrix
        assert np.allclose(l1, rot @ l0 @ rot.T, atol=1e-12)


def test_scaling_symmetry():
    rng = np.random.default_rng(8)
    m = model.MassTriple(1.0, 2.0, 3.0)
    st = random_full_state(rng)
    s = 3.7
    h0 = model.hamiltonian_full(m, st)
    h1 = model.hamiltonian_full(m, rescaled(st, s))
    assert h1 == pytest.approx(h0 / s, rel=1e-12)
    am0 = model.angular_momentum(st)
    am1 = model.angular_momentum(rescaled(st, s))
    assert am1.mu1 == pytest.approx(math.sqrt(s) * am0.mu1, rel=1e-12)


def test_scalar_products_validation():
    with pytest.raises(ValueError):
        model.ScalarProducts(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        model.ScalarProducts(1.0, 1.0, 2.0)


# The kernels form (s11, s22, s12) from two vectors and do not check them.
# Components are 0 or m 10^(e + o), 0.1 <= |m| <= 1, o in [-8, 0], for a
# scale exponent e in [-75, 75] per vector: no square falls below the
# normal range, where its rounding is no longer relative (s22 = 4.4e-323
# for 4.66e-323 against s11 = 1e24 exceeds the slack), and s11 s22 stays
# finite.  The chart kernels cannot reach that range: their area test
# fails first.
_mantissa = st.one_of(st.just(0.0), st.builds(lambda m, s: m * s, st.floats(0.1, 1.0),
                                              st.sampled_from((-1.0, 1.0))))


def _vector(dim, e):
    return st.lists(st.tuples(_mantissa, st.integers(-8, 0)),
                    min_size=dim, max_size=dim).map(
        lambda comps: [m * 10.0 ** (e + o) for m, o in comps])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(dim=st.sampled_from((2, 4)), ex=st.integers(-75, 75), ey=st.integers(-75, 75),
       data=st.data())
def test_formed_scalar_products_pass_the_configuration_check(dim, ex, ey, data):
    x = data.draw(_vector(dim, ex))
    if data.draw(st.booleans()):
        y = data.draw(_vector(dim, ey))
    else:  # near-collinear, and collinear at eps = 0
        c = data.draw(_mantissa)
        eps = data.draw(st.sampled_from((0.0, 1e-16, 1e-12, 1e-8)))
        r = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
        y = [c * 10.0 ** (ey - ex) * xi * (1.0 + eps * ri) for xi, ri in zip(x, r)]
    s12 = sum(a * b for a, b in zip(x, y))
    # the chart kernels square with `*` and with `**`
    model.check_scalar_products(sum(a * a for a in x), sum(b * b for b in y), s12)
    model.check_scalar_products(sum(a ** 2 for a in x), sum(b ** 2 for b in y), s12)
