"""Numerical monodromy: generators, relations, invariance."""

import dataclasses

import numpy as np
import pytest

from painlab.catalog import PhaseState, lookup
from painlab.fuchsian import FuchsianSystem
from painlab.integrator import ComplexPath, integrate
from painlab import monodromy
from painlab.monodromy import (base_point, big_circle, invariant_traces,
                               isomonodromy_drift, lasso, lasso_at_infinity,
                               monodromy_matrix, monodromy_representation)
from painlab.parametrizations import SUPPORTED, assemble
from painlab.sampling import rng_from_seed, sample_params, sample_state


def small_random_system(rng, n_pts=3, L=2, scale=0.3):
    pts = [0.6 + 0.3j, 1.0, 0.0][:n_pts]
    mats = [scale * (rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)))
            for _ in pts]
    return FuchsianSystem(points=tuple(pts), residues=tuple(mats))


def test_empty_loop_gives_identity():
    rng = rng_from_seed(1)
    sys = small_random_system(rng)
    x0 = base_point(sys.points)
    # a small circle far from every singularity encloses nothing
    loop = ComplexPath.circle(x0, 0.05, singularities=sys.points)
    M = _transport(sys, loop, rel_tol=1e-11)
    assert np.max(np.abs(M - np.eye(2))) < 1e-9


def test_scalar_loop_multiplier():
    theta = 0.23 + 0.31j
    z = np.zeros((2, 2))
    a0 = np.array([[theta, 0], [0, 0]])
    sys = FuchsianSystem(points=(0.5, 1.0, 0.0), residues=(z, z, a0))
    M = monodromy_matrix(sys, [lasso(sys.points, 2)], rel_tol=1e-11)[0]
    assert abs(M[0, 0] - np.exp(2j * np.pi * theta)) < 1e-9
    assert abs(M[1, 1] - 1) < 1e-9


def test_generator_eigenvalues_match_residue_exponents():
    rng = rng_from_seed(2)
    sys = small_random_system(rng)
    x0 = base_point(sys.points)
    for k, a in enumerate(sys.residues):
        M = monodromy_matrix(sys, [lasso(sys.points, k, x0)],
                             rel_tol=1e-11)[0]
        ev_m = np.sort_complex(np.linalg.eigvals(M))
        ev_a = np.sort_complex(np.exp(2j * np.pi * np.linalg.eigvals(a)))
        assert np.max(np.abs(ev_m - ev_a)) < 1e-7


def test_determinant_relation():
    rng = rng_from_seed(3)
    sys = small_random_system(rng)
    rep = monodromy_representation(sys, rel_tol=1e-11)
    order = sorted(range(3), key=lambda k: np.angle(sys.points[k] - rep.base))
    for M, k in zip(rep.matrices, order):
        want = np.exp(2j * np.pi * np.trace(sys.residues[k]))
        assert abs(np.linalg.det(M) - want) < 1e-7 * (1 + abs(want))


def test_product_relation_with_independent_infinity_loop():
    rng = rng_from_seed(4)
    sys = small_random_system(rng)
    rep = monodromy_representation(sys, rel_tol=1e-11)
    # relative to the product of the factor sizes (here about 3e5)
    assert rep.product_defect() < 1e-13


def test_base_point_independence_of_traces():
    rng = rng_from_seed(5)
    sys = small_random_system(rng)
    r1 = monodromy_representation(sys, rel_tol=1e-11)
    r2 = monodromy_representation(sys, rel_tol=1e-11,
                                  x0=base_point(sys.points) * 1.25 - 0.3j)
    t1 = np.sort_complex(invariant_traces(r1))
    t2 = np.sort_complex(invariant_traces(r2))
    assert np.max(np.abs(t1 - t2)) < 1e-8 * float(1 + np.max(np.abs(t1)))


def test_zero_length_deformation_has_zero_drift():
    rng = rng_from_seed(6)
    sys = small_random_system(rng)
    drift = isomonodromy_drift([monodromy_representation(sys, rel_tol=1e-10)
                                for _ in range(2)])
    assert drift == 0.0


def test_scaled_generators_read_as_drift():
    rep = monodromy_representation(small_random_system(rng_from_seed(6)),
                                   rel_tol=1e-10)
    scaled = dataclasses.replace(
        rep, matrices=tuple((1 + 1e-4) * m for m in rep.matrices))
    assert isomonodromy_drift([rep, scaled]) > 1e-5


def _assembled(sid, rng):
    desc = lookup(sid)
    par = {k: 0.25 * v for k, v in
           sample_params(sid, rng, generic=True).items()}
    times = ((1.7 + 0.8j, -0.6 + 0.5j) if desc.n_times == 2
             else (1.7 + 0.8j,))
    st = sample_state(sid, rng, times=times)
    st = PhaseState(tuple(0.4 * z for z in st.q),
                    tuple(0.4 * z for z in st.p), st.t)
    return assemble(sid, par, st)


def _transport(sys, loop, rel_tol=1e-10):
    """Integration over the whole loop, return leg included."""
    y0 = np.eye(sys.size, dtype=complex).ravel()
    traj = integrate(sys.rhs(), y0, loop, rel_tol=rel_tol, abs_tol=1e-13)
    return traj.end_state.reshape(sys.size, sys.size)


@pytest.mark.parametrize("sid", SUPPORTED)
def test_lasso_by_inversion_matches_full_transport(sid):
    # the return leg is inverted, not integrated: the generators must
    # still agree with integration over all three legs
    sys = _assembled(sid, rng_from_seed(8))
    for k in range(len(sys.points)):
        loop = lasso(sys.points, k)
        M, full = monodromy_matrix(sys, [loop])[0], _transport(sys, loop)
        assert np.linalg.norm(M - full) <= 1e-9 * np.linalg.norm(full)


def test_loops_that_do_not_retrace_are_rejected():
    sys = _assembled("22,22,211,211", rng_from_seed(9))
    x0 = base_point(sys.points)
    triangle = ComplexPath.polyline([x0, 3 + 1j, -3 + 1.5j, x0],
                                    singularities=sys.points)
    for loop in (triangle, big_circle(sys.points)):
        with pytest.raises(ValueError, match="retracing"):
            monodromy_matrix(sys, [lasso(sys.points, 0), loop])


def test_one_member_stack_is_the_unstacked_transport():
    sys = _assembled("22,22,211,211", rng_from_seed(10))
    loop = lasso(sys.points, 1)
    y0 = np.eye(sys.size, dtype=complex).ravel()
    solo = integrate(sys.rhs(), y0, loop, rel_tol=1e-10, abs_tol=1e-13)
    stack = integrate(sys.rhs(), y0[None], ComplexPath.stack([loop]),
                      rel_tol=1e-10, abs_tol=1e-13)

    def bits(y):
        return [(z.real.hex(), z.imag.hex()) for z in np.ravel(y)]

    assert bits(stack.end_state) == bits(solo.end_state)
    assert (stack.n_steps, stack.n_rejected) == (solo.n_steps,
                                                 solo.n_rejected)


@pytest.mark.parametrize("sid", SUPPORTED)
def test_stacked_generators_match_per_loop_transport(sid):
    sys = _assembled(sid, rng_from_seed(8))
    loops = [lasso(sys.points, k) for k in range(len(sys.points))]
    stacked = monodromy_matrix(sys, loops)
    assert stacked.shape == (len(loops), sys.size, sys.size)
    for M, loop in zip(stacked, loops):
        solo = monodromy_matrix(sys, [loop])[0]
        assert np.linalg.norm(M - solo) <= 1e-9 * np.linalg.norm(solo)


@pytest.mark.parametrize("sid", SUPPORTED)
def test_stacked_loop_at_infinity_matches_big_circle(sid):
    # the lasso at infinity goes out to a circle of radius 2|x0|: it must
    # give the monodromy of the big circle through x0, integrated alone
    sys = _assembled(sid, rng_from_seed(8))
    rep = monodromy_representation(sys)
    full = _transport(sys, big_circle(sys.points))
    assert np.linalg.norm(rep.at_infinity - full) <= 1e-9 * np.linalg.norm(
        full)


def test_representation_is_one_integrate_call(monkeypatch):
    sys = _assembled("21,21,21,21,111", rng_from_seed(11))
    calls = []

    def counted(rhs, y0, path, **kwargs):
        calls.append(np.shape(y0))
        return integrate(rhs, y0, path, **kwargs)

    monkeypatch.setattr(monodromy, "integrate", counted)
    monodromy_representation(sys)
    n = len(sys.points)
    assert calls == [(n + 1, sys.size ** 2)]


def test_lasso_at_infinity_goes_out_along_the_ray_of_x0():
    pts = (0.6 + 0.3j, 1.0, 0.0)
    x0 = base_point(pts)
    out, circle, back = lasso_at_infinity(pts).segments
    assert (out.start, out.end, back.start, back.end) == (x0, 2 * x0,
                                                           2 * x0, x0)
    assert circle.center == 0 and circle.radius == 2 * abs(x0)
    assert circle.sweep == -2 * np.pi  # clockwise
    assert abs(circle.point(0.0) - 2 * x0) < 1e-15
