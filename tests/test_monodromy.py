"""Numerical monodromy: generators, relations, invariance."""

import numpy as np
from painlab.fuchsian import FuchsianSystem
from painlab.monodromy import (base_point, invariant_traces,
                               isomonodromy_drift, lasso, monodromy_matrix,
                               monodromy_representation)
from painlab.sampling import rng_from_seed


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
    from painlab.integrator import ComplexPath

    loop = ComplexPath.circle(x0, 0.05, singularities=sys.points)
    M = monodromy_matrix(sys, loop, rel_tol=1e-11)
    assert np.max(np.abs(M - np.eye(2))) < 1e-9


def test_scalar_loop_multiplier():
    theta = 0.23 + 0.31j
    z = np.zeros((2, 2))
    a0 = np.array([[theta, 0], [0, 0]])
    sys = FuchsianSystem(points=(0.5, 1.0, 0.0), residues=(z, z, a0))
    M = monodromy_matrix(sys, lasso(sys.points, 2), rel_tol=1e-11)
    assert abs(M[0, 0] - np.exp(2j * np.pi * theta)) < 1e-9
    assert abs(M[1, 1] - 1) < 1e-9


def test_generator_eigenvalues_match_residue_exponents():
    rng = rng_from_seed(2)
    sys = small_random_system(rng)
    x0 = base_point(sys.points)
    for k, a in enumerate(sys.residues):
        M = monodromy_matrix(sys, lasso(sys.points, k, x0), rel_tol=1e-11)
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
    assert rep.product_defect() < 1e-7


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
    drift = isomonodromy_drift([sys, sys], rel_tol=1e-10)
    assert drift == 0.0


def test_report_serializes():
    rng = rng_from_seed(7)
    sys = small_random_system(rng)
    rep = monodromy_representation(sys, rel_tol=1e-9)
    d = rep.to_json_dict()
    assert set(d) == {"base", "loops", "matrices", "at_infinity", "traces"}
    assert len(d["matrices"]) == 3
    assert all(lp["radius"] > 0 for lp in d["loops"])
