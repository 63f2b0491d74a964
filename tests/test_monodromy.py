"""Numerical monodromy: generators, relations, invariance."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from painlab.catalog import PhaseState, lookup
from painlab.fuchsian import FuchsianSystem
from painlab import integrator, monodromy
from painlab.integrator import (Arc, ComplexPath, StepBudgetError,
                                StepUnderflowError, integrate)
from painlab.monodromy import (TransportDefectError, base_point, big_circle,
                               invariant_traces, isomonodromy_drift, lasso,
                               lasso_at_infinity, monodromy_matrix,
                               monodromy_representation, series_order)
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
    loop = ComplexPath((Arc(complex(x0), 0.05, 0.0, 2 * np.pi),),
                       singularities=sys.points)
    M = _transport(sys, loop, rel_tol=1e-11)
    assert np.max(np.abs(M - np.eye(2))) < 1e-9


def test_scalar_loop_multiplier():
    theta = 0.23 + 0.31j
    z = np.zeros((2, 2))
    a0 = np.array([[theta, 0], [0, 0]])
    sys = FuchsianSystem(points=(0.5, 1.0, 0.0), residues=(z, z, a0))
    M = monodromy_matrix(sys, [lasso(sys.points, 2)],
                         rel_tol=1e-11).matrices[0]
    assert abs(M[0, 0] - np.exp(2j * np.pi * theta)) < 1e-9
    assert abs(M[1, 1] - 1) < 1e-9


def test_generator_eigenvalues_match_residue_exponents():
    rng = rng_from_seed(2)
    sys = small_random_system(rng)
    x0 = base_point(sys.points)
    for k, a in enumerate(sys.residues):
        M = monodromy_matrix(sys, [lasso(sys.points, k, x0)],
                             rel_tol=1e-11).matrices[0]
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
        M = monodromy_matrix(sys, [loop]).matrices[0]
        full = _transport(sys, loop)
        assert np.linalg.norm(M - full) <= 1e-9 * np.linalg.norm(full)


def test_loops_that_do_not_retrace_are_rejected():
    sys = _assembled("22,22,211,211", rng_from_seed(9))
    x0 = base_point(sys.points)
    triangle = ComplexPath.polyline([x0, 3 + 1j, -3 + 1.5j, x0],
                                    singularities=sys.points)
    for loop in (triangle, big_circle(sys.points)):
        with pytest.raises(ValueError, match="retracing"):
            monodromy_matrix(sys, [lasso(sys.points, 0), loop])


@pytest.mark.parametrize("sid", SUPPORTED)
def test_stacked_generators_match_per_loop_transport(sid):
    sys = _assembled(sid, rng_from_seed(8))
    loops = [lasso(sys.points, k) for k in range(len(sys.points))]
    stacked = monodromy_matrix(sys, loops).matrices
    assert stacked.shape == (len(loops), sys.size, sys.size)
    for M, loop in zip(stacked, loops):
        solo = monodromy_matrix(sys, [loop]).matrices[0]
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


def test_representation_is_one_monodromy_matrix_call(monkeypatch):
    # every lasso, the one at infinity included, goes through one Taylor
    # transport; nothing is stepped by the Runge-Kutta integrator
    sys = _assembled("21,21,21,21,111", rng_from_seed(11))
    calls, steps = [], []

    def counted(sys, lassos, rel_tol):
        calls.append(len(lassos))
        return monodromy_matrix(sys, lassos, rel_tol)

    def stepped(*args):
        steps.append(args)
        return segment(*args)

    segment = integrator._integrate_segment
    monkeypatch.setattr(monodromy, "monodromy_matrix", counted)
    monkeypatch.setattr(integrator, "_integrate_segment", stepped)
    rep = monodromy_representation(sys)
    assert calls == [len(sys.points) + 1]
    assert steps == []
    assert rep.series_order == series_order(1e-10)
    assert rep.transport_steps > 0


def _paths(sys, x0):
    """The representation's lassos, in the order of its generators."""
    pts = sys.points
    order = sorted(range(len(pts)), key=lambda k: np.angle(pts[k] - x0))
    return [lasso(pts, k, x0) for k in order] + [lasso_at_infinity(pts, x0)]


def _relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("sid", SUPPORTED)
def test_taylor_matches_dp5_reference(sid):
    # whole lassos, return legs included, stepped by the Runge-Kutta
    # integrator at rel_tol 1e-12
    sys = _assembled(sid, rng_from_seed(8))
    rep = monodromy_representation(sys)
    ref = [_transport(sys, loop, rel_tol=1e-12)
           for loop in _paths(sys, rep.base)]
    for M, want in zip(rep.matrices + (rep.at_infinity,), ref):
        assert _relative_gap(M, want) <= 1e-9


@pytest.mark.parametrize("sid", SUPPORTED)
def test_product_defect_no_larger_than_dp5(sid):
    sys = _assembled(sid, rng_from_seed(9))
    rep = monodromy_representation(sys)
    *gens, minf = [_transport(sys, loop)
                   for loop in _paths(sys, rep.base)]
    # the same lassos stepped by the Runge-Kutta integrator
    stepped = dataclasses.replace(rep, matrices=tuple(gens),
                                  at_infinity=minf)
    assert rep.product_defect() <= stepped.product_defect()


def test_every_chord_obeys_both_bounds():
    sys = _assembled("31,22,211,1111", rng_from_seed(8))
    rep = monodromy_representation(sys)
    pts = np.array(sys.points)
    norms = [np.linalg.norm(a) for a in sys.residues]
    n = 0
    for b, loop in enumerate(_paths(sys, rep.base)):
        for seg in loop.segments[:-1]:
            v = np.array(monodromy._chords(seg, sys.points, norms, b))
            c, h = v[:-1], np.diff(v)
            dist = np.abs(pts - c[:, None])
            assert np.all(np.abs(h) <= monodromy.RHO * dist.min(axis=1)
                          * (1 + 1e-12))
            assert np.all(np.abs(h) * (norms / dist).sum(axis=1)
                          <= monodromy.SIGMA * (1 + 1e-12))
            # the vertices lie on the segment, its ends included
            assert max(seg.distance(z) for z in v) < 1e-12
            assert abs(v[0] - seg.point(0.0)) + abs(v[-1] - seg.point(1.0)) \
                < 1e-12
            n += len(c)
    assert n == rep.transport_steps


def test_truncated_series_fails_the_defect_check(monkeypatch):
    sys = _assembled("22,22,211,211", rng_from_seed(8))
    monkeypatch.setattr(monodromy, "series_order", lambda rel_tol: 4)
    with pytest.raises(TransportDefectError,
                       match=r"lasso \d+, step \d+: chord from c=") as err:
        monodromy_representation(sys)
    e = err.value
    assert e.defect > 1e-10 and e.h != 0
    assert 0 <= e.lasso <= len(sys.points) and e.step >= 0


def test_a_nan_defect_fails_the_transport_check():
    # NaN > tol is false: a NaN defect must not read as a passed check
    sys = _assembled("21,21,21,21,111", rng_from_seed(8))
    res = sys.residues.copy()
    res[0, 0, 0] = np.nan
    sys = dataclasses.replace(sys, residues=res)
    with pytest.raises(TransportDefectError, match="series defect nan") \
            as err:
        monodromy_representation(sys)
    assert np.isnan(err.value.defect)
    assert err.value.tol == 1e-10  # rel_tol, above DEFECT_FLOOR


def test_an_infinite_residue_fails_the_chord_planner():
    # SIGMA / inf plans chords of length 0: s would never advance, and
    # the planner would run up MAX_SEGMENT_STEPS of them
    sys = _assembled("21,21,21,21,111", rng_from_seed(8))
    res = sys.residues.copy()
    res[1, 0, 0] = np.inf
    sys = dataclasses.replace(sys, residues=res)
    with pytest.raises(StepUnderflowError,
                       match=r"chord of length 0 on a segment of lasso 0, at "
                             r"step 0 of the segment: c=.*, weight=inf"):
        monodromy_representation(sys)


# tracemalloc peak of one monodromy_representation at seed 8, in bytes,
# recorded while the recurrence's work arrays were still held through the
# defect check.  numpy reports its allocations to tracemalloc, so a peak
# repeats from run to run, to within 3 KB of what ran before it: these
# are the highest, read with this test run first
PEAK_BEFORE_RELEASE = {"21,21,21,21,111": 768152, "31,31,22,22,22": 716784,
                       "21,111,111,111": 400640, "31,22,211,1111": 1072696,
                       "22,22,211,211": 490920}


@pytest.mark.parametrize("sid", SUPPORTED)
def test_transport_peak_memory_does_not_grow(sid):
    sys = _assembled(sid, rng_from_seed(8))
    monodromy_representation(sys)  # first-call allocations stay out
    tracemalloc.start()
    try:
        monodromy_representation(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BEFORE_RELEASE[sid]


@pytest.mark.parametrize("sid", SUPPORTED)
def test_blocks_of_a_multiple_of_4_keep_every_bit(sid, monkeypatch):
    # each chord's recurrence is its own columns of one product per order.
    # OpenBLAS computes those columns in groups of 4, the last N mod 4 of
    # them by an edge kernel that rounds differently: blocks of a multiple
    # of 4 chords keep every column's place mod 4, so every bit, and other
    # blocks agree to rounding on the rank-3 systems
    sys = _assembled(sid, rng_from_seed(8))
    got = {}
    for block in (1, 7, 64, 128, 256):
        monkeypatch.setattr(monodromy, "BLOCK", block)
        rep = monodromy_representation(sys)
        got[block] = np.array(rep.matrices + (rep.at_infinity,))
    for block in (64, 128):
        assert np.array_equal(got[block], got[256])
    for block in (1, 7):
        assert np.max(np.abs(got[block] - got[256])) \
            <= 1e-12 * np.max(np.abs(got[256]))


def _chords_by_segment_point(seg, points, norms):
    """The planner's vertices as ``seg.point`` and a distance list give
    them: the reference for the one-chart planner."""
    if isinstance(seg, integrator.Line):
        length = abs(seg.end - seg.start)

        def advance(r):
            return r / length
    else:
        diameter, turn = 2 * seg.radius, abs(seg.sweep)

        def advance(r):
            return 2 * math.asin(min(1.0, r / diameter)) / turn

    s, c = 0.0, complex(seg.point(0.0))
    out = [c]
    while s < 1.0:
        dist = [abs(t - c) for t in points]
        r = monodromy.RHO * min(dist)
        weight = sum(a / d for a, d in zip(norms, dist))
        if r * weight > monodromy.SIGMA:
            r = monodromy.SIGMA / weight
        s = min(1.0, s + advance(r))
        c = complex(seg.point(s))
        out.append(c)
    return out


@pytest.mark.parametrize("sid", SUPPORTED)
def test_chords_match_the_segment_point_planner(sid):
    sys = _assembled(sid, rng_from_seed(8))
    norms = [float(np.linalg.norm(a)) for a in sys.residues]
    x0 = base_point(sys.points)
    n = 0
    for b, loop in enumerate(_paths(sys, x0)):
        for seg in loop.segments[:-1]:
            got = monodromy._chords(seg, sys.points, norms, b)
            want = _chords_by_segment_point(seg, sys.points, norms)
            assert [(z.real.hex(), z.imag.hex()) for z in got] \
                == [(z.real.hex(), z.imag.hex()) for z in want]
            n += len(got) - 1
    assert n == monodromy_representation(sys).transport_steps


def test_tiny_step_budget_raises(monkeypatch):
    sys = _assembled("22,22,211,211", rng_from_seed(8))
    monkeypatch.setattr(monodromy, "MAX_SEGMENT_STEPS", 3)
    with pytest.raises(StepBudgetError,
                       match=r"lasso 0, at step 3 of the segment: c="):
        monodromy_representation(sys)


def test_lasso_at_infinity_goes_out_along_the_ray_of_x0():
    pts = (0.6 + 0.3j, 1.0, 0.0)
    x0 = base_point(pts)
    out, circle, back = lasso_at_infinity(pts).segments
    assert (out.start, out.end, back.start, back.end) == (x0, 2 * x0,
                                                           2 * x0, x0)
    assert circle.center == 0 and circle.radius == 2 * abs(x0)
    assert circle.sweep == -2 * np.pi  # clockwise
    assert abs(circle.point(0.0) - 2 * x0) < 1e-15
