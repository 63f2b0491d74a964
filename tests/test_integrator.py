"""Adaptive integration along complex paths."""

import io
import math

import numpy as np
import pytest

from painlab.catalog import PhaseState
from painlab import catalog, integrator
from painlab.integrator import (Arc, ComplexPath, Line, PathMarginError,
                                StepBudgetError, StepUnderflowError,
                                integrate, integrate_time,
                                integrate_two_time, trajectory_to_csv)
from painlab.sampling import rng_from_seed, sample_params, sample_state


def test_exponential_growth():
    lam = 0.7 - 0.3j
    path = ComplexPath.polyline([0.0, 1.2 + 0.5j])
    rel_tol = 1e-10
    traj = integrate(lambda z, y: lam * y, np.array([1.0 + 0j]), path,
                     rel_tol=rel_tol)
    exact = np.exp(lam * (1.2 + 0.5j))
    assert abs(traj.end_state[0] - exact) / abs(exact) < 10 * rel_tol


UNIT_CIRCLE = ComplexPath((Arc(0j, 1.0, 0.0, 2 * np.pi),))


def test_scalar_monodromy_multiplier():
    theta = 0.37 + 0.11j
    path = UNIT_CIRCLE
    traj = integrate(lambda z, y: (theta / z) * y, np.array([1.0 + 0j]),
                     path, rel_tol=1e-10)
    assert abs(traj.end_state[0] - np.exp(2j * np.pi * theta)) < 1e-8


def test_reversal_returns_to_start():
    theta = 0.4 - 0.2j
    path = UNIT_CIRCLE
    rel_tol = 1e-9
    fwd = integrate(lambda z, y: (theta / z) * y, np.array([1.0 + 0j]),
                    path, rel_tol=rel_tol)
    back = integrate(lambda z, y: (theta / z) * y, fwd.end_state,
                     path.reversed(), rel_tol=rel_tol)
    assert abs(back.end_state[0] - 1.0) < 10 * rel_tol * 30


def test_tolerance_monotonicity():
    # endpoint error against a tight reference decreases with rel_tol
    sid = "11,11,11,11"
    rng = rng_from_seed(1)
    par = sample_params(sid, rng)
    st = PhaseState((0.3 + 0.1j,), (-0.2 + 0.4j,), (1.6 + 0.4j,))
    from painlab.catalog import flow_rhs

    rhs = flow_rhs(sid, 1, par, st.t)
    y0 = np.array(st.q + st.p, dtype=complex)
    ref = integrate_time(rhs, y0, st.t, 1, st.t[0] + 0.6, rel_tol=1e-12,
                         abs_tol=1e-14).end_state
    errors = []
    for tol in (1e-5, 1e-7, 1e-9):
        end = integrate_time(rhs, y0, st.t, 1, st.t[0] + 0.6, rel_tol=tol,
                             abs_tol=1e-14).end_state
        errors.append(float(np.max(np.abs(end - ref))))
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[2] > 100


def test_margin_violation_rejected_at_construction():
    with pytest.raises(PathMarginError):
        ComplexPath.polyline([-1.0, 1.0], singularities=[0.0, 5.0],
                             margin=0.1)
    # singular points on the path but between the points of a 65-sample probe
    with pytest.raises(PathMarginError):
        ComplexPath.polyline([-1.0, 1.0], singularities=[1 / 64, 5.0],
                             margin=0.01)
    with pytest.raises(PathMarginError):
        ComplexPath(UNIT_CIRCLE.segments,
                    singularities=[np.exp(1j * np.pi / 64), 5.0], margin=0.04)
    # the path runs through 0: a NaN point, wherever it sits, makes the
    # default margin NaN, which must fail the check rather than switch it off
    for at in range(3):
        singularities = [0.0, 1.0]
        singularities.insert(at, float("nan"))
        with pytest.raises(PathMarginError):
            ComplexPath.polyline([-1 - 0.001j, 1 + 0.001j],
                                 singularities=singularities)
    # a single point has no gap to scale by: its margin is 0.05 x the
    # path's length, so a path through it is rejected
    with pytest.raises(PathMarginError, match=r"margin 0\.1\)"):
        ComplexPath.polyline([-1.0, 1.0], singularities=[0.0])
    with pytest.raises(PathMarginError):
        ComplexPath(UNIT_CIRCLE.segments, singularities=[1j])
    assert ComplexPath.polyline([1.0, 2.0, 2.0 + 1j],
                                singularities=[0.0]).margin == 0.1
    assert ComplexPath.polyline([1.0, 2.0]).margin == 0.0


def test_colliding_singular_points_rejected():
    # colliding points would give a default margin of 0, which switched
    # the margin check off: this leg ran straight through the pole at 1
    with pytest.raises(PathMarginError, match="collide"):
        integrate_time(lambda z, y: y / (z - 1), [1.0], (1.7, 1.0), 1, 0.9)
    for margin in (None, 0.01):
        with pytest.raises(PathMarginError, match="collide"):
            ComplexPath.polyline([2.0, 3.0], singularities=[0.0, 1.0, 1.0],
                                 margin=margin)
    # distinct points within COLLISION_TOL collide too
    with pytest.raises(PathMarginError, match="collide"):
        ComplexPath.polyline([2.0, 3.0], singularities=[0.0, 1.0, 1 + 1e-13])


SEGMENTS = [
    Line(-1.0 + 0.5j, 2.0 - 1.0j),
    Arc(0.5j, 1.5, 0.3, 2.0),
    Arc(0.0, 0.7, 2.5, -4.0),
    Arc(1.0, 1.0, -1.0, 2 * np.pi),
]


@pytest.mark.parametrize("seg", SEGMENTS)
def test_segment_distance_matches_dense_sampling(seg):
    rng = np.random.default_rng(4)
    pts = np.array([seg.point(s) for s in np.linspace(0.0, 1.0, 200001)])
    for z in rng.normal(scale=2.0, size=20) + 1j * rng.normal(scale=2.0,
                                                                size=20):
        dense = float(np.min(np.abs(pts - z)))
        assert dense - 1e-4 <= seg.distance(z) <= dense + 1e-12


@pytest.mark.parametrize("seg, length", zip(
    SEGMENTS, [math.hypot(3.0, 1.5), 1.5 * 2.0, 0.7 * 4.0, 2 * np.pi]),
    ids=["seg0", "seg1", "seg2", "seg3"])
def test_segment_length_is_the_closed_form(seg, length):
    assert seg.length == pytest.approx(length, rel=1e-15)


@pytest.mark.parametrize("seg", SEGMENTS)
def test_reversed_runs_back_and_twice_gives_the_segment(seg):
    back = seg.reversed()
    assert type(back) is type(seg) and back.length == seg.length
    for s in (0.0, 0.2, 0.5, 1.0):
        assert abs(back.point(s) - seg.point(1.0 - s)) < 1e-14
    again = back.reversed()
    if isinstance(seg, Line):
        assert again == seg
    else:  # angle0 + sweep - sweep may round
        assert (again.center, again.radius, again.sweep) \
            == (seg.center, seg.radius, seg.sweep)
        assert again.angle0 == pytest.approx(seg.angle0, abs=1e-15)


@pytest.mark.parametrize("seg", SEGMENTS + [
    Arc(0.0, 3.0, 0.0, -2 * np.pi), Arc(2.0 - 1j, 2.0, 1.0, 0.01)])
def test_chord_step_gives_a_chord_of_that_length(seg):
    # r up to an arc's diameter, the cap
    top = 2 * seg.radius if isinstance(seg, Arc) else seg.length
    for s in (0.0, 0.3, 0.9):
        for r in (1e-4 * top, 0.1 * top, 0.7 * top, top):
            step = seg.chord_step(r)
            assert step > 0
            assert abs(abs(seg.point(s + step) - seg.point(s)) - r) < 1e-14
    if isinstance(seg, Arc):
        # a longer chord than a diameter is a half turn: a diameter
        assert seg.chord_step(3 * top) == seg.chord_step(top) \
            == pytest.approx(np.pi / abs(seg.sweep), rel=1e-15)


@pytest.mark.parametrize("seg", SEGMENTS)
def test_pullback_is_the_chart_velocity_times_the_rhs(seg):
    # rhs (1, z) pulls back to (z'(s), z'(s) z(s)): the central
    # differences of z(s) and of z(s)**2 / 2
    f = seg.pullback(lambda z, y: [1.0, z])
    h = 1e-5
    for s in (0.0, 0.4, 1.0):
        got = f(s, np.zeros(2, dtype=complex))
        lo, hi = seg.point(s - h), seg.point(s + h)
        want = [(hi - lo) / (2 * h), (hi * hi - lo * lo) / (4 * h)]
        assert np.allclose(got, want, rtol=1e-8, atol=0)


def test_integrate_time_moves_one_time():
    traj = integrate_time(lambda z, y: y, np.array([1.0 + 0j]),
                          (2.0, 3.0 + 1j), 1, 2.5, rel_tol=1e-11,
                          samples=[0.5])
    assert traj.params == [0.0, 0.5, 1.0]
    assert abs(traj.end_state[0] - np.exp(0.5)) < 1e-9
    with pytest.raises(ValueError):
        integrate_time(lambda z, y: y, [1.0], (2.0, 3.0), 0, 2.5)
    with pytest.raises(ValueError):
        integrate_time(lambda z, y: y, [1.0], (2.0, 3.0), 3, 2.5)
    # the leg of t_1 would pass through t_2
    with pytest.raises(PathMarginError):
        integrate_time(lambda z, y: y, [1.0], (2.0, 3.0), 1, 4.0)


def test_step_budget_stops_a_stiff_segment(monkeypatch):
    monkeypatch.setattr(integrator, "MAX_SEGMENT_STEPS", 200)
    path = ComplexPath.polyline([0.0, 1.0, 2.0])
    with pytest.raises(StepBudgetError,
                       match=r"on segment 1 \(length 1\) at s="):
        # stiff on the second segment only: explicit steps must stay ~1e-6
        integrate(lambda z, y: (-1e6 if z.real > 1 else 1.0) * y,
                  np.array([1.0 + 0j]), path)


def test_step_errors_report_the_state_modulus(monkeypatch):
    # y' = y^2 from y(0) = 1 blows up at z = 1
    with pytest.raises(StepUnderflowError,
                       match=r"\(length 2\) at s=.*, h=.*, \|y\|="):
        integrate(lambda z, y: y * y, np.array([1.0 + 0j]),
                  ComplexPath.polyline([0.0, 2.0]))
    monkeypatch.setattr(integrator, "MAX_SEGMENT_STEPS", 20)
    with pytest.raises(StepBudgetError, match=r", \|y\|=[0-9.]+$"):
        integrate(lambda z, y: -1e6 * y, np.array([1.5 + 0j]),
                  ComplexPath.polyline([0.0, 1.0]))
    # an arc's length is its radius times its sweep, whichever the sense
    with pytest.raises(StepBudgetError, match=r"\(length 3\.14\)"):
        integrate(lambda z, y: -1e6 * y, np.array([1.5 + 0j]),
                  ComplexPath((Arc(0j, 1.0, 0.0, -np.pi),)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_rhs_ends_in_a_typed_error(bad, monkeypatch):
    # past z = 0.5 every step fails, until the step underflows or the
    # segment's budget runs out
    def rhs(z, y):
        return np.full_like(y, bad) if z.real > 0.5 else 1j * y

    path = ComplexPath.polyline([0.0, 1.0])
    with np.errstate(invalid="ignore"):
        with pytest.raises(StepUnderflowError, match=r"at s=0\.5"):
            integrate(rhs, np.array([1.0 + 0j]), path)
        monkeypatch.setattr(integrator, "MAX_SEGMENT_STEPS", 10)
        with pytest.raises(StepBudgetError, match=r"at s=0\.[0-5]"):
            integrate(rhs, np.array([1.0 + 0j]), path)


def _inline_error_norm(u):
    """The stepper's error norm as once written inline, on numpy scalars."""
    e5, e3 = u[0] @ u[0], u[1] @ u[1]
    deno = e5 + 0.01 * e3
    return e5 / math.sqrt(u.shape[1] * deno) if deno != 0 else 0.0


def test_error_norm_is_a_float_with_the_inline_bits():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        u = np.abs(rng.normal(size=(2, n))) * 10.0 ** rng.uniform(-20, 20,
                                                                 (2, 1))
        got = integrator._error_norm(u)
        assert type(got) is float and got == _inline_error_norm(u)
    assert integrator._error_norm(np.zeros((2, 3))) == 0.0


@pytest.mark.parametrize("u", [
    [[1e-3, 1e-3], [1e160, 0.0]],    # e3 alone overflows: once read 0.0
    [[1.1e154, 0.0], [0.0, 0.0]],    # n (e5 + 0.01 e3) overflows: 0.0
    [[1e160, 0.0], [1.0, 0.0]],      # e5 overflows
    [[math.nan, 0.0], [1.0, 0.0]],
    [[1.0, 0.0], [math.inf, 0.0]],
], ids=["e3-overflow", "product-overflow", "e5-overflow", "nan", "inf"])
def test_error_norm_fails_a_step_whose_estimates_are_not_finite(u):
    with np.errstate(over="ignore"):
        assert integrator._error_norm(np.array(u)) == math.inf


def test_stepper_hands_the_rhs_python_scalars():
    # the step bookkeeping stays in Python floats: numpy's float64 once
    # leaked from the error norm into every stage abscissa and chart point
    sid = "21,21,21,21,111"
    rng = rng_from_seed(5)
    par = sample_params(sid, rng, generic=True)
    st = sample_state(sid, rng, times=(1.7 + 0.6j, -0.8 + 0.5j))
    rhs = catalog.flow_rhs(sid, 1, par, st.t)
    seen = set()

    def recorded(z, y):
        seen.add(type(z))
        return rhs(z, y)

    t0 = st.t[0]
    path = ComplexPath((Line(t0, t0 + 0.1), Arc(t0, 0.1, 0.0, 0.5)))
    traj = integrate(recorded, np.array(st.q + st.p), path, rel_tol=1e-10,
                     samples=[0.3, 0.7, 1.2, 1.9])
    assert traj.n_steps > 2 * 2
    assert seen == {complex}
    assert {type(p) for p in traj.params} == {float}


def test_trajectory_counts_stage_values_and_step_range():
    path = ComplexPath.polyline([0.0, 1.0, 3.0])
    for samples, held in (([], 0), ([1.5], 1),
                          # a cluster inside one step costs one extension
                          ([1.5 + k * 2**-13 for k in range(5)], 1),
                          ([0.5, 1.5], 2)):
        traj = integrate(lambda z, y: 1j * y, np.array([1.0 + 0j]), path,
                         rel_tol=1e-10, samples=samples)
        tries = traj.n_steps + traj.n_rejected
        # per segment the first stage and the starting-step probe, then
        # twelve stages per step tried, and three per step holding a stop
        assert traj.n_rhs_evals == 2 * 2 + 12 * tries + 3 * held
        # the stops run from the start of the path to its end
        assert traj.params == [0.0] + sorted(samples + [1.0, 2.0])
    empty = integrate(lambda z, y: y, [1.0], ComplexPath(()))
    assert empty.params == [0.0] and empty.n_steps == 0


def test_stops_are_recorded_at_exactly_their_parameters():
    # s + (stop - s) rounds one ulp below this stop: a stepper that landed
    # on it would take a next step of h ~ 1e-16 and raise
    # StepUnderflowError
    s1, s2 = 0.013430708616347542, 0.808951245655351
    traj = integrate(lambda z, y: 0 * y, np.array([1 + 0j]),
                     ComplexPath.polyline([0.0, 1 + 1j]), rel_tol=1e-6,
                     samples=[s1, s2])
    assert traj.params == [0, s1, s2, 1]


def test_one_step_is_the_dormand_prince_stability_polynomial():
    # a step of y' = z y from 1 over the unit segment returns R(z), the
    # 8th-order solution's stability polynomial: the Taylor terms of
    # exp(z) through z**8 plus the pinned z**9 ... z**12 coefficients of
    # the tableau.  At these tolerances, with |z| = 1, the starting step
    # is the whole segment.  Each of the 58 nonzero stage weights enters
    # R (a change of 1e-9 in one moves the result by over 2e-14); the
    # error weights do not, and the pinned step counts cover them
    z = 0.8 + 0.6j
    traj = integrate(lambda x, y: z * y, np.array([1 + 0j]),
                     ComplexPath.polyline([0.0, 1.0]), rel_tol=1e3,
                     abs_tol=1e3)
    assert traj.n_steps == 1 and traj.params == [0.0, 1.0]
    tail = (2.691692200169089e-06, 2.3413451082097797e-07,
            1.4947364854591547e-08, 3.613324578128244e-10)
    want = sum(z**k / math.factorial(k) for k in range(9)) \
        + sum(c * z**k for k, c in enumerate(tail, start=9))
    assert abs(traj.end_state[0] - want) <= 4e-15 * abs(want)


LAM = 0.7 - 0.3j


def _cos_rhs(z, y):
    """y' = LAM cos(z) y, whose solution is exp(LAM sin z) up to a factor."""
    return LAM * np.cos(z) * y


def test_an_over_accurate_step_does_not_shrink_the_next():
    # y' = i y along [0, 0.5]: the starting step's error norm is rounding
    # noise (about 7e-10).  The controller remembers at least 1e-4, as
    # dop853.f's FACOLD, so that noise does not shrink the next step
    seen = []

    def rhs(z, y):
        seen.append((z.real / 0.5, y.copy()))  # the chart parameter s
        return 1j * y

    traj = integrate(rhs, np.array([1.0 + 0j]),
                     ComplexPath((Line(0j, 0.5 + 0j),)), rel_tol=1e-10,
                     abs_tol=1e-13)
    assert traj.n_rejected == 0
    # after K[0] and the starting-step probe, twelve stages per step:
    # stage 1 at s + c_1 h, stage 12 at s + h with the step's new state
    s, y, hs, norms = 0.0, seen[0][1], [], []
    for i in range(2, len(seen), 12):
        (s1, _), *_, (s12, y8) = stages = seen[i:i + 12]
        h = s12 - s
        assert s1 == pytest.approx(s + integrator._DP_C[1] * h, abs=1e-15)
        # the step's error norm, recomputed from the stage states
        K = 0.5j * np.array([y] + [yk for _, yk in stages[:11]])
        u = np.abs(h * integrator._DP_E @ K) / (
            1e-13 + 1e-10 * np.maximum(np.abs(y), np.abs(y8)))
        e5, e3 = u[0] @ u[0], u[1] @ u[1]
        hs.append(h)
        norms.append(e5 / math.sqrt(e5 + 0.01 * e3))
        s, y = s12, y8
    assert s == 1.0 and len(hs) == traj.n_steps and max(norms) <= 1.0
    for k in range(1, len(hs)):
        # a step grows by 6 at most
        assert hs[k] <= 6 * hs[k - 1] * (1 + 1e-12)
        # one with an error norm below 1e-3 is not followed by a shorter
        # one, but for the last, clipped to land on the segment's end
        if norms[k - 1] < 1e-3 and k < len(hs) - 1:
            assert hs[k] >= hs[k - 1] * (1 - 1e-12)
    # without the error floor the controller takes 6 steps here
    assert traj.n_steps == 5


def test_stops_do_not_steer_the_steps():
    # five stops 2**-13 apart cost no step: the run with them takes the
    # steps of the run without, and ends on the same bits
    path = ComplexPath.polyline([0.0, 1.2 + 0.5j])
    cluster = [0.5 + k * 2**-13 for k in range(5)]
    plain, clustered = (
        integrate(_cos_rhs, np.array([1.0 + 0j]), path, rel_tol=1e-10,
                  samples=samples)
        for samples in ((), cluster))
    assert clustered.params[1:6] == cluster
    assert (clustered.n_steps, clustered.n_rejected) == (plain.n_steps,
                                                         plain.n_rejected)
    assert clustered.n_rhs_evals == plain.n_rhs_evals + 3
    assert clustered.end_state.tobytes() == plain.end_state.tobytes()


@pytest.mark.parametrize("seg", [Line(0.0, 1.2 + 0.5j),
                                 Arc(0.5j, 1.5, 0.3, 2.0)],
                         ids=["line", "arc"])
def test_dense_output_matches_the_closed_form(seg):
    rel_tol = 1e-10
    stops = list(np.linspace(0.02, 0.98, 25))
    traj = integrate(_cos_rhs, np.array([1.0 + 0j]), ComplexPath((seg,)),
                     rel_tol=rel_tol, samples=stops)
    assert traj.params == [0.0] + stops + [1.0]
    # some stops are read inside a step
    assert traj.n_rhs_evals > 2 + 12 * (traj.n_steps + traj.n_rejected)
    z = np.array([seg.point(s) for s in traj.params])
    exact = np.exp(LAM * (np.sin(z) - np.sin(seg.point(0.0))))
    got = np.array(traj.states)[:, 0]
    assert np.max(np.abs(got - exact) / np.abs(exact)) < rel_tol


def test_stop_at_a_step_end_takes_its_state():
    # the last stage of a step is evaluated at its end, on its 8th-order
    # state: record the (z, y) of every rhs call, without stops
    calls = []

    def rhs(z, y):
        calls.append((z, y.copy()))
        return _cos_rhs(z, y)

    path = ComplexPath.polyline([0.0, 1.2])  # z is the chart parameter
    plain = integrate(rhs, np.array([1.0 + 0j]), path, rel_tol=1e-10)
    assert plain.n_rejected == 0 and plain.n_steps > 3
    # after the first stage and the probe, twelve calls per step
    ends = [calls[2 + 12 * m + 11] for m in range(plain.n_steps - 1)]
    z_end, y_end = ends[2]
    stop = z_end.real / 1.2
    assert path.segments[0].point(stop) == z_end
    traj = integrate(_cos_rhs, np.array([1.0 + 0j]), path, rel_tol=1e-10,
                     samples=[stop])
    assert traj.params == [0.0, stop, 1.0]
    assert traj.states[1].tobytes() == y_end.tobytes()
    assert traj.n_rhs_evals == plain.n_rhs_evals  # no extension needed


def test_dense_output_tables_are_scipys():
    coefficients = pytest.importorskip(
        "scipy.integrate._ivp.dop853_coefficients")
    assert np.array_equal(integrator._DP_W[13:16].real, coefficients.A[13:16])
    assert not integrator._DP_W.imag.any()
    assert integrator._DP_C[13:16] == tuple(coefficients.C[13:16])
    assert np.array_equal(integrator._DP_D, coefficients.D)


@pytest.mark.parametrize("bad", [5.0, float("nan"), -1.0, 1.0 + 1e-12,
                                 -1e-300])
def test_bad_samples_raise(bad):
    path = ComplexPath.polyline([0.0, 1.0])
    with pytest.raises(ValueError, match=r"outside the path's parameter "
                                         r"range \[0, 1\]"):
        integrate(lambda z, y: y, np.array([1.0 + 0j]), path,
                  samples=[0.5, bad])
    # 0 and the path's end are in range: both are recorded points already
    traj = integrate(lambda z, y: y, np.array([1.0 + 0j]), path,
                     samples=[0.0, 0.5, 1.0])
    assert traj.params == [0.0, 0.5, 1.0]


def test_samples_may_be_an_array():
    traj = integrate(lambda z, y: y, np.array([1.0 + 0j]),
                     ComplexPath.polyline([0.0, 1.0]),
                     samples=np.array([0.75, 0.25]))
    assert traj.params == [0.0, 0.25, 0.75, 1.0]


@pytest.mark.parametrize("rhs,y0", [
    (lambda z, y: 0 * y, 1.0),
    (lambda z, y: 2 * y, 0.0),
], ids=["zero-rhs", "zero-state"])
def test_flat_rhs_takes_one_step_per_segment(rhs, y0):
    traj = integrate(rhs, np.array([y0 + 0j]),
                     ComplexPath.polyline([0.0, 1.0, 3.0, 3.0 + 1j]))
    assert traj.n_steps == 3 and traj.n_rejected == 0
    assert traj.n_rhs_evals == 3 * 2 + 12 * 3
    assert traj.end_state[0] == y0


@pytest.mark.parametrize("f,y", [
    (lambda s, y: y + 1, [0.0, 0.0]),
    # a huge segment: f0 overflows, then so does the probe
    (lambda s, y: 1e200 * y + 1e300 * s, [1.0, 0.5j]),
    (lambda s, y: np.full_like(y, np.inf), [1.0, 0.5j]),
    (lambda s, y: np.full_like(y, np.nan), [1.0, 0.5j]),
    (lambda s, y: 1e300 * y / (s + 1e-300), [1.0, 0.5j]),
], ids=["zero-state", "huge", "infinite", "nan", "overflowing-probe"])
def test_starting_step_is_finite_and_positive(f, y):
    y = np.array(y, dtype=complex)
    with np.errstate(all="ignore"):
        h = integrator._first_step(f, y, f(0.0, y), 1e-10, 1e-13)
    assert math.isfinite(h) and 0 < h <= 1


def test_degenerate_arc_rejected():
    with pytest.raises(ValueError):
        Arc(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Arc(0.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("center, radius, angle0, sweep", [
    (0j, math.nan, 0.0, 1.0), (0j, math.inf, 0.0, 1.0),
    (0j, 1.0, 0.0, math.nan), (0j, 1.0, 0.0, math.inf),
    (0j, 1.0, math.nan, 1.0), (0j, 1.0, -math.inf, 1.0),
    (complex(math.nan, 0.0), 1.0, 0.0, 1.0),
    (complex(0.0, math.inf), 1.0, 0.0, 1.0),
], ids=["nan-radius", "inf-radius", "nan-sweep", "inf-sweep", "nan-angle0",
        "inf-angle0", "nan-center", "inf-center"])
def test_non_finite_arc_rejected(center, radius, angle0, sweep):
    # NaN <= 0 is false: a NaN must not pass the degenerate-arc check
    with pytest.raises(ValueError, match="degenerate arc"):
        Arc(center, radius, angle0, sweep)


@pytest.mark.parametrize("path", [
    lambda: ComplexPath((Line(0j, complex(math.nan, 0.0)),)),
    lambda: ComplexPath((Line(complex(0.0, math.nan), 1.0),)),
    lambda: ComplexPath.polyline([0, complex(math.inf, 0.0)]),
    lambda: ComplexPath.polyline([complex(0.0, -math.inf), 1.0]),
], ids=["nan-end", "nan-start", "inf-end", "inf-start"])
def test_non_finite_line_rejected(path):
    # else the path builds, and integrate along it ends in a misleading
    # StepUnderflowError on a segment of length nan or inf
    with pytest.raises(ValueError, match="non-finite line"):
        path()


def test_zero_length_two_time_returns_input():
    sid = "11,11,11,11,11"
    rng = rng_from_seed(2)
    par = sample_params(sid, rng)
    st = sample_state(sid, rng, times=(1.8 + 0.6j, -0.9 + 0.4j))
    out = integrate_two_time(sid, par, st, 1, st.t[0], 2, st.t[1])
    assert out.q == st.q and out.p == st.p and out.t == st.t


@pytest.mark.parametrize("sid", ["11,11,11,11,11", "21,21,21,21,111"])
def test_two_time_path_order_independence(sid):
    rng = rng_from_seed(3)
    par = sample_params(sid, rng, generic=True)
    st = sample_state(sid, rng, times=(1.8 + 0.6j, -0.9 + 0.4j))
    st = PhaseState(tuple(0.4 * z for z in st.q),
                    tuple(0.4 * z for z in st.p), st.t)
    ta, tb = st.t[0] + 0.2, st.t[1] + 0.2
    a = integrate_two_time(sid, par, st, 1, ta, 2, tb, rel_tol=1e-9)
    b = integrate_two_time(sid, par, st, 2, tb, 1, ta, rel_tol=1e-9)
    assert max(abs(np.array(a.q + a.p) - np.array(b.q + b.p))) < 1e-6


def test_csv_export_layout():
    path = ComplexPath.polyline([0.0, 1.0])
    traj = integrate(lambda z, y: 0 * y, np.array([1.0 + 2.0j, -1.0 + 0j]),
                     path, rel_tol=1e-8, samples=[0.5])
    buf = io.StringIO()
    trajectory_to_csv(traj, buf, component_names=["a", "b"])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "path_parameter,re_a,im_a,re_b,im_b"
    assert len(lines) == 1 + len(traj.params)
    assert [float(x) for x in lines[1].split(",")] == [0.0, 1.0, 2.0, -1.0, 0.0]
    params = [float(l.split(",")[0]) for l in lines[1:]]
    assert params == sorted(params)
    assert 0.5 in params
