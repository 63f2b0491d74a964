"""Rigid systems: matrices, schemes, invariant manifolds, lifts."""

import dataclasses

import numpy as np
import pytest

from painlab.catalog import PhaseState, full_params, lookup
from painlab.fuchsian import LinearRhs, accessory_count
from painlab.integrator import Arc, ComplexPath, Line, integrate
from painlab.rigid import (RIGID_CASES, build_rigid_matrices,
                           constraint_flow_drift, lift_residuals,
                           lift_solution, rigid_rhs, riemann_scheme_columns)
from painlab.sampling import (rng_from_seed, sample_params, sample_state,
                              tied_params)
from painlab.verify import constrained_rigid_params

TIMES2 = (1.7 + 0.6j, -0.8 + 0.5j)
TIMES1 = (1.7 + 0.6j,)


def times_for(case):
    return TIMES2 if case.n_times == 2 else TIMES1


def chain_residual(case, merged, st):
    """Largest violation of the case's constraint chain at a state."""
    return max([abs(g(st.q, st.p, st.t, merged)) for g in case.constraints]
               + [abs(case.parameter_constraint(merged))])


def test_every_rigid_type_has_zero_accessory_count():
    for case in RIGID_CASES.values():
        assert accessory_count(case.spectral_type) == 0


def test_constraint_violation_rejected():
    rng = rng_from_seed(1)
    case = RIGID_CASES["case-3131"]
    par = sample_params(case.parent, rng, generic=True)  # alpha1 != 0
    with pytest.raises(ValueError):
        build_rigid_matrices(case, par)


def test_nan_constraint_residual_rejected():
    # NaN > tol is false: a NaN residual must not read as satisfied
    case = dataclasses.replace(RIGID_CASES["case-3131"],
                               parameter_constraint=lambda par: np.nan)
    par = constrained_rigid_params(RIGID_CASES["case-3131"], rng_from_seed(1))
    with pytest.raises(ValueError, match="parameter constraint violated"):
        build_rigid_matrices(case, par)


def test_swap_conjugation_between_the_two_times():
    rng = rng_from_seed(2)
    case = RIGID_CASES["case-3131"]
    par = constrained_rigid_params(case, rng)
    (mt1, m11, m01), (mt2, m12, m02) = build_rigid_matrices(case, par)
    E = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
    for a, b in ((mt1, mt2), (m11, m12), (m01, m02)):
        assert np.max(np.abs(E @ a @ E - b)) == 0


def test_one_time_case_exponent_columns():
    rng = rng_from_seed(3)
    case = RIGID_CASES["case-21-111"]
    par = constrained_rigid_params(case, rng)
    merged = full_params(case.parent, par)
    ((M1, M0),) = build_rigid_matrices(case, par)
    a1, a2, a3, a4, a5 = (merged["alpha1"], merged["alpha2"],
                          merged["alpha3"], merged["alpha4"],
                          merged["alpha5"])
    th21 = merged["theta21"]
    want0 = sorted([a4 + a5 - 1, -a2 - a3, 0, 0], key=lambda z: abs(z))
    got0 = sorted(np.linalg.eigvals(M0), key=lambda z: abs(z))
    assert max(abs(a - complex(b)) for a, b in zip(got0, want0)) < 1e-10
    Minf = -(M1 + M0)
    want_inf = [-a4 + 1, a1 + a2 + a3 - th21, a3, a3]
    got_inf = list(np.linalg.eigvals(Minf))
    for w in want_inf:
        j = int(np.argmin([abs(g - complex(w)) for g in got_inf]))
        assert abs(got_inf.pop(j) - complex(w)) < 1e-9


@pytest.mark.parametrize("cid", list(RIGID_CASES))
def test_printed_scheme_matches_eigenvalues(cid):
    rng = rng_from_seed(4)
    case = RIGID_CASES[cid]
    for _ in range(5):
        par = constrained_rigid_params(case, rng)
        mats = build_rigid_matrices(case, par)
        cols = riemann_scheme_columns(case, par)
        for mset, colset in zip(mats, cols):
            for M, want in zip(list(mset) + [-sum(mset)], colset):
                got = list(np.linalg.eigvals(M))
                for w in want:
                    j = int(np.argmin([abs(g - complex(w)) for g in got]))
                    assert abs(got.pop(j) - complex(w)) < 1e-9


@pytest.mark.parametrize("cid", list(RIGID_CASES))
def test_manifold_membership_and_tangency(cid):
    rng = rng_from_seed(5)
    case = RIGID_CASES[cid]
    par = constrained_rigid_params(case, rng)
    merged = full_params(case.parent, par)
    st = case.manifold_state(rng, merged, times_for(case))
    assert chain_residual(case, merged, st) < 1e-12
    generic = sample_state(case.parent, rng, times=times_for(case))
    assert chain_residual(case, merged, generic) > 1e-3
    assert constraint_flow_drift(case, par, st) < 1e-9


@pytest.mark.parametrize("part, bad", [("p", np.nan), ("q", np.inf)])
def test_non_finite_state_gives_a_nan_drift(part, bad):
    # a fold with max would drop the NaN rates and read 0.0, a pass
    rng = rng_from_seed(5)
    case = RIGID_CASES["case-3131"]
    par = constrained_rigid_params(case, rng)
    st = case.manifold_state(rng, full_params(case.parent, par), TIMES2)
    st = dataclasses.replace(st, **{part: (bad,) + getattr(st, part)[1:]})
    assert np.isnan(constraint_flow_drift(case, par, st))


def test_case_3122_manifold_not_invariant_documented():
    # The published display puts this manifold at q1*p1 = +alpha1, which
    # is not invariant under the parent flow; q1*p1 = -alpha1 is.  Check
    # both, so that a regression to the published sign is caught.
    from dataclasses import replace

    rng = rng_from_seed(6)
    case = RIGID_CASES["case-3122"]
    par = constrained_rigid_params(case, rng)
    merged = full_params(case.parent, par)
    st = case.manifold_state(rng, merged, TIMES1)
    assert constraint_flow_drift(case, par, st) < 1e-9

    published = replace(case, constraints=(
        lambda q, p, t, par: q[0] * p[0] - par["alpha1"],)
        + case.constraints[1:])
    st_pub = PhaseState((merged["alpha1"] / st.p[0], 0.0, 0.0), st.p,
                        TIMES1)
    assert chain_residual(published, merged, st_pub) < 1e-12
    assert constraint_flow_drift(published, par, st_pub) > 1e-3


@pytest.mark.parametrize("cid", ["case-21x4", "case-3131", "case-21-111",
                                 "case-3122"])
def test_lift_satisfies_parent_field(cid):
    from painlab.integrator import integrate_time

    rng = rng_from_seed(7)
    case = RIGID_CASES[cid]
    par = constrained_rigid_params(case, rng)
    times = times_for(case)
    other = times[1:]
    t0, t1 = times[0], times[0] + 0.25
    rhs = rigid_rhs(case, par, 1, other)
    traj = integrate_time(rhs, np.array([1.0, 0.1, 0.1, 0.1], dtype=complex),
                          times, 1, t1, rel_tol=1e-11, abs_tol=1e-14,
                          samples=[0.4, 0.8])
    for s, y in zip(traj.params, traj.states):
        tcur = (t0 + s * (t1 - t0),) + tuple(other)
        field, pfaff = lift_residuals(case, par, rhs, y, tcur)
        assert field < 1e-6
        assert pfaff < 1e-7


def test_lift_direct_readoff_of_positions():
    rng = rng_from_seed(8)
    case = RIGID_CASES["case-21-111"]
    par = constrained_rigid_params(case, rng)
    y = np.array([1.0, 0.2 - 0.1j, -0.3 + 0.2j, 0.15], dtype=complex)
    st = lift_solution(case, par, [y], [TIMES1])[0]
    tt = TIMES1[0]
    assert st.q == (tt * y[1] / y[0], tt * y[2] / y[0], y[3] / y[0])
    assert st.p == (0.0, 0.0, 0.0)


def test_lift_fails_cleanly_when_y0_vanishes():
    rng = rng_from_seed(9)
    case = RIGID_CASES["case-21-111"]
    par = constrained_rigid_params(case, rng)
    y = np.array([0.0, 0.2, -0.3, 0.15], dtype=complex)
    with pytest.raises(ZeroDivisionError):
        lift_solution(case, par, [y], [TIMES1])


def test_lift_fails_on_a_nan_y0_and_names_the_sample():
    rng = rng_from_seed(9)
    case = RIGID_CASES["case-21-111"]
    par = constrained_rigid_params(case, rng)
    good = np.array([1.0, 0.1, 0.1, 0.1], dtype=complex)
    bad = np.array([np.nan, 0.1, 0.1, 0.1], dtype=complex)
    with pytest.raises(ZeroDivisionError, match="sample 1 "):
        lift_solution(case, par, [good, bad], [TIMES1, TIMES1])


@pytest.mark.parametrize("cid, y", [
    ("case-21x4", np.array([1.0, 0.0, 0.1, 0.1], dtype=complex)),
    ("case-3122", np.array([1.0, 0.0, 0.1, 0.1], dtype=complex)),
    # Python scalars divide by zero with an error, not an inf
    ("case-21x4", (1.0 + 0j, 0j, 0.1 + 0j, 0.1 + 0j)),
], ids=["21x4-numpy", "3122-numpy", "21x4-python"])
def test_lift_fails_on_a_vanishing_y1_and_names_the_sample(cid, y):
    # both lifts divide by y1 too: numpy's scalars once returned
    # p = (inf+nanj, 0j, -inf+nanj), and the drift read NaN
    case = RIGID_CASES[cid]
    par = constrained_rigid_params(case, rng_from_seed(9))
    t = times_for(case)
    good = np.array([1.0, 0.1, 0.1, 0.1], dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(ZeroDivisionError, match="at sample 1 "):
        lift_solution(case, par, [good, y], [t, t])


@pytest.mark.parametrize("cid, i, other", [
    ("case-3131", 0, TIMES2[1:]),     # once built the time-2 leg silently
    ("case-3131", 3, TIMES2[1:]),
    ("case-3131", 1, ()),             # once failed at the first call
    ("case-3131", 1, TIMES2),
    ("case-21-111", 1, TIMES2[1:]),   # once ignored the extra time
    ("case-21-111", 2, ()),
])
def test_rigid_rhs_checks_time_index_and_other_times(cid, i, other):
    case = RIGID_CASES[cid]
    par = constrained_rigid_params(case, rng_from_seed(5))
    with pytest.raises(ValueError, match=cid):
        rigid_rhs(case, par, i, other)


@pytest.mark.parametrize("other", [0.0, 1.0 + 1e-13, np.nan])
def test_rigid_rhs_rejects_another_time_on_a_fixed_point(other):
    case = RIGID_CASES["case-3131"]
    par = constrained_rigid_params(case, rng_from_seed(5))
    with pytest.raises(ValueError, match="finite and distinct"):
        rigid_rhs(case, par, 1, (other,))


@pytest.mark.parametrize("cid", list(RIGID_CASES))
def test_tie_satisfies_parameter_constraint(cid):
    case = RIGID_CASES[cid]
    rng = rng_from_seed(11)
    for _ in range(20):
        par = tied_params(case.parent, rng, *case.tie, generic=True)
        assert abs(lookup(case.parent).fuchs_relation(par)) < 1e-12
        merged = full_params(case.parent, par)
        assert abs(case.parameter_constraint(merged)) < 1e-12


def test_case_3122_draws_keep_eta_away_from_zero():
    # _mats_case54 divides by eta; tied draw 81 from seed 1 has eta = 0
    case = RIGID_CASES["case-3122"]
    assert not case.admissible({"eta": 0j})
    rng = rng_from_seed(1)
    for _ in range(90):
        par = constrained_rigid_params(case, rng)
        assert abs(full_params(case.parent, par)["eta"]) >= 0.05


# the bench's lift stops: clusters of five, 2^-13 apart, around six centres
LIFT_STOPS = tuple(c + j * 2.0 ** -13 for c in (0.15, 0.3, 0.45, 0.6, 0.75,
                                                0.9)
                   for j in range(-2, 3))


def _legs():
    """(case id, i, the leg's path) for every time of every case, plus one
    path through an arc; each leg moves t_i by 0.2 + 0.15i, the others
    frozen.  The bench moves t_1 by 0.25, a z' that scales exactly and
    so would hide the order of the stage's product."""
    for cid, case in RIGID_CASES.items():
        times = times_for(case)
        for i in range(1, case.n_times + 1):
            t0 = times[i - 1]
            others = times[:i - 1] + times[i:]
            yield pytest.param(cid, i, ComplexPath.polyline(
                [t0, t0 + 0.2 + 0.15j], singularities=[0.0, 1.0, *others]),
                id=f"{cid}-t{i}")
    t0, t2 = TIMES2
    yield pytest.param("case-21x4", 1, ComplexPath(
        (Line(t0 - 0.3, t0), Arc(t0 - 0.3, 0.3, 0.4, 2.2)),
        singularities=[0.0, 1.0, t2]), id="case-21x4-t1-arc")


@pytest.mark.parametrize("cid, i, path", _legs())
def test_linear_path_repeats_the_per_stage_path_bit_for_bit(cid, i, path):
    case = RIGID_CASES[cid]
    par = constrained_rigid_params(case, rng_from_seed(29))
    others = path.singularities[2:]
    rhs = rigid_rhs(case, par, i, others)
    assert isinstance(rhs, LinearRhs)
    coefficient = rhs.coefficient
    evals = []

    def counted(x):
        evals.append(x)
        return coefficient(x)

    rhs.coefficient = counted
    y0 = np.array([1.0, 0.1 - 0.2j, 0.15, -0.1 + 0.05j])
    samples = [k + s for k in range(len(path.segments)) for s in LIFT_STOPS]
    kwargs = dict(rel_tol=1e-11, abs_tol=1e-14, samples=samples)
    fast = integrate(rhs, y0, path, **kwargs)
    evals_fast = list(evals)
    plain = integrate(lambda z, y: rhs(z, y), y0, path, **kwargs)
    assert fast.params == plain.params
    assert [y.tobytes() for y in fast.states] \
        == [y.tobytes() for y in plain.states]
    assert (fast.n_steps, fast.n_rejected, fast.n_rhs_evals) \
        == (plain.n_steps, plain.n_rejected, plain.n_rhs_evals)
    # one evaluation per step tried, at its twelve stage points; one each
    # for a segment's first stage and its starting-step probe, and one
    # per dense stage, at a single point
    tries = fast.n_steps + fast.n_rejected
    assert len(evals_fast) == fast.n_rhs_evals - 11 * tries
    assert sum(np.shape(x) == (12, 1) for x in evals_fast) == tries
    # the plain callable takes the per-stage path: one evaluation per stage
    assert len(evals) - len(evals_fast) == plain.n_rhs_evals
