"""The benchmark's three workloads: flows, monodromy and manifolds.

A workload has three parts:

- ``make_inputs(pl, seed)`` draws its inputs (this is set-up);
- ``operations(pl, inputs)`` lists the operations of one round as
  ``(op_id, fn)`` pairs, where ``fn(results)`` may read the results of
  earlier operations of the same round;
- ``check(pl, inputs, results)`` judges every result by a route of
  :mod:`checks` and returns ``{op_id: (passed, residual)}``.

``pl`` is a namespace of painlab modules; every painlab call goes through
a module attribute, so the traced run can wrap it.

Inputs are a fixed base draw from painlab's own sampling functions at
``BASE_SEED`` (painlab's default verification seed), perturbed from
``--seed`` by at most ``JITTER`` relative.  Adaptive step counts depend
on the inputs: with fully random draws a flows round took 2.8 s to 7.5 s
over six seeds.  The perturbation varies every input while keeping the
work of a round steady.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import checks

BASE_SEED = 20260810
JITTER = 0.02
ABS_TOL = 1e-13


def jitter(z, rng, eps=JITTER):
    """z times (1 + eps u), u uniform in the unit square of C."""
    return complex(z) * (1 + eps * complex(rng.uniform(-1, 1),
                                           rng.uniform(-1, 1)))


def jitter_params(pl, sid, params, rng):
    """Perturb the free parameters and solve the trace relation again."""
    desc = pl.catalog.lookup(sid)
    rel = desc.fuchs_relation
    solve = [n for n in desc.param_names if n in rel.coeffs][-1]
    out = {n: jitter(params[n], rng) for n in desc.param_names if n != solve}
    out[solve] = rel.solve_for(solve, out)
    return out


def scaled_state(pl, state, factor, rng=None):
    """State with (q, p) scaled by ``factor`` and, given rng, perturbed."""
    def f(z):
        return factor * (z if rng is None else jitter(z, rng))

    return pl.catalog.PhaseState(tuple(f(z) for z in state.q),
                                 tuple(f(z) for z in state.p), state.t)


def line(pl, state, i, end):
    """Straight path moving t_i to ``end``; the other points are singular."""
    others = [state.t[k] for k in range(len(state.t)) if k != i - 1]
    return pl.integrator.ComplexPath.polyline(
        [state.t[i - 1], end], singularities=[0.0, 1.0] + others)


def phase_vector(state):
    return np.array(state.q + state.p, dtype=complex)


def scaled(rhs, factor):
    """rhs times ``factor``: the Hamiltonian scaled, for negative controls."""
    if factor == 1.0:
        return rhs
    return lambda z, y: factor * rhs(z, y)


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    operations: object
    check: object
    # op ids that fail every round because of a recorded program fault
    expected_failures: frozenset = frozenset()


# ---------------------------------------------------------------------------
# flows: every (system, time) Hamiltonian flow, commutation, Schlesinger
# ---------------------------------------------------------------------------

FLOW_TIMES = (1.8 + 0.6j, -0.9 + 0.4j, 0.5 + 1.3j)
FLOW_LENGTH = 0.1
FLOW_RTOL = 1e-10
FLOW_CHECK_TOL = 1e-8
COMMUTE_TOL = 1e-7
ISOSPECTRAL_TOL = 1e-8
REALIGN_TOL = 1e-6
SCHLESINGER_SID = "21,21,21,21,111"


@dataclass(frozen=True)
class FlowInput:
    sid: str
    params: dict
    state: object
    ends: tuple  # target of each time t_i, FLOW_LENGTH away


def flows_inputs(pl, seed):
    base = pl.sampling.rng_from_seed(BASE_SEED)
    rng = np.random.default_rng(seed)
    out = []
    for sid in pl.catalog.list_systems():
        n_times = pl.catalog.lookup(sid).n_times
        par = pl.sampling.sample_params(sid, base, generic=True)
        st = pl.sampling.sample_state(sid, base, times=FLOW_TIMES[:n_times])
        ends = tuple(t + FLOW_LENGTH * np.exp(2j * np.pi * base.uniform())
                     for t in st.t)
        out.append(FlowInput(sid, jitter_params(pl, sid, par, rng),
                             scaled_state(pl, st, 0.4, rng), ends))
    return out


def _flow(pl, s, i, scale=1.0):
    def op(results):
        rhs = scaled(pl.catalog.flow_rhs(s.sid, i, s.params, s.state.t), scale)
        traj = pl.integrator.integrate(
            rhs, phase_vector(s.state), line(pl, s.state, i, s.ends[i - 1]),
            rel_tol=FLOW_RTOL, abs_tol=ABS_TOL)
        return traj.end_state

    return op


def _commute(pl, s, i, j):
    def op(results):
        legs = []
        for a, b in ((i, j), (j, i)):
            end = pl.integrator.integrate_two_time(
                s.sid, s.params, s.state, a, s.ends[a - 1], b, s.ends[b - 1],
                rel_tol=FLOW_RTOL, abs_tol=ABS_TOL)
            legs.append(phase_vector(end))
        return np.array(legs)

    return op


def _schlesinger(pl, s):
    def op(results):
        sys0 = pl.parametrizations.assemble(s.sid, s.params, s.state)
        points = s.state.t + (1.0, 0.0)
        y0 = np.concatenate([a.ravel() for a in sys0.residues])
        traj = pl.integrator.integrate(
            pl.schlesinger.schlesinger_flow_rhs(points, 1), y0,
            line(pl, s.state, 1, s.ends[0]), rel_tol=FLOW_RTOL,
            abs_tol=ABS_TOL)
        size = sys0.size
        raw = [traj.end_state[k * size * size:(k + 1) * size * size]
               .reshape(size, size) for k in range(len(points))]
        realigned = pl.schlesinger.realign_to_slice(s.sid, s.params, raw)
        return np.array([list(sys0.residues), raw, realigned])

    return op


def _commute_pairs(n_times):
    return [(i, j) for i in range(1, n_times + 1)
            for j in range(i + 1, n_times + 1)]


def flows_operations(pl, inputs):
    ops = []
    for s in inputs:
        for i in range(1, len(s.state.t) + 1):
            ops.append((f"flow:{s.sid}:{i}", _flow(pl, s, i)))
    for s in inputs:
        for i, j in _commute_pairs(len(s.state.t)):
            ops.append((f"commute:{s.sid}:{i}{j}", _commute(pl, s, i, j)))
    s = next(s for s in inputs if s.sid == SCHLESINGER_SID)
    ops.append((f"schlesinger:{s.sid}", _schlesinger(pl, s)))
    return ops


def flows_check(pl, inputs, results):
    out = {}
    by_sid = {s.sid: s for s in inputs}
    for op_id, value in results.items():
        kind, sid = op_id.split(":")[:2]
        s = by_sid[sid]
        if kind == "flow":
            i = int(op_id.split(":")[2])
            ref = checks.reference_flow(pl, sid, i, s.params, s.state,
                                        s.ends[i - 1])
            gap = checks.relative_gap(value, ref)
            out[op_id] = (gap <= FLOW_CHECK_TOL, gap)
        elif kind == "commute":
            gap = checks.relative_gap(value[0], value[1])
            out[op_id] = (gap <= COMMUTE_TOL, gap)
        else:
            start, raw, realigned = value
            spread = max(checks.match_multiset(np.linalg.eigvals(b),
                                               np.linalg.eigvals(a))
                         for a, b in zip(start, raw))
            end = results[f"flow:{sid}:1"]
            n = len(s.state.q)
            st = pl.catalog.PhaseState(tuple(end[:n]), tuple(end[n:]),
                                       s.state.t).with_time(1, s.ends[0])
            ham = pl.parametrizations.assemble(sid, s.params, st).residues
            dev = max(float(np.max(np.abs(a - b)))
                      for a, b in zip(ham, realigned))
            out[op_id] = (spread <= ISOSPECTRAL_TOL and dev <= REALIGN_TOL,
                          max(spread, dev))
    return out


# ---------------------------------------------------------------------------
# monodromy: isomonodromy along the t1 flow of the assemblable systems
# ---------------------------------------------------------------------------

MONO_IDS = ("21,21,21,21,111", "31,31,22,22,22", "21,111,111,111",
            "31,22,211,1111", "22,22,211,211")
# hamiltonians.h_31_22_211_1111 does not preserve the monodromy of its
# parametrization (see the FOUND line in CHANGES.md): its drift check
# fails every round.  Its inputs do not depend on --seed.
FAULTY_MONO = "31,22,211,1111"
MONO_TIMES = (1.7 + 0.8j, -0.6 + 0.5j)
MONO_LENGTH = 0.2
MONO_RTOL = 1e-10
CONTROL_SCALE = 1.1
GENERATOR_TOL = 1e-7
PRODUCT_TOL = 1e-9
DRIFT_TOL = 1e-7
CONTROL_MIN = 1e-4


@dataclass(frozen=True)
class MonoInput:
    sid: str
    params: dict
    state: object


def monodromy_inputs(pl, seed):
    base = pl.sampling.rng_from_seed(BASE_SEED)
    rng = np.random.default_rng(seed)
    out = []
    for sid in MONO_IDS:
        n_times = pl.catalog.lookup(sid).n_times
        par = pl.sampling.sample_params(sid, base, generic=True)
        st = pl.sampling.sample_state(sid, base, times=MONO_TIMES[:n_times])
        if sid != FAULTY_MONO:
            par = jitter_params(pl, sid, par, rng)
        par = {k: 0.25 * v for k, v in par.items()}
        st = scaled_state(pl, st, 0.4, None if sid == FAULTY_MONO else rng)
        out.append(MonoInput(sid, par, st))
    return out


def _deform(pl, m, scale):
    def op(results):
        end = m.state.t[0] + MONO_LENGTH
        rhs = scaled(pl.catalog.flow_rhs(m.sid, 1, m.params, m.state.t), scale)
        traj = pl.integrator.integrate(
            rhs, phase_vector(m.state), line(pl, m.state, 1, end),
            rel_tol=MONO_RTOL, abs_tol=ABS_TOL)
        return traj.end_state

    return op


def _representation(pl, m, source):
    def op(results):
        st = m.state
        if source is not None:
            y = results[source]
            n = len(st.q)
            st = pl.catalog.PhaseState(tuple(y[:n]), tuple(y[n:]), st.t)
            st = st.with_time(1, m.state.t[0] + MONO_LENGTH)
        sys = pl.parametrizations.assemble(m.sid, m.params, st)
        rep = pl.monodromy.monodromy_representation(sys, rel_tol=MONO_RTOL)
        return {"points": np.array(sys.points),
                "residues": np.array(sys.residues),
                "generators": np.array(rep.matrices),
                "loop_points": np.array([p for p, _ in rep.loops]),
                "at_infinity": rep.at_infinity}

    return op


def monodromy_operations(pl, inputs):
    ops = []
    for m in inputs:
        ops += [
            (f"deform:{m.sid}", _deform(pl, m, 1.0)),
            (f"deform-control:{m.sid}", _deform(pl, m, CONTROL_SCALE)),
            (f"rep:{m.sid}:0", _representation(pl, m, None)),
            (f"rep:{m.sid}:1", _representation(pl, m, f"deform:{m.sid}")),
            (f"rep-control:{m.sid}",
             _representation(pl, m, f"deform-control:{m.sid}")),
        ]
    return ops


def _trace_drift(rep, ref):
    a, b = checks.invariant_traces(rep), checks.invariant_traces(ref)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def monodromy_check(pl, inputs, results):
    out = {}
    for op_id, value in results.items():
        kind, sid = op_id.split(":")[:2]
        if kind.startswith("deform"):
            # judged through the drift of the representations it feeds
            ok = bool(np.all(np.isfinite(value)))
            out[op_id] = (ok, 0.0)
            continue
        gen = checks.generator_residual(value)
        prod = checks.product_residual(value)
        ok = gen <= GENERATOR_TOL and prod <= PRODUCT_TOL
        residual = max(gen, prod)
        ref = results[f"rep:{sid}:0"]
        if kind == "rep-control":
            control = _trace_drift(value, ref)
            ok = ok and control >= CONTROL_MIN
        elif op_id.endswith(":1"):
            drift = _trace_drift(value, ref)
            ok = ok and drift <= DRIFT_TOL
            residual = max(residual, drift)
        out[op_id] = (ok, residual)
    return out


# ---------------------------------------------------------------------------
# manifolds: rigid systems, their lifts, and the degeneration rules
# ---------------------------------------------------------------------------

RIGID_TIMES = (1.7 + 0.6j, -0.8 + 0.5j)
RIGID_LENGTH = 0.25
# initial rigid vectors; no component vanishes, so every lift is defined
RIGID_Y0 = ((1.0, 0.1, 0.1, 0.1), (1.0, -0.2, 0.15, 0.1),
            (0.8, 0.1, -0.1, 0.2))
# sample stops: clusters of five, 2^-13 apart, around each centre, so the
# check can difference the lifted points without the integrator's help
STOP_SPACING = 2.0 ** -13
RIGID_STOPS = tuple(c + j * STOP_SPACING
                    for c in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
                    for j in range(-2, 3))
RIGID_RTOL = 1e-11
RIGID_ATOL = 1e-14
LIFT_TOL = 1e-8
TANGENCY_TOL = 1e-9
RULE_SAMPLES = 20
RULE_TOL = 1e-10


@dataclass(frozen=True)
class RigidInput:
    key: str
    case: object
    params: dict
    y0: np.ndarray
    times: tuple


def manifolds_inputs(pl, seed):
    base = pl.sampling.rng_from_seed(BASE_SEED)
    rng = np.random.default_rng(seed)
    lifts = []
    for case in pl.rigid.RIGID_CASES.values():
        par = pl.verify.constrained_rigid_params(case, base)
        for k, y0 in enumerate(RIGID_Y0):
            lifts.append(RigidInput(
                f"{case.case_id}:{k}", case, par,
                np.array([jitter(v, rng) for v in y0]),
                RIGID_TIMES[:case.n_times]))
    rule_seeds = [int(v) for v in
                  rng.integers(0, 2**31, len(pl.degenerations.RULES))]
    return {"lifts": lifts, "rule_seeds": rule_seeds}


def _lift(pl, r):
    def op(results):
        t0, other = r.times[0], r.times[1:]
        path = pl.integrator.ComplexPath.polyline(
            [t0, t0 + RIGID_LENGTH], singularities=[0.0, 1.0] + list(other))
        rhs = pl.rigid.rigid_rhs(r.case, r.params, 1, other)
        traj = pl.integrator.integrate(rhs, r.y0, path, rel_tol=RIGID_RTOL,
                                       abs_tol=RIGID_ATOL,
                                       samples=RIGID_STOPS)
        times = [(t0 + s * RIGID_LENGTH,) + other for s in traj.params]
        lifted = pl.rigid.lift_solution(r.case, r.params, traj.states, times)
        return {"params": np.array(traj.params),
                "lifted": np.array([st.q + st.p for st in lifted])}

    return op


def _tangency(pl, r):
    def op(results):
        lift = results[f"lift:{r.key}"]
        t0, other = r.times[0], r.times[1:]
        worst = 0.0
        for s, z in zip(lift["params"], lift["lifted"]):
            st = pl.catalog.PhaseState(tuple(z[:3]), tuple(z[3:]),
                                       (t0 + s * RIGID_LENGTH,) + other)
            worst = max(worst, pl.rigid.constraint_flow_drift(
                r.case, r.params, st))
        return np.array([worst])

    return op


def _rule(pl, rule, seed):
    def op(results):
        rng = pl.sampling.rng_from_seed(seed)
        return np.array(pl.degenerations.check_rule(rule, RULE_SAMPLES, rng))

    return op


def manifolds_operations(pl, inputs):
    ops = []
    for r in inputs["lifts"]:
        ops.append((f"lift:{r.key}", _lift(pl, r)))
        ops.append((f"tangency:{r.key}", _tangency(pl, r)))
    for (label, rule), seed in zip(pl.degenerations.RULES.items(),
                                   inputs["rule_seeds"]):
        ops.append((f"rule:{label}", _rule(pl, rule, seed)))
    return ops


def lift_residual(pl, r, lift):
    """Independent residual of one lift operation's result."""
    t0 = r.times[0]
    inner = slice(1, -1)  # drop the path's two endpoints
    return checks.lift_field_residual(
        pl, r.case.parent, r.params, lift["params"][inner],
        lift["lifted"][inner], t0, t0 + RIGID_LENGTH, r.times[1:])


def manifolds_check(pl, inputs, results):
    out = {}
    by_key = {r.key: r for r in inputs["lifts"]}
    for op_id, value in results.items():
        kind, key = op_id.split(":", 1)
        if kind == "lift":
            res = lift_residual(pl, by_key[key], value)
            out[op_id] = (res <= LIFT_TOL, res)
        elif kind == "tangency":
            out[op_id] = (float(value[0]) <= TANGENCY_TOL, float(value[0]))
        else:
            res = float(np.max(value))
            out[op_id] = (res <= RULE_TOL, res)
    return out


WORKLOADS = {
    "flows": Workload(flows_inputs, flows_operations, flows_check),
    "monodromy": Workload(monodromy_inputs, monodromy_operations,
                          monodromy_check,
                          frozenset({f"rep:{FAULTY_MONO}:1"})),
    "manifolds": Workload(manifolds_inputs, manifolds_operations,
                          manifolds_check),
}
