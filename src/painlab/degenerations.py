"""The degeneration rules between catalog systems.

Each rule pins an invariant submanifold (plus a parameter condition) of a
bigger system on which its Hamiltonians reduce to a smaller system's.
``check_rule`` reports two residuals per rule:

- the Hamiltonian residual: |H_big - H_small| under the rule's coordinate
  identification, except for the momentum-type rule (see below) where it
  is the descent residual of H_big along the gauge orbits of the reduced
  manifold (the reduction's target coordinates are not printed anywhere,
  so equality is checked at the level "H_big descends to the quotient").
- the tangency residual: |d/dt of each constraint| along the big flow.

The three trace-form systems reduce onto one another through conjugation
of their 2x2 matrix variables; the identification used here reads the
small coordinates off the conjugation invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import (PhaseState, constraint_rate, derive_alphas, eval_h,
                      full_params, lookup)
from .sampling import rational_complex, sample_params, sample_state

__all__ = ["DegenerationRule", "RULES", "check_rule"]


@dataclass(frozen=True)
class DegenerationRule:
    label: str
    big: str
    small: str
    sample_params: callable     # rng -> big params (constraints solved exactly)
    small_params: callable      # big params -> small params
    onto_manifold: callable     # rng, params, times -> PhaseState on manifold
    constraints: tuple          # g(q, p, t, par) expressions cut the manifold
    hamiltonian_residual: callable  # params, state -> float


def _project_first_pairs(sid_small):
    def resid(rule, params, state):
        small_par = rule.small_params(params)
        small_state = PhaseState(state.q[:2], state.p[:2],
                                 state.t[:lookup(sid_small).n_times])
        n_times = lookup(rule.big).n_times
        worst = 0.0
        for i in range(1, n_times + 1):
            hb = eval_h(rule.big, i, params, state)
            hs = eval_h(sid_small, i, small_par, small_state)
            worst = max(worst, abs(hb - hs))
        return worst

    return resid


def _trace_form_residual(rule, params, state):
    small_par = rule.small_params(params)
    q1, q2, q3 = state.q
    p1, p2, p3 = state.p
    qs = ((q1 + q3) / 2, -q2 - (q1 - q3) ** 2 / 4)
    ps = (-(p1 + p3), p2)
    hb = eval_h(rule.big, 1, params, state)
    hs = eval_h(rule.small, 1, small_par, PhaseState(qs, ps, state.t))
    return abs(hb - hs)


def _descent_residual(rule, params, state):
    """H_big - t(t-1)p1 must be constant along the reduction's gauge orbit."""
    q1, q2, q3 = state.q
    p1, p2, p3 = state.p
    tt = state.t[0]

    def value(lam):
        st = PhaseState((tt + lam * (q1 - tt), q2, q3 / lam),
                        (p1 / lam, p2, lam * p3), state.t)
        return eval_h(rule.big, 1, params, st) - tt * (tt - 1) * st.p[0]

    return abs(value(1.0) - value(1.45 - 0.35j))


def _alphas(big):
    def f(params):
        return derive_alphas(big, params)

    return f


def _mk_rule_1():
    big, small = "21,21,21,21,111", "11,11,11,11,11"

    def sample(rng):
        return sample_params(big, rng, fixed={"rho3": 0.0})

    def onto(rng, params, times):
        st = sample_state(big, rng, times=times)
        return PhaseState(st.q, (st.p[0], st.p[1], 0.0), st.t)

    return DegenerationRule(
        label="p3-and-last-exponent-zero", big=big, small=small,
        sample_params=sample, small_params=_alphas(big), onto_manifold=onto,
        constraints=(lambda q, p, t, par: p[2],),
        hamiltonian_residual=_project_first_pairs(small))


def _mk_rule_2():
    big, small = "31,31,22,22,22", "11,11,11,11,11"

    def sample(rng):
        par = sample_params(big, rng)
        par["theta2"] = -par["theta1"]
        par["rho2"] = -(par["theta1"] + par["theta2"] + 2 * par["theta3"]
                        + 2 * par["theta4"] + 2 * par["rho1"]) / 2
        return par

    def onto(rng, params, times):
        st = sample_state(big, rng, times=times)
        return PhaseState((st.q[0], st.q[1], 0.0), st.p, st.t)

    return DegenerationRule(
        label="q3-and-exponent-sum-zero", big=big, small=small,
        sample_params=sample, small_params=_alphas(big), onto_manifold=onto,
        constraints=(lambda q, p, t, par: q[2],),
        hamiltonian_residual=_project_first_pairs(small))


def _mk_rule_3():
    big, small = "21,111,111,111", "21,21,111,111"

    def sample(rng):
        return sample_params(big, rng, fixed={"theta21": 0.0})

    def onto(rng, params, times):
        st = sample_state(big, rng, times=times)
        return PhaseState((st.q[0], st.q[1], 0.0), st.p, st.t)

    return DegenerationRule(
        label="q3-and-first-exponent-zero", big=big, small=small,
        sample_params=sample, small_params=_alphas(big),
        onto_manifold=onto,
        constraints=(lambda q, p, t, par: q[2],),
        hamiltonian_residual=_project_first_pairs(small))


def _mk_rule_4():
    big, small = "31,22,211,1111", "21,21,111,111"

    def sample(rng):
        return sample_params(big, rng, fixed={"rho4": 0.0})

    def onto(rng, params, times):
        st = sample_state(big, rng, times=times)
        return PhaseState(st.q, (st.p[0], st.p[1], 0.0), st.t)

    return DegenerationRule(
        label="p3-and-last-exponent-zero-4dim", big=big, small=small,
        sample_params=sample, small_params=_alphas(big),
        onto_manifold=onto,
        constraints=(lambda q, p, t, par: p[2],),
        hamiltonian_residual=_project_first_pairs(small))


def _mk_rule_5():
    big, small = "31,22,211,1111", "31,22,22,1111"

    def sample(rng):
        par = sample_params(big, rng)
        par["theta32"] = par["theta31"]
        par["rho4"] = -(par["theta1"] + 2 * par["theta2"] + par["theta31"]
                        + par["theta32"] + par["rho1"] + par["rho2"]
                        + par["rho3"])
        return par

    def onto(rng, params, times):
        merged = full_params(big, params)
        st = sample_state(big, rng, times=times)
        q1, q2, _ = st.q
        p1, p2, _ = st.p
        q3 = rational_complex(rng, nonzero=True)
        p3 = ((q1 - st.t[0]) * p1 - merged["alpha2"]) / q3
        return PhaseState((q1, q2, q3), (p1, p2, p3), st.t)

    return DegenerationRule(
        label="momentum-level-reduction", big=big, small=small,
        sample_params=sample, small_params=_alphas(big),
        onto_manifold=onto,
        constraints=(lambda q, p, t, par:
                     (q[0] - t[0]) * p[0] - q[2] * p[2] - par["alpha2"],),
        hamiltonian_residual=_descent_residual)


def _mk_rule_6():
    big, small = "22,22,211,211", "22,22,22,211"

    def sample(rng):
        par = sample_params(big, rng)
        par["theta32"] = par["theta31"]
        par["rho2"] = -(2 * par["theta1"] + 2 * par["theta2"] + par["theta31"]
                        + par["theta32"] + par["rho1"] + 2 * par["rho3"])
        return par

    def onto(rng, params, times):
        st = sample_state(big, rng, times=times)
        q1, q2, q3 = st.q
        p1, p2, _ = st.p
        return PhaseState(st.q, (p1, p2, p1 - (q1 - q3) * p2), st.t)

    return DegenerationRule(
        label="trace-form-merge", big=big, small=small,
        sample_params=sample, small_params=_alphas(big), onto_manifold=onto,
        constraints=(lambda q, p, t, par:
                     p[0] - p[2] - (q[0] - q[2]) * p[1],),
        hamiltonian_residual=_trace_form_residual)


def _mk_rule_7():
    big, small = "22,22,22,1111", "22,22,22,211"

    def sample(rng):
        par = sample_params(big, rng)
        par["rho4"] = par["rho3"]
        par["rho2"] = -(2 * par["theta1"] + 2 * par["theta2"]
                        + 2 * par["theta3"] + par["rho1"] + par["rho3"]
                        + par["rho4"])
        return par

    def onto(rng, params, times):
        st = sample_state(big, rng, times=times)
        q1, q2, q3 = st.q
        p1, p2, _ = st.p
        return PhaseState(st.q, (p1, p2, p1 - (q1 - q3) * p2), st.t)

    return DegenerationRule(
        label="trace-form-merge-4dim", big=big, small=small,
        sample_params=sample, small_params=_alphas(big), onto_manifold=onto,
        constraints=(lambda q, p, t, par:
                     p[0] - p[2] - (q[0] - q[2]) * p[1],),
        hamiltonian_residual=_trace_form_residual)


RULES = {r.label: r for r in (
    _mk_rule_1(), _mk_rule_2(), _mk_rule_3(), _mk_rule_4(),
    _mk_rule_5(), _mk_rule_6(), _mk_rule_7())}


def check_rule(rule: DegenerationRule, n_samples, rng):
    """(max Hamiltonian residual, max tangency residual) over samples."""
    worst_h = worst_t = 0.0
    done = 0
    while done < n_samples:
        params = rule.sample_params(rng)
        try:
            state = rule.onto_manifold(rng, params, None)
            worst_h = max(worst_h, rule.hamiltonian_residual(rule, params, state))
            worst_t = max(worst_t, constraint_rate(rule.big, params, state,
                                                   rule.constraints))
        except (ValueError, ZeroDivisionError):
            continue
        done += 1
    return worst_h, worst_t

