"""The degeneration rules between catalog systems.

Each rule pins an invariant submanifold (plus a parameter condition) of a
bigger system on which its Hamiltonians reduce to a smaller system's;
the rules are the rows of ``RULES``.  ``check_rule`` reports two
residuals per rule:

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

from .algebra import max_residual
from .catalog import (PhaseState, constraint_rate, derive_alphas, eval_h,
                      full_params, lookup)
from .sampling import (rational_complex, redraws, sample_params,
                       sample_state, tied_params)

__all__ = ["DegenerationRule", "RULES", "check_rule"]


@dataclass(frozen=True)
class DegenerationRule:
    label: str
    big: str
    small: str
    onto_manifold: callable     # rule, rng, big params -> PhaseState on it
    constraints: tuple          # g(q, p, t, par) expressions cut the manifold
    hamiltonian_residual: callable  # rule, params, state -> float
    # the parameter condition: one parameter preset to 0 (its draw is
    # skipped), or a tie (name, par -> value, solved name) as in
    # sampling.tied_params
    zero: str | None = None
    tie: tuple | None = None

    def draw_params(self, rng):
        """Big-system parameters on which the condition holds exactly."""
        if self.tie is None:
            return sample_params(self.big, rng, fixed={self.zero: 0.0})
        return tied_params(self.big, rng, *self.tie)


def _project_first_pairs(rule, params, state):
    small_par = full_params(rule.small, derive_alphas(rule.big, params))
    small_state = PhaseState(state.q[:2], state.p[:2],
                             state.t[:lookup(rule.small).n_times])
    return max_residual([abs(eval_h(rule.big, i, params, state)
                             - eval_h(rule.small, i, small_par, small_state))
                         for i in range(1, lookup(rule.big).n_times + 1)])


def _trace_form_residual(rule, params, state):
    small_par = full_params(rule.small, derive_alphas(rule.big, params))
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


def _zero_q3(rule, rng, params):
    st = sample_state(rule.big, rng)
    return PhaseState((st.q[0], st.q[1], 0.0), st.p, st.t)


def _zero_p3(rule, rng, params):
    st = sample_state(rule.big, rng)
    return PhaseState(st.q, (st.p[0], st.p[1], 0.0), st.t)


def _momentum_level(rule, rng, params):
    st = sample_state(rule.big, rng)
    q1, q2, _ = st.q
    p1, p2, _ = st.p
    q3 = rational_complex(rng, nonzero=True)
    alpha2 = derive_alphas(rule.big, params)["alpha2"]
    p3 = ((q1 - st.t[0]) * p1 - alpha2) / q3
    return PhaseState((q1, q2, q3), (p1, p2, p3), st.t)


def _trace_merge(rule, rng, params):
    st = sample_state(rule.big, rng)
    q1, q2, q3 = st.q
    p1, p2, _ = st.p
    return PhaseState(st.q, (p1, p2, p1 - (q1 - q3) * p2), st.t)


_Q3 = (lambda q, p, t, par: q[2],)
_P3 = (lambda q, p, t, par: p[2],)
_MOMENTUM = (lambda q, p, t, par:
             (q[0] - t[0]) * p[0] - q[2] * p[2] - par["alpha2"],)
_MERGE = (lambda q, p, t, par: p[0] - p[2] - (q[0] - q[2]) * p[1],)

# verify_degeneration threads one rng through the rules in this order
RULES = {r.label: r for r in (
    DegenerationRule("p3-and-last-exponent-zero", "21,21,21,21,111",
                     "11,11,11,11,11", _zero_p3, _P3, _project_first_pairs,
                     zero="rho3"),
    DegenerationRule("q3-and-exponent-sum-zero", "31,31,22,22,22",
                     "11,11,11,11,11", _zero_q3, _Q3, _project_first_pairs,
                     tie=("theta2", lambda par: -par["theta1"], "rho2")),
    DegenerationRule("q3-and-first-exponent-zero", "21,111,111,111",
                     "21,21,111,111", _zero_q3, _Q3, _project_first_pairs,
                     zero="theta21"),
    DegenerationRule("p3-and-last-exponent-zero-4dim", "31,22,211,1111",
                     "21,21,111,111", _zero_p3, _P3, _project_first_pairs,
                     zero="rho4"),
    DegenerationRule("momentum-level-reduction", "31,22,211,1111",
                     "31,22,22,1111", _momentum_level, _MOMENTUM,
                     _descent_residual,
                     tie=("theta32", lambda par: par["theta31"], "rho4")),
    DegenerationRule("trace-form-merge", "22,22,211,211", "22,22,22,211",
                     _trace_merge, _MERGE, _trace_form_residual,
                     tie=("theta32", lambda par: par["theta31"], "rho2")),
    DegenerationRule("trace-form-merge-4dim", "22,22,22,1111",
                     "22,22,22,211", _trace_merge, _MERGE,
                     _trace_form_residual,
                     tie=("rho4", lambda par: par["rho3"], "rho2")),
)}


def check_rule(rule: DegenerationRule, n_samples, rng):
    """(max Hamiltonian residual, max tangency residual) over samples, each
    NaN if any sample's is NaN.

    A sample whose residuals cannot be evaluated is redrawn, within the
    budget of ``sampling.redraws``, and counts towards neither maximum.
    """
    hs, tangs = [], []
    for _ in range(n_samples):
        for _ in redraws(rule.label, "admissible sample"):
            params = rule.draw_params(rng)
            try:
                state = rule.onto_manifold(rule, rng, params)
                merged = full_params(rule.big, params)  # after the draws
                h = rule.hamiltonian_residual(rule, merged, state)
                tang = constraint_rate(rule.big, merged, state,
                                       rule.constraints)
            except (ValueError, ZeroDivisionError):
                continue
            break
        hs.append(h)
        tangs.append(tang)
    return max_residual(hs), max_residual(tangs)
