"""Reductions between catalog systems: residuals and invariance."""

import dataclasses
import math

import pytest

from painlab.catalog import PhaseState
from painlab.degenerations import RULES, check_rule
from painlab.sampling import MAX_DRAWS, DrawBudgetError, rng_from_seed


@pytest.mark.parametrize("label", list(RULES))
def test_rule(label):
    rule = RULES[label]
    rng = rng_from_seed(sum(map(ord, label)))
    h, tang = check_rule(rule, 20, rng)
    assert h < 1e-10, f"{label}: hamiltonian residual {h}"
    assert tang < 1e-10, f"{label}: tangency residual {tang}"


def test_rule_count():
    assert len(RULES) == 7


def test_rule_that_never_samples_stops():
    def onto(rule, rng, params):
        raise ZeroDivisionError

    rule = dataclasses.replace(RULES["trace-form-merge"], onto_manifold=onto)
    with pytest.raises(RuntimeError, match=f"trace-form-merge: .* "
                       f"{MAX_DRAWS} draws") as info:
        check_rule(rule, 3, rng_from_seed(1))
    assert isinstance(info.value, DrawBudgetError)
    assert (info.value.owner, info.value.what, info.value.draws) == (
        "trace-form-merge", "admissible sample", MAX_DRAWS)


def test_rejected_sample_is_not_reported():
    # the first sample has a huge Hamiltonian residual but its tangency
    # cannot be evaluated, so it is redrawn and counts towards neither
    base = RULES["trace-form-merge"]
    calls = []

    def residual(rule_, params, state):
        calls.append(None)
        return 1e6 if len(calls) == 1 else 0.0

    def constraint(q, p, t, par):
        if len(calls) == 1:
            raise ZeroDivisionError
        return base.constraints[0](q, p, t, par)

    rule = dataclasses.replace(base, hamiltonian_residual=residual,
                               constraints=(constraint,))
    h, tang = check_rule(rule, 3, rng_from_seed(1))
    assert len(calls) == 4 and h == 0.0 and tang < 1e-10


def test_nan_residual_of_one_sample_is_reported():
    calls = []

    def residual(rule_, params, state):
        calls.append(None)
        return float("nan") if len(calls) == 2 else 1e-3

    rule = dataclasses.replace(RULES["trace-form-merge"],
                               hamiltonian_residual=residual)
    h, tang = check_rule(rule, 3, rng_from_seed(1))
    assert len(calls) == 3 and math.isnan(h) and tang < 1e-10


def test_nan_state_gives_a_nan_projection_residual():
    rule = RULES["p3-and-last-exponent-zero"]
    rng = rng_from_seed(1)
    par = rule.draw_params(rng)
    st = rule.onto_manifold(rule, rng, par)
    st = PhaseState((math.nan,) + st.q[1:], st.p, st.t)
    assert math.isnan(rule.hamiltonian_residual(rule, par, st))
