"""Reductions between catalog systems: residuals and invariance."""

import pytest

from painlab.degenerations import RULES, check_rule
from painlab.sampling import rng_from_seed


@pytest.mark.parametrize("label", list(RULES))
def test_rule(label):
    rule = RULES[label]
    rng = rng_from_seed(sum(map(ord, label)))
    h, tang = check_rule(rule, 20, rng)
    assert h < 1e-10, f"{label}: hamiltonian residual {h}"
    assert tang < 1e-10, f"{label}: tangency residual {tang}"


def test_rule_count():
    assert len(RULES) == 7
