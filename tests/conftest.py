"""Fixtures shared across test modules."""

import pytest

from painlab import verify


@pytest.fixture(scope="session")
def all_results():
    """Every check's result at the default seed, by check name: one run of
    the suite for the acceptance battery and the verify tests."""
    return {r["name"]: r for r in verify.run_checks(list(verify.CHECKS),
                                                    seed=verify.DEFAULT_SEED)}
