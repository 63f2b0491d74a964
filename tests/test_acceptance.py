"""Acceptance battery: every verification criterion at its pinned tolerance.

One test per criterion; each prints a single pass/fail line with the
measured residuals.  The criteria read the default-seed results of the
session fixture ``all_results`` (tests/conftest.py), which the schema
and golden tests share.  Each check takes only a seed and writes its
tolerances at its items, so each criterion pins those tolerances here:
a loosened constant fails the battery.
"""

import pytest

from painlab import verify


def _report(r):
    mark = "PASS" if r["passed"] else "FAIL"
    print(f"[acceptance] {mark} {r['name']}: {r['details']}")
    return r


def _tolerances(r):
    """{quantity: the set of tolerances its items are judged at}."""
    out = {}
    for item in r["details"]["items"]:
        out.setdefault(item["id"].rsplit("/", 1)[1], set()).add(
            item["tolerance"])
    return out


def test_criterion_1_accessory_counts(all_results):
    r = _report(all_results["counts"])
    assert r["passed"], r["details"]
    assert r["seconds"] < 1.0
    assert {item["tolerance"] for item in r["details"]["items"]} == {1}


def test_criterion_2_degenerations(all_results):
    r = _report(all_results["degeneration"])
    assert r["passed"], r["details"]
    assert r["seconds"] < 10.0
    items = r["details"]["items"]
    assert len(items) == 14  # seven rules, Hamiltonian and tangency each
    for item in items:
        assert item["residual"] < 1e-10
    assert _tolerances(r) == {"hamiltonian": {1e-10}, "tangency": {1e-10}}


def test_criterion_3_flow_compatibility(all_results):
    r = _report(all_results["compat"])
    assert r["passed"], r["details"]
    assert r["seconds"] < 120.0
    assert {i["id"] for i in r["details"]["items"]} == {
        f"{sid}/disagreement" for sid in (
            "11,11,11,11,11", "11,11,11,11,11,11", "21,21,21,21,111",
            "31,31,22,22,22")}
    assert _tolerances(r) == {"disagreement": {1e-6}}


def test_criterion_4_matrix_flow_equivalence(all_results):
    r = _report(all_results["isospectral"])
    assert r["passed"], r["details"]
    assert r["seconds"] < 60.0
    assert _tolerances(r) == {"matrix_deviation": {1e-6},
                              "eigenvalue_drift": {1e-8}}


def test_criterion_5_isomonodromy(all_results):
    r = _report(all_results["isomonodromy"])
    assert r["passed"], r["details"]
    assert r["seconds"] < 300.0
    items = {i["id"]: i["residual"] for i in r["details"]["items"]}
    for sid in ("21,21,21,21,111", "22,22,211,211"):
        assert items[f"{sid}/drift"] < 1e-5
        assert items[f"{sid}/negative_control"] > 1e-3
    assert _tolerances(r) == {"drift": {1e-5}, "negative_control": {1e-3},
                              "product_defect": {1e-9}}


def test_criterion_6_rigid_riemann_schemes(all_results):
    r = _report(all_results["riemann-schemes"])
    assert r["passed"], r["details"]
    assert r["seconds"] < 30.0
    assert _tolerances(r) == {"scheme_residual": {1e-9},
                              "accessory_count": {1},
                              "two_time_disagreement": {1e-7}}


def test_criterion_7_particular_solutions(all_results):
    # Faithful implementation of the stated criterion: every lift case must
    # satisfy its parent field and the printed log-derivative rule.
    r = _report(all_results["particular"])
    assert r["seconds"] < 60.0
    assert r["passed"], r["details"]
    assert _tolerances(r) == {"field_residual": {1e-6},
                              "pfaff_residual": {1e-7}}


# at 31 and 102 the 21,21,21,21,111 chart is steep enough that a
# finite-difference Jacobian reads about 3e-8 against the 1e-8 tolerance
@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 31, 102])
def test_criterion_8_symplectic_maps(all_results, seed):
    r = _report(all_results["symplectic"] if seed == verify.DEFAULT_SEED
                else verify.verify_symplectic(seed))
    assert r["passed"], r["details"]
    assert r["seconds"] < 10.0
    assert _tolerances(r) == {"form_residual": {1e-8}}


def test_criterion_9_gradient_oracle(all_results):
    r = _report(all_results["gradients"])
    assert r["passed"], r["details"]
    assert r["seconds"] < 30.0
    assert _tolerances(r) == {"relative_error": {1e-6}}
