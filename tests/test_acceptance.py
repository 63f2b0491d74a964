"""Acceptance battery: every verification criterion at its pinned tolerance.

One test per criterion; each prints a single pass/fail line with the
measured residuals.
"""

from painlab import verify


def _report(r):
    mark = "PASS" if r["passed"] else "FAIL"
    print(f"[acceptance] {mark} {r['name']}: {r['details']}")
    return r


def test_criterion_1_accessory_counts():
    r = _report(verify.verify_counts())
    assert r["passed"], r["details"]
    assert r["seconds"] < 1.0


def test_criterion_2_degenerations():
    r = _report(verify.verify_degeneration(n_samples=100))
    assert r["passed"], r["details"]
    assert r["seconds"] < 10.0
    items = r["details"]["items"]
    assert len(items) == 14  # seven rules, Hamiltonian and tangency each
    for item in items:
        assert item["residual"] < 1e-10


def test_criterion_3_flow_compatibility():
    r = _report(verify.verify_compat(side=0.2, rel_tol=1e-9, tol=1e-6))
    assert r["passed"], r["details"]
    assert r["seconds"] < 120.0
    assert {i["id"] for i in r["details"]["items"]} == {
        f"{sid}/disagreement" for sid in (
            "11,11,11,11,11", "11,11,11,11,11,11", "21,21,21,21,111",
            "31,31,22,22,22")}


def test_criterion_4_matrix_flow_equivalence():
    r = _report(verify.verify_isospectral(length=0.3, tol=1e-6,
                                          drift_tol=1e-8))
    assert r["passed"], r["details"]
    assert r["seconds"] < 60.0


def test_criterion_5_isomonodromy():
    r = _report(verify.verify_isomonodromy(length=0.2, tol=1e-5,
                                           control_min=1e-3))
    assert r["passed"], r["details"]
    assert r["seconds"] < 300.0
    items = {i["id"]: i["residual"] for i in r["details"]["items"]}
    for sid in ("21,21,21,21,111", "22,22,211,211"):
        assert items[f"{sid}/drift"] < 1e-5
        assert items[f"{sid}/negative_control"] > 1e-3


def test_criterion_6_rigid_riemann_schemes():
    r = _report(verify.verify_riemann_schemes(n_samples=20, tol=1e-9,
                                              compat_tol=1e-7))
    assert r["passed"], r["details"]
    assert r["seconds"] < 30.0


def test_criterion_7_particular_solutions():
    # Faithful implementation of the stated criterion: every lift case must
    # satisfy its parent field and the printed log-derivative rule.
    r = _report(verify.verify_particular(field_tol=1e-6, pfaff_tol=1e-7))
    assert r["seconds"] < 60.0
    assert r["passed"], r["details"]


def test_criterion_8_symplectic_maps():
    r = _report(verify.verify_symplectic(n_samples=50, tol=1e-8))
    assert r["passed"], r["details"]
    assert r["seconds"] < 10.0


def test_criterion_9_gradient_oracle():
    r = _report(verify.verify_gradients(n_samples=100, rel=1e-6))
    assert r["passed"], r["details"]
    assert r["seconds"] < 30.0
