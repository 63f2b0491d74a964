"""The verification suite: every consistency claim as a runnable check.

Each ``verify_*`` check takes only the seed and returns ``{"name",
"passed", "seconds", "details": {"items", "counters"}}``.  An item
``{"id", "residual", "tolerance", "margin", "passed"}`` is one judged
quantity, its id the system, case or rule, then the quantity
(``case-3122/field_residual``), unique within the check; ``counters``
hold the work done.  A check body only computes items and counters, each
tolerance written at its item: ``_judge`` is the one pass rule, and a
check passes exactly when all its items pass.  ``run_checks`` runs a list
of checks; the command line driver serializes the results to JSON.  All
randomness flows through a single seed, so only ``seconds`` varies
between runs.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from . import catalog, degenerations, rigid
from ._gradients import field
from .algebra import dual_gradient, max_residual
from .catalog import flow_states, full_params, lookup
from .fuchsian import accessory_count, parse_spectral_type, riemann_scheme_of
from .integrator import integrate_time, integrate_two_time
from .monodromy import isomonodromy_drift, monodromy_representation
from .parametrizations import SUPPORTED, assemble, parametrization
from .sampling import (redraws, rng_from_seed, sample_params, sample_state,
                       small_state, tied_params)
from .schlesinger import realign_to_slice, schlesinger_flow_rhs

__all__ = ["CHECKS", "run_checks"]

DEFAULT_SEED = 20260810
CHECKS = {}

# the start times of the checks' flows, each sliced to the system's n_times
_FLOW_TIMES = (1.8 + 0.6j, -0.9 + 0.4j, 0.5 + 1.3j)
_MONO_TIMES = (1.7 + 0.8j, -0.6 + 0.5j)
_RIGID_TIMES = (1.7 + 0.6j, -0.8 + 0.5j)
# the rigid systems' initial vector y
_RIGID_Y0 = np.array([1.0, 0.1, 0.1, 0.1], dtype=complex)


def _judge(item_id, residual, tolerance, minimum=False):
    """A maximum passes when residual < tolerance (margin tolerance/residual,
    None at an exact zero), a minimum when residual > tolerance (margin
    residual/tolerance); an integer equality is |got - want| below 1."""
    residual = float(residual)
    if minimum:
        passed, margin = residual > tolerance, residual / tolerance
    else:
        passed = residual < tolerance
        margin = tolerance / residual if residual else None
    return {"id": item_id, "residual": residual, "tolerance": tolerance,
            "margin": margin, "passed": passed}


def _check(name):
    """Register a check body under ``name`` in ``CHECKS``.  The body takes
    the seed's rng and returns its items, each ``(id, residual,
    tolerance[, minimum])``, and a dict of work counters; the registered
    check takes only the seed, times the body and judges the items."""
    def register(body):
        @functools.wraps(body)
        def check(seed=DEFAULT_SEED):
            # the rng first: the first one in a process imports
            # numpy.random, which is no part of the check's time
            rng = rng_from_seed(seed)
            t0 = time.perf_counter()
            items, counters = body(rng)
            items = [_judge(*item) for item in items]
            return {"name": name,
                    "passed": all(item["passed"] for item in items),
                    "seconds": round(time.perf_counter() - t0, 4),
                    "details": {"items": items, "counters": counters}}
        del check.__wrapped__  # its signature is the seed, not the rng
        CHECKS[name] = check
        return check
    return register


# ---------------------------------------------------------------------------
# 1. accessory-parameter counts
# ---------------------------------------------------------------------------

_COUNT_TABLE = {
    "11,11,11,11": 2,
    "111,111,111": 2, "22,1111,1111": 2, "33,222,111111": 2,
    "11,11,11,11,11": 4, "21,21,111,111": 4, "31,22,22,1111": 4,
    "22,22,22,211": 4,
    "11,11,11,11,11,11": 6, "21,21,21,21,111": 6, "31,31,22,22,22": 6,
    "21,111,111,111": 6, "22,22,211,211": 6, "22,22,22,1111": 6,
    "31,22,211,1111": 6, "31,31,1111,1111": 6, "33,33,33,321": 6,
    "42,33,33,222": 6, "51,33,222,222": 6, "51,33,33,111111": 6,
    "31,31,22,211": 0, "31,22,22,22": 0, "211,211,211": 0, "22,211,1111": 0,
}


@_check("counts")
def verify_counts(rng):
    items = [(f"table/{st}", abs(accessory_count(st) - want), 1)
             for st, want in _COUNT_TABLE.items()]
    # cross-check: 2n of each catalog descriptor
    items += [(f"catalog/{sid}",
               abs(accessory_count(sid) - 2 * lookup(sid).n_pairs), 1)
              for sid in catalog.list_systems()]
    # the spectral type an assembly at generic parameters realizes
    items += [(f"assembled/{sid}", _misses_spectral_type(sid, rng), 1)
              for sid in SUPPORTED]
    return items, {}


def _misses_spectral_type(sid, rng):
    """1 if an assembly at a generic draw misses spectral type sid, else 0."""
    for _ in redraws(sid, "sample off the chart's singular set"):
        par, st = sample_params(sid, rng, generic=True), sample_state(sid, rng)
        try:
            sys = assemble(sid, par, st)
        except ValueError:
            continue
        partitions = tuple(em.partition for em in riemann_scheme_of(sys))
        return int(partitions != parse_spectral_type(sid))


# ---------------------------------------------------------------------------
# 2. degeneration rules
# ---------------------------------------------------------------------------


@_check("degeneration")
def verify_degeneration(rng):
    items = []
    for label, rule in degenerations.RULES.items():
        h, tang = degenerations.check_rule(rule, 100, rng)
        items += [(f"{label}/hamiltonian", h, 1e-10),
                  (f"{label}/tangency", tang, 1e-10)]
    return items, {}


# ---------------------------------------------------------------------------
# 3. flow compatibility for every multi-time system
# ---------------------------------------------------------------------------

_COMPAT_IDS = ("11,11,11,11,11", "11,11,11,11,11,11", "21,21,21,21,111",
               "31,31,22,22,22")


@_check("compat")
def verify_compat(rng):
    items = []
    for sid in _COMPAT_IDS:
        desc = lookup(sid)
        par = sample_params(sid, rng, generic=True)
        st = small_state(sid, rng, _FLOW_TIMES[:desc.n_times])
        gaps = []
        pairs = [(1, 2)] if desc.n_times == 2 else [(1, 2), (2, 3), (1, 3)]
        for i, j in pairs:
            ti, tj = st.t[i - 1] + 0.2, st.t[j - 1] + 0.2
            a = integrate_two_time(sid, par, st, i, ti, j, tj, rel_tol=1e-9)
            b = integrate_two_time(sid, par, st, j, tj, i, ti, rel_tol=1e-9)
            gaps.append(float(np.max(np.abs(
                np.array(a.q + a.p) - np.array(b.q + b.p)))))
        items.append((f"{sid}/disagreement", max_residual(gaps), 1e-6))
    return items, {}


# ---------------------------------------------------------------------------
# 4. matrix-flow equivalence and isospectrality
# ---------------------------------------------------------------------------


def _eigenvalue_drift(mats0, mats1):
    """Largest eigenvalue move between paired matrices, each relative to
    1 + max|eigenvalue| of the first; eigenvalues are paired by nearness,
    since an order by real part is decided by rounding noise when two
    eigenvalues share a real part."""
    drifts = []
    for a0, a1 in zip(mats0, mats1):
        e0 = np.linalg.eigvals(a0)
        scale = 1.0 + float(np.max(np.abs(e0)))
        drifts.append(_match_multiset(np.linalg.eigvals(a1), e0) / scale)
    return max_residual(drifts)


@_check("isospectral")
def verify_isospectral(rng):
    sid = "21,21,21,21,111"
    par = sample_params(sid, rng, generic=True)
    st = small_state(sid, rng, _FLOW_TIMES[:lookup(sid).n_times])
    t1v = st.t[0] + 0.3
    end = flow_states(sid, 1, par, st, t1v, rel_tol=1e-11, abs_tol=1e-13)[-1]
    mats_ham = assemble(sid, par, end).residues

    sys0 = assemble(sid, par, st)
    trajS = integrate_time(schlesinger_flow_rhs(sys0.points, 1),
                           sys0.residues.ravel(), st.t, 1, t1v,
                           rel_tol=1e-11, abs_tol=1e-13)
    mats_raw = trajS.end_state.reshape(sys0.residues.shape)
    realigned = realign_to_slice(sid, par, mats_raw)
    deviation = float(np.max(np.abs(mats_ham - realigned)))

    drift = _eigenvalue_drift(sys0.residues, mats_raw)
    return [(f"{sid}/matrix_deviation", deviation, 1e-6),
            (f"{sid}/eigenvalue_drift", drift, 1e-8)], {}


# ---------------------------------------------------------------------------
# 5. isomonodromy along the Hamiltonian flow, plus a negative control
# ---------------------------------------------------------------------------


_MONO_IDS = ("21,21,21,21,111", "22,22,211,211")


@_check("isomonodromy")
def verify_isomonodromy(rng):
    items, counters = [], {}
    rel_tol = 1e-10  # of the flows and of the transports
    for sid in _MONO_IDS:
        par = sample_params(sid, rng, generic=True)
        par = {k: 0.25 * v for k, v in par.items()}
        st = small_state(sid, rng, _MONO_TIMES[:lookup(sid).n_times])

        def flow(scale):
            return flow_states(sid, 1, par, st, st.t[0] + 0.2,
                               samples=(0.5,), scale=scale,
                               rel_tol=rel_tol, abs_tol=1e-13)

        def representation(state):
            return monodromy_representation(assemble(sid, par, state),
                                            rel_tol=rel_tol)

        reps = [representation(s) for s in flow(1.0)]
        # the control leaves from the same start state: reuse its transport
        control_reps = reps[:1] + [representation(s) for s in flow(1.1)[1:]]
        drift = isomonodromy_drift(reps)
        control = isomonodromy_drift(control_reps)
        # the independent route: generators against the loop at infinity
        defect = max_residual(rep.product_defect()
                              for rep in reps + control_reps)
        # the work: chords over every representation computed here
        counters[f"{sid}/transport_steps"] = sum(
            rep.transport_steps for rep in reps + control_reps[1:])
        counters[f"{sid}/series_order"] = reps[0].series_order
        items += [(f"{sid}/drift", drift, 1e-5),
                  (f"{sid}/negative_control", control, 1e-3, True),
                  (f"{sid}/product_defect", defect, 1e-9)]
    return items, counters


# ---------------------------------------------------------------------------
# 6. rigid Riemann schemes and two-time rigid compatibility
# ---------------------------------------------------------------------------


def constrained_rigid_params(case, rng):
    """Parent parameters drawn with the case's tie, kept once the trace
    relation and the parameter constraint check out independently, and
    returned merged (:func:`~painlab.catalog.full_params`)."""
    sid = case.parent
    for _ in redraws(case.case_id, "admissible parameters"):
        par = tied_params(sid, rng, *case.tie, generic=True)
        if not abs(lookup(sid).fuchs_relation(par)) <= 1e-10:
            continue
        merged = full_params(sid, par)
        if abs(case.parameter_constraint(merged)) > 1e-10:
            continue
        if not case.admissible(merged):
            continue
        return merged


def _match_multiset(values, targets):
    """Largest distance from each target to the nearest value not yet
    taken by an earlier target."""
    values = list(values)
    gaps = []
    for w in targets:
        j = int(np.argmin([abs(v - w) for v in values]))
        gaps.append(float(abs(values[j] - w)))
        values.pop(j)
    return max_residual(gaps)


def _power_sum_residual(M, exponents):
    """max over k = 1..L of |tr(M^k) - sum of w^k| / s^k, where
    s = 1 + max(max|M|, max|w|).  By Newton's identities the power sums
    fix the multiset; unlike the eigenvalues of a residue with a Jordan
    block (error near sqrt(eps)), they are well conditioned."""
    w = np.array([complex(x) for x in exponents])
    s = 1.0 + max(float(np.max(np.abs(M))), float(np.max(np.abs(w))))
    gaps, Mk = [], np.eye(len(w))
    for k in range(1, len(w) + 1):
        Mk = Mk @ M
        gaps.append(abs(np.trace(Mk) - np.sum(w ** k)) / s ** k)
    return float(max_residual(gaps))


@_check("riemann-schemes")
def verify_riemann_schemes(rng):
    items = []
    for cid, case in rigid.RIGID_CASES.items():
        residuals = []
        for _ in range(20):
            par = constrained_rigid_params(case, rng)
            mats = rigid.build_rigid_matrices(case, par)
            cols = rigid.riemann_scheme_columns(case, par)
            for mset, colset in zip(mats, cols):
                residuals += [_power_sum_residual(M, want) for M, want
                              in zip([*mset, -sum(mset)], colset)]
        items += [(f"{cid}/scheme_residual", max_residual(residuals), 1e-9),
                  (f"{cid}/accessory_count",
                   abs(accessory_count(case.spectral_type)), 1)]
        if case.n_times == 2:
            par = constrained_rigid_params(case, rng)
            items.append((f"{cid}/two_time_disagreement",
                          _rigid_two_time_compat(case, par), 1e-7))
    return items, {}


def _rigid_two_time_compat(case, par):
    def leg(y, times, i, end):
        rhs = rigid.rigid_rhs(case, par, i, times[:i - 1] + times[i:])
        return integrate_time(rhs, y, times, i, end, rel_tol=1e-11,
                              abs_tol=1e-14).end_state

    ta, tb = _RIGID_TIMES
    ta2, tb2 = ta + 0.2, tb + 0.2
    y_ab = leg(leg(_RIGID_Y0, (ta, tb), 1, ta2), (ta2, tb), 2, tb2)
    y_ba = leg(leg(_RIGID_Y0, (ta, tb), 2, tb2), (ta, tb2), 1, ta2)
    return float(np.max(np.abs(y_ab - y_ba)))


# ---------------------------------------------------------------------------
# 7. particular solutions: lifts of rigid trajectories
# ---------------------------------------------------------------------------


@_check("particular")
def verify_particular(rng):
    items = []
    for cid, case in rigid.RIGID_CASES.items():
        par = constrained_rigid_params(case, rng)
        times = _RIGID_TIMES[:case.n_times]
        t0v, other = times[0], times[1:]
        t1v = t0v + 0.25
        rhs = rigid.rigid_rhs(case, par, 1, other)
        traj = integrate_time(rhs, _RIGID_Y0, times, 1, t1v, rel_tol=1e-11,
                              abs_tol=1e-14,
                              samples=list(np.linspace(0.15, 0.85, 4)))
        field, pfaff = zip(*(
            rigid.lift_residuals(case, par, rhs, y,
                                 (t0v + s * (t1v - t0v),) + tuple(other))
            for s, y in zip(traj.params, traj.states)))
        items += [(f"{cid}/field_residual", max_residual(field), 1e-6),
                  (f"{cid}/pfaff_residual", max_residual(pfaff), 1e-7)]
    return items, {}


# ---------------------------------------------------------------------------
# 8. symplecticity of the canonical coordinate maps
# ---------------------------------------------------------------------------

_SYMPLECTIC_IDS = ("21,21,21,21,111", "22,22,211,211", "31,31,22,22,22",
                   "21,111,111,111", "31,22,211,1111")


@_check("symplectic")
def verify_symplectic(rng):
    items = []
    for sid in _SYMPLECTIC_IDS:
        pz = parametrization(sid)
        n = lookup(sid).n_pairs
        nb = pz.n_bc_pairs
        Om_bc = np.zeros((2 * nb, 2 * nb))
        Om_bc[:nb, nb:] = np.eye(nb)
        Om_bc[nb:, :nb] = -np.eye(nb)
        Om_qp = np.zeros((2 * n, 2 * n))
        Om_qp[:n, n:] = np.eye(n)
        Om_qp[n:, :n] = -np.eye(n)
        residuals = []
        for _ in range(50):
            for _ in redraws(sid, "sample off the chart's singular set"):
                par = sample_params(sid, rng, generic=True)
                merged = full_params(sid, par)
                st = sample_state(sid, rng)

                def F(*z):
                    b, c = pz.bc_from_state(merged, z[:n], z[n:], st.t)
                    return tuple(b) + tuple(c)

                try:
                    # the chart's exact Jacobian d(b, c)/d(q, p)
                    J = np.array(dual_gradient(F, st.q + st.p)[1])
                except ValueError:
                    continue
                break
            residuals.append(float(np.max(np.abs(J.T @ Om_bc @ J - Om_qp))))
        items.append((f"{sid}/form_residual", max_residual(residuals), 1e-8))
    return items, {}


# ---------------------------------------------------------------------------
# 9. gradient oracle for every catalog Hamiltonian
# ---------------------------------------------------------------------------


@_check("gradients")
def verify_gradients(rng):
    """The generated flow fields every flow uses, bound and called at
    sc = 1, against central differences of the Hamiltonians themselves."""
    items = []
    step = 1e-6  # the difference step
    for sid in catalog.list_systems():
        desc = lookup(sid)
        errors = []
        for _ in range(100):
            par = sample_params(sid, rng)
            st = sample_state(sid, rng)
            merged = full_params(sid, par)
            n = desc.n_pairs
            h = catalog.HAMILTONIANS[sid]
            for i in range(1, desc.n_times + 1):
                def f(*z):
                    return h(i, merged, z[:n], z[n:], st.t)

                # the bound kernel at sc = 1 gives (dH/dp, -dH/dq)
                v = field(sid, i)(merged, st.t)(st.t[i - 1], st.q + st.p,
                                                1.0)
                grad = tuple(-x for x in v[n:]) + v[:n]
                z0 = list(st.q + st.p)
                for k in range(2 * n):
                    zp, zm = list(z0), list(z0)
                    zp[k] += step
                    zm[k] -= step
                    fd = (f(*zp) - f(*zm)) / (2 * step)
                    errors.append(abs(grad[k] - fd) / (1.0 + abs(grad[k])))
        items.append((f"{sid}/relative_error", max_residual(errors), 1e-6))
    return items, {}


def run_checks(names, seed=DEFAULT_SEED):
    return [CHECKS[name](seed=seed) for name in names]
