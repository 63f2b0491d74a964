"""Rigid fourth-order systems and the particular-solution lifts.

Each case pins an invariant submanifold of a parent catalog system on
which the dynamics linearize to a rigid (zero accessory parameter)
Fuchsian system in an auxiliary vector y = (y0, y1, y2, y3).  The case
data carries the residue matrices of the rigid system, the submanifold
constraints, the lift recovering the parent coordinates from y, and the
printed logarithmic-derivative rule for y0 used as a consistency check.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .algebra import time_derivative
from .catalog import PhaseState, constraint_rate, full_params, vector_field
from .fuchsian import FuchsianSystem, LinearRhs
from .sampling import rational_complex

__all__ = ["RigidCase", "RIGID_CASES", "build_rigid_matrices", "rigid_rhs",
           "constraint_flow_drift", "lift_solution", "lift_residuals",
           "riemann_scheme_columns"]

_E23 = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


@dataclass(frozen=True)
class RigidCase:
    """One invariant-manifold case: matrices, constraints, lift."""

    case_id: str
    parent: str
    spectral_type: str
    n_times: int
    # map merged parent params -> violation of the parameter constraint
    parameter_constraint: callable
    # (name, par -> value, solved name): the parent draw on which the
    # parameter constraint holds, as in sampling.tied_params
    tie: tuple
    # merged params -> whether the case's matrices are defined there
    admissible: callable
    # merged params -> per deformation time, the (P, 4, 4) residue stack at
    # the leg's points: (M_t, M_1, M_0) for two times, (M_1, M_0) for one
    matrices: callable
    # constraint expressions g_k(q, p, t, par) cutting the submanifold
    constraints: tuple
    # y (len 4), t values, par -> (q, p) on the manifold
    lift: callable
    # i, y, dy/dt_i, t, par -> residual of the printed log-derivative rule
    pfaff: callable
    # per time: list of (point label, exponents builder par -> tuple)
    scheme: callable
    # rng with par fixed -> a state on the manifold
    manifold_state: callable


def _mats_case51(par):
    a1, a2, a3, a5 = par["alpha1"], par["alpha2"], par["alpha3"], par["alpha5"]
    r3 = par["rho3"]
    Mt = np.array([
        [0, 0, 0, 0],
        [0, -a2, -a1, -1],
        [0, a2, a1, 1],
        [0, -a2 * r3, -a1 * r3, -r3]], dtype=complex)
    M1_1 = np.array([
        [a1, a5 + 1, 0, 0],
        [a1, a5 + 1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, a1 * r3, a1 + a5 + 1]], dtype=complex)
    M0_1 = np.array([
        [0, -a5 - 1, 0, 0],
        [0, a1 - a3 + 1, 0, 0],
        [0, -a2, 0, 0],
        [0, a2 * r3, 0, 0]], dtype=complex)
    M1_2 = np.array([
        [-a2, 0, a5 - r3 + 1, -1],
        [0, 0, 0, 0],
        [-a2, 0, a5 - r3 + 1, -1],
        [0, 0, 0, 0]], dtype=complex)
    M0_2 = np.array([
        [0, 0, -a5 + r3 - 1, 1],
        [0, 0, a1, 1],
        [0, 0, -a2 - a3 + r3 + 1, 0],
        [0, 0, 0, -a2 - a3 + r3 + 1]], dtype=complex)
    return np.array([(Mt, M1_1, M0_1), (Mt, M1_2, M0_2)])


def _mats_case52(par):
    a0, a2, a3, a5 = par["alpha0"], par["alpha2"], par["alpha3"], par["alpha5"]
    Mt = np.array([
        [0, 0, 0, 0],
        [0, a2, -a2, 0],
        [0, -a2, a2, 0],
        [0, 0, 0, 0]], dtype=complex)
    M1 = np.array([
        [-(a0 + a5 + 1), -1, 0, 0],
        [a0 * (a0 + a5 + 1), a0, 0, 0],
        [0, 0, -(a0 + a2 + a5 + 1), -1],
        [0, 0, (a0 + a2) * (a0 + a2 + a5 + 1), a0 + a2]], dtype=complex)
    M0 = np.array([
        [-a3, 1, 0, 0],
        [0, 0, 0, 0],
        [0, a2, -a3, 1],
        [0, 0, 0, 0]], dtype=complex)
    first = np.array([Mt, M1, M0])
    return np.array([first, _E23 @ first @ _E23])


def _mats_case53(par):
    a1, a2, a3, a4, a5 = (par["alpha1"], par["alpha2"], par["alpha3"],
                          par["alpha4"], par["alpha5"])
    th21 = par["theta21"]
    M1 = np.array([
        [-a3, -a1, -a5, 0],
        [-a3, -a1 + th21, -a5 - th21, a3],
        [-a3, -a1, -a5, 0],
        [0, -th21, th21, -a3]], dtype=complex)
    M0 = np.array([
        [0, 0, 0, 0],
        [a3, -a2 - a3, 0, -a3],
        [a3, a1, a4 + a5 - 1, 0],
        [0, 0, 0, 0]], dtype=complex)
    return np.array([(M1, M0)])


def _mats_case54(par):
    a0, a1, a2, a5 = par["alpha0"], par["alpha1"], par["alpha2"], par["alpha5"]
    eta, r4 = par["eta"], par["rho4"]
    M1 = np.array([
        [a1 - a5 - r4, -1, -1, -1],
        [a1 * (a1 - eta), -a1 - a5 + eta - r4, -a1, -a1 + eta],
        [-(a1 - eta) * (a5 + r4) * (eta - r4) / eta,
         (a5 + r4) * (eta - r4) / eta, eta - r4, 0],
        [-a1 * (a5 - eta + r4) * r4 / eta,
         (a5 - eta + r4) * r4 / eta, 0, -r4]], dtype=complex)
    M0 = np.array([
        [-a0 - a1 - a2, 1, 1, 1],
        [0, -a0, a1, a1 - eta],
        [0, 0, 0, 0],
        [0, 0, 0, 0]], dtype=complex)
    return np.array([(M1, M0)])


def _lift51(y, t, par):
    y0, y1, y2, y3 = y
    t1, t2 = t
    a1 = par["alpha1"]
    q1 = y1 / y0
    q2 = y2 / y0
    p3 = -y3 / (t2 * y1)
    return (q1, q2, 0.0), (a1 / q1, 0.0, p3)


def _lift52(y, t, par):
    y0, y1, y2, y3 = y
    t1, t2 = t
    a2 = par["alpha2"]
    p1 = -y1 / (t1 * y0)
    p2 = -y2 / (t2 * y0)
    p3 = (p1 * p2 - y3 / (y0 * t1 * t2)) / a2
    return (0.0, 0.0, 0.0), (p1, p2, p3)


def _lift53(y, t, par):
    y0, y1, y2, y3 = y
    (tt,) = t
    return (tt * y1 / y0, tt * y2 / y0, y3 / y0), (0.0, 0.0, 0.0)


def _lift54(y, t, par):
    # The invariant manifold is q1*p1 = -alpha1, q2 = q3 = 0: the published
    # display reads q1*p1 = +alpha1, on which none of the three constraint
    # derivatives vanishes along the parent flow.  With the minus sign the
    # manifold is tangent to the flow and this lift satisfies the parent
    # field.  The p-ratios follow the residue matrices and the
    # log-derivative rule.
    y0, y1, y2, y3 = y
    (tt,) = t
    a1, eta = par["alpha1"], par["eta"]
    p1 = -y1 / (tt * y0)
    p3 = eta * y3 / (tt * y1)
    p2 = -(y2 + y3) / (tt * y0)
    return (-a1 / p1, 0.0, 0.0), (p1, p2, p3)


def _pfaff51(i, y, dy, t, par):
    a1, a2, a5, r3 = par["alpha1"], par["alpha2"], par["alpha5"], par["rho3"]
    ti = t[i - 1]
    lhs = ti * (ti - 1) * dy[0] / y[0]
    q1 = y[1] / y[0]
    q2 = y[2] / y[0]
    if i == 1:
        return lhs - ((a5 + 1) * q1 + a1 * ti)
    p3 = -y[3] / (t[1] * y[1])
    return lhs - (t[1] * q1 * p3 + (a5 - r3 + 1) * q2 - a2 * ti)


def _pfaff52(i, y, dy, t, par):
    a0, a3, a5 = par["alpha0"], par["alpha3"], par["alpha5"]
    ti = t[i - 1]
    lhs = ti * (ti - 1) * dy[0] / y[0]
    pi = -y[i] / (ti * y[0])
    return lhs - (ti * pi - (a0 + a5 + 1) * ti - a3 * (ti - 1))


def _pfaff53(i, y, dy, t, par):
    a1, a3, a5 = par["alpha1"], par["alpha3"], par["alpha5"]
    (tt,) = t
    lhs = tt * (tt - 1) * dy[0] / y[0]
    q1 = tt * y[1] / y[0]
    q2 = tt * y[2] / y[0]
    return lhs - (-a1 * q1 - a5 * q2 - a3 * tt)


def _pfaff54(i, y, dy, t, par):
    a0, a1, a2, a5, r4 = (par["alpha0"], par["alpha1"], par["alpha2"],
                          par["alpha5"], par["rho4"])
    (tt,) = t
    lhs = tt * (tt - 1) * dy[0] / y[0]
    p1 = -y[1] / (tt * y[0])
    p2 = -(y[2] + y[3]) / (tt * y[0])
    return lhs - (tt * p1 + tt * p2 + (a1 - a5 - r4) * tt
                  - (a0 + a1 + a2) * (tt - 1))


def _scheme51(par):
    a1, a2, a3, a5, r3 = (par["alpha1"], par["alpha2"], par["alpha3"],
                          par["alpha5"], par["rho3"])
    first = (
        (a1 - a2 - r3, 0, 0, 0),
        (a1 + a5 + 1, a1 + a5 + 1, 0, 0),
        (a1 - a3 + 1, 0, 0, 0),
        (-a1 + a2 + a3 - a5 - 2, -a1 - a5 + r3 - 1, -a1, -a1),
    )
    second = (
        (a1 - a2 - r3, 0, 0, 0),
        (-a2 + a5 - r3 + 1, 0, 0, 0),
        (-a2 - a3 + r3 + 1, -a2 - a3 + r3 + 1, 0, 0),
        (-a1 + a2 + a3 - a5 - 2, a2 + a3 - 1, a2, a2),
    )
    return (first, second)


def _scheme52(par):
    a0, a2, a3, a5 = par["alpha0"], par["alpha2"], par["alpha3"], par["alpha5"]
    col = (
        (2 * a2, 0, 0, 0),
        (-a5 - 1, -a5 - 1, 0, 0),
        (-a3, -a3, 0, 0),
        (a0 + a3 + a5 + 1, a0 + a3 + a5 + 1, -a0 - a2, -a0 - a2),
    )
    return (col, col)


def _scheme53(par):
    a1, a2, a3, a4, a5 = (par["alpha1"], par["alpha2"], par["alpha3"],
                          par["alpha4"], par["alpha5"])
    th21 = par["theta21"]
    return ((
        (-a1 - a3 - a5, -a3 + th21, 0, 0),
        (a4 + a5 - 1, -a2 - a3, 0, 0),
        (-a4 + 1, a1 + a2 + a3 - th21, a3, a3),
    ),)


def _scheme54(par):
    a0, a1, a2, a5 = par["alpha0"], par["alpha1"], par["alpha2"], par["alpha5"]
    eta, r4 = par["eta"], par["rho4"]
    return ((
        (-a5 + eta - 2 * r4, -a5 + eta - 2 * r4, 0, 0),
        (-a0 - a1 - a2, -a0, 0, 0),
        (a0 + a2 + a5 + r4, a0 + a1 + a5 - eta + r4, -eta + r4, r4),
    ),)


def _manifold51(rng, par, times):
    q1 = rational_complex(rng, nonzero=True)
    q2 = rational_complex(rng)
    p3 = rational_complex(rng)
    return PhaseState((q1, q2, 0.0), (par["alpha1"] / q1, 0.0, p3), times)


def _manifold52(rng, par, times):
    p = tuple(rational_complex(rng) for _ in range(3))
    return PhaseState((0.0, 0.0, 0.0), p, times)


def _manifold53(rng, par, times):
    q = tuple(rational_complex(rng) for _ in range(3))
    return PhaseState(q, (0.0, 0.0, 0.0), times)


def _manifold54(rng, par, times):
    p1 = rational_complex(rng, nonzero=True)
    p2 = rational_complex(rng)
    p3 = rational_complex(rng)
    return PhaseState((-par["alpha1"] / p1, 0.0, 0.0), (p1, p2, p3), times)


def _everywhere(par):
    return True


RIGID_CASES = {
    "case-21x4": RigidCase(
        case_id="case-21x4",
        parent="21,21,21,21,111",
        spectral_type="31,31,22,211",
        n_times=2,
        parameter_constraint=lambda par: (par["alpha0"] + par["alpha1"]
                                          + par["alpha5"] + 1),
        tie=("theta3", lambda par: -par["rho2"] - par["theta1"], "rho3"),
        admissible=_everywhere,
        matrices=_mats_case51,
        constraints=(
            lambda q, p, t, par: q[0] * p[0] - par["alpha1"],
            lambda q, p, t, par: p[1],
            lambda q, p, t, par: q[2],
        ),
        lift=_lift51,
        pfaff=_pfaff51,
        scheme=_scheme51,
        manifold_state=_manifold51,
    ),
    "case-3131": RigidCase(
        case_id="case-3131",
        parent="31,31,22,22,22",
        spectral_type="31,22,22,22",
        n_times=2,
        parameter_constraint=lambda par: par["alpha1"],
        tie=("theta1", lambda par: 0.0, "rho2"),
        admissible=_everywhere,
        matrices=_mats_case52,
        constraints=(
            lambda q, p, t, par: q[0],
            lambda q, p, t, par: q[1],
            lambda q, p, t, par: q[2],
        ),
        lift=_lift52,
        pfaff=_pfaff52,
        scheme=_scheme52,
        manifold_state=_manifold52,
    ),
    "case-21-111": RigidCase(
        case_id="case-21-111",
        parent="21,111,111,111",
        spectral_type="211,211,211",
        n_times=1,
        parameter_constraint=lambda par: par["eta"],
        tie=("rho1",
             lambda par: -(par["theta1"] + par["theta21"] + par["theta31"]),
             "rho3"),
        admissible=_everywhere,
        matrices=_mats_case53,
        constraints=(
            lambda q, p, t, par: p[0],
            lambda q, p, t, par: p[1],
            lambda q, p, t, par: p[2],
        ),
        lift=_lift53,
        pfaff=_pfaff53,
        scheme=_scheme53,
        manifold_state=_manifold53,
    ),
    "case-3122": RigidCase(
        case_id="case-3122",
        parent="31,22,211,1111",
        spectral_type="22,211,1111",
        n_times=1,
        parameter_constraint=lambda par: (par["alpha1"] + par["alpha3"]
                                          - par["eta"]),
        tie=("theta1", lambda par: 0.0, "rho4"),
        # _mats_case54 divides by eta
        admissible=lambda par: abs(par["eta"]) >= 0.05,
        matrices=_mats_case54,
        constraints=(
            lambda q, p, t, par: q[0] * p[0] + par["alpha1"],
            lambda q, p, t, par: q[1],
            lambda q, p, t, par: q[2],
        ),
        lift=_lift54,
        pfaff=_pfaff54,
        scheme=_scheme54,
        manifold_state=_manifold54,
    ),
}


def build_rigid_matrices(case: RigidCase, params):
    """The rigid residue stacks, one per time (``RigidCase.matrices``); the
    case's parameter constraint must vanish to 1e-9 (not NaN)."""
    par = full_params(case.parent, params)
    res = abs(case.parameter_constraint(par))
    if not res <= 1e-9:
        raise ValueError(
            f"{case.case_id}: parameter constraint violated ({res:.3e})")
    return case.matrices(par)


def rigid_rhs(case: RigidCase, params, i, other_times):
    """dy/dt_i = (M_1/(t_i - 1) + M_0/t_i + M_t/(t_i - t_j)) y, summed in
    that order: the :class:`~painlab.fuchsian.LinearRhs` of the leg as a
    Fuchsian system in t_i with points (1, 0, t_j) and residues (M_1, M_0,
    M_t).  A plain rhs(z, y) for :func:`~painlab.integrator.integrate`,
    which steps it with one evaluation of the coefficient per step.
    ValueError unless 1 <= i <= n_times, with n_times - 1 other times
    distinct from each other and from 0 and 1."""
    n = case.n_times
    if not 1 <= i <= n or len(other_times) != n - 1:
        raise ValueError(f"{case.case_id}: time index {i} with "
                         f"{len(other_times)} other times, not 1..{n} "
                         f"with {n - 1}")
    mats = build_rigid_matrices(case, params)[i - 1]  # (M_t..., M_1, M_0)
    return LinearRhs(FuchsianSystem((1.0, 0.0, *other_times),
                                    np.concatenate((mats[-2:], mats[:-2]))))


def constraint_flow_drift(case: RigidCase, params, state: PhaseState):
    """Max |d g_k/dt_i| along the parent flow, on the manifold."""
    return constraint_rate(case.parent, params, state, case.constraints)


def lift_solution(case: RigidCase, params, ys, times_list):
    """Map rigid-system samples y(t) to parent phase-space points.

    ``ys``: iterable of 4-vectors; ``times_list``: matching deformation
    time tuples.  Raises ZeroDivisionError, naming the sample, where y0
    is below 1e-14 in size or NaN, and where a lifted coordinate is not
    finite: the lifts of case-21x4 and case-3122 also divide by y1, which
    numpy's scalars turn into inf or NaN rather than an error.  The maps
    run on the samples' own scalars: numpy's complex division rounds
    otherwise than Python's.
    """
    par = full_params(case.parent, params)
    out = []
    for k, (y, t) in enumerate(zip(ys, times_list)):
        if not abs(y[0]) >= 1e-14:  # written so that a NaN fails
            raise ZeroDivisionError(f"y0 = {y[0]} at sample {k} of the lift")
        try:
            q, p = case.lift(tuple(y), tuple(t), par)
            if not all(map(cmath.isfinite, q + p)):
                raise ZeroDivisionError(f"lifted coordinates "
                                        f"{list(map(complex, q + p))} not "
                                        f"finite")
        except ZeroDivisionError as exc:
            raise ZeroDivisionError(f"{exc} at sample {k} of the lift, y = "
                                    f"{list(map(complex, y))}") from None
        out.append(PhaseState(q, p, tuple(t)))
    return out


def lift_residuals(case: RigidCase, params, rhs, y, t):
    """(max |d lift/dt_1 - parent field|, |printed log-derivative rule|) at
    a point y(t) of the t_1 rigid leg whose :func:`rigid_rhs` is ``rhs``."""
    par = full_params(case.parent, params)

    def qp(w, tt):
        q, p = case.lift(w, tt, par)
        return tuple(q) + tuple(p)

    dy = rhs(t[0], y)
    der = time_derivative(qp, y, dy, t, 1)
    q, p = case.lift(tuple(y), t, par)
    dq, dp = vector_field(case.parent, 1, params, PhaseState(q, p, t))
    field = float(np.max(np.abs(np.array(der) - np.array(dq + dp))))
    return field, abs(case.pfaff(1, tuple(y), tuple(dy), t, par))


def riemann_scheme_columns(case: RigidCase, params):
    """Printed exponent columns, one tuple of columns per deformation time."""
    par = full_params(case.parent, params)
    return case.scheme(par)
