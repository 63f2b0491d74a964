"""Matrix deformation flows, as a second route to the Hamiltonian ones.

The residue matrices of an isomonodromic family satisfy the commutator
flow ``dA_j/dt_i = [A_i, A_j]/(t_i - t_j)`` with trace Hamiltonians
``H_i = sum_j tr(A_i A_j)/(t_i - t_j)``.  The family is one (P, L, L)
stack, as in :class:`~painlab.fuchsian.FuchsianSystem`: ``schlesinger_rhs``
is one broadcast commutator over it.  ``realign_to_slice`` brings the
flowed stack back onto a parametrization's gauge slice, and
``induced_state_field`` pushes the canonical flow of the trace
Hamiltonian through the coordinate maps of a parametrization, so both
can be compared with the catalog flows.
"""

from __future__ import annotations

import numpy as np

from .algebra import (COLLISION_TOL, dual_gradient, mat_mul, min_gap,
                      time_derivative)
from .catalog import PhaseState, full_params, lookup
from .parametrizations import parametrization

__all__ = [
    "schlesinger_rhs",
    "schlesinger_flow_rhs",
    "trace_hamiltonian",
    "realign_to_slice",
    "SliceRealignmentError",
    "induced_state_field",
]

# Newton iterations realign_to_slice may take
_NEWTON_STEPS = 50


class SliceRealignmentError(RuntimeError):
    """The Newton iteration of :func:`realign_to_slice` failed: a singular
    step, slice conditions undefined at the iterate, or no convergence.
    ``iteration`` counts the Newton steps taken before it failed and
    ``residual`` is the last max|F| (NaN before the first)."""

    def __init__(self, reason, iteration, residual):
        super().__init__(f"slice realignment: {reason} at Newton iteration "
                         f"{iteration} (last max|F| {residual:.3e})")
        self.iteration = iteration
        self.residual = residual


def _check_times(points, i):
    if not 1 <= i <= len(points) - 2:
        raise ValueError(f"deformation index {i} out of range")
    if not min_gap(points) > COLLISION_TOL:
        raise ValueError("singular points collide or are not finite")


def schlesinger_rhs(points, mats, i):
    """d/dt_i of every residue matrix (the commutator flow), as a stack.

    ``points`` lists the finite singular points (deformation times, then
    1, then 0); ``mats`` the matching (P, L, L) stack of residues; ``i``
    is 1-based among the deformation times.  Row i - 1 is minus the sum
    of the others, so the residue at infinity stays constant.
    """
    _check_times(points, i)
    A = np.asarray(mats, dtype=complex)
    Ai = A[i - 1]
    dt = points[i - 1] - np.array(points, dtype=complex)
    dt[i - 1] = 1  # over the own row's commutator, which is 0
    out = (Ai @ A - A @ Ai) / dt[:, None, None]
    # 0 - C_1 - C_2 - ..., left to right
    out[i - 1] = np.subtract.reduce(out, axis=0, initial=0)
    return out


def schlesinger_flow_rhs(points, i):
    """rhs(z, y) for the integrator: y = the flattened (P, L, L) residue
    stack, z = t_i."""
    fixed = list(points)
    n = len(fixed)

    def rhs(z, y):
        pts = fixed[:i - 1] + [z] + fixed[i:]
        L = int(round((len(y) / n) ** 0.5))
        return schlesinger_rhs(pts, y.reshape(n, L, L), i).reshape(y.shape)

    return rhs


def trace_hamiltonian(points, mats, i):
    """H_i = sum over the other finite points of tr(A_i A_j)/(t_i - t_j),
    entrywise, so that matrices of :class:`~painlab.algebra.Dual` work too."""
    _check_times(points, i)
    ti = points[i - 1]
    Ai = mats[i - 1]
    L = len(Ai)
    out = 0
    for j, tj in enumerate(points):
        if j == i - 1:
            continue
        Aj = mats[j]
        tr = sum(Ai[r][k] * Aj[k][r] for r in range(L) for k in range(L))
        out = out + tr / (ti - tj)
    return out


def realign_to_slice(sid, params, mats):
    """Conjugate a raw (P, L, L) residue stack back onto the gauge slice of
    the parametrization, and return the conjugated stack.

    The matrix deformation flow preserves the residue at infinity exactly,
    while the parametrized family lets its lower-triangular entries move;
    the two families differ by a triangular conjugation.  This solves for
    the lower-triangular gauge g (Newton, analytic Jacobian via duals)
    that restores the slice normalization, for the headline system.  The
    conditions read the stack as Python rows, so the Duals' gradients hold
    Python complex numbers, not numpy scalars (the same bits, at less
    cost), and fix their pivot column once, from A_4's first row.
    ValueError for a non-finite stack; :class:`SliceRealignmentError` if
    Newton fails.
    """
    if sid != "21,21,21,21,111":
        raise NotImplementedError("slice realignment implemented for the "
                                  "headline three-by-three system only")
    A = np.asarray(mats, dtype=complex)
    if not np.isfinite(A).all():
        raise ValueError("slice realignment of a non-finite residue stack")

    rows = A.tolist()
    col = max(range(3), key=lambda j: abs(rows[3][0][j]))

    def conditions(x, y, z, d2, d3):
        g = ((1, 0, 0), (x, d2, 0), (y, z, d3))
        gi = ((1, 0, 0),
              (-x / d2, 1 / d2, 0),
              ((x * z - y * d2) / (d2 * d3), -z / (d2 * d3), 1 / d3))
        B = [mat_mul(mat_mul(gi, m), g) for m in rows]
        B4, B3 = B[3], B[2]
        u4 = tuple(B4[r][col] for r in range(3))
        ainf21 = -(B[0][2][1] + B[1][2][1] + B[2][2][1] + B[3][2][1])
        return (u4[1] / u4[0], u4[2] / u4[0],
                B3[0][1] - 1, B3[0][2] - 1, ainf21)

    u = [0.0 + 0j, 0.0 + 0j, 0.0 + 0j, 1.0 + 0j, 1.0 + 0j]
    residual = float("nan")
    for it in range(_NEWTON_STEPS):
        try:
            F, J = map(np.array, dual_gradient(conditions, u))
        except ZeroDivisionError:
            raise SliceRealignmentError("the slice conditions divide by "
                                        "zero", it, residual) from None
        residual = float(np.max(np.abs(F)))
        if residual < 1e-12:
            break
        try:
            du = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise SliceRealignmentError("singular Newton step", it,
                                        residual) from None
        u = [ui + d for ui, d in zip(u, du)]
    else:
        raise SliceRealignmentError("no convergence", _NEWTON_STEPS,
                                    residual)
    x, y, z, d2, d3 = u
    g = np.array([[1, 0, 0], [x, d2, 0], [y, z, d3]], dtype=complex)
    gi = np.linalg.inv(g)
    return gi @ A @ g


def induced_state_field(sid, params, state: PhaseState, i):
    """(dq/dt_i, dp/dt_i) obtained from the canonical matrix-variable flow.

    The trace Hamiltonian drives the (b, c) pairs; the chain rule through
    the coordinate maps (including their explicit time dependence) gives
    the phase-space field.  Independent of the catalog Hamiltonians, so
    it serves as their cross-check.
    """
    desc = lookup(sid)
    pz = parametrization(sid)
    par = full_params(sid, params)
    b, c = pz.bc_from_state(par, state.q, state.p, state.t)
    nb = pz.n_bc_pairs
    points = state.t + (1.0, 0.0)

    def H(*z):
        mats = pz.matrices_from_bc(par, z[:nb], z[nb:])
        return trace_hamiltonian(points, mats, i)

    _, g = dual_gradient(H, tuple(b) + tuple(c))
    bdot = [g[nb + k] for k in range(nb)]
    cdot = [-g[k] for k in range(nb)]

    def qp(w, t):
        q, p = pz.state_from_bc(par, w[:nb], w[nb:], t)
        return tuple(q) + tuple(p)

    der = time_derivative(qp, tuple(b) + tuple(c), bdot + cdot, state.t, i)
    return tuple(der[:desc.n_pairs]), tuple(der[desc.n_pairs:])
