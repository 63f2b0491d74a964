"""Checks of painlab's outputs by routes that do not use the code under test.

- Hamiltonian flows: scipy's DOP853, driven by central differences of
  ``catalog.eval_h`` (no dual numbers, no painlab integrator).
- Rigid lifts: central differences over clusters of sample stops along
  the rigid trajectory against the parent field, itself from central
  differences of ``eval_h``.
- Monodromy: the closed form exp(2 pi i eig A_k) of each generator's
  eigenvalues, the product relation and the conjugacy invariants,
  computed here with numpy and scipy from the returned matrices.

scipy is used for checking only; nothing timed calls it.
"""

from __future__ import annotations

import numpy as np

FD_STEP = 1e-3


def central_gradient(f, z):
    """Five-point central-difference gradient of a holomorphic f at z."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(len(z), dtype=complex)
    for k in range(len(z)):
        h = FD_STEP * max(1.0, abs(z[k]))
        e = np.zeros(len(z), dtype=complex)
        e[k] = h
        out[k] = (-f(z + 2 * e) + 8 * f(z + e) - 8 * f(z - e)
                  + f(z - 2 * e)) / (12 * h)
    return out


def parent_field(pl, sid, i, params, y, times):
    """(dq/dt_i, dp/dt_i) of H_i from central differences of eval_h."""
    n = len(y) // 2
    times = tuple(times)

    def h(z):
        st = pl.catalog.PhaseState(tuple(z[:n]), tuple(z[n:]), times)
        return pl.catalog.eval_h(sid, i, params, st)

    g = central_gradient(h, y)
    ti = times[i - 1]
    return np.concatenate([g[n:], -g[:n]]) / (ti * (ti - 1))


def reference_flow(pl, sid, i, params, state, end):
    """Endpoint of the i-th flow from t_i to ``end`` by scipy's DOP853."""
    from scipy.integrate import solve_ivp

    z0 = state.t[i - 1]
    dz = complex(end) - z0
    times = list(state.t)

    def rhs(s, y):
        times[i - 1] = z0 + s * dz
        return dz * parent_field(pl, sid, i, params, y, times)

    y0 = np.array(state.q + state.p, dtype=complex)
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-12,
                    atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference flow {sid}/{i} failed: {sol.message}")
    return sol.y[:, -1]


def relative_gap(a, b):
    """max|a - b| relative to max(1, max|b|)."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def match_multiset(values, targets):
    """Largest relative gap when each target takes its nearest value."""
    values = list(values)
    worst = 0.0
    for w in targets:
        j = int(np.argmin([abs(v - w) for v in values]))
        worst = max(worst, abs(values[j] - w) / (1.0 + abs(w)))
        values.pop(j)
    return worst


def lift_field_residual(pl, parent, params, traj_params, lifted, t0, t1,
                        other_times=()):
    """Lifted rigid samples against the parent field of the t_1 flow.

    The samples come in clusters of five equally spaced path parameters
    on the line t0 -> t1.  d/ds of the lifted point at each cluster's
    centre comes from the five-point stencil over the cluster, the
    parent field from :func:`parent_field`; the residual is relative to
    the field's size.
    """
    s = np.asarray(traj_params, dtype=float).reshape(-1, 5)
    z = np.asarray(lifted, dtype=complex).reshape(len(s), 5, -1)
    worst = 0.0
    for sk, zk in zip(s, z):
        delta = sk[1] - sk[0]
        if not np.allclose(np.diff(sk), delta, rtol=1e-9, atol=0.0):
            raise ValueError("lift check needs clusters of equal spacing")
        d = (zk[0] - 8 * zk[1] + 8 * zk[3] - zk[4]) / (12 * delta)
        times = (t0 + sk[2] * (t1 - t0),) + tuple(other_times)
        want = (t1 - t0) * parent_field(pl, parent, 1, params, zk[2], times)
        worst = max(worst, relative_gap(d, want))
    return worst


def _power_sum_gap(m, a):
    """Closed form eig M = exp(2 pi i eig A), compared through power sums.

    tr M^k = tr expm(2 pi i k A) for k = 1..L fixes the eigenvalue
    multiset (Newton's identities) and, unlike eigenvalues themselves,
    stays well conditioned at repeated eigenvalues.  An error dM moves
    tr M^k by up to k |M^(k-1)| |dM|, so each gap is taken relative to
    |M^(k-1)| |M|: a generator conjugated far from normal form carries
    a proportionally larger absolute error.
    """
    from scipy.linalg import expm

    size = float(np.max(np.abs(m)))
    worst = 0.0
    mk = np.eye(m.shape[0], dtype=complex)
    for k in range(1, m.shape[0] + 1):
        scale = max(1.0, float(np.max(np.abs(mk))) * size)
        mk = mk @ m
        want = np.trace(expm(2j * np.pi * k * a))
        gap = abs(np.trace(mk) - want) / max(scale, 1 + abs(want))
        worst = max(worst, gap)
    return worst


def generator_residual(rep):
    """Closed form of every generator's spectrum, the loop at infinity too.

    ``rep`` is the dict a monodromy operation returns: the system's points
    and residues, the generators with the point each one encircles, and
    the loop at infinity.
    """
    pts = [complex(p) for p in rep["points"]]
    worst = 0.0
    for m, pt in zip(rep["generators"], rep["loop_points"]):
        a = rep["residues"][pts.index(complex(pt))]
        worst = max(worst, _power_sum_gap(m, a))
    a_inf = -np.sum(rep["residues"], axis=0)
    return max(worst, _power_sum_gap(rep["at_infinity"], a_inf))


def product_residual(rep):
    """|M_inf M_last ... M_first - 1| over the product of factor sizes."""
    factors = [rep["at_infinity"]] + list(rep["generators"][::-1])
    prod = np.eye(factors[0].shape[0], dtype=complex)
    scale = 1.0
    for m in factors:
        prod = prod @ m
        scale *= max(1.0, float(np.max(np.abs(m))))
    return float(np.max(np.abs(prod - np.eye(prod.shape[0])))) / scale


def invariant_traces(rep):
    """tr M_k and tr M_k M_l (k < l), the loop at infinity included."""
    ms = list(rep["generators"]) + [rep["at_infinity"]]
    out = [np.trace(m) for m in ms]
    out += [np.trace(ms[k] @ ms[l])
            for k in range(len(ms)) for l in range(k + 1, len(ms))]
    return np.array(out)
