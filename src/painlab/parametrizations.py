"""Residue-matrix parametrizations in canonical coordinates.

For each supported system this module carries the gauge-fixed residue
matrices as functions of the canonical variables, the printed coordinate
maps between (q, p) and the matrix variables (b, c), and the recovered
formulas for the dependent matrix entries.  Dependent entries are
determined by the lower-triangular shape of the residue at infinity;
where the closed forms below were recovered rather than printed, the
tests in ``tests/test_fuchsian.py`` pin them down by the spectral type
of every assembled system (the constraints are linear, so a
least-squares solve would land on the same values).

Everything here is written over generic scalars, so the same maps can be
differentiated with dual numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import mat_mul, value_of
from .catalog import PhaseState, full_params, lookup
from .fuchsian import FuchsianSystem

__all__ = [
    "Parametrization",
    "UnsupportedAssemblyError",
    "parametrization",
    "assemble",
    "SUPPORTED",
]


class UnsupportedAssemblyError(NotImplementedError):
    """No printed residue parametrization for this system."""


def _outer(u, v):
    return tuple(tuple(ui * vj for vj in v) for ui in u)


@dataclass(frozen=True)
class Parametrization:
    n_bc_pairs: int
    bc_from_state: callable        # (par, q, p, t) -> (b tuple, c tuple)
    state_from_bc: callable        # (par, b, c, t) -> (q tuple, p tuple)
    matrices_from_bc: callable     # (par, b, c) -> tuple of generic matrices


# ---------------------------------------------------------------------------
# 21,21,21,21,111  (L = 3, two times, four bc pairs)
# ---------------------------------------------------------------------------

_MIN_DENOM = 1e-8


def _need(value, what):
    if abs(value_of(value)) < _MIN_DENOM:
        raise ValueError(f"degenerate configuration: |{what}| < {_MIN_DENOM}")
    return value


def _bc_21x4(par, q, p, t):
    q1, q2, q3 = q
    p1, p2, p3 = p
    t1, t2 = t
    D = par["rho2"] - par["rho3"]
    W = t2 * p2 - q3 * p1
    _need(D, "rho2 - rho3")
    _need(W, "t2*p2 - q3*p1")
    r3 = par["rho3"]
    # the factor multiplying (q3 p3 - rho3) in b3 is (t2 p2 - q3 p1): the
    # opposite choice breaks the two dependent-variable relations
    b = (t1 * p1 - t1 * p3 * W / D,
         t1 * p3 * W / D,
         t2 * p2 - (q3 * p3 - r3) * W / D,
         (q3 * p3 - r3) * W / D)
    c = (-q1 / t1,
         -(q3 / t1) * D / W - q1 / t1,
         -q2 / t2,
         -q2 / t2 + D / W)
    return b, c


def _state_21x4(par, b, c, t):
    b1, b2, b3, b4 = b
    c1, c2, c3, c4 = c
    t1, t2 = t
    q = (-t1 * c1, -t2 * c3, -t1 * (c2 - c1) / (c4 - c3))
    p = ((b1 + b2) / t1, (b3 + b4) / t2, b2 * (c4 - c3) / t1)
    return q, p


def _mats_21x4(par, b, c):
    b1, b2, b3, b4 = b
    c1, c2, c3, c4 = c
    th1, th2, th3, th4 = par["theta1"], par["theta2"], par["theta3"], par["theta4"]
    r2, r3 = par["rho2"], par["rho3"]
    a1 = -r2 - b1 * c1 - b3 * c3
    a2 = -r3 - b2 * c2 - b4 * c4
    a3 = -c1 - c3 - 1
    a4 = -c2 - c4 - 1
    A1 = _outer((1, b1, b2), (th1 - b1 * c1 - b2 * c2, c1, c2))
    A2 = _outer((1, b3, b4), (th2 - b3 * c3 - b4 * c4, c3, c4))
    A3 = _outer((1, a1, a2), (th3 - a1 - a2, 1, 1))
    A4 = _outer((1, 0, 0), (th4, a3, a4))
    return A1, A2, A3, A4


# ---------------------------------------------------------------------------
# 31,31,22,22,22  (L = 4, two times, three bc pairs)
# ---------------------------------------------------------------------------


def _bc_3131(par, q, p, t):
    q1, q2, q3 = q
    p1, p2, p3 = p
    t1, t2 = t
    c1 = -q1 / t1
    c3 = -q2 / t2
    b2 = t1 * t2 * p3
    b1 = t1 * p1 - b2 * c3
    b3 = t2 * p2 - b2 * c1
    c2 = c1 * c3 - q3 / (t1 * t2)
    return (b1, b2, b3), (c1, c2, c3)


def _state_3131(par, b, c, t):
    b1, b2, b3 = b
    c1, c2, c3 = c
    t1, t2 = t
    q = (-t1 * c1, -t2 * c3, t1 * t2 * (-c2 + c1 * c3))
    p = ((b1 + b2 * c3) / t1, (b3 + b2 * c1) / t2, b2 / (t1 * t2))
    return q, p


def _mats_3131(par, b, c):
    b1, b2, b3 = b
    c1, c2, c3 = c
    th1, th2, th3, th4 = par["theta1"], par["theta2"], par["theta3"], par["theta4"]
    r1, r2 = par["rho1"], par["rho2"]
    K1 = th1 + th3 + th4 + r1
    a4 = K1 - b1 * c1 - b2 * c2
    a2 = b2 * c2 - K1 - r2
    a7 = -r2 - b2 * c2 - b3 * c3
    a3 = -b2 * c1 - b3
    a6 = a3
    a1 = -b1 * c2 - a2 * c3
    a5 = a1
    a8, a9, a10, a11 = -c1 - 1, -c2, -1, -c3 - 1
    A1 = _outer((1, 0, b1, b2), (th1 - b1 * c1 - b2 * c2, a1, c1, c2))
    A2 = _outer((0, 1, a2, b3), (a3, th2 - a2 - b3 * c3, 1, c3))
    B3 = ((1, 0), (0, 1), (a4, a5), (a6, a7))
    C3 = ((th3 - a4, -a5, 1, 0), (-a6, th3 - a7, 0, 1))
    B4 = ((1, 0), (0, 1), (0, 0), (0, 0))
    C4 = ((th4, 0, a8, a9), (0, th4, a10, a11))
    return A1, A2, mat_mul(B3, C3), mat_mul(B4, C4)


# ---------------------------------------------------------------------------
# 21,111,111,111  (L = 3, one time, four bc pairs)
# ---------------------------------------------------------------------------


def _bc_21_111(par, q, p, t):
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    th21, th22, th32 = par["theta21"], par["theta22"], par["theta32"]
    r2, r3 = par["rho2"], par["rho3"]
    S = q1 * p1 + q2 * p2 + (q3 - 1) * p3 - (th22 + th32 + r2 + r3)
    G = -q2 * p2 + S + r3
    den = -q3 * G - th22 * (q3 - 1)
    _need(den, "inverse-map denominator")
    v = (th22 - th21) / den
    _need(v, "c4 + 1")
    b = (tt * p1 / v, tt * p2 / v, p3 / v, S / v)
    c = (-q1 * v / tt, -q2 * v / tt, -(q3 - 1) * v - 1, v - 1)
    return b, c


def _state_21_111(par, b, c, t):
    b1, b2, b3, b4 = b
    c1, c2, c3, c4 = c
    (tt,) = t
    v = c4 + 1
    q = (-tt * c1 / v, -tt * c2 / v, 1 - (c3 + 1) / v)
    p = (b1 * v / tt, b2 * v / tt, b3 * v)
    return q, p


def _mats_21_111(par, b, c):
    b1, b2, b3, b4 = b
    c1, c2, c3, c4 = c
    th1, th21, th22 = par["theta1"], par["theta21"], par["theta22"]
    th31, th32 = par["theta31"], par["theta32"]
    a3 = th21 - c3 * b3 - c4 * b4
    a4 = -b3 - b4
    _need(c4 - c3, "c4 - c3")
    a2 = (-a3 - c3 * (th22 + b3 + b4)) / (c4 - c3)
    a1 = th22 + b3 + b4 - a2
    a5 = -c1 - c3 - 1
    a6 = -c2 - c4 - 1
    a7 = -b1 * c2 - b3 * c4 - a1
    A1 = _outer((1, b1, b2), (th1 - b1 * c1 - b2 * c2, c1, c2))
    B2 = ((1, 1), (b3, a1), (b4, a2))
    C2 = ((a3, c3, c4), (a4, 1, 1))
    A3 = mat_mul(((1, 0), (0, 1), (0, 0)), ((th31, a5, a6), (0, th32, a7)))
    return A1, mat_mul(B2, C2), A3


# ---------------------------------------------------------------------------
# 31,22,211,1111  (L = 4, one time, four bc pairs)
# ---------------------------------------------------------------------------


def _bc_3122(par, q, p, t):
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    th2, th32 = par["theta2"], par["theta32"]
    r2, r3, r4 = par["rho2"], par["rho3"], par["rho4"]
    K = th2 + th32 + r2 + r4
    _need(q1, "q1")
    lam1 = tt / q1
    lam3 = q1 * q3 / (tt * tt)
    mu3 = tt * tt * p3 / q1
    mu1 = (-tt * p1 / lam1 + lam3 * mu3 - K) / lam1
    lam2 = q2 / tt
    mu2 = tt * p2
    b1, c1, c2 = lam1, mu1, -lam2
    den = b1 * c1 + K - lam3 * mu3 - lam3 * mu2
    _need(den, "inverse-map denominator")
    u = (r3 - r4) / den
    _need(u, "c4 - 1")
    b3 = mu3 / u
    b2 = mu2 - b3
    c3 = c2 - lam3 * u
    b4 = (lam3 * mu3 - r4) / u
    c4 = u + 1
    return (b1, b2, b3, b4), (c1, c2, c3, c4)


def _state_3122(par, b, c, t):
    b1, b2, b3, b4 = b
    c1, c2, c3, c4 = c
    (tt,) = t
    th2, th32 = par["theta2"], par["theta32"]
    r2, r4 = par["rho2"], par["rho4"]
    lam1, mu1 = b1, c1
    lam2, mu2 = -c2, b2 + b3
    u = c4 - 1
    lam3 = -(c3 - c2) / u
    mu3 = b3 * u
    q = (tt / lam1, tt * lam2, tt * lam1 * lam3)
    p = (-lam1 * (lam1 * mu1 - lam3 * mu3 + th2 + th32 + r2 + r4) / tt,
         mu2 / tt,
         mu3 / (lam1 * tt))
    return q, p


def _mats_3122(par, b, c):
    b1, b2, b3, b4 = b
    c1, c2, c3, c4 = c
    th1, th2 = par["theta1"], par["theta2"]
    th31, th32 = par["theta31"], par["theta32"]
    r1, r2, r3, r4 = par["rho1"], par["rho2"], par["rho3"], par["rho4"]
    S1 = th1 + th2 + th31 + r1 - (b1 * c1 + b2 * c2 + b3 * c3)
    a2 = r2 + th2 + th32 + b1 * c1 - b4 * c4
    a1 = -r3 - b2 * c2 - a2
    a3 = S1 - a1
    a4 = a2 + b4 - c1
    a5 = -c2 - 1
    a6 = -c3 - 1
    a7 = -b1 * c2 - 1
    a8 = -b1 * c3 - c4
    A1 = _outer((1, b1, b2, b3),
                (th1 - b1 * c1 - b2 * c2 - b3 * c3, c1, c2, c3))
    B2 = ((1, 0), (0, 1), (a1, a2), (a3, b4))
    C2 = ((th2 - a1 - a3, -a2 - b4, 1, 1),
          (-a1 - c4 * a3, th2 - a2 - b4 * c4, 1, c4))
    A3 = mat_mul(((1, 0), (0, 1), (0, 0), (0, 0)),
              ((th31, a4, a5, a6), (0, th32, a7, a8)))
    return A1, mat_mul(B2, C2), A3


# ---------------------------------------------------------------------------
# 22,22,211,211  (L = 4, one time, three bc pairs)
# ---------------------------------------------------------------------------


def _bc_2222(par, q, p, t):
    return tuple(-z for z in p), tuple(q)


def _state_2222(par, b, c, t):
    return tuple(c), tuple(-z for z in b)


def _blocks_2222(par, b, c):
    q1, q2, q3 = c
    p1, p2, p3 = (-z for z in b)
    th1, th2 = par["theta1"], par["theta2"]
    th31, th32 = par["theta31"], par["theta32"]
    r2, r3 = par["rho2"], par["rho3"]
    a1 = -q2 * p2 - (th1 + th2 + th32 + r2 + r3)
    B1 = ((-p1, -p2), (a1, -p3))
    C1 = ((q1, 1), (q2, q3))
    B1C1 = mat_mul(B1, C1)
    B2 = tuple(tuple(-x - (r3 if i == j else 0) for j, x in enumerate(row))
               for i, row in enumerate(B1C1))
    a6 = -(q1 - q3) * p2 + p1 - p3
    C31 = ((th31, a6), (0, th32))
    C32 = tuple(tuple(-x - (1 if i == j else 0) for j, x in enumerate(row))
                for i, row in enumerate(C1))
    return B1, C1, B2, C31, C32


def _mats_2222(par, b, c):
    B1, C1, B2, C31, C32 = _blocks_2222(par, b, c)
    th1, th2 = par["theta1"], par["theta2"]

    def block4(tl, tr, bl, br):
        rows = []
        for i in range(2):
            rows.append(tuple(tl[i]) + tuple(tr[i]))
        for i in range(2):
            rows.append(tuple(bl[i]) + tuple(br[i]))
        return tuple(rows)

    I2 = ((1, 0), (0, 1))
    Z2 = ((0, 0), (0, 0))
    C1B1 = mat_mul(C1, B1)
    tl1 = tuple(tuple((th1 if i == j else 0) - C1B1[i][j] for j in range(2))
                for i in range(2))
    A1 = block4(tl1, C1, mat_mul(B1, tl1), mat_mul(B1, C1))
    tl2 = tuple(tuple((th2 if i == j else 0) - B2[i][j] for j in range(2))
                for i in range(2))
    A2 = block4(tl2, I2, mat_mul(B2, tl2), B2)
    A3 = block4(C31, C32, Z2, Z2)
    return A1, A2, A3


_TABLE = {
    "21,21,21,21,111": Parametrization(4, _bc_21x4, _state_21x4, _mats_21x4),
    "31,31,22,22,22": Parametrization(3, _bc_3131, _state_3131, _mats_3131),
    "21,111,111,111": Parametrization(
        4, _bc_21_111, _state_21_111, _mats_21_111),
    "31,22,211,1111": Parametrization(4, _bc_3122, _state_3122, _mats_3122),
    "22,22,211,211": Parametrization(3, _bc_2222, _state_2222, _mats_2222),
}

SUPPORTED = tuple(_TABLE)


def parametrization(sid: str) -> Parametrization:
    try:
        return _TABLE[sid]
    except KeyError:
        raise UnsupportedAssemblyError(
            f"no residue parametrization for system {sid!r}") from None


def assemble(sid: str, params, state: PhaseState) -> FuchsianSystem:
    """Residue matrices realizing the system's Riemann scheme at a state."""
    desc = lookup(sid)
    pz = parametrization(sid)
    par = full_params(sid, params)
    b, c = pz.bc_from_state(par, state.q, state.p, state.t)
    mats = pz.matrices_from_bc(par, b, c)
    residues = np.array([[[complex(x) for x in row] for row in m]
                         for m in mats])
    return FuchsianSystem(points=state.t + (1.0, 0.0), residues=residues)
