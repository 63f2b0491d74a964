"""Closed-form Hamiltonians of the catalog systems.

Each function evaluates one Hamiltonian at ``(q, p, t)`` with a parameter
dict ``par`` (keys like ``alpha0``, ``theta1``, ``rho3``, ``eta``).  All
formulas are polynomial in the canonical variables: the 1/(q-*) factors
of the classical sixth-Painleve Hamiltonian are cleared, so evaluation
works verbatim over dual scalars and is safe at q = 0, 1, t.  Time
variables appear through 1/t_i, 1/(t_i-1), 1/(t_i-t_j) coefficients only.

Multi-time systems take the time index ``i`` (1-based) as first argument.
Trace-form systems build their small matrix blocks and take the printed
trace expression directly.
"""

from __future__ import annotations

from .algebra import mat_mul, mat_shift, mat_smul, mat_trace

__all__ = ["hvi", "HAMILTONIANS"]


def hvi(a0, a1, a3, a4, q, p, t):
    """Sixth-Painleve Hamiltonian block, polynomial form.

    The fifth parameter is fixed by a0+a1+2*a2+a3+a4 = 1.
    """
    a2 = (1 - a0 - a1 - a3 - a4) / 2
    return (
        q * (q - 1) * (q - t) * p * p
        - ((a1 - 1) * q * (q - 1) + a3 * q * (q - t) + a4 * (q - 1) * (q - t)) * p
        + a2 * (a0 + a2) * q
    )


# ---------------------------------------------------------------------------
# two deformation times, two canonical pairs (dimension 4 base system)
# ---------------------------------------------------------------------------


def h_11_11_11_11_11(i, par, q, p, t):
    """H_i of the five-point system with spectral type 11,11,11,11,11."""
    a0, a3, a4, a5 = par["alpha0"], par["alpha3"], par["alpha4"], par["alpha5"]
    ai = (par["alpha1"], par["alpha2"])
    j = 2 if i == 1 else 1
    qi, pi, ti = q[i - 1], p[i - 1], t[i - 1]
    qj, pj, tj = q[j - 1], p[j - 1], t[j - 1]
    q1q2 = q[0] * q[1]
    p1p2 = p[0] * p[1]
    return (
        hvi(a5 + 1, ai[j - 1] + a3, a4, ai[i - 1], qi, pi, ti)
        + q1q2 * pj * (2 * qi * pi + qj * pj + 2 * a0 + a5 + 1)
        - (1 / (ti - tj)) * q1q2 * (
            ti * (ti - 1) * pi * pi
            - 2 * ti * (tj - 1) * p1p2
            + (ti - 1) * tj * pj * pj
        )
        + ai[i - 1] * (ti / (ti - tj)) * qj * ((ti - 1) * pi - (tj - 1) * pj)
        - ai[j - 1] * ((ti - 1) * tj / (ti - tj)) * qi * (pi - pj)
    )


# ---------------------------------------------------------------------------
# three deformation times (six singular points)
# ---------------------------------------------------------------------------


def h_11_11_11_11_11_11(i, par, q, p, t):
    """H_i of the six-point system, i = 1, 2, 3 cyclic.

    The published display omits the triple coupling 2*q1*q2*q3*p_{i+1}p_{i-1};
    without it the three time flows do not commute and the matrix-flow
    correspondence fails, so it is restored here.
    """
    a0, a4, a5, a6 = par["alpha0"], par["alpha4"], par["alpha5"], par["alpha6"]
    ai = (par["alpha1"], par["alpha2"], par["alpha3"])
    ip = i % 3 + 1
    im = (i - 2) % 3 + 1
    qi, pi, ti = q[i - 1], p[i - 1], t[i - 1]
    out = hvi(a6 + 1, ai[ip - 1] + ai[im - 1] + a4, a5, ai[i - 1], qi, pi, ti)
    for k in (ip, im):
        qk, pk, tk = q[k - 1], p[k - 1], t[k - 1]
        out = out + (
            qi * qk * pk * (2 * qi * pi + qk * pk + 2 * a0 + a6 + 1)
            - (1 / (ti - tk)) * qi * qk * (
                ti * (ti - 1) * pi * pi
                - 2 * ti * (tk - 1) * pi * pk
                + (ti - 1) * tk * pk * pk
            )
            + ai[i - 1] * (ti / (ti - tk)) * qk * ((ti - 1) * pi - (tk - 1) * pk)
            - ai[k - 1] * ((ti - 1) * tk / (ti - tk)) * qi * (pi - pk)
        )
    out = out + 2 * q[0] * q[1] * q[2] * p[ip - 1] * p[im - 1]
    return out


# ---------------------------------------------------------------------------
# six-dimensional systems with two deformation times
# ---------------------------------------------------------------------------


def h_21_21_21_21_111(i, par, q, p, t):
    a0, a1, a2 = par["alpha0"], par["alpha1"], par["alpha2"]
    a3, a4, a5 = par["alpha3"], par["alpha4"], par["alpha5"]
    r3 = par["rho3"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    t1, t2 = t
    base = h_11_11_11_11_11(i, par, (q1, q2), (p1, p2), (t1, t2))
    if i == 1:
        return (
            base
            + ((t1 - 1) / (t1 - t2)) * (
                q3 * (q3 - t2) * (q3 - t1) * p3 * p3
                - p3 * (
                    (a0 + a3 + a5) * q3 * (q3 - t2)
                    + (a0 + a4 + r3) * q3 * (q3 - t1)
                    + a1 * (q3 - t2) * (q3 - t1)
                )
            )
            - (a0 + a5 + 1) * q3 * p3
            - ((t1 - 1) / (t1 - t2)) * a2 * r3 * q3
            + (1 / t2) * q2 * q3 * (q1 * p1 + q2 * p2 + a0 + a5 + 1) * (q3 * p3 - r3)
            + q1 * q3 * p3 * (q1 * p1 + q2 * p2 + a0 + a5 + 1)
            + (1 / (t2 * (t1 - t2))) * q2 * q3
            * (t1 * (t2 - 1) * p1 - (t1 - 1) * t2 * p2) * (q3 * p3 - r3)
            + (1 / (t1 - t2)) * q3 * p3 * (
                -(t1 * t1 + t1 - 2 * t2) * q1 * p1
                - t1 * (t1 - 1) * q2 * p1
                + (t1 - 1) * t2 * q1 * p2
                + t1 * (t2 - 1) * q2 * p2
            )
            + (t1 / (t1 - t2)) * p3 * (
                (t1 - 1) * t2 * q1 * p1
                - (t1 - 1) * t2 * q1 * p2
                + (t1 - t2) * q3 * p1
            )
        )
    # The three terms carrying the factor (q2p2+q1p1+a0+a5+1) or the bare
    # (a0+a5+1)q3p3 enter with the opposite sign to the published display;
    # the signs here are the ones forced by the matrix-flow derivation
    # (the published ones break the commutation of the two time flows).
    return (
        base
        + r3 * q2 * ((q2 - 1) * p2 + q1 * p1 + a0 + a5 + 1)
        + ((t2 - 1) / (t2 - t1)) * (
            q3 * (q3 - t1) * (q3 - t2) * p3 * p3
            - p3 * (
                (a0 + a4 + r3 - 1) * q3 * (q3 - t1)
                + (a0 + a3 + a5 + 1) * q3 * (q3 - t2)
                + a1 * (q3 - t1) * (q3 - t2)
            )
        )
        + (a0 + a5 + 1) * q3 * p3
        - ((t2 - 1) / (t2 - t1)) * a2 * r3 * q3
        - q2 * q3 * p3 * (q2 * p2 + q1 * p1 + a0 + a5 + 1)
        - ((t2 - 1) / (t2 - t1)) * q2 * q3 * (p2 - p1) * (q3 * p3 - r3)
        - t2 * q1 * p3 * (q2 * p2 + q1 * p1 + a0 + a5 + 1)
        + (1 / (t2 - t1)) * q3 * p3 * (
            (t2 * t2 + t2 - 2 * t1) * q2 * p2
            + t2 * (t2 - 1) * q1 * p2
            - (t2 - 1) * t1 * q2 * p1
            - t2 * (t1 - 1) * q1 * p1
        )
        + (t2 / (t2 - t1)) * p3 * (
            -t2 * (t1 - 1) * q1 * p2
            + (t2 - 1) * t1 * q1 * p1
            - (t2 - t1) * q3 * p2
        )
    )


def h_31_31_22_22_22(i, par, q, p, t):
    a0, a1, a2 = par["alpha0"], par["alpha1"], par["alpha2"]
    a3, a4, a5 = par["alpha3"], par["alpha4"], par["alpha5"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    t1, t2 = t
    j = 2 if i == 1 else 1
    qi, pi, ti = q[i - 1], p[i - 1], t[i - 1]
    qj, pj, tj = q[j - 1], p[j - 1], t[j - 1]
    base = h_11_11_11_11_11(i, par, (q1, q2), (p1, p2), (t1, t2))
    out = (
        base
        - (a1 - a2) * (t1 / (t1 - t2)) * q2 * ((ti - 1) * pi - (t2 - 1) * pj)
        - (ti + 1) * q3 * q3 * p3 * p3
        + (a1 + a3 - 1 + (a1 + a4) * ti) * q3 * p3
        + qi * q3 * p3 * (2 * q1 * p1 + 2 * q2 * p2 + q3 * p3 + 2 * a0 + a5 + 1)
        - q3 * pj * (2 * qi * pi + qj * pj + 2 * q3 * p3 + 2 * a0 + a2 + a5 + 1)
        - 2 * (ti + 1) * qi * q3 * pi * p3
        + ti * qj * p3 * (q3 * p3 - a1 + a2)
        + 2 * ti * q3 * pi * p3
        + (1 / (ti - tj)) * q3 * (
            ti * (ti - 1) * pi * pi
            - 2 * ti * (tj - 1) * p1 * p2
            + (ti - 1) * tj * pj * pj
        )
    )
    if i == 2:
        out = out + (a1 - a2) * t2 * (q2 - 1) * p2
    return out


# ---------------------------------------------------------------------------
# six-dimensional systems with one deformation time
# ---------------------------------------------------------------------------


def h_21_111_111_111(par, q, p, t):
    a1, a3, a5 = par["alpha1"], par["alpha3"], par["alpha5"]
    eta, th21 = par["eta"], par["theta21"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    return (
        h_21_21_111_111(par, (q1, q2), (p1, p2), t)
        + q1 * q3 * p3 * (2 * q1 * p1 + q2 * p2 + q3 * p3 + a1 + eta)
        - q2 * q3 * p3 * (q1 * p1 + q3 * p3 - a5 + eta)
        + tt * q2 * q3 * p1 * (q1 * p1 + q2 * p2 + q3 * p3 + eta)
        + (q1 - q2) * (tt * p1 - p3) * (q3 * p3 + th21)
        - q1 * q3 * p3 * (tt * p1 + p2)
        - tt * q3 * p1 * (q1 * p1 + q2 * p2 - a3 + eta)
    )


def h_31_22_211_1111(par, q, p, t):
    a0, a1, a2 = par["alpha0"], par["alpha1"], par["alpha2"]
    a3, a4, a5 = par["alpha3"], par["alpha4"], par["alpha5"]
    eta, r4 = par["eta"], par["rho4"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    # The middle factor of the t*q2*p3 coupling reads (q1p1 - q3p3 + a1):
    # the published display carries an extra -q2p2 there, which destroys
    # both the invariant submanifold of the momentum-type specialization
    # and the matrix-flow correspondence; dropping it restores both.
    return (
        h_21_21_111_111(par, (q1, q2), (p1, p2), t)
        - r4 * (a5 - eta + r4) * q2
        + hvi(-a5 + eta - 2 * r4, a0, a2 + a3 + a4 + eta, a1, q3, p3, tt)
        - (1 / tt) * q1 * q3 * (q3 * p3 - r4) * (q3 * p3 + a5 - eta + r4)
        - q1 * q3 * p3 * (2 * q1 * p1 + q2 * p2 - q3 * p3 + a1 + eta)
        + q2 * q3 * p3 * (2 * q1 * p1 + q2 * p2 + q3 * p3 + a5)
        + tt * q2 * p3 * (q1 * p1 - q3 * p3 + a1)
        + q3 * p3 * ((tt + 1) * q1 * p1 - 2 * tt * q2 * p1 + q1 * p2 - q2 * p2)
        - tt * p1 * p3 * (q1 - tt * q2)
    )


def _painleve_trace(Q, P, a0, a1, a2, a3, a4, t):
    """tr{Q(Q-1)P(Q-t)P - (a1-1)Q(Q-1)P - a3*Q(Q-t)P - a4*(Q-1)(Q-t)P
    + a2*(a0+a2)*Q}, the matrix sixth-Painleve expression."""
    Qm1 = mat_shift(Q, -1)
    Qmt = mat_shift(Q, -t)
    QQm1P = mat_mul(mat_mul(Q, Qm1), P)
    out = mat_trace(mat_mul(mat_mul(QQm1P, Qmt), P))
    out = out - (a1 - 1) * mat_trace(QQm1P)
    out = out - a3 * mat_trace(mat_mul(mat_mul(Q, Qmt), P))
    out = out - a4 * mat_trace(mat_mul(mat_mul(Qm1, Qmt), P))
    out = out + a2 * (a0 + a2) * mat_trace(Q)
    return out


def _pq_22_22(par, q, p, t, swap_corners):
    """The 2x2 P, Q blocks shared by the 22,22,* trace Hamiltonians.

    The diagonal of P follows the corner order of Q: the pair (q1, p1)
    and the pair (q3, p3) occupy the same matrix slot.
    """
    a2, a5 = par["alpha2"], par["alpha5"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    if swap_corners:
        P = mat_smul(-1 / t, ((p3, p2), (q2 * p2 - a2 - a5, p1)))
        Q = mat_smul(-t, ((q3, 1), (q2, q1)))
    else:
        P = mat_smul(-1 / t, ((p1, p2), (q2 * p2 - a2 - a5, p3)))
        Q = mat_smul(-t, ((q1, 1), (q2, q3)))
    return P, Q


def h_22_22_211_211(par, q, p, t):
    a0, a1, a2 = par["alpha0"], par["alpha1"], par["alpha2"]
    a3, a4 = par["alpha3"], par["alpha4"]
    th32 = par["theta32"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    P, Q = _pq_22_22(par, q, p, tt, swap_corners=False)
    R = ((0, -(q1 - q3) * p2 + p1 - p3), (0, a1 + th32 - 1))
    out = _painleve_trace(Q, P, a0, a1, a2, a3, a4, tt)
    QP = mat_mul(Q, P)
    out = out + (tt - 1) * mat_trace(mat_mul(R, mat_shift(QP, -a4)))
    return out


def h_22_22_22_1111(par, q, p, t):
    a0, a1, a2 = par["alpha0"], par["alpha1"], par["alpha2"]
    a3, a4 = par["alpha3"], par["alpha4"]
    r4 = par["rho4"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    P, Q = _pq_22_22(par, q, p, tt, swap_corners=True)
    R = ((a2 + r4, -(q1 - q3) * p2 + p1 - p3), (0, 0))
    out = _painleve_trace(Q, P, a0, a1, a2, a3, a4, tt)
    QP = mat_mul(Q, P)
    PQ = mat_mul(P, Q)
    QPpPQ = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(QP, PQ))
    out = out - mat_trace(mat_mul(mat_mul(R, QPpPQ), mat_shift(Q, -tt)))
    out = out - (a0 + a2 - r4) * mat_trace(mat_mul(R, Q))
    return out


def h_42_33_33_222(par, q, p, t):
    th1, th2, th3 = par["theta1"], par["theta2"], par["theta3"]
    r2, r3 = par["rho2"], par["rho3"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    half = (th1 - th2 + 2 * r2) / 2
    return (
        hvi(th1 + th2 + r2,
            th1 + 2 * th2 + th3 + r2 + 2 * r3 + 1,
            -th1 - th3,
            -th1 - th2 - 2 * r2 - 2 * r3,
            q1, p1, tt)
        + q1 * p1 * (tt * p1 + r2)
        - half * q2 * p2
        + hvi(-half,
              -(th1 + th2 + 2 * th3 + 2 * r2) / 2,
              th1 + 2 * th2 + th3 + 2 * r3 + 1,
              2 * r2,
              q2, p2, tt)
        - 2 * (tt + 1) * q3 * q3 * p3 * p3
        + (-th1 - th2 - 2 * th3 - 1
           + (3 * th1 + 3 * th2 + 2 * th3 + 4 * r2 + 4 * r3 + 1) * tt) * q3 * p3
        - q1 * q3 * (q1 * p1 - th2) * (q1 * p1 + th1 + r2)
        - q1 * q2 * p1 * (q1 * p1 + half)
        + q2 * q3 * p3 * (2 * q2 * p2 + q3 * p3 - (th1 + 3 * th2 + 2 * r2 + 4 * r3) / 2)
        + tt * q3 * p2 * (-2 * q1 * p1 + 3 * q2 * p2 + 4 * q3 * p3
                          - 2 * th1 - 2 * th2 - 2 * r2 - 4 * r3)
        + q2 * p3 * (2 * q1 * p1 - q3 * p3 + half)
        + 2 * (tt + 1) * q3 * p3 * (q1 * p1 - q2 * p2)
        - 2 * tt * ((tt + 1) * q3 * p2 * p2 + p1 * p2 * (q1 + q2)
                    + q3 * p3 * (p1 - 2 * p2))
        + 2 * tt * p1 * ((tt + 1) * p2 - p3)
    )


def h_51_33_222_222(par, q, p, t):
    a0, a1, a2, a3 = par["alpha0"], par["alpha1"], par["alpha2"], par["alpha3"]
    a4, a5, a6 = par["alpha4"], par["alpha5"], par["alpha6"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    f1 = (q1 - 1) * p1 + a2
    f2 = (q2 - 1) * p2 + a4
    f3 = (q3 - 1) * p3 + a6
    return (
        hvi(a3, -a1 - 2 * a2 - 2 * a3 + 1, a1, a3, q1, p1, tt)
        + hvi(a3, -2 * a3 - 2 * a4 - a5 + 1, a5, a3, q2, p2, tt)
        + hvi(a3, -a0 - 2 * a3 - 2 * a6 + 1, a0, a3, q3, p3, tt)
        + f1 * f2 * (q1 * q2 + tt)
        + f2 * f3 * (q2 * q3 + tt)
        + f3 * f1 * (q3 * q1 + tt)
    )


def h_31_31_1111_1111(par, q, p, t):
    a0, a1, a2, a3 = par["alpha0"], par["alpha1"], par["alpha2"], par["alpha3"]
    a4, a5, a6, a7 = par["alpha4"], par["alpha5"], par["alpha6"], par["alpha7"]
    eta = par["eta"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    return (
        hvi(-a1 + eta, a2 + a4 + a6, a0, a3 + a5 + a7 - eta, q1, p1, tt)
        + hvi(-a3 + eta, a4 + a6, a0 + a2, a1 + a5 + a7 - eta, q2, p2, tt)
        + hvi(-a5 + eta, a6, a0 + a2 + a4, a1 + a3 + a7 - eta, q3, p3, tt)
        + (q1 - 1) * (q2 - tt) * ((q1 * p1 + a1) * p2 + p1 * (p2 * q2 + a3))
        + (q1 - 1) * (q3 - tt) * ((q1 * p1 + a1) * p3 + p1 * (p3 * q3 + a5))
        + (q2 - 1) * (q3 - tt) * ((q2 * p2 + a3) * p3 + p2 * (p3 * q3 + a5))
    )


def h_33_33_33_321(par, q, p, t):
    a0, a1, a2 = par["alpha0"], par["alpha1"], par["alpha2"]
    a3, a4, a5 = par["alpha3"], par["alpha4"], par["alpha5"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    w = q3 - q1 ** 3
    P = mat_smul(-1 / tt, (
        (p1 / 3 + q1 * q1 * p3,
         (2 * q2 * p2) / 3 + w * p3 + 2 * a2 + 2 * a5,
         (w * p2) / 3 + 2 * q2 * q2 * p3),
        (p2 / 3,
         p1 / 3 + (q2 + q1 * q1) * p3,
         (q2 * p2) / 3 + w * p3 + a2 + a5),
        (p3,
         p2 / 3,
         p1 / 3 - (q2 - q1 * q1) * p3),
    ))
    Q = mat_smul(-tt, ((q1, 2 * q2, w), (1, q1, q2), (0, 1, q1)))
    return _painleve_trace(Q, P, a0, a1, a2, a3, a4, tt)


def h_51_33_33_111111(par, q, p, t):
    a0, a1, a2, a3, a4 = (par["alpha0"], par["alpha1"], par["alpha2"],
                          par["alpha3"], par["alpha4"])
    a5, a6, a7, a8 = par["alpha5"], par["alpha6"], par["alpha7"], par["alpha8"]
    q1, q2, q3 = q
    p1, p2, p3 = p
    (tt,) = t
    return (
        hvi(a0, a1, a3 + 2 * a4 + a5 + 2 * a6 + a7, a3 + a5 + a8, q1, p1, tt)
        + hvi(a0 + 2 * a2 + a3, a1 + a3, 2 * a4 + a5 + 2 * a6 + a7, a5 + a8,
              q2, p2, tt)
        + hvi(a0 + 2 * a2 + a3 + 2 * a4 + a5, a1 + a3 + a5, 2 * a6 + a7, a8,
              q3, p3, tt)
        + 2 * (q1 - tt) * p1 * q2 * ((q2 - 1) * p2 + a4)
        + 2 * (q1 - tt) * p1 * q3 * ((q3 - 1) * p3 + a6)
        + 2 * (q2 - tt) * p2 * q3 * ((q3 - 1) * p3 + a6)
    )


# ---------------------------------------------------------------------------
# four-dimensional systems with one deformation time
# ---------------------------------------------------------------------------


def h_21_21_111_111(par, q, p, t):
    a0, a1, a2, a3 = par["alpha0"], par["alpha1"], par["alpha2"], par["alpha3"]
    a4, a5, eta = par["alpha4"], par["alpha5"], par["eta"]
    q1, q2 = q[0], q[1]
    p1, p2 = p[0], p[1]
    (tt,) = t
    return (
        hvi(-a1 + eta, a2, a0 + a4, a3 + a5 - eta, q1, p1, tt)
        + hvi(-a5 + eta, a0 + a2, a4, a1 + a3 - eta, q2, p2, tt)
        + (q1 - tt) * (q2 - 1) * ((q1 * p1 + a1) * p2 + p1 * (q2 * p2 + a5))
    )


def h_22_22_22_211(par, q, p, t):
    a0, a1, a2 = par["alpha0"], par["alpha1"], par["alpha2"]
    a3, a4, a5 = par["alpha3"], par["alpha4"], par["alpha5"]
    q1, q2 = q[0], q[1]
    p1, p2 = p[0], p[1]
    (tt,) = t
    P = mat_smul(1 / tt, ((p1 / 2, -p2), (q2 * p2 + a2 + a5, p1 / 2)))
    Q = mat_smul(tt, ((-q1, -1), (q2, -q1)))
    return _painleve_trace(Q, P, a0, a1, a2, a3, a4, tt)


def h_31_22_22_1111(par, q, p, t):
    a0, a1, a2, a3 = par["alpha0"], par["alpha1"], par["alpha2"], par["alpha3"]
    a4, a5, a6 = par["alpha4"], par["alpha5"], par["alpha6"]
    q1, q2 = q[0], q[1]
    p1, p2 = p[0], p[1]
    (tt,) = t
    return (
        hvi(a0, a1, a3 + 2 * a4 + a5, a3 + a6, q1, p1, tt)
        + hvi(a0 + 2 * a2 + a3, a1 + a3, a5, a6, q2, p2, tt)
        + 2 * (q1 - tt) * p1 * q2 * ((q2 - 1) * p2 + a4)
    )


# ---------------------------------------------------------------------------
# the classical second-order case
# ---------------------------------------------------------------------------


def h_11_11_11_11(par, q, p, t):
    return hvi(par["alpha0"], par["alpha1"], par["alpha3"], par["alpha4"],
               q[0], p[0], t[0])


def _fix_time(h):
    """Adapt a single-time Hamiltonian to the (i, par, q, p, t) signature."""

    def wrapped(i, par, q, p, t):
        if i != 1:
            raise ValueError("this system has a single deformation time")
        return h(par, q, p, t)

    return wrapped


#: system id -> callable(i, par, q, p, t)
HAMILTONIANS = {
    "11,11,11,11": _fix_time(h_11_11_11_11),
    "21,21,21,21,111": h_21_21_21_21_111,
    "31,31,22,22,22": h_31_31_22_22_22,
    "21,111,111,111": _fix_time(h_21_111_111_111),
    "31,22,211,1111": _fix_time(h_31_22_211_1111),
    "22,22,211,211": _fix_time(h_22_22_211_211),
    "22,22,22,1111": _fix_time(h_22_22_22_1111),
    "42,33,33,222": _fix_time(h_42_33_33_222),
    "51,33,222,222": _fix_time(h_51_33_222_222),
    "11,11,11,11,11,11": h_11_11_11_11_11_11,
    "31,31,1111,1111": _fix_time(h_31_31_1111_1111),
    "33,33,33,321": _fix_time(h_33_33_33_321),
    "51,33,33,111111": _fix_time(h_51_33_33_111111),
    "11,11,11,11,11": h_11_11_11_11_11,
    "21,21,111,111": _fix_time(h_21_21_111_111),
    "22,22,22,211": _fix_time(h_22_22_22_211),
    "31,22,22,1111": _fix_time(h_31_22_22_1111),
}
