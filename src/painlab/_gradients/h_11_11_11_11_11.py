"""Bound flow fields of the 11,11,11,11,11 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    _, t2 = t
    x12 = alpha5/2
    x13 = alpha1/2 + alpha2/2 + alpha3/2 + alpha4/2
    x15 = t2 - 1
    x21 = alpha2 + alpha3 - 1

    def kernel(z, w, sc):
        t1 = z
        q1, q2, p1, p2 = w
        x0 = p2*q2
        x1 = 2*p1
        x2 = q1*x1
        x3 = q1 - 1
        x4 = p1*p1
        x5 = q1*x4
        x6 = q1 - t1
        x7 = 2*alpha0 + alpha5 + x0 + x2 + 1
        x8 = 1/(t1 - t2)
        x9 = t1 - 1
        x10 = t2*x9
        x11 = alpha2*x10*x8
        x14 = p2*p2
        x16 = p2*x15
        x17 = t1*x1
        x18 = x8*(t1*x4*x9 + x10*x14 - x16*x17)
        x19 = alpha4*q1
        x20 = alpha1*x3
        x22 = q1*x21
        x23 = q1*q2
        x24 = p2*q1
        x25 = p1*x9
        x26 = alpha1*t1*x8
        x27 = q1*x11
        x28 = 2*t1
        x29 = x23*x8
        msc = -sc
        return (
            sc*(alpha1*q2*t1*x8*x9 + 2*p1*q1*x3*x6 + 2*p2*(q1*q1)*q2 - x19*x6 - x20*x6 - x22*x3 - x27 - x29*(-x16*x28 + x25*x28)),
            sc*((q2*q2)*x24 - q2*x15*x26 + x23*x7 + x27 - x29*(2*p2*t2*x9 - x15*x17)),
            msc*(-p1*(alpha1*x6 + alpha4*x6 + x19 + x20 + x21*x3 + x22) - q2*x18 + x0*x2 + x0*x7 - x11*(p1 - p2) + x3*x4*x6 + x3*x5 + x5*x6 + (-x12 - x13)*(x12 - x13 + 1)),
            msc*(-q1*x18 + x14*x23 + x24*x7 + x26*(-x16 + x25)),
        )

    return kernel


def field_2(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    t1, _ = t
    x7 = t1 - 1
    x21 = alpha5/2
    x22 = alpha1/2 + alpha2/2 + alpha3/2 + alpha4/2
    x25 = alpha1 + alpha3 - 1

    def kernel(z, w, sc):
        t2 = z
        q1, q2, p1, p2 = w
        x0 = p1*p1
        x1 = q1*q2
        x2 = p1*q1
        x3 = 2*p2
        x4 = q2*x3
        x5 = 2*alpha0 + alpha5 + x2 + x4 + 1
        x6 = p1*q2
        x8 = p1*x7
        x9 = t2 - 1
        x10 = -t2
        x11 = 1/(-t1 - x10)
        x12 = alpha2*t2*x11
        x13 = t1*x9
        x14 = p2*p2
        x15 = t2*x3
        x16 = x11*(t2*x14*x9 + x0*x13 - x15*x8)
        x17 = q2 - 1
        x18 = q2*x14
        x19 = q2 + x10
        x20 = alpha1*x11*x13
        x23 = alpha4*q2
        x24 = alpha2*x17
        x26 = q2*x25
        x27 = q2*x20
        x28 = x1*x11
        msc = -sc
        return (
            sc*((q1*q1)*x6 - q1*x12*x7 + x1*x5 + x27 - x28*(2*p1*x13 - x15*x7)),
            sc*(alpha2*q1*t2*x11*x9 + 2*p1*q1*(q2*q2) + 2*p2*q2*x17*x19 - x17*x26 - x19*x23 - x19*x24 - x27 - x28*(2*p2*t2*x9 - 2*t2*x8)),
            msc*(-q2*x16 + x0*x1 + x12*(p2*x9 - x8) + x5*x6),
            msc*(-p2*(alpha2*x19 + alpha4*x19 + x17*x25 + x23 + x24 + x26) - q1*x16 + x14*x17*x19 + x17*x18 + x18*x19 + x2*x4 + x2*x5 - x20*(-p1 + p2) + (-x21 - x22)*(x21 - x22 + 1)),
        )

    return kernel


FIELDS = (field_1, field_2,)
