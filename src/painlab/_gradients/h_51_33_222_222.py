"""Bound flow fields of the 51,33,222,222 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    alpha6 = par["alpha6"]
    x16 = 2*alpha3
    x17 = -alpha1 - 2*alpha2 - x16
    x25 = -2*alpha4 - alpha5 - x16
    x32 = -alpha0 - 2*alpha6 - x16

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = q1 - 1
        x1 = p1*p1
        x2 = q1*x1
        x3 = -t1
        x4 = q1 + x3
        x5 = q2 - 1
        x6 = alpha4 + p2*x5
        x7 = q1*q2 + t1
        x8 = q3 - 1
        x9 = alpha6 + p3*x8
        x10 = q1*q3 + t1
        x11 = alpha2 + p1*x0
        x12 = x11*x6
        x13 = q3*x9
        x14 = alpha1*q1
        x15 = alpha3*x0
        x18 = q1*x17
        x19 = p2*p2
        x20 = q2*x19
        x21 = q2 + x3
        x22 = q2*q3 + t1
        x23 = alpha5*q2
        x24 = alpha3*x5
        x26 = q2*x25
        x27 = p3*p3
        x28 = q3*x27
        x29 = q3 + x3
        x30 = alpha0*q3
        x31 = alpha3*x8
        x33 = q3*x32
        msc = -sc
        return (
            sc*(2*p1*q1*x0*x4 + x0*x10*x9 - x0*x18 + x0*x6*x7 - x14*x4 - x15*x4),
            sc*(2*p2*q2*x21*x5 + x11*x5*x7 - x21*x23 - x21*x24 + x22*x5*x9 - x26*x5),
            sc*(2*p3*q3*x29*x8 + x10*x11*x8 + x22*x6*x8 - x29*x30 - x29*x31 - x33*x8),
            msc*(alpha2*(alpha2 + alpha3) + p1*x10*x9 + p1*x6*x7 - p1*(alpha1*x4 + alpha3*x4 + x0*x17 + x14 + x15 + x18) + q2*x12 + x0*x1*x4 + x0*x2 + x11*x13 + x2*x4),
            msc*(alpha4*(alpha3 + alpha4) + p2*x11*x7 + p2*x22*x9 - p2*(alpha3*x21 + alpha5*x21 + x23 + x24 + x25*x5 + x26) + q1*x12 + x13*x6 + x19*x21*x5 + x20*x21 + x20*x5),
            msc*(alpha6*(alpha3 + alpha6) + p3*x10*x11 + p3*x22*x6 - p3*(alpha0*x29 + alpha3*x29 + x30 + x31 + x32*x8 + x33) + q1*x11*x9 + q2*x6*x9 + x27*x29*x8 + x28*x29 + x28*x8),
        )

    return kernel


FIELDS = (field_1,)
