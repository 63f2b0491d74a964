"""Bound flow fields of the 21,21,111,111 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    eta = par["eta"]
    x10 = alpha1/2
    x11 = alpha5/2
    x12 = alpha0/2 + alpha2/2 + alpha3/2 + alpha4/2 - 1/2
    x13 = x11 + x12
    x14 = -eta
    x15 = -x10 - x13 - x14
    x16 = alpha0 + alpha4
    x18 = alpha2 - 1
    x20 = alpha3 + x14
    x21 = alpha5 + x20
    x27 = alpha0 + x18
    x29 = alpha1 + x20

    def kernel(z, w, sc):
        t1 = z
        q1, q2, p1, p2 = w
        x0 = q1 - 1
        x1 = p1*p1
        x2 = q1*x1
        x3 = -t1
        x4 = q1 + x3
        x5 = q2 - 1
        x6 = p1*p2*x4*x5
        x7 = alpha5 + p2*q2
        x8 = alpha1 + p1*q1
        x9 = p1*x7 + p2*x8
        x17 = q1*x16
        x19 = q1*x18
        x22 = x0*x21
        x23 = p2*p2
        x24 = q2*x23
        x25 = q2 + x3
        x26 = alpha4*q2
        x28 = q2*x27
        x30 = x29*x5
        msc = -sc
        return (
            sc*(2*p1*q1*x0*x4 - x0*x19 - x17*x4 - x22*x4 + x4*x5*(p2*q1 + x7)),
            sc*(2*p2*q2*x25*x5 - x25*x26 - x25*x30 - x28*x5 + x4*x5*(p1*q2 + x8)),
            msc*(-p1*(x0*x18 + x16*x4 + x17 + x19 + x21*x4 + x22) + x0*x1*x4 + x0*x2 + x15*(x10 - x13) + x2*x4 + x5*x9 + x6),
            msc*(-p2*(alpha4*x25 + x25*x29 + x26 + x27*x5 + x28 + x30) + x15*(-x10 + x11 - x12) + x23*x25*x5 + x24*x25 + x24*x5 + x4*x9 + x6),
        )

    return kernel


FIELDS = (field_1,)
