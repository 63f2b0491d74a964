"""Bound flow fields of the 51,33,33,111111 Hamiltonians.

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
    alpha7 = par["alpha7"]
    alpha8 = par["alpha8"]
    x14 = alpha0/2
    x15 = alpha4 + x14
    x16 = alpha1/2
    x17 = alpha7/2
    x18 = alpha8/2
    x19 = alpha3 + alpha5 + alpha6 + x16 + x17 + x18 - 1/2
    x20 = alpha4 - x14
    x21 = alpha1 - 1
    x23 = alpha5 + alpha8
    x24 = alpha3 + x23
    x26 = 2*alpha6 + alpha7
    x27 = 2*alpha4 + alpha5 + x26
    x28 = alpha3 + x27
    x38 = alpha2 + x15
    x39 = -x19 - x38
    x40 = alpha3 + x21
    x52 = alpha5 + x40

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = q1 - 1
        x1 = p1*p1
        x2 = q1*x1
        x3 = -t1
        x4 = q1 + x3
        x5 = q2 - 1
        x6 = p2*x5
        x7 = alpha4 + x6
        x8 = 2*q2
        x9 = q3 - 1
        x10 = alpha6 + p3*x9
        x11 = q3*x10
        x12 = 2*x11
        x13 = x0*x4
        x22 = q1*x21
        x25 = x0*x24
        x29 = q1*x28
        x30 = p2*p2
        x31 = q2*x30
        x32 = q2 + x3
        x33 = 2*q1
        x34 = -2*t1
        x35 = x33 + x34
        x36 = p1*x35
        x37 = q2*x36
        x41 = q2*x40
        x42 = x23*x5
        x43 = q2*x27
        x44 = p3*p3
        x45 = q3*x44
        x46 = q3 + x3
        x47 = p3*q3
        x48 = x34 + x8
        x49 = x10*x48
        x50 = alpha8*x9
        x51 = q3*x26
        x53 = q3*x52
        msc = -sc
        return (
            sc*(p1*x13*x33 + q2*x35*x7 - x0*x22 + x11*x35 - x25*x4 - x29*x4),
            sc*(q3*x49 - x32*x42 - x32*x43 + x32*x6*x8 + x37*x5 - x41*x5),
            sc*(p1*q3*x35*x9 + p2*q3*x48*x9 + 2*p3*q3*x46*x9 - x46*x50 - x46*x51 - x53*x9),
            msc*(p1*x12 + p1*x7*x8 - p1*(x0*x21 + x22 + x24*x4 + x25 + x28*x4 + x29) + x0*x2 + x1*x13 + x2*x4 + (-x15 - x19)*(-x19 - x20)),
            msc*(p2*x12 + p2*x37 - p2*(x23*x32 + x27*x32 + x40*x5 + x41 + x42 + x43) + x30*x32*x5 + x31*x32 + x31*x5 + x36*x7 + x39*(alpha2 - alpha5 - alpha6 - x16 - x17 - x18 - x20 + 1/2)),
            msc*(p2*x47*x48 + p2*x49 - p3*(alpha8*x46 + x26*x46 + x50 + x51 + x52*x9 + x53) + x10*x36 + x36*x47 + x39*(-alpha6 - x16 - x17 - x18 + x38 + 1/2) + x44*x46*x9 + x45*x46 + x45*x9),
        )

    return kernel


FIELDS = (field_1,)
