"""Bound flow fields of the 31,31,1111,1111 Hamiltonians.

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
    eta = par["eta"]
    x19 = alpha6 - 1
    x20 = alpha4 + x19
    x21 = alpha2 + x20
    x23 = -eta
    x24 = alpha5 + alpha7 + x23
    x25 = alpha3 + x24
    x27 = alpha1/2
    x28 = alpha3/2
    x29 = alpha0/2
    x30 = alpha2/2
    x31 = alpha4/2
    x32 = alpha5/2
    x33 = alpha6/2
    x34 = alpha7/2
    x35 = x29 + x30 + x31 + x32 + x33 + x34 - 1/2
    x36 = x28 + x35
    x37 = -x23 - x27 - x36
    x45 = alpha0 + alpha2
    x48 = alpha1 + x24
    x55 = alpha4 + x45
    x57 = alpha1 + alpha3 + alpha7 + x23

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = q1 - 1
        x1 = p1*p1
        x2 = q1*x1
        x3 = -t1
        x4 = q1 + x3
        x5 = q2 + x3
        x6 = x0*x5
        x7 = p1*p2*x6
        x8 = q3 + x3
        x9 = x0*x8
        x10 = p1*p3*x9
        x11 = p2*q2
        x12 = alpha3 + x11
        x13 = alpha1 + p1*q1
        x14 = p1*x12 + p2*x13
        x15 = p3*q3
        x16 = alpha5 + x15
        x17 = p1*x16 + p3*x13
        x18 = alpha0*q1
        x22 = q1*x21
        x26 = x0*x25
        x38 = q2 - 1
        x39 = p2*p2
        x40 = q2*x39
        x41 = x38*x8
        x42 = p2*p3*x41
        x43 = x38*x5
        x44 = p2*x16 + p3*x12
        x46 = q2*x45
        x47 = q2*x20
        x49 = x38*x48
        x50 = q3 - 1
        x51 = p3*p3
        x52 = q3*x51
        x53 = x50*x8
        x54 = q3*x19
        x56 = q3*x55
        x58 = x50*x57
        msc = -sc
        return (
            sc*(2*p1*q1*x0*x4 - x0*x22 + x0*x5*(p2*q1 + x12) + x0*x8*(p3*q1 + x16) - x18*x4 - x26*x4),
            sc*(2*x11*x43 - x38*x47 + x41*(p3*q2 + x16) - x46*x5 - x49*x5 + x6*(p1*q2 + x13)),
            sc*(2*x15*x53 + x41*(p2*q3 + x12) - x50*x54 - x56*x8 - x58*x8 + x9*(p1*q3 + x13)),
            msc*(-p1*(alpha0*x4 + x0*x21 + x18 + x22 + x25*x4 + x26) + x0*x1*x4 + x0*x2 + x10 + x14*x5 + x17*x8 + x2*x4 + x37*(x27 - x36) + x7),
            msc*(-p2*(x20*x38 + x45*x5 + x46 + x47 + x48*x5 + x49) + x0*x14 + x37*(-x27 + x28 - x35) + x38*x40 + x39*x43 + x40*x5 + x42 + x44*x8 + x7),
            msc*(-p3*(x19*x50 + x54 + x55*x8 + x56 + x57*x8 + x58) + x0*x17 + x10 + x37*(-x27 - x28 - x29 - x30 - x31 + x32 - x33 - x34 + 1/2) + x38*x44 + x42 + x50*x52 + x51*x53 + x52*x8),
        )

    return kernel


FIELDS = (field_1,)
