"""Bound flow fields of the 21,111,111,111 Hamiltonians.

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
    theta21 = par["theta21"]
    x23 = alpha1/2
    x24 = alpha5/2
    x25 = alpha0/2 + alpha2/2 + alpha3/2 + alpha4/2 - 1/2
    x26 = x24 + x25
    x27 = -eta
    x28 = -x23 - x26 - x27
    x29 = alpha0 + alpha4
    x31 = alpha2 - 1
    x33 = alpha3 + x27
    x34 = alpha5 + x33
    x46 = alpha0 + x31
    x48 = alpha1 + x33

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = p3*q3
        x1 = p1*q1
        x2 = 2*x1
        x3 = p1*q2
        x4 = p1*p1
        x5 = q3*t1
        x6 = x4*x5
        x7 = q1 - 1
        x8 = q1*x4
        x9 = p1*t1
        x10 = p2 + x9
        x11 = -t1
        x12 = q1 + x11
        x13 = q2 - 1
        x14 = p1*p2*x12*x13
        x15 = theta21 + x0
        x16 = -p3 + x9
        x17 = x15*x16
        x18 = p2*q2
        x19 = alpha1 + eta + x0 + x18 + x2
        x20 = alpha5 + x18
        x21 = alpha1 + x1
        x22 = p1*x20 + p2*x21
        x30 = q1*x29
        x32 = q1*x31
        x35 = x34*x7
        x36 = p2*q1
        x37 = q3*x9
        x38 = p2*p2
        x39 = q2*x38
        x40 = q2 + x11
        x41 = eta + x1
        x42 = x0 + x41
        x43 = -alpha5 + x42
        x44 = x18 + x42
        x45 = alpha4*q2
        x47 = q2*x46
        x49 = x13*x48
        x50 = (p3*p3)*q3
        x51 = q2*x9
        x52 = p3*q1
        x53 = q1 - q2
        x54 = x16*x53
        x55 = -alpha3 + x18 + x41
        x56 = p3*q2
        x57 = q1*x0
        x58 = q2*x57
        x59 = q2*q3
        x60 = q3*q3
        x61 = q1*q3
        msc = -sc
        return (
            sc*(p1*q1*q2*q3*t1 + 2*p1*q1*x12*x7 + 2*p3*(q1*q1)*q3 + q2*q3*t1*x44 + t1*x15*x53 - t1*x57 - x1*x5 + x12*x13*(x20 + x36) - x12*x30 - x12*x35 - x32*x7 - x5*x55 - x58),
            sc*(p1*(q2*q2)*q3*t1 + 2*p2*q2*x13*x40 + x12*x13*(x21 + x3) - x13*x47 - x40*x45 - x40*x49 - x57 + x58 - x59*x9),
            sc*(q3*x54 - x10*x61 - x15*x53 + x19*x61 - x43*x59 + x51*x60 + x52*x60 - x56*x60),
            msc*(-p1*(x12*x29 + x12*x34 + x30 + x31*x7 + x32 + x35) + q2*x6 - x0*x10 + x0*x19 + x0*x2 - x0*x3 + x12*x4*x7 + x12*x8 + x13*x22 + x14 + x17 + x28*(x23 - x26) - x6 + x7*x8),
            msc*(-p2*x37 - p2*(alpha4*x40 + x13*x46 + x40*x48 + x45 + x47 + x49) + x0*x36 - x0*x43 + x12*x22 + x13*x38*x40 + x13*x39 + x14 - x17 + x18*x37 + x28*(-x23 + x24 - x25) + x37*x44 + x39*x40),
            msc*(p3*x54 + q1*x50 + q2*x44*x9 - q2*x50 + x0*x51 - x10*x52 + x19*x52 - x43*x56 - x55*x9),
        )

    return kernel


FIELDS = (field_1,)
