"""Bound flow fields of the 22,22,211,211 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    theta32 = par["theta32"]
    x0 = alpha2 + alpha5
    x5 = alpha3 + alpha4
    x6 = 2*alpha2 + 2*alpha5
    x7 = x6 - 1
    x8 = x5 + x7
    x22 = 2*alpha4
    x23 = 2*alpha3 + x22
    x24 = 2*alpha1 + x23 - 2
    x25 = 4*alpha2 + 4*alpha5 + x24
    x27 = x0 + x5
    x28 = alpha1 + x7
    x39 = 3*alpha2 + 3*alpha5 + x24
    x42 = alpha1 + x27 - 1
    x53 = -theta32
    x58 = alpha1 + x8
    x69 = alpha4 + x0

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x1 = t1*x0
        x2 = q3*t1
        x3 = x0*x2
        x4 = x1 + x3
        x9 = t1*(-alpha0*alpha2 - alpha1*x0 - alpha2*x8 - alpha3*alpha5 - alpha4*alpha5 + alpha5*(1 - alpha5))
        x10 = 2*t1
        x11 = q2*x10
        x12 = -p3*x11
        x13 = 3*t1
        x14 = x10 + 2
        x15 = q2*t1
        x16 = x15 + 1
        x17 = q1*x15
        x18 = q3*x10
        x19 = x13 + 3
        x20 = x18 + x19
        x21 = q2*x20
        x26 = q1*t1
        x29 = alpha4 + t1*x27 + x28 + x3
        x30 = x10 + x18
        x31 = -x30
        x32 = q1*x31
        x33 = q2*x32
        x34 = t1 + x2
        x35 = -x34 - 1
        x36 = 3*x15 + 1
        x37 = x2*x6
        x38 = q2*x31
        x40 = x0 + x15*x39
        x41 = q3*(x0 + x4) + x40
        x43 = t1*x42
        x44 = -x34
        x45 = q1*x10
        x46 = t1 + x18 + 1
        x47 = 4*x15
        x48 = 2*q3
        x49 = x48 + 2
        x50 = q2*(-4*t1 - 6*x2 - 4)
        x51 = 6*x15
        x52 = -x19 - 4*x2
        x54 = t1*(theta32 + x23 + x28) + x2*x39 + x22 + x28 + x53
        x55 = 2*q2
        x56 = q2*x45
        x57 = q1*x1 + x0
        x59 = t1*(theta32 + x58) + x53
        x60 = q2*x46
        x61 = x11 + 2
        x62 = q1*(-q1*x47 - x21) + q2*(-x11 - x49)
        x63 = -x56 - x60
        x64 = x15*x42
        x65 = q3*x0 + x0
        x66 = q2*(q3*x52 - x61) + x33
        x67 = q1*x4
        x68 = -x30 - 2
        msc = -sc
        return (
            sc*(alpha4 + p1*(q1*(q1*(-x14 - x45) - x61) - x55) + p2*x62 + p3*x63 + q1*(x26*x58 + x29) + x64 + x65),
            sc*(p1*x62 + p2*(q1*(q2*(q3*x68 - x51 - 2) + x33) + q2*(-q3*x49 + x50)) + p3*x66 + q1*(x41 + x67) + q2*x54 + q3*x65),
            sc*(p1*x63 + p2*x66 + p3*(q3*(q3*x68 - 2) + x38) + q3*(x2*x58 + x59 + x69) + x64 + x67 + x69),
            msc*(p1*(p1*(q1*(-q1*x13 - x14) - x16) + p2*(-8*x17 - x21) + x12 + x25*x26 + x29) + p2*(p2*(q2*(q3*x35 - x36) + x33) + p3*x38 + q1*(t1*x6 + x37) + x41) + p3*x4 + x9),
            msc*(p1*(p1*(-x26 - 1) + p2*(q1*(-x20 - 4*x26) - x47 - x49) + p3*(-x45 - x46) + x43) + p2*(p2*(q1*(q1*x44 + q3*x35 - x51 - 1) + q3*(-q3 - 1) + x50) + p3*(q3*x52 + x32 - x47 - 2) + x26*x39 + x54) + p3*(p3*x44 + x43)),
            msc*(p1*(p2*(-x55 - x56) + x12 + x57) + p2*(p2*(q1*(-x17 - x60) + q2*(-x36 - x48)) + p3*(q2*(-x19 - 8*x2) - x56) + q1*(x1 + x37 + x57) + q3*x6 + x40) + p3*(alpha4 + p3*(q3*(-q3*x13 - x14) - x16) + x2*x25 + x57 + x59) + x9),
        )

    return kernel


FIELDS = (field_1,)
