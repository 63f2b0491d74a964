"""Bound flow fields of the 22,22,22,1111 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    rho4 = par["rho4"]
    x0 = 2*alpha2
    x1 = 2*alpha5
    x2 = x0 + x1
    x7 = alpha3*alpha5
    x8 = alpha4*alpha5
    x9 = alpha5 - 1
    x10 = alpha2 + alpha5
    x11 = -x10
    x12 = alpha3 + alpha4
    x13 = x12 - 1
    x14 = x13 + x2
    x22 = 4*alpha2
    x23 = 4*alpha5 + x22
    x24 = 2*alpha4
    x25 = 2*alpha3 + x24
    x26 = 2*alpha1 - 2
    x27 = x25 + x26
    x28 = x23 + x27
    x30 = alpha1 + alpha4 - 1
    x31 = x2 + x30
    x40 = 2*rho4
    x41 = -alpha0 + x40
    x42 = x28 + x41
    x47 = alpha1 + x14
    x48 = x41 + x47
    x49 = x0 + x13
    x50 = alpha0 + alpha1 + x49
    x59 = x1 + x22 + x40
    x60 = alpha0 + 6*alpha2 + x1 + x27 + x40
    x63 = 3*alpha5

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x3 = t1*x2
        x4 = q3*t1
        x5 = x2*x4
        x6 = x3 + x5
        x15 = q2*t1
        x16 = q1*t1
        x17 = 2*t1
        x18 = x17 + 2
        x19 = q1*x15
        x20 = x17 + 4
        x21 = q2*x20
        x29 = 4*x15
        x32 = t1*x12 + x31
        x33 = 4*t1
        x34 = 4*x4
        x35 = -x33 - x34
        x36 = q1*x35
        x37 = q2*x36
        x38 = -x4 - 2
        x39 = q2*x35
        x43 = q3*(x10*x4 + x2) + x15*x42
        x44 = q3*x17
        x45 = x17 + x44
        x46 = -x45
        x51 = x44 + 2
        x52 = q3*q3
        x53 = x17*x52 - 2
        x54 = t1*x52
        x55 = x44 + 4
        x56 = q2*(-x33 - x55)
        x57 = 10*x15
        x58 = -x20 - x34
        x61 = t1*(x25 + x59) + x2 + x24 + x26 + x4*x60
        x62 = q2*x17
        x64 = t1*(x12 + x59)
        x65 = q1*x3 + x2
        x66 = q2*x51
        x67 = q1*x29
        x68 = q1*(-6*x19 - x21) + q2*x53
        x69 = -x66 - x67
        x70 = x10 + x11*x54
        x71 = q2*(q3*x58 - x29 - 2) + x37
        x72 = q1*x6 + x10
        msc = -sc
        return (
            sc*(alpha4 + p1*(q1*(q1*(-q1*x17 - x18) + x62 - 2) + q2*x44) + p2*x68 + p3*x69 + q1*(x16*x47 + x32) + x15*x50 + x70),
            sc*(p1*x68 + p2*(q1*(q2*(-q3*x55 - x57 - 2) + x37) + q2*(q3*x53 + x56)) + p3*x71 + q1*(x43 + x72) + q2*x61 + q3*x70),
            sc*(alpha4 + p1*x69 + p2*x71 + p3*(q3*(q3*(-x45 - 2) - 2) + x39) + q3*(x31 + x4*(alpha1 + 5*alpha2 + x13 + x40 + x63) + x64) + x15*x48 + x72),
            msc*(p1*(p1*(q1*(-3*x16 - x18) + x15 - 1) + p2*(-12*x19 - x21) - p3*x29 + x16*x28 + x32) + p2*(p2*(q2*(q3*x38 - 5*x15 - 1) + x37) + p3*x39 + q1*(t1*x23 + x23*x4) + x10 + x43) + p3*x6 + t1*(-alpha0*alpha2 + alpha1*x11 - alpha2*x14 - alpha5*x9 - x7 - x8)),
            msc*(p1*(p1*(x16 + x4) + p2*(q1*(-6*x16 - x20) + x53) + p3*(-q1*x33 - x51) + t1*x50) + p2*(p2*(q1*(q1*x46 + q3*x38 - x57 - 1) + q3*(x54 - 1) + x56) + p3*(q3*x58 - 8*x15 + x36 - 2) + x16*x42 + x61) + p3*(p3*x46 + t1*x48)),
            msc*(p1*(p1*x15 + p2*q3*x29 - p3*x62 - x2*x4) + p2*(p2*(q1*(-q1*x62 - x66) + q2*(3*t1*x52 - x15 - 1)) + p3*(q2*(-x20 - 8*x4) - x67) + q1*(x5 + x65) + x10 + x15*x60 + x54*(-3*alpha2 - x63)) + p3*(p3*(q3*(-x18 - 3*x4) - x62 - 1) + x30 + x4*(10*alpha2 + 6*alpha5 + 4*rho4 + x27) + x64 + x65) + t1*(alpha0*rho4 + alpha1*x11 + alpha2*(-rho4 - x49 - x63) + alpha5*(-rho4 - x9) - (rho4*rho4) - x7 - x8)),
        )

    return kernel


FIELDS = (field_1,)
