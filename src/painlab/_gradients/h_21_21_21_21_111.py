"""Bound flow fields of the 21,21,21,21,111 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    rho3 = par["rho3"]
    _, t2 = t
    x10 = alpha0 + alpha5
    x11 = x10 + 1
    x14 = 1/t2
    x21 = -t2
    x32 = alpha5/2
    x33 = alpha1/2 + alpha2/2 + alpha3/2 + alpha4/2
    x36 = t2 - 1
    x42 = alpha2 + alpha3 - 1
    x65 = alpha3 + x10
    x67 = alpha0 + alpha4 + rho3

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = p1*q1
        x1 = p3*q3
        x2 = p2*q2
        x3 = 2*x0
        x4 = q1 - 1
        x5 = p1*p1
        x6 = q1*x5
        x7 = -t1
        x8 = q1 + x7
        x9 = x4*x8
        x12 = x0 + x11 + x2
        x13 = x1*x12
        x15 = -rho3 + x1
        x16 = q3*x15
        x17 = x14*x16
        x18 = 2*alpha0 + alpha5 + x2 + x3 + 1
        x19 = t1 - 1
        x20 = t2*x19
        x22 = t1 + x21
        x23 = 1/x22
        x24 = alpha2*x23
        x25 = p1*x19
        x26 = p2*x20
        x27 = -x26
        x28 = t1*x23
        x29 = p3*x28
        x30 = -(t1*t1) - t1 + 2*t2
        x31 = x1*x23
        x34 = t1*x19
        x35 = p2*p2
        x37 = p2*x36
        x38 = 2*t1*x37
        x39 = x23*(-p1*x38 + x20*x35 + x34*x5)
        x40 = alpha4*q1
        x41 = alpha1*x4
        x43 = q1*x42
        x44 = p2*q1
        x45 = q1*q2
        x46 = alpha1*x28
        x47 = x12*x14
        x48 = t1*x25
        x49 = p1*t1
        x50 = x36*x49
        x51 = x27 + x50
        x52 = x23*x51
        x53 = q1*x12
        x54 = x19*x23
        x55 = q2*x14
        x56 = q2*x47
        x57 = x52*x55
        x58 = q1*x26
        x59 = t1*x36
        x60 = x23*(-q2*x48 + x0*x30 + x2*x59 + x58)
        x61 = q3 + x7
        x62 = p3*p3
        x63 = q3*x62
        x64 = q3 + x21
        x66 = q3*x65
        x68 = q3*x67
        x69 = alpha1*x61
        x70 = q1*q1
        x71 = q2*x34
        x72 = q1*x20
        x73 = x24*x72
        x74 = q3*x22
        x75 = q2*x59
        x76 = x23*x45
        x77 = q2*q2
        x78 = q3*q3
        msc = -sc
        return (
            sc*(alpha1*x23*x71 + x1*x70 + x17*x23*x75 + x17*x45 + 2*x2*x70 + x29*(x72 + x74) + x3*x9 + x31*(q1*x30 - x71) - x4*x43 - x40*x8 - x41*x8 - x73 - x76*(-x38 + 2*x48)),
            sc*(-p3*q1*t2*x23*x34 - q2*x16*x54 - q2*x36*x46 + x1*x45 + x17*x77 + x18*x45 + x31*(x72 + x75) + x44*x77 + x73 - x76*(2*p2*t2*x19 - 2*x50)),
            sc*(-q3*x11 + q3*x53 + q3*x60 + x28*(p1*x74 + x0*x20 - x58) + x54*(2*p3*q3*x61*x64 - x61*x68 - x64*x66 - x64*x69) + x56*x78 + x57*x78),
            msc*(p1*q2*x17 - p1*(alpha1*x8 + alpha4*x8 + x4*x42 + x40 + x41 + x43) - q2*x39 + x0*x1 + x13 + x18*x2 + x2*x3 - x20*x24*(p1 - p2) + x29*(t2*x25 + x27) + x31*(p1*x30 + x26) + x4*x6 + x5*x9 + x6*x8 + (-x32 - x33)*(x32 - x33 + 1)),
            msc*(-q1*x39 + x1*x44 + x16*x47 + x17*x2 + x17*x52 + x18*x44 + x31*(p2*t1*x36 - x48) + x35*x45 + x46*(x25 - x37)),
            msc*(-alpha2*rho3*x54 - p3*x11 + p3*x49 + p3*x53 + p3*x60 + x13*x55 + x15*x56 + x15*x57 + x31*x51*x55 + x54*(-p3*(alpha1*x64 + x61*x67 + x64*x65 + x66 + x68 + x69) + x61*x62*x64 + x61*x63 + x63*x64)),
        )

    return kernel


def field_2(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    rho3 = par["rho3"]
    t1, _ = t
    x7 = alpha5 + 1
    x8 = alpha0 + x7
    x13 = t1 - 1
    x42 = 2*t1
    x44 = alpha5/2
    x45 = alpha1/2 + alpha2/2 + alpha3/2 + alpha4/2
    x48 = alpha1 + alpha3 - 1
    x58 = alpha3 + x8
    x60 = alpha0 + alpha4 + rho3 - 1

    def kernel(z, w, sc):
        t2 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = p1*q2
        x1 = p1*p1
        x2 = q1*q2
        x3 = p1*q1
        x4 = p3*t2
        x5 = p3*q3
        x6 = p2*q2
        x9 = x3 + x8
        x10 = x6 + x9
        x11 = 2*x6
        x12 = 2*alpha0 + x11 + x3 + x7
        x14 = p1*x13
        x15 = t2 - 1
        x16 = -t2
        x17 = -t1 - x16
        x18 = 1/x17
        x19 = t2*x18
        x20 = alpha2*x19
        x21 = t2*x14
        x22 = x18*x5
        x23 = t1*x15
        x24 = p1*x23
        x25 = t2*x13
        x26 = p2*x25
        x27 = x18*x4
        x28 = p2*p2
        x29 = t2*x15
        x30 = 2*x21
        x31 = x18*(-p2*x30 + x1*x23 + x28*x29)
        x32 = p2*x4
        x33 = q2 - 1
        x34 = q2*x28
        x35 = q2 + x16
        x36 = -p1 + p2
        x37 = alpha1*x18
        x38 = -rho3 + x5
        x39 = x15*x18
        x40 = x36*x39
        x41 = x38*x40
        x43 = (t2*t2) + t2 - x42
        x46 = alpha4*q2
        x47 = alpha2*x33
        x49 = q2*x48
        x50 = q2*x10
        x51 = q2*x40
        x52 = p2*q1*t2*x15 + p2*q2*x43 - x0*x23 - x25*x3
        x53 = q3 - t1
        x54 = p3*p3
        x55 = q3*x54
        x56 = q3 + x16
        x57 = alpha1*x53
        x59 = q3*x58
        x61 = q3*x60
        x62 = q1*q1
        x63 = q1*x25
        x64 = q2*x23
        x65 = x18*x2
        x66 = q2*q3*x38*x39 + x37*x64
        x67 = q2*q2
        x68 = q3*x17
        msc = -sc
        return (
            sc*(-q1*x13*x20 + q1*x23*x27 + rho3*x2 + x0*x62 + x12*x2 - x2*x5 + x22*(-x63 - x64) - x4*x62 - x65*(p1*x15*x42 - 2*x26) + x66),
            sc*(alpha2*q1*t2*x15*x18 + 2*p1*q1*x67 + 2*p2*q2*x33*x35 + p3*q3*x18*(q1*x29 + q2*x43) + p3*t2*x18*(-x63 - x68) + q2*rho3*x33 - x2*x4 - x33*x49 - x35*x46 - x35*x47 - x5*x67 - x65*(2*p2*t2*x15 - x30) - x66),
            sc*(-q1*t2*x10 - (q3*q3)*x51 + q3*x18*x52 - q3*x50 + q3*x8 + x19*(p1*q1*t1*x15 - p2*x68 - q1*x26) + x39*(2*p3*q3*x53*x56 - x53*x61 - x56*x57 - x56*x59)),
            msc*(-q2*x31 + rho3*x0 + x0*x12 - x0*x5 + x1*x2 - x10*x4 + x20*(p2*x15 - x14) + x22*(p2*t2*x15 - x21) + x27*(x24 - x26) - x3*x4),
            msc*(-p2*(alpha2*x35 + alpha4*x35 + x33*x48 + x46 + x47 + x49) - q1*x31 - q1*x32 - q3*x41 + rho3*x6 + rho3*(p2*x33 + x9) - x10*x5 + x11*x3 + x12*x3 + x22*(p2*x43 - x24) - x23*x36*x37 + x28*x33*x35 + x33*x34 + x34*x35 - x5*x6 + (-x44 - x45)*(x44 - x45 + 1)),
            msc*(-alpha2*rho3*x39 + p3*x18*x52 - p3*x50 + p3*x8 - q2*x41 + x15*x18*(-p3*(alpha1*x56 + x53*x60 + x56*x58 + x57 + x59 + x61) + x53*x54*x56 + x53*x55 + x55*x56) - x32 - x5*x51),
        )

    return kernel


FIELDS = (field_1, field_2,)
