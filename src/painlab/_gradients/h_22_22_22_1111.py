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
    x0 = alpha0 + alpha2
    x2 = -rho4 + x0
    x9 = alpha2 + alpha5
    x14 = alpha2 + rho4
    x33 = alpha1 - 1

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x1 = alpha2*t1*x0
        x3 = p2*q2
        x4 = t1*x3
        x5 = t1*t1
        x6 = p1*q2
        x7 = q3*t1
        x8 = -t1 - x7
        x10 = p2*q2 - x9
        x11 = t1*x10
        x12 = 1/t1
        x13 = p3*x12
        x15 = p2*x14
        x16 = -q1 + q3
        x17 = p1 + p2*x16 - p3
        x18 = 2*p1
        x19 = q1*x18
        x20 = -x19
        x21 = 2*x3
        x22 = -x21
        x23 = x22 + x9
        x24 = -x20 - x23
        x25 = p2*x24
        x26 = q1*x5
        x27 = q1*t1
        x28 = -t1 - x27
        x29 = t1*x28
        x30 = -x29
        x31 = p1*x12
        x32 = x11 + x4
        x34 = -x27 - 1
        x35 = t1*x34
        x36 = -x35
        x37 = x26 + x36
        x38 = x31*x37 + x4
        x39 = p3*q2
        x40 = q1*x10 + q3*x10 + x39 + x6
        x41 = p2*x40
        x42 = -x38
        x43 = q2*t1
        x44 = x10*x12
        x45 = -t1*x39 - x37*x44
        x46 = p2*x12
        x47 = q3*x5
        x48 = x36 + x47
        x49 = q2*x5
        x50 = -x7 - 1
        x51 = x49 - x50*x7
        x52 = -x31*x48 - x46*x51
        x53 = t1*x52
        x54 = -q2*x5
        x55 = -x27*x34 - x54
        x56 = q2*x26
        x57 = t1*x50
        x58 = -q2*x57 + x56
        x59 = x12*x58
        x60 = -p2*x59 - x31*x55
        x61 = t1*x60
        x62 = p1 + p2*q1 + p2*q3 + p3
        x63 = p1*t1
        x64 = -x57
        x65 = x26 + x64
        x66 = x46*x65 + x63
        x67 = p3*t1
        x68 = x46*x48 + x67
        x69 = -x68
        x70 = t1*x8
        x71 = -x70
        x72 = x30 + x47
        x73 = x63 + x67
        x74 = -x29 - x57
        x75 = -x66
        x76 = -x11 - x13*x65 - x46*x55
        x77 = -x13*x51 - x44*x48
        x78 = t1*x77
        x79 = x28*x52 - x78
        x80 = x47 + x64
        x81 = x11 + x13*x80
        x82 = -p3*x59 - x44*x55
        x83 = t1*x82
        x84 = -x46*x80 - x63
        x85 = -x81
        x86 = x2*x43
        x87 = alpha3*x12
        x88 = x12*x33
        x89 = alpha4*x12
        x90 = 1/x5
        x91 = x28*x90
        x92 = q2*x17
        x93 = q2*x48
        x94 = x12*x93
        x95 = q2*x12
        x96 = q2*x70
        x97 = q2*x55
        x98 = x8*x90
        msc = -sc
        return (
            sc*(p1*x55*x91 + x10*x48*x91 - x12*x3*x55 - x12*x39*x48 - x12*(x28*x60 - x83) + x43*(-alpha5 + 2*q1*x17 + rho4 + x19 + x21) + x55*x88 - x8*(x40 + x92) + x86 + x87*(-x27*x28 - x54) + x89*(x28*x34 + x49)),
            sc*(-alpha3*(-x12*(x56 - x96) - x72*x95) - alpha4*(-x12*(-q2*x35 - x96) - x74*x95) + q2*t1*x16*x2 + q2*t1*(x14*(q1 + q3) + x16*x24 + 2*x92) - x12*(-q2*x61 + x8*x82) - x13*(q2*x51 - x8*x94) - x31*(-x28*x59 + x97) - x33*(-x59 - x94) - x44*(-x12*x28*x51 + x93) - x46*(q2*x58 - x12*x8*x97) - x79*x95 - x8*(2*q2*x14 + x16*x40 + x17*(q1*q2 + q2*q3))),
            sc*(-p1*x59 + p2*x58*x98 + p3*x51*x98 - x12*(-q2*x53 + x77*x8) + x43*(2*alpha2 + alpha5 + rho4 + x20 + x22) - x44*x51 + x51*x88 - x8*(q2*x17 + 2*q3*x14 - x40) - x86 + x87*(x49 - x7*x8) + x89*(x49 + x50*x8)),
            msc*(-alpha3*(-x31*(x26 + x30) - x32) - alpha4*(-x31*(-x29 - x35) - x32) + q2*t1*(x15 + x17*x18 - x25) - x1 - x13*(-x11*x8 + x5*x6) - x2*x4 - x31*(-t1*x45 + x28*x42 - x61) - x33*(-x11 - x38) - x44*(-p1*x29 + x10*x5 - x53) - x46*(-x42*x43 + x45*x8) - x8*(x10*x17 - x41)),
            msc*(-alpha3*(-x46*x72 - x46*(x26 + x71) - x73) - alpha4*(-x46*x74 - x46*(-x35 - x70) - x73) + 2*p2*q2*t1*x17 + t1*x17*x2 + t1*(x14*x62 + x17*x24) - x13*(x3*x5 - x53 + x69*x8) - x31*(-t1*x76 + x28*x75) - x33*(-x66 - x68) - x44*(-p2*x29 - t1*x69) - x46*x79 - x46*(-x43*x75 - x61 + x76*x8) - x8*(2*x15 + x17*x62)),
            msc*(-alpha3*(-x13*(x47 + x71) - x32) - alpha4*(-x13*(-x57 - x70) - x32) + q2*t1*(x15 + x25) + t1*(x14*(2*p3*q3 - x23) + x17*x40) - x1 - x13*(-x43*x84 - x78 + x8*x85) - x2*(-t1*x14 - x4) - x31*(p3*q2*x5 - x29*x3) - x33*(-x4 - x81) - x44*(-t1*x85 + x28*x84) - x46*(p2*(q2*q2)*x5 - x39*x70 - x83) - x8*(2*p3*x14 + x10*x17 + x41)),
        )

    return kernel


FIELDS = (field_1,)
