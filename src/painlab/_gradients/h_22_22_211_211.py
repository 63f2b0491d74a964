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
    x23 = alpha1 - 1
    x49 = theta32 + x23

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = alpha2*t1*(alpha0 + alpha2)
        x1 = t1 - 1
        x2 = p1*q2
        x3 = -alpha2 - alpha5 + p2*q2
        x4 = q3*x3 + x2
        x5 = p2*x4
        x6 = t1*t1
        x7 = q2*x6
        x8 = p2*q2
        x9 = q3*t1
        x10 = -t1 - x9
        x11 = t1*x10
        x12 = 1/t1
        x13 = p3*x12
        x14 = q1*x6
        x15 = q1*t1
        x16 = -t1 - x15
        x17 = t1*x16
        x18 = -x17
        x19 = p1*x12
        x20 = t1*x3
        x21 = t1*x8
        x22 = x20 + x21
        x24 = -x15 - 1
        x25 = t1*x24
        x26 = -x25
        x27 = x14 + x26
        x28 = x19*x27 + x20
        x29 = q3*x7
        x30 = -q2*x25 + x29
        x31 = x12*x30
        x32 = -x9 - 1
        x33 = -x32*x9 + x7
        x34 = x12*x3
        x35 = -p1*x31 - x33*x34
        x36 = t1*x35
        x37 = p2*x12
        x38 = p3*t1
        x39 = -x27*x37 - x38
        x40 = -x28
        x41 = q2*t1
        x42 = -q2*x6
        x43 = -x15*x24 - x42
        x44 = t1*x32
        x45 = -x44
        x46 = x14 + x45
        x47 = -x19*x43 - x34*x46
        x48 = t1*x47
        x50 = -q1 + q3
        x51 = p1 + p2*x50 - p3
        x52 = p1*t1
        x53 = x37*x46 + x52
        x54 = q3*x6
        x55 = x26 + x54
        x56 = x37*x55 + x38
        x57 = -x53
        x58 = -x11
        x59 = x14 + x58
        x60 = x38 + x52
        x61 = -x11 - x25
        x62 = -x13*x46 - x37*x43
        x63 = t1*x62
        x64 = -x56
        x65 = -x19*x55 - x20 - x33*x37
        x66 = x10*x62 - x48
        x67 = -p2*x31 - x13*x33
        x68 = t1*x67
        x69 = x45 + x54
        x70 = x13*x69 + x21
        x71 = -x70
        x72 = -t1*x2 - x34*x69
        x73 = alpha3*x12
        x74 = x12*x43
        x75 = alpha4*x12
        x76 = 1/x6
        x77 = x16*x76
        x78 = q2*x51
        x79 = q2*x46
        x80 = x12*x79
        x81 = q2*x12
        x82 = q2*x17
        x83 = q2*x33
        x84 = x12*x33
        x85 = x10*x76
        msc = -sc
        return (
            sc*(p1*x43*x77 + p2*x30*x77 - p3*x31 + x1*(x4 + x78) - x12*(-q2*x63 + x16*x47) + x23*x74 - x34*x43 + x73*(-x15*x16 - x42) + x75*(x16*x24 + x7)),
            sc*(-alpha3*(-x12*(x29 - x82) - x59*x81) - alpha4*(-x12*(-q2*x44 - x82) - x61*x81) + x1*(q2*x49 + q3*x78 + x4*x50) - x12*(-q2*x68 + x16*x35) - x13*(-x10*x31 + x83) - x19*(q2*x43 - x16*x80) - x23*(-x31 - x80) - x34*(-x10*x74 + x79) - x37*(q2*x30 - x12*x16*x83) - x66*x81),
            sc*(p3*x33*x85 + x1*(q3*x49 - x4) - x12*x2*x46 - x12*(x10*x67 - x36) + x23*x84 + x3*x46*x85 + x73*(-x10*x9 + x7) + x75*(x10*x32 + x7) - x8*x84),
            msc*(-alpha3*(-x19*(x14 + x18) - x22) - alpha4*(-x19*(-x17 - x25) - x22) - x0 - x1*x5 - x13*(p1*x7 - x11*x8) - x19*(x16*x40 - x39*x41 - x48) - x23*(-x21 - x28) - x34*(-t1*x40 + x10*x39) - x37*(p2*(q2*q2)*x6 - x17*x2 - x36)),
            msc*(-alpha3*(-x37*x59 - x37*(x18 + x54) - x60) - alpha4*(-x37*x61 - x37*(-x17 - x44) - x60) + x1*(p2*x49 + x51*(p1 + p2*q3)) - x13*(-t1*x65 + x10*x64) - x19*(x16*x57 + x6*x8 - x63) - x23*(-x53 - x56) - x34*(-p2*x11 - t1*x57) - x37*x66 - x37*(x16*x65 - x41*x64 - x68)),
            msc*(-alpha3*(-x13*(x54 + x58) - x22) - alpha4*(-x13*(-x11 - x44) - x22) - x0 + x1*(p3*x49 + x3*x51 + x5) - x13*(-t1*x72 + x10*x71 - x68) - x19*(p3*x7 - x16*x20) - x23*(-x20 - x70) - x34*(-x10*x38 + x3*x6 - x63) - x37*(x16*x72 - x41*x71)),
        )

    return kernel


FIELDS = (field_1,)
