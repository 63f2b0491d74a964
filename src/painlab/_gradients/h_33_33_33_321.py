"""Bound flow fields of the 33,33,33,321 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    x0 = 6*alpha3
    x1 = 6*alpha4
    x2 = 12*alpha5
    x3 = 6*alpha2
    x4 = 6*alpha5
    x5 = x3 + x4
    x32 = 12*alpha2
    x33 = -x2 - x32
    x34 = 2*alpha1 + 2*alpha4 - 2
    x35 = 2*alpha3 + x34
    x36 = 4*alpha2
    x37 = 4*alpha5
    x38 = x36 + x37
    x39 = alpha1 + alpha4 - 1
    x60 = 3*alpha3
    x61 = 3*alpha4
    x62 = 3*alpha1 + x61 - 3
    x64 = 18*alpha2
    x65 = 18*alpha5
    x66 = -x64 - x65
    x67 = 4*alpha1 + 4*alpha3 + 4*alpha4 + x66 - 4
    x68 = 2*alpha2
    x69 = 2*alpha5
    x70 = -x68 - x69
    x80 = x64 + x65
    x81 = 12*alpha1 + 12*alpha3 + 12*alpha4 - 12
    x82 = x2 + x32
    x84 = 6*alpha1 + x0 + x1 - 6
    x85 = x66 + x84
    x91 = -x3 - x4
    x98 = -36*alpha2 - 36*alpha5
    x99 = x84 + x98
    x105 = alpha3 + x39
    x112 = x68 + x69

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x6 = 2*t1
        x7 = q2*x6
        x8 = 2*t1/3
        x9 = x8 + 2/3
        x10 = -x9
        x11 = -q1*x10
        x12 = 8*t1
        x13 = q2*x12
        x14 = q1*x12
        x15 = x6 + 2
        x16 = 8*t1/3 + 8/3
        x17 = -q3*x6
        x18 = -q2*x16 + x17
        x19 = 16*t1
        x20 = x12 + 8
        x21 = -x20
        x22 = q2*x21
        x23 = 18*t1
        x24 = q2*x23
        x25 = q1*t1
        x26 = 4*t1
        x27 = x26 + 4
        x28 = -x27
        x29 = q3*x28
        x30 = 12*t1
        x31 = -(q2*q2)*x30 + x29
        x40 = t1*(alpha3 + alpha4 - x38) - x36 - x37 + x39
        x41 = q3*x10
        x42 = 6*t1
        x43 = q2*x42
        x44 = q2*t1
        x45 = 4*t1/3 + 4/3
        x46 = -x45
        x47 = q2*x46
        x48 = x17 + x47
        x49 = 48*x44
        x50 = 12*q3
        x51 = -t1*x50
        x52 = x42 + 6
        x53 = -x52
        x54 = q2*x53
        x55 = 24*x44
        x56 = 36*t1
        x57 = -2*q3
        x58 = -q3*x23
        x59 = q2*(x22 + x58) + x57
        x63 = -q1*t1*(-x60 - x62)
        x71 = q3*q3
        x72 = 9*t1
        x73 = q3*x53
        x74 = x24 + 6
        x75 = -x23 - 18
        x76 = x56 + 36
        x77 = q3*t1
        x78 = -q2*x76
        x79 = q2*(-54*x77 + x78) - x50
        x83 = t1*x82 + x82
        x86 = -q2*x83 + x77*x85
        x87 = q1*x6
        x88 = x87 + x9
        x89 = -x88
        x90 = q1*x26
        x92 = t1*(x35 + x91)
        x93 = -q3*x42
        x94 = q1*x42
        x95 = x27 + x94
        x96 = -30*x77
        x97 = 54*x44
        x100 = q2*x28
        x101 = q2*x30
        x102 = q2*x56
        x103 = t1*(2*alpha3 + 2*alpha4 - x5) + x34 + x91
        x104 = x43 + 2
        x106 = t1*(x105 + x70)
        x107 = -q3*x26
        x108 = t1*(-x5 + x60 + x61) + x62 + x91
        x109 = q2*x26
        x110 = q1*(q1*(q1*x88 - x109) + x18) + q2*(-x109 - 4/3) + x41
        x111 = q1*(q1*(q1*(q1*(x15 + x94) - x43) - q3*x12 + x100) + x31) + q2*(x100 + x93) + x57
        x113 = q1*(q1*(q1*(q1*(q1*x95 + x104) - q2*x15 + x107) + q2*(-x55 - 4) + x29) + x59) + q2*(q2*(-x101 - 4) + x73) - x6*x71
        x114 = x30 + 12
        x115 = -x114
        x116 = q3*x115
        msc = -sc
        return (
            sc*(alpha4 + p1*(q1*(-x109 - x11 - 2/3) - q3*x8 + x47) + p2*x110 + p3*x111 + q1*(x25*(x105 + x91) + x40) + q2*x92 + x70),
            sc*(p1*x110 + p2*(q1*(q1*(q1*(q1*(x45 + x87) + x7 + 2/3) + x48) + q2*(-x101 - 4/3) + q3*x46) + q2*(x100 - 10*x77/3) - 2*q3/3) + p3*x113 + q1*(q1*(-q1*t1*x105 - t1*x112 - x112) + q2*t1*x67 - x112) + q2*x103 + q3*x106),
            sc*(p1*x111 + p2*x113 + p3*(q1*(q1*(q1*(q1*(q1*(q1*(q1*x23 + x114) + x74) + x93) + q2*(6 - x97) + x116) + x79) + q2*(q2*(-x102 - 12) + x116) - x23*x71) + q2*(q2*(q2*x115 + x96) - 6*q3) + x53*x71) + q1*(q1*(q1*(-t1*x5 - x5 - x63) + x44*x99 + x61 + x91) + x86) + q2*(q2*t1*x85 - x5) + q3*x108),
            msc*(p1*(p1*(-x11 - x7 - 1/3) + p2*(q1*(q1*(x14 + x15) - x13) + x18) + p3*(q1*(q1*(q1*(x20 + 30*x25) - x24) - q3*x19 + x22) + x31) + x25*(x33 + x35) + x40) + p2*(p2*(q1*(q1*(q1*(x16 + 5*x25) + 3*x44 + 1) + x48) + q2*(-x43 - 2/3) + x41) + p3*(q1*(q1*(q1*(q1*(q1*x56 + 20*t1 + 20) + x55 + 8) + x51 + x54) + q2*(-x49 - 8) + q3*x21) + x59) + q1*(-t1*x38 - x38 - x63) + x44*x67 + x70) + p3*(p3*(q1*(q1*(q1*(q1*(q1*(63*x25 + x76) + 45*x44 + 15) + x51) + q2*(9 - 81*x44) + q3*x75) + x79) + q2*(-q2*x74 + x73) - x71*x72) + q1*(q1*(-q1*t1*x81 - t1*x80 - x80) + x1 + x33 + x44*(-72*alpha2 - 72*alpha5 + x81)) + x86) + t1*(-3*alpha0*alpha2 + alpha1*x5 + alpha2*(-15*alpha2 + 6*alpha3 + 6*alpha4 - 24*alpha5 - 6) + alpha5*x0 + alpha5*x1 + alpha5*(-x2 - 6))),
            msc*(p1*(p1*x89 + p2*(q1*(-x16 - x90) - x13 - 4/3) + p3*(q1*(-q1*x95 - x55) + x22 + x93) + x92) + p2*(p2*(q1*(q1*(x25 - x9) - x101 - 2/3) + x100 - 5*x77/3) + p3*(q1*(q1*(q1*(-x15 + x94) - x49 - 4) + q2*(-x19 - 16) + x58) + q2*(-x102 - 8) + x73) + x103 + x25*x67) + p3*(p3*(q1*(q1*(q1*((q1*q1)*x72 - x97 + 3) - 27*x77 + x78) + q2*(-x97 - 12) + x73) + q2*(q2*x75 + x96) - 3*q3) + q1*(q1*t1*x99 - x83) + x44*(x81 + x98) + x91)),
            msc*(p1*(-p1*t1/3 + p2*x89 + p3*(q1*(-x14 - x27) - x104)) + p2*(p2*(q1*(-x25 - x9) - 5*x44/3 - 1/3) + p3*(q1*(q1*(-x27 - x90) - x24 - 2) + x107 + x54) + x106) + p3*(p3*(q1*(q1*(q1*(-3*x25 - x52) - 27*x44 - 6) + x54 + x58) + q2*(-15*x44 - 3) + x73) + x108 + x25*x85)),
        )

    return kernel


FIELDS = (field_1,)
