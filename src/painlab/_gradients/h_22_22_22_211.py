"""Bound flow fields of the 22,22,22,211 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    x15 = alpha1 - 1

    def kernel(z, w, sc):
        t1 = z
        q1, q2, p1, p2 = w
        x0 = 2*t1
        x1 = t1*t1
        x2 = q1*x1
        x3 = q1*t1
        x4 = -t1 - x3
        x5 = t1*x4
        x6 = x2 - x5
        x7 = 1/t1
        x8 = p1*x7
        x9 = p2*q2
        x10 = alpha2 + alpha5 + x9
        x11 = t1*x10
        x12 = 2*x11
        x13 = x0*x9
        x14 = x12 + x13
        x16 = -x3 - 1
        x17 = t1*x16
        x18 = -x17 + x2
        x19 = x18*x8
        x20 = x17 + x5
        x21 = -x20
        x22 = p1*t1
        x23 = -q2*x22 + x10*x18*x7
        x24 = x19/2
        x25 = x13 + x24
        x26 = q2*x1
        x27 = x16*x3
        x28 = -x26 - x27
        x29 = x8/2
        x30 = x28*x29
        x31 = q2*x2
        x32 = q2*t1*x16 - x31
        x33 = x32*x7
        x34 = -p2*x33 + x30
        x35 = t1*x34
        x36 = p2*x7
        x37 = -x18*x36
        x38 = x22 + x37
        x39 = q2*t1
        x40 = x12 + x24
        x41 = x10*x7
        x42 = x18*x41 + x30
        x43 = t1*x42
        x44 = x28*x36
        x45 = x24 - x44
        x46 = t1*x45
        x47 = p1*x33/2 + x28*x41
        x48 = t1*x47
        x49 = -x18
        x50 = x36*x49
        x51 = x22/2
        x52 = -x37 - x51
        x53 = -x50 - x51
        x54 = -x11 + x29*x49 + x44
        x55 = x4*x45 - x43
        x56 = x28*x7
        x57 = q2*x17
        x58 = x7/2
        x59 = x4*x58
        x60 = x28*x59
        x61 = q2*x18
        x62 = q2*x28
        x63 = x33*x4
        x64 = q2*x7
        msc = -sc
        return (
            sc*(-alpha3*x7*(-x26 - x3*x4) - alpha4*x7*(x16*x4 - x26) - x15*x56 + x29*(x60 + x61/2) + x29*(x31/2 - x57/2 + x60) - x36*(x62/2 + x63/2) + x41*(x18*x59 + x26/2 + x27/2) + x58*(q2*x46 + x4*x42) + x58*(x34*x4 - x48)),
            sc*(-alpha3*(x6*x64 - x7*(q2*t1*x4 - x31)) - alpha4*(x21*x64 - x7*(q2*x5 + x57)) + p1*x7*(-x62 - x63)/2 + p1*x7*(q2*x18*x4*x7 - x62)/2 + q2*x55*x7 + x10*x7*(-x4*x56 - x61) - x15*(-x33 + x61*x7) - x36*(q2*x28*x4*x7 - q2*x32) - x7*(q2*x35 + x4*x47)),
            msc*(-alpha2*x0*(alpha0 + alpha2) - alpha3*(x14 + x6*x8) - alpha4*(x14 + x21*x8) + p1*x7*(-t1*x23 + x25*x4 - x35)/2 + p1*x7*(x38*x39 + x4*x40 - x43)/2 + x10*x7*(-t1*x40 + x38*x4 - x46) - x15*(x14 + x19) - x36*(x23*x4 + x25*x39 - x48)),
            msc*(-alpha3*(p2*x6*x7 - x22 + x36*x6) - alpha4*(p2*x21*x7 - x20*x36 - x22) + p1*x7*(-t1*x54 + x4*x53)/2 + p1*x7*(x1*x9 + x4*x52 + x46)/2 + p2*x55*x7 + x10*x7*(p2*x5 - t1*x52) - x15*(-x38 - x50) - x36*(x35 + x39*x53 + x4*x54)),
        )

    return kernel


FIELDS = (field_1,)
