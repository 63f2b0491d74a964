"""Bound flow fields of the 31,31,22,22,22 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    _, t2 = t
    x18 = alpha5/2
    x19 = alpha1/2 + alpha2/2 + alpha3/2 + alpha4/2
    x22 = t2 - 1
    x28 = alpha3 - 1
    x29 = alpha2 + x28

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = 2*p1
        x1 = p2*q2
        x2 = q1*x0
        x3 = p3*q3
        x4 = q1 - 1
        x5 = p1*p1
        x6 = q1*x5
        x7 = q1 - t1
        x8 = 2*t1
        x9 = x8 + 2
        x10 = p1*x9
        x11 = 2*alpha0 + alpha5 + x2 + 1
        x12 = x1 + x11
        x13 = 1/(t1 - t2)
        x14 = t1 - 1
        x15 = t2*x14
        x16 = alpha2*x13*x15
        x17 = 2*x1 + x11 + x3
        x20 = t1*x14
        x21 = p2*p2
        x23 = p2*x22
        x24 = p1*x8
        x25 = x13*(x15*x21 + x20*x5 - x23*x24)
        x26 = alpha4*q1
        x27 = alpha1*x4
        x30 = q1*x29
        x31 = q1*q2
        x32 = p2*q1
        x33 = 2*x3
        x34 = t1*(-alpha1 + alpha2 + x3)
        x35 = alpha1*x13
        x36 = p1*x14
        x37 = t1*(-x23 + x36)
        x38 = x13*(alpha1 - alpha2)
        x39 = p3*p3
        x40 = q1*q3
        x41 = q2*t1
        x42 = t1 + 1
        x43 = 2*q3
        x44 = p3*q1
        x45 = alpha1 + t1*(alpha1 + alpha4) + x28
        x46 = alpha2 + x12 + x33
        x47 = q1*q1
        x48 = q1*x16
        x49 = -x23*x8 + x36*x8
        x50 = x13*x31
        x51 = -x22*x41
        x52 = 2*p2*t2*x14 - x22*x24
        x53 = q3*q3
        msc = -sc
        return (
            sc*(alpha1*q2*t1*x13*x14 + 2*p1*q1*x4*x7 + 2*p2*q2*x47 + 2*p3*q3*t1 + 2*p3*q3*x47 - q1*x3*x9 - q2*x20*x38 + q3*x13*x49 - x26*x7 - x27*x7 - x30*x4 - x32*x43 - x48 - x49*x50),
            sc*((q2*q2)*x32 - q3*x1 + q3*x13*x52 - q3*x46 + x12*x31 + x31*x33 + x35*x51 - x38*x51 + x48 - x50*x52),
            sc*(-2*p2*x53 - 2*p3*x42*x53 + q2*x34 + q3*x24 + q3*x45 - x10*x40 + x17*x40 + x3*x41 + x44*x53),
            msc*(-p1*(alpha1*x7 + alpha4*x7 + x26 + x27 + x29*x4 + x30) - p2*q3*x0 - q2*x25 + x1*x12 + x1*x2 - x10*x3 - x16*(p1 - p2) + x17*x3 + x2*x3 + x4*x5*x7 + x4*x6 + x6*x7 + (-x18 - x19)*(x18 - x19 + 1)),
            msc*(p3*x34 - q1*x25 - q3*x21 + x12*x32 + x21*x31 + x32*x33 + x35*x37 - x37*x38),
            msc*(-p2*x33 - p2*x46 + p3*x24 + p3*x45 - x10*x44 + x17*x44 + x25 + x39*x40 + x39*x41 - x39*x42*x43),
        )

    return kernel


def field_2(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    t1, _ = t
    x11 = t1 - 1
    x24 = alpha1 - alpha2
    x35 = alpha5/2
    x36 = alpha1/2 + alpha2/2 + alpha3/2 + alpha4/2
    x39 = alpha1 + alpha3 - 1

    def kernel(z, w, sc):
        t2 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = p1*p1
        x1 = q1*q2
        x2 = p1*q2
        x3 = p3*q3
        x4 = 2*x3
        x5 = t2*(-alpha1 + alpha2 + x3)
        x6 = p1*q1
        x7 = 2*p2
        x8 = q2*x7
        x9 = 2*alpha0 + alpha5 + x8 + 1
        x10 = x6 + x9
        x12 = p1*x11
        x13 = t2 - 1
        x14 = -p2*x13
        x15 = -t2
        x16 = t1 + x15
        x17 = -1/x16
        x18 = alpha2*x17
        x19 = t1*x13
        x20 = p2*p2
        x21 = 2*t2
        x22 = p2*x21
        x23 = x17*(t2*x13*x20 + x0*x19 - x12*x22)
        x25 = q2 - 1
        x26 = q2*x20
        x27 = q2 + x15
        x28 = x21 + 2
        x29 = p2*x28
        x30 = alpha1*x17*x19
        x31 = x3 + 2*x6 + x9
        x32 = p1*x13
        x33 = x24/x16
        x34 = t1*x33
        x37 = alpha4*q2
        x38 = alpha2*x25
        x40 = q2*x39
        x41 = p3*p3
        x42 = q1*t2
        x43 = q2*q3
        x44 = t2 + 1
        x45 = 2*q3
        x46 = p3*q2
        x47 = t2*(alpha1 + alpha4) + x39
        x48 = alpha2 + x10 + x4
        x49 = q2*x30
        x50 = 2*t1*x32 - x11*x22
        x51 = x1*x17
        x52 = q2*q2
        x53 = 2*p2*t2*x13 - x12*x21
        x54 = q3*q3
        x55 = 2*x54
        msc = -sc
        return (
            sc*((q1*q1)*x2 + q2*x13*x34 + q3*x17*x50 - q3*x48 - q3*x6 + x1*x10 + x1*x4 - x11*x18*x42 + x49 - x50*x51),
            sc*(alpha2*q1*t2*x13*x17 + 2*p1*q1*x52 + 2*p2*q2*x25*x27 + 2*p3*q3*t2 + 2*p3*q3*x52 - q2*x19*x33 - q2*x28*x3 + q3*x17*x53 + t2*x24*x25 - x2*x45 - x25*x40 - x27*x37 - x27*x38 - x49 - x51*x53),
            sc*(-p1*x55 - p3*x44*x55 + q1*x5 + q3*x22 + q3*x47 - x29*x43 + x3*x42 + x31*x43 + x46*x54),
            msc*(p3*x5 - q2*x23 - q3*x0 + t2*x18*(-x12 - x14) + x0*x1 + x10*x2 + x2*x4),
            msc*(-p1*q3*x7 + p2*t2*x24 - p2*(alpha2*x27 + alpha4*x27 + x25*x39 + x37 + x38 + x40) - q1*x23 + x10*x6 + x20*x25*x27 + x25*x26 + x26*x27 - x29*x3 + x3*x31 + x3*x8 - x30*(-p1 + p2) - x34*(-x14 - x32) + x6*x8 + (-x35 - x36)*(x35 - x36 + 1)),
            msc*(-p1*x4 - p1*x48 + p3*x22 + p3*x47 + x23 - x29*x46 + x31*x46 + x41*x42 + x41*x43 - x41*x44*x45),
        )

    return kernel


FIELDS = (field_1, field_2,)
