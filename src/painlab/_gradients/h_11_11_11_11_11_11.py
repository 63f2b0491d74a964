"""Bound flow fields of the 11,11,11,11,11,11 Hamiltonians.

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
    _, t2, t3 = t
    x21 = t2 - 1
    x26 = t3 - 1
    x29 = alpha6/2
    x30 = alpha1/2 + alpha2/2 + alpha3/2 + alpha4/2 + alpha5/2
    x33 = alpha2 + alpha3 + alpha4 - 1

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = p2*q2
        x1 = 2*p1
        x2 = q1*x1
        x3 = p3*q3
        x4 = 2*x3
        x5 = q1 - 1
        x6 = p1*p1
        x7 = q1*x6
        x8 = q1 - t1
        x9 = 2*alpha0 + alpha6 + x2 + 1
        x10 = x0 + x9
        x11 = x3 + x9
        x12 = 1/(t1 - t2)
        x13 = t1 - 1
        x14 = t2*x13
        x15 = alpha2*x12*x14
        x16 = 1/(t1 - t3)
        x17 = t3*x13
        x18 = alpha3*x16*x17
        x19 = t1*x13*x6
        x20 = p2*p2
        x22 = p2*x21
        x23 = t1*x1
        x24 = x12*(x14*x20 + x19 - x22*x23)
        x25 = p3*p3
        x27 = p3*x26
        x28 = x16*(x17*x25 + x19 - x23*x27)
        x31 = alpha5*q1
        x32 = alpha1*x5
        x34 = q1*x33
        x35 = q1*q2
        x36 = p2*q1
        x37 = p1*x13
        x38 = alpha1*t1
        x39 = x12*x38
        x40 = q1*q3
        x41 = p3*q1
        x42 = 2*x0
        x43 = x16*x38
        x44 = q1*q1
        x45 = q1*x15
        x46 = q1*x18
        x47 = 2*t1
        x48 = x37*x47
        x49 = x12*x35
        x50 = x16*x40
        msc = -sc
        return (
            sc*(alpha1*q2*t1*x12*x13 + alpha1*q3*t1*x13*x16 + 2*p1*q1*x5*x8 + 2*p2*q2*x44 + 2*p3*q3*x44 - x31*x8 - x32*x8 - x34*x5 - x45 - x46 - x49*(-x22*x47 + x48) - x50*(-x27*x47 + x48)),
            sc*((q2*q2)*x36 - q2*x21*x39 + x10*x35 + x35*x4 + x45 - x49*(2*p2*t2*x13 - x21*x23)),
            sc*((q3*q3)*x41 - q3*x26*x43 + x11*x40 + x40*x42 + x46 - x50*(2*p3*t3*x13 - x23*x26)),
            msc*(-p1*(alpha1*x8 + alpha5*x8 + x31 + x32 + x33*x5 + x34) - q2*x24 - q3*x28 + x0*x10 + x0*x2 + x0*x4 + x11*x3 - x15*(p1 - p2) - x18*(p1 - p3) + x2*x3 + x5*x6*x8 + x5*x7 + x7*x8 + (-x29 - x30)*(x29 - x30 + 1)),
            msc*(-q1*x24 + x10*x36 + x20*x35 + x36*x4 + x39*(-x22 + x37)),
            msc*(-q1*x28 + x11*x41 + x25*x40 + x41*x42 + x43*(-x27 + x37)),
        )

    return kernel


def field_2(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    alpha6 = par["alpha6"]
    t1, _, t3 = t
    x10 = t1 - 1
    x31 = t3 - 1
    x34 = alpha6/2
    x35 = alpha1/2 + alpha2/2 + alpha3/2 + alpha4/2 + alpha5/2
    x38 = alpha1 + alpha3 + alpha4 - 1

    def kernel(z, w, sc):
        t2 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = p1*p1
        x1 = q1*q2
        x2 = p1*q2
        x3 = p3*q3
        x4 = 2*x3
        x5 = p1*q1
        x6 = 2*p2
        x7 = q2*x6
        x8 = 2*alpha0 + alpha6 + x7 + 1
        x9 = x5 + x8
        x11 = p1*x10
        x12 = t2 - 1
        x13 = -t2
        x14 = 1/(-t1 - x13)
        x15 = alpha2*t2
        x16 = x14*x15
        x17 = t1*x12
        x18 = p2*p2
        x19 = t2*x12*x18
        x20 = t2*x6
        x21 = x14*(x0*x17 - x11*x20 + x19)
        x22 = q2 - 1
        x23 = q2*x18
        x24 = q2 + x13
        x25 = x3 + x8
        x26 = alpha1*x14*x17
        x27 = 1/(t2 - t3)
        x28 = t3*x12
        x29 = alpha3*x27*x28
        x30 = p3*p3
        x32 = p3*x31
        x33 = x27*(x19 - x20*x32 + x28*x30)
        x36 = alpha5*q2
        x37 = alpha2*x22
        x39 = q2*x38
        x40 = q2*q3
        x41 = p3*q2
        x42 = 2*x5
        x43 = p2*x12
        x44 = x15*x27
        x45 = q2*x26
        x46 = x1*x14
        x47 = q2*q2
        x48 = q2*x29
        x49 = 2*t2
        x50 = x27*x40
        msc = -sc
        return (
            sc*((q1*q1)*x2 - q1*x10*x16 + x1*x4 + x1*x9 + x45 - x46*(2*p1*x17 - x10*x20)),
            sc*(alpha2*q1*t2*x12*x14 + alpha2*q3*t2*x12*x27 + 2*p1*q1*x47 + 2*p2*q2*x22*x24 + 2*p3*q3*x47 - x22*x39 - x24*x36 - x24*x37 - x45 - x46*(2*p2*t2*x12 - x11*x49) - x48 - x50*(-x32*x49 + x43*x49)),
            sc*((q3*q3)*x41 - q3*x31*x44 + x25*x40 + x40*x42 + x48 - x50*(2*p3*t3*x12 - x20*x31)),
            msc*(-q2*x21 + x0*x1 + x16*(p2*x12 - x11) + x2*x4 + x2*x9),
            msc*(-p2*(alpha2*x24 + alpha5*x24 + x22*x38 + x36 + x37 + x39) - q1*x21 - q3*x33 + x18*x22*x24 + x22*x23 + x23*x24 + x25*x3 - x26*(-p1 + p2) - x29*(p2 - p3) + x3*x7 + x4*x5 + x5*x7 + x5*x9 + (-x34 - x35)*(x34 - x35 + 1)),
            msc*(-q2*x33 + x25*x41 + x30*x40 + x41*x42 + x44*(-x32 + x43)),
        )

    return kernel


def field_3(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha2 = par["alpha2"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    alpha5 = par["alpha5"]
    alpha6 = par["alpha6"]
    t1, t2, _ = t
    x10 = t1 - 1
    x28 = t2 - 1
    x40 = alpha6/2
    x41 = alpha1/2 + alpha2/2 + alpha3/2 + alpha4/2 + alpha5/2
    x44 = alpha1 + alpha2 + alpha4 - 1

    def kernel(z, w, sc):
        t3 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = p1*p1
        x1 = q1*q3
        x2 = p1*q3
        x3 = p2*q2
        x4 = 2*x3
        x5 = p1*q1
        x6 = 2*p3
        x7 = q3*x6
        x8 = 2*alpha0 + alpha6 + x7 + 1
        x9 = x5 + x8
        x11 = p1*x10
        x12 = t3 - 1
        x13 = -p3*x12
        x14 = -t3
        x15 = 1/(-t1 - x14)
        x16 = alpha3*t3
        x17 = x15*x16
        x18 = t1*x12
        x19 = p3*p3
        x20 = t3*x12*x19
        x21 = t3*x6
        x22 = x15*(x0*x18 - x11*x21 + x20)
        x23 = p2*p2
        x24 = q2*q3
        x25 = p2*q3
        x26 = 2*x5
        x27 = x3 + x8
        x29 = p2*x28
        x30 = 1/(-t2 - x14)
        x31 = x16*x30
        x32 = t2*x12
        x33 = x30*(x20 - x21*x29 + x23*x32)
        x34 = q3 - 1
        x35 = q3*x19
        x36 = q3 + x14
        x37 = -p3
        x38 = alpha1*x15*x18
        x39 = alpha2*x30*x32
        x42 = alpha5*q3
        x43 = alpha3*x34
        x45 = q3*x44
        x46 = q3*x38
        x47 = x1*x15
        x48 = q3*x39
        x49 = x24*x30
        x50 = q3*q3
        x51 = 2*t3
        x52 = -2*p3*t3*x12
        msc = -sc
        return (
            sc*((q1*q1)*x2 - q1*x10*x17 + x1*x4 + x1*x9 + x46 - x47*(2*p1*x18 - x10*x21)),
            sc*((q2*q2)*x25 - q2*x28*x31 + x24*x26 + x24*x27 + x48 - x49*(2*p2*x32 - x21*x28)),
            sc*(alpha3*q1*t3*x12*x15 + alpha3*q2*t3*x12*x30 + 2*p1*q1*x50 + 2*p2*q2*x50 + 2*p3*q3*x34*x36 - x34*x45 - x36*x42 - x36*x43 - x46 - x47*(-x11*x51 - x52) - x48 - x49*(-x29*x51 - x52)),
            msc*(-q3*x22 + x0*x1 + x17*(-x11 - x13) + x2*x4 + x2*x9),
            msc*(-q3*x33 + x23*x24 + x25*x26 + x25*x27 + x31*(-x13 - x29)),
            msc*(-p3*(alpha3*x36 + alpha5*x36 + x34*x44 + x42 + x43 + x45) - q1*x22 - q2*x33 + x19*x34*x36 + x27*x3 + x3*x7 + x34*x35 + x35*x36 - x38*(-p1 - x37) - x39*(-p2 - x37) + x4*x5 + x5*x7 + x5*x9 + (-x40 - x41)*(x40 - x41 + 1)),
        )

    return kernel


FIELDS = (field_1, field_2, field_3,)
