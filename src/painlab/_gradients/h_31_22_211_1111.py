"""Bound flow fields of the 31,22,211,1111 Hamiltonians.

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
    rho4 = par["rho4"]
    x23 = -eta
    x24 = alpha5 + rho4 + x23
    x27 = -rho4
    x30 = alpha1/2
    x31 = alpha5/2
    x32 = alpha0/2 + alpha2/2 + alpha3/2 + alpha4/2 - 1/2
    x33 = x31 + x32
    x34 = x30 + x33
    x35 = -x23 - x34
    x36 = alpha0 + alpha4
    x38 = alpha2 - 1
    x40 = alpha3 + x23
    x41 = alpha5 + x40
    x51 = x30 - x31 + x32
    x53 = alpha0 + x38
    x55 = alpha1 + x40
    x67 = alpha0 - 1
    x69 = alpha2 + alpha3 + alpha4 + eta

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x0 = p1*p3
        x1 = q2*t1
        x2 = p3*q3
        x3 = p1*q1
        x4 = 2*x3
        x5 = p1*q2
        x6 = 2*x2
        x7 = q1 - 1
        x8 = p1*p1
        x9 = q1*x8
        x10 = -t1
        x11 = q1 + x10
        x12 = t1 + 1
        x13 = q2 - 1
        x14 = x11*x13
        x15 = p1*p2*x14
        x16 = x11*x7
        x17 = p2*q2
        x18 = -x2
        x19 = alpha1 + eta + x17 + x18 + x4
        x20 = alpha5 + x17
        x21 = alpha1 + x3
        x22 = p1*x20 + p2*x21
        x25 = x2 + x24
        x26 = 1/t1
        x28 = x26*(x2 + x27)
        x29 = x25*x28
        x37 = q1*x36
        x39 = q1*x38
        x42 = x41*x7
        x43 = p2*q1
        x44 = p2*p2
        x45 = q2*x44
        x46 = q2 + x10
        x47 = p1*t1
        x48 = x18 + x21
        x49 = p3*t1
        x50 = x2 + x20 + x4
        x52 = alpha4*q2
        x54 = q2*x53
        x56 = x13*x55
        x57 = p3*p3
        x58 = q3*x57
        x59 = q3 - 1
        x60 = q3 + x10
        x61 = q1*x2
        x62 = x25*x26
        x63 = p3*q1
        x64 = 2*x1
        x65 = -p1*x64 + x12*x3 - x17 + x43
        x66 = alpha1*x59
        x68 = q3*x67
        x70 = q3*x69
        x71 = q1 - x1
        x72 = q3*q3
        x73 = q1*x72
        msc = -sc
        return (
            sc*(-(q1*q1)*x6 + q1*q2*x6 + x1*x63 - x11*x37 - x11*x42 + x14*(x20 + x43) + x16*x4 + x2*(q1*x12 - x64) - x39*x7 - x49*x71),
            sc*(2*p2*q2*x13*x46 + p3*(q2*q2)*q3 + p3*q3*(q1 - q2) - q2*x61 + x11*x13*(x21 + x5) - x13*x54 - x46*x52 - x46*x56),
            sc*(p3*q1*x72 + p3*q2*x72 + 2*p3*q3*x59*x60 - q1*q3*x19 + q2*q3*x50 + q2*t1*x48 + q3*x65 - x1*x2 - x28*x73 - x47*x71 - x59*x68 - x60*x66 - x60*x70 - x62*x73),
            msc*(-p1*(x11*x36 + x11*x41 + x37 + x38*x7 + x39 + x42) - q3*x29 - t1*x0 + x0*x1 + x11*x9 + x13*x22 + x15 + x16*x8 - x19*x2 - x2*x4 + x2*(p1*x12 + p2) + x35*(x30 - x33) + x5*x6 + x7*x9),
            msc*(-p2*(alpha4*x46 + x13*x53 + x46*x55 + x52 + x54 + x56) - rho4*x24 + (t1*t1)*x0 + x11*x22 + x13*x44*x46 + x13*x45 + x15 + x17*x2 - x2*x43 + x2*x50 + x2*(-p2 - 2*x47) - x35*x51 + x45*x46 + x48*x49),
            msc*(p3*q2*x50 + p3*x65 - p3*(alpha1*x60 + x59*x67 + x60*x69 + x66 + x68 + x70) - q1*x29 + q1*x58 + q2*x58 - x1*x57 - x19*x63 - x28*x61 + x57*x59*x60 + x58*x59 + x58*x60 - x61*x62 + (-rho4 - x34)*(-eta - x27 - x51)),
        )

    return kernel


FIELDS = (field_1,)
