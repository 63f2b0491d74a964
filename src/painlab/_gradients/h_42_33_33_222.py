"""Bound flow fields of the 42,33,33,222 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    rho2 = par["rho2"]
    rho3 = par["rho3"]
    theta1 = par["theta1"]
    theta2 = par["theta2"]
    theta3 = par["theta3"]
    x0 = rho2 + theta1
    x15 = theta2/2
    x16 = rho2 + theta1/2
    x17 = -x15 + x16
    x21 = theta1 + theta3
    x22 = -x21
    x24 = 2*rho3
    x25 = 2*theta2
    x26 = x21 + x24 + x25
    x27 = rho2 + x26
    x29 = 2*rho2
    x30 = theta1 + theta2
    x31 = -x24 - x29 - x30
    x41 = x15 + x16
    x44 = x26 + 1
    x46 = -theta3 - x41 - 1
    x55 = 4*rho3
    x57 = 2*theta3 + 1

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x1 = p1*t1
        x2 = 2*p2
        x3 = x1*x2
        x4 = p1*p1
        x5 = rho2 + x1
        x6 = q1 - 1
        x7 = 2*t1
        x8 = x7 + 2
        x9 = p1*q1
        x10 = x0 + x9
        x11 = q3*x9
        x12 = -t1
        x13 = q1 + x12
        x14 = -theta2 + x9
        x18 = x17 + x9
        x19 = p1*q2
        x20 = x10*x14
        x23 = q1*x22
        x28 = q1*x27
        x32 = x31*x6
        x33 = p3*q3
        x34 = p2*p2
        x35 = q2 - 1
        x36 = q2*x34
        x37 = q2 + x12
        x38 = -x33
        x39 = 2*x9
        x40 = x17 + x38 + x39
        x42 = 2*p2*q2 - 3*theta2/2 - x16 - x24 - x38
        x43 = x29*x35
        x45 = q2*x44
        x47 = q2*x46
        x48 = p3*p3
        x49 = q2*x48
        x50 = p2*t1
        x51 = x8*(-p2*q2 + x9)
        x52 = t1 + 1
        x53 = p1 - x2
        x54 = p3*q2
        x56 = 3*p2*q2 + 4*p3*q3 - 2*theta1 - x25 - x29 - x39 - x55
        x58 = t1*(4*rho2 + 3*theta1 + 3*theta2 + x55 + x57) - x30 - x57
        x59 = q1*q1
        x60 = q3*x7
        x61 = q3*x59
        x62 = q1 + q2
        x63 = q2*x33
        x64 = q3*q3
        msc = -sc
        return (
            sc*(p1*q1*t1 + 2*p1*q1*x13*x6 - p2*q1*x60 + 2*p3*q1*q2 + p3*q1*q3*x8 - q1*q2*x18 + q1*x5 + 2*t1*(p2*x52 - p3) - x10*x61 - x13*x23 - x13*x32 - x14*x61 - x19*x59 - x28*x6 - x7*(p2*x62 + x33)),
            sc*(2*p1*t1*x52 + 3*p2*q2*q3*t1 + 2*p2*q2*x35*x37 + 2*p3*(q2*q2)*q3 - q2*x17 + q3*t1*x56 - x35*x47 - x37*x43 - x37*x45 - x63*x8 - x7*(p1*x62 + q3*x2*x52 - 2*x33)),
            sc*(-2*p3*x64*x8 + q2*q3*x42 + q2*x40 + q3*x51 + q3*x58 - 2*x1 + 4*x50*x64 - x53*x60 + x54*x64 - x63),
            msc*(2*p1*p3*q2 + p1*p3*q3*x8 + p1*x5 - p1*(x13*x22 + x13*x31 + x23 + x27*x6 + x28 + x32) - q1*q2*x4 + q1*x13*x4 + q1*x4*x6 - q3*x20 - q3*x3 - theta2*x0 - x10*x11 - x11*x14 + x13*x4*x6 - x18*x19 - x3),
            msc*(-p2*x17 - p2*x33*x8 - p2*(x29*x37 + x35*x46 + x37*x44 + x43 + x45 + x47) + p3*x40 + q2*x2*x33 + 3*q3*t1*x34 - x18*x9 - x3 + x33*x42 + x34*x35*x37 + x35*x36 + x36*x37 + (-rho3 - theta2)*(-rho3 - x41)),
            msc*(p2*t1*x56 + p3*x51 + p3*x58 - q1*x20 - 2*q3*x48*x8 + q3*x49 + 4*x33*x50 + x42*x54 - x49 - x7*(p3*x53 + x34*x52)),
        )

    return kernel


FIELDS = (field_1,)
