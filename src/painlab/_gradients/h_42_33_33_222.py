"""Bound flow fields of the 42,33,33,222 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    rho2 = par["rho2"]
    rho3 = par["rho3"]
    theta1 = par["theta1"]
    theta2 = par["theta2"]
    theta3 = par["theta3"]
    x0 = rho2*theta2
    x1 = theta1*theta2
    x2 = x0 + x1
    x11 = 2*theta2
    x12 = 2*rho2
    x13 = 2*theta1 + x12
    x14 = -x11 + x13
    x15 = theta2/2
    x16 = theta1/2
    x17 = rho2 + x16
    x18 = -x15 + x17
    x19 = -x18
    x20 = 2*rho3
    x21 = theta2 + x20
    x23 = 3*theta2/2
    x26 = -x17 - x20 - x23
    x31 = theta1 + x12
    x32 = 4*rho3
    x33 = 3*theta2 + x32
    x34 = theta3 + x11 + x20 + x31 + 1
    x35 = rho2 + theta1 - theta2
    x36 = -x35
    x44 = theta1 + 1
    x46 = 2*theta3

    def kernel(z, w, sc):
        t1 = z
        q1, q2, q3, p1, p2, p3 = w
        x3 = 2*t1
        x4 = 3*q3
        x5 = 2*q2
        x6 = x3 + 2
        x7 = x5 + x6
        x8 = q3*x3 + x3
        x9 = -x8
        x10 = q3*x6 + x5
        x22 = q2*x19 + t1*(-theta3 - x13 - x21) + theta2 + theta3
        x24 = p2*x3
        x25 = q1*q1
        x27 = q3*x26 + x18
        x28 = q2*q3
        x29 = -x6
        x30 = q3*x29
        x37 = t1*(-x11 - x13 - x32)
        x38 = 4*t1
        x39 = q3*t1
        x40 = q2*(x5 - x6)
        x41 = 2*q3
        x42 = -x38 - 4
        x43 = q3*x42
        x45 = -q2*x26 + x44
        x47 = -t1*(4*rho2 + 3*theta1 + x33 + x46 + 1) + theta2 + x46
        x48 = q1*x10 - x8
        x49 = q1*x9 - q2*x3 + t1*x6
        x50 = x41 - 2
        x51 = q2*(q3*x5 + x30) + q3*(q3*x38 + x38)
        msc = -sc
        return (
            sc*(p1*q1*(q1*(-q1*x50 - x7) + x38) + p2*x49 + p3*x48 + q1*(q1*(q3*x36 + x35) + x22) + t1*(x21 + x31)),
            sc*(p1*x49 + p2*(q2*(x3 + 6*x39 + x40) + t1*x43) + p3*x51 + q2*(t1*x34 - theta3 - x45) + q3*x37 - rho2*x3),
            sc*(p1*x48 + p2*x51 + p3*((q3*q3)*x42 + x28*x50) + q2*x27 + q3*(-x44 - x47)),
            msc*(p1*(p1*(q1*(q1*(3 - x4) - x7) + x3) + p2*x9 + p3*x10 + q1*(-q3*x14 + x14) + x22) + q3*x2 - x0 - x1),
            msc*(p1*(-p1*x25 + 2*p3*q1 + q1*x19 - x24) + p2*(p2*(q2*(3*q2 - x6) + t1*x4 + t1) + p3*(4*x28 + x30) + q2*(-x31 - x33) + t1*x34 - theta1 - theta3 - 1) + p3*(p3*q3*(q3 - 1) + x27) + rho2*(rho3 + theta2) + rho3*(rho3 + x16 + x23) + theta1*x15 + (theta2*theta2)/2),
            msc*(p1*(-p1*(q1*q1*q1) + p3*(q1*x6 - x3) - q1*x24 + x25*x36) + p2*(p2*(3*q2*t1 + t1*x29) + p3*(x38 + 8*x39 + x40) + x37) + p3*(p3*(q2*(x41 - 1) + x43) - x45 - x47) + q1*x2),
        )

    return kernel


FIELDS = (field_1,)
