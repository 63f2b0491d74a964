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
    x0 = 2*alpha2
    x1 = 2*alpha5
    x2 = x0 + x1
    x3 = 4*alpha2 + 4*alpha5
    x4 = 2*alpha4
    x5 = 2*alpha3 + x4
    x6 = x5 - 2
    x14 = 6*alpha2 + 6*alpha5
    x15 = -4*alpha1 - 4*alpha3 - 4*alpha4 - x14 + 4
    x17 = -alpha4
    x20 = alpha3 + alpha4
    x21 = -x2 - x20
    x24 = 2*alpha1
    x25 = alpha1 - 1
    x26 = x20 + x25

    def kernel(z, w, sc):
        t1 = z
        q1, q2, p1, p2 = w
        x7 = q2*t1
        x8 = q1*t1
        x9 = 6*x8
        x10 = q2*x9
        x11 = 4*t1
        x12 = x11 + 4
        x13 = q2*x12
        x16 = x15*x7 + x2
        x18 = -x12
        x19 = -q2*x18
        x22 = 3*x8/2
        x23 = t1 + 1
        x27 = t1*(alpha2 + alpha5 + x26)
        x28 = q2*x11
        x29 = 12*x7
        x30 = 2*t1
        x31 = -t1*(-x2 - x5) + x2 + x24 + x4 - 2
        x32 = q1*(-x10 - x19) + q2*(q2*x30 - 2)
        msc = -sc
        return (
            sc*(-alpha2 - alpha5 + p1*(q1*(q1*(-x23 - x8) + 3*x7 - 1) + q2*x23) + p2*x32 + q1*(-alpha4 + q1*t1*(-3*alpha2 - 3*alpha5 - x26) + t1*x21 - x2 - x25) + q2*x27 + x17),
            sc*(p1*x32 + p2*(q1*(q1*(q1*x28 + x13) + q2*(4 - x29)) + (q2*q2)*x18) + q1*(q1*(t1*x2 + x2*x8 + x2) + x16) - q2*x31),
            msc*(p1*(-alpha1 + p1*(q1*(-x22 - x23) + 3*x7/2 - 1/2) + p2*(-12*q2*x8 - x19) + t1*x21 - x0 - x1 + x17 + x8*(-x14 - x24 - x6) + 1) + p2*(p2*(q1*(x10 + x13) + q2*(2 - 6*x7)) + q1*(t1*x3 + x14*x8 + x3) + x16) + t1*(-alpha0*x0 - alpha1*x2 + alpha2*(-x3 - x6) - alpha3*x1 - alpha4*x1 + alpha5*(2 - x1))),
            msc*(p1*(p1*(t1/2 + x22 + 1/2) + p2*(q1*(-x12 - x9) + x28 - 2) + x27) + p2*(p2*(q1*(q1*(q1*x30 + x30 + 2) - x29 + 2) + q2*x18) + q1*t1*x15 - x31)),
        )

    return kernel


FIELDS = (field_1,)
