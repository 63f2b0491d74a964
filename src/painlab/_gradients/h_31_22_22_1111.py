"""Bound flow fields of the 31,22,22,1111 Hamiltonians.

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
    x8 = alpha0/2
    x9 = alpha1/2
    x10 = alpha5/2
    x11 = alpha6/2
    x12 = alpha3 + x10 + x11 + x9 - 1/2
    x13 = alpha4 + x12
    x14 = alpha1 - 1
    x16 = alpha3 + alpha6
    x18 = alpha3 + 2*alpha4 + alpha5
    x24 = alpha2 + x8
    x27 = alpha3 + x14

    def kernel(z, w, sc):
        t1 = z
        q1, q2, p1, p2 = w
        x0 = q1 - 1
        x1 = p1*p1
        x2 = q1*x1
        x3 = -t1
        x4 = q1 + x3
        x5 = q2 - 1
        x6 = alpha4 + p2*x5
        x7 = p1*q2
        x15 = q1*x14
        x17 = x0*x16
        x19 = q1*x18
        x20 = p2*p2
        x21 = q2*x20
        x22 = q2 + x3
        x23 = 2*q1 - 2*t1
        x25 = alpha5*q2
        x26 = alpha6*x5
        x28 = q2*x27
        msc = -sc
        return (
            sc*(2*p1*q1*x0*x4 + q2*x23*x6 - x0*x15 - x17*x4 - x19*x4),
            sc*(p1*q2*x23*x5 + 2*p2*q2*x22*x5 - x22*x25 - x22*x26 - x28*x5),
            msc*(-p1*(x0*x14 + x15 + x16*x4 + x17 + x18*x4 + x19) + x0*x1*x4 + x0*x2 + x2*x4 + 2*x6*x7 + (-x13 - x8)*(-x13 + x8)),
            msc*(p1*x23*x6 + p2*x23*x7 - p2*(alpha5*x22 + alpha6*x22 + x25 + x26 + x27*x5 + x28) + x20*x22*x5 + x21*x22 + x21*x5 + (-x12 - x24)*(-x10 - x11 + x24 - x9 + 1/2)),
        )

    return kernel


FIELDS = (field_1,)
