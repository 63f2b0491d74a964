"""Bound flow fields of the 11,11,11,11 Hamiltonians.

Generated by tools/gen_gradients.py from painlab.hamiltonians; do not edit.
"""


def field_1(par, t):
    alpha0 = par["alpha0"]
    alpha1 = par["alpha1"]
    alpha3 = par["alpha3"]
    alpha4 = par["alpha4"]
    x4 = alpha0/2
    x5 = alpha1/2 + alpha3/2 + alpha4/2 - 1/2
    x8 = alpha1 - 1

    def kernel(z, w, sc):
        t1 = z
        q1, p1 = w
        x0 = q1 - 1
        x1 = p1*p1
        x2 = q1*x1
        x3 = q1 - t1
        x6 = alpha3*q1
        x7 = alpha4*x0
        x9 = q1*x8
        msc = -sc
        return (
            sc*(2*p1*q1*x0*x3 - x0*x9 - x3*x6 - x3*x7),
            msc*(-p1*(alpha3*x3 + alpha4*x3 + x0*x8 + x6 + x7 + x9) + x0*x1*x3 + x0*x2 + x2*x3 + (-x4 - x5)*(x4 - x5)),
        )

    return kernel


FIELDS = (field_1,)
