"""
Polar decomposition, supports, and the rank guard band
======================================================

Every construction in this library rests on a handful of numerically safe
matrix factorizations: the polar decomposition into a partial isometry times
a positive matrix, support projections decided by a relative rank cutoff,
and a pseudoinverse that refuses to answer when the data sits too close to a
rank change.  This script walks through each of them on small matrices.
"""

import numpy as np

from wstargeo import (
    DEFAULT_TOL,
    NotPartiallyInvertible,
    frobenius,
    partial_inverse,
    polar_decompose,
    positive_spectrum,
    restricted_power,
    supports,
)

np.set_printoptions(precision=4, suppress=True)

# A rank-one 2x2 matrix: one singular direction, one exact zero.
a = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
print("a =")
print(a)

# The polar decomposition a = u h keeps u a *partial* isometry: it moves the
# support of h onto the range of a and annihilates everything else.
u, h = polar_decompose(a, DEFAULT_TOL)
print("\npolar factor u =")
print(u)
print("positive factor h =")
print(h)
print("reconstruction residual:", frobenius(u @ h - a))
print("u restricted-isometry residual:", frobenius(u @ u.conj().T @ u - u))

# The two supports of a are exactly the final and initial projections of u;
# one SVD of a gives both.
left, right = supports(a)
print("\nleft support (range projection) =")
print(left)
print("right support (co-range projection) =")
print(right)

# The square root of a singular positive matrix keeps its kernel exact: the
# restricted power clips eigenvalues below the rank cutoff to zero instead of
# letting round-off leak into a tiny positive part.
d = np.array([[0.0, 0.0], [0.0, 9.0]], dtype=complex)
r = restricted_power(d, 0.5, DEFAULT_TOL)
print("\nsqrt(diag(0, 9)) =")
print(r)
print("support of d =")
print(positive_spectrum(d, DEFAULT_TOL).support)

# The pseudoinverse satisfies the two Moore-Penrose support identities.
pinv = partial_inverse(a, DEFAULT_TOL)
print("\npseudoinverse of a =")
print(pinv)
print("a @ pinv - left support:", frobenius(a @ pinv - left))
print("pinv @ a - right support:", frobenius(pinv @ a - right))

# Near a rank decision the pseudoinverse is discontinuous, so the library
# refuses instead of guessing: singular values inside the guard band around
# the cutoff raise rather than silently rounding up or down.
lam = 1e-10  # sits inside the guard band around the relative cutoff
shaky = np.diag([1.0, lam]).astype(complex)
try:
    partial_inverse(shaky, DEFAULT_TOL)
except NotPartiallyInvertible as exc:
    print("\nguard band refusal for diag(1, 1e-10):", exc)
