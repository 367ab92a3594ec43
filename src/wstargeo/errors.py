"""Exception hierarchy shared across the package.

Three families, matching the command-line exit-code contract:

* :class:`ParseError` — malformed input files (exit code 1),
* :class:`DomainError` and subclasses — inputs outside an operation's
  mathematical domain (exit code 2),
* :class:`UsageError` and subclasses — bad invocations (exit code 3).
"""
from __future__ import annotations


class DomainError(ValueError):
    """Input lies outside the operation's mathematical domain."""


class NotHermitian(DomainError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NotPositive(DomainError):
    """Matrix expected to be positive semidefinite has a negative eigenvalue
    beyond tolerance."""


class NotPartiallyInvertible(DomainError):
    """Retained singular values sit inside the guard band around the rank
    cutoff, so the rank decision (and hence the partial inverse) is
    ambiguous."""


class AmbiguousCluster(DomainError):
    """A gap between consecutive eigenvalues sits inside the guard band around
    the clustering threshold, so the eigenvalue clusters (and hence the
    stabilizer dimension) are ambiguous."""


class NotComposable(DomainError):
    """The two arrows do not satisfy the source/target matching condition of
    the groupoid product."""


class NotInDomain(DomainError):
    """Point lies outside the domain of the requested chart."""


class NotInOverlap(DomainError):
    """Point lies outside the overlap of the two chart domains, so no
    transition map is defined."""


class InvalidArrow(DomainError):
    """Pair (u, rho) fails the arrow condition u*u = support(rho)."""


class InvalidTangent(DomainError):
    """Vector does not satisfy the tangency conditions of the manifold at the
    given base point."""


class InvalidFamily(DomainError):
    """Direction data fails the constraints that keep the family's curves on
    the multiplication graph."""


class InvalidTrials(DomainError):
    """A verification routine was asked to run a non-positive number of
    trials."""


class NotFaithful(DomainError):
    """The reference functional's density is not faithful (its support is a
    proper projection), so the requested modular construction is undefined."""


class NotUnitVector(DomainError):
    """A chain entry is not normalized to unit length within tolerance."""


class DegenerateBase(DomainError):
    """The base vector is (numerically) zero; the requested fiber structure
    degenerates there."""


class AlgebraMismatch(DomainError):
    """Matrix is not an element of the block algebra (off-block entries, wrong
    shape, or wrong ambient dimension)."""


class NoConvergence(DomainError):
    """An iterative matrix factorization failed to converge."""


class ParseError(ValueError):
    """Input file is malformed (bad JSON, missing fields, or wrong lengths)."""


class UsageError(ValueError):
    """Command line invoked with unusable arguments."""


class UnknownSuite(UsageError):
    """Requested verification suite name is not registered."""
