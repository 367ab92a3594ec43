"""Finite-dimensional W*-algebras as block-diagonal matrix algebras.

An algebra is a direct sum of full matrix blocks, realized inside the ambient
matrix space of its total dimension.  Normal functionals are represented by
their density matrices through the trace pairing ``phi(x) = Tr(d x)``; every
structural operation (polar parts, supports, equivalences, centralizers,
conditional expectations, modular flow, coadjoint action) works on densities.

A functional owns a read-only copy of its density and keeps, per
:class:`~wstargeo.linalg.ToleranceProfile`, what it has once computed from
it: the polar decomposition (:func:`functional_polar`), the one
eigendecomposition of its density (:func:`density_spectrum`), and the
blockwise eigenvalue clusters behind the centralizer, the stabilizer and the
pinching; and, per observable, the differential that
:meth:`~wstargeo.poisson.Observable.differential_at` takes at it.  Every
kept array is read-only, and each is exactly what the first call computed,
so a second call returns the same bits with no decomposition.

:func:`density_spectrum` is the one place positivity is decided, and the
modular data of a functional are read from it: the support, the modular flow
(:func:`modular_flow`), and in :mod:`wstargeo.standard` the canonical vector
``d^{1/2}``, the modular operator and Tomita's ``S``.  Membership in the
block algebra is one pass over the realified entries.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AlgebraMismatch,
    InvalidArrow,
    NotFaithful,
    NotPositive,
)
from .linalg import (
    DEFAULT_TOL,
    PositiveSpectrum,
    ToleranceProfile,
    as_square,
    eigen_clusters,
    frobenius,
    herm,
    hermitian_eig,
    hermitian_eigvals,
    is_projection,
    left_support,
    polar_decompose,
    positive_spectrum,
    projection_rank,
    right_support,
)

#: Absolute tolerance on eigenvalue differences when two blockwise spectra
#: are compared (unitary equivalence of projections, unitary orbits).
SPECTRAL_ATOL = 1e-10


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of full matrix blocks M_{n_1} + ... + M_{n_m}."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        blocks = tuple(int(b) for b in self.blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("block sizes must be positive integers")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_string(cls, text: str) -> "BlockAlgebra":
        """Parse a comma-separated block list such as ``"2,3"``."""
        try:
            blocks = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse block sizes from {text!r}") from exc
        return cls(blocks)

    @cached_property
    def dim(self) -> int:
        """Ambient matrix dimension (sum of block sizes)."""
        return sum(self.blocks)

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        out = []
        start = 0
        for b in self.blocks:
            out.append(slice(start, start + b))
            start += b
        return tuple(out)

    @cached_property
    def _off_block_index(self) -> np.ndarray:
        """Read-only positions, in a realified ``(dim, dim)`` complex matrix
        (real and imaginary parts interleaved), of the parts of the entries
        outside every block."""
        mask = np.ones((self.dim, self.dim), dtype=bool)
        for s in self.slices:
            mask[s, s] = False
        index = np.flatnonzero(np.repeat(mask.ravel(), 2))
        index.flags.writeable = False
        return index

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def zero(self) -> np.ndarray:
        return np.zeros((self.dim, self.dim), dtype=complex)

    def block_views(self, x: np.ndarray) -> list[np.ndarray]:
        """Diagonal block of ``x`` for each summand."""
        return [x[s, s] for s in self.slices]

    def embed_blocks(self, mats: list[np.ndarray]) -> np.ndarray:
        """Assemble an algebra element from per-block matrices."""
        if len(mats) != len(self.blocks):
            raise ValueError("wrong number of blocks")
        out = self.zero()
        for s, m in zip(self.slices, mats):
            m = np.asarray(m, dtype=complex)
            if m.shape != (s.stop - s.start, s.stop - s.start):
                raise ValueError("block has the wrong shape")
            out[s, s] = m
        return out

    def contains(self, x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        """Whether ``x`` is block-diagonal within residual tolerance: the
        Frobenius norm of its off-block entries is at most ``residual_tol
        (1 + |x|)``.

        One pass over the realified entries: a dot product over all of them
        and one over the off-block ones.  A NaN entry anywhere makes one side
        of the comparison NaN, so ``x`` is not a member; an infinite entry
        makes the bound infinite, and neither.
        """
        x = np.asarray(x)
        if x.shape != (self.dim, self.dim):
            return False
        v = np.ascontiguousarray(x, dtype=complex).view(float).ravel()
        off = v[self._off_block_index]
        bound = tol.residual_tol * (1.0 + math.sqrt(v.dot(v)))
        return math.sqrt(off.dot(off)) <= bound < math.inf

    def require_member(
        self, x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL, what: str = "matrix"
    ) -> np.ndarray:
        """Validate membership and return ``x`` as a complex ndarray."""
        x = as_square(x)
        if not self.contains(x, tol):
            raise AlgebraMismatch(f"{what} is not an element of the block algebra")
        return x

    def embed_stacks(self, parts: Iterable[tuple[slice, Sequence[np.ndarray]]]) -> np.ndarray:
        """Algebra elements from block matrices, in order, as one ``(k, dim,
        dim)`` array: each ``(slice, matrices)`` part puts its matrices into
        that block of zero elements.  Consecutive parts of one block are
        placed together, with one assignment."""
        blocks = [
            (s, [m for _, mats in run for m in mats])
            for s, run in itertools.groupby(parts, key=lambda part: part[0])
        ]
        out = np.zeros((sum(len(m) for _, m in blocks), self.dim, self.dim), dtype=complex)
        k = 0
        for s, mats in blocks:
            if mats:
                out[k : k + len(mats), s, s] = mats
            k += len(mats)
        return out

    def hermitian_units(self) -> np.ndarray:
        """Orthonormal real basis of the Hermitian part under Tr(x y): per
        block e_aa, then (e_ab + e_ba)/sqrt 2 and i (e_ba - e_ab)/sqrt 2 for
        b > a.  A read-only stack, built once per algebra."""
        return self._hermitian_units

    @cached_property
    def _hermitian_units(self) -> np.ndarray:
        parts = []
        for s, n in zip(self.slices, self.blocks):
            e = matrix_units(np.eye(n), np.eye(n)).reshape(n, n, n, n)
            units = []
            for a in range(n):
                units.append(e[a, a])
                for b in range(a + 1, n):
                    units.append((e[a, b] + e[b, a]) / np.sqrt(2.0))
                    units.append((e[b, a] - e[a, b]) * (1j / np.sqrt(2.0)))
            parts.append((s, units))
        units = self.embed_stacks(parts)
        units.flags.writeable = False
        return units


@dataclass(frozen=True)
class NormalFunctional:
    """Normal functional phi(x) = Tr(d x) on a block algebra, stored by its
    density matrix ``d``.

    The functional keeps its own read-only copy of the density, so what is
    read off it cannot go stale: its polar decomposition, its spectrum and
    its eigenvalue clusters are each computed once per
    :class:`ToleranceProfile`, on first use, and kept on the instance as
    read-only arrays.  So is the differential of each
    :class:`~wstargeo.poisson.Observable` taken at it, once per observable
    and profile, as a read-only view."""

    algebra: BlockAlgebra
    density: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = as_square(np.array(self.density, dtype=complex))
        if d.shape != (self.algebra.dim, self.algebra.dim):
            raise AlgebraMismatch("density has the wrong ambient dimension")
        self.algebra.require_member(d, what="density")
        d.flags.writeable = False
        object.__setattr__(self, "density", d)

    def _memoized(self, key: Hashable, tol: ToleranceProfile, compute: Callable[[], object]):
        """``compute()`` on the first call with ``(key, tol)``, then the kept
        value; a call that raises keeps nothing.  ``key`` names what is kept:
        a string for what is read off the density, or the observable whose
        differential is kept."""
        try:
            return self._memo[key, tol]
        except KeyError:
            value = self._memo[key, tol] = compute()
            return value

    def __call__(self, x: np.ndarray) -> complex:
        return complex(np.trace(self.density @ x))

    def adjoint(self) -> "NormalFunctional":
        """The functional x -> conj(phi(x*)); its density is d*."""
        return NormalFunctional(self.algebra, self.density.conj().T)

    def distance(self, other: "NormalFunctional") -> float:
        return frobenius(self.density - other.density)


def require_positive(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> NormalFunctional:
    """``phi`` itself when it is positive; raises :class:`NotPositive`
    otherwise, as :func:`density_spectrum` decides."""
    density_spectrum(phi, tol)
    return phi


def functional_polar(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[np.ndarray, NormalFunctional]:
    """Polar decomposition of a functional: ``d = u |d|`` with ``|phi|``
    positive; returns ``(u, |phi|)``, computed once per profile and kept on
    ``phi`` (``u`` read-only)."""

    def compute():
        u, h = polar_decompose(phi.density, tol)
        return _readonly(u), NormalFunctional(phi.algebra, h)

    return phi._memoized("polar", tol, compute)


def functional_supports(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Left and right support projections of the density."""
    return left_support(phi.density, tol), right_support(phi.density, tol)


def functional_support(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Support projection of a positive functional, read-only and kept on
    ``phi``."""
    return phi._memoized(
        "support", tol, lambda: _readonly(density_spectrum(phi, tol).support)
    )


def density_spectrum(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> PositiveSpectrum:
    """The one eigendecomposition of a positive functional: that of the
    Hermitian part of its density, kept on ``phi`` per profile with
    read-only arrays.  Its positivity rule is :func:`positive_spectrum`'s;
    a non-Hermitian or non-positive density raises :class:`NotPositive`."""

    def compute():
        d = phi.density
        if frobenius(d - d.conj().T) > tol.residual_tol * (1.0 + frobenius(d)):
            raise NotPositive("functional is not positive")
        spectrum = positive_spectrum(herm(d), tol)
        _readonly(spectrum.values)
        _readonly(spectrum.vectors)
        return spectrum

    return phi._memoized("spectrum", tol, compute)


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only before it is kept."""
    a.flags.writeable = False
    return a


def require_projection(
    p: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL, what: str = "matrix"
) -> np.ndarray:
    p = as_square(p)
    if not is_projection(p, tol):
        raise NotPositive(f"{what} is not an orthogonal projection")
    return p


def block_ranks(
    algebra: BlockAlgebra, p: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[int, ...]:
    """Blockwise ranks of a projection (read off block traces)."""
    require_projection(p, tol)
    return tuple(projection_rank(b) for b in algebra.block_views(p))


def mvn_equivalent(
    algebra: BlockAlgebra,
    p: np.ndarray,
    q: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> bool:
    """Murray-von Neumann equivalence of projections: some partial isometry
    carries one onto the other, which in a block algebra means equal blockwise
    ranks."""
    return block_ranks(algebra, p, tol) == block_ranks(algebra, q, tol)


def mvn_witness(
    algebra: BlockAlgebra,
    p: np.ndarray,
    q: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """A partial isometry ``w`` with ``w* w = p`` and ``w w* = q``, built from
    spectral data blockwise."""
    if not mvn_equivalent(algebra, p, q, tol):
        raise InvalidArrow("projections are not equivalent, no witness exists")
    out = []
    for bp, bq in zip(algebra.block_views(p), algebra.block_views(q)):
        r = projection_rank(bp)
        _, vp = hermitian_eig(bp)
        _, vq = hermitian_eig(bq)
        out.append(vq[:, :r] @ vp[:, :r].conj().T)
    return algebra.embed_blocks(out)


def unitary_equivalent(
    algebra: BlockAlgebra,
    p: np.ndarray,
    q: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> bool:
    """Unitary equivalence of projections: equal blockwise spectra."""
    require_projection(p, tol)
    require_projection(q, tol)
    for bp, bq in zip(algebra.block_views(p), algebra.block_views(q)):
        wp = hermitian_eigvals(bp)
        wq = hermitian_eigvals(bq)
        if float(np.max(np.abs(wp - wq))) > SPECTRAL_ATOL:
            return False
    return True


def orbit_invariant(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[tuple[float, ...], ...]:
    """Unitary-orbit invariant of a positive functional: the strictly positive
    part of the density's spectrum, blockwise, in descending order.
    Positivity and the rank cutoff are read from :func:`density_spectrum`."""
    cutoff = tol.rank_rel_tol * float(density_spectrum(phi, tol).values[0])
    blocks = [hermitian_eigvals(b) for b in phi.algebra.block_views(herm(phi.density))]
    return tuple(tuple(float(x) for x in w if x > cutoff) for w in blocks)


def orbit_equivalent(
    phi1: NormalFunctional,
    phi2: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> bool:
    """Whether two positive functionals lie on the same unitary orbit:
    blockwise spectra agree within :data:`SPECTRAL_ATOL`."""
    require_positive(phi1, tol)
    require_positive(phi2, tol)
    for b1, b2 in zip(
        phi1.algebra.block_views(herm(phi1.density)),
        phi2.algebra.block_views(herm(phi2.density)),
    ):
        w1 = hermitian_eigvals(b1)
        w2 = hermitian_eigvals(b2)
        if float(np.max(np.abs(w1 - w2))) > SPECTRAL_ATOL:
            return False
    return True


def unitary_witness(
    phi1: NormalFunctional,
    phi2: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """A unitary ``v`` with ``v d1 v* = d2``, built blockwise from eigenbases
    (requires orbit equivalence)."""
    if not orbit_equivalent(phi1, phi2, tol):
        raise InvalidArrow("functionals lie on different unitary orbits")
    algebra = phi1.algebra
    out = []
    for b1, b2 in zip(
        algebra.block_views(herm(phi1.density)),
        algebra.block_views(herm(phi2.density)),
    ):
        _, v1 = hermitian_eig(b1)
        _, v2 = hermitian_eig(b2)
        out.append(v2 @ v1.conj().T)
    return algebra.embed_blocks(out)


@dataclass(frozen=True)
class StabilizerData:
    """Real basis of the stabilizer Lie algebra of a positive functional:
    anti-Hermitian corner elements commuting with the density."""

    basis: tuple[np.ndarray, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def matrix_units(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The rank-one matrices ``a b*`` for the columns ``a`` of ``left`` and
    ``b`` of ``right``, ``a`` in the outer loop, as one stack."""
    units = left.T[:, None, :, None] * right.conj().T[None, :, None, :]
    return units.reshape(-1, len(left), len(right))


def antihermitian_units(cols: np.ndarray) -> list[np.ndarray]:
    """Orthonormal real basis (under ``Re Tr(x* y)``) of the anti-Hermitian
    matrices on the span of the orthonormal columns ``c_a`` of ``cols``:
    ``i c_a c_a*``, then ``(m - m*)/sqrt 2`` and ``i (m + m*)/sqrt 2`` for
    ``m = c_a c_b*``, ``b > a``."""
    units = []
    for a in range(cols.shape[1]):
        ca = cols[:, a, None]
        units.append(1j * (ca * ca.conj().T))
        for b in range(a + 1, cols.shape[1]):
            m = ca * cols[:, b].conj()
            units.append((m - m.conj().T) / np.sqrt(2.0))
            units.append(1j * (m + m.conj().T) / np.sqrt(2.0))
    return units


def _spectral_clusters(
    phi: NormalFunctional, tol: ToleranceProfile
) -> tuple[tuple[slice, np.ndarray, bool], ...]:
    """Per eigenvalue cluster of the density of a positive functional, block
    by block: the block's slice, the cluster's eigenvectors as read-only
    columns, and whether its eigenvalue lies above the global rank cutoff.
    Kept on ``phi`` per profile.  Raises :class:`NotPositive` when the
    functional is not positive."""

    def compute():
        cutoff = tol.rank_rel_tol * float(density_spectrum(phi, tol).values[0])
        algebra = phi.algebra
        out = []
        for s, b in zip(algebra.slices, algebra.block_views(herm(phi.density))):
            w, v = hermitian_eig(b)
            _readonly(v)
            for cluster in eigen_clusters(w, tol.rank_rel_tol):
                out.append((s, v[:, cluster[0] : cluster[-1] + 1], w[cluster[0]] > cutoff))
        return tuple(out)

    return phi._memoized("clusters", tol, compute)


def _positive_clusters(
    phi: NormalFunctional, tol: ToleranceProfile
) -> Iterator[tuple[slice, np.ndarray]]:
    """``(slice, eigenvector columns)`` of each strictly positive eigenvalue
    cluster of the density: the corners of its support."""
    return ((s, cols) for s, cols, positive in _spectral_clusters(phi, tol) if positive)


def centralizer_basis(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Complex basis of {x in p0 M p0 : x d = d x} for a positive functional
    with density ``d`` and support ``p0``.

    In each eigenvalue cluster of multiplicity m the commutant contributes a
    full m x m corner, so the complex dimension is the sum of the squared
    multiplicities of the strictly positive clusters.
    """
    parts = ((s, matrix_units(cols, cols)) for s, cols in _positive_clusters(phi, tol))
    return phi.algebra.embed_stacks(parts)


def stabilizer_lie_algebra(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> StabilizerData:
    """Real basis of the anti-Hermitian corner elements commuting with the
    density: i-Hermitian combinations within each positive eigenvalue cluster."""
    parts = ((s, antihermitian_units(cols)) for s, cols in _positive_clusters(phi, tol))
    return StabilizerData(tuple(phi.algebra.embed_stacks(parts)))


def pinching_projections(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Spectral projections of the density, one per eigenvalue cluster per
    block (kernel clusters included); they sum to the identity."""
    parts = ((s, [cols @ cols.conj().T]) for s, cols, _ in _spectral_clusters(phi, tol))
    return phi.algebra.embed_stacks(parts)


def conditional_expectation(
    phi: NormalFunctional, x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """State-preserving conditional expectation onto the centralizer of the
    density: the pinching sum q x q over its spectral projections."""
    x = phi.algebra.require_member(x, tol)
    q = pinching_projections(phi, tol)
    return (q @ x @ q).sum(axis=0)


def modular_flow(
    phi: NormalFunctional, t: float, tol: ToleranceProfile = DEFAULT_TOL
) -> Callable[[np.ndarray], np.ndarray]:
    """The modular flow of a faithful positive functional at time ``t``:
    ``x -> u x u*`` on algebra elements, with ``u = d^{it}`` read once from
    :func:`density_spectrum`.  Raises :class:`NotFaithful` for a density
    that is not faithful."""
    spectrum = density_spectrum(phi, tol)
    if spectrum.rank != phi.algebra.dim:
        raise NotFaithful("density is not faithful; modular flow undefined")
    u = spectrum.imaginary_power(t)
    uh = u.conj().T

    def flow(x: np.ndarray) -> np.ndarray:
        return u @ phi.algebra.require_member(x, tol) @ uh

    return flow


def coadjoint_apply(
    u: np.ndarray, phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> NormalFunctional:
    """Coadjoint action ``rho -> u rho u*`` of a partial isometry whose source
    projection is the support of ``rho``."""
    p = functional_support(phi, tol)
    u = phi.algebra.require_member(u, tol)
    if frobenius(u.conj().T @ u - p) > tol.residual_tol * (1.0 + frobenius(p)):
        raise InvalidArrow("source projection of u is not the support of rho")
    return NormalFunctional(phi.algebra, u @ phi.density @ u.conj().T)
