"""Finite-dimensional W*-algebras as block-diagonal matrix algebras.

An algebra is a direct sum of full matrix blocks, realized inside the ambient
matrix space of its total dimension.  Normal functionals are represented by
their density matrices through the trace pairing ``phi(x) = Tr(d x)``; every
structural operation (polar parts, supports, equivalences, centralizers,
conditional expectations, modular flow, coadjoint action) works on densities.

A functional owns a read-only copy of its density and keeps, per
:class:`~wstargeo.linalg.ToleranceProfile`, what it has once computed from
it: the polar decomposition (:func:`functional_polar`), the one
eigendecomposition of its density, and what is read off that; and, per
observable, the differential that
:meth:`~wstargeo.poisson.Observable.differential_at` takes at it.  Every
kept array is read-only, and each is exactly what the first call computed,
so a second call returns the same bits with no decomposition.

The one eigendecomposition is blockwise: one
:func:`~wstargeo.linalg.hermitian_eig` per block of the Hermitian part of the
density, kept as a :class:`~wstargeo.linalg.PositiveSpectrum`
(:func:`density_spectrum`), the same blockwise type that serves single
matrices, with one rank cutoff for all blocks.  Positivity is decided there.
Everything spectral about a functional reads its blocks, and nothing
assembles an ambient eigenbasis: the orbit invariant
(:func:`orbit_invariant`), orbit equivalence and its unitary witness, the
eigenvalue clusters behind the centralizer, the stabilizer and the pinching,
the support, the modular flow (:func:`modular_flow`), and in
:mod:`wstargeo.standard` the canonical vector ``d^{1/2}``, the modular
operator and Tomita's ``S``.  Every negative power is guarded near the
cutoff, as for a matrix.  Membership in the block algebra is one pass over
the realified entries.

The frames of a projection (:class:`Frames`) are one block-structured
isometry ``F`` with ``p = F F*``.  Those of a given projection, per block
the eigenvectors of its eigenvalues above 1/2, are read in one place
(:func:`_block_frames`): the Murray-von Neumann witness ``F_q F_p*``
multiplies them block by block, and :func:`frames_of` places them in one
matrix only for the two samplers that take a projection, which only the
benchmark still calls.

Like the :mod:`~wstargeo.linalg` kernels, the equivalences and their
witnesses, the coadjoint action and the modular flow take a ``(T, dim,
dim)`` stack of projections, partial isometries or densities (a functional
of stacked densities): Murray-von Neumann, unitary and orbit equivalence
answer per matrix, as a boolean array, and a domain check that fails names
its first failing trial.  The one-matrix call is the stack's ``T = 1``
case, with the same bits.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AlgebraMismatch,
    AmbiguousCluster,
    InvalidArrow,
    NotFaithful,
    NotPositive,
)
from .linalg import (
    DEFAULT_TOL,
    GUARD_FACTOR,
    PositiveSpectrum,
    ToleranceProfile,
    as_count,
    as_square,
    excess,
    frobenius,
    herm,
    hermitian_eig,
    is_projection,
    polar_decompose,
    projection_rank,
    refuse,
    singular_values,
)

#: Absolute tolerance on eigenvalue differences when two blockwise spectra
#: are compared (unitary equivalence of projections, unitary orbits).
SPECTRAL_ATOL = 1e-10


def consecutive_slices(sizes: Iterable[int]) -> tuple[slice, ...]:
    """Slices of consecutive runs of the given sizes, starting at 0."""
    out = []
    start = 0
    for n in sizes:
        out.append(slice(start, start + n))
        start += n
    return tuple(out)


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
        return consecutive_slices(self.blocks)

    # The two layouts are kept per block tuple, not per instance: each command
    # of the command line builds its own algebra.
    @property
    @lru_cache(maxsize=64)
    def _block_layout(self) -> tuple[np.ndarray, ...]:
        """Read-only, per diagonal position: the first position of its block,
        its offset in the block, the index of its block, and the position
        before it (itself at 0)."""
        start = np.repeat([s.start for s in self.slices], self.blocks)
        position = np.arange(self.dim)
        layout = (
            start,
            position - start,
            np.repeat(np.arange(len(self.blocks)), self.blocks),
            np.maximum(position - 1, 0),
        )
        for a in layout:
            a.flags.writeable = False
        return layout

    @cached_property
    def slot_slices(self) -> tuple[slice, ...]:
        """Each block's run of ``n_b^2`` slots in a slot grid: slot ``(a, c)``
        of block ``b``, ``a`` outer, pairs the block's ``a``-th and ``c``-th
        basis vectors, as :func:`matrix_units` orders them."""
        return consecutive_slices(n * n for n in self.blocks)

    @property
    @lru_cache(maxsize=64)
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

    def block_views(self, x: np.ndarray) -> list[np.ndarray]:
        """Diagonal block of ``x`` (of each matrix of a stack) for each
        summand."""
        return [x[..., s, s] for s in self.slices]

    def embed_blocks(self, mats: list[np.ndarray]) -> np.ndarray:
        """Assemble an algebra element from per-block matrices; from per-block
        stacks of equal length, one element per matrix of the stacks."""
        if len(mats) != len(self.blocks):
            raise ValueError("wrong number of blocks")
        mats = [np.asarray(m, dtype=complex) for m in mats]
        lead = mats[0].shape[:-2]
        out = np.zeros(lead + (self.dim, self.dim), dtype=complex)
        for s, m in zip(self.slices, mats):
            if m.shape != lead + (s.stop - s.start,) * 2:
                raise ValueError("block has the wrong shape")
            out[..., s, s] = m
        return out

    def contains(self, x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL):
        """Whether ``x`` is block-diagonal within residual tolerance: the
        Frobenius norm of its off-block entries is at most ``residual_tol
        (1 + |x|)``.  A ``(T, dim, dim)`` stack gives one answer per matrix,
        as an array.

        One pass over the realified entries: a dot product over all of them
        and one over the off-block ones.  A NaN entry anywhere makes one side
        of the comparison NaN, so ``x`` is not a member; an infinite entry
        makes the bound infinite, and neither.
        """
        x = np.asarray(x)
        if x.shape[-2:] != (self.dim, self.dim) or x.ndim > 3:
            return False
        v = np.ascontiguousarray(x, dtype=complex).view(float).reshape(*x.shape[:-2], 2 * self.dim**2)
        off = v[..., self._off_block_index]
        bound = tol.residual_tol * (1.0 + np.sqrt(np.vecdot(v, v)))
        member = (np.sqrt(np.vecdot(off, off)) <= bound) & (bound < math.inf)
        return member if member.ndim else bool(member)

    def require_member(
        self, x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL, what: str = "matrix"
    ) -> np.ndarray:
        """Validate membership (of each matrix of a stack) and return ``x`` as
        a complex ndarray."""
        x = as_square(x)
        refuse(AlgebraMismatch, np.logical_not(self.contains(x, tol)),
               f"{what} is not an element of the block algebra")
        return x

    def embed_stacks(self, parts: Iterable[tuple[slice, Sequence[np.ndarray]]]) -> np.ndarray:
        """Algebra elements from block matrices, in order, as one ``(k, dim,
        dim)`` array: each ``(slice, matrices)`` part puts its matrices (a
        list of matrices, or a ``(k, n, n)`` array) into that block of zero
        elements.  Matrices with a leading stack axis (a list of ``(T, n,
        n)`` stacks, or a ``(T, k, n, n)`` array) give the elements of each
        matrix of the stack, as one ``(T, k, dim, dim)`` array.  An empty
        list has no shape: when no part is an array or a non-empty list,
        there is no stack axis."""
        placed = [
            (s, mats if isinstance(mats, np.ndarray) else np.stack(mats, axis=-3))
            for s, mats in parts
            if isinstance(mats, np.ndarray) or len(mats)
        ]
        lead = placed[0][1].shape[:-3] if placed else ()
        count = sum(m.shape[-3] for _, m in placed)
        out = np.zeros(lead + (count, self.dim, self.dim), dtype=complex)
        k = 0
        for s, mats in placed:
            out[..., k : k + mats.shape[-3], s, s] = mats
            k += mats.shape[-3]
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
    density matrix ``d``.  A ``(T, dim, dim)`` stack of densities holds ``T``
    functionals: membership, :meth:`adjoint`, :meth:`distance`,
    :func:`functional_polar`, :func:`density_spectrum` and what is read off
    it then act on each of them.

    The functional keeps its own read-only copy of the density, so what is
    read off it cannot go stale: its polar decomposition, its blockwise
    spectrum and what is read off it (the support, the eigenvalue
    clusters) are each computed once per :class:`ToleranceProfile`, on
    first use, and kept on the instance as read-only arrays.  So is the
    differential of each :class:`~wstargeo.poisson.Observable` taken at it,
    once per observable and profile, as a read-only view."""

    algebra: BlockAlgebra
    density: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = as_square(np.array(self.density, dtype=complex))
        if d.shape[-2:] != (self.algebra.dim, self.algebra.dim):
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

    def __getitem__(self, index) -> "NormalFunctional":
        """The functionals that ``index`` (a mask, indices or a slice over the
        stack) selects from a stack, with their part of the blockwise
        spectrum kept here: a first-trial oracle (``phi[:1]``) decomposes no
        density again."""
        part = object.__new__(NormalFunctional)
        object.__setattr__(part, "algebra", self.algebra)
        object.__setattr__(part, "density", _readonly(self.density[index]))
        memo = {}
        for (key, tol), value in self._memo.items():
            if key == "spectrum":
                memo[key, tol] = PositiveSpectrum(
                    tuple((s, _readonly(w[index]), _readonly(v[index])) for s, w, v in value.blocks),
                    value.cutoff[index],
                    tuple(r[index] for r in value.ranks),
                )
        object.__setattr__(part, "_memo", memo)
        return part

    def __call__(self, x: np.ndarray):
        """``Tr(d x)``: a ``complex`` for one density, an array with one
        value per matrix for a stack (:func:`trace_pairing`)."""
        return trace_pairing(self.density, x)

    def adjoint(self) -> "NormalFunctional":
        """The functional x -> conj(phi(x*)); its density is d*."""
        return NormalFunctional(self.algebra, self.density.conj().mT)

    def distance(self, other: "NormalFunctional") -> float:
        return frobenius(self.density - other.density)


def trace_pairing(a: np.ndarray, x: np.ndarray):
    """``Tr(a x)``: a ``complex`` for two matrices, an array with one value
    per matrix for stacks.  A stack of ``k T`` matrices meets one of ``T``
    run by run, ``a[j]`` with ``x[j mod T]``, as the central differences of
    an observable stack ``T`` densities once per side."""
    x = np.asarray(x)
    if a.ndim == x.ndim == 3 and len(a) != len(x):
        return np.trace(a.reshape(-1, *x.shape) @ x, axis1=-2, axis2=-1).reshape(-1)
    z = np.trace(a @ x, axis1=-2, axis2=-1)
    return complex(z) if z.ndim == 0 else z


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
    """The one eigendecomposition of a positive functional, and the one place
    its positivity is decided: a :class:`~wstargeo.linalg.PositiveSpectrum`
    with ``(slice, w, v)`` from :func:`hermitian_eig` for each block of the
    Hermitian part of its density, and the one rank cutoff over all blocks.
    Kept on ``phi`` per profile, read-only.  A non-Hermitian density, or one
    with a negative eigenvalue beyond tolerance, raises :class:`NotPositive`."""

    def compute():
        d = phi.density
        gap = excess(d, d.conj().mT, tol, frobenius(d))
        refuse(NotPositive, gap, "functional is not positive")
        eigs = map(hermitian_eig, phi.algebra.block_views(herm(d)))
        blocks = [(s, _readonly(w), _readonly(v)) for s, (w, v) in zip(phi.algebra.slices, eigs)]
        return PositiveSpectrum.from_blocks(blocks, tol)

    return phi._memoized("spectrum", tol, compute)


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only before it is kept."""
    a.flags.writeable = False
    return a


def require_projection(p: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    p = as_square(p)
    refuse(NotPositive, np.logical_not(is_projection(p, tol)),
           "matrix is not an orthogonal projection")
    return p


def block_ranks(
    algebra: BlockAlgebra, p: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple:
    """Blockwise ranks of a projection (read off block traces); of a stack,
    each block's ranks as an array over the stack."""
    require_projection(p, tol)
    return tuple(projection_rank(b) for b in algebra.block_views(p))


def frame_columns(algebra: BlockAlgebra, ranks) -> np.ndarray:
    """Whether each column of a ``dim x dim`` matrix holds a frame of these
    blockwise ranks (each block's first ``r_b``); per row of ``(T, m)``
    ranks."""
    _, offset, block, _ = algebra._block_layout
    return offset < np.asarray(ranks)[..., block]


@dataclass(frozen=True, eq=False)
class Frames:
    """Orthonormal frames of a projection in one ``dim x dim`` matrix, or a
    stack of them: block ``b``'s ``n_b x r_b`` frame ``F_b`` fills that
    block's rows and its first ``r_b`` columns (:func:`frame_columns`), and
    every other entry is exactly zero.  ``ranks`` is one tuple of blockwise
    ranks, or a ``(T, m)`` array with a row per matrix of a stack.  The
    projection ``F F*`` is one product over all columns: those outside the
    frames add exact zeros."""

    algebra: BlockAlgebra
    matrix: np.ndarray
    ranks: tuple[int, ...] | np.ndarray

    @cached_property
    def projection(self) -> np.ndarray:
        """The projection ``F F*``."""
        return self.matrix @ self.matrix.conj().mT

    def __getitem__(self, index) -> "Frames":
        """The frames of the matrices of a stack that ``index`` selects."""
        ranks = self.ranks[index]
        ranks = tuple(ranks.tolist()) if ranks.ndim == 1 else ranks
        return Frames(self.algebra, self.matrix[index], ranks)


def _block_frames(
    algebra: BlockAlgebra, p: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per block of a projection ``p`` (of each matrix of a stack), the
    block's frame: the eigenvectors of its Hermitian eigendecomposition,
    descending, and the mask of those whose eigenvalue is above 1/2."""
    for bp in algebra.block_views(p):
        w, v = hermitian_eig(bp)
        yield v, w > 0.5


def frames_of(algebra: BlockAlgebra, p: np.ndarray) -> Frames:
    """Frames of a projection ``p``: per block, the eigenvectors of the
    eigenvalues above 1/2, placed in one zero matrix; of a stack of
    projections of the same blockwise ranks, one frame per matrix (an empty
    stack has ranks 0)."""
    cols = []
    for v, kept in _block_frames(algebra, p):
        ranks = np.unique(np.count_nonzero(kept, axis=-1))
        if len(ranks) > 1:
            raise ValueError("the projections of a stack have different blockwise ranks")
        cols.append(v[..., : int(ranks.max(initial=0))])
    ranks = tuple(c.shape[-1] for c in cols)
    matrix = np.zeros(p.shape[:-2] + (algebra.dim, algebra.dim), dtype=complex)
    for s, f in zip(algebra.slices, cols):
        matrix[..., s, s.start : s.start + f.shape[-1]] = f
    return Frames(algebra, matrix, ranks)


def _spectra_agree(pairs: Iterable[tuple[np.ndarray, np.ndarray]]):
    """Whether every pair of descending spectra agrees within
    :data:`SPECTRAL_ATOL`; for spectra of stacks (one row per matrix), per
    matrix, as an array.  A NaN never agrees."""
    gaps = (np.max(np.abs(w1 - w2), axis=-1) for w1, w2 in pairs)
    return reduce(operator.and_, (gap <= SPECTRAL_ATOL for gap in gaps))


def mvn_equivalent(
    algebra: BlockAlgebra,
    p: np.ndarray,
    q: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Murray-von Neumann equivalence of projections: some partial isometry
    carries one onto the other, which in a block algebra means equal blockwise
    ranks.  On stacks, per pair, as an array."""
    pairs = zip(block_ranks(algebra, p, tol), block_ranks(algebra, q, tol))
    return reduce(operator.and_, (rp == rq for rp, rq in pairs))


def mvn_witness(
    algebra: BlockAlgebra,
    p: np.ndarray,
    q: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """A partial isometry ``w`` with ``w* w = p`` and ``w w* = q``: ``F_q F_p*``
    from the frames of both projections (:func:`_block_frames`), block by
    block.  On stacks, per pair: a block's eigenvectors with the columns past
    its rank zeroed stand for its frame, so pairs of any ranks share one
    product per block."""
    refuse(InvalidArrow, np.logical_not(mvn_equivalent(algebra, p, q, tol)),
           "projections are not equivalent, no witness exists")
    # Equivalent blocks have equal ranks, so the mask of q's frame is p's.
    frames = zip(_block_frames(algebra, p), _block_frames(algebra, q))
    return algebra.embed_blocks(
        [(vq * kept[..., None, :]) @ vp.conj().mT for (vp, _), (vq, kept) in frames]
    )


def unitary_equivalent(
    algebra: BlockAlgebra,
    p: np.ndarray,
    q: np.ndarray,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Unitary equivalence of projections: equal blockwise spectra.  A
    projection is positive, so its spectrum is its singular values.  On
    stacks, per pair, as an array."""
    require_projection(p, tol)
    require_projection(q, tol)
    views = zip(algebra.block_views(p), algebra.block_views(q))
    return _spectra_agree((singular_values(bp), singular_values(bq)) for bp, bq in views)


def orbit_invariant(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[tuple[float, ...], ...]:
    """Unitary-orbit invariant of a positive functional: the strictly positive
    part of the density's spectrum, blockwise, in descending order: each
    block's retained values in :func:`density_spectrum`."""
    spectrum = density_spectrum(phi, tol)
    return tuple(
        tuple(float(x) for x in w[:r]) for (_, w, _), r in zip(spectrum.blocks, spectrum.ranks)
    )


def orbit_equivalent(
    phi1: NormalFunctional,
    phi2: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Whether two positive functionals lie on the same unitary orbit: their
    block spectra in :func:`density_spectrum` agree within
    :data:`SPECTRAL_ATOL`.  On stacks, per pair, as an array."""
    pairs = zip(density_spectrum(phi1, tol).blocks, density_spectrum(phi2, tol).blocks)
    return _spectra_agree((w1, w2) for (_, w1, _), (_, w2, _) in pairs)


def unitary_witness(
    phi1: NormalFunctional,
    phi2: NormalFunctional,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> np.ndarray:
    """A unitary ``v`` with ``v d1 v* = d2``, built blockwise from the kept
    eigenbases (requires orbit equivalence); on stacks, per pair."""
    refuse(InvalidArrow, np.logical_not(orbit_equivalent(phi1, phi2, tol)),
           "functionals lie on different unitary orbits")
    pairs = zip(density_spectrum(phi1, tol).blocks, density_spectrum(phi2, tol).blocks)
    return phi1.algebra.embed_blocks([v2 @ v1.conj().mT for (_, _, v1), (_, _, v2) in pairs])


@dataclass(frozen=True, eq=False)
class StabilizerData:
    """The stabilizer Lie algebra of a positive functional, the anti-Hermitian
    corner elements commuting with its density, on the slot grid of the
    density's eigenbasis (:attr:`BlockAlgebra.slot_slices`): slot ``(a, c)``
    of block ``b`` holds the unit of that block's eigenvectors ``a`` and
    ``c`` (``vectors``), and ``mask`` marks the slots whose ``a`` and ``c``
    lie in one strictly positive eigenvalue cluster.  The dimension is the
    mask's count and no basis is built until read, zero off the mask.  A
    stack of functionals has a ``(T, sum n_b^2)`` mask and stacked bases."""

    algebra: BlockAlgebra
    vectors: tuple[np.ndarray, ...]
    mask: np.ndarray

    @property
    def dimension(self):
        return as_count(np.count_nonzero(self.mask, axis=-1))

    @cached_property
    def basis(self) -> np.ndarray:
        """The real basis (:func:`antihermitian_units`) as a ``(sum n_b^2,
        dim, dim)`` array; of a stack of functionals, ``(T, sum n_b^2, dim,
        dim)``."""
        return self._embedded(antihermitian_units)

    @cached_property
    def centralizer(self) -> np.ndarray:
        """The complex basis of the centralizer of the density in its support
        corner, the matrix units ``v_a v_c*`` on the same slots (its complex
        dimension is the stabilizer's real one)."""
        return self._embedded(matrix_units)

    def _embedded(self, units: Callable) -> np.ndarray:
        """Each block's ``units`` of its vectors on its ``n_b^2`` slots, zero
        off the mask, in the algebra."""
        alg, masks = self.algebra, (self.mask[..., k, None, None] for k in self.algebra.slot_slices)
        return alg.embed_stacks((s, units(v) * m) for s, v, m in zip(alg.slices, self.vectors, masks))


def combination(coeff: np.ndarray, stab: StabilizerData, centralizer: bool = False) -> np.ndarray:
    """``sum_k coeff[k] B[k]`` over the slots of the real basis ``B`` of
    ``stab`` (of its centralizer's with ``centralizer``), the coefficients
    off the mask times zero, without building ``B``: per block ``V X V*``,
    with ``X`` the same sum over the units of the identity's columns.  For
    a stack, per row of the ``(T, sum n_b^2)`` coefficients."""
    units = matrix_units if centralizer else antihermitian_units
    masked = coeff * stab.mask
    blocks = []
    for v, k in zip(stab.vectors, stab.algebra.slot_slices):
        n = v.shape[-1]
        x = masked[..., None, k] @ units(np.eye(n)).reshape(n * n, n * n)
        x = x.reshape(*x.shape[:-2], n, n)
        blocks.append(v @ x @ v.conj().mT)
    return stab.algebra.embed_blocks(blocks)


def matrix_units(left: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
    """The rank-one matrices ``a b*`` for the columns ``a`` of ``left`` and
    ``b`` of ``right`` (by default ``left``), ``a`` in the outer loop, as one
    stack; for stacks of ``left`` and ``right``, one such stack per pair."""
    right = left if right is None else right
    units = left.mT[..., :, None, :, None] * right.conj().mT[..., None, :, None, :]
    return units.reshape(*units.shape[:-4], -1, left.shape[-2], right.shape[-2])


def antihermitian_units(cols: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal real basis (under ``Re Tr(x* y)``) of the anti-Hermitian
    matrices on the span of the ``k`` orthonormal columns ``c_a`` of
    ``cols``, on the ``k^2`` slots of :func:`matrix_units`: slot ``(a, c)``
    holds ``i m`` for ``a = c``, ``(m - m*)/sqrt 2`` for ``a < c`` and ``i
    (m + m*)/sqrt 2`` for ``a > c``, with ``m = c_a c_c*``.  For a stack of
    ``cols``, one such stack per matrix.  With ``right = w* cols``, each
    unit times ``w``: the units of ``c_a c_c* w = c_a r_c*``."""
    k = cols.shape[-1]
    a, c = np.divmod(np.arange(k * k), k)
    alpha = np.where(a < c, 1.0, 1j) / np.where(a == c, 2.0, np.sqrt(2.0))
    beta, m = np.where(a < c, -alpha, alpha), matrix_units(cols, right)
    return alpha[:, None, None] * m + beta[:, None, None] * m[..., c * k + a, :, :]


def cluster_pattern(phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """The eigenvalue-cluster pattern of the density of a positive
    functional, read off :func:`density_spectrum`: per block its rank, then
    for each gap between consecutive values whether a retained cluster
    splits there, as one read-only row of ints; of a stack of functionals,
    one row per functional.  The retained values of a block split where a
    gap exceeds ``rank_rel_tol`` times the block's largest value; its
    kernel is one cluster.  The slot masks of the stabilizer and of the
    pinching are read off it (:func:`_slot_masks`).  Kept on ``phi`` per
    profile.

    Raises ``NotPartiallyInvertible`` for a retained value near the cutoff
    (as a negative power does) and :class:`AmbiguousCluster` for a gap
    within a factor ``GUARD_FACTOR`` of its threshold, on either side, since
    whether it splits a cluster would depend on noise; on a stack, naming
    the first failing functional as its trial."""

    def compute():
        spectrum = density_spectrum(phi, tol)
        spectrum.require_separated()
        start, offset, block, before = phi.algebra._block_layout
        w = np.concatenate([w for _, w, _ in spectrum.blocks], axis=-1)
        rank = np.asarray(spectrum.ranks).T[..., block]
        # The gap before each value of a block, and whether both its values
        # are retained.
        gap = w[..., before] - w
        threshold = tol.rank_rel_tol * w[..., start]
        inside = (offset > 0) & (offset < rank)
        ambiguous = inside & (threshold / GUARD_FACTOR <= gap) & (gap <= GUARD_FACTOR * threshold)
        if ambiguous.any():
            refuse(
                AmbiguousCluster, ambiguous.any(axis=-1),
                f"eigenvalue gap {{:.3e}} is within a factor {GUARD_FACTOR:g} "
                "of the clustering threshold {:.3e}",
                np.max(np.where(ambiguous, gap, -np.inf), axis=-1),
                np.max(np.where(ambiguous, threshold, -np.inf), axis=-1),
            )
        return _readonly(np.where(offset == 0, rank, inside & (gap > threshold)))

    return phi._memoized("pattern", tol, compute)


def _slot_masks(phi: NormalFunctional, tol: ToleranceProfile, kernel: bool) -> np.ndarray:
    """Per slot ``(a, c)`` of the slot grid of the density's eigenbasis,
    whether the block's eigenvalues ``a`` and ``c`` lie in one cluster of
    :func:`cluster_pattern`: in one strictly positive cluster, the
    stabilizer's mask; with ``kernel``, the kernel being one cluster too,
    the pinching's.  A read-only ``(..., sum n_b^2)`` array, kept on
    ``phi`` per profile, with the refusals of :func:`cluster_pattern`."""

    def compute():
        pattern = cluster_pattern(phi, tol)
        start, offset, block, _ = phi.algebra._block_layout
        rank = pattern[..., start]
        # A cluster starts at a split, at the kernel and at a block's first
        # value (its rank); numbering the starts labels each value's cluster.
        label = np.cumsum((pattern != 0) | (offset == rank), axis=-1)
        if not kernel:
            label = np.where(offset < rank, label, np.nan)  # NaN matches nothing
        # The pairs within a block, in row-major order, are the slot grid.
        return _readonly((label[..., :, None] == label[..., None, :])[..., block[:, None] == block])

    return phi._memoized(("slots", kernel), tol, compute)


def centralizer_basis(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Complex basis of {x in p0 M p0 : x d = d x} for a positive functional
    with density ``d`` and support ``p0``, on the slot grid of
    :class:`StabilizerData`: in each strictly positive eigenvalue cluster of
    multiplicity m the commutant holds a full m x m corner of matrix units,
    so the complex dimension is the sum of the squared multiplicities.  A
    ``(sum n_b^2, dim, dim)`` array, zero off the mask; of a stack of
    functionals, one per functional."""
    return stabilizer_lie_algebra(phi, tol).centralizer


def stabilizer_lie_algebra(
    phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> StabilizerData:
    """The anti-Hermitian corner elements commuting with the density:
    i-Hermitian combinations within each positive eigenvalue cluster."""
    vectors = tuple(v for _, _, v in density_spectrum(phi, tol).blocks)
    return StabilizerData(phi.algebra, vectors, _slot_masks(phi, tol, False))


def stabilizer_direction(
    phi: NormalFunctional, coeff: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """The real combination of the stabilizer basis of ``phi`` with the
    coefficients ``coeff``, slot by slot (:func:`combination`); of a stack
    of functionals, each with its row of coefficients."""
    return combination(coeff, stabilizer_lie_algebra(phi, tol))


def conditional_expectation(
    phi: NormalFunctional, x: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """State-preserving conditional expectation onto the centralizer of the
    density, the pinching: per block ``V (K o V* x V) V*``, with ``V`` the
    block's eigenvectors and ``K`` the mask of the pairs of its eigenvalues
    in one cluster, the kernel one cluster (:func:`_slot_masks`).  For a
    stack of functionals, per pair with a stack of elements."""
    x = phi.algebra.require_member(x, tol)
    same = _slot_masks(phi, tol, True)
    blocks = []
    for (s, _, v), k in zip(density_spectrum(phi, tol).blocks, phi.algebra.slot_slices):
        vh = v.conj().mT
        blocks.append(v @ ((vh @ x[..., s, s] @ v) * same[..., k].reshape(v.shape)) @ vh)
    return phi.algebra.embed_blocks(blocks)


def modular_flow(
    phi: NormalFunctional, t, tol: ToleranceProfile = DEFAULT_TOL
) -> Callable[[np.ndarray], np.ndarray]:
    """The modular flow of a faithful positive functional at time ``t``:
    ``x -> u x u*`` on algebra elements, with ``u = d^{it}`` read once from
    :func:`density_spectrum`.  Raises :class:`NotFaithful` for a density
    that is not faithful.  A functional of stacked densities gives the flow
    of each, on one element or on a stack of as many, at one time ``t`` or
    at a ``(T,)`` array of times, one per density."""
    spectrum = density_spectrum(phi, tol)
    refuse(NotFaithful, sum(spectrum.ranks) != phi.algebra.dim,
           "density is not faithful; modular flow undefined")
    u = spectrum.imaginary_power(t)
    uh = u.conj().mT

    def flow(x: np.ndarray) -> np.ndarray:
        return u @ phi.algebra.require_member(x, tol) @ uh

    return flow


def coadjoint_apply(
    u: np.ndarray, phi: NormalFunctional, tol: ToleranceProfile = DEFAULT_TOL
) -> NormalFunctional:
    """Coadjoint action ``rho -> u rho u*`` of a partial isometry whose source
    projection is the support of ``rho``; on stacks, per pair."""
    p = functional_support(phi, tol)
    u = phi.algebra.require_member(u, tol)
    refuse(InvalidArrow, excess(u.conj().mT @ u, p, tol, frobenius(p)),
           "source projection of u is not the support of rho")
    return NormalFunctional(phi.algebra, u @ phi.density @ u.conj().mT)
