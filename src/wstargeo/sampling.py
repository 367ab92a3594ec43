"""Deterministic samplers for structured random inputs.

Every verification trial draws from a generator seeded by ``(seed, trial
index, ...)``, so suites are reproducible and trial-parallelizable.  All
samplers return elements of the given block algebra (block-diagonal ambient
matrices); unitaries are Haar-distributed (:func:`haar_unitary`).

A drawn projection keeps its :class:`~wstargeo.algebra.Frames`: one
block-structured ``dim x R`` isometry ``F`` with ``p = F F*``, holding a Haar
isometry per block.  An arrow from ``p`` to ``q`` is ``F_q w F_p*`` with
``w`` a block-diagonal Haar unitary of the corners, and a positive element
supported on ``p`` is ``(F w) diag(vals) (F w)*``, so nothing recovers a
frame or a rank from a projection it drew.  The functions that take a
projection instead (:func:`partial_isometry_onto`,
:func:`corner_positive`) read its frames with
:func:`~wstargeo.algebra.frames_of`, one Hermitian eigendecomposition per
block.

Each sampler makes one Haar QR, whatever the number of blocks: it lays the
blocks' complex Gaussians out along the diagonal of one matrix and factors
that.  The reflectors of a block-diagonal matrix act within its blocks, so
the factor is exactly block-diagonal, each block the Haar sample of its own
Gaussian.  The Gaussians are drawn block by block, in the order and amounts
that one draw per block would take, so a key gives the same stream as one
QR per block.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable

import numpy as np

from .algebra import BlockAlgebra, Frames, NormalFunctional, consecutive_slices, frames_of
from .errors import AmbiguousCluster, NotInDomain, NotInOverlap, NotPartiallyInvertible
from .linalg import (
    antiherm,
    herm,
    phase_fixed_q,
    singular_values,
)


def rng_for(*key: int) -> np.random.Generator:
    """Generator for a (seed, trial, ...) key of non-negative integers.

    Its ``SeedSequence`` is built from the key's 32-bit little-endian words,
    as NumPy splits an integer list (``0`` is the one word ``0``), so the
    stream is that of ``np.random.default_rng(list(key))``."""
    words = []
    for k in key:
        k = operator.index(k)
        if k < 0:
            raise ValueError("seed key entries must be non-negative")
        words.append(k & 0xFFFFFFFF)
        while k := k >> 32:
            words.append(k & 0xFFFFFFFF)
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


def complex_normal(
    rng: np.random.Generator, shape: tuple[int, ...], scale: float = 1.0
) -> np.ndarray:
    """Complex Gaussian array whose real and imaginary parts are independent
    ``N(0, scale^2)``, from one draw of interleaved parts."""
    return rng.normal(0.0, scale, (*shape, 2)).view(complex)[..., 0]


def _positions(shape: tuple[int, int], blocks: Iterable[tuple[slice, slice]]) -> np.ndarray:
    """Read-only flat positions, in a matrix of the given shape, of the
    entries of each ``(rows, columns)`` block, block by block and each row
    by row: the order in which :func:`complex_normal` fills blocks drawn one
    after the other."""
    cells = np.arange(shape[0] * shape[1]).reshape(shape)
    index = np.concatenate([np.zeros(0, dtype=cells.dtype)] + [cells[r, c].ravel() for r, c in blocks])
    index.flags.writeable = False
    return index


@lru_cache(maxsize=256)
def _diagonal_positions(sizes: tuple[int, ...]) -> np.ndarray:
    """:func:`_positions` of the square diagonal blocks of these sizes."""
    n = sum(sizes)
    return _positions((n, n), [(s, s) for s in consecutive_slices(sizes)])


def _block_gaussian(
    rng: np.random.Generator, sizes: tuple[int, ...], scale: float = 1.0
) -> np.ndarray:
    """Block-diagonal matrix of complex Gaussian square blocks of these
    sizes, drawn block by block in one draw."""
    n = sum(sizes)
    out = np.zeros((n, n), dtype=complex)
    index = _diagonal_positions(sizes)
    np.put(out, index, complex_normal(rng, index.shape, scale))
    return out


def random_element(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian algebra element."""
    return _block_gaussian(rng, algebra.blocks, scale / np.sqrt(2.0))


def random_hermitian(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return herm(random_element(algebra, rng, scale))


def random_antihermitian(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return antiherm(random_element(algebra, rng, scale))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n-by-n unitary: QR of a complex Gaussian with the
    phases of the triangular factor's diagonal moved into the unitary."""
    return phase_fixed_q(complex_normal(rng, (n, n)))


def _block_haar(rng: np.random.Generator, sizes: tuple[int, ...]) -> np.ndarray:
    """Block-diagonal Haar unitary with square blocks of the given sizes:
    one QR of the blocks' complex Gaussians."""
    return phase_fixed_q(_block_gaussian(rng, sizes))


def random_unitary(algebra: BlockAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary of the algebra, blockwise."""
    return _block_haar(rng, algebra.blocks)


def random_positive(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    repeat_chance: float = 0.0,
) -> np.ndarray:
    """Strictly positive element with eigenvalues drawn from ``[0.5, 2]``
    (well separated from any rank cutoff).

    With probability ``repeat_chance`` per block, a repeated eigenvalue is
    forced, to exercise degenerate spectra.
    """
    v = random_unitary(algebra, rng)
    vals = rng.uniform(0.5, 2.0, algebra.dim)
    offset = 0
    for b in algebra.blocks:
        if b >= 2 and rng.uniform() < repeat_chance:
            i, j = rng.choice(b, size=2, replace=False)
            vals[offset + j] = vals[offset + i]
        offset += b
    return (v * vals) @ v.conj().T


@lru_cache(maxsize=256)
def _frame_layout(algebra: BlockAlgebra, ranks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """For frames of these blockwise ranks, read-only: the flat positions,
    in a ``dim x dim`` matrix, of each thin block's ``n_b x r_b`` Gaussian
    (that block's rows and its first ``r_b`` columns), and the columns that
    hold the frames (each block's first ``r_b``).  Raises ``ValueError``
    for ranks that do not fit the blocks."""
    if len(ranks) != len(algebra.blocks) or any(
        r < 0 or r > n for n, r in zip(algebra.blocks, ranks)
    ):
        raise ValueError("rank exceeds block size")
    thin, keep = [], []
    for s, n, r in zip(algebra.slices, algebra.blocks, ranks):
        if 0 < r < n:
            thin.append((s, slice(s.start, s.start + r)))
        keep.append(np.arange(s.start, s.start + r))
    keep = np.concatenate(keep)
    keep.flags.writeable = False
    return _positions((algebra.dim, algebra.dim), thin), keep


def random_frames(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    ranks: tuple[int, ...] | None = None,
    allow_zero: bool = True,
    allow_full: bool = True,
) -> Frames:
    """Frames of a random projection with prescribed or random blockwise
    ranks: a Haar isometry per block, empty at rank 0 and the identity at
    full rank.

    All blocks come from one QR of the ``dim x dim`` identity with each
    thin block's ``n_b x r_b`` complex Gaussian (drawn block by block) in
    that block's rows and first ``r_b`` columns.  That matrix is
    block-diagonal, so the Q factor is too, exactly: its first ``r_b``
    columns in a block are the Haar isometry of that block's Gaussian, and
    a block of identity columns stays the identity.  The frames are those
    columns."""
    if ranks is None:
        ranks = tuple(
            int(rng.integers(0 if allow_zero else 1, b + (1 if allow_full else 0)))
            for b in algebra.blocks
        )
        if sum(ranks) == 0:
            # keep at least one nonzero block so the projection is not trivial
            ranks = list(ranks)
            k = int(rng.integers(0, len(algebra.blocks)))
            ranks[k] = 1
    ranks = tuple(ranks)
    thin, keep = _frame_layout(algebra, ranks)
    f = algebra.identity()
    if thin.size:
        np.put(f, thin, complex_normal(rng, thin.shape))
        f = phase_fixed_q(f)
    return Frames(algebra, f[:, keep], ranks)


def equivalent_frames(rng: np.random.Generator, frames: Frames) -> Frames:
    """Frames of a random projection with the same blockwise ranks."""
    return random_frames(frames.algebra, rng, ranks=frames.ranks)


def isometry_between(rng: np.random.Generator, source: Frames, target: Frames) -> np.ndarray:
    """Partial isometry ``F_t w F_s*`` from the source projection onto the
    target one, with ``w`` a block-diagonal Haar unitary of the corners."""
    if source.ranks != target.ranks:
        raise ValueError("source and target have different blockwise ranks")
    return target.matrix @ _block_haar(rng, source.ranks) @ source.matrix.conj().T


def positive_on(
    rng: np.random.Generator,
    frames: Frames,
    eig_low: float = 0.5,
    eig_high: float = 2.0,
) -> np.ndarray:
    """Positive element supported exactly on the frames' projection, with
    eigenvalues in ``[eig_low, eig_high]`` on the support: ``(F w)
    diag(vals) (F w)*`` with ``w`` a block-diagonal Haar unitary of the
    corners.  Each block draws its corner Gaussian, then its values."""
    size = sum(frames.ranks)
    g = np.zeros((size, size), dtype=complex)
    vals = np.empty(size)
    for c in frames.columns:
        r = c.stop - c.start
        if r:
            g[c, c] = complex_normal(rng, (r, r))
            vals[c] = rng.uniform(eig_low, eig_high, r)
    fw = frames.matrix @ phase_fixed_q(g)
    return (fw * vals) @ fw.conj().T


def frame_chain(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    length: int,
    allow_zero: bool = True,
) -> list[Frames]:
    """Frames of mutually equivalent projections q_0, ..., q_length (equal
    blockwise ranks), for building composable chains."""
    q0 = random_frames(algebra, rng, allow_zero=allow_zero)
    return [q0] + [equivalent_frames(rng, q0) for _ in range(length)]


def random_projection(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    ranks: tuple[int, ...] | None = None,
    allow_zero: bool = True,
    allow_full: bool = True,
) -> np.ndarray:
    """Random orthogonal projection with prescribed or random blockwise ranks."""
    return random_frames(algebra, rng, ranks, allow_zero, allow_full).projection


def partial_isometry_onto(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    source: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Partial isometry ``u`` with ``u* u = source`` and ``u u* = target``
    (blockwise equal ranks), randomized by a corner unitary."""
    return isometry_between(rng, frames_of(algebra, source), frames_of(algebra, target))


def corner_positive(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    p: np.ndarray,
    eig_low: float = 0.5,
    eig_high: float = 2.0,
) -> np.ndarray:
    """Positive element supported exactly on the projection ``p``, with
    eigenvalues in ``[eig_low, eig_high]`` on the support."""
    return positive_on(rng, frames_of(algebra, p), eig_low, eig_high)


def corner_hermitian(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    p: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Hermitian element compressed to the corner p M p."""
    return p @ random_hermitian(algebra, rng, scale) @ p


def corner_antihermitian(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    p: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Anti-Hermitian element compressed to the corner p M p."""
    return p @ random_antihermitian(algebra, rng, scale) @ p


def unit_norm(x: np.ndarray) -> np.ndarray:
    """Scale to unit operator norm (zero input stays zero); each matrix of a
    stack by its own norm.  It consumes no randomness."""
    s = singular_values(x)[..., :1, None]
    return x / np.where(s == 0.0, 1.0, s)


def random_density(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    repeat_chance: float = 0.0,
) -> NormalFunctional:
    """Faithful state with eigenvalues well separated from the rank cutoff,
    the functional of :func:`random_density_matrix`; a state on a given
    support is :func:`density_on` its frames."""
    return NormalFunctional(algebra, random_density_matrix(algebra, rng, repeat_chance))


def random_density_matrix(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    repeat_chance: float = 0.0,
) -> np.ndarray:
    """The density of :func:`random_density`, drawn as it draws it, without
    building its functional."""
    return unit_trace(random_positive(algebra, rng, repeat_chance=repeat_chance))


def density_on(rng: np.random.Generator, frames: Frames) -> NormalFunctional:
    """State supported exactly on the frames' projection."""
    return NormalFunctional(frames.algebra, unit_trace(positive_on(rng, frames)))


def unit_trace(d: np.ndarray) -> np.ndarray:
    """The density ``d`` scaled to unit trace."""
    return d / float(np.trace(d).real)


def p0_tangent(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    u: np.ndarray,
    p0: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Random tangent at a point ``u`` of the bundle of partial isometries
    with source ``p0``: right support preserved, ``u* du`` anti-Hermitian."""
    z = random_element(algebra, rng, scale) @ p0
    return z - u @ herm(u.conj().T @ z)


def projection_chain(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    length: int,
    allow_zero: bool = True,
) -> list[np.ndarray]:
    """Mutually equivalent projections q_0, ..., q_length (equal blockwise
    ranks), for building composable chains."""
    return [f.projection for f in frame_chain(algebra, rng, length, allow_zero)]


#: Refusals that mean "this random draw hit a measure-zero degenerate
#: configuration; redraw" rather than "the identity failed".
_REDRAW = (NotPartiallyInvertible, AmbiguousCluster, NotInDomain, NotInOverlap)


def sample_with_retry(draw, max_tries: int = 64):
    """Call ``draw`` until it returns, redrawing on degenerate-configuration
    refusals (rank and cluster guard bands, chart-domain misses); the draw
    closure consumes fresh randomness each attempt."""
    for _ in range(max_tries):
        try:
            return draw()
        except _REDRAW:
            continue
    raise NotPartiallyInvertible(
        f"sampler failed to produce an admissible configuration in {max_tries} draws"
    )


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = complex_normal(rng, (n,))
    return v / np.linalg.norm(v)
