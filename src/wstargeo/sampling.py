"""Deterministic samplers for structured random inputs.

Every verification trial draws from a generator seeded by ``(seed, trial
index, ...)``, so suites are reproducible and trial-parallelizable.  All
samplers return elements of the given block algebra (block-diagonal ambient
matrices); unitaries are Haar-distributed (:func:`haar_unitary`).

A drawn projection keeps its :class:`Frames`: per block an ``n_b x r_b``
Haar isometry ``F`` with ``p = F F*``.  An arrow from ``p`` to ``q`` is
``F_q w F_p*`` with ``w`` a Haar unitary of the corner, and a positive
element supported on ``p`` is ``(F w) diag(vals) (F w)*``, so nothing
recovers a frame or a rank from a projection it drew.  The functions that
take a projection instead (:func:`partial_isometry_onto`,
:func:`corner_positive`) read its frames off one Hermitian eigendecomposition
per block (:func:`frames_of`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import BlockAlgebra, NormalFunctional
from .errors import NotInDomain, NotInOverlap, NotPartiallyInvertible
from .linalg import (
    antiherm,
    herm,
    hermitian_eig,
    phase_fixed_q,
    singular_values,
)


def rng_for(*key: int) -> np.random.Generator:
    """Generator for a (seed, trial, ...) key."""
    return np.random.default_rng(list(key))


def complex_normal(
    rng: np.random.Generator, shape: tuple[int, ...], scale: float = 1.0
) -> np.ndarray:
    """Complex Gaussian array whose real and imaginary parts are independent
    ``N(0, scale^2)``, from one draw of interleaved parts."""
    return rng.normal(0.0, scale, (*shape, 2)).view(complex)[..., 0]


def random_element(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian algebra element."""
    return algebra.embed_blocks(
        [complex_normal(rng, (b, b), scale / np.sqrt(2.0)) for b in algebra.blocks]
    )


def random_hermitian(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return herm(random_element(algebra, rng, scale))


def random_antihermitian(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return antiherm(random_element(algebra, rng, scale))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n-by-n unitary: QR of a complex Gaussian with the
    phases of the triangular factor's diagonal moved into the unitary."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    return phase_fixed_q(complex_normal(rng, (n, n)))


def random_unitary(algebra: BlockAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary of the algebra, blockwise."""
    return algebra.embed_blocks([haar_unitary(rng, b) for b in algebra.blocks])


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


@dataclass(frozen=True, eq=False)
class Frames:
    """Orthonormal frames of a projection: per block an ``n_b x r_b``
    isometry ``F`` whose range is that block of the projection."""

    algebra: BlockAlgebra
    blocks: tuple[np.ndarray, ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(f.shape[1] for f in self.blocks)

    @cached_property
    def projection(self) -> np.ndarray:
        """The projection ``F F*``, blockwise."""
        return self.algebra.embed_blocks([f @ f.conj().T for f in self.blocks])


def frames_of(algebra: BlockAlgebra, p: np.ndarray) -> Frames:
    """Frames of a projection ``p``: per block, the eigenvectors of the
    eigenvalues above 1/2."""
    frames = []
    for bp in algebra.block_views(p):
        w, v = hermitian_eig(bp)
        frames.append(v[:, : int(np.count_nonzero(w > 0.5))])
    return Frames(algebra, tuple(frames))


def random_frames(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    ranks: tuple[int, ...] | None = None,
    allow_zero: bool = True,
    allow_full: bool = True,
) -> Frames:
    """Frames of a random projection with prescribed or random blockwise
    ranks: a Haar isometry per block (QR of an ``n_b x r_b`` complex
    Gaussian), empty at rank 0 and the identity at full rank."""
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
    frames = []
    for b, r in zip(algebra.blocks, ranks):
        if r < 0 or r > b:
            raise ValueError("rank exceeds block size")
        if r == 0:
            frames.append(np.zeros((b, 0), dtype=complex))
        elif r == b:
            frames.append(np.eye(b, dtype=complex))
        else:
            frames.append(phase_fixed_q(complex_normal(rng, (b, r))))
    return Frames(algebra, tuple(frames))


def equivalent_frames(rng: np.random.Generator, frames: Frames) -> Frames:
    """Frames of a random projection with the same blockwise ranks."""
    return random_frames(frames.algebra, rng, ranks=frames.ranks)


def isometry_between(rng: np.random.Generator, source: Frames, target: Frames) -> np.ndarray:
    """Partial isometry ``F_t w F_s*`` from the source projection onto the
    target one, with ``w`` a Haar unitary of each block's corner."""
    if source.ranks != target.ranks:
        raise ValueError("source and target have different blockwise ranks")
    return source.algebra.embed_blocks(
        [
            ft @ haar_unitary(rng, fs.shape[1]) @ fs.conj().T
            for fs, ft in zip(source.blocks, target.blocks)
        ]
    )


def positive_on(
    rng: np.random.Generator,
    frames: Frames,
    eig_low: float = 0.5,
    eig_high: float = 2.0,
) -> np.ndarray:
    """Positive element supported exactly on the frames' projection, with
    eigenvalues in ``[eig_low, eig_high]`` on the support: ``(F w)
    diag(vals) (F w)*`` per block, ``w`` a Haar unitary of the corner."""
    mats = []
    for f in frames.blocks:
        fw = f @ haar_unitary(rng, f.shape[1])
        vals = rng.uniform(eig_low, eig_high, f.shape[1])
        mats.append((fw * vals) @ fw.conj().T)
    return frames.algebra.embed_blocks(mats)


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
    """Scale to unit operator norm (no-op on zero input)."""
    s = float(singular_values(x)[0])
    return x if s == 0.0 else x / s


def random_density(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    support: np.ndarray | None = None,
    repeat_chance: float = 0.0,
) -> NormalFunctional:
    """State with prescribed support (faithful by default) and eigenvalues
    well separated from the rank cutoff."""
    if support is not None:
        return density_on(rng, frames_of(algebra, support))
    return _functional(algebra, random_positive(algebra, rng, repeat_chance=repeat_chance))


def density_on(rng: np.random.Generator, frames: Frames) -> NormalFunctional:
    """State supported exactly on the frames' projection."""
    return _functional(frames.algebra, positive_on(rng, frames))


def _functional(algebra: BlockAlgebra, d: np.ndarray) -> NormalFunctional:
    """The functional of the density ``d`` scaled to unit trace."""
    return NormalFunctional(algebra, d / float(np.trace(d).real))


def faithful_density(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    repeat_chance: float = 0.0,
) -> NormalFunctional:
    return random_density(algebra, rng, support=None, repeat_chance=repeat_chance)


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


def stabilizer_direction(
    rng: np.random.Generator, basis: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Random real combination of a stabilizer basis."""
    if not basis:
        raise ValueError("stabilizer basis is empty")
    coeff = rng.standard_normal(len(basis))
    out = np.zeros_like(basis[0])
    for c, b in zip(coeff, basis):
        out = out + c * b
    return out


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
_REDRAW = (NotPartiallyInvertible, NotInDomain, NotInOverlap)


def sample_with_retry(draw, max_tries: int = 64):
    """Call ``draw`` until it returns, redrawing on degenerate-configuration
    refusals (guard band, chart-domain misses); the draw closure consumes
    fresh randomness each attempt."""
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
