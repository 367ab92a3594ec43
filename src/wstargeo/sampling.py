"""Deterministic samplers for structured random inputs.

Every verification trial draws from its own generator, seeded by ``(seed,
subindex, trial)``, so suites are reproducible and each trial replays
alone.  All samplers return elements of the given block algebra
(block-diagonal ambient matrices); unitaries are Haar-distributed.

A sampler takes one generator, or one per trial of a row, and then returns
``(T, ...)`` stacks: entry ``k`` has the bits that a call with generator
``k`` alone returns, and each generator is left where that call leaves it.
One generator runs the same code, as a stack of one; an empty list gives
``(0, ...)`` stacks.

A sampler loops over the generators only to draw each trial's ranks,
Gaussians and uniform values, in the order and amounts of one draw per
block, into a ``dim x dim`` layout per trial: each block's Gaussian in its
rows and first columns, the identity on the rest of the diagonal.  One Haar
QR (:func:`~wstargeo.linalg.phase_fixed_q`) then factors the stack, so a row
makes one QR per sampler call.  The reflectors of a block-diagonal matrix
act within its blocks, so the factor is exactly block-diagonal, each block
the Haar sample of its own Gaussian, and a block of identity stays the
identity.

A drawn projection keeps its :class:`~wstargeo.algebra.Frames`.  An arrow
from ``p`` to ``q`` is ``F_q w F_p*`` with ``w`` a block-diagonal Haar
unitary of the corners, and a positive element on ``p`` is ``(F w)
diag(vals) (F w)*``, each one product over the whole stack with no mask: a
frames matrix is exactly zero outside its frame columns, and ``w`` exactly
zero between frame and other columns (the identity on the others), so the
columns past the ranks add exact zeros.

A draw that must land in a domain is redrawn on the stack
(:func:`redraw_failures`): only the trials that fail the domain test draw
again, each from its own generator, so each trial's stream is the one it
has redrawn alone.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, Iterable, Sequence, TypeAlias

import numpy as np

from .algebra import BlockAlgebra, Frames, NormalFunctional, frame_columns, frames_of
from .errors import AmbiguousCluster, NotInDomain, NotInOverlap, NotPartiallyInvertible
from .linalg import antiherm, herm, phase_fixed_q, singular_values

#: One generator, or one per trial (a string: importing skips ``numpy.random``).
Generators: TypeAlias = "np.random.Generator | Sequence[np.random.Generator]"


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


def _generators(rng: Generators) -> tuple[list[np.random.Generator], bool]:
    """The generators of a draw, one per trial, and whether the draw was
    given one generator alone (it then returns its stack's one entry)."""
    if isinstance(rng, np.random.Generator):
        return [rng], True
    return list(rng), False


def _unstacked(x, one: bool):
    """``x``, or its one entry when the draw was given one generator."""
    return x[0] if one else x


def _gaussians(rng: np.random.Generator, count: int, scale: float = 1.0) -> np.ndarray:
    """``count`` complex Gaussians from one generator, as
    :func:`complex_normal` draws them."""
    return rng.normal(0.0, scale, (count, 2)).view(complex)[:, 0]


def complex_normal(rng: Generators, shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian array whose real and imaginary parts are independent
    ``N(0, scale^2)``, from one draw of interleaved parts per generator."""
    rngs, one = _generators(rng)
    out = np.empty((len(rngs),) + tuple(shape), dtype=complex)
    for row, g in zip(out, rngs):
        row[...] = _gaussians(g, row.size, scale).reshape(shape)
    return _unstacked(out, one)


@lru_cache(maxsize=256)
def _positions(algebra: BlockAlgebra, ranks: tuple[int, ...], corners: bool) -> np.ndarray:
    """Read-only flat positions, in a ``dim x dim`` matrix, of each block's
    Gaussian on its frame columns (:func:`~wstargeo.algebra.frame_columns`):
    its ``r_b x r_b`` corner, or else, in a thin block (``0 < r_b < n_b``),
    its ``n_b x r_b`` rows.  Block by block and row by row: the order in
    which one draw per block fills them."""
    cells = np.arange(algebra.dim**2).reshape(algebra.dim, algebra.dim)
    parts = [np.zeros(0, dtype=int)]
    for s, n, r in zip(algebra.slices, algebra.blocks, ranks):
        c = slice(s.start, s.start + r)
        if corners or 0 < r < n:
            parts.append(cells[c if corners else s, c].ravel())
    index = np.concatenate(parts)
    index.flags.writeable = False
    return index


def _filled(rngs: list, base: np.ndarray, positions: Iterable, scale: float = 1.0) -> np.ndarray:
    """A copy of the square ``base`` per generator, as one stack, with the
    complex Gaussians of generator ``k`` at its flat positions
    ``positions[k]``, in their order."""
    out = np.repeat(base[None], len(rngs), axis=0)
    flat = out.reshape(len(rngs), base.size)
    for row, g, index in zip(flat, rngs, positions):
        row[index] = _gaussians(g, index.size, scale)
    return out


def random_element(algebra: BlockAlgebra, rng: Generators, scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian algebra element, its parts ``N(0, scale^2 / 2)``."""
    rngs, one = _generators(rng)
    index = _positions(algebra, algebra.blocks, True)
    return _unstacked(_filled(rngs, algebra.zero(), [index] * len(rngs), scale / np.sqrt(2.0)), one)


def random_hermitian(algebra: BlockAlgebra, rng: Generators, scale: float = 1.0) -> np.ndarray:
    return herm(random_element(algebra, rng, scale))


def random_antihermitian(algebra: BlockAlgebra, rng: Generators, scale: float = 1.0) -> np.ndarray:
    return antiherm(random_element(algebra, rng, scale))


def random_unitary(algebra: BlockAlgebra, rng: Generators) -> np.ndarray:
    """Haar unitary of the algebra, blockwise: the QR factor of the blocks'
    standard complex Gaussians (:func:`random_element` at scale ``sqrt 2``),
    with the phases of the triangular factor's diagonal moved into it."""
    return phase_fixed_q(random_element(algebra, rng, np.sqrt(2.0)))


def random_positive(
    algebra: BlockAlgebra,
    rng: Generators,
    repeat_chance: float = 0.0,
) -> np.ndarray:
    """Strictly positive element with eigenvalues drawn from ``[0.5, 2]``
    (well separated from any rank cutoff).

    With probability ``repeat_chance`` per block, a repeated eigenvalue is
    forced, to exercise degenerate spectra.
    """
    rngs, one = _generators(rng)
    v = random_unitary(algebra, rngs)
    vals = np.empty((len(rngs), algebra.dim))
    for row, g in zip(vals, rngs):
        row[:] = g.uniform(0.5, 2.0, algebra.dim)
        for s, b in zip(algebra.slices, algebra.blocks):
            if b >= 2 and g.uniform() < repeat_chance:
                i, j = g.choice(b, size=2, replace=False)
                row[s.start + j] = row[s.start + i]
    return _unstacked((v * vals[:, None, :]) @ v.conj().mT, one)


def planted_positive(
    algebra: BlockAlgebra, rng: Generators, grid: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Positive element ``v diag(grid[labels]) v*``, with ``v`` Haar and
    uniform labels, and the labels: each block draws them, then ``v``."""
    rngs, one = _generators(rng)
    gaussians = np.zeros((len(rngs), algebra.dim, algebra.dim), dtype=complex)
    labels = np.empty((len(rngs), algebra.dim), dtype=int)
    for k, g in enumerate(rngs):
        for s, n in zip(algebra.slices, algebra.blocks):
            labels[k, s] = g.integers(0, len(grid), size=n)
            gaussians[k, s, s] = _gaussians(g, n * n).reshape(n, n)
    v, vals = phase_fixed_q(gaussians), np.asarray(grid, dtype=float)[labels]
    # Each block's product on its own: the assembled one is zero-padded.
    blocks = [(vb * vals[:, None, s]) @ vb.conj().mT
              for s, vb in zip(algebra.slices, algebra.block_views(v))]
    return _unstacked(algebra.embed_blocks(blocks), one), _unstacked(labels, one)


def _random_ranks(algebra: BlockAlgebra, rng, allow_zero: bool, allow_full: bool) -> list[int]:
    low, high = (0 if allow_zero else 1), (1 if allow_full else 0)
    ranks = [int(rng.integers(low, b + high)) for b in algebra.blocks]
    if sum(ranks) == 0:
        # keep at least one nonzero block so the projection is not trivial
        ranks[int(rng.integers(0, len(algebra.blocks)))] = 1
    return ranks


def random_frames(
    algebra: BlockAlgebra,
    rng: Generators,
    ranks=None,
    allow_zero: bool = True,
    allow_full: bool = True,
) -> Frames:
    """Frames of a random projection with prescribed blockwise ranks (one
    tuple for every trial, or a row per trial) or random ones: a Haar
    isometry per block, empty at rank 0 and the identity at full rank, the
    first ``r_b`` columns of the QR factor of the identity with each thin
    block's ``n_b x r_b`` complex Gaussian in that block's rows."""
    rngs, one = _generators(rng)
    shape = (len(rngs), len(algebra.blocks))
    if ranks is None:
        ranks = np.reshape([_random_ranks(algebra, g, allow_zero, allow_full) for g in rngs], shape)
    ranks = np.broadcast_to(np.asarray(ranks, dtype=int), shape).copy()
    if np.any(ranks < 0) or np.any(ranks > algebra.blocks):
        raise ValueError("rank exceeds block size")
    positions = [_positions(algebra, tuple(r), False) for r in ranks.tolist()]
    q = phase_fixed_q(_filled(rngs, algebra.identity(), positions))
    framed = frame_columns(algebra, ranks)[:, None, :]
    return _unstacked(Frames(algebra, np.where(framed, q, 0.0), ranks), one)


def equivalent_frames(rng: Generators, frames: Frames) -> Frames:
    """Frames of a random projection with the same blockwise ranks."""
    return random_frames(frames.algebra, rng, ranks=frames.ranks)


def isometry_between(rng: Generators, source: Frames, target: Frames) -> np.ndarray:
    """Partial isometry ``F_t w F_s*`` from the source projection onto the
    target one, with ``w`` a block-diagonal Haar unitary of the corners."""
    if not np.array_equal(source.ranks, target.ranks):
        raise ValueError("source and target have different blockwise ranks")
    rngs, one = _generators(rng)
    ranks = np.broadcast_to(source.ranks, (len(rngs), len(source.algebra.blocks)))
    corners = [_positions(source.algebra, tuple(r), True) for r in ranks.tolist()]
    w = phase_fixed_q(_filled(rngs, source.algebra.identity(), corners))
    return _unstacked(target.matrix @ w @ source.matrix.conj().mT, one)


def positive_on(
    rng: Generators,
    frames: Frames,
    eig_low: float = 0.5,
    eig_high: float = 2.0,
) -> np.ndarray:
    """Positive element supported exactly on the frames' projection, with
    eigenvalues in ``[eig_low, eig_high]`` on the support: ``(F w)
    diag(vals) (F w)*`` with ``w`` a block-diagonal Haar unitary of the
    corners.  Each block draws its corner Gaussian, then its values."""
    rngs, one = _generators(rng)
    algebra = frames.algebra
    ranks = np.broadcast_to(frames.ranks, (len(rngs), len(algebra.blocks)))
    g = np.repeat(algebra.identity()[None], len(rngs), axis=0)
    vals = np.zeros((len(rngs), algebra.dim))
    for k, (gen, r) in enumerate(zip(rngs, ranks.tolist())):
        for s, rb in zip(algebra.slices, r):
            if rb:
                c = slice(s.start, s.start + rb)
                g[k, c, c] = _gaussians(gen, rb * rb).reshape(rb, rb)
                vals[k, c] = gen.uniform(eig_low, eig_high, rb)
    fw = frames.matrix @ phase_fixed_q(g)
    return _unstacked((fw * vals[:, None, :]) @ fw.conj().mT, one)


def frame_chain(
    algebra: BlockAlgebra,
    rng: Generators,
    length: int,
    allow_zero: bool = True,
) -> list[Frames]:
    """Frames of mutually equivalent projections q_0, ..., q_length (equal
    blockwise ranks), for building composable chains."""
    q0 = random_frames(algebra, rng, allow_zero=allow_zero)
    return [q0] + [equivalent_frames(rng, q0) for _ in range(length)]


def random_projection(
    algebra: BlockAlgebra,
    rng: Generators,
    ranks=None,
    allow_zero: bool = True,
    allow_full: bool = True,
) -> np.ndarray:
    """Random orthogonal projection with prescribed or random blockwise ranks."""
    return random_frames(algebra, rng, ranks, allow_zero, allow_full).projection


def partial_isometry_onto(
    algebra: BlockAlgebra,
    rng: Generators,
    source: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Partial isometry ``u`` with ``u* u = source`` and ``u u* = target``
    (blockwise equal ranks), randomized by a corner unitary."""
    return isometry_between(rng, frames_of(algebra, source), frames_of(algebra, target))


def corner_positive(
    algebra: BlockAlgebra,
    rng: Generators,
    p: np.ndarray,
    eig_low: float = 0.5,
    eig_high: float = 2.0,
) -> np.ndarray:
    """Positive element supported exactly on the projection ``p``, with
    eigenvalues in ``[eig_low, eig_high]`` on the support."""
    return positive_on(rng, frames_of(algebra, p), eig_low, eig_high)


def corner_hermitian(
    algebra: BlockAlgebra,
    rng: Generators,
    p: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Hermitian element compressed to the corner p M p."""
    return p @ random_hermitian(algebra, rng, scale) @ p


def corner_antihermitian(
    algebra: BlockAlgebra,
    rng: Generators,
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
    rng: Generators,
    repeat_chance: float = 0.0,
) -> NormalFunctional:
    """Faithful state with eigenvalues well separated from the rank cutoff,
    the functional of :func:`random_density_matrix`; a state on a given
    support is :func:`density_on` its frames."""
    return NormalFunctional(algebra, random_density_matrix(algebra, rng, repeat_chance))


def random_density_matrix(
    algebra: BlockAlgebra,
    rng: Generators,
    repeat_chance: float = 0.0,
) -> np.ndarray:
    """The density of :func:`random_density`, drawn as it draws it, without
    building its functional."""
    return unit_trace(random_positive(algebra, rng, repeat_chance=repeat_chance))


def density_on(rng: Generators, frames: Frames) -> NormalFunctional:
    """State supported exactly on the frames' projection."""
    return NormalFunctional(frames.algebra, unit_trace(positive_on(rng, frames)))


def unit_trace(d: np.ndarray) -> np.ndarray:
    """The density ``d`` scaled to unit trace; each matrix of a stack by its
    own trace."""
    return d / np.trace(d, axis1=-2, axis2=-1).real[..., None, None]


def p0_tangent(
    algebra: BlockAlgebra,
    rng: Generators,
    u: np.ndarray,
    p0: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Random tangent at a point ``u`` of the bundle of partial isometries
    with source ``p0``: right support preserved, ``u* du`` anti-Hermitian."""
    z = random_element(algebra, rng, scale) @ p0
    return z - u @ herm(u.conj().mT @ z)


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


def redraw_failures(
    rng: Generators,
    draw: Callable[[list], tuple[list, np.ndarray]],
    retry: Callable,
) -> list:
    """The stacks of each trial's first admissible draw.  ``draw(generators)``
    draws those trials' stacks (arrays or frames) and returns them with a
    flag per trial from one domain test.  ``retry`` (:func:`sample_with_retry`)
    gets one closure, which draws the pending trials, keeps those that pass
    and refuses while any remain: a trial draws at most as often as
    ``retry`` calls it."""
    rngs, one = _generators(rng)
    pending, kept = np.arange(len(rngs)), []

    def attempt() -> list:
        nonlocal pending
        stacks, admissible = draw([rngs[k] for k in pending])
        kept.append((pending[admissible], [x[admissible] for x in stacks]))
        pending = pending[~admissible]
        if pending.size:
            raise NotInDomain(f"redraw: {pending.size} trials outside the domain")
        order = np.argsort(np.concatenate([trials for trials, _ in kept]))
        return [_unstacked(_joined(parts, order), one) for parts in zip(*(x for _, x in kept))]

    return retry(attempt)


def _joined(parts: Sequence, order: np.ndarray):
    """The stacks ``parts`` (arrays or frames) as one, in the given order."""
    if isinstance(parts[0], Frames):
        matrix = _joined([f.matrix for f in parts], order)
        return Frames(parts[0].algebra, matrix, _joined([f.ranks for f in parts], order))
    return np.concatenate(parts)[order]


def random_unit_vector(n: int, rng: Generators) -> np.ndarray:
    """Complex Gaussian vector scaled to unit norm, computed as
    ``numpy.linalg.norm`` computes it."""
    v = complex_normal(rng, (n,))
    re, im = v.real, v.imag
    return v / np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]
