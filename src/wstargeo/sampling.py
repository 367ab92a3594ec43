"""Deterministic samplers for structured random inputs.

The trials of a suite's row group draw from one :class:`Stream`, keyed
``(seed, group key)``.  Each draw of a sampler takes the stream's next *slot*:
the slot's generator (:func:`rng_for`, keyed ``(seed, group key, *path)``)
makes one bulk draw of ``(n, ...)`` values, and trial ``k`` reads row ``k``.
Row ``k`` of a NumPy draw does not depend on how many rows follow it, and a
slot's width per trial follows the algebra alone, so trial ``k``'s data are
a pure function of its key: the stream of trial ``k`` alone draws each
slot's rows up to ``k`` and keeps row ``k``, the bits it has in the stack.
A draw for some trials only (:meth:`Stream.part`) and each attempt of a
redraw (:func:`redraw_failures`) draw below a slot of their own, so what
the other trials draw does not depend on which trials took part, or on how
often they redrew.  All samplers return elements of the given block algebra
(block-diagonal ambient matrices) as ``(T, ...)`` stacks; unitaries are
Haar-distributed.

A Gaussian slot fills the blocks of a ``dim x dim`` matrix per trial; a
sampler keeps the entries its trial's ranks use (each thin block's rows and
frame columns, or each block's frame corner) and puts the identity on the
rest of the diagonal.  One Haar QR (:func:`~wstargeo.linalg.phase_fixed_q`)
then factors the stack, so a row makes one QR per sampler call.  The
reflectors of a block-diagonal matrix act within its blocks, so the factor
is exactly block-diagonal, each block the Haar sample of its own Gaussian,
and a block of identity stays the identity.

A drawn projection keeps its :class:`~wstargeo.algebra.Frames`.  An arrow
from ``p`` to ``q`` is ``F_q w F_p*`` with ``w`` a block-diagonal Haar
unitary of the corners, and a positive element on ``p`` is ``(F w)
diag(vals) (F w)*``, each one product over the whole stack with no mask: a
frames matrix is exactly zero outside its frame columns, and ``w`` exactly
zero between frame and other columns (the identity on the others), so the
columns past the ranks add exact zeros.
"""
from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .algebra import BlockAlgebra, Frames, NormalFunctional, frame_columns, frames_of
from .errors import AmbiguousCluster, NotInDomain, NotInOverlap, NotPartiallyInvertible
from .linalg import antiherm, herm, hermitian_eigvals, phase_fixed_q


def rng_for(*key: int) -> np.random.Generator:
    """Generator for a (seed, group key, ...) key of non-negative integers.

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


class Stream:
    """The draws of a stack of trials, one slot at a time: slot ``j`` has the
    generator keyed ``(*key, *path, j)``, and ``trials`` holds the index of
    each trial of the stack, whose row of every slot it reads."""

    def __init__(self, key: Sequence[int], trials, path: tuple = ()):
        self.key, self.path = tuple(key), tuple(path)
        self.trials = np.asarray(trials, dtype=int)
        self._rows = int(self.trials.max(initial=-1)) + 1
        self._whole = np.array_equal(self.trials, np.arange(self._rows))
        self._slots = 0

    def __len__(self) -> int:
        return len(self.trials)

    def slot(self) -> tuple:
        """The path of the next slot, which this call takes."""
        self._slots += 1
        return (*self.path, self._slots - 1)

    def take(self, method: str, *args, shape: tuple = ()) -> np.ndarray:
        """One slot: ``Generator.<method>(*args)`` of the slot's generator
        for ``(n, *shape)`` values, ``n`` one past the largest trial index,
        and each trial's row of them."""
        generator = rng_for(*self.key, *self.slot())
        rows = getattr(generator, method)(*args, size=(self._rows, *shape))
        return rows if self._whole else rows[self.trials]

    def below(self, path: tuple, select=slice(None)) -> Stream:
        """The stream of the trials that ``select`` picks, drawing below
        ``path``."""
        return Stream(self.key, self.trials[select], path)

    def part(self, select) -> Stream:
        """The trials that ``select`` picks, drawing below the next slot."""
        return self.below(self.slot(), select)


def complex_normal(rng: Stream, shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian array whose real and imaginary parts are independent
    ``N(0, scale^2)``: one slot of interleaved parts."""
    return rng.take("normal", 0.0, scale, shape=(*shape, 2)).view(complex)[..., 0]


@lru_cache(maxsize=64)
def _block_cells(algebra: BlockAlgebra) -> np.ndarray:
    """Read-only flat positions of the blocks' entries in a ``dim x dim``
    matrix, block by block and row by row."""
    cells = np.arange(algebra.dim**2).reshape(algebra.dim, algebra.dim)
    index = np.concatenate([cells[s, s].ravel() for s in algebra.slices])
    index.flags.writeable = False
    return index


def random_element(algebra: BlockAlgebra, rng: Stream, scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian algebra element, its parts ``N(0, scale^2 / 2)``:
    one slot of ``sum n_b^2`` entries per trial."""
    index = _block_cells(algebra)
    out = np.zeros((len(rng), algebra.dim**2), dtype=complex)
    out[:, index] = complex_normal(rng, (index.size,), scale / np.sqrt(2.0))
    return out.reshape(-1, algebra.dim, algebra.dim)


def random_hermitian(algebra: BlockAlgebra, rng: Stream) -> np.ndarray:
    return herm(random_element(algebra, rng))


def random_antihermitian(algebra: BlockAlgebra, rng: Stream) -> np.ndarray:
    return antiherm(random_element(algebra, rng))


def random_unitary(algebra: BlockAlgebra, rng: Stream) -> np.ndarray:
    """Haar unitary of the algebra, blockwise: the QR factor of the blocks'
    standard complex Gaussians (:func:`random_element` at scale ``sqrt 2``),
    with the phases of the triangular factor's diagonal moved into it."""
    return phase_fixed_q(random_element(algebra, rng, np.sqrt(2.0)))


def random_positive(algebra: BlockAlgebra, rng: Stream, repeat_chance: float = 0.0) -> np.ndarray:
    """Strictly positive element ``v diag(vals) v*``, ``v`` Haar, with
    eigenvalues drawn from ``[0.5, 2]`` (well separated from any rank
    cutoff).

    With probability ``repeat_chance`` per block of size at least 2, a
    repeated eigenvalue is forced, to exercise degenerate spectra: the value
    at a uniform position ``j`` of the block takes that at another uniform
    position ``i``.
    """
    v = random_unitary(algebra, rng)
    vals = rng.take("uniform", 0.5, 2.0, shape=(algebra.dim,))
    if repeat_chance > 0.0:
        n = np.array(algebra.blocks)
        coin = rng.take("uniform", shape=(len(n),)) < repeat_chance
        # i uniform in the block, j uniform among the other positions
        pick = rng.take("integers", 0, np.stack([n, np.maximum(n - 1, 1)], -1), shape=(len(n), 2))
        trial, b = np.nonzero(coin & (n >= 2))
        start = np.array([s.start for s in algebra.slices])[b]
        i, j = pick[trial, b, 0], pick[trial, b, 1]
        vals[trial, start + j + (j >= i)] = vals[trial, start + i]
    return (v * vals[:, None, :]) @ v.conj().mT


def planted_positive(
    algebra: BlockAlgebra, rng: Stream, grid: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Positive element ``v diag(grid[labels]) v*``, with ``v`` Haar and
    uniform labels, and the labels: a slot of labels, then ``v``."""
    labels = rng.take("integers", 0, len(grid), shape=(algebra.dim,))
    v, vals = random_unitary(algebra, rng), np.asarray(grid, dtype=float)[labels]
    # Each block's product on its own: the assembled one is zero-padded.
    blocks = [(vb * vals[:, None, s]) @ vb.conj().mT
              for s, vb in zip(algebra.slices, algebra.block_views(v))]
    return algebra.embed_blocks(blocks), labels


def _random_ranks(algebra: BlockAlgebra, rng: Stream, allow_zero: bool, allow_full: bool):
    """One slot: each trial's blockwise ranks, uniform from ``0`` (``1``
    without ``allow_zero``) to ``n_b`` (``n_b - 1`` without ``allow_full``),
    and a block, uniform, that takes rank 1 when every rank is 0."""
    m = len(algebra.blocks)
    low = [int(not allow_zero)] * m + [0]
    high = [n + int(allow_full) for n in algebra.blocks] + [m]
    ranks, spare = np.split(rng.take("integers", low, high, shape=(m + 1,)), [m], axis=1)
    # keep at least one nonzero block so the projection is not trivial
    empty = ~ranks.any(axis=1)
    ranks[empty, spare[empty, 0]] = 1
    return ranks


def random_frames(
    algebra: BlockAlgebra, rng: Stream, ranks=None, allow_zero: bool = True, allow_full: bool = True
) -> Frames:
    """Frames of a random projection with prescribed blockwise ranks (one
    tuple for every trial, or a row per trial) or random ones: a Haar
    isometry per block, empty at rank 0 and the identity at full rank, the
    first ``r_b`` columns of the QR factor of the identity with each thin
    block's Gaussian in that block's rows and first ``r_b`` columns."""
    shape = (len(rng), len(algebra.blocks))
    if ranks is None:
        ranks = _random_ranks(algebra, rng, allow_zero, allow_full)
    ranks = np.broadcast_to(np.asarray(ranks, dtype=int), shape).copy()
    if np.any(ranks < 0) or np.any(ranks > algebra.blocks):
        raise ValueError("rank exceeds block size")
    thin = frame_columns(algebra, np.where(ranks < algebra.blocks, ranks, 0))[:, None, :]
    gaussians = random_element(algebra, rng, np.sqrt(2.0))
    q = phase_fixed_q(np.where(thin, gaussians, algebra.identity()))
    return Frames(algebra, np.where(frame_columns(algebra, ranks)[:, None, :], q, 0.0), ranks)


def equivalent_frames(rng: Stream, frames: Frames) -> Frames:
    """Frames of a random projection with the same blockwise ranks."""
    return random_frames(frames.algebra, rng, ranks=frames.ranks)


def _corner_unitaries(rng: Stream, frames: Frames) -> tuple[np.ndarray, np.ndarray]:
    """One slot: per trial, a block-diagonal Haar unitary of the frames'
    corners, the identity on the other columns; and the frame columns."""
    algebra = frames.algebra
    framed = frame_columns(algebra, np.broadcast_to(frames.ranks, (len(rng), len(algebra.blocks))))
    corners = framed[:, :, None] & framed[:, None, :]
    gaussians = random_element(algebra, rng, np.sqrt(2.0))
    w = phase_fixed_q(np.where(corners, gaussians, algebra.identity()))
    return w, framed


def isometry_between(rng: Stream, source: Frames, target: Frames) -> np.ndarray:
    """Partial isometry ``F_t w F_s*`` from the source projection onto the
    target one, with ``w`` a block-diagonal Haar unitary of the corners."""
    if not np.array_equal(source.ranks, target.ranks):
        raise ValueError("source and target have different blockwise ranks")
    w, _ = _corner_unitaries(rng, source)
    return target.matrix @ w @ source.matrix.conj().mT


def positive_on(
    rng: Stream, frames: Frames, eig_low: float = 0.5, eig_high: float = 2.0
) -> np.ndarray:
    """Positive element supported exactly on the frames' projection, with
    eigenvalues in ``[eig_low, eig_high]`` on the support: ``(F w)
    diag(vals) (F w)*`` with ``w`` a block-diagonal Haar unitary of the
    corners.  A slot of corner Gaussians, then one of values."""
    w, framed = _corner_unitaries(rng, frames)
    vals = rng.take("uniform", eig_low, eig_high, shape=(frames.algebra.dim,))
    fw = frames.matrix @ w
    return (fw * np.where(framed, vals, 0.0)[:, None, :]) @ fw.conj().mT


def frame_chain(
    algebra: BlockAlgebra, rng: Stream, length: int, allow_zero: bool = True
) -> list[Frames]:
    """Frames of mutually equivalent projections q_0, ..., q_length (equal
    blockwise ranks), for building composable chains."""
    q0 = random_frames(algebra, rng, allow_zero=allow_zero)
    return [q0] + [equivalent_frames(rng, q0) for _ in range(length)]


def random_projection(
    algebra: BlockAlgebra, rng: Stream, ranks=None, allow_zero: bool = True, allow_full: bool = True
) -> np.ndarray:
    """Random orthogonal projection with prescribed or random blockwise ranks."""
    return random_frames(algebra, rng, ranks, allow_zero, allow_full).projection


def partial_isometry_onto(
    algebra: BlockAlgebra, rng: Stream, source: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Partial isometry ``u`` with ``u* u = source`` and ``u u* = target``
    (blockwise equal ranks), randomized by a corner unitary."""
    return isometry_between(rng, frames_of(algebra, source), frames_of(algebra, target))


def corner_positive(
    algebra: BlockAlgebra, rng: Stream, p: np.ndarray, eig_low: float = 0.5, eig_high: float = 2.0
) -> np.ndarray:
    """Positive element supported exactly on the projection ``p``, with
    eigenvalues in ``[eig_low, eig_high]`` on the support."""
    return positive_on(rng, frames_of(algebra, p), eig_low, eig_high)


def corner_hermitian(algebra: BlockAlgebra, rng: Stream, p: np.ndarray) -> np.ndarray:
    """Hermitian element compressed to the corner p M p."""
    return p @ random_hermitian(algebra, rng) @ p


def corner_antihermitian(algebra: BlockAlgebra, rng: Stream, p: np.ndarray) -> np.ndarray:
    """Anti-Hermitian element compressed to the corner p M p."""
    return p @ random_antihermitian(algebra, rng) @ p


def unit_norm(x: np.ndarray) -> np.ndarray:
    """Scale to unit operator norm (zero input stays zero); each matrix of a
    stack by its own norm, the root of the largest eigenvalue of ``x* x``.
    It consumes no randomness."""
    s = np.sqrt(hermitian_eigvals(x.conj().mT @ x)[..., :1, None])
    return x / np.where(s == 0.0, 1.0, s)


def random_density(
    algebra: BlockAlgebra, rng: Stream, repeat_chance: float = 0.0
) -> NormalFunctional:
    """Faithful state with eigenvalues well separated from the rank cutoff,
    the functional of :func:`random_density_matrix`; a state on a given
    support is :func:`density_on` its frames."""
    return NormalFunctional(algebra, random_density_matrix(algebra, rng, repeat_chance))


def random_density_matrix(
    algebra: BlockAlgebra, rng: Stream, repeat_chance: float = 0.0
) -> np.ndarray:
    """The density of :func:`random_density`, drawn as it draws it, without
    building its functional."""
    return unit_trace(random_positive(algebra, rng, repeat_chance=repeat_chance))


def density_on(rng: Stream, frames: Frames) -> NormalFunctional:
    """State supported exactly on the frames' projection."""
    return NormalFunctional(frames.algebra, unit_trace(positive_on(rng, frames)))


def unit_trace(d: np.ndarray) -> np.ndarray:
    """The density ``d`` scaled to unit trace; each matrix of a stack by its
    own trace."""
    return d / np.trace(d, axis1=-2, axis2=-1).real[..., None, None]


def p0_tangent(algebra: BlockAlgebra, rng: Stream, u: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """Random tangent at a point ``u`` of the bundle of partial isometries
    with source ``p0``: right support preserved, ``u* du`` anti-Hermitian."""
    z = random_element(algebra, rng) @ p0
    return z - u @ herm(u.conj().mT @ z)


#: Refusals that mean "this random draw hit a measure-zero degenerate
#: configuration; redraw" rather than "the identity failed".
_REDRAW = (NotPartiallyInvertible, AmbiguousCluster, NotInDomain, NotInOverlap)


#: How many draws :func:`sample_with_retry` makes before it gives up.
MAX_TRIES = 64


def sample_with_retry(draw):
    """Call ``draw`` until it returns, redrawing on degenerate-configuration
    refusals (rank and cluster guard bands, chart-domain misses); the draw
    closure consumes fresh randomness each attempt."""
    for _ in range(MAX_TRIES):
        try:
            return draw()
        except _REDRAW:
            continue
    raise NotPartiallyInvertible(
        f"sampler failed to produce an admissible configuration in {MAX_TRIES} draws"
    )


def redraw_failures(
    rng: Stream, draw: Callable[[Stream], tuple[list, np.ndarray]], retry: Callable
) -> list:
    """The stacks of each trial's first admissible draw.  ``draw(stream)``
    draws the stream's trials' stacks (arrays or frames) and returns them
    with a flag per trial from one domain test.  Attempt ``a`` draws the
    pending trials below ``(slot, a)`` of the next slot of ``rng``.
    ``retry`` (:func:`sample_with_retry`) gets one closure, which draws the
    pending trials, keeps those that pass and refuses while any remain: a
    trial draws at most as often as ``retry`` calls it."""
    slot, attempts = rng.slot(), itertools.count()
    pending, kept = np.arange(len(rng)), []

    def attempt() -> list:
        nonlocal pending
        stacks, admissible = draw(rng.below((*slot, next(attempts)), pending))
        kept.append((pending[admissible], [x[admissible] for x in stacks]))
        pending = pending[~admissible]
        if pending.size:
            raise NotInDomain(f"redraw: {pending.size} trials outside the domain")
        order = np.argsort(np.concatenate([trials for trials, _ in kept]))
        return [_joined(parts, order) for parts in zip(*(x for _, x in kept))]

    return retry(attempt)


def _joined(parts: Sequence, order: np.ndarray):
    """The stacks ``parts`` (arrays or frames) as one, in the given order."""
    if isinstance(parts[0], Frames):
        matrix = _joined([f.matrix for f in parts], order)
        return Frames(parts[0].algebra, matrix, _joined([f.ranks for f in parts], order))
    return np.concatenate(parts)[order]


def random_unit_vector(n: int, rng: Stream) -> np.ndarray:
    """Complex Gaussian vector scaled to unit norm, computed as
    ``numpy.linalg.norm`` computes it."""
    v = complex_normal(rng, (n,))
    re, im = v.real, v.imag
    return v / np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]
