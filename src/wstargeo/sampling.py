"""Deterministic samplers for structured random inputs.

Every verification trial draws from a generator seeded by ``(seed, trial
index, ...)``, so suites are reproducible and trial-parallelizable.  All
samplers return elements of the given block algebra (block-diagonal ambient
matrices); unitaries are Haar-distributed (:func:`haar_unitary`), and partial
isometries with prescribed source/target pairs match spectral bases through a
random corner unitary.
"""
from __future__ import annotations

import numpy as np

from .algebra import BlockAlgebra, NormalFunctional
from .errors import NotInDomain, NotInOverlap, NotPartiallyInvertible
from .linalg import (
    antiherm,
    herm,
    hermitian_eig,
    phase_fixed_q,
    projection_rank,
    singular_values,
)


def rng_for(*key: int) -> np.random.Generator:
    """Generator for a (seed, trial, ...) key."""
    return np.random.default_rng(list(key))


def random_element(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian algebra element."""
    mats = []
    for b in algebra.blocks:
        g = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        mats.append(scale * g / np.sqrt(2.0))
    return algebra.embed_blocks(mats)


def random_hermitian(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return herm(random_element(algebra, rng, scale))


def random_antihermitian(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return antiherm(random_element(algebra, rng, scale))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n-by-n unitary: QR of a complex Gaussian with the
    phases of the triangular factor's diagonal moved into the unitary."""
    return phase_fixed_q(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_unitary(algebra: BlockAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary of the algebra, blockwise."""
    return algebra.embed_blocks([haar_unitary(rng, b) for b in algebra.blocks])


def random_positive(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    eig_low: float = 0.5,
    eig_high: float = 2.0,
    repeat_chance: float = 0.0,
) -> np.ndarray:
    """Strictly positive element with eigenvalues drawn from
    ``[eig_low, eig_high]`` (well separated from any rank cutoff).

    With probability ``repeat_chance`` per block, a repeated eigenvalue is
    forced, to exercise degenerate spectra.
    """
    v = random_unitary(algebra, rng)
    vals = rng.uniform(eig_low, eig_high, algebra.dim)
    offset = 0
    for b in algebra.blocks:
        if b >= 2 and rng.uniform() < repeat_chance:
            i, j = rng.choice(b, size=2, replace=False)
            vals[offset + j] = vals[offset + i]
        offset += b
    return (v * vals) @ v.conj().T


def random_projection(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    ranks: tuple[int, ...] | None = None,
    allow_zero: bool = True,
    allow_full: bool = True,
) -> np.ndarray:
    """Random orthogonal projection with prescribed or random blockwise ranks."""
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
    v = random_unitary(algebra, rng)
    vals = np.zeros(algebra.dim)
    offset = 0
    for b, r in zip(algebra.blocks, ranks):
        if r < 0 or r > b:
            raise ValueError("rank exceeds block size")
        vals[offset : offset + r] = 1.0
        offset += b
    return (v * vals) @ v.conj().T


def equivalent_projection(
    algebra: BlockAlgebra, rng: np.random.Generator, p: np.ndarray
) -> np.ndarray:
    """Random projection with the same blockwise ranks as ``p``."""
    ranks = tuple(projection_rank(b) for b in algebra.block_views(p))
    return random_projection(algebra, rng, ranks=ranks)


def partial_isometry_onto(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    source: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Partial isometry ``u`` with ``u* u = source`` and ``u u* = target``
    (blockwise equal ranks assumed), randomized by a corner unitary."""
    mats = []
    for bs, bt in zip(algebra.block_views(source), algebra.block_views(target)):
        r = projection_rank(bs)
        _, vs = hermitian_eig(bs)
        _, vt = hermitian_eig(bt)
        if r == 0:
            mats.append(np.zeros_like(bs))
            continue
        q = haar_unitary(rng, r)
        mats.append(vt[:, :r] @ q @ vs[:, :r].conj().T)
    return algebra.embed_blocks(mats)


def corner_positive(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    p: np.ndarray,
    eig_low: float = 0.5,
    eig_high: float = 2.0,
) -> np.ndarray:
    """Positive element supported exactly on the projection ``p``, with
    eigenvalues in ``[eig_low, eig_high]`` on the support."""
    mats = []
    for bp in algebra.block_views(p):
        r = projection_rank(bp)
        n = bp.shape[0]
        if r == 0:
            mats.append(np.zeros((n, n), dtype=complex))
            continue
        _, v = hermitian_eig(bp)
        q = haar_unitary(rng, r)
        vals = rng.uniform(eig_low, eig_high, r)
        core = (q * vals) @ q.conj().T
        mats.append(v[:, :r] @ core @ v[:, :r].conj().T)
    return algebra.embed_blocks(mats)


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
    normalize: bool = True,
    repeat_chance: float = 0.0,
) -> NormalFunctional:
    """Positive functional with prescribed support (faithful by default) and
    eigenvalues well separated from the rank cutoff."""
    if support is None:
        d = random_positive(algebra, rng, repeat_chance=repeat_chance)
    else:
        d = corner_positive(algebra, rng, support)
    if normalize:
        d = d / float(np.trace(d).real)
    return NormalFunctional(algebra, d)


def faithful_density(
    algebra: BlockAlgebra,
    rng: np.random.Generator,
    normalize: bool = True,
    repeat_chance: float = 0.0,
) -> NormalFunctional:
    return random_density(algebra, rng, support=None, normalize=normalize,
                          repeat_chance=repeat_chance)


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
    q0 = random_projection(algebra, rng, allow_zero=allow_zero)
    chain = [q0]
    for _ in range(length):
        chain.append(equivalent_projection(algebra, rng, q0))
    return chain


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
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)
