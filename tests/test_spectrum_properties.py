"""Property tests of a functional's kept blockwise spectrum against a
decomposition of the whole density.

Hypothesis draws block shapes (1x1 blocks included) and, per block, a
spectrum from a grid with repeats and zeros, so densities have repeated
eigenvalues, zero blocks, or vanish altogether.  What the program reads
off its one blockwise decomposition -- the block values and the one
cutoff, rank and support, ``d^{1/2}``, the orbit invariant and the
stabilizer -- is compared with ``numpy.linalg.eigh`` of the whole density
and with the planted multiplicities.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wstargeo import sampling
from wstargeo.algebra import (
    BlockAlgebra,
    NormalFunctional,
    density_spectrum,
    orbit_invariant,
    stabilizer_lie_algebra,
)
from wstargeo.linalg import DEFAULT_TOL, frobenius, realified_rank

#: Planted eigenvalues: distinct points are far apart relative to the rank
#: cutoff and the clustering threshold (both 1e-9 relative), and 0 plants
#: a kernel.  Hypothesis leans towards the first entry, so it is not 0.
GRID = (1.0, 0.5, 2.0, 0.0)


@st.composite
def planted(draw):
    """``(blocks, per-block planted values, seed)``; every value is zero
    when the draw asks for the zero density."""
    blocks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    zero = draw(st.sampled_from((False,) * 7 + (True,)))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    values = [
        scale * np.array(draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n)))
        for n in blocks
    ]
    if zero:
        values = [0.0 * v for v in values]
    return tuple(blocks), values, draw(st.integers(0, 2**32 - 1))


def _density(algebra, values, seed):
    rng = sampling.Stream((seed,), [0])
    mats = []
    for n, w in zip(algebra.blocks, values):
        v = sampling.random_unitary(BlockAlgebra((n,)), rng)[0]
        mats.append((v * w) @ v.conj().T)
    d = algebra.embed_blocks(mats)
    return (d + d.conj().T) / 2.0


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(planted())
def test_kept_spectrum_matches_the_whole_density(case):
    blocks, values, seed = case
    algebra = BlockAlgebra(blocks)
    d = _density(algebra, values, seed)
    phi = NormalFunctional(algebra, d)
    spectrum = density_spectrum(phi, DEFAULT_TOL)
    w, v = np.linalg.eigh(d)
    w, v = w[::-1], v[:, ::-1]
    scale = max(float(w[0]), 0.0)
    atol = 1e-12 * max(scale, 1e-300)

    # block values, cutoff, rank and support
    merged = np.sort(np.concatenate([b for _, b, _ in spectrum.blocks]))[::-1]
    assert np.allclose(merged, w, rtol=0.0, atol=atol)
    assert spectrum.cutoff == DEFAULT_TOL.rank_rel_tol * max(float(merged[0]), 0.0)
    keep = w > DEFAULT_TOL.rank_rel_tol * scale
    planted_rank = sum(int(np.count_nonzero(b > 0)) for b in values)
    assert sum(spectrum.ranks) == int(np.count_nonzero(keep)) == planted_rank
    support = v[:, keep] @ v[:, keep].conj().T
    assert frobenius(spectrum.support - support) <= 1e-10

    # d^{1/2} and the orbit invariant
    root = spectrum.power(0.5)
    assert frobenius(root @ root - d) <= 1e-10 * max(scale, 1e-300)
    invariant = orbit_invariant(phi, DEFAULT_TOL)
    for got, want in zip(invariant, values):
        want = np.sort(want[want > 0])[::-1]
        assert len(got) == len(want)
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)
    assert np.allclose(
        sorted((x for b in invariant for x in b), reverse=True), w[keep], rtol=1e-10, atol=0.0
    )

    # the stabilizer: one full corner per positive cluster
    stab = stabilizer_lie_algebra(phi, DEFAULT_TOL)
    squares = sum(
        int(np.count_nonzero(b == x)) ** 2 for b in values for x in set(b.tolist()) if x > 0
    )
    assert stab.dimension == realified_rank(stab.basis) == squares
