"""The API only the benchmark's tracer and checks still call, pinned bit for
bit to what the program runs in its place: ``groupoids.axiom_check`` (and
``AxiomReport``), ``standard.fiber_kernel_E`` and ``fiber_kernel_Eprime``, and
the samplers that take a projection, ``sampling.partial_isometry_onto`` and
``corner_positive``, which read its frames back with ``algebra.frames_of``.
No suite, other test or demo calls them (``test_reach.py`` keeps it so);
this module goes when they do.
"""
import math

import numpy as np
import pytest

from wstargeo import BlockAlgebra, DEFAULT_TOL, frobenius, groupoids, sampling, standard
from wstargeo.algebra import frame_columns, frames_of
from wstargeo.errors import DegenerateBase, InvalidTrials
from wstargeo.groupoids import AxiomReport, axiom_check
from wstargeo.sampling import Stream, corner_positive, partial_isometry_onto
from wstargeo.standard import fiber_kernel_E, fiber_kernel_Eprime
from test_sampling import _zero_off_frame_columns, check_arrow_and_positive

M2, M23 = BlockAlgebra((2,)), BlockAlgebra((2, 3))
ALGEBRAS = [M2, M23, BlockAlgebra((1, 2, 2)), BlockAlgebra((4,))]
#: frames_of is read also on many blocks and on one large block
FRAME_ALGEBRAS = ALGEBRAS + [BlockAlgebra((4, 4, 4, 4)), BlockAlgebra((12,))]


def _assert_frames_of(algebra, read, p):
    """``read`` holds orthonormal columns spanning the projection ``p`` (or
    each of a stack) and is exactly zero outside its frame columns."""
    gram = read.matrix.conj().mT @ read.matrix
    assert np.max(frobenius(gram - np.diag(frame_columns(algebra, read.ranks))), initial=0.0) <= 1e-12
    assert np.max(frobenius(read.projection - p), initial=0.0) <= 1e-12
    assert _zero_off_frame_columns(read)


@pytest.mark.parametrize("tag", sorted(groupoids.GROUPOIDS))
def test_axiom_check_is_the_worst_of_the_chain_laws(tag):
    report = axiom_check(tag, M23, 20, 5)
    chain = groupoids.composable_chain(tag, M23, Stream((5,), range(20)), 3)
    laws = groupoids.chain_law_residuals(tag, chain)
    assert (report.tag, report.trials, report.seed) == (tag, 20, 5)
    assert report.law_residuals == {law: float(np.max(values)) for law, values in laws.items()}
    for bad in [(tag, M23, 0, 1), ("nonsense", M23, 10, 1)]:
        with pytest.raises(InvalidTrials):
            axiom_check(*bad)


def test_nan_law_fails_axiom_check(monkeypatch):
    # The built-in max would drop a NaN that is not first.
    assert math.isnan(AxiomReport("pi", 2, 0, {"a": 1.0, "b": math.nan}).max_residual)
    real = groupoids.chain_law_residuals
    monkeypatch.setattr(groupoids, "chain_law_residuals", lambda *args: {
        law: np.where(np.arange(len(v)) == 3, math.nan, v) if law == "associativity" else v
        for law, v in real(*args).items()
    })
    report = axiom_check("pi", BlockAlgebra((2,)), 10, 0)
    assert math.isnan(report.max_residual)
    assert sum(math.isnan(v) for v in report.law_residuals.values()) == 1


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: str(a.blocks))
def test_fibre_kernels_are_the_pair_kernels(algebra):
    rng = Stream((40,), [0])
    # half of each block, rounded up: rank deficient on every block but a 1x1
    f = sampling.random_frames(algebra, rng, ranks=tuple((n + 1) // 2 for n in algebra.blocks))
    rank_deficient = sampling.isometry_between(rng, f, f) @ sampling.positive_on(rng, f)
    for g in (sampling.random_element(algebra, rng)[0], rank_deficient[0]):
        kernels = standard._pair_kernels(algebra, standard._pair_factors(algebra, g, DEFAULT_TOL))
        for kernel, want in zip((fiber_kernel_E, fiber_kernel_Eprime), kernels):
            assert np.array_equal(kernel(algebra, g, DEFAULT_TOL), want)
            with pytest.raises(DegenerateBase):
                kernel(algebra, np.zeros((algebra.dim, algebra.dim)), DEFAULT_TOL)


@pytest.mark.parametrize("algebra", FRAME_ALGEBRAS, ids=lambda a: str(a.blocks))
def test_frames_of_reads_a_drawn_projection(algebra):
    # One projection at a time, on random ranks including empty and full
    # blocks, and the identity.
    drawn = sampling.random_frames(algebra, Stream((41,), range(12)))
    for ranks, p in [*zip(drawn.ranks, drawn.projection), (algebra.blocks, algebra.identity())]:
        read = frames_of(algebra, p)
        assert read.ranks == tuple(ranks)
        _assert_frames_of(algebra, read, p)
    # A stack of equal ranks, with an empty block on (1, 2, 2), is read as
    # each of its projections alone.
    half = tuple(n // 2 for n in algebra.blocks)
    p = sampling.random_frames(algebra, Stream((42,), range(6)), ranks=half).projection
    read = frames_of(algebra, p)
    assert read.ranks == half
    _assert_frames_of(algebra, read, p)
    assert frames_of(algebra, p[4]).matrix.tobytes() == read.matrix[4].tobytes()
    assert frames_of(algebra, p[:0]).ranks == (0,) * len(half)
    assert len({tuple(r) for r in drawn.ranks}) > 1
    with pytest.raises(ValueError):
        frames_of(algebra, drawn.projection)


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: str(a.blocks))
def test_projection_samplers_are_the_frame_samplers(algebra):
    # One projection at a time, on random ranks including empty and full
    # blocks, and the identity.
    pairs = []
    for seed in range(12):
        rng = Stream((seed,), [0])
        p = sampling.random_projection(algebra, rng)[0]
        pairs.append((p, sampling.equivalent_frames(rng, frames_of(algebra, p)).projection[0]))
    pairs.append((algebra.identity(), algebra.identity()))
    for seed, (p, q) in enumerate(pairs):
        fp, fq = frames_of(algebra, p), frames_of(algebra, q)
        u = partial_isometry_onto(algebra, Stream((seed, 1), [0]), p, q)
        assert np.array_equal(u, sampling.isometry_between(Stream((seed, 1), [0]), fp, fq))
        h = corner_positive(algebra, Stream((seed, 2), [0]), p, 0.25, 3.0)
        assert np.array_equal(h, sampling.positive_on(Stream((seed, 2), [0]), fp, 0.25, 3.0))
        check_arrow_and_positive(algebra, p, q, u[0], h[0])
    # an arrow on the full identity is as random as any other
    assert frobenius(u[0] - partial_isometry_onto(algebra, Stream((13, 1), [0]), p, q)[0]) > 0.1


@pytest.mark.parametrize("draw", [
    lambda rng, p: corner_positive(M23, rng, p), lambda rng, p: partial_isometry_onto(M23, rng, p, p),
], ids=["corner_positive", "partial_isometry_onto"])
def test_an_empty_stream_gives_an_empty_stack(draw):
    rng = Stream((77, 3), [])
    assert draw(rng, sampling.random_frames(M23, rng).projection).shape == (0, 5, 5)
