"""Tests for the frame samplers: drawn projections keep their per-block
frames, and arrows and corner positives are built from them."""

import numpy as np
import pytest
import scipy.linalg

from wstargeo import BlockAlgebra, DEFAULT_TOL, frobenius, groupoids, poisson, sampling
from wstargeo.poisson import sample_family

M2 = BlockAlgebra((2,))
M23 = BlockAlgebra((2, 3))
ALGEBRAS = [M2, M23, BlockAlgebra((1, 2, 2)), BlockAlgebra((4,))]


def _blockwise_ranks(algebra, p):
    return tuple(int(round(np.trace(b).real)) for b in algebra.block_views(p))


def _draws(algebra, seed):
    """(source, target, arrow, corner positive) from both entry points, on
    random ranks including empty and full blocks."""
    rng = sampling.rng_for(seed)
    f = sampling.random_frames(algebra, rng)
    g = sampling.equivalent_frames(rng, f)
    yield (
        f.projection,
        g.projection,
        sampling.isometry_between(rng, f, g),
        sampling.positive_on(rng, f, 0.25, 3.0),
    )
    p = sampling.random_projection(algebra, rng)
    q = sampling.equivalent_frames(rng, sampling.frames_of(algebra, p)).projection
    yield (
        p,
        q,
        sampling.partial_isometry_onto(algebra, rng, p, q),
        sampling.corner_positive(algebra, rng, p, 0.25, 3.0),
    )


class TestFrameSamplers:
    @pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: str(a.blocks))
    def test_arrows_and_corner_positives(self, algebra):
        for seed in range(12):
            for p, q, u, h in _draws(algebra, seed):
                assert frobenius(u.conj().T @ u - p) <= 1e-12
                assert frobenius(u @ u.conj().T - q) <= 1e-12
                assert algebra.contains(u) and algebra.contains(h)
                # supported exactly on p, with its spectrum there in [lo, hi]
                assert frobenius(h - p @ h @ p) <= 1e-12
                assert frobenius(h - h.conj().T) <= 1e-12
                w = np.linalg.eigvalsh(h)[::-1]
                r = int(round(np.trace(p).real))
                assert np.all(w[:r] >= 0.25 - 1e-12) and np.all(w[:r] <= 3.0 + 1e-12)
                assert np.all(np.abs(w[r:]) <= 1e-12)

    @pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: str(a.blocks))
    def test_blockwise_ranks(self, algebra):
        for seed in range(12):
            rng = sampling.rng_for(seed)
            f = sampling.random_frames(algebra, rng)
            assert sum(f.ranks) > 0
            assert _blockwise_ranks(algebra, f.projection) == f.ranks
            for frame, n, r in zip(f.blocks, algebra.blocks, f.ranks):
                assert frame.shape == (n, r)
                assert frobenius(frame.conj().T @ frame - np.eye(r)) <= 1e-12
            assert sampling.equivalent_frames(rng, f).ranks == f.ranks
            assert sampling.frames_of(algebra, f.projection).ranks == f.ranks
            if min(algebra.blocks) >= 2:
                inner = sampling.random_frames(algebra, rng, allow_zero=False, allow_full=False)
                assert all(0 < r < n for r, n in zip(inner.ranks, algebra.blocks))
            p = sampling.random_projection(algebra, rng, ranks=f.ranks)
            assert _blockwise_ranks(algebra, p) == f.ranks
            q = sampling.equivalent_frames(rng, sampling.frames_of(algebra, p)).projection
            assert _blockwise_ranks(algebra, q) == f.ranks

    def test_rank_checks(self):
        rng = sampling.rng_for(1)
        with pytest.raises(ValueError):
            sampling.random_frames(M23, rng, ranks=(3, 1))
        f = sampling.random_frames(M23, rng, ranks=(1, 1))
        g = sampling.random_frames(M23, rng, ranks=(1, 2))
        with pytest.raises(ValueError):
            sampling.isometry_between(rng, f, g)

    def test_full_rank_arrows_are_random(self):
        # A full block has the identity frame; the corner unitary must still
        # randomize the arrow there.
        full = sampling.random_frames(M2, sampling.rng_for(0), ranks=(2,))
        arrows = [sampling.isometry_between(sampling.rng_for(s), full, full) for s in (1, 2)]
        assert frobenius(arrows[0] - arrows[1]) > 0.1
        one = M2.identity()
        arrows = [
            sampling.partial_isometry_onto(M2, sampling.rng_for(s), one, one) for s in (1, 2)
        ]
        assert frobenius(arrows[0] - arrows[1]) > 0.1

    def test_samplers_read_no_projection_they_drew(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sampler diagonalised a projection")

        monkeypatch.setattr(sampling, "hermitian_eig", refuse)
        rng = sampling.rng_for(3)
        for tag in groupoids.GROUPOIDS:
            groupoids.composable_chain(tag, M23, rng, 3)
        poisson.sample_family_base(M23, rng)
        sampling.density_on(rng, sampling.random_frames(M23, rng))

    def test_complex_normal_is_one_interleaved_draw(self):
        z = sampling.complex_normal(sampling.rng_for(4), (3, 2), 0.5)
        parts = np.random.default_rng([4]).normal(0.0, 0.5, (3, 2, 2))
        assert z.shape == (3, 2)
        assert np.array_equal(z.real, parts[..., 0])
        assert np.array_equal(z.imag, parts[..., 1])


class TestFamilyExponentials:
    @pytest.mark.parametrize("algebra", [M2, M23], ids=lambda a: str(a.blocks))
    def test_curves_match_expm(self, algebra):
        expm = scipy.linalg.expm
        for seed in range(4):
            fam = sample_family(algebra, sampling.rng_for(60, seed), DEFAULT_TOL)
            for t in (1e-3, -1e-3, 0.3, -0.3):
                e_h2 = expm(t * fam.h2)
                refs = (
                    (fam.u1_at(t), expm(t * fam.a1) @ fam.u1 @ expm(t * fam.b1)),
                    (fam.u2_at(t), expm(t * fam.a2) @ fam.u2 @ expm(t * fam.b2)),
                    (fam.xi2_at(t), e_h2 @ fam.xi2 @ e_h2),
                )
                for got, ref in refs:
                    assert frobenius(got - ref) <= 1e-13
