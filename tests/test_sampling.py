"""Tests for the frame samplers: drawn projections keep their per-block
frames, and arrows and corner positives are built from them.  Given one
generator per trial, a sampler returns the stack of its one-generator calls,
bit for bit, and a stacked redraw redraws only the failing trials."""

import numpy as np
import pytest
import scipy.linalg

from wstargeo import BlockAlgebra, DEFAULT_TOL, frobenius, groupoids, linalg, poisson, sampling, suites
from wstargeo.algebra import frame_columns
from wstargeo.errors import NotPartiallyInvertible

M2 = BlockAlgebra((2,))
M23 = BlockAlgebra((2, 3))
ALGEBRAS = [M2, M23, BlockAlgebra((1, 2, 2)), BlockAlgebra((4,))]


def _family(algebra, rng):
    return poisson.families_on(algebra, poisson.draw_family_data(algebra, rng), DEFAULT_TOL)[0]


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

        monkeypatch.setattr(sampling, "frames_of", refuse)
        rng = sampling.rng_for(3)
        for tag in groupoids.GROUPOIDS:
            groupoids.composable_chain(tag, M23, rng, 3)
        poisson.draw_family_data(M23, rng)
        sampling.density_on(rng, sampling.random_frames(M23, rng))

    def test_complex_normal_is_one_interleaved_draw(self):
        z = sampling.complex_normal(sampling.rng_for(4), (3, 2), 0.5)
        parts = np.random.default_rng([4]).normal(0.0, 0.5, (3, 2, 2))
        assert z.shape == (3, 2)
        assert np.array_equal(z.real, parts[..., 0])
        assert np.array_equal(z.imag, parts[..., 1])


class TestRngFor:
    @pytest.mark.parametrize(
        "key", [(0,), (2**32,), (2**40 + 5,), (2**64 + 1,), (7, 0, 2**32, 2**64 + 1)], ids=str
    )
    def test_stream_of_the_integer_list(self, key):
        want = np.random.default_rng(list(key)).bit_generator.state
        assert sampling.rng_for(*key).bit_generator.state == want

    def test_negative_key_raises(self):
        with pytest.raises(ValueError):
            sampling.rng_for(1, -1)


# The per-block samplers, as the reference for the stream and the values:
# one Haar QR per block, drawn block by block.


def _haar(rng, n):
    return linalg.phase_fixed_q(sampling.complex_normal(rng, (n, n)))


def _per_block_frames(algebra, rng, ranks=None):
    if ranks is None:
        ranks = [int(rng.integers(0, b + 1)) for b in algebra.blocks]
        if sum(ranks) == 0:
            ranks[int(rng.integers(0, len(algebra.blocks)))] = 1
    return [
        np.zeros((n, 0)) if r == 0
        else np.eye(n) if r == n
        else linalg.phase_fixed_q(sampling.complex_normal(rng, (n, r)))
        for n, r in zip(algebra.blocks, ranks)
    ]


def _per_block_positive(rng, frames):
    mats = []
    for f in frames:
        fw = f @ _haar(rng, f.shape[1])
        vals = rng.uniform(0.5, 2.0, f.shape[1])
        mats.append((fw * vals) @ fw.conj().T)
    return mats


def _assembled(algebra, mats):
    out = algebra.zero()
    for s, m in zip(algebra.slices, mats):
        out[s, s] = m
    return out


class TestOneQRPerDraw:
    """Each sampler makes at most one Haar QR and assembles no blocks, and
    draws what the per-block samplers drew, in the same order, to the same
    values up to rounding."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        real = sampling.phase_fixed_q

        def spy(g):
            calls.append(g.shape)
            return real(g)

        def refuse(self, mats):
            raise AssertionError("a sampler assembled blocks")

        monkeypatch.setattr(sampling, "phase_fixed_q", spy)
        monkeypatch.setattr(BlockAlgebra, "embed_blocks", refuse)
        return calls

    @pytest.mark.parametrize(
        "algebra", [M23, BlockAlgebra((1, 2, 2)), BlockAlgebra((4, 4, 4, 4))], ids=lambda a: str(a.blocks)
    )
    def test_against_per_block_draws(self, qr_calls, algebra):
        for key in range(12):
            rng, ref = sampling.rng_for(70, key), sampling.rng_for(70, key)

            def drawn(value, want):
                # at most one QR, the replayed stream, the per-block values
                assert len(qr_calls) <= 1
                qr_calls.clear()
                assert rng.bit_generator.state == ref.bit_generator.state
                assert frobenius(value - want) <= 1e-13

            def check_frames(f, blocks):
                off = f.matrix.copy()
                for s, r in zip(algebra.slices, f.ranks):
                    off[s, s.start : s.start + r] = 0.0
                assert not off.any()
                assert f.ranks == tuple(b.shape[1] for b in blocks)
                for got, want in zip(f.blocks, blocks):
                    drawn(got, want)

            f = sampling.random_frames(algebra, rng)
            fb = _per_block_frames(algebra, ref)
            check_frames(f, fb)
            g = sampling.equivalent_frames(rng, f)
            gb = _per_block_frames(algebra, ref, f.ranks)
            check_frames(g, gb)
            u = sampling.isometry_between(rng, f, g)
            drawn(u, _assembled(algebra, [t @ _haar(ref, s.shape[1]) @ s.conj().T for s, t in zip(fb, gb)]))
            h = sampling.positive_on(rng, f)
            drawn(h, _assembled(algebra, _per_block_positive(ref, fb)))
            w = sampling.random_unitary(algebra, rng)
            drawn(w, _assembled(algebra, [_haar(ref, n) for n in algebra.blocks]))
            x = sampling.random_element(algebra, rng)
            drawn(x, _assembled(algebra, [sampling.complex_normal(ref, (n, n), 0.5**0.5) for n in algebra.blocks]))
            for y in (u, h, w, x):
                # exactly zero off the blocks
                assert np.array_equal(y, _assembled(algebra, algebra.block_views(y)))


class TestFamilyExponentials:
    @pytest.mark.parametrize("algebra", [M2, M23], ids=lambda a: str(a.blocks))
    def test_curves_match_expm(self, algebra):
        expm = scipy.linalg.expm
        for seed in range(4):
            fam = _family(algebra, sampling.rng_for(60, seed))
            for t in (1e-3, -1e-3, 0.3, -0.3):
                e_h2 = expm(t * fam.h2)
                refs = (
                    (fam.u1_at(t), expm(t * fam.a1) @ fam.u1 @ expm(t * fam.b1)),
                    (fam.u2_at(t), expm(t * fam.a2) @ fam.u2 @ expm(t * fam.b2)),
                    (fam.xi2_at(t), e_h2 @ fam.xi2 @ e_h2),
                )
                for got, ref in refs:
                    assert frobenius(got - ref) <= 1e-13

    def test_each_point_evaluated_once(self, monkeypatch):
        fam = _family(M23, sampling.rng_for(61))
        times = []
        real = poisson.ComposableFamily._exp
        monkeypatch.setattr(
            poisson.ComposableFamily, "_exp", lambda self, name, t: times.append(t) or real(self, name, t)
        )
        # the base itself at t = 0
        base = (fam.u1, fam.u2, fam.xi2)
        assert all(a is b for a, b in zip((fam.u1_at(0.0), fam.u2_at(0.0), fam.xi2_at(0.0)), base))
        fam.gamma1_at(0.0), fam.gamma2_at(0.0), fam.product_at(0.0)
        assert times == []
        for t in (1e-3, -1e-3):
            point = (fam.u1_at(t), fam.u2_at(t), fam.xi2_at(t))
            fam.gamma1_at(t), fam.gamma2_at(t), fam.product_at(t)
            assert all(a is b for a, b in zip(point, (fam.u1_at(t), fam.u2_at(t), fam.xi2_at(t))))
            assert not any(x.flags.writeable for x in point)
        # one exponential per generator and time
        assert sorted(times) == sorted([1e-3] * 5 + [-1e-3] * 5)
        poisson.exactness_residual(fam, 1e-4, DEFAULT_TOL)
        assert len(times) == 20
        # and per stack of trials, not per trial
        data = poisson.draw_family_data(M23, [sampling.rng_for(61, k) for k in range(6)])
        [stacked] = poisson.families_on(M23, data, DEFAULT_TOL)
        poisson.exactness_residual(stacked, 1e-4, DEFAULT_TOL)
        assert len(times) == 30


def _frames(f) -> list:
    return [f.matrix, np.asarray(f.ranks), f.projection]


def _arrows(algebra, rng) -> list:
    f = sampling.random_frames(algebra, rng)
    u = sampling.isometry_between(rng, f, sampling.equivalent_frames(rng, f))
    return [*_frames(f), u, sampling.positive_on(rng, f, 0.25, 3.0)]


#: Each sampler, drawn from one generator or from one per trial.
STACKED_SAMPLERS = {
    "random_frames": lambda alg, rng: _frames(sampling.random_frames(alg, rng)),
    "random_frames-no-zero": lambda alg, rng: _frames(
        sampling.random_frames(alg, rng, allow_zero=False)
    ),
    "random_frames-inner": lambda alg, rng: _frames(
        sampling.random_frames(alg, rng, allow_zero=False, allow_full=min(alg.blocks) < 2)
    ),
    "random_frames-prescribed": lambda alg, rng: _frames(
        sampling.random_frames(alg, rng, ranks=tuple(n // 2 for n in alg.blocks))
    ),
    "isometry_between-positive_on": _arrows,
    "random_positive": lambda alg, rng: [sampling.random_positive(alg, rng, repeat_chance=0.5)],
    "random_element": lambda alg, rng: [sampling.random_element(alg, rng)],
}

STACK_ALGEBRAS = [BlockAlgebra(b) for b in [(2, 3), (1, 2, 2), (12,), (4, 4, 4, 4)]]


def _generators(seed: int, count: int) -> list:
    return [sampling.rng_for(seed, k) for k in range(count)]


class TestStackedSamplers:
    @pytest.mark.parametrize("algebra", STACK_ALGEBRAS, ids=lambda a: str(a.blocks))
    @pytest.mark.parametrize("name", sorted(STACKED_SAMPLERS))
    def test_a_stack_is_the_stack_of_one_generator_calls(self, name, algebra):
        draw = STACKED_SAMPLERS[name]
        rngs = _generators(71, 12)
        stacked = draw(algebra, rngs)
        for k, rng in enumerate(_generators(71, 12)):
            alone = draw(algebra, rng)
            for got, want in zip(stacked, alone, strict=True):
                assert got.shape[0] == 12 and got[k].shape == np.shape(want)
                assert got[k].tobytes() == np.asarray(want).tobytes(), (name, k)
            # each generator left where its own call leaves it
            assert rng.bit_generator.state == rngs[k].bit_generator.state, (name, k)
        if name == "isometry_between-positive_on":
            assert len({tuple(r) for r in stacked[1].tolist()}) > 1

    @pytest.mark.parametrize("algebra", STACK_ALGEBRAS, ids=lambda a: str(a.blocks))
    def test_a_row_of_ranks_per_trial(self, algebra):
        ranks = sampling.random_frames(algebra, _generators(72, 12)).ranks
        rngs = _generators(73, 12)
        stacked = _frames(sampling.random_frames(algebra, rngs, ranks=ranks))
        for k, rng in enumerate(_generators(73, 12)):
            alone = _frames(sampling.random_frames(algebra, rng, ranks=tuple(ranks[k].tolist())))
            for got, want in zip(stacked, alone, strict=True):
                assert got[k].tobytes() == np.asarray(want).tobytes(), k
            assert rng.bit_generator.state == rngs[k].bit_generator.state, k


class TestStackedRedraws:
    """A domain test runs once on the stack of the pending trials, and only
    the trials that fail it draw again, each from its own generator."""

    def _failing(self, monkeypatch, trial: int, times: int):
        """Makes ``trial`` fail its chart-domain test ``times`` times, the
        other trials passing theirs at the first attempt; returns the number
        of trials tested at each test, and the counts of ``_retry`` calls and
        of attempts."""
        real, tested, counts = suites.chart_domain_member, [], {"calls": 0, "attempts": 0}

        def member(p, q, tol):
            inside = np.array(real(p, q, tol))
            tested.append(len(inside))
            if len(tested) <= times:
                # the trial's place among the trials still pending
                inside[trial if len(tested) == 1 else 0] = False
            return inside

        retry = suites._retry

        def counted(draw, *args):
            counts["calls"] += 1

            def attempt():
                counts["attempts"] += 1
                return draw()

            return retry(attempt, *args)

        monkeypatch.setattr(suites, "chart_domain_member", member)
        monkeypatch.setattr(suites, "_retry", counted)
        return tested, counts

    def test_only_the_failing_trial_redraws(self, monkeypatch):
        tested, counts = self._failing(monkeypatch, trial=3, times=1)
        rngs = _generators(74, 6)
        p, q = suites._draw_equivalent_in_domain(M23, rngs, DEFAULT_TOL, 2)
        # one closure for the row; the second attempt tests trial 3 alone
        assert counts == {"calls": 1, "attempts": 2}
        assert tested == [6, 1]
        for k, rng in enumerate(_generators(74, 6)):
            for _ in range(2 if k == 3 else 1):
                want = [f.projection for f in sampling.frame_chain(M23, rng, 1, allow_zero=False)]
            assert p[k].tobytes() == want[0].tobytes() and q[k].tobytes() == want[1].tobytes()
            assert rng.bit_generator.state == rngs[k].bit_generator.state, k

    def test_a_trial_that_always_fails_is_refused(self, monkeypatch):
        tested, counts = self._failing(monkeypatch, trial=3, times=10**6)
        with pytest.raises(NotPartiallyInvertible):
            suites._draw_equivalent_in_domain(M23, _generators(74, 6), DEFAULT_TOL, 2)
        assert counts == {"calls": 1, "attempts": 64}
        assert tested == [6] + [1] * 63


def _zero_off_frame_columns(f) -> bool:
    """Whether the frames' matrix is exactly zero outside its frame columns."""
    framed = frame_columns(f.algebra, f.ranks)[..., None, :]
    return not np.where(framed, 0.0, f.matrix).any()


class TestFrameColumns:
    """The unmasked frame products rest on two exact zeros: every frames
    matrix vanishes outside its frame columns, and a corner unitary between
    frame and non-frame columns."""

    @pytest.mark.parametrize("algebra", STACK_ALGEBRAS, ids=lambda a: str(a.blocks))
    def test_every_frames_is_zero_off_its_columns(self, algebra):
        rngs = _generators(75, 12)
        f = sampling.random_frames(algebra, rngs)
        prescribed = sampling.random_frames(algebra, rngs, ranks=tuple(n // 2 for n in algebra.blocks))
        attempts = []

        def draw(gens):
            # every other trial fails its first attempt
            frames, admissible = sampling.random_frames(algebra, gens), np.ones(len(gens), dtype=bool)
            if not attempts:
                admissible[::2] = False
            attempts.append(len(gens))
            return [frames], admissible

        (joined,) = sampling.redraw_failures(rngs, draw, sampling.sample_with_retry)
        assert attempts == [12, 6]
        for frames in [
            f,
            sampling.random_frames(algebra, sampling.rng_for(75)),
            sampling.equivalent_frames(rngs, f),
            sampling.frames_of(algebra, prescribed.projection),
            sampling.frames_of(algebra, prescribed.projection[0]),
            f[np.arange(12) % 3 == 0],
            joined,
        ]:
            assert _zero_off_frame_columns(frames)

    @pytest.mark.parametrize("algebra", STACK_ALGEBRAS, ids=lambda a: str(a.blocks))
    def test_corner_unitaries_keep_frame_and_other_columns_apart(self, monkeypatch, algebra):
        rngs = _generators(76, 12)
        f = sampling.random_frames(algebra, rngs)
        g = sampling.equivalent_frames(rngs, f)
        made, real = [], sampling.phase_fixed_q

        def spy(g):
            made.append(real(g))
            return made[-1]

        monkeypatch.setattr(sampling, "phase_fixed_q", spy)
        sampling.isometry_between(rngs, f, g)
        sampling.positive_on(rngs, f)
        framed = frame_columns(algebra, f.ranks)
        across = framed[:, :, None] != framed[:, None, :]
        assert len(made) == 2
        for w in made:
            assert not np.where(across, w, 0.0).any()


def _empty_frames(algebra):
    return sampling.random_frames(algebra, [])


#: Each sampler on an empty list of generators, and the shape it returns.
EMPTY_DRAWS = {
    "complex_normal": (lambda alg: sampling.complex_normal([], (3, 2)), (0, 3, 2)),
    "random_element": (lambda alg: sampling.random_element(alg, []), (0, 5, 5)),
    "random_hermitian": (lambda alg: sampling.random_hermitian(alg, []), (0, 5, 5)),
    "random_antihermitian": (lambda alg: sampling.random_antihermitian(alg, []), (0, 5, 5)),
    "random_unitary": (lambda alg: sampling.random_unitary(alg, []), (0, 5, 5)),
    "random_positive": (lambda alg: sampling.random_positive(alg, [], 0.5), (0, 5, 5)),
    "planted_positive": (lambda alg: sampling.planted_positive(alg, [], (1.0, 2.0))[0], (0, 5, 5)),
    "planted_positive-labels": (lambda alg: sampling.planted_positive(alg, [], (1.0, 2.0))[1], (0, 5)),
    "random_frames": (lambda alg: _empty_frames(alg).matrix, (0, 5, 5)),
    "random_frames-ranks": (lambda alg: _empty_frames(alg).ranks, (0, 2)),
    "random_frames-prescribed": (lambda alg: sampling.random_frames(alg, [], ranks=(1, 2)).ranks, (0, 2)),
    "equivalent_frames": (lambda alg: sampling.equivalent_frames([], _empty_frames(alg)).matrix, (0, 5, 5)),
    "isometry_between": (
        lambda alg: sampling.isometry_between([], _empty_frames(alg), _empty_frames(alg)), (0, 5, 5)
    ),
    "positive_on": (lambda alg: sampling.positive_on([], _empty_frames(alg)), (0, 5, 5)),
    "frame_chain": (lambda alg: sampling.frame_chain(alg, [], 2)[-1].matrix, (0, 5, 5)),
    "random_projection": (lambda alg: sampling.random_projection(alg, []), (0, 5, 5)),
    "partial_isometry_onto": (
        lambda alg: sampling.partial_isometry_onto(alg, [], *[_empty_frames(alg).projection] * 2),
        (0, 5, 5),
    ),
    "corner_positive": (
        lambda alg: sampling.corner_positive(alg, [], _empty_frames(alg).projection), (0, 5, 5)
    ),
    "corner_hermitian": (lambda alg: sampling.corner_hermitian(alg, [], np.zeros((0, 5, 5))), (0, 5, 5)),
    "corner_antihermitian": (
        lambda alg: sampling.corner_antihermitian(alg, [], np.zeros((0, 5, 5))), (0, 5, 5)
    ),
    "random_density": (lambda alg: sampling.random_density(alg, []).density, (0, 5, 5)),
    "random_density_matrix": (lambda alg: sampling.random_density_matrix(alg, []), (0, 5, 5)),
    "density_on": (lambda alg: sampling.density_on([], _empty_frames(alg)).density, (0, 5, 5)),
    "p0_tangent": (
        lambda alg: sampling.p0_tangent(alg, [], np.zeros((0, 5, 5)), np.zeros((0, 5, 5))), (0, 5, 5)
    ),
    "random_unit_vector": (lambda alg: sampling.random_unit_vector(4, []), (0, 4)),
    "redraw_failures": (
        lambda alg: sampling.redraw_failures(
            [], lambda gens: ([sampling.random_element(alg, gens)], np.ones(len(gens), dtype=bool)),
            sampling.sample_with_retry,
        )[0],
        (0, 5, 5),
    ),
}


class TestEmptyStacks:
    @pytest.mark.parametrize("name", sorted(EMPTY_DRAWS))
    def test_no_generators_give_an_empty_stack(self, name):
        draw, shape = EMPTY_DRAWS[name]
        assert np.shape(draw(M23)) == shape
