"""Tests for the frame samplers: drawn projections keep their per-block
frames, and arrows and corner positives are built from them.  Given a
stream of trials, a sampler draws trial ``k``'s values from row ``k`` of
each slot, so a trial has the same bits in any stack, alone, beside any
other trials and however often the others redraw; a stacked redraw redraws
only the failing trials."""

import numpy as np
import pytest
import scipy.linalg

from wstargeo import BlockAlgebra, DEFAULT_TOL, frobenius, groupoids, linalg, poisson, sampling, suites
from wstargeo.algebra import frame_columns
from wstargeo.errors import NotPartiallyInvertible
from wstargeo.sampling import rng_for

M2 = BlockAlgebra((2,))
M23 = BlockAlgebra((2, 3))
ALGEBRAS = [M2, M23, BlockAlgebra((1, 2, 2)), BlockAlgebra((4,))]


def _family(algebra, rng):
    """The family of a one-trial stream, unstacked."""
    data = [x[0] for x in poisson.draw_family_data(algebra, rng)]
    return poisson.families_on(algebra, data, DEFAULT_TOL)[0]


def _blockwise_ranks(algebra, p):
    return tuple(int(round(np.trace(b).real)) for b in algebra.block_views(p))


def _draws(algebra, seed):
    """(source, target, arrow, corner positive) from both entry points, on
    random ranks including empty and full blocks."""
    rng = sampling.Stream((seed,), [0])
    f = sampling.random_frames(algebra, rng)
    g = sampling.equivalent_frames(rng, f)
    yield (
        f.projection[0],
        g.projection[0],
        sampling.isometry_between(rng, f, g)[0],
        sampling.positive_on(rng, f, 0.25, 3.0)[0],
    )
    p = sampling.random_projection(algebra, rng)[0]
    q = sampling.equivalent_frames(rng, sampling.frames_of(algebra, p)).projection[0]
    yield (
        p,
        q,
        sampling.partial_isometry_onto(algebra, rng, p, q)[0],
        sampling.corner_positive(algebra, rng, p, 0.25, 3.0)[0],
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
            rng = sampling.Stream((seed,), [0])
            f = sampling.random_frames(algebra, rng)[0]
            assert sum(f.ranks) > 0
            assert _blockwise_ranks(algebra, f.projection) == f.ranks
            for frame, n, r in zip(f.blocks, algebra.blocks, f.ranks):
                assert frame.shape == (n, r)
                assert frobenius(frame.conj().T @ frame - np.eye(r)) <= 1e-12
            assert sampling.equivalent_frames(rng, f)[0].ranks == f.ranks
            assert sampling.frames_of(algebra, f.projection).ranks == f.ranks
            if min(algebra.blocks) >= 2:
                inner = sampling.random_frames(algebra, rng, allow_zero=False, allow_full=False)[0]
                assert all(0 < r < n for r, n in zip(inner.ranks, algebra.blocks))
            p = sampling.random_projection(algebra, rng, ranks=f.ranks)[0]
            assert _blockwise_ranks(algebra, p) == f.ranks
            q = sampling.equivalent_frames(rng, sampling.frames_of(algebra, p)).projection[0]
            assert _blockwise_ranks(algebra, q) == f.ranks

    def test_rank_checks(self):
        rng = sampling.Stream((1,), [0])
        with pytest.raises(ValueError):
            sampling.random_frames(M23, rng, ranks=(3, 1))
        f = sampling.random_frames(M23, rng, ranks=(1, 1))
        g = sampling.random_frames(M23, rng, ranks=(1, 2))
        with pytest.raises(ValueError):
            sampling.isometry_between(rng, f, g)

    def test_full_rank_arrows_are_random(self):
        # A full block has the identity frame; the corner unitary must still
        # randomize the arrow there.
        full = sampling.random_frames(M2, sampling.Stream((0,), [0]), ranks=(2,))
        arrows = [sampling.isometry_between(sampling.Stream((s,), [0]), full, full)[0] for s in (1, 2)]
        assert frobenius(arrows[0] - arrows[1]) > 0.1
        one = M2.identity()
        arrows = [
            sampling.partial_isometry_onto(M2, sampling.Stream((s,), [0]), one, one)[0] for s in (1, 2)
        ]
        assert frobenius(arrows[0] - arrows[1]) > 0.1

    def test_samplers_read_no_projection_they_drew(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sampler diagonalised a projection")

        monkeypatch.setattr(sampling, "frames_of", refuse)
        rng = sampling.Stream((3,), [0])
        for tag in groupoids.GROUPOIDS:
            groupoids.composable_chain(tag, M23, rng, 3)
        poisson.draw_family_data(M23, rng)
        sampling.density_on(rng, sampling.random_frames(M23, rng))

    def test_complex_normal_is_one_interleaved_draw(self):
        z = sampling.complex_normal(sampling.Stream((4,), [0]), (3, 2), 0.5)[0]
        parts = np.random.default_rng([4, 0]).normal(0.0, 0.5, (1, 3, 2, 2))[0]
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


# The per-block samplers, as the reference for the slots and the values:
# each reads the slots of a one-trial stream in turn, block by block.


class _Slots:
    """The slots of the one-trial stream keyed ``key``: slot ``j`` is read
    from ``rng_for(*key, j)``, and ``read`` keeps the keys read."""

    def __init__(self, key: tuple):
        self.key, self.read = key, []

    def __call__(self) -> np.random.Generator:
        self.read.append((*self.key, len(self.read)))
        return rng_for(*self.read[-1])


def _block_gaussians(algebra, ref, scale=1.0) -> list:
    """Each block's complex Gaussian, from one slot of ``ref``."""
    sizes = [n * n for n in algebra.blocks]
    z = ref().normal(0.0, scale, (1, sum(sizes), 2)).view(complex)[0, :, 0]
    parts = np.split(z, np.cumsum(sizes)[:-1])
    return [part.reshape(n, n) for part, n in zip(parts, algebra.blocks)]


def _per_block_frames(algebra, ref, ranks=None):
    if ranks is None:
        m = len(algebra.blocks)
        draw = ref().integers([0] * (m + 1), [n + 1 for n in algebra.blocks] + [m], size=(1, m + 1))[0]
        ranks = draw[:m].tolist()
        if sum(ranks) == 0:
            ranks[int(draw[m])] = 1
    return [
        np.zeros((n, 0)) if r == 0
        else np.eye(n) if r == n
        else linalg.phase_fixed_q(g[:, :r])
        for n, r, g in zip(algebra.blocks, ranks, _block_gaussians(algebra, ref))
    ]


def _corner_haar(algebra, ref, ranks) -> list:
    return [linalg.phase_fixed_q(g[:r, :r]) for g, r in zip(_block_gaussians(algebra, ref), ranks)]


def _per_block_positive(algebra, ref, frames):
    ws = _corner_haar(algebra, ref, [f.shape[1] for f in frames])
    vals = ref().uniform(0.5, 2.0, (1, algebra.dim))[0]
    mats = []
    for s, f, w in zip(algebra.slices, frames, ws):
        fw = f @ w
        mats.append((fw * vals[s.start : s.start + f.shape[1]]) @ fw.conj().T)
    return mats


def _assembled(algebra, mats):
    out = algebra.zero()
    for s, m in zip(algebra.slices, mats):
        out[s, s] = m
    return out


class TestOneQRPerDraw:
    """Each sampler makes at most one Haar QR and assembles no blocks, and
    draws what the per-block samplers draw from the same slots, to the same
    values up to rounding."""

    @pytest.fixture
    def taken(self, monkeypatch):
        """The keys of the slot generators the stream makes."""
        keys = []
        monkeypatch.setattr(sampling, "rng_for", lambda *key: keys.append(key) or rng_for(*key))
        return keys

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
    def test_against_per_block_draws(self, qr_calls, taken, algebra):
        for key in range(12):
            rng, ref = sampling.Stream((70, key), [0]), _Slots((70, key))
            taken.clear()

            def drawn(value, want):
                # at most one QR, the same slots, the per-block values
                assert len(qr_calls) <= 1
                qr_calls.clear()
                assert taken == ref.read
                assert frobenius(value - want) <= 1e-13

            def check_frames(f, blocks):
                f = f[0]
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
            gb = _per_block_frames(algebra, ref, f[0].ranks)
            check_frames(g, gb)
            u = sampling.isometry_between(rng, f, g)
            ws = _corner_haar(algebra, ref, f[0].ranks)
            drawn(u[0], _assembled(algebra, [t @ w @ s.conj().T for s, t, w in zip(fb, gb, ws)]))
            h = sampling.positive_on(rng, f)
            drawn(h[0], _assembled(algebra, _per_block_positive(algebra, ref, fb)))
            w = sampling.random_unitary(algebra, rng)
            drawn(w[0], _assembled(algebra, [linalg.phase_fixed_q(b) for b in _block_gaussians(algebra, ref)]))
            x = sampling.random_element(algebra, rng)
            drawn(x[0], _assembled(algebra, _block_gaussians(algebra, ref, 0.5**0.5)))
            for y in (u[0], h[0], w[0], x[0]):
                # exactly zero off the blocks
                assert np.array_equal(y, _assembled(algebra, algebra.block_views(y)))

class TestFamilyExponentials:
    @pytest.mark.parametrize("algebra", [M2, M23], ids=lambda a: str(a.blocks))
    def test_curves_match_expm(self, algebra):
        expm = scipy.linalg.expm
        for seed in range(4):
            fam = _family(algebra, sampling.Stream((60, seed), [0]))
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
        fam = _family(M23, sampling.Stream((61,), [0]))
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
        data = poisson.draw_family_data(M23, sampling.Stream((61,), range(6)))
        [stacked] = poisson.families_on(M23, data, DEFAULT_TOL)
        poisson.exactness_residual(stacked, 1e-4, DEFAULT_TOL)
        assert len(times) == 30




def _frames(f) -> list:
    return [f.matrix, np.asarray(f.ranks), f.projection]


def _arrows(algebra, rng) -> list:
    f = sampling.random_frames(algebra, rng)
    g = sampling.equivalent_frames(rng, f)
    return [
        *_frames(f), *_frames(g),
        sampling.isometry_between(rng, f, g),
        sampling.positive_on(rng, f, 0.25, 3.0),
        sampling.density_on(rng, f).density,
    ]


def _corners(algebra, rng) -> list:
    ranks = tuple((n + 1) // 2 for n in algebra.blocks)
    p = sampling.random_projection(algebra, rng, ranks=ranks)
    q = sampling.random_projection(algebra, rng, ranks=ranks)
    u = sampling.partial_isometry_onto(algebra, rng, p, q)
    return [
        p, q, u,
        sampling.corner_positive(algebra, rng, p),
        sampling.corner_hermitian(algebra, rng, p),
        sampling.corner_antihermitian(algebra, rng, p),
        sampling.p0_tangent(algebra, rng, u, p),
    ]


#: Each sampler, drawn from a stream: the arrays it returns.
SAMPLERS = {
    "complex_normal": lambda alg, rng: [sampling.complex_normal(rng, (3, 2), 0.5)],
    "random_unit_vector": lambda alg, rng: [sampling.random_unit_vector(4, rng)],
    "random_element": lambda alg, rng: [sampling.random_element(alg, rng)],
    "random_hermitian": lambda alg, rng: [sampling.random_hermitian(alg, rng)],
    "random_antihermitian": lambda alg, rng: [sampling.random_antihermitian(alg, rng)],
    "random_unitary": lambda alg, rng: [sampling.random_unitary(alg, rng)],
    "random_positive": lambda alg, rng: [sampling.random_positive(alg, rng)],
    "random_density-repeated": lambda alg, rng: [sampling.random_density(alg, rng, 0.5).density],
    "planted_positive": lambda alg, rng: list(sampling.planted_positive(alg, rng, (0.5, 1.0, 2.0))),
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
    "frame_chain": lambda alg, rng: [f.matrix for f in sampling.frame_chain(alg, rng, 2)],
    "arrows": _arrows,
    "corners": _corners,
}

CONTRACT_ALGEBRAS = [BlockAlgebra(b) for b in [(2, 3), (1, 2, 2), (4, 4, 4, 4)]]
STACK_ALGEBRAS = CONTRACT_ALGEBRAS + [BlockAlgebra((12,))]
KEY = (77, 3)


def _stream(trials, path=()) -> sampling.Stream:
    return sampling.Stream(KEY, trials, path)


def _entries(arrays, k: int) -> list[bytes]:
    """Entry ``k`` of each array, as bytes."""
    return [np.asarray(a)[k].tobytes() for a in arrays]


@pytest.mark.parametrize("algebra", CONTRACT_ALGEBRAS, ids=lambda a: str(a.blocks))
@pytest.mark.parametrize("name", sorted(SAMPLERS))
class TestStreamContract:
    """Trial ``k``'s draw is a function of its key alone: of the stream's
    key, the path of each slot and ``k``."""

    def test_width_independence(self, name, algebra):
        # The same in stacks of 1, 8 and 100 trials.
        draw = SAMPLERS[name]
        eight, hundred = draw(algebra, _stream(range(8))), draw(algebra, _stream(range(100)))
        assert all(np.shape(a)[0] == 100 for a in hundred)
        for k in (0, 3, 7):
            alone = draw(algebra, _stream([k]))
            assert _entries(eight, k) == _entries(hundred, k) == _entries(alone, 0), k

    def test_subset_independence(self, name, algebra):
        # The same when other trials are left out, or split off into a part
        # of the stream; the part draws below a slot of the parent, so what
        # the parent draws next does not depend on who took part.
        draw = SAMPLERS[name]
        whole, some = draw(algebra, _stream(range(8))), draw(algebra, _stream([1, 4, 6]))
        for i, k in enumerate([1, 4, 6]):
            assert _entries(some, i) == _entries(whole, k), k
        parts, after = [], []
        for members in ([0, 4, 5], [4, 7]):
            rng = _stream(range(8))
            parts.append(draw(algebra, rng.part(np.isin(np.arange(8), members))))
            after.append(draw(algebra, rng))
        alone = draw(algebra, _stream([4], (0,)))
        assert _entries(parts[0], 1) == _entries(parts[1], 0) == _entries(alone, 0)
        for k in range(8):
            assert _entries(after[0], k) == _entries(after[1], k), k

    def test_redraw_independence(self, name, algebra):
        # A trial admissible at attempt 0 keeps its bits while trial 5
        # redraws 3 times, and so does what the stream draws next; the
        # redrawn trial has the bits of its attempt 3 drawn alone.
        draw = SAMPLERS[name]

        def run(redraws: int):
            rng, attempts = _stream(range(8)), []

            def attempt(stream):
                attempts.append(stream.trials.tolist())
                admissible = (stream.trials != 5) | (len(attempts) > redraws)
                return draw(algebra, stream), admissible

            data = sampling.redraw_failures(rng, attempt, sampling.sample_with_retry)
            return data, draw(algebra, rng), attempts

        plain, plain_after, once = run(0)
        redrawn, redrawn_after, attempts = run(3)
        assert once == [list(range(8))]
        assert attempts == [list(range(8)), [5], [5], [5]]
        for k in range(8):
            assert _entries(redrawn_after, k) == _entries(plain_after, k), k
            if k != 5:
                assert _entries(redrawn, k) == _entries(plain, k), k
        assert _entries(redrawn, 5) == _entries(draw(algebra, _stream([5], (0, 3))), 0)


@pytest.mark.parametrize("algebra", CONTRACT_ALGEBRAS, ids=lambda a: str(a.blocks))
@pytest.mark.parametrize("draw", [
    suites._draw_isomorphisms, suites._draw_invariance, suites._draw_conditional_expectation,
], ids=lambda d: d.__name__)
def test_coefficient_width(monkeypatch, draw, algebra):
    # The rows that combine a stabilizer or centralizer basis draw its
    # coefficients at the width sum n_b^2 whatever the stack, and each trial
    # reads the first as many as its basis has: the same slots, of the same
    # widths, for a stack of 1, 8 or 100 trials.
    takes, real = [], sampling.Stream.take

    def take(self, method, *args, shape=()):
        takes.append((self.path, self._slots, method, shape))
        return real(self, method, *args, shape=shape)

    monkeypatch.setattr(sampling.Stream, "take", take)
    width = sum(n * n for n in algebra.blocks)
    slots = []
    for trials in ([5], range(8), range(100)):
        takes.clear()
        draw(suites.RowCtx(algebra, len(trials), 1, 0, DEFAULT_TOL), _stream(trials))
        slots.append(list(takes))
    assert slots[0] == slots[1] == slots[2]
    assert [s for s in slots[0] if s[3][:1] == (width,)]


class TestStackedRedraws:
    """A domain test runs once on the stack of the pending trials, and only
    the trials that fail it draw again: attempt ``a`` below the slot the
    redraw takes."""

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
        p, q = suites._draw_equivalent_in_domain(M23, _stream(range(6)), DEFAULT_TOL, 2)
        # one closure for the row; the second attempt tests trial 3 alone
        assert counts == {"calls": 1, "attempts": 2}
        assert tested == [6, 1]
        for k in range(6):
            # trial k alone, at its attempt below the stream's first slot
            alone = _stream([k], (0, 1 if k == 3 else 0))
            want = [f.projection[0] for f in sampling.frame_chain(M23, alone, 1, allow_zero=False)]
            assert p[k].tobytes() == want[0].tobytes() and q[k].tobytes() == want[1].tobytes()

    def test_a_trial_that_always_fails_is_refused(self, monkeypatch):
        tested, counts = self._failing(monkeypatch, trial=3, times=10**6)
        with pytest.raises(NotPartiallyInvertible):
            suites._draw_equivalent_in_domain(M23, _stream(range(6)), DEFAULT_TOL, 2)
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
        rng = _stream(range(12))
        f = sampling.random_frames(algebra, rng)
        prescribed = sampling.random_frames(algebra, rng, ranks=tuple(n // 2 for n in algebra.blocks))
        attempts = []

        def draw(stream):
            # every other trial fails its first attempt
            frames, admissible = sampling.random_frames(algebra, stream), np.ones(len(stream), dtype=bool)
            if not attempts:
                admissible[::2] = False
            attempts.append(len(stream))
            return [frames], admissible

        (joined,) = sampling.redraw_failures(rng, draw, sampling.sample_with_retry)
        assert attempts == [12, 6]
        for frames in [
            f,
            sampling.random_frames(algebra, sampling.Stream((75,), [0]))[0],
            sampling.equivalent_frames(rng, f),
            sampling.frames_of(algebra, prescribed.projection),
            sampling.frames_of(algebra, prescribed.projection[0]),
            f[np.arange(12) % 3 == 0],
            joined,
        ]:
            assert _zero_off_frame_columns(frames)

    @pytest.mark.parametrize("algebra", STACK_ALGEBRAS, ids=lambda a: str(a.blocks))
    def test_corner_unitaries_keep_frame_and_other_columns_apart(self, monkeypatch, algebra):
        rng = _stream(range(12))
        f = sampling.random_frames(algebra, rng)
        g = sampling.equivalent_frames(rng, f)
        made, real = [], sampling.phase_fixed_q

        def spy(g):
            made.append(real(g))
            return made[-1]

        monkeypatch.setattr(sampling, "phase_fixed_q", spy)
        sampling.isometry_between(rng, f, g)
        sampling.positive_on(rng, f)
        framed = frame_columns(algebra, f.ranks)
        across = framed[:, :, None] != framed[:, None, :]
        assert len(made) == 2
        for w in made:
            assert not np.where(across, w, 0.0).any()


def _empty() -> sampling.Stream:
    return sampling.Stream(KEY, [])


def _empty_frames(algebra):
    return sampling.random_frames(algebra, _empty())


#: Each sampler on an empty stream, and the shape it returns.
EMPTY_DRAWS = {
    "complex_normal": (lambda alg: sampling.complex_normal(_empty(), (3, 2)), (0, 3, 2)),
    "random_element": (lambda alg: sampling.random_element(alg, _empty()), (0, 5, 5)),
    "random_hermitian": (lambda alg: sampling.random_hermitian(alg, _empty()), (0, 5, 5)),
    "random_antihermitian": (lambda alg: sampling.random_antihermitian(alg, _empty()), (0, 5, 5)),
    "random_unitary": (lambda alg: sampling.random_unitary(alg, _empty()), (0, 5, 5)),
    "random_positive": (lambda alg: sampling.random_positive(alg, _empty(), 0.5), (0, 5, 5)),
    "planted_positive": (lambda alg: sampling.planted_positive(alg, _empty(), (1.0, 2.0))[0], (0, 5, 5)),
    "planted_positive-labels": (
        lambda alg: sampling.planted_positive(alg, _empty(), (1.0, 2.0))[1], (0, 5)
    ),
    "random_frames": (lambda alg: _empty_frames(alg).matrix, (0, 5, 5)),
    "random_frames-ranks": (lambda alg: _empty_frames(alg).ranks, (0, 2)),
    "random_frames-prescribed": (
        lambda alg: sampling.random_frames(alg, _empty(), ranks=(1, 2)).ranks, (0, 2)
    ),
    "equivalent_frames": (
        lambda alg: sampling.equivalent_frames(_empty(), _empty_frames(alg)).matrix, (0, 5, 5)
    ),
    "isometry_between": (
        lambda alg: sampling.isometry_between(_empty(), _empty_frames(alg), _empty_frames(alg)),
        (0, 5, 5),
    ),
    "positive_on": (lambda alg: sampling.positive_on(_empty(), _empty_frames(alg)), (0, 5, 5)),
    "frame_chain": (lambda alg: sampling.frame_chain(alg, _empty(), 2)[-1].matrix, (0, 5, 5)),
    "random_projection": (lambda alg: sampling.random_projection(alg, _empty()), (0, 5, 5)),
    "partial_isometry_onto": (
        lambda alg: sampling.partial_isometry_onto(alg, _empty(), *[_empty_frames(alg).projection] * 2),
        (0, 5, 5),
    ),
    "corner_positive": (
        lambda alg: sampling.corner_positive(alg, _empty(), _empty_frames(alg).projection), (0, 5, 5)
    ),
    "corner_hermitian": (
        lambda alg: sampling.corner_hermitian(alg, _empty(), np.zeros((0, 5, 5))), (0, 5, 5)
    ),
    "corner_antihermitian": (
        lambda alg: sampling.corner_antihermitian(alg, _empty(), np.zeros((0, 5, 5))), (0, 5, 5)
    ),
    "random_density": (lambda alg: sampling.random_density(alg, _empty()).density, (0, 5, 5)),
    "random_density_matrix": (lambda alg: sampling.random_density_matrix(alg, _empty()), (0, 5, 5)),
    "density_on": (lambda alg: sampling.density_on(_empty(), _empty_frames(alg)).density, (0, 5, 5)),
    "p0_tangent": (
        lambda alg: sampling.p0_tangent(alg, _empty(), np.zeros((0, 5, 5)), np.zeros((0, 5, 5))),
        (0, 5, 5),
    ),
    "random_unit_vector": (lambda alg: sampling.random_unit_vector(4, _empty()), (0, 4)),
    "redraw_failures": (
        lambda alg: sampling.redraw_failures(
            _empty(),
            lambda stream: ([sampling.random_element(alg, stream)], np.ones(len(stream), dtype=bool)),
            sampling.sample_with_retry,
        )[0],
        (0, 5, 5),
    ),
}


class TestEmptyStacks:
    @pytest.mark.parametrize("name", sorted(EMPTY_DRAWS))
    def test_an_empty_stream_gives_an_empty_stack(self, name):
        draw, shape = EMPTY_DRAWS[name]
        assert np.shape(draw(M23)) == shape
