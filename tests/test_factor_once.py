"""Each functional and each chart overlap is factored once.

A ``NormalFunctional`` keeps its polar decomposition, its spectra, its
eigenvalue clusters and each observable's differential, and ``sigma_p``
decides the chart domain from the SVD it inverts.  The count tests spy on
the two LAPACK entry points of ``linalg`` on ``2,3``; each bound sits well
below the count of code that decomposes again on every read (noted in each
test).  ``BlockAlgebra.contains`` is checked against the rule of two
Frobenius norms.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from wstargeo import cli, linalg, sampling, suites
from wstargeo.algebra import (
    BlockAlgebra,
    NormalFunctional,
    StabilizerData,
    _slot_masks,
    centralizer_basis,
    cluster_pattern,
    conditional_expectation,
    density_spectrum,
    functional_polar,
    functional_support,
    modular_flow,
    orbit_invariant,
    require_positive,
    stabilizer_lie_algebra,
)
from wstargeo.charts import chart_domain_member, chart_Theta, sigma_p
from wstargeo.groupoids import (
    chain_law_residuals,
    composable_chain,
    psi_intertwining_residual,
)
from wstargeo.errors import InvalidFamily, NotFaithful, NotPositive
from wstargeo.linalg import DEFAULT_TOL, frobenius, herm, polar_decompose, positive_spectrum
from wstargeo.poisson import (
    Observable,
    draw_family_data,
    families_on,
    leibniz_residual,
    poisson_map_residual,
)
from wstargeo.standard import iso_Phi, modular_Delta, std_unit, tomita_S

M23 = BlockAlgebra((2, 3))


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of ``_gesdd`` and ``_heevd`` calls, keyed by kernel name;
    ``gesdd-vectors`` counts the ``_gesdd`` calls with singular vectors."""
    calls = {"gesdd": 0, "gesdd-vectors": 0, "heevd": 0}
    real_gesdd, real_heevd = linalg._gesdd, linalg._heevd

    def gesdd(a, compute_uv):
        calls["gesdd"] += 1
        calls["gesdd-vectors"] += bool(compute_uv)
        return real_gesdd(a, compute_uv)

    def heevd(h, compute_v):
        calls["heevd"] += 1
        return real_heevd(h, compute_v)

    monkeypatch.setattr(linalg, "_gesdd", gesdd)
    monkeypatch.setattr(linalg, "_heevd", heevd)
    return calls


def _draw(make, tries: int = 64):
    """``make(rng)`` for the first of a fixed sequence of one-trial streams
    whose draw it accepts (returns not ``None``)."""
    for k in range(tries):
        out = make(sampling.Stream((2024, k), [0]))
        if out is not None:
            return out
    raise AssertionError("no accepted draw")


def _chart_pair(rng):
    fs = sampling.frame_chain(M23, rng, 1, allow_zero=False)
    p, q = (f.projection[0] for f in fs)
    return (p, q) if chart_domain_member(p, q, DEFAULT_TOL) else None


def _theta_input(rng):
    fs = sampling.frame_chain(M23, rng, 3, allow_zero=False)
    p, pt, l, r = (f.projection[0] for f in fs)
    if not (chart_domain_member(p, l, DEFAULT_TOL) and chart_domain_member(pt, r, DEFAULT_TOL)):
        return None
    x = sampling.isometry_between(rng, fs[3], fs[2]) @ sampling.positive_on(rng, fs[3])
    return p, pt, x[0]


def _ten_trials_repeated(ctx: suites.RowCtx) -> sampling.Stream:
    """The row's stream, trial ``k`` reading the rows of trial ``k mod 10``."""
    return sampling.Stream((ctx.seed, ctx.subindex), np.arange(ctx.trials) % 10)


def _functional(seed: int = 0) -> NormalFunctional:
    rng = sampling.Stream((2025, seed), [0])
    return sampling.density_on(rng, sampling.random_frames(M23, rng, allow_zero=False))[0]


class TestCounts:
    def test_predual_chain_laws(self, lapack_calls):
        # 24 if every structure map takes its own polar decomposition.
        chain = composable_chain("predual", M23, sampling.Stream((2026, 0), [0]), 3)
        lapack_calls.update(gesdd=0, heevd=0)
        chain_law_residuals("predual", chain, DEFAULT_TOL)
        assert lapack_calls["gesdd"] <= 10

    @pytest.mark.parametrize("tag, before", [("g", 29), ("standard", 18)])
    def test_g_and_standard_chain_laws(self, lapack_calls, tag, before):
        # ``before`` if each structure map factors the arrows it reads
        # afresh: g_source and g_target take the supports of an arrow, and
        # std_mul the polar decompositions of both factors, on every read.
        # Within one call each distinct arrow is factored once.
        chain = composable_chain(tag, M23, sampling.Stream((2026, 0), [0]), 3)
        lapack_calls.update(gesdd=0, heevd=0)
        chain_law_residuals(tag, chain, DEFAULT_TOL)
        assert 0 < lapack_calls["gesdd"] <= 10 < before

    def test_law_rows_factor_per_row_not_per_trial(self, lapack_calls):
        # Each groupoid-axioms row checks all its trials' data with one call
        # on their stack, so its SVDs do not grow with the trials.  Nor do
        # its Hermitian eigendecompositions: the isomorphisms row, whose draw
        # took the stabilizer of each trial's base density in turn, takes
        # them on the stack, and draws their coefficients in a second pass.
        rows = list(enumerate(suites._suite("groupoid-axioms")))
        assert len(rows) == 8
        counts = []
        for trials in (10, 40):
            per_row = {}
            for subindex, (name, tolerance, fn) in rows:
                lapack_calls.update(gesdd=0, heevd=0)
                assert fn(suites.RowCtx(M23, trials, 1, subindex, DEFAULT_TOL)) <= tolerance
                per_row[name] = dict(lapack_calls)
            counts.append(per_row)
        for _, (name, _, _) in rows:
            small, large = counts[0][name], counts[1][name]
            assert (small["gesdd"], small["heevd"]) == (large["gesdd"], large["heevd"]), name
        for kernel in ("gesdd", "heevd"):
            assert sum(row[kernel] for row in counts[0].values()) > 0

    def test_isomorphisms_check_factors_each_arrow_once(self, lapack_calls):
        # 5 when phi_intertwining_residual factored the one fa = iso_Phi(a)
        # twice: std_mul and iso_Phi_inv each took its polar decomposition.
        subindex, (_, _, row) = next(
            (i, r) for i, r in enumerate(suites._suite("groupoid-axioms")) if r[0] == "isomorphisms"
        )
        ctx = suites.RowCtx(M23, 10, 1, subindex, DEFAULT_TOL)
        data = row.draw(ctx, ctx.stream())
        lapack_calls.update(gesdd=0, heevd=0, **{"gesdd-vectors": 0})
        row.check(ctx, *data)
        assert lapack_calls["gesdd"] == lapack_calls["gesdd-vectors"] == 4

    @pytest.mark.parametrize(
        "row, vectors, values", [("round-trip", 14, 3), ("cocycle", 9, 10), ("theta", 7, 1)],
        ids=["round-trip-14", "cocycle-9", "theta-7"],
    )
    def test_chart_rows_factor_per_row_not_per_trial(self, lapack_calls, monkeypatch, row, vectors, values):
        # Each random charts row checks all its trials' data with one call
        # per map on their stack, so its SVDs with vectors do not grow with
        # the trials (320, 110 and 70 at 10 trials with one call per trial).
        # The round trip factors each chart leg of x once, the Theta middles
        # of its partial isometry and of jay(x) read those legs, and the two
        # inverse charts recover the legs from the same coordinates once (32
        # when each chart factored its own legs).  The cocycle takes the
        # overlaps phi_p_inv(p, y) and phi_p_inv(p1, y1), each read by two of
        # its maps, once (11 when each map factored its own).
        # Nor do its value-only SVDs: the draws test their chart domains once
        # per pair on the stack of the pending trials, and redraw only the
        # trials that miss (30, 64 and 10 at 10 trials, and 120, 244 and 40
        # at 40, when each trial tested its own draw).  Trial k reads the
        # rows of trial k mod 10, so 40 trials make the redraws of 10.
        monkeypatch.setattr(suites.RowCtx, "stream", _ten_trials_repeated)
        subindex, (_, tolerance, fn) = next(
            (i, r) for i, r in enumerate(suites._suite("charts")) if r[0] == row
        )
        for trials in (10, 40):
            lapack_calls.update(gesdd=0, heevd=0, **{"gesdd-vectors": 0})
            assert fn(suites.RowCtx(M23, trials, 1, subindex, DEFAULT_TOL)) <= tolerance
            assert lapack_calls["gesdd-vectors"] == vectors
            assert lapack_calls["gesdd"] - lapack_calls["gesdd-vectors"] == values

    @pytest.mark.parametrize("suite", ["multiplicativity", "exactness"])
    def test_family_rows_factor_per_row_not_per_trial(self, lapack_calls, suite):
        # Each multiplicativity and exactness row builds its families once,
        # on the stack of all its trials, and checks them with one call, so
        # none of its SVDs (the generators' norms, the polar factors of
        # std_mul) or Hermitian eigendecompositions (the base's support,
        # each generator's spectrum) grow with the trials: at 10 trials,
        # one call per trial made 80 value-only SVDs and 20 eigendecompositions
        # in multiplicativity/residual.
        rows = list(enumerate(suites._suite(suite)))
        counts = []
        for trials in (10, 40):
            per_row = {}
            for subindex, (name, tolerance, fn) in rows:
                lapack_calls.update(gesdd=0, heevd=0, **{"gesdd-vectors": 0})
                assert fn(suites.RowCtx(M23, trials, 1, subindex, DEFAULT_TOL)) <= tolerance
                per_row[name] = dict(lapack_calls)
            counts.append(per_row)
        for _, (name, _, _) in rows:
            small, large = counts[0][name], counts[1][name]
            assert small == large, name
        assert sum(row["heevd"] for row in counts[0].values()) > 0

    def test_flow_rows_factor_per_row_not_per_trial(self, lapack_calls):
        # The flow-report group (its first row checks for all four),
        # orbit-form, tomita and group-law check all their trials' data with
        # one call per map on their stack, so neither their SVDs (the polar
        # factors of the flowed pair) nor their Hermitian eigendecompositions
        # (each density's spectrum, the flowed cone element's values) grow
        # with the trials: at 10 trials the flow report made 40 SVDs and 70
        # eigendecompositions with one call per trial, and makes 4 and 7.
        rows = list(enumerate(suites._suite("modular-flow")))[:7]
        counts = []
        for trials in (10, 40):
            per_row, shared = {}, {}
            for subindex, (name, tolerance, fn) in rows:
                lapack_calls.update(gesdd=0, heevd=0, **{"gesdd-vectors": 0})
                ctx = suites.RowCtx(M23, trials, 1, subindex, DEFAULT_TOL, shared)
                assert fn(ctx) <= tolerance
                per_row[name] = dict(lapack_calls)
            counts.append(per_row)
        assert [name for _, (name, _, _) in rows] == [
            "automorphism", "symplectic", "cone", "orbit-invariants",
            "orbit-form", "tomita", "group-law",
        ]
        for _, (name, _, _) in rows:
            small, large = counts[0][name], counts[1][name]
            assert (small["gesdd"], small["heevd"]) == (large["gesdd"], large["heevd"]), name
        assert counts[0]["automorphism"]["gesdd"] > 0
        assert all(counts[0][name]["heevd"] > 0 for name in ("automorphism", "tomita"))

    def test_poisson_rows_factor_per_row_not_per_trial(self, lapack_calls, monkeypatch):
        # The two poisson-map groups and kks/identity check all their
        # trials' data with one call per check on their stack, so neither
        # their SVDs (the unit-norm scaling of the observables' elements) nor
        # their Hermitian eigendecompositions (the canonical vector of each
        # density) grow with the trials, and neither do the functionals they
        # build: one per stack, one per central-difference stencil of a
        # basis element.  With one call per trial, the quadratic row built
        # E(gamma) and 2 * 13 functionals for its stencils per trial.  The
        # first row of a group builds them for the group (the vector group's
        # also the 4 of the commutant brackets), the rows after it none.
        built = []
        post_init = NormalFunctional.__post_init__

        def counted(phi):
            built.append(None)
            post_init(phi)

        monkeypatch.setattr(NormalFunctional, "__post_init__", counted)
        rows = [
            (suite, subindex, row)
            for suite in ("poisson-map", "kks")
            for subindex, row in enumerate(suites._suite(suite))
            if row[0] != "calibration"
        ]
        assert len(rows) == 6
        counts = []
        for trials in (10, 40):
            per_row, shared = {}, {}
            for suite, subindex, (name, tolerance, fn) in rows:
                lapack_calls.update(gesdd=0, heevd=0)
                built.clear()
                ctx = suites.RowCtx(M23, trials, 1, subindex, DEFAULT_TOL, shared.setdefault(suite, {}))
                assert fn(ctx) <= tolerance
                per_row[name] = (lapack_calls["gesdd"], lapack_calls["heevd"], len(built))
            counts.append(per_row)
        assert counts[0] == counts[1]
        assert counts[0]["quadratic"][2] == 1 + 13 + 4
        assert [counts[0][name][2] for name in ("leibniz", "field-morphism", "commutant")] == [0] * 3
        assert counts[0]["identity"][1] > 0

    def test_pattern_rows_factor_per_pattern_not_per_trial(self, lapack_calls, monkeypatch):
        # Trial k reads the rows of trial k mod 10, so 40 trials
        # repeat the eigenvalue-cluster patterns and null-space dimensions
        # of 10.  The rows below factor once per stack, whatever its
        # patterns (their first-trial oracles once per row), so they make as
        # many SVDs and Hermitian eigendecompositions at 40 trials as at 10;
        # one check per trial made four times as many.
        monkeypatch.setattr(suites.RowCtx, "stream", _ten_trials_repeated)
        rows = [
            (suite, subindex, row)
            for suite in ("degeneracy", "dual-pair", "fubini-study", "modular-flow")
            for subindex, row in enumerate(suites._suite(suite))
            if suite != "modular-flow" or row[0] in ("conditional-expectation", "dimensions")
        ]
        assert len(rows) == 12
        counts = []
        for trials in (10, 40):
            per_row, shared = {}, {}
            for suite, subindex, (name, tolerance, fn) in rows:
                lapack_calls.update(gesdd=0, heevd=0)
                shared_reports = shared.setdefault(suite, {})
                ctx = suites.RowCtx(M23, trials, 1, subindex, DEFAULT_TOL, shared_reports)
                assert fn(ctx) <= tolerance, name
                per_row[f"{suite}/{name}"] = (lapack_calls["gesdd"], lapack_calls["heevd"])
            counts.append(per_row)
        assert counts[0] == counts[1]
        for row in ("degeneracy/orbit-form-invariance", "degeneracy/radical-pairing",
                    "dual-pair/orthogonality", "modular-flow/conditional-expectation"):
            assert sum(counts[0][row]) > 0, row

    def test_families_on_one_base_take_its_support_once(self, lapack_calls):
        # Each family of one base took the support of xi2: 2 decompositions
        # for the two families of multiplicativity/residual.  Besides it,
        # the unit-norm scaling of each family's four generators takes one
        # value-only decomposition of x* x each.
        for directions in (1, 2):
            data = draw_family_data(M23, sampling.Stream((2027, directions), [0]), directions)
            lapack_calls.update(heevd=0, gesdd=0)
            families = families_on(M23, data, DEFAULT_TOL)
            assert len(families) == directions
            assert (lapack_calls["heevd"], lapack_calls["gesdd"]) == (1 + 4 * directions, 0)

    def test_families_after_the_first_check_their_generators(self):
        data = draw_family_data(M23, sampling.Stream((2027, 3), [0]), 2)
        data[-4] = 1j * data[-4]  # the second family's a1, now Hermitian
        with pytest.raises(InvalidFamily, match="a1 is not anti-Hermitian"):
            families_on(M23, data, DEFAULT_TOL)

    def test_psi_intertwining(self, lapack_calls):
        # 18 with one support of rho0 per gauge_iso_Psi and coadjoint_apply,
        # each decomposing both blocks; two functionals, one call per block
        # each.
        rng = sampling.Stream((2026, 1), [0])
        fs = sampling.frame_chain(M23, rng, 3, allow_zero=False)
        rho0 = sampling.density_on(rng, fs[0])[0]
        u, v, w = (sampling.isometry_between(rng, fs[0], f)[0] for f in fs[1:])
        lapack_calls.update(gesdd=0, heevd=0)
        assert psi_intertwining_residual(u, v, w, rho0, DEFAULT_TOL) <= 1e-10
        assert lapack_calls["heevd"] <= 2 * len(M23.blocks)

    def test_stabilizer_and_centralizer(self, lapack_calls):
        # 6 if each takes the positivity spectrum and the block spectra.
        phi = _functional()
        lapack_calls.update(gesdd=0, heevd=0)
        stabilizer_lie_algebra(phi, DEFAULT_TOL)
        centralizer_basis(phi, DEFAULT_TOL)
        assert lapack_calls["heevd"] <= 3

    def test_chart_theta(self, lapack_calls):
        # 12 with a domain test, an inverse and a polar per leg, twice.
        p, pt, x = _draw(_theta_input)
        lapack_calls.update(gesdd=0, heevd=0)
        chart_Theta(p, pt, x, DEFAULT_TOL)
        assert lapack_calls["gesdd"] <= 6

    def test_sigma_p(self, lapack_calls):
        # 2 with one SVD for the domain test and one for the inverse.
        p, q = _draw(_chart_pair)
        lapack_calls.update(gesdd=0, heevd=0)
        x = sigma_p(p, q, DEFAULT_TOL)
        assert lapack_calls["gesdd"] == 1
        assert frobenius((p @ q) @ x - p) <= 1e-10

    def test_orbit_invariant_reads_block_spectra(self, lapack_calls):
        # 3 if the whole density is decomposed for the positivity check and
        # each block again for the invariant; 4 if the invariant decomposes
        # its blocks afresh.  Both read the one kept call per block.
        phi = _functional(1)
        lapack_calls.update(gesdd=0, heevd=0)
        require_positive(phi, DEFAULT_TOL)
        orbit_invariant(phi, DEFAULT_TOL)
        assert lapack_calls["heevd"] == len(M23.blocks)


class TestDrawsFactorOncePerRow:
    @pytest.mark.parametrize("tag", ["predual", "coadjoint"])
    def test_a_chain_builds_one_functional_per_arrow(self, monkeypatch, tag):
        # One stacked functional per arrow of a 100-trial chain: 3, not 3
        # per trial and then 3 more for the stacks (each a membership check).
        built = []
        post_init = NormalFunctional.__post_init__
        monkeypatch.setattr(
            NormalFunctional, "__post_init__",
            lambda phi: built.append(phi.density.shape) or post_init(phi),
        )
        composable_chain(tag, M23, sampling.Stream((2030,), range(100)), 3)
        assert built == [(100, M23.dim, M23.dim)] * 3

    def test_the_isomorphisms_draw_builds_no_stabilizer_basis(self, monkeypatch):
        # The stabilizer direction is a combination read off the base
        # density's eigenvectors; the basis it combines is never built.
        def refuse(stab):
            raise AssertionError("the isomorphisms draw built a stabilizer basis")

        monkeypatch.setattr(StabilizerData, "basis", property(refuse))
        subindex = suites.suite_rows("groupoid-axioms").index("isomorphisms")
        ctx = suites.RowCtx(M23, 100, 1, subindex, DEFAULT_TOL)
        data = suites._draw_isomorphisms(ctx, ctx.stream())
        assert data[-1].shape == (100, M23.dim, M23.dim)

    def test_a_round_makes_few_haar_qrs_and_generators(self, monkeypatch):
        # A verify-all round on 2,3 at 100 trials: each sampler call factors
        # the layouts of all its trials with one Haar QR, so the QRs grow
        # with the rows, not with the trials (13,966 with one QR per draw of
        # each trial).  Each draw of a row takes one generator for all its
        # trials (3,500 generators a round with one per trial).
        qrs, keys = [], []
        real_qr, real_rng_for = sampling.phase_fixed_q, sampling.rng_for
        monkeypatch.setattr(sampling, "phase_fixed_q", lambda g: qrs.append(g.shape) or real_qr(g))
        monkeypatch.setattr(
            sampling, "rng_for", lambda *key: keys.append(key) or real_rng_for(*key)
        )
        for name in suites.SUITE_NAMES:
            assert all(r.passed for r in suites.run_suite(name, M23, 100, 1)), name
        assert 0 < len(qrs) < 1000
        assert all(shape[0] <= 100 for shape in qrs)
        assert 0 < len(keys) < 1000

    def test_a_round_makes_few_svds_with_vectors(self, lapack_calls):
        # A verify-all round on 2,3: each row factors its stacks, so the
        # count does not grow with the trials.  144 when the law rows and
        # the round trip factored an arrow or a chart leg on every read.
        for name in suites.SUITE_NAMES:
            assert all(r.passed for r in suites.run_suite(name, M23, 10, 1)), name
        assert lapack_calls["gesdd-vectors"] <= 95

    def test_each_row_makes_its_generators_whatever_its_trials(self, monkeypatch):
        # A row takes a generator per draw, not per trial, so it makes as
        # many at 40 trials as at 10.  Trial k reads the rows of trial
        # k mod 10, so 40 trials make the redraws of 10.
        made, real_rng_for = [], sampling.rng_for
        monkeypatch.setattr(sampling, "rng_for", lambda *key: made.append(key) or real_rng_for(*key))
        monkeypatch.setattr(suites.RowCtx, "stream", _ten_trials_repeated)
        counts = []
        for trials in (10, 40):
            per_row = {}
            for name in suites.SUITE_NAMES:
                shared = {}
                for subindex, (row, tolerance, fn) in enumerate(suites._suite(name)):
                    made.clear()
                    assert fn(suites.RowCtx(M23, trials, 1, subindex, DEFAULT_TOL, shared)) <= tolerance
                    per_row[f"{name}/{row}"] = len(made)
            counts.append(per_row)
        assert counts[0] == counts[1]
        assert sum(counts[0].values()) > 0


class TestOrbitCommand:
    @pytest.mark.parametrize("blocks", [(4, 4, 4, 4), (12,), (2, 3)])
    def test_one_decomposition_per_block(self, blocks, tmp_path, monkeypatch, capsys):
        # 9, 3 and 5 with one decomposition of the whole density, a
        # value-only pass per block for the invariant and one more pass per
        # block for the stabilizer's clusters.
        algebra = BlockAlgebra(blocks)
        d = sampling.random_density(algebra, sampling.Stream((2029, len(blocks)), [0])).density[0]
        entry = {"rows": algebra.dim, "cols": algebra.dim,
                 "re": d.real.ravel().tolist(), "im": d.imag.ravel().tolist()}
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"blocks": list(blocks), "matrices": {"d": entry}}))
        calls, real = [], linalg._heevd

        def heevd(h, compute_v):
            calls.append((h.shape, compute_v))
            return real(h, compute_v)

        monkeypatch.setattr(linalg, "_heevd", heevd)
        assert cli.main(["orbit", str(path)]) == 0
        assert capsys.readouterr().out.count("\n") == len(blocks) + 1
        assert calls == [((n, n), 1) for n in blocks]


class TestKeptValues:
    def test_caller_mutation_does_not_reach_the_functional(self):
        d = _functional(2).density.copy()
        phi = NormalFunctional(M23, d)
        u, mod = functional_polar(phi, DEFAULT_TOL)
        u_copy, h_copy = u.copy(), mod.density.copy()
        spectrum = density_spectrum(phi, DEFAULT_TOL)
        blocks = [(w.copy(), v.copy()) for _, w, v in spectrum.blocks]
        want = d.copy()
        d[0, 0] += 1.0
        d[3, 4] = 7.0
        assert np.array_equal(phi.density, want)
        u2, mod2 = functional_polar(phi, DEFAULT_TOL)
        assert u2 is u and mod2 is mod
        assert np.array_equal(u2, u_copy) and np.array_equal(mod2.density, h_copy)
        again = density_spectrum(phi, DEFAULT_TOL)
        assert again is spectrum
        for (_, w, v), (w_copy, v_copy) in zip(again.blocks, blocks):
            assert np.array_equal(w, w_copy) and np.array_equal(v, v_copy)

    def test_kept_arrays_are_read_only(self):
        phi = _functional(3)
        u, mod = functional_polar(phi, DEFAULT_TOL)
        spectrum = density_spectrum(phi, DEFAULT_TOL)
        kept = [
            phi.density, u, mod.density, functional_support(phi, DEFAULT_TOL),
            *(a for _, w, v in spectrum.blocks for a in (w, v)),
        ]
        for a in kept:
            with pytest.raises(ValueError):
                a[0] = 0.0
        for mask in (cluster_pattern(phi, DEFAULT_TOL), *(_slot_masks(phi, DEFAULT_TOL, k) for k in (0, 1))):
            with pytest.raises(ValueError):
                mask[0] = 0

    def test_a_part_of_a_stack_decomposes_nothing_again(self, lapack_calls):
        phi = NormalFunctional(M23, np.stack([_functional(k).density for k in range(4)]))
        cluster_pattern(phi, DEFAULT_TOL)
        lapack_calls.update(heevd=0)
        part = phi[np.array([False, True, False, True])]
        spectrum = density_spectrum(part, DEFAULT_TOL)
        assert cluster_pattern(part, DEFAULT_TOL).shape == (2, M23.dim)
        assert lapack_calls["heevd"] == 0
        alone = density_spectrum(NormalFunctional(M23, phi.density[3]), DEFAULT_TOL)
        for (_, w, v), (_, w1, v1) in zip(spectrum.blocks, alone.blocks):
            assert np.array_equal(w[1], w1) and np.array_equal(v[1], v1)
        assert not part.density.flags.writeable

    def test_kept_polar_equals_a_fresh_one(self):
        phi = NormalFunctional(M23, _functional(4).density @ np.diag([1, 1j, 1, -1, 1j]))
        u, mod = functional_polar(phi, DEFAULT_TOL)
        u_fresh, h_fresh = polar_decompose(phi.density, DEFAULT_TOL)
        assert np.array_equal(u, u_fresh)
        assert np.array_equal(mod.density, h_fresh)

    def test_each_profile_keeps_its_own(self):
        phi = _functional(5)
        loose = linalg.ToleranceProfile(rank_rel_tol=1e-6)
        assert functional_polar(phi, DEFAULT_TOL) is functional_polar(phi, DEFAULT_TOL)
        assert functional_polar(phi, loose) is not functional_polar(phi, DEFAULT_TOL)


def _reference_contains(algebra: BlockAlgebra, x, tol=DEFAULT_TOL) -> bool:
    """Membership as two Frobenius norms: off-block part against the bound."""
    x = np.asarray(x)
    if x.shape != (algebra.dim, algebra.dim):
        return False
    off = np.ones((algebra.dim, algebra.dim), dtype=bool)
    for s in algebra.slices:
        off[s, s] = False
    bound = tol.residual_tol * (1.0 + frobenius(x))
    return frobenius(x[off]) <= bound < math.inf


def _contains_cases() -> dict[str, tuple[np.ndarray, bool]]:
    """``name -> (x, whether x is a member of 2,3)``."""
    rng = sampling.Stream((31,), [0])
    member = M23.embed_blocks([sampling.complex_normal(rng, (n, n))[0] for n in M23.blocks])
    cases = {
        "member": (member, True),
        "identity": (M23.identity(), True),
        "zero": (np.zeros((M23.dim, M23.dim), complex), True),
        "real member": (member.real.copy(), True),
        "int member": (np.eye(5, dtype=int), True),
        "transposed member": (member.T, True),
        "wrong shape": (np.eye(4, dtype=complex), False),
    }
    for scale, is_member in ((0.5, True), (2.0, False)):
        for phase in (1.0, 1j):
            y = member.copy()
            y[1, 4] = scale * phase * DEFAULT_TOL.residual_tol * (1.0 + frobenius(member))
            cases[f"off-block {scale} x {phase}"] = (y, is_member)
            cases[f"off-block {scale} x {phase}, transposed"] = (y.T, is_member)
        y = member.real.copy()
        y[4, 1] = scale * DEFAULT_TOL.residual_tol * (1.0 + frobenius(member.real))
        cases[f"off-block {scale}, real"] = (y, is_member)
    for where, (i, j) in (("on-block", (0, 1)), ("off-block", (0, 3))):
        for name, bad in (
            ("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf),
            ("imaginary nan", complex(0.0, np.nan)), ("imaginary inf", complex(0.0, np.inf)),
        ):
            y = member.copy()
            y[i, j] = bad
            cases[f"{name} {where}"] = (y, False)
    return cases


_CASES = _contains_cases()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_contains_matches_the_two_norm_rule(name):
    x, is_member = _CASES[name]
    assert M23.contains(x) is is_member
    assert _reference_contains(M23, x) is is_member


def _flow(phi, tol):
    """The modular flow at one time; a positive density that is not faithful
    passes, since the flow decides positivity before faithfulness."""
    try:
        modular_flow(phi, 0.3, tol)
    except NotFaithful:
        pass


#: Every entry point that decides whether a functional is positive.
POSITIVITY_ENTRY_POINTS = {
    "density_spectrum": density_spectrum,
    "functional_support": functional_support,
    "orbit_invariant": orbit_invariant,
    "conditional_expectation": lambda phi, tol: conditional_expectation(phi, M23.identity(), tol),
    "std_unit": std_unit,
    "iso_Phi": lambda phi, tol: iso_Phi(M23.identity(), phi, tol),
    "tomita_S": lambda phi, tol: tomita_S(phi, M23.identity(), tol),
    "modular_Delta": lambda phi, tol: modular_Delta(phi, M23.identity(), 0.5, tol),
    "modular_flow": _flow,
}


class TestModularDataFromFunctional:
    """The modular data of a functional -- its support, d^{1/2}, S, Delta and
    the flow -- and every positivity check read one kept decomposition."""

    def test_one_decomposition(self, monkeypatch):
        # One decomposition with vectors per block of the density, none of
        # the whole density: no value-only spectrum for the positivity
        # checks, and no second decomposition for d^{1/2}, S, Delta, the
        # flow or the orbit invariant.
        phi = sampling.random_density(M23, sampling.Stream((2028,), [0]))[0]
        blocks = M23.block_views(herm(phi.density))
        calls, real = [], linalg._heevd

        def heevd(h, compute_v):
            calls.append(([np.array_equal(h, b) for b in blocks].index(True), compute_v))
            return real(h, compute_v)

        monkeypatch.setattr(linalg, "_heevd", heevd)
        g = sampling.random_element(M23, sampling.Stream((2028, 1), [0]))[0]
        require_positive(phi, DEFAULT_TOL)
        functional_support(phi, DEFAULT_TOL)
        std_unit(phi, DEFAULT_TOL)
        tomita_S(phi, g, DEFAULT_TOL)
        modular_Delta(phi, g, 0.5, DEFAULT_TOL)
        for t in (0.3, -1.7):
            modular_flow(phi, t, DEFAULT_TOL)(g)
        orbit_invariant(phi, DEFAULT_TOL)
        assert calls == [(0, 1), (1, 1)]

    @pytest.mark.parametrize(
        "name",
        ["positive", "rank one", "non-Hermitian", "negative", "large negative",
         "negative within tolerance", "negative past tolerance"],
    )
    def test_refuses_what_require_positive_refuses(self, name):
        rt = DEFAULT_TOL.residual_tol
        d = {
            "positive": _functional(7).density,
            "rank one": np.diag([1.0, 0, 0, 0, 0]),
            "non-Hermitian": np.diag([1.0, 1, 0, 0, 0]) + np.diag([1e-3, 0, 0, 0], k=1),
            "negative": np.diag([1.0, -0.5, 0.2, 0.3, 0]),
            "large negative": np.diag([0.5, 0, -3.0, 0, 0]),
            "negative within tolerance": np.diag([1.0, 0, -0.5 * rt, 0, 0]),
            "negative past tolerance": np.diag([1.0, 0, -2.0 * rt, 0, 0]),
        }[name]

        def refusal(check):
            # A fresh functional for each, so none reads what another kept.
            try:
                check(NormalFunctional(M23, d), DEFAULT_TOL)
            except NotPositive as exc:
                return type(exc)
            return None

        want = refusal(require_positive)
        assert (want is None) == (name in ("positive", "rank one", "negative within tolerance"))
        got = {entry: refusal(check) for entry, check in POSITIVITY_ENTRY_POINTS.items()}
        assert got == dict.fromkeys(POSITIVITY_ENTRY_POINTS, want)
        if want is None:
            spectrum = density_spectrum(NormalFunctional(M23, d), DEFAULT_TOL)
            ((_, whole, _),) = (one := positive_spectrum(herm(d), DEFAULT_TOL)).blocks
            merged = np.sort(np.concatenate([w for _, w, _ in spectrum.blocks]))[::-1]
            assert np.array_equal(merged, whole)
            assert (spectrum.cutoff, sum(spectrum.ranks)) == (one.cutoff, sum(one.ranks))


def _fd_reference(obs: Observable, phi: NormalFunctional, tol) -> np.ndarray:
    """The central-difference differential as one loop over the Hermitian
    units, a fresh sum per unit."""
    h = tol.fd_step
    grad = np.zeros((phi.algebra.dim, phi.algebra.dim), complex)
    for e in phi.algebra.hermitian_units():
        plus = NormalFunctional(phi.algebra, phi.density + h * e)
        minus = NormalFunctional(phi.algebra, phi.density - h * e)
        grad = grad + ((obs.value_at(plus) - obs.value_at(minus)) / (2 * h)) * e
    return grad


class _Counted:
    """A value-only observable of ``phi -> Tr(d^3 x)`` that records the
    functionals it is evaluated at (a central-difference stencil is one
    functional of two densities per Hermitian unit)."""

    def __init__(self, x: np.ndarray):
        self.at: list[NormalFunctional] = []
        self.x = x
        self.observable = Observable(value=self._value)

    def _value(self, phi: NormalFunctional):
        self.at.append(phi)
        d = phi.density
        return np.trace(d @ d @ d @ self.x, axis1=-2, axis2=-1).real


def _hermitian(seed: int) -> np.ndarray:
    return sampling.unit_norm(sampling.random_hermitian(M23, sampling.Stream((2027, seed), [0]))[0])


COARSE = dataclasses.replace(DEFAULT_TOL, fd_step=1e-2)


class TestDifferentialKept:
    def test_poisson_map_takes_each_gradient_once(self):
        # One stencil (d + h e and d - h e as one functional) per Hermitian
        # unit: 26 (two passes over the 13 units) if the two pairs, or the
        # canonical and Lie-Poisson sides, each take the gradient at their
        # own E(gamma).
        g = _Counted(_hermitian(0))
        f = Observable.linear(_hermitian(1), DEFAULT_TOL)
        h = Observable.quadratic(_hermitian(2), DEFAULT_TOL)
        gamma = sampling.random_element(M23, sampling.Stream((2027, 2), [0]))[0]
        pairs = [(f, g.observable), (g.observable, h)]
        assert max(poisson_map_residual(pairs, M23, gamma, DEFAULT_TOL)) <= 1e-6
        assert len(g.at) == len(M23.hermitian_units()) == 13
        assert all(at.density.shape == (2, M23.dim, M23.dim) for at in g.at)

    def test_leibniz_takes_one_central_difference_pass(self):
        g = _Counted(_hermitian(3))
        f = Observable.linear(_hermitian(4), DEFAULT_TOL)
        h = Observable.quadratic(_hermitian(5), DEFAULT_TOL)
        phi = _functional(8)
        assert leibniz_residual(f, g.observable, h, phi, DEFAULT_TOL) <= 1e-8
        # one stencil per Hermitian unit; the rest are the two values at phi
        # itself
        assert sum(at is not phi for at in g.at) == 13
        assert sum(at is phi for at in g.at) == 2

    def test_each_profile_keeps_its_own(self):
        obs = _Counted(_hermitian(6)).observable
        phi = _functional(9)
        fine = obs.differential_at(phi, DEFAULT_TOL)
        coarse = obs.differential_at(phi, COARSE)
        assert obs.differential_at(phi, DEFAULT_TOL) is fine
        assert obs.differential_at(phi, COARSE) is coarse
        assert frobenius(fine - coarse) > 1e-6

    def test_kept_differential_is_read_only(self):
        x = _hermitian(7).copy()
        phi = _functional(10)
        f = Observable.linear(x, DEFAULT_TOL)
        kept = [
            f.differential_at(phi, DEFAULT_TOL),
            Observable.quadratic(x, DEFAULT_TOL).differential_at(phi, DEFAULT_TOL),
            _Counted(x).observable.differential_at(phi, DEFAULT_TOL),
        ]
        for a in kept:
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
        assert np.shares_memory(kept[0], x)
        assert x.flags.writeable

    def test_a_value_that_raises_keeps_nothing(self):
        fail = [True]

        def value(phi):
            if fail[0]:
                raise RuntimeError("first evaluation fails")
            return phi(M23.identity()).real

        obs = Observable(value=value)
        phi = _functional(11)
        with pytest.raises(RuntimeError):
            obs.differential_at(phi, DEFAULT_TOL)
        assert not any(key[0] is obs for key in phi._memo)
        fail[0] = False
        assert frobenius(obs.differential_at(phi, DEFAULT_TOL) - M23.identity()) <= 1e-8

    @pytest.mark.parametrize("blocks", [(2, 3), (1, 2, 2)])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, COARSE], ids=["default", "coarse"])
    def test_central_differences_match_the_unit_loop(self, blocks, tol):
        algebra = BlockAlgebra(blocks)
        rng = sampling.Stream((2028, len(blocks)), [0])
        x = sampling.random_hermitian(algebra, rng)[0]
        phi = sampling.random_density(algebra, rng)[0]
        obs = Observable(
            value=lambda p: np.trace(p.density @ p.density @ p.density @ x, axis1=-2, axis2=-1).real
        )
        assert obs.differential_at(phi, tol).tobytes() == _fd_reference(obs, phi, tol).tobytes()
