"""Tests for the verification-suite registry: determinism, row structure,
error handling, tolerance override, and a full small-trial smoke pass."""

import ast
import dataclasses
import functools
import math
import pathlib
import tracemalloc
import types

import numpy as np
import pytest

from wstargeo import algebra, charts, groupoids, linalg, poisson, sampling, standard, suites
from wstargeo import (
    DEFAULT_TOL,
    SUITE_NAMES,
    BlockAlgebra,
    DomainError,
    InvalidTrials,
    NotInDomain,
    NotInOverlap,
    NotPartiallyInvertible,
    SuiteResult,
    UnknownSuite,
    dual_pair_orthogonality_check,
    polar_decompose,
    run_suite,
    suite_rows,
)

M2 = BlockAlgebra((2,))
M23 = BlockAlgebra((2, 3))


class TestRegistry:
    def test_suite_names(self):
        assert SUITE_NAMES == (
            "groupoid-axioms",
            "charts",
            "multiplicativity",
            "exactness",
            "dual-pair",
            "poisson-map",
            "degeneracy",
            "kks",
            "fubini-study",
            "modular-flow",
        )

    def test_row_names(self):
        assert suite_rows("groupoid-axioms") == (
            "pi",
            "g",
            "predual",
            "coadjoint",
            "standard",
            "isomorphisms",
            "equivalence-agreement",
            "witnesses",
        )
        assert suite_rows("exactness") == ("residual", "order")
        assert "tomita" in suite_rows("modular-flow")

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("no-such-suite", M2, 5, 0)
        with pytest.raises(UnknownSuite):
            suite_rows("no-such-suite")

    def test_invalid_trials(self):
        with pytest.raises(InvalidTrials, match="^trials must be positive, got 0$"):
            run_suite("kks", M2, 0, 0)
        with pytest.raises(InvalidTrials, match="^trials must be positive, got -3$"):
            run_suite("kks", M2, -3, 0)


class TestDeterminism:
    def test_same_seed_same_residuals(self):
        a = run_suite("charts", M2, 10, 3)
        b = run_suite("charts", M2, 10, 3)
        strip = lambda r: dataclasses.replace(r, wall_time=0.0)  # noqa: E731
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_different_seed_different_stream(self):
        # The worst residuals are a few units of rounding either way, and may
        # coincide (2.2e-16 at seeds 0 and 1); the draws and each trial's
        # residuals may not.
        [group] = [g for g in suites._suite("kks") if g.rows[0][0] == "identity"]
        a, b = (group.draw(M2, sampling.Stream((seed, group.key), range(25))) for seed in (0, 1))
        assert not any(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(group.run(M2, 25, 0)["kks"], group.run(M2, 25, 1)["kks"])


class TestResults:
    def test_result_shape(self):
        rows = run_suite("exactness", M2, 8, 5)
        assert [r.suite for r in rows] == ["exactness/residual", "exactness/order"]
        for r in rows:
            assert isinstance(r, SuiteResult)
            assert r.trials == 8
            assert r.seed == 5
            assert r.wall_time >= 0.0
            assert r.status in ("pass", "FAIL")
            assert r.passed is (r.status == "pass")

    def test_uniform_tolerance_override(self):
        rows = run_suite("kks", M2, 10, 0, tol=1e-30)
        assert all(r.tolerance == 1e-30 for r in rows)
        assert any(not r.passed for r in rows)
        loose = run_suite("kks", M2, 10, 0, tol=10.0)
        assert all(r.passed for r in loose)


class TestSmoke:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_all_rows_pass_small(self, name):
        for algebra in (M2, M23):
            rows = run_suite(name, algebra, 12, 0)
            bad = [(r.suite, r.max_residual, r.tolerance) for r in rows if not r.passed]
            assert not bad, bad


def _poison_one_call(monkeypatch, module, name, poison, at=3):
    """Replace ``module.name`` so that its ``at``-th call returns
    ``poison(result)`` instead of the result."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        return poison(out) if len(calls) == at else out

    monkeypatch.setattr(module, name, wrapper)


class TestNonFiniteTrial:
    def test_nan_trial_fails_row(self, monkeypatch):
        # One call checks every trial at once: poison one trial's residual.
        def poison(report):
            residual = report.residual.copy()
            residual[3] = float("nan")
            return types.SimpleNamespace(residual=residual)

        _poison_one_call(monkeypatch, suites, "kks_check", poison, at=1)
        row = run_suite("kks", M2, 10, 0)[0]
        assert row.suite == "kks/identity"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_trial_fails_poisson_map(self, monkeypatch):
        def poison(residuals):
            first = residuals[0].copy()
            first[3] = float("nan")
            return [first, *residuals[1:]]

        _poison_one_call(monkeypatch, suites, "poisson_map_residual", poison, at=1)
        row = run_suite("poisson-map", M2, 10, 0)[0]
        assert row.suite == "poisson-map/quadratic"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_law_fails_axiom_check(self, monkeypatch):
        # One call checks the laws on every trial's chain at once: poison
        # one trial's entry of one law in its result.
        def poison(laws):
            law = next(iter(laws))
            values = laws[law].copy()
            values[3] = float("nan")
            return {**laws, law: values}

        _poison_one_call(monkeypatch, suites, "chain_law_residuals", poison, at=1)
        row = run_suite("groupoid-axioms", M2, 10, 0)[0]
        assert row.suite == "groupoid-axioms/pi"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_arrow_fails_isomorphisms(self, monkeypatch):
        # The row composes every trial's arrows with one call on their
        # stack: poison one trial's arrow in its result.
        def poison(arrow):
            u = arrow.u.copy()
            u[3] = float("nan")
            return dataclasses.replace(arrow, u=u)

        # The coadjoint row composes through the same name first; count its
        # calls so that the poisoned one is the isomorphisms row's third.
        original, calls = groupoids.coadjoint_compose, []

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(groupoids, "coadjoint_compose", counting)
        chain = groupoids.composable_chain("coadjoint", M2, sampling.Stream((0,), range(10)), 3)
        groupoids.chain_law_residuals("coadjoint", chain)
        monkeypatch.setattr(groupoids, "coadjoint_compose", original)
        _poison_one_call(
            monkeypatch, groupoids, "coadjoint_compose", poison, at=len(calls) + 3
        )
        rows = {r.suite: r for r in run_suite("groupoid-axioms", M2, 10, 0)}
        row = rows["groupoid-axioms/isomorphisms"]
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    @staticmethod
    def _nan_at_trial_3(values):
        values = np.array(values, dtype=float)
        values[3] = float("nan")
        return values

    def test_nan_two_form_fails_orbit_form_invariance(self, monkeypatch):
        # The second two-form of the row, on the stack of all trials.
        _poison_one_call(monkeypatch, poisson, "dGamma0", self._nan_at_trial_3, at=2)
        row = run_suite("degeneracy", M2, 10, 0)[0]
        assert row.suite == "degeneracy/orbit-form-invariance"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_trial_fails_dual_pair(self, monkeypatch):
        def poison(report):
            poisoned = self._nan_at_trial_3(report.orthogonality)
            return dataclasses.replace(report, orthogonality=poisoned)

        _poison_one_call(monkeypatch, suites, "dual_pair_orthogonality_check", poison, at=1)
        row = run_suite("dual-pair", M23, 10, 0)[0]
        assert row.suite == "dual-pair/orthogonality"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_trial_fails_fubini_study(self, monkeypatch):
        def poison(report):
            return dataclasses.replace(report, omega=self._nan_at_trial_3(report.omega))

        _poison_one_call(monkeypatch, suites, "fubini_study_compare", poison, at=1)
        row = run_suite("fubini-study", M23, 10, 0)[0]
        assert row.suite == "fubini-study/orbit-vs-fs"
        assert math.isnan(row.max_residual)
        assert row.status == "FAIL"

    def test_nan_trial_fails_conditional_expectation(self, monkeypatch):
        # The row checks once per cluster pattern: poison the first trial of
        # the first pattern's flowed expectation.
        def poison(flow):
            def flowed(x):
                out = flow(x).copy()
                out[0, 0, 0] = float("nan")
                return out

            return flowed

        _poison_one_call(monkeypatch, suites, "modular_flow", poison, at=1)
        [group] = [g for g in suites._suite("modular-flow")
                   if g.rows[0][0] == "conditional-expectation"]
        [(_, tolerance, keys)] = group.rows
        residual = suites._residual(group.run(M23, 10, 0), keys)
        assert math.isnan(residual)
        assert not residual <= tolerance


@dataclasses.dataclass
class Fault:
    """A wrong structure map planted where the suites look it up.  Each patch
    ``(owner, name, wrong)`` binds ``owner.name`` to ``wrong`` with the
    binding it replaces, ``real``, as its first argument; each run
    ``(suite, algebra, trials, seed)`` runs every row of one suite.  No row
    of ``fails`` may pass a run of its suite, and each row of ``passes``
    must pass every one."""

    name: str
    runs: list
    fails: set
    patches: list
    passes: set = dataclasses.field(default_factory=set)


def _std_mul_with_left_modulus(_real, g1, g2, tol=DEFAULT_TOL):
    u1, h1 = polar_decompose(g1, tol)
    u2, _ = polar_decompose(g2, tol)
    return u1 @ u2 @ h1


def _dgamma1_without_its_last_term(_real, fam):
    # d(u2 xi2 u2*) without the u2 xi2 du2* term
    u2h = fam.u2.conj().mT
    deta = fam.du2() @ fam.xi2 @ u2h + fam.u2 @ fam.dxi2() @ u2h
    return fam.du1() @ (fam.u2 @ fam.xi2 @ u2h) + fam.u1 @ deta


def _one_sided_product_difference(_real, fam, h, tol):
    # First order: the defect halves, not quarters, with the step.
    at = [poisson.std_mul(fam.gamma1_at(t), fam.gamma2_at(t), tol) for t in (h, 0.0)]
    return (at[0] - at[1]) / h


def _transition_with_its_numerator_sign_flipped(_real, p, p_new, y, tol=DEFAULT_TOL):
    # (b - d y)(a + c y)^+ for (b + d y)(a + c y)^+.
    one = np.eye(p.shape[-1], dtype=complex)
    a, b = p_new @ p, (one - p_new) @ p
    c, d = p_new @ (one - p), (one - p_new) @ (one - p)
    return (b - d @ y) @ linalg.partial_inverse(a + c @ y, tol)


def _later(stack: np.ndarray, ndim: int) -> np.ndarray:
    """The trials past the first of a stack of ``ndim``-dimensional arrays,
    or none of one array."""
    return np.arange(len(stack)) >= 1 if stack.ndim > ndim else np.False_


def _free_entry_dropped(later: bool, real, s, kept):
    # x_{0, n-1} dropped where the last column is past the rank (past trial
    # 0 if ``later``): the direction is zero, so it solves the equations
    # and pairs to 0, and the mask still counts it.
    i, j, x_ij, x_ji = real(s, kept)
    drop = (i == 0) & (j == s.shape[-1] - 1) & ~kept[..., -1:]
    if later:
        drop &= _later(s, 1)[..., None]
    return i, j, np.where(drop, 0.0, x_ij), x_ji


def _kernel_leaving_its_support(side: int, real, alg, factors):
    # The last direction of the first vector's kernel of E (of E') swapped
    # for the unit v_2 w_2* of the M_3 block, past its rank 2 in this draw:
    # delta g* = g* delta = 0, and the unit is orthonormal to the rest and
    # pairs to 0 with the other kernel, so the count and the rank still
    # equal the nullity.  Only mu delta = delta (delta mu' = delta) sees it,
    # in the members of trial 0, the one trial whose kernels are built in
    # the algebra.
    kernels = real(alg, factors)
    s, v, _, w, kept = factors[-1]
    assert not kept[-1]
    kernels[side][-1] = 0.0
    kernels[side][-1, s, s] = np.outer(v[:, -1], w[:, -1].conj())
    return kernels


def _left_frame_off_unitary(real, a):
    # The M_3 block's left singular vectors scaled by 1 + 1e-6.
    v, s, wh = real(a)
    if a.shape[-1] == 3:
        v = v * np.where(_later(a, 2), 1.0 + 1e-6, 1.0)[..., None, None]
    return v, s, wh


def _second_eigenvector_as_the_first(v):
    """The first block's second eigenvector replaced by its first past trial
    0: the units of the frame are no longer orthonormal."""
    v = v.copy()
    v[..., 1] = np.where(_later(v, 2)[..., None], v[..., 0], v[..., 1])
    return v


def _eigenvector_frame_not_unitary(real, phi, tol=DEFAULT_TOL):
    # The mask and so the dimensions stay right.
    stab = real(phi, tol)
    v = _second_eigenvector_as_the_first(stab.vectors[0])
    return dataclasses.replace(stab, vectors=(v, *stab.vectors[1:]))


def _non_stabilizer_direction(real, phi, tol=DEFAULT_TOL):
    # Slot (0, 1) of the first block marked as a stabilizer slot: an
    # anti-Hermitian direction that does not commute with a density whose
    # first two eigenvalues differ, counted in the dimension too.
    stab = real(phi, tol)
    mask = stab.mask.copy()
    mask[..., 1] = True
    return dataclasses.replace(stab, mask=mask)


def _two_clusters_merged(real, phi, tol=DEFAULT_TOL):
    # The split after each block's first value cleared: its first two
    # clusters merge in the slot masks, which then count units that do not
    # commute with the density.  A stabilizer direction read off those
    # slots leaves the orbit form variant.
    _, offset, _, _ = phi.algebra._block_layout
    return np.where(offset == 1, 0, real(phi, tol))


def _every_retained_cluster_split(real, phi, tol=DEFAULT_TOL):
    # A split after every retained value: each eigenvalue its own cluster.
    # The slots that join the copies of a repeated eigenvalue leave the
    # stabilizer mask for the complement, where the form vanishes on them:
    # the complement's inverse gap is infinite.
    pattern = real(phi, tol)
    start, offset, _, _ = phi.algebra._block_layout
    return np.where(offset == 0, pattern, offset < pattern[..., start])


def _antihermitian_units_missing_the_last(real, *args):
    # The units of a grid fill fixed slots: a missing unit leaves its slot
    # zero.  The last (i c c* of the last column) is a stabilizer and
    # tangent slot of every block of full rank.
    units = real(*args)
    units[..., -1, :, :] = 0.0
    return units


def _bracket_without_its_second_term(_real, f, g, phi, tol=DEFAULT_TOL):
    # -i Tr(d df dg) for -i Tr(d [df, dg]), per matrix of a stack: the real
    # part, so that the rows fail rather than refuse.
    df, dg = f.differential_at(phi, tol), g.differential_at(phi, tol)
    return linalg.hs_inner(phi.density, df @ dg).imag


def _hamiltonian_field_with_its_sign_flipped(_real, f, phi, tol=DEFAULT_TOL):
    df, d = f.differential_at(phi, tol), phi.density
    return -1j * (df @ d - d @ df)


def _modular_flow_with_one_sign_flipped(_real, phi, t, tol=DEFAULT_TOL):
    # d^{it} x d^{it} instead of d^{it} x d^{-it}, at one time or at one
    # time per density of a stack.
    u = algebra.density_spectrum(phi, tol).imaginary_power(t)
    return lambda x: u @ x @ u


def _modular_flow_off_by_a_factor(real, phi, t, tol=DEFAULT_TOL):
    # At one time or at one time per density of a stack.
    flow = real(phi, t, tol)
    return lambda x: (1.0 + 1e-6) * flow(x)


def _fd_exterior_with_one_partial_pairing_flipped(_real, rho0, u, a, b, step=1e-4, tol=DEFAULT_TOL):
    # d/ds Gamma0(u(s,0))(u(s,0) b) + d/dt Gamma0(u(0,t))(a u(0,t)): the
    # second partial pairing with its sign flipped.
    def g_t(s):
        us = linalg.exp_antihermitian(s * a) @ u
        return charts.Gamma0(rho0, us, us @ b, tol)

    def g_s(t):
        ut = u @ linalg.exp_antihermitian(t * b)
        return charts.Gamma0(rho0, ut, a @ ut, tol)

    return (g_t(step) - g_t(-step) + g_s(step) - g_s(-step)) / (2.0 * step)


def _tangent_basis_with_a_repeated_element(real, w, v, rank):
    # A repeated direction is one more kernel direction off the radical.
    # The directions are built at the first base only, beside the closed
    # form: the ambient form's singular values no longer match it, the
    # directions are not orthonormal and their realified rank falls short.
    # Slot (0, 1) holds the direction of slot (0, 0) again.
    directions, kept = real(w, v, rank)
    directions[..., 1, :, :] = directions[..., 0, :, :]
    return directions, kept


def _cluster_pair_off_the_radical(real, w, rank):
    # The first pair of slots within one cluster of a block given the
    # block's largest eigenvalue: two zeros fewer in each leg's multiset.
    # The kernel count against the stabilizer mask sees it too, on every
    # base with a repeated eigenvalue.
    values, kept = real(w, rank)
    n = w.shape[-1]
    a, c = np.divmod(np.arange(n * n), n)
    inside = (a < c) & kept & (values <= 1e-9 * w[..., :1])
    first = inside & (np.cumsum(inside, axis=-1) == 1)
    pair = first | first[..., c * n + a]
    return np.where(pair, w[..., :1], values), kept


def _density_frame_not_unitary(real, phi, tol=DEFAULT_TOL):
    # The closed form reads a frame that is not unitary and does not rebuild
    # the density.
    spectrum = real(phi, tol)
    (s, w, v), *rest = spectrum.blocks
    v = _second_eigenvector_as_the_first(v)
    return dataclasses.replace(spectrum, blocks=((s, w, v), *rest))


def _runs(algebra, trials, seed, *suites_):
    return [(suite, algebra, trials, seed) for suite in suites_]


def _rows(suite, *rows):
    return {f"{suite}/{row}" for row in rows}


#: Every planted fault, named after its test.  The basis faults run at
#: three trials: each fails its rows on every trial, so a few suffice.
FAULTS = [
    Fault("test_standard_product_with_left_modulus", _runs(M23, 10, 0, "groupoid-axioms"),
          {"groupoid-axioms/standard"}, [(groupoids, "std_mul", _std_mul_with_left_modulus)]),
    # The finite difference of the product is taken through ``std_mul`` as
    # ``poisson`` looks it up.
    Fault("test_exactness_product_with_left_modulus", _runs(M23, 10, 0, "exactness"),
          _rows("exactness", "residual", "order"),
          [(poisson, "std_mul", _std_mul_with_left_modulus)]),
    Fault("test_dgamma1_without_its_last_term", _runs(M23, 10, 0, "multiplicativity"),
          {"multiplicativity/residual"},
          [(poisson.ComposableFamily, "dgamma1", _dgamma1_without_its_last_term)]),
    Fault("test_one_sided_product_difference", _runs(M23, 10, 0, "exactness"),
          {"exactness/order"}, [(poisson, "_product_difference", _one_sided_product_difference)]),
    # An infinite residual tolerance skips the composability gap check.
    *(Fault(f"test_product_in_the_wrong_order[{tag}]", _runs(M23, 10, 0, "groupoid-axioms"),
            {f"groupoid-axioms/{tag}"},
            [(groupoids, f"{tag}_compose", lambda real, a, b, tol=DEFAULT_TOL:
              real(b, a, dataclasses.replace(tol, residual_tol=math.inf)))])
      for tag in ("pi", "g", "predual", "coadjoint")),
    # x* inverts only the partial isometries; a g arrow carries a positive
    # modulus.  The law row reads g_inverse as groupoids looks it up, beside
    # the supports it takes of each arrow once.
    Fault("test_g_inverse_as_the_adjoint", _runs(M23, 10, 0, "groupoid-axioms"),
          {"groupoid-axioms/g"}, [(groupoids, "g_inverse", lambda _, x, tol=DEFAULT_TOL: x.conj().mT)]),
    # The source read by the laws and by g_compose's gate: the gate may
    # refuse the chain before a law fails.
    Fault("test_g_source_as_the_left_support", _runs(M23, 10, 0, "groupoid-axioms"),
          {"groupoid-axioms/g"},
          [(groupoids, "g_source", lambda _, x, tol=DEFAULT_TOL: linalg.supports(x, tol)[0])]),
    # (p q)* for (p q)^+: the chart legs read sigma_p as charts looks it up,
    # whether or not a leg was factored before in the check.
    Fault("test_overlap_inverse_as_the_adjoint", _runs(M23, 10, 0, "charts"), {"charts/round-trip"},
          [(charts, "sigma_p", lambda _, p, q, tol=DEFAULT_TOL: (p @ q).conj().mT)]),
    Fault("test_phi_without_square_root", _runs(M23, 10, 0, "groupoid-axioms"),
          {"groupoid-axioms/isomorphisms"},
          [(groupoids, "iso_Phi",
            lambda _, u, rho, tol=DEFAULT_TOL: np.asarray(u, dtype=complex) @ rho.density)]),
    Fault("test_chart_inverse_off_by_a_phase", _runs(M23, 10, 0, "charts"), {"charts/round-trip"},
          [(suites, "chart_G_inv", lambda real, *args: np.exp(1e-8j) * real(*args))]),
    Fault("test_transition_with_its_numerator_sign_flipped", _runs(M23, 10, 0, "charts"),
          _rows("charts", "cocycle", "transition-oracle"),
          [(suites, "transition_L", _transition_with_its_numerator_sign_flipped)]),
    Fault("test_connection_form_doubled", _runs(M23, 10, 0, "charts"), {"charts/connection"},
          [(suites, "connection_alpha", lambda real, u, du: 2.0 * real(u, du))]),
    # The check builds the E' kernel as J (kernel of E at J g); with J the
    # identity that is the kernel of E at g.
    Fault("test_eprime_kernel_replaced_by_e_kernel", _runs(M23, 10, 0, "dual-pair"),
          {"dual-pair/orthogonality"},
          [(standard, "conjugation_J", lambda _, g: np.asarray(g, dtype=complex))]),
    # The identity in place of each vector's left support.
    Fault("test_left_momentum_replaced_by_identity", _runs(M23, 10, 0, "dual-pair"),
          {"dual-pair/dimension"},
          [(standard, "supports", lambda real, g, tol=DEFAULT_TOL: (
              np.broadcast_to(np.eye(g.shape[-1], dtype=complex), g.shape), real(g, tol)[1]))]),
    # x_ji = -(sigma_j / sigma_i)^2 conj(x_ij): the directions of the
    # coupled entries leave the kernel, and their defect in
    # delta g* + g delta* = 0 fails the row.
    Fault("test_pair_kernel_with_a_wrong_ratio", _runs(M23, 10, 0, "dual-pair"),
          {"dual-pair/orthogonality"},
          [(standard, "_coordinate_kernel", lambda real, s, kept: real(s**2, kept))]),
    # On trial 0 (ranks 1 and 2 in this draw) the kernel's realified rank
    # falls short of the ambient nullity, and each trial's Gram matrix sees
    # the unit it is missing.
    Fault("test_pair_kernel_without_a_free_entry", _runs(M23, 10, 0, "dual-pair"),
          _rows("dual-pair", "orthogonality", "dimension"),
          [(standard, "_coordinate_kernel", functools.partial(_free_entry_dropped, False))]),
    *(Fault(f"test_pair_kernel_leaving_its_support[{case}]", _runs(M23, 10, 0, "dual-pair"),
            {"dual-pair/orthogonality"},
            [(standard, "_pair_kernels", functools.partial(_kernel_leaving_its_support, side))],
            passes={"dual-pair/dimension"})
      for side, case in enumerate(("E", "Eprime"))),
    # The later-trial faults leave trial 0 alone, so the oracles that run on
    # the first trial of a stack see nothing: only the per-trial checks of
    # the frames and coordinates can fail them.
    Fault("test_free_entry_dropped_on_later_trials", _runs(M23, 10, 0, "dual-pair"),
          {"dual-pair/orthogonality"},
          [(standard, "_coordinate_kernel", functools.partial(_free_entry_dropped, True))]),
    Fault("test_left_frame_off_unitary_on_later_trials", _runs(M23, 3, 0, "dual-pair"),
          {"dual-pair/orthogonality"}, [(standard, "svd", _left_frame_off_unitary)]),
    Fault("test_eigenvector_frame_not_unitary_on_later_trials", _runs(M23, 3, 0, "modular-flow"),
          {"modular-flow/dimensions"},
          [(suites, "stabilizer_lie_algebra", _eigenvector_frame_not_unitary)]),
    # Trial 0 of the degeneracy run (seed 1) has two distinct eigenvalues in
    # its first block; seed 0's are equal, and radical-pairing passes there.
    Fault("test_non_stabilizer_direction_in_the_radical",
          _runs(M23, 3, 1, "degeneracy") + _runs(M2, 1, 0, "modular-flow"),
          {"degeneracy/radical-pairing", "degeneracy/dimensions", "modular-flow/dimensions"},
          [(module, "stabilizer_lie_algebra", _non_stabilizer_direction)
           for module in (poisson, suites)]),
    Fault("test_two_clusters_merged_in_the_mask",
          _runs(M23, 3, 0, "degeneracy") + _runs(M2, 1, 0, "modular-flow"),
          _rows("degeneracy", "orbit-form-invariance", "dimensions") | {"modular-flow/dimensions"},
          [(algebra, "cluster_pattern", _two_clusters_merged)]),
    Fault("test_every_retained_cluster_split_in_the_mask",
          _runs(M23, 3, 0, "degeneracy") + _runs(M23, 10, 1, "degeneracy")
          + _runs(M2, 1, 0, "modular-flow"),
          _rows("degeneracy", "complement-inverse-gap", "dimensions") | {"modular-flow/dimensions"},
          [(algebra, "cluster_pattern", _every_retained_cluster_split)]),
    Fault("test_antihermitian_units_missing_the_last",
          _runs(M23, 3, 0, "degeneracy") + _runs(M2, 1, 0, "modular-flow"),
          {"degeneracy/dimensions", "modular-flow/dimensions"},
          [(module, "antihermitian_units", _antihermitian_units_missing_the_last)
           for module in (algebra, poisson)]),
    # Planted in ``standard`` alone: ``poisson`` looks the form up there.
    # The canonical side of the Poisson-map check is omega of the pullback
    # gradients.  kappa is calibrated afresh from the planted form, so it
    # takes up the scale: kks/identity passes, and only the calibration
    # fails.
    Fault("test_symplectic_form_at_half_scale",
          _runs(M23, 3, 0, "multiplicativity", "fubini-study", "poisson-map", "kks"),
          {"multiplicativity/vertical", "fubini-study/pair-groupoid", "poisson-map/quadratic",
           "kks/calibration"},
          [(standard, "symplectic_omega", lambda real, x, y: 0.5 * real(x, y))],
          passes={"kks/identity"}),
    # Both sides of each bracket identity are linear in the one kept
    # differential, so only the leibniz row's exact-differential oracle sees
    # the error.
    Fault("test_central_differences_at_twice_their_value", _runs(M23, 3, 0, "poisson-map"),
          {"poisson-map/leibniz"},
          [(poisson.Observable, "_central_differences",
            lambda real, self, phi, tol: 2.0 * real(self, phi, tol))]),
    Fault("test_bracket_without_its_second_term", _runs(M23, 3, 0, "poisson-map"),
          _rows("poisson-map", "jacobi", "field-morphism"),
          [(poisson, "lp_bracket", _bracket_without_its_second_term)]),
    Fault("test_hamiltonian_field_with_its_sign_flipped", _runs(M23, 3, 0, "poisson-map"),
          {"poisson-map/field-morphism"},
          [(poisson, "hamiltonian_field", _hamiltonian_field_with_its_sign_flipped)]),
    # 2 Re <x|y> for 2 Im <x|y>, a symmetric form: the pullbacks through E
    # and E' then fail to commute, and each row that compares omega with an
    # orbit form sees the difference.
    Fault("test_symplectic_form_from_the_real_part",
          _runs(M23, 3, 0, "poisson-map", "kks", "fubini-study", "multiplicativity"),
          _rows("poisson-map", "commutant", "quadratic") | _rows("kks", "identity", "calibration")
          | _rows("fubini-study", "orbit-vs-fs", "pair-groupoid")
          | _rows("multiplicativity", "residual", "vertical"),
          [(standard, "symplectic_omega", lambda _, x, y: 2.0 * linalg.hs_inner(x, y).real)]),
    # theta_P0 reads u_p off its own overlap inverse and theta_P0_inv calls
    # u_p, so the phase opens the round trip.
    Fault("test_fibre_coordinate_off_by_a_small_phase", _runs(M23, 3, 0, "charts"), {"charts/theta"},
          [(charts, "u_p", lambda real, p, q, tol: real(p, q, tol) * np.exp(1e-8j))]),
    # In ``flow_residuals`` the flipped flow breaks composability: the row
    # reports the gap rather than letting ``std_mul`` raise.  The flipped
    # flow of a positive element is not Hermitian, so it leaves the cone.
    Fault("test_modular_flow_with_one_sign_flipped", _runs(M2, 1, 0, "modular-flow"),
          _rows("modular-flow", "automorphism", "cone", "group-law", "conditional-expectation"),
          [(module, "modular_flow", _modular_flow_with_one_sign_flipped)
           for module in (standard, suites)]),
    # J(g) = g instead of g*: Tomita's S then maps x Omega to
    # d^{-1/2} x Omega d^{1/2}, not to x* Omega.
    Fault("test_conjugation_without_the_adjoint", _runs(M2, 1, 0, "modular-flow"),
          {"modular-flow/tomita"},
          [(standard, "conjugation_J", lambda _, g: np.asarray(g, dtype=complex))]),
    Fault("test_modular_flow_off_by_a_factor", _runs(M2, 1, 0, "modular-flow"),
          _rows("modular-flow", "automorphism", "symplectic", "orbit-invariants", "orbit-form",
                "group-law", "conditional-expectation"),
          [(module, "modular_flow", _modular_flow_off_by_a_factor) for module in (standard, suites)]),
    # The negative control, a rank change, then counts as equivalent.
    Fault("test_every_pair_of_projections_equivalent", _runs(M23, 5, 0, "groupoid-axioms"),
          {"groupoid-axioms/equivalence-agreement"},
          [(suites, "mvn_equivalent", lambda *args, **kwargs: True)]),
    Fault("test_fd_exterior_with_one_partial_pairing_flipped", _runs(M23, 3, 0, "degeneracy"),
          {"degeneracy/fd-exterior"},
          [(suites, "fd_surface_dGamma0", _fd_exterior_with_one_partial_pairing_flipped)]),
    Fault("test_tangent_basis_with_a_repeated_element", _runs(M23, 3, 0, "degeneracy"),
          _rows("degeneracy", "radical-pairing", "dimensions"),
          [(poisson, "_leg_directions", _tangent_basis_with_a_repeated_element)]),
    # The closed-form faults leave every frame right, so the per-trial frame
    # checks cannot see them; the ambient form at the first base, which
    # shares no closed form with them, can.  Trial 0 of the first run (seed
    # 0) has a repeated eigenvalue; seed 1's has none, and radical-pairing
    # passes the cluster fault there.
    Fault("test_closed_form_with_a_cluster_pair_off_the_radical", _runs(M23, 4, 0, "degeneracy"),
          _rows("degeneracy", "radical-pairing", "dimensions"),
          [(poisson, "_form_spectrum", _cluster_pair_off_the_radical)]),
    # The eigenvalues times 1 + 1e-6: the kernel and the complement barely
    # move, so the ambient form alone sees it.
    Fault("test_closed_form_of_a_perturbed_spectrum", _runs(M23, 4, 1, "degeneracy"),
          {"degeneracy/radical-pairing"},
          [(poisson, "_form_spectrum", lambda real, w, rank: real(w * (1.0 + 1e-6), rank))],
          passes=_rows("degeneracy", "orbit-form-invariance", "fd-exterior",
                       "complement-inverse-gap", "dimensions")),
    Fault("test_density_frame_not_unitary_on_later_trials", _runs(M23, 3, 0, "degeneracy"),
          {"degeneracy/radical-pairing"},
          [(poisson, "density_spectrum", _density_frame_not_unitary)]),
    # The orbit through |delta><delta| in place of r |delta><delta|: the form
    # still matches the Fubini–Study value at that orbit, so only the radius
    # scaling sees the radius dropped.
    Fault("test_fubini_study_without_its_radius", _runs(M23, 3, 0, "fubini-study"),
          {"fubini-study/r-scaling"},
          [(suites, "fubini_study_compare", lambda real, r, delta, x, y, tol=DEFAULT_TOL:
            real(np.ones_like(r), delta, x, y, tol))],
          passes={"fubini-study/orbit-vs-fs"}),
    # F_p F_q* carries q onto p, not p onto q.
    Fault("test_witness_in_the_wrong_direction", _runs(M23, 5, 0, "groupoid-axioms"),
          {"groupoid-axioms/witnesses"},
          [(suites, "mvn_witness", lambda real, alg, p, q, tol=DEFAULT_TOL: real(alg, q, p, tol))]),
]


def _outcomes(suite, alg, trials, seed) -> dict:
    """Each row of one suite run as :func:`run_suite` runs it: ``pass``,
    ``FAIL``, or the name of the :class:`DomainError` its group raised, which
    detects the fault as a failure does."""
    out = {}
    for group in suites._suite(suite):
        try:
            checks = group.run(alg, trials, seed)
        except DomainError as error:
            out.update((f"{suite}/{row}", type(error).__name__) for row, _, _ in group.rows)
            continue
        for row, tolerance, keys in group.rows:
            out[f"{suite}/{row}"] = "pass" if suites._residual(checks, keys) <= tolerance else "FAIL"
    return out


def _planted(wrong, real, calls: list, site: int):
    """``wrong`` given the binding it replaces, counting its calls."""

    def planted(*args, **kwargs):
        calls[site] += 1
        return wrong(real, *args, **kwargs)

    return planted


def _check_fault(monkeypatch, fault: Fault) -> None:
    calls = [0] * len(fault.patches)
    for site, (owner, name, wrong) in enumerate(fault.patches):
        monkeypatch.setattr(owner, name, _planted(wrong, getattr(owner, name), calls, site))
    seen = {}
    for run in fault.runs:
        for row, outcome in _outcomes(*run).items():
            seen.setdefault(row, []).append(outcome)
    # A replacement no row calls is planted where no row looks it up.
    stale = [name for (_, name, _), n in zip(fault.patches, calls) if n == 0]
    missed = {row for row in fault.fails if "pass" in seen.get(row, ["pass"])}
    broken = {row for row in fault.passes if set(seen.get(row, ["unrun"])) != {"pass"}}
    assert not (stale or missed or broken), (stale, missed, broken, seen)


def _fault_test(entries: list):
    """The test of the entries of one name: one case per entry, by the name's
    bracketed suffix, if it has several."""
    if len(entries) == 1:
        def test(self, monkeypatch):
            _check_fault(monkeypatch, entries[0])

        return test

    @pytest.mark.parametrize("fault", entries, ids=[f.name.partition("[")[2][:-1] for f in entries])
    def test_cases(self, monkeypatch, fault):
        _check_fault(monkeypatch, fault)

    return test_cases


class TestPlantedFaults:
    """A wrong structure map, planted where the suites look it up, fails
    the rows that check it: one test per entry of :data:`FAULTS`, named as
    the entry is."""

    def test_every_row_is_failed_by_some_fault(self):
        rows = {f"{suite}/{row}" for suite in SUITE_NAMES for row in suite_rows(suite)}
        assert set().union(*(fault.fails for fault in FAULTS)) == rows

    @pytest.mark.parametrize("fault, seed, trials, spectrum", [
        ("test_closed_form_with_a_cluster_pair_off_the_radical", 0, 4, [0.25, 0.25]),
        ("test_non_stabilizer_direction_in_the_radical", 1, 3, [0.0, 0.5]),
    ], ids=["repeated", "distinct"])
    def test_the_degeneracy_run_draws_the_spectrum_its_fault_needs(self, fault, seed, trials,
                                                                  spectrum):
        # degeneracy/radical-pairing takes its ambient form at trial 0 alone,
        # so these faults show only on a first block with a repeated positive
        # eigenvalue, or with two distinct ones.  A stream that moves the
        # spectrum fails here rather than as a missed fault.
        [entry] = [f for f in FAULTS if f.name == fault]
        assert ("degeneracy", M23, trials, seed) in entry.runs
        [group] = [g for g in suites._suite("degeneracy") if g.draw is suites._draw_degeneracy]
        d0 = group.draw(M23, sampling.Stream((seed, group.key), range(trials)))[0]
        first = np.linalg.eigvalsh(M23.block_views(d0[0])[0])
        assert np.allclose(first, spectrum, rtol=0.0, atol=1e-12), first


for _name in dict.fromkeys(fault.name.partition("[")[0] for fault in FAULTS):
    setattr(TestPlantedFaults, _name,
            _fault_test([fault for fault in FAULTS if fault.name.partition("[")[0] == _name]))


class TestSampleWithRetry:
    def test_redraws_until_admissible(self):
        tries = []

        def draw():
            tries.append(None)
            if len(tries) < 3:
                raise NotInDomain("outside the chart domain")
            return "drawn"

        assert sampling.sample_with_retry(draw) == "drawn"
        assert len(tries) == 3

    def test_gives_up_after_max_tries(self):
        tries = []

        def draw():
            tries.append(None)
            raise NotInOverlap("outside the overlap")

        with pytest.raises(NotPartiallyInvertible, match="in 64 draws$"):
            sampling.sample_with_retry(draw)
        assert len(tries) == sampling.MAX_TRIES == 64

    def test_other_errors_propagate(self):
        def draw():
            raise ValueError("not a degenerate draw")

        with pytest.raises(ValueError):
            sampling.sample_with_retry(draw)

    def test_suites_use_the_same_helper(self):
        assert suites._retry is sampling.sample_with_retry


class TestHaarUnitary:
    def test_unitary_and_blockwise(self):
        # Each block is the Haar factor of its own block of the one Gaussian
        # that the stream's slot 0 holds.
        u = sampling.random_unitary(M23, sampling.Stream((5,), [0]))[0]
        assert np.allclose(u @ u.conj().T, np.eye(M23.dim), atol=1e-12)
        g = sampling.random_element(M23, sampling.Stream((5,), [0]), np.sqrt(2.0))[0]
        blocks = [linalg.phase_fixed_q(b) for b in M23.block_views(g)]
        assert np.array_equal(u, M23.embed_blocks(blocks))


class TestSharedReports:
    @pytest.mark.parametrize(
        "suite, check, calls",
        [
            # One check of the whole group, on the stack of its trials.
            ("degeneracy", "degeneracy_kernel_check", 1),
            ("dual-pair", "dual_pair_orthogonality_check", 1),
            ("modular-flow", "flow_residuals", 1),
        ],
    )
    def test_one_report_per_trial(self, monkeypatch, suite, check, calls):
        # Each group computes its report once per run_suite call, not once
        # per row that reads it.
        original = getattr(suites, check)
        seen = []

        def counted(*args, **kwargs):
            seen.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(suites, check, counted)
        rows = run_suite(suite, M23, 4, 1)
        assert len(seen) == calls
        assert all(r.passed for r in rows), [
            (r.suite, r.max_residual) for r in rows if not r.passed
        ]


class TestTrialKeys:
    """Every group draws from the stream keyed ``(seed, group key)``: each
    slot from the generator keyed ``(seed, group key, *path)``, made by the
    stream alone.  The keys are literals of the registry, no two alike, so a
    group's stream does not depend on where it stands."""

    GROUPS = [group for suite in SUITE_NAMES for group in suites._suite(suite)]

    def test_every_generator_carries_its_groups_key(self, monkeypatch):
        original, keys = sampling.rng_for, []

        def recording(*key):
            keys.append(key)
            return original(*key)

        monkeypatch.setattr(sampling, "rng_for", recording)
        for group in self.GROUPS:
            keys.clear()
            group.run(M23, 3, 5)
            bad = [key for key in keys if len(key) < 3 or key[:2] != (5, group.key)]
            assert not bad, (group.rows, bad)
            # Only the two fixed cases take no slot.
            assert keys or group.rows[0][0] in ("transition-oracle", "calibration"), group.rows

    def test_no_two_groups_share_a_key_or_a_draw(self):
        assert all(type(group.key) is int and group.key >= 0 for group in self.GROUPS)
        assert len({group.key for group in self.GROUPS}) == len(self.GROUPS)
        # Rows that read one draw read one run of it.
        assert len({group.draw for group in self.GROUPS}) == len(self.GROUPS)

    @pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if len(suites._suite(s)) > 1])
    def test_reordered_groups_keep_their_residuals(self, monkeypatch, suite):
        bits = lambda rows: {r.suite: repr(r.max_residual) for r in rows}  # noqa: E731
        before = bits(run_suite(suite, M23, 6, 2))
        monkeypatch.setitem(suites._SUITES, suite, suites._suite(suite)[::-1])
        assert bits(run_suite(suite, M23, 6, 2)) == before

    def test_one_stream_per_row_and_no_trial_loop(self):
        tree = ast.parse(pathlib.Path(suites.__file__).read_text(encoding="utf-8"))
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        text = [ast.unparse(n.func) for n in calls]
        assert not any(t.endswith("rng_for") for t in text)
        # The streams come from ``_Group.run`` alone.
        made = [n for n in calls if ast.unparse(n.func) == "sampling.Stream"]
        group = next(
            n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Group"
        )
        run = next(n for n in group.body if getattr(n, "name", None) == "run")
        assert len(made) == 1 and made[0] in list(ast.walk(run))
        # No loop or comprehension runs over a stream or its trials.
        loops = {
            ast.unparse(n.iter) for n in ast.walk(tree) if isinstance(n, (ast.For, ast.comprehension))
        }
        assert not loops & {"rng", "rng.trials", "range(len(rng))", "range(trials)"}


class TestFootprint:
    """A stack of 100 trials on ``12`` is checked in one call, and its
    per-trial part holds only the frames and the slot coordinates of each
    trial: ``O(n_b^2)`` entries, not the ``n_b^2 x n_b^2`` Gram and omega
    products of ``(n_b^2, n_b, n_b)`` stacks of units, which only the
    first trial's oracles take.  ``tracemalloc`` sees NumPy's buffers.
    Measured peaks (NumPy 2, x86-64): 7.7 MB for the dual-pair check, whose
    first vector's oracle takes only the singular values of the ambient
    conditions (11.7 MB when it built a basis of their null space), and
    2.3 MB for the dimension defects.  With the units and their products
    built on every trial, the same stacks checked whole peaked at 249 MB and
    133 MB."""

    @staticmethod
    def _peak(fn, *args) -> float:
        """The peak of traced memory while ``fn(*args)`` runs, in MB."""
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("draw, check, bound", [
        (suites._draw_dual_pair, dual_pair_orthogonality_check, 10.0),
        (suites._draw_planted, suites._dimension_defects, 4.0),
    ], ids=["dual-pair", "dimensions"])
    def test_a_stack_of_12_in_one_call(self, draw, check, bound):
        alg = BlockAlgebra((12,))
        drawn = draw(alg, sampling.Stream((1, 0), range(100)))
        assert self._peak(check, alg, *drawn) < bound


class TestRowReplay:
    """Every group is a draw and a check: trial ``k`` of the stacked run has
    the bits of the group's check run on its draw over the stream of trial
    ``k`` alone, ``Stream((seed, key), [k])``, so one trial can be replayed
    by itself."""

    def test_every_row_is_in_one_group(self):
        rows = [row for suite in SUITE_NAMES for group in suites._suite(suite)
                for row, _, _ in group.rows]
        assert len(rows) == 43
        assert rows == [row for suite in SUITE_NAMES for row in suite_rows(suite)]

    @pytest.mark.parametrize("shape", ["2,3", "1,2,2"])
    def test_each_trial_alone(self, shape):
        alg, trials = BlockAlgebra.from_string(shape), 8
        for suite in SUITE_NAMES:
            for group in suites._suite(suite):
                stacked = group.run(alg, trials, 1)
                # Fixed cases, such as those of modular-flow/dimensions, and
                # aggregates across trials, such as exactness/order, are not
                # trials; a group without trials is a fixed case of scalars.
                per_trial = {key: v for key, v in stacked.items()
                             if np.shape(v)[:1] == (trials,)}
                assert per_trial or not any(map(np.shape, stacked.values())), group.rows
                for k in range(trials):
                    alone = group.check(alg, *group.draw(alg, sampling.Stream((1, group.key), [k])))
                    assert alone.keys() == stacked.keys(), group.rows
                    for key, values in per_trial.items():
                        assert np.shape(alone[key])[:1] == (1,), (group.rows, key)
                        got, want = np.asarray(alone[key][0]), np.asarray(values[k])
                        assert got.tobytes() == want.tobytes(), (group.rows, key, k)
