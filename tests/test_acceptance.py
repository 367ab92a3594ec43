"""Acceptance gate: every advertised numerical guarantee, at its stated
tolerance and sample count, in one test per guarantee.

Each test prints a single verdict line (``criterion NN [PASS/FAIL]: ...``)
before asserting, so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Suite runs are cached per (suite, algebra, trials) so criteria
that share a suite do not pay for it twice.
"""

from __future__ import annotations

import numpy as np
import pytest

from wstargeo import (
    DEFAULT_TOL,
    BlockAlgebra,
    InvalidArrow,
    centralizer_basis,
    coadjoint_apply,
    conditional_expectation,
    frobenius,
    fubini_study_compare,
    mvn_equivalent,
    mvn_witness,
    orbit_equivalent,
    orbit_invariant,
    run_suite,
    unitary_equivalent,
)
from wstargeo import sampling
from wstargeo.algebra import matrix_units
from wstargeo.linalg import _worst, realified_rank

M2 = BlockAlgebra((2,))
M3 = BlockAlgebra((3,))
M23 = BlockAlgebra((2, 3))
ALGEBRAS = (M2, M3, M23)

_CACHE: dict[tuple, dict] = {}


def _rows(name: str, algebra: BlockAlgebra, trials: int, seed: int = 2026) -> dict:
    """Run a suite once and index its report rows by row name."""
    key = (name, algebra.blocks, trials, seed)
    if key not in _CACHE:
        _CACHE[key] = {
            res.suite.split("/", 1)[1]: res
            for res in run_suite(name, algebra, trials, seed)
        }
    return _CACHE[key]


def _verdict(number: int, description: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{tag}]: {description} ({detail})", flush=True)
    assert ok, f"criterion {number:02d}: {description}: {detail}"


def _worst_rows(rows: dict, names: tuple[str, ...]) -> float:
    return _worst(*(rows[name].max_residual for name in names))


def _all_pass(rows: dict, names: tuple[str, ...]) -> bool:
    return all(rows[name].passed for name in names)


def test_criterion_01_groupoid_axioms():
    names = ("pi", "g", "predual", "coadjoint", "standard")
    worst, ok = 0.0, True
    for algebra in ALGEBRAS:
        rows = _rows("groupoid-axioms", algebra, 500)
        worst = _worst(worst, _worst_rows(rows, names))
        ok = ok and _all_pass(rows, names)
    _verdict(
        1,
        "groupoid axioms over 500 composable chains per groupoid on "
        "M2, M3, M2+M3",
        ok and worst <= 1e-10,
        f"max residual {worst:.3e} <= 1e-10",
    )


def test_criterion_02_isomorphism_intertwining():
    worst, ok = 0.0, True
    for algebra in ALGEBRAS:
        rows = _rows("groupoid-axioms", algebra, 500)
        worst = _worst(worst, rows["isomorphisms"].max_residual)
        ok = ok and rows["isomorphisms"].passed
    _verdict(
        2,
        "intertwining of the three groupoid isomorphisms on 500 arrows each",
        ok and worst <= 1e-10,
        f"max residual {worst:.3e} <= 1e-10",
    )


def test_criterion_03_multiplicativity():
    rows = _rows("multiplicativity", M23, 1000)
    res = rows["residual"].max_residual
    vert = rows["vertical"].max_residual
    _verdict(
        3,
        "multiplicativity of the product form over 1000 analytic-tangent "
        "families",
        res <= 1e-9 and _all_pass(rows, ("residual", "vertical")),
        f"max residual {res:.3e} <= 1e-9, vertical {vert:.3e}",
    )


def test_criterion_04_exactness():
    rows = _rows("exactness", M23, 200)
    res = rows["residual"].max_residual
    order = rows["order"].max_residual
    _verdict(
        4,
        "finite-difference exactness of the product form at step 1e-5 with "
        "second-order convergence",
        res <= 1e-7 and order <= 0.5 and _all_pass(rows, ("residual", "order")),
        f"max residual {res:.3e} <= 1e-7, median step ratio "
        f"{4.0 - order:.2f}..{4.0 + order:.2f} within 3.5..4.5",
    )


def test_criterion_05_dual_pair():
    rows = _rows("dual-pair", M23, 200)
    res = rows["orthogonality"].max_residual
    dim = rows["dimension"].max_residual
    _verdict(
        5,
        "symplectic orthogonality of the two expectation fibers on 200 "
        "points including rank-deficient ones",
        res <= 1e-10 and dim == 0.0
        and _all_pass(rows, ("orthogonality", "dimension")),
        f"max |omega| {res:.3e} <= 1e-10, dimension mismatches {dim:.0f}",
    )


def test_criterion_06_poisson_map():
    rows = _rows("poisson-map", M23, 500)
    quad = _worst_rows(rows, ("quadratic", "field-morphism", "commutant"))
    jac = rows["jacobi"].max_residual
    leib = rows["leibniz"].max_residual
    _verdict(
        6,
        "expectation pullbacks intertwine canonical and Lie-Poisson brackets "
        "on 500 Hermitian pairs",
        quad <= 1e-10 and jac <= 1e-8 and leib <= 1e-8
        and _all_pass(rows, tuple(rows)),
        f"bracket residual {quad:.3e} <= 1e-10, jacobi {jac:.3e} and "
        f"leibniz {leib:.3e} <= 1e-8",
    )


def test_criterion_07_orbit_form():
    worst_inv, worst_fd, worst_rad, worst_gap, dim_bad = 0.0, 0.0, 0.0, 0.0, 0.0
    ok = True
    for algebra in (M2, M23):
        rows = _rows("degeneracy", algebra, 150)
        worst_inv = _worst(worst_inv, rows["orbit-form-invariance"].max_residual)
        worst_fd = _worst(worst_fd, rows["fd-exterior"].max_residual)
        worst_rad = _worst(worst_rad, rows["radical-pairing"].max_residual)
        worst_gap = _worst(worst_gap, rows["complement-inverse-gap"].max_residual)
        dim_bad = _worst(dim_bad, rows["dimensions"].max_residual)
        ok = ok and _all_pass(rows, tuple(rows))
    _verdict(
        7,
        "orbit one-form: lift independence, finite-difference exterior "
        "derivative, and stabilizer radical",
        ok,
        f"invariance {worst_inv:.3e} <= 1e-10, fd {worst_fd:.3e} <= 1e-6, "
        f"radical {worst_rad:.3e} <= 1e-10, complement min singular "
        f"{1.0 / worst_gap:.3e} > 1e-7, dimension mismatches {dim_bad:.0f}",
    )


def test_criterion_08_kks_and_fubini_study():
    kks = _rows("kks", M23, 500)
    fs = _rows("fubini-study", M23, 500)
    worst = _worst(_worst_rows(kks, tuple(kks)), _worst_rows(fs, tuple(fs)))
    ok = _all_pass(kks, tuple(kks)) and _all_pass(fs, tuple(fs))
    # Rank-one orbit form scales linearly in the radius.
    rng = sampling.Stream((8, 0), range(100))
    scaling = 0.0
    deltas = sampling.random_unit_vector(5, rng)
    xs, ys = (sampling.complex_normal(rng, (5,)) for _ in range(2))
    for delta, x, y in zip(deltas, xs, ys):
        base = fubini_study_compare(1.0, delta, x, y, DEFAULT_TOL).omega
        for r in (0.5, 1.0, 2.0):
            got = fubini_study_compare(r, delta, x, y, DEFAULT_TOL).omega
            scaling = _worst(scaling, abs(got - r * base))
    _verdict(
        8,
        "orbit form matches the scaled Fubini-Study form, with radius "
        "scaling over r in {0.5, 1, 2} and the pair-groupoid identity",
        ok and worst <= 1e-10 and scaling <= 1e-10,
        f"max residual {worst:.3e} <= 1e-10, scaling defect {scaling:.3e}",
    )


def test_criterion_09_modular_flow():
    auto_names = ("automorphism", "symplectic", "cone", "orbit-invariants", "orbit-form")
    worst_auto, worst_tomita, worst_law = 0.0, 0.0, 0.0
    ok = True
    for algebra in (M2, M23):
        rows = _rows("modular-flow", algebra, 200)
        worst_auto = _worst(worst_auto, _worst_rows(rows, auto_names))
        worst_tomita = _worst(worst_tomita, rows["tomita"].max_residual)
        worst_law = _worst(worst_law, rows["group-law"].max_residual)
        ok = ok and _all_pass(rows, auto_names + ("tomita", "group-law"))
    _verdict(
        9,
        "modular flow acts by automorphisms preserving the symplectic form, "
        "the cone, and orbit invariants at t in {0, +-0.3, +-1.7}",
        ok and worst_auto <= 1e-9 and worst_tomita <= 1e-10
        and worst_law <= 1e-10,
        f"automorphism {worst_auto:.3e} <= 1e-9, conjugation identity "
        f"{worst_tomita:.3e} and flow composition {worst_law:.3e} <= 1e-10",
    )


def test_criterion_10_charts():
    soft = ("round-trip", "cocycle", "theta")
    hard = ("transition-oracle", "connection")
    worst_soft, worst_hard = 0.0, 0.0
    ok = True
    for algebra in (M2, M23):
        rows = _rows("charts", algebra, 500)
        worst_soft = _worst(worst_soft, _worst_rows(rows, soft))
        worst_hard = _worst(worst_hard, _worst_rows(rows, hard))
        ok = ok and _all_pass(rows, soft + hard)
    _verdict(
        10,
        "chart round trips, transition cocycle, and corner fixed points over "
        "500 instances per chart family",
        ok and worst_soft <= 1e-9 and worst_hard <= 1e-10,
        f"round-trip/cocycle/corner {worst_soft:.3e} <= 1e-9, "
        f"transition oracle {worst_hard:.3e} <= 1e-10",
    )


def test_criterion_11_orbit_structure():
    rng = sampling.Stream((11, 0), [0])
    agreement = True
    witness_worst = 0.0
    for k in range(1000):
        algebra = ALGEBRAS[k % len(ALGEBRAS)]
        p = sampling.random_projection(algebra, rng)[0]
        if k % 2 == 0:
            q = sampling.equivalent_frames(rng, sampling.frames_of(algebra, p)).projection[0]
        else:
            q = sampling.random_projection(algebra, rng)[0]
        mvn = mvn_equivalent(algebra, p, q, DEFAULT_TOL)
        uni = unitary_equivalent(algebra, p, q, DEFAULT_TOL)
        agreement = agreement and (mvn == uni)
        if mvn:
            w = mvn_witness(algebra, p, q, DEFAULT_TOL)
            witness_worst = _worst(
                witness_worst,
                frobenius(w.conj().T @ w - p),
                frobenius(w @ w.conj().T - q),
            )
        else:
            with pytest.raises(InvalidArrow):
                mvn_witness(algebra, p, q, DEFAULT_TOL)

    def spectra_match(phi1, phi2) -> bool:
        inv1 = orbit_invariant(phi1, DEFAULT_TOL)
        inv2 = orbit_invariant(phi2, DEFAULT_TOL)
        if tuple(len(v) for v in inv1) != tuple(len(v) for v in inv2):
            return False
        return all(
            abs(a - b) <= 1e-10
            for v1, v2 in zip(inv1, inv2)
            for a, b in zip(v1, v2)
        )

    orbit_agreement = True
    for k in range(300):
        algebra = ALGEBRAS[k % len(ALGEBRAS)]
        frames = sampling.random_frames(algebra, rng, allow_zero=False)
        support = frames.projection[0]
        phi1 = sampling.density_on(rng, frames)[0]
        if k % 2 == 0:
            target = sampling.equivalent_frames(rng, frames).projection[0]
            u = sampling.sample_with_retry(
                lambda: sampling.partial_isometry_onto(
                    algebra, rng, support, target
                )[0]
            )
            phi2 = coadjoint_apply(u, phi1, DEFAULT_TOL)
        else:
            phi2 = sampling.random_density(algebra, rng)[0]
        orbit_agreement = orbit_agreement and (
            orbit_equivalent(phi1, phi2, DEFAULT_TOL) == spectra_match(phi1, phi2)
        )
    _verdict(
        11,
        "projection equivalence notions agree on 1000 pairs and orbit "
        "membership matches blockwise nonzero spectra",
        agreement and orbit_agreement and witness_worst <= 1e-10,
        f"exact boolean agreement, witness residual {witness_worst:.3e} "
        f"<= 1e-10",
    )


def test_criterion_12_conditional_expectation():
    worst = 0.0
    dims_exact, ok = True, True
    for algebra in ALGEBRAS:
        rows = _rows("modular-flow", algebra, 200)
        worst = _worst(worst, rows["conditional-expectation"].max_residual)
        ok = ok and _all_pass(rows, ("conditional-expectation", "dimensions"))

        units = algebra.embed_stacks(
            (s, matrix_units(np.eye(n), np.eye(n))) for s, n in zip(algebra.slices, algebra.blocks)
        )
        total = len(units)
        rng = sampling.Stream((12, *algebra.blocks), [0])
        for _ in range(25):
            phi = sampling.random_density(algebra, rng, repeat_chance=0.5)[0]
            # The pinching map as a complex-linear operator in the matrix-unit
            # basis, which is orthonormal for the trace pairing.
            mat = np.empty((total, total), dtype=complex)
            for j, unit in enumerate(units):
                image = conditional_expectation(phi, unit, DEFAULT_TOL)
                mat[:, j] = [np.trace(e.conj().T @ image) for e in units]
            worst = _worst(worst, float(np.linalg.norm(mat @ mat - mat, 2)))
            rank = int(np.linalg.matrix_rank(mat, tol=0.5))
            corank = int(np.linalg.matrix_rank(np.eye(total) - mat, tol=0.5))
            dims_exact = dims_exact and rank + corank == total
            dims_exact = dims_exact and rank == realified_rank(
                centralizer_basis(phi, DEFAULT_TOL)
            )
            x = sampling.random_element(algebra, rng)[0]
            worst = _worst(
                worst, abs(phi(conditional_expectation(phi, x, DEFAULT_TOL)) - phi(x))
            )
            pos = conditional_expectation(phi, x.conj().T @ x, DEFAULT_TOL)
            low = float(np.linalg.eigvalsh((pos + pos.conj().T) / 2.0).min())
            worst = _worst(worst, 0.0, -low)
    _verdict(
        12,
        "density pinching is an idempotent, state-preserving, positive "
        "expectation whose range and kernel dimensions add exactly",
        ok and worst <= 1e-10 and dims_exact,
        f"max residual {worst:.3e} <= 1e-10, rank additivity exact",
    )
