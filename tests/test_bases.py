"""The bases built on ``antihermitian_units`` and ``matrix_units`` against the
loop builders they replaced.  Those builders are kept here as references:
each places every element into its own zero matrix of the ambient
dimension, one per-cluster loop at a time.  The masked slot grids hold what
the builders build: the centralizer byte for byte and in the same order,
the stabilizer and the bundle tangents as the same real span, the pinching
as the same map, and the degeneracy form's per-block singular values as
those of the ambient pairing.  An ``ast`` scan keeps rank-one products out
of the rest of the package."""
import ast
import pathlib

import numpy as np
import pytest

from wstargeo import sampling, suites
from wstargeo.algebra import (
    BlockAlgebra,
    NormalFunctional,
    antihermitian_units,
    centralizer_basis,
    cluster_pattern,
    combination,
    conditional_expectation,
    density_spectrum,
    functional_support,
    matrix_units,
    stabilizer_lie_algebra,
)
from wstargeo.errors import AmbiguousCluster
from wstargeo.linalg import (
    DEFAULT_TOL,
    GUARD_FACTOR,
    frobenius,
    herm,
    hermitian_eig,
    projection_rank,
    realified_rank,
    singular_values,
)
from wstargeo.poisson import _form_spectrum, _leg_directions, _orbit_form

# ---------------------------------------------------------------------------
# reference builders


def _ref_eigen_clusters(w, rel_gap):
    """Index lists of the clusters of a descending sequence of positive
    values: a new cluster wherever a gap exceeds ``rel_gap * max |w|``, and
    a gap within ``GUARD_FACTOR`` of that threshold refused."""
    if w.size == 0:
        return []
    threshold = rel_gap * float(np.max(np.abs(w)))
    clusters = [[0]]
    for i in range(1, w.size):
        gap = w[i - 1] - w[i]
        if threshold / GUARD_FACTOR <= gap <= GUARD_FACTOR * threshold:
            raise AmbiguousCluster("ambiguous gap")
        if gap > threshold:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    return clusters


def _ref_clusters(phi, tol):
    """Per block: the retained values clustered at the block's scale, then
    the kernel as one cluster."""
    cutoff = density_spectrum(phi, tol).cutoff
    algebra = phi.algebra
    out = []
    for s, b in zip(algebra.slices, algebra.block_views(herm(phi.density))):
        w, v = hermitian_eig(b)
        r = int(np.count_nonzero(w > cutoff))
        clusters = _ref_eigen_clusters(w[:r], tol.rank_rel_tol)
        if r < len(w):
            clusters.append(list(range(r, len(w))))
        out.append((s, w, v, clusters, cutoff))
    return out


def _ref_coordinate_units(algebra):
    units = []
    for s in algebra.slices:
        for i in range(s.start, s.stop):
            for j in range(s.start, s.stop):
                e = algebra.zero()
                e[i, j] = 1.0
                units.append(e)
    return units


def _ref_hermitian_units(algebra):
    out = []
    for s in algebra.slices:
        for i in range(s.start, s.stop):
            e = algebra.zero()
            e[i, i] = 1.0
            out.append(e)
            for j in range(i + 1, s.stop):
                e = algebra.zero()
                e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
                out.append(e)
                e = algebra.zero()
                e[i, j] = -1j / np.sqrt(2.0)
                e[j, i] = 1j / np.sqrt(2.0)
                out.append(e)
    return out


def _ref_centralizer_basis(phi, tol):
    algebra = phi.algebra
    basis = []
    for s, w, v, clusters, cutoff in _ref_clusters(phi, tol):
        for cluster in clusters:
            if w[cluster[0]] <= cutoff:
                continue
            for i in cluster:
                for j in cluster:
                    e = algebra.zero()
                    e[s, s] = np.outer(v[:, i], v[:, j].conj())
                    basis.append(e)
    return basis


def _ref_stabilizer_basis(phi, tol):
    algebra = phi.algebra
    basis = []
    for s, w, v, clusters, cutoff in _ref_clusters(phi, tol):
        for cluster in clusters:
            if w[cluster[0]] <= cutoff:
                continue
            for a_pos, i in enumerate(cluster):
                e = algebra.zero()
                e[s, s] = 1j * np.outer(v[:, i], v[:, i].conj())
                basis.append(e)
                for j in cluster[a_pos + 1 :]:
                    m = np.outer(v[:, i], v[:, j].conj())
                    e = algebra.zero()
                    e[s, s] = (m - m.conj().T) / np.sqrt(2.0)
                    basis.append(e)
                    e = algebra.zero()
                    e[s, s] = 1j * (m + m.conj().T) / np.sqrt(2.0)
                    basis.append(e)
    return basis


def _ref_pinching_projections(phi, tol):
    algebra = phi.algebra
    projections = []
    for s, _, v, clusters, _ in _ref_clusters(phi, tol):
        for cluster in clusters:
            cols = v[:, cluster]
            e = algebra.zero()
            e[s, s] = cols @ cols.conj().T
            projections.append(e)
    return projections


def _ref_bundle_tangent_basis(algebra, u, p0):
    q = u @ u.conj().T
    basis = []
    n_amb = algebra.dim
    for sl, n in zip(algebra.slices, algebra.blocks):
        p_blk = p0[sl, sl]
        q_blk = q[sl, sl]
        r = projection_rank(p_blk)
        if r == 0:
            continue
        _, vp = hermitian_eig(p_blk)
        _, vq = hermitian_eig(q_blk)
        cols_p = vp[:, :r]
        cols_qc = vq[:, r:]

        def embed(mat, sl=sl):
            full = np.zeros((n_amb, n_amb), dtype=complex)
            full[sl, sl] = mat
            return full

        for a in range(r):
            va = cols_p[:, a]
            basis.append(u @ embed(1j * np.outer(va, va.conj())))
            for b in range(a + 1, r):
                vb = cols_p[:, b]
                m = np.outer(va, vb.conj())
                basis.append(u @ embed((m - m.conj().T) / np.sqrt(2.0)))
                basis.append(u @ embed(1j * (m + m.conj().T) / np.sqrt(2.0)))
        for a in range(cols_qc.shape[1]):
            wa = cols_qc[:, a]
            for b in range(r):
                vb = cols_p[:, b]
                m = np.outer(wa, vb.conj())
                basis.append(embed(m))
                basis.append(embed(1j * m))
    return basis


# ---------------------------------------------------------------------------
# densities


def _rotated(rng, spectra):
    """Block densities q diag(spectrum) q* with Haar q, one per block."""
    mats = []
    for spectrum in spectra:
        q = sampling.random_unitary(BlockAlgebra((len(spectrum),)), rng)[0]
        mats.append((q * np.asarray(spectrum, dtype=float)) @ q.conj().T)
    return mats


def _generic_23():
    rng = sampling.Stream((2301,), [0])
    algebra = BlockAlgebra((2, 3))
    return NormalFunctional(algebra, algebra.embed_blocks(_rotated(rng, [[0.9, 0.4], [1.7, 1.1, 0.6]])))


def _repeated_4():
    rng = sampling.Stream((401,), [0])
    algebra = BlockAlgebra((4,))
    return NormalFunctional(algebra, algebra.embed_blocks(_rotated(rng, [[1.5, 1.5, 1.5, 0.5]])))


def _zero_block_221():
    rng = sampling.Stream((2211,), [0])
    algebra = BlockAlgebra((2, 2, 1))
    mats = _rotated(rng, [[0.8, 0.8], [0.0, 0.0], [0.3]])
    return NormalFunctional(algebra, algebra.embed_blocks(mats))


def _rank_deficient_23():
    rng = sampling.Stream((2302,), [0])
    algebra = BlockAlgebra((2, 3))
    mats = _rotated(rng, [[1.2, 0.0], [0.7, 0.7, 0.0]])
    return NormalFunctional(algebra, algebra.embed_blocks(mats))


#: Name -> (density, stabilizer dimension: the sum of the squared
#: multiplicities of the positive eigenvalues).
DENSITIES = {
    "2,3": (_generic_23, 5),
    "4-repeated": (_repeated_4, 10),
    "2,2,1-zero-block": (_zero_block_221, 5),
    "2,3-rank-deficient": (_rank_deficient_23, 5),
}


def _same_span(got, want):
    """Both stacks span the same real subspace, of dimension ``len(want)``."""
    want = np.asarray(want).reshape(-1, *np.shape(got)[-2:])
    ranks = [realified_rank(m) for m in (got, want, np.concatenate([got, want]))]
    assert ranks == [len(want)] * 3


def _leg_tangents(rho0, w):
    """The tangent directions at the leg ``w`` of one base, in the algebra:
    each block's kept slots of :func:`_leg_directions`."""
    spectrum = density_spectrum(rho0, DEFAULT_TOL)
    parts = []
    for (s, _, v), r in zip(spectrum.blocks, spectrum.ranks):
        directions, kept = _leg_directions(w[s, s], v, r)
        parts.append((s, directions[kept]))
    return rho0.algebra.embed_stacks(parts)


def _same_bytes(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), k
        assert a.tobytes() == b.tobytes(), k


@pytest.fixture(params=sorted(DENSITIES))
def phi(request):
    return DENSITIES[request.param][0]()


class TestStackedBases:
    """A stack of functionals of any cluster patterns gives each functional
    the bytes of its own bases and pinching; the pattern and the dimension
    are read per functional of any stack."""

    @staticmethod
    def _each_alone(alone):
        stack = NormalFunctional(alone[0].algebra, np.stack([f.density for f in alone]))
        x = sampling.random_element(stack.algebra, sampling.Stream((78,), [0]))[0]
        for k, f in enumerate(alone):
            _same_bytes(
                stabilizer_lie_algebra(stack, DEFAULT_TOL).basis[k],
                stabilizer_lie_algebra(f, DEFAULT_TOL).basis,
            )
            _same_bytes(centralizer_basis(stack, DEFAULT_TOL)[k], centralizer_basis(f, DEFAULT_TOL))
            _same_bytes(
                [conditional_expectation(stack, x, DEFAULT_TOL)[k]],
                [conditional_expectation(f, x, DEFAULT_TOL)],
            )
        return stack

    def test_one_pattern(self, phi):
        u = sampling.random_unitary(phi.algebra, sampling.Stream((77,), [0]))[0]
        densities = [phi.density, u @ phi.density @ u.conj().T]
        alone = [NormalFunctional(phi.algebra, d) for d in densities]
        stack = self._each_alone(alone)
        assert stack.density.shape[0] == 2
        np.testing.assert_array_equal(
            cluster_pattern(stack, DEFAULT_TOL), [cluster_pattern(f, DEFAULT_TOL) for f in alone]
        )

    def test_several_patterns(self):
        alone = [_generic_23(), _rank_deficient_23()]
        stack = self._each_alone(alone)
        patterns = cluster_pattern(stack, DEFAULT_TOL)
        np.testing.assert_array_equal(patterns, [cluster_pattern(f, DEFAULT_TOL) for f in alone])
        assert patterns[0].tolist() != patterns[1].tolist()
        stab = stabilizer_lie_algebra(stack, DEFAULT_TOL)
        assert stab.basis.shape == (2, 13, 5, 5)
        assert stab.dimension.tolist() == [5, 5]
        assert stab.mask[0].tolist() != stab.mask[1].tolist()

    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_dimension(self, name):
        make, dimension = DENSITIES[name]
        assert stabilizer_lie_algebra(make(), DEFAULT_TOL).dimension == dimension


class TestBasesMatchTheLoopBuilders:
    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_densities_have_their_multiplicities(self, name):
        make, dimension = DENSITIES[name]
        assert len(_ref_stabilizer_basis(make(), DEFAULT_TOL)) == dimension

    def test_stabilizer(self, phi):
        stab = stabilizer_lie_algebra(phi, DEFAULT_TOL)
        _same_span(stab.basis, _ref_stabilizer_basis(phi, DEFAULT_TOL))
        assert not stab.basis[~stab.mask].any()

    def test_centralizer(self, phi):
        # The mask keeps the units cluster by cluster, as the loop adds them.
        mask = stabilizer_lie_algebra(phi, DEFAULT_TOL).mask
        _same_bytes(centralizer_basis(phi, DEFAULT_TOL)[mask], _ref_centralizer_basis(phi, DEFAULT_TOL))

    def test_pinching(self, phi):
        q = np.array(_ref_pinching_projections(phi, DEFAULT_TOL))
        assert np.allclose(q.sum(axis=0), np.eye(phi.algebra.dim), atol=1e-14)
        for k in range(3):
            x = sampling.random_element(phi.algebra, sampling.Stream((79, k), [0]))[0]
            want = (q @ x @ q).sum(axis=0)
            assert frobenius(conditional_expectation(phi, x, DEFAULT_TOL) - want) <= 1e-14

    def test_coordinate_and_hermitian_units(self, phi):
        # The complex matrix units, as the tests that need them build them.
        algebra = phi.algebra
        units = algebra.embed_stacks(
            (s, matrix_units(np.eye(n), np.eye(n))) for s, n in zip(algebra.slices, algebra.blocks)
        )
        _same_bytes(units, _ref_coordinate_units(algebra))
        _same_bytes(algebra.hermitian_units(), _ref_hermitian_units(algebra))

    def test_bundle_tangent_basis(self, phi):
        algebra = phi.algebra
        p0 = functional_support(phi, DEFAULT_TOL)
        u = sampling.random_unitary(algebra, sampling.Stream((5,), [0]))[0] @ p0
        _same_span(_leg_tangents(phi, u), _ref_bundle_tangent_basis(algebra, u, p0))


#: The shapes on which the masked grids of random draws are checked against
#: the loop builders, trial by trial.
SHAPES = ("1", "2,3", "1,2,2", "4,4,4,4")


def _degeneracy_draw(shape, trials=8):
    """The degeneracy row's draw: per trial a density on a support (half of
    them with a flat spectrum there) and two legs from it."""
    algebra = BlockAlgebra.from_string(shape)
    ctx = suites.RowCtx(algebra, trials, 41, 0, DEFAULT_TOL)
    d0, u, v = suites._draw_degeneracy(ctx, ctx.stream())
    return algebra, d0, u, v


@pytest.mark.parametrize("shape", SHAPES)
class TestMaskedGridsPerTrial:
    def test_stabilizer_and_centralizer(self, shape):
        algebra, d0, _, _ = _degeneracy_draw(shape)
        stack = NormalFunctional(algebra, d0)
        stab = stabilizer_lie_algebra(stack, DEFAULT_TOL)
        assert algebra.dim == 1 or len(set(stab.dimension.tolist())) > 1
        for k, d in enumerate(d0):
            phi = NormalFunctional(algebra, d)
            _same_span(stab.basis[k], _ref_stabilizer_basis(phi, DEFAULT_TOL))
            _same_span(stab.centralizer[k], _ref_centralizer_basis(phi, DEFAULT_TOL))
            assert stab.dimension[k] == len(_ref_stabilizer_basis(phi, DEFAULT_TOL))

    def test_combination(self, shape):
        # A combination read off the eigenvectors is the sum over the built
        # basis, slot by slot; the coefficients off the mask add nothing.
        algebra, d0, _, _ = _degeneracy_draw(shape)
        stab = stabilizer_lie_algebra(NormalFunctional(algebra, d0), DEFAULT_TOL)
        rng = sampling.Stream((80,), [0])
        for centralizer, basis in ((False, stab.basis), (True, stab.centralizer)):
            z = sampling.complex_normal(rng, stab.mask.shape)[0]
            coeff = z.real + centralizer * 1j * z.imag
            want = np.einsum("tk,tkij->tij", coeff, basis)
            got = combination(coeff, stab, centralizer)
            assert np.max(frobenius(got - want)) <= 1e-13
            np.testing.assert_array_equal(got, combination(np.where(stab.mask, coeff, 7.0), stab, centralizer))

    def test_degeneracy_singular_values(self, shape):
        # Per trial, both legs' per-block forms on their slot grids have the
        # singular values of the ambient pairing on the loop-built tangent
        # bases, with one zero more per masked slot, and so does the closed
        # form read off the density's eigenvalues.
        algebra, d0, u, v = _degeneracy_draw(shape)
        for k, d in enumerate(d0):
            rho0 = NormalFunctional(algebra, d)
            p0 = functional_support(rho0, DEFAULT_TOL)
            spectrum = density_spectrum(rho0, DEFAULT_TOL)
            ours, closed, masked = [], [], 0
            for w in (u[k], v[k]):
                for (s, values, vectors), r in zip(spectrum.blocks, spectrum.ranks):
                    directions, kept = _leg_directions(w[s, s], vectors, r)
                    ours.append(singular_values(_orbit_form(directions, d[s, s], DEFAULT_TOL)))
                    closed.append(_form_spectrum(values, r)[0])
                    masked += np.count_nonzero(~kept)
            ours = np.sort(np.concatenate(ours))[::-1]
            assert np.max(np.abs(np.sort(np.concatenate(closed))[::-1] - ours)) <= 1e-12
            ambient = []
            for w, sign in ((u[k], 1.0), (v[k], -1.0)):
                basis = np.array(_ref_bundle_tangent_basis(algebra, w, p0))
                flat = basis.reshape(len(basis), -1)
                t = flat.conj() @ (basis @ d).reshape(flat.shape).T
                ambient.append(sign * (1j * (t - t.T)).real)
            m = len(ambient[0])
            pairing = np.zeros((m + len(ambient[1]),) * 2)
            pairing[:m, :m], pairing[m:, m:] = ambient
            want = np.linalg.svd(pairing, compute_uv=False)
            assert len(ours) == len(want) + masked
            assert np.max(np.abs(ours[: len(want)] - want), initial=0.0) <= 1e-12
            assert np.max(ours[len(want):], initial=0.0) <= 1e-12


class TestConstructors:
    def test_antihermitian_units_are_orthonormal_and_antihermitian(self):
        cols = sampling.random_unitary(BlockAlgebra((4,)), sampling.Stream((3,), [0]))[0, :, :3]
        units = np.array(antihermitian_units(cols))
        assert units.shape == (9, 4, 4)
        assert np.allclose(units, -units.conj().transpose(0, 2, 1))
        flat = units.reshape(len(units), -1)
        assert np.allclose((flat.conj() @ flat.T).real, np.eye(9))

    def test_matrix_units_order(self):
        left = np.eye(3)[:, :2]
        right = np.eye(2)
        units = matrix_units(left, right)
        assert units.shape == (4, 3, 2)
        for k, (a, b) in enumerate((a, b) for a in range(2) for b in range(2)):
            want = np.zeros((3, 2))
            want[a, b] = 1.0
            assert np.array_equal(units[k], want)

    def test_empty_column_sets(self):
        assert antihermitian_units(np.zeros((3, 0))).shape == (0, 3, 3)
        assert matrix_units(np.zeros((3, 0)), np.eye(3)).shape == (0, 3, 3)


# ---------------------------------------------------------------------------
# rank-one products stay in the constructors

#: The functions allowed to call ``np.outer``: the two basis constructors.
OUTER_SITES = {
    "algebra.matrix_units",
    "algebra.antihermitian_units",
}


def _is_numpy_outer(func: ast.expr) -> bool:
    """``np.outer``, ``numpy.outer``, ``np.multiply.outer`` or a bare
    ``outer`` imported from NumPy."""
    if isinstance(func, ast.Name):
        return func.id == "outer"
    if not (isinstance(func, ast.Attribute) and func.attr == "outer"):
        return False
    base = func.value
    while isinstance(base, ast.Attribute):
        base = base.value
    return isinstance(base, ast.Name) and base.id in ("np", "numpy")


def _outer_sites(source: str, module: str) -> set[str]:
    """``module.function`` (or ``module.Class.method``) for each top-level
    definition in ``source`` that calls ``np.outer``, nested functions
    included; a call outside any definition counts as the module's."""
    found = set()
    for node in ast.parse(source).body:
        scopes = [(node, [])]
        if isinstance(node, ast.ClassDef):
            scopes = [(item, [node.name]) for item in node.body]
        for top, prefix in scopes:
            name = getattr(top, "name", None)
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = None
            for sub in ast.walk(top):
                if isinstance(sub, ast.Call) and _is_numpy_outer(sub.func):
                    found.add(".".join([module] + prefix + ([name] if name else [])))
    return found


class TestRankOneProductsStayInTheConstructors:
    def test_scanner_finds_outer_products(self):
        source = (
            "a = np.outer(x, y)\n"
            "def f(x):\n"
            "    def g():\n"
            "        return numpy.outer(x, x)\n"
            "    return g\n"
            "class C:\n"
            "    def m(self, x):\n"
            "        return np.multiply.outer(x, x)\n"
            "    def n(self, x):\n"
            "        return outer(x, x)\n"
            "def clean(x, v):\n"
            "    return np.inner(x, x) + v.outer(x)\n"
        )
        assert _outer_sites(source, "mod") == {"mod", "mod.f", "mod.C.m", "mod.C.n"}

    def test_only_the_constructors_form_rank_one_products(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "wstargeo"
        modules = sorted(src.glob("*.py"))
        assert modules
        found = set().union(
            *(_outer_sites(p.read_text(encoding="utf-8"), p.stem) for p in modules)
        )
        assert found <= OUTER_SITES
