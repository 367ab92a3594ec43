"""The corner bases built on ``antihermitian_units`` and ``matrix_units`` are
byte-identical, element for element and in the same order, to the loop
builders they replaced.  Those builders are kept here as references: each
places every element into its own zero matrix of the ambient dimension.  An
``ast`` scan keeps rank-one products out of the rest of the package."""
import ast
import pathlib

import numpy as np
import pytest

from wstargeo import sampling
from wstargeo.algebra import (
    BlockAlgebra,
    NormalFunctional,
    antihermitian_units,
    centralizer_basis,
    density_spectrum,
    functional_support,
    matrix_units,
    pinching_projections,
    stabilizer_lie_algebra,
)
from wstargeo.linalg import (
    DEFAULT_TOL,
    eigen_clusters,
    herm,
    hermitian_eig,
    projection_rank,
)
from wstargeo.poisson import _bundle_tangent_basis

# ---------------------------------------------------------------------------
# reference builders


def _ref_clusters(phi, tol):
    cutoff = tol.rank_rel_tol * float(density_spectrum(phi, tol).values[0])
    algebra = phi.algebra
    out = []
    for s, b in zip(algebra.slices, algebra.block_views(herm(phi.density))):
        w, v = hermitian_eig(b)
        out.append((s, w, v, eigen_clusters(w, tol.rank_rel_tol), cutoff))
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
        q = sampling.haar_unitary(rng, len(spectrum))
        mats.append((q * np.asarray(spectrum, dtype=float)) @ q.conj().T)
    return mats


def _generic_23():
    rng = np.random.default_rng(2301)
    algebra = BlockAlgebra((2, 3))
    return NormalFunctional(algebra, algebra.embed_blocks(_rotated(rng, [[0.9, 0.4], [1.7, 1.1, 0.6]])))


def _repeated_4():
    rng = np.random.default_rng(401)
    algebra = BlockAlgebra((4,))
    return NormalFunctional(algebra, algebra.embed_blocks(_rotated(rng, [[1.5, 1.5, 1.5, 0.5]])))


def _zero_block_221():
    rng = np.random.default_rng(2211)
    algebra = BlockAlgebra((2, 2, 1))
    mats = _rotated(rng, [[0.8, 0.8], [0.0, 0.0], [0.3]])
    return NormalFunctional(algebra, algebra.embed_blocks(mats))


def _rank_deficient_23():
    rng = np.random.default_rng(2302)
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


def _same_bytes(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), k
        assert a.tobytes() == b.tobytes(), k


@pytest.fixture(params=sorted(DENSITIES))
def phi(request):
    return DENSITIES[request.param][0]()


class TestBasesMatchTheLoopBuilders:
    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_densities_have_their_multiplicities(self, name):
        make, dimension = DENSITIES[name]
        assert len(_ref_stabilizer_basis(make(), DEFAULT_TOL)) == dimension

    def test_stabilizer(self, phi):
        _same_bytes(
            stabilizer_lie_algebra(phi, DEFAULT_TOL).basis,
            _ref_stabilizer_basis(phi, DEFAULT_TOL),
        )

    def test_centralizer(self, phi):
        _same_bytes(centralizer_basis(phi, DEFAULT_TOL), _ref_centralizer_basis(phi, DEFAULT_TOL))

    def test_pinching(self, phi):
        _same_bytes(
            pinching_projections(phi, DEFAULT_TOL), _ref_pinching_projections(phi, DEFAULT_TOL)
        )

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
        u = sampling.random_unitary(algebra, np.random.default_rng(5)) @ p0
        _same_bytes(
            _bundle_tangent_basis(algebra, u, p0), _ref_bundle_tangent_basis(algebra, u, p0)
        )


class TestConstructors:
    def test_antihermitian_units_are_orthonormal_and_antihermitian(self):
        cols = sampling.haar_unitary(np.random.default_rng(3), 4)[:, :3]
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
        assert antihermitian_units(np.zeros((3, 0))) == []
        assert matrix_units(np.zeros((3, 0)), np.eye(3)).shape == (0, 3, 3)


# ---------------------------------------------------------------------------
# rank-one products stay in the constructors

#: The functions allowed to call ``np.outer``: the two basis constructors and
#: the rank-one Fubini–Study instances, which build single vectors' products.
OUTER_SITES = {
    "algebra.matrix_units",
    "algebra.antihermitian_units",
    "poisson.fubini_study_compare",
    "poisson.pair_groupoid_fs_residual",
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
        assert {"poisson.fubini_study_compare", "poisson.pair_groupoid_fs_residual"} <= found
