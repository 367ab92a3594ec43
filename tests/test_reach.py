"""Every top-level function and class of ``wstargeo`` is reached from what the
program runs.

The roots are the module-level statements of each module (the suite and
groupoid registries, ``__main__``), ``cli.main``, the functions the
benchmark's tracer wraps and the ``wstargeo`` names the benchmark's files use
(its workloads and correctness checks).  A reached body reaches each name, and each ``module.attribute``, that
resolves through its module's imports to a top-level definition; a class is
reached as a whole.  An import reaches nothing by itself, so neither do
``__init__``'s exports: its ``_EXPORTS`` table binds each name to its
submodule's definition, and its PEP 562 hooks ``__getattr__`` and ``__dir__``
are roots.  The sources are read with ``ast`` and the tracer
with ``runpy``, as ``test_tracer_targets.py`` does; nothing under
``perfbench/`` is imported or written.  Without the benchmark's roots,
exactly :data:`BENCHMARK_ONLY` is left unreached.
"""
import ast
import pathlib
import runpy

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wstargeo"
PERFBENCH = ROOT / "perfbench"
PACKAGE = "wstargeo"
#: The package's table of public names by defining submodule.
EXPORTS = "_EXPORTS"
#: Module-level functions that Python itself calls (PEP 562).
MODULE_HOOKS = ("__getattr__", "__dir__")
#: The definitions that only the benchmark's tracer and files reach: the
#: wrappers it still calls, which no test or demo but :data:`WRAPPER_TESTS`
#: may name.
BENCHMARK_ONLY = {
    "algebra.frames_of",
    "groupoids.AxiomReport",
    "groupoids.axiom_check",
    "sampling.corner_positive",
    "sampling.partial_isometry_onto",
    "standard.fiber_kernel_E",
    "standard.fiber_kernel_Eprime",
}
WRAPPER_TESTS = ("test_benchmark_api.py", "test_reach.py")


class _Module:
    """Top-level definitions and import bindings of one module."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.defs = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        # local name -> (module, attribute) and local name -> module
        self.imported: dict[str, tuple[str, str]] = {}
        self.modules: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        self.modules[local] = alias.name
                    else:
                        self.imported[local] = (node.module, alias.name)
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets) == EXPORTS:
                for module, names in ast.literal_eval(node.value).items():
                    self.imported.update((name, (module, name)) for name in names)


def _load(directory: pathlib.Path) -> dict[str, _Module]:
    return {p.stem: _Module(ast.parse(p.read_text())) for p in sorted(directory.glob("*.py"))}


def _resolve(mods: dict[str, _Module], module: str, name: str) -> tuple[str, str] | None:
    """The top-level definition ``name`` means in ``module``, following
    re-imports."""
    seen = set()
    while (module, name) not in seen and module in mods:
        seen.add((module, name))
        mod = mods[module]
        if name in mod.defs:
            return module, name
        if name not in mod.imported:
            return None
        module, name = mod.imported[name]
    return None


def _references(mods: dict[str, _Module], module: str, node: ast.AST) -> set[tuple[str, str]]:
    mod = mods[module]
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            hit = _resolve(mods, module, sub.id)
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in mod.modules
        ):
            hit = _resolve(mods, mod.modules[sub.value.id], sub.attr)
        else:
            continue
        if hit is not None:
            out.add(hit)
    return out


def _tracer_roots() -> set[tuple[str, str]]:
    tracer = runpy.run_path(str(PERFBENCH / "tracer.py"))
    targets = {t for targets in tracer["SPANS"].values() for t in targets}
    return {(m.split(".", 1)[1], a) for m, a in targets if m.startswith(PACKAGE + ".")}


def _perfbench_roots(mods: dict[str, _Module]) -> set[tuple[str, str]]:
    """``(module, name)`` for each ``wstargeo`` name a benchmark file uses:
    imported from a module, or read as ``wstargeo.name``,
    ``wstargeo.module.name`` or ``module.name`` with the module imported
    from the package."""
    roots = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == PACKAGE:
                for a in node.names:
                    if a.name in mods:
                        aliases[a.asname or a.name] = a.name
                    else:
                        roots.add(("__init__", a.name))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(PACKAGE + "."):
                roots.update((node.module.split(".", 1)[1], a.name) for a in node.names)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                roots.add((aliases[base.id], node.attr))
            elif isinstance(base, ast.Name) and base.id == PACKAGE and node.attr not in mods:
                roots.add(("__init__", node.attr))
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == PACKAGE
            ):
                roots.add((base.attr, node.attr))
    return roots


def unreached(mods: dict[str, _Module], benchmark: bool = True) -> list[str]:
    """Names ``module.definition`` that no root reaches (without the
    benchmark's, the program's own roots)."""
    frontier = set()
    for module, mod in mods.items():
        for stmt in mod.tree.body:
            if not isinstance(
                stmt,
                (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                frontier |= _references(mods, module, stmt)
    roots = {("cli", "main")} | {(module, hook) for module in mods for hook in MODULE_HOOKS}
    if benchmark:
        roots |= _tracer_roots() | _perfbench_roots(mods)
    frontier |= {hit for hit in (_resolve(mods, m, a) for m, a in roots) if hit}
    reached = set()
    while frontier:
        module, name = frontier.pop()
        if (module, name) not in reached:
            reached.add((module, name))
            frontier |= _references(mods, module, mods[module].defs[name])
    return sorted(
        f"{module}.{name}"
        for module, mod in mods.items()
        for name in mod.defs
        if (module, name) not in reached
    )


def test_roots_resolve():
    mods = _load(SRC)
    tracer, used = _tracer_roots(), _perfbench_roots(mods)
    assert ("standard", "fiber_kernel_E") in tracer
    assert [r for r in tracer if _resolve(mods, *r) is None] == []
    assert {("linalg", "polar_decompose"), ("suites", "suite_rows"), ("suites", "_retry")} <= used
    assert _resolve(mods, "__init__", "BlockAlgebra") == ("algebra", "BlockAlgebra")
    assert _resolve(mods, "__init__", "run_suite") == ("suites", "run_suite")
    assert set(MODULE_HOOKS) <= set(mods["__init__"].defs)


def test_every_definition_is_reached():
    assert unreached(_load(SRC)) == []


def test_only_the_benchmark_reaches_its_api():
    assert set(unreached(_load(SRC), benchmark=False)) == BENCHMARK_ONLY


def test_no_test_or_demo_calls_the_benchmark_api():
    wrappers = {name.split(".")[1] for name in BENCHMARK_ONLY}
    found = {}
    for path in [*sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]:
        # each name read, imported or spelled as a (dotted) string
        names = {
            getattr(node, field).rsplit(".", 1)[-1]
            for node in ast.walk(ast.parse(path.read_text()))
            for field in ("id", "attr", "name", "value")
            if isinstance(getattr(node, field, None), str)
        }
        if path.name not in WRAPPER_TESTS and names & wrappers:
            found[path.name] = sorted(names & wrappers)
    assert found == {}


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names bound by a top-level ``from ... import`` in ``path`` that the
    file never reads."""
    tree = ast.parse(path.read_text())
    bound = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_imports():
    files = [
        p for directory in (SRC, ROOT / "tests", ROOT / "demos") for p in sorted(directory.glob("*.py"))
    ]
    found = {str(p.relative_to(ROOT)): names for p in files if (names := unused_imports(p))}
    assert found == {}
