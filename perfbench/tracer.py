"""Spans and counters recorded around the public functions of each layer.

The tracer patches functions from the benchmark side only: it replaces a
function object in every ``wstargeo`` module namespace that binds it (and, for
NumPy/SciPy kernels, on the library module itself), and puts the originals
back on :meth:`Tracer.restore`.  Nothing is patched in an untraced run.

A *span* records a name, the index of the enclosing span, a start and an end.
Spans stay in memory until :meth:`Tracer.write_spans`.  ``.s`` totals are the
inclusive time of the outermost active span of a name; ``.self_s`` totals
subtract the time covered by child spans.  Counters only count calls.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter

#: Span name -> (module, attribute) of the functions it wraps.  One name may
#: cover several functions (``standard.fiber_kernel`` is both expectations'
#: fibre kernels; ``io.load`` is both file loaders).
SPANS = {
    "charts.dGamma0": [("wstargeo.charts", "dGamma0")],
    "poisson.degeneracy_kernel_check": [("wstargeo.poisson", "degeneracy_kernel_check")],
    "standard.dual_pair_orthogonality_check": [
        ("wstargeo.standard", "dual_pair_orthogonality_check")
    ],
    "standard.fiber_kernel": [
        ("wstargeo.standard", "fiber_kernel_E"),
        ("wstargeo.standard", "fiber_kernel_Eprime"),
    ],
    "standard.std_mul": [("wstargeo.standard", "std_mul")],
    "linalg.svd": [("wstargeo.linalg", "svd")],
    "linalg.polar_decompose": [("wstargeo.linalg", "polar_decompose")],
    "linalg.partial_inverse": [("wstargeo.linalg", "partial_inverse")],
    "linalg.hermitian_eig": [("wstargeo.linalg", "hermitian_eig")],
    "linalg.restricted_power": [("wstargeo.linalg", "restricted_power")],
    "linalg.check_hermitian": [("wstargeo.linalg", "check_hermitian")],
    "linalg.frobenius": [("wstargeo.linalg", "frobenius")],
    "sampling.random_unitary": [("wstargeo.sampling", "random_unitary")],
    "sampling.partial_isometry_onto": [("wstargeo.sampling", "partial_isometry_onto")],
    "sampling.corner_positive": [("wstargeo.sampling", "corner_positive")],
    "sampling.random_projection": [("wstargeo.sampling", "random_projection")],
    "groupoids.axiom_check": [("wstargeo.groupoids", "axiom_check")],
    "groupoids.chain_law_residuals": [("wstargeo.groupoids", "chain_law_residuals")],
    "groupoids.composable_chain": [("wstargeo.groupoids", "composable_chain")],
    "algebra.stabilizer_lie_algebra": [("wstargeo.algebra", "stabilizer_lie_algebra")],
    "algebra.orbit_invariant": [("wstargeo.algebra", "orbit_invariant")],
    "io.load": [
        ("wstargeo.io", "load_algebra_spec"),
        ("wstargeo.io", "load_vectors"),
    ],
}

#: Counter name -> (module, attribute) of a library kernel; counted on the
#: library module, so every caller that looks it up there is seen.
KERNEL_COUNTS = {
    "numpy.svd": ("numpy.linalg", "svd"),
    "numpy.eigh": ("numpy.linalg", "eigh"),
    "numpy.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "numpy.qr": ("numpy.linalg", "qr"),
    "numpy.norm": ("numpy.linalg", "norm"),
    "scipy.expm": ("scipy.linalg", "expm"),
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        # Open spans: [span index, time covered by children].
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _span(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        clock = time.perf_counter
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.span_start)
            parent = stack[-1][0] if stack else -1
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                self.span_start[index] = start
                self.span_end[index] = end
                self.calls[name] += 1
                self.self_time[name] += duration - frame[1]
                if not active[name]:
                    self.inclusive[name] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every wstargeo module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wstargeo" or mod_name.startswith("wstargeo.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import wstargeo.suites
        from wstargeo.algebra import NormalFunctional

        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(importlib.import_module(mod_name), attr)
                self._replace_everywhere(original, self._span(name, original))
        for name, (mod_name, attr) in KERNEL_COUNTS.items():
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self._counter(name, original))

        # NormalFunctional is a class; count constructions through its
        # post-init hook so isinstance checks keep working.
        post_init = NormalFunctional.__post_init__
        self._patched.append((NormalFunctional, "__post_init__", post_init))
        NormalFunctional.__post_init__ = self._counter("algebra.NormalFunctional", post_init)

        # The suites' retry helper: one call per admissible configuration,
        # one call of its draw closure per attempt.
        retry = wstargeo.suites._retry
        counts = self.counts

        @functools.wraps(retry)
        def counted_retry(draw, *args, **kwargs):
            counts["sampling.configs"] += 1

            def counted_draw():
                counts["sampling.draws"] += 1
                return draw()

            return retry(counted_draw, *args, **kwargs)

        self._patched.append((wstargeo.suites, "_retry", retry))
        wstargeo.suites._retry = counted_retry

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write every span as ``name, parent, start, end`` (gzip TSV)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
