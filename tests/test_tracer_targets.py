"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` patches functions by ``(module, attribute)``; a
deleted or renamed target would make ``perfbench/run.py --trace 1`` fail
when it installs the tracer.  The tracer is read as a script, so nothing is
imported from or written into ``perfbench/``.
"""
import importlib
import pathlib
import runpy

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_TRACER = runpy.run_path(str(TRACER))

TARGETS = sorted(
    {target for targets in _TRACER["SPANS"].values() for target in targets}
    | set(_TRACER["KERNEL_COUNTS"].values())
    | {("wstargeo.suites", "_retry")}
)


def test_targets_found():
    assert ("wstargeo.linalg", "restricted_power") in TARGETS
    assert len(TARGETS) > len(_TRACER["KERNEL_COUNTS"]) + 1


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
