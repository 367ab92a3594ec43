"""What ``import wstargeo`` and each command load, and the package's lazy
namespace.

``wstargeo/__init__.py`` keeps a table of its public names by defining
submodule and imports a submodule only when one of its names is first read
(PEP 562).  The import sets are read from fresh interpreters: ``-X
importtime`` lists on stderr every module a process imports.
"""
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import wstargeo
from wstargeo import linalg

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
#: The checker's submodules, which only ``verify`` runs.
CHECKER = {f"wstargeo.{m}" for m in ("suites", "poisson", "charts", "groupoids", "standard", "sampling")}
#: What ``polar``, ``orbit`` and ``amplitude`` load.
FILE_COMMANDS = {f"wstargeo.{m}" for m in ("errors", "linalg", "algebra", "io", "cli")} | {"wstargeo"}


def _loaded(*argv: str) -> set[str]:
    """The ``wstargeo`` modules that ``python -X importtime ARGV`` imports."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(re.findall(r"^import time:.*\| +(wstargeo(?:\.\w+)?)$", proc.stderr, re.M))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """An algebra file holding one density of ``2,3`` and a chain of two unit
    vectors."""
    tmp = tmp_path_factory.mktemp("inputs")
    density = [1.0 if i % 6 == 0 else 0.0 for i in range(25)]
    matrices = {"d": {"rows": 5, "cols": 5, "re": density}}
    (tmp / "d.json").write_text(json.dumps({"blocks": [2, 3], "matrices": matrices}))
    (tmp / "v.json").write_text(json.dumps({"vectors": [{"re": [1.0, 0.0]}, {"re": [0.6, 0.8]}]}))
    return {"polar": str(tmp / "d.json"), "orbit": str(tmp / "d.json"), "amplitude": str(tmp / "v.json")}


class TestImportSets:
    def test_one_algebra(self):
        assert _loaded("-c", "import wstargeo; wstargeo.BlockAlgebra((2, 3))") == {
            "wstargeo", "wstargeo.algebra", "wstargeo.linalg", "wstargeo.errors"
        }

    def test_from_import_of_a_submodule(self):
        assert _loaded("-c", "from wstargeo import linalg; linalg.svd") == {
            "wstargeo", "wstargeo.linalg", "wstargeo.errors"
        }

    @pytest.mark.parametrize("command", ["polar", "orbit"])
    def test_file_commands_load_no_checker(self, files, command):
        loaded = _loaded("-m", "wstargeo", command, files[command])
        assert not loaded & CHECKER
        assert loaded == FILE_COMMANDS

    def test_amplitude_loads_no_suites(self, files):
        # ``feynman_amplitude`` lives in ``linalg``: no checker module loads.
        loaded = _loaded("-m", "wstargeo", "amplitude", files["amplitude"])
        assert not loaded & CHECKER
        assert loaded == FILE_COMMANDS


class TestNamespace:
    def test_every_name_is_its_modules_object(self):
        assert len(set(wstargeo.__all__)) == len(wstargeo.__all__)
        listed = set(dir(wstargeo))
        for module, names in wstargeo._EXPORTS.items():
            home = importlib.import_module(f"wstargeo.{module}")
            for name in names:
                value = getattr(wstargeo, name)
                assert value is getattr(home, name), name
                if inspect.isclass(value) or inspect.isfunction(value):
                    assert value.__module__ == home.__name__, name
                assert name in listed

    def test_star_import(self):
        namespace = {}
        exec("from wstargeo import *", namespace)
        assert set(wstargeo.__all__) <= set(namespace)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            wstargeo.no_such_name
        assert "no_such_name" not in dir(wstargeo)
        with pytest.raises(ImportError):
            exec("from wstargeo import no_such_name", {})

    def test_follows_a_rebinding_in_its_module(self, monkeypatch):
        original = wstargeo.polar_decompose
        assert original is linalg.polar_decompose

        def planted(*args):
            raise AssertionError("planted")

        monkeypatch.setattr(linalg, "polar_decompose", planted)
        assert wstargeo.polar_decompose is planted
        monkeypatch.undo()
        assert wstargeo.polar_decompose is original
