"""End-to-end tests of the command line: file formats, output shapes, the
CSV report, and the exit-code contract (0 pass, 1 parse, 2 domain, 3 usage)."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import wstargeo
from wstargeo import algebra
from wstargeo.algebra import BlockAlgebra
from wstargeo.cli import main
from wstargeo.io import REPORT_HEADER, load_vectors
from wstargeo.linalg import polar_decompose
from wstargeo.suites import SUITE_NAMES

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def write_algebra(path, blocks, matrices):
    data = {
        "blocks": list(blocks),
        "matrices": {
            name: {
                "rows": m.shape[0],
                "cols": m.shape[1],
                "re": [float(x) for x in m.real.ravel()],
                "im": [float(x) for x in m.imag.ravel()],
            }
            for name, m in matrices.items()
        },
    }
    path.write_text(json.dumps(data))
    return str(path)


def write_vectors(path, vectors):
    data = {
        "vectors": [
            {
                "re": [float(x) for x in np.asarray(v).real],
                "im": [float(x) for x in np.asarray(v).imag],
            }
            for v in vectors
        ]
    }
    path.write_text(json.dumps(data))
    return str(path)


def printed_matrix(out, label, dim):
    """The matrix printed under ``label:``, parsed token by token."""
    lines = out.splitlines()
    start = lines.index(f"{label}:") + 1
    body = " ".join(lines[start : start + dim])
    tokens = re.sub(r"[\[\]]", "", body).split(",")
    return np.array([complex(re.sub(r"\s+", "", t)) for t in tokens]).reshape(dim, dim)


def block_diagonal(rng, blocks):
    a = np.zeros((sum(blocks), sum(blocks)), dtype=complex)
    start = 0
    for n in blocks:
        a[start : start + n, start : start + n] = rng.standard_normal(
            (n, n)
        ) + 1j * rng.standard_normal((n, n))
        start += n
    return a


class TestPolar:
    @pytest.mark.parametrize("blocks", [(2,), (2, 3), (12,)])
    def test_printed_factors_parse_back(self, tmp_path, capsys, blocks):
        if blocks == (2,):
            # h = (a* a)^{1/2} gets off-diagonal entries near -7e-14.
            a = np.array([[2.0, -1e-13], [0.0, 1.0]], dtype=complex)
        else:
            a = block_diagonal(np.random.default_rng(7), blocks)
        f = write_algebra(tmp_path / "a.json", blocks, {"a": a})
        assert main(["polar", f]) == 0
        out = capsys.readouterr().out
        u, h = polar_decompose(a)
        for label, factor in (("u", u), ("h", h)):
            err = printed_matrix(out, label, a.shape[0]) - factor
            # 6 decimals: each real and imaginary part is off by at most 5e-7.
            assert np.max(np.abs([err.real, err.imag])) <= 5e-7 + 1e-12
        assert "-0.000000" not in out
        if blocks == (2,):
            assert -1e-12 < h[0, 1].real < 0.0 and u[0, 1].real < 0.0
            assert out.splitlines()[:6] == [
                "u:",
                "  [[ 1.000000+0.000000j,  0.000000+0.000000j],",
                "   [ 0.000000+0.000000j,  1.000000+0.000000j]]",
                "h:",
                "  [[ 2.000000+0.000000j,  0.000000+0.000000j],",
                "   [ 0.000000+0.000000j,  1.000000+0.000000j]]",
            ]

    def test_bad_tolerance(self, tmp_path, capsys):
        f = write_algebra(tmp_path / "a.json", [2], {"a": E12})
        for tol in ("2", "0", "nan", "-0.5", "abc"):
            assert main(["polar", f, "--tol", tol]) == 3
            err = capsys.readouterr().err
            assert err.startswith("usage error: argument --tol")
            assert len(err.strip().splitlines()) == 1

    def test_oracle(self, tmp_path, capsys):
        f = write_algebra(tmp_path / "a.json", [2], {"a": E12})
        assert main(["polar", f]) == 0
        out = capsys.readouterr().out
        assert "u:" in out and "h:" in out
        assert "reconstruction=0.000000e+00" in out
        assert "isometry=0.000000e+00" in out

    def test_named_matrix(self, tmp_path, capsys):
        f = write_algebra(
            tmp_path / "a.json", [2], {"a": E12, "b": np.eye(2, dtype=complex)}
        )
        assert main(["polar", f, "--name", "b"]) == 0
        assert main(["polar", f]) == 3  # two matrices, none picked
        assert main(["polar", f, "--name", "zzz"]) == 3
        err = capsys.readouterr().err
        assert "usage error" in err

    def test_non_finite_matrix(self, tmp_path, capsys):
        f = write_algebra(
            tmp_path / "a.json", [2], {"a": np.array([[np.inf, 0.0], [0.0, 1.0]])}
        )
        assert "Infinity" in open(f).read()
        assert main(["polar", f]) == 1
        assert "non-finite" in capsys.readouterr().err

    @staticmethod
    def refused(tmp_path, capsys, data, message, command="polar"):
        """``command`` on a file of ``data`` exits 1 with one error line."""
        p = tmp_path / "a.json"
        p.write_text(json.dumps(data))
        assert main([command, str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("fields, part", [
        ({"re": 5}, "re"),
        ({"re": [0.0] * 4, "im": None}, "im"),
    ], ids=["scalar-re", "null-im"])
    def test_non_list_parts(self, tmp_path, capsys, fields, part):
        data = {"blocks": [2], "matrices": {"a": {"rows": 2, "cols": 2, **fields}}}
        self.refused(tmp_path, capsys, data, f"matrix 'a' needs a list '{part}'")

    @pytest.mark.parametrize("rows, cols", [
        (2.7, 2), ("2", 2), (2, 2.0), (-2, -2), (0, 4), (True, 4),
    ], ids=["float", "string", "integral-float", "negative", "zero", "bool"])
    def test_malformed_sizes(self, tmp_path, capsys, rows, cols):
        # int() would take 2.7, "2", 2.0 and True as sizes, and refuse -2 x -2
        # for its entries.
        data = {"blocks": [2], "matrices": {"a": {"rows": rows, "cols": cols, "re": [1.0, 0.0, 0.0, 1.0]}}}
        self.refused(tmp_path, capsys, data, "matrix 'a' needs integer 'rows' and 'cols'")

    @pytest.mark.parametrize("command", ["polar", "orbit"])
    @pytest.mark.parametrize("blocks", [[True, 2], [2.0]], ids=["bool", "float"])
    def test_malformed_blocks(self, tmp_path, capsys, command, blocks):
        data = {"blocks": blocks, "matrices": {}}
        self.refused(tmp_path, capsys, data, "'blocks' must be a non-empty list of positive integers", command)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["polar", str(tmp_path / "nope.json")]) == 1
        assert "file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["polar", "amplitude"])
    @pytest.mark.parametrize("raw, message", [
        (b'{"blocks": [2\xff]}', "not UTF-8 text: byte 0xff at offset 13"),
        ('{"blocks": [2]}'.encode("utf-8-sig"), "Unexpected UTF-8 BOM"),
    ], ids=["0xff", "bom"])
    def test_not_utf8(self, tmp_path, capsys, command, raw, message):
        # Files are strict UTF-8: a byte that decodes to nothing, or a
        # byte-order mark, is one error line, not a traceback.
        p = tmp_path / "a.json"
        p.write_bytes(raw)
        assert main([command, str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and err.count("\n") == 1 and message in err

    def test_directory(self, tmp_path, capsys):
        assert main(["polar", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: cannot read") and err.count("\n") == 1

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"blocks": [2,\n  "matrices": }')
        assert main(["polar", str(p)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err


class TestVerify:
    def test_single_suite(self, tmp_path, capsys):
        report = tmp_path / "out.csv"
        code = main(
            ["verify", "kks", "--algebra", "2", "--trials", "10", "--seed", "1",
             "--report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verify: 2 rows, 2 passed, 0 failed" in out
        assert "kks/identity" in out and "kks/calibration" in out
        lines = report.read_text().strip().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "kks/identity"
        assert fields[1] == "10" and fields[2] == "1"
        assert fields[5] == "pass"
        float(fields[3])
        float(fields[4])
        float(fields[6])

    def test_forced_failure_exit_code(self, tmp_path, capsys):
        code = main(["verify", "kks", "--algebra", "2", "--trials", "5",
                     "--tol", "1e-300"])
        assert code == 2
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "no-such-suite", "--trials", "2"]) == 3
        err = capsys.readouterr().err
        assert "usage error" in err
        assert all(name in err for name in SUITE_NAMES)

    def test_invalid_trials(self, capsys):
        assert main(["verify", "kks", "--trials", "0"]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_invalid_trials_keep_an_existing_report(self, tmp_path, capsys):
        report = tmp_path / "keep.csv"
        report.write_bytes(b"kept\n")
        assert main(["verify", "kks", "--trials", "0", "--report", str(report)]) == 2
        assert capsys.readouterr().err == "domain error: trials must be positive, got 0\n"
        assert report.read_bytes() == b"kept\n"

    @pytest.mark.parametrize(
        "flags",
        [["--seed", "-1"], ["--seed", "1.5"], ["--tol", "-1"], ["--tol", "0"],
         ["--tol", "nan"], ["--tol", "inf"]],
    )
    def test_invalid_seed_or_tol(self, capsys, flags):
        assert main(["verify", "kks", "--algebra", "2", "--trials", "2", *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {flags[0]}")
        assert len(err.strip().splitlines()) == 1

    def test_bad_algebra_flag(self, capsys):
        assert main(["verify", "kks", "--algebra", "2,x", "--trials", "2"]) == 3
        assert main(["verify", "kks", "--algebra", "0", "--trials", "2"]) == 3
        assert main(["verify", "kks", "--trials", "2", "--repair"]) == 3
        capsys.readouterr()

    def test_all_suites(self, capsys):
        code = main(["verify", "all", "--algebra", "2", "--trials", "5"])
        assert code == 0
        out = capsys.readouterr().out
        last = out.strip().splitlines()[-1]
        assert last.startswith("verify: ")
        assert "0 failed" in last

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_report_fails_before_any_suite(self, tmp_path, capsys, monkeypatch, where):
        path = tmp_path / "missing" / "r.csv" if where == "missing-directory" else tmp_path
        monkeypatch.setattr(wstargeo.suites, "run_suite", lambda *a, **k: pytest.fail("a suite ran"))
        assert main(["verify", "kks", "--trials", "1", "--report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot write: ") and err.count("\n") == 1

    def test_report_deterministic_modulo_wall_time(self, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["verify", "charts", "--algebra", "2", "--trials", "8",
                     "--report", str(r1)]) == 0
        assert main(["verify", "charts", "--algebra", "2", "--trials", "8",
                     "--report", str(r2)]) == 0
        capsys.readouterr()
        strip = lambda text: [  # noqa: E731
            ",".join(line.split(",")[:-1]) for line in text.strip().splitlines()
        ]
        assert strip(r1.read_text()) == strip(r2.read_text())


class TestAmplitude:
    def test_oracle(self, tmp_path, capsys):
        s = 1.0 / np.sqrt(2.0)
        f = write_vectors(
            tmp_path / "v.json",
            [np.array([1.0, 0.0]), np.array([s, s]), np.array([0.0, 1.0])],
        )
        assert main(["amplitude", f]) == 0
        out = capsys.readouterr().out
        assert "steps: 2" in out
        assert "amplitude: +0.500000000000+0.000000000000j" in out
        assert "probability: 0.250000000000" in out

    def test_non_unit_vector(self, tmp_path, capsys):
        f = write_vectors(
            tmp_path / "v.json", [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
        )
        assert main(["amplitude", f]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_short_path(self, tmp_path, capsys):
        f = write_vectors(tmp_path / "v.json", [np.array([1.0, 0.0])])
        assert main(["amplitude", f]) == 2
        capsys.readouterr()

    def test_non_finite_vector(self, tmp_path, capsys):
        f = write_vectors(
            tmp_path / "v.json", [np.array([1.0, 0.0]), np.array([np.nan, 0.0])]
        )
        assert main(["amplitude", f]) == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, part", [
        ({"re": 5}, "re"),
        ({"re": None}, "re"),
        ({"re": [1.0, 0.0], "im": None}, "im"),
        ({"re": [1.0, 0.0], "im": 0.0}, "im"),
    ], ids=["scalar-re", "null-re", "null-im", "scalar-im"])
    def test_non_list_parts(self, tmp_path, capsys, fields, part):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"vectors": [{"re": [1.0, 0.0]}, fields]}))
        assert main(["amplitude", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"vector 1 needs a list '{part}'" in err

    def test_malformed_vectors(self, tmp_path, capsys):
        p = tmp_path / "v.json"
        p.write_text('{"vectors": [{"im": [1.0]}]}')
        assert main(["amplitude", str(p)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("second, message", [
        ('{"re": [0, 1, 0]}', "vector 1 has 3 entries, but vector 0 has 2"),
        ('{"re": [0, "x"]}', "vector 1 has non-numeric entries"),
        ('{"re": [0, [1]]}', "vector 1 has non-numeric entries"),
        ('{"re": [[0], [1]], "im": [[0], [0]]}', "vector 1 has non-numeric entries"),
        ('{"re": [0, 1%s]}' % ("0" * 400), "vector 1 has non-numeric entries"),
    ], ids=["unequal-length", "string", "nested", "nested-alike", "beyond-float"])
    def test_refused_second_vector(self, tmp_path, capsys, second, message):
        # The file is converted in one call, and a refusal names the vector.
        # Unequal lengths and an integer beyond the float range ended in
        # tracebacks when each vector was converted alone, and one-entry
        # lists nested alike in 're' and 'im' were read as numbers.
        p = tmp_path / "v.json"
        p.write_text('{"vectors": [{"re": [1, 0]}, %s, {"re": [0, 1]}]}' % second)
        assert main(["amplitude", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: {message}") and err.count("\n") == 1

    def test_loads_one_stack(self, tmp_path):
        rng = np.random.default_rng(8)
        path = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        stack = load_vectors(write_vectors(tmp_path / "v.json", path))
        assert stack.shape == (4, 5) and stack.dtype == complex
        assert stack.tobytes() == path.tobytes()


class TestOrbit:
    def test_oracle(self, tmp_path, capsys):
        f = write_algebra(
            tmp_path / "d.json", [2], {"d": np.diag([0.0, 3.0]).astype(complex)}
        )
        assert main(["orbit", f]) == 0
        out = capsys.readouterr().out
        assert "block 0 (2x2): spectrum [3.000000e+00] support rank 1" in out
        assert "stabilizer dimension: 1" in out

    def test_two_blocks(self, tmp_path, capsys):
        d = np.zeros((5, 5), dtype=complex)
        d[0, 0] = d[1, 1] = 1.0
        d[2, 2] = d[3, 3] = d[4, 4] = 2.0
        f = write_algebra(tmp_path / "d.json", [2, 3], {"d": d})
        assert main(["orbit", f, "--algebra", "2,3"]) == 0
        out = capsys.readouterr().out
        assert "block 0 (2x2)" in out and "block 1 (3x3)" in out
        assert "stabilizer dimension: 13" in out  # 2^2 + 3^2

    def test_dimension_builds_no_basis(self, tmp_path, capsys, monkeypatch):
        # The dimension is the count of the stabilizer's slot mask: neither
        # unit constructor runs, for the command or for one matrix.
        def refused(*args):
            raise AssertionError("a basis was built")

        for name in ("antihermitian_units", "matrix_units"):
            monkeypatch.setattr(algebra, name, refused)
        d = np.diag([1.0, 1.0, 2.0, 2.0, 0.0]).astype(complex)
        f = write_algebra(tmp_path / "d.json", [2, 3], {"d": d})
        assert main(["orbit", f]) == 0
        assert "stabilizer dimension: 8" in capsys.readouterr().out  # 2^2 + 2^2
        phi = algebra.NormalFunctional(BlockAlgebra((2, 3)), d)
        assert algebra.stabilizer_lie_algebra(phi).dimension == 8

    def test_algebra_mismatch(self, tmp_path, capsys):
        f = write_algebra(tmp_path / "d.json", [2], {"d": np.eye(2, dtype=complex)})
        assert main(["orbit", f, "--algebra", "3"]) == 3
        capsys.readouterr()

    def test_non_positive_density(self, tmp_path, capsys):
        f = write_algebra(
            tmp_path / "d.json", [2], {"d": np.diag([-1.0, 1.0]).astype(complex)}
        )
        assert main(["orbit", f]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_non_hermitian_density(self, tmp_path, capsys):
        d = np.eye(5, dtype=complex)
        d[0, 1] = 1.0  # inside the first block, without its adjoint entry
        f = write_algebra(tmp_path / "d.json", [2, 3], {"d": d})
        assert main(["orbit", f]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_zero_block_and_repeated_eigenvalue(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        d = np.zeros((5, 5), dtype=complex)
        d[2:, 2:] = (v * [2.0, 2.0, 0.5]) @ v.conj().T
        f = write_algebra(tmp_path / "d.json", [2, 3], {"d": d})
        assert main(["orbit", f]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "block 0 (2x2): spectrum [] support rank 0",
            "block 1 (3x3): spectrum [2.000000e+00, 2.000000e+00, 5.000000e-01] "
            "support rank 3",
            "stabilizer dimension: 5",  # 2^2 + 1^2
        ]

    def test_zero_density(self, tmp_path, capsys):
        f = write_algebra(tmp_path / "d.json", [2, 3], {"d": np.zeros((5, 5), dtype=complex)})
        assert main(["orbit", f]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "block 0 (2x2): spectrum [] support rank 0",
            "block 1 (3x3): spectrum [] support rank 0",
            "stabilizer dimension: 0",
        ]

    def test_ambiguous_cluster(self, tmp_path, capsys):
        # A gap of 1e-9 sits at the clustering threshold: refused, with
        # nothing printed.
        d = np.diag([1.0 + 1e-9, 1.0]).astype(complex)
        f = write_algebra(tmp_path / "d.json", [2], {"d": d})
        assert main(["orbit", f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err

    def test_retained_value_near_the_cutoff(self, tmp_path, capsys):
        # 2e-9 is retained but within the guard band of the rank cutoff
        # (1e-9): the stabilizer refuses, with nothing printed.
        d = np.diag([1.0, 2e-9, 0.0]).astype(complex)
        f = write_algebra(tmp_path / "d.json", [3], {"d": d})
        assert main(["orbit", f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err

    def test_off_block_density(self, tmp_path, capsys):
        d = np.zeros((5, 5), dtype=complex)
        d[0, 3] = d[3, 0] = 1.0  # couples the two blocks
        d[0, 0] = d[3, 3] = 1.0
        f = write_algebra(tmp_path / "d.json", [2, 3], {"d": d})
        assert main(["orbit", f]) == 2
        capsys.readouterr()


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        assert main([]) == 3
        assert "subcommand" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, err", [
        (["bogus"], "argument COMMAND: invalid choice: 'bogus' "
                    "(choose from 'polar', 'verify', 'amplitude', 'orbit')"),
        (["polar"], "the following arguments are required: file"),
        (["amplitude", "a", "b"], "unrecognized arguments: b"),
    ], ids=["unknown-command", "missing-file", "extra-argument"])
    def test_usage_errors(self, capsys, argv, err):
        # A command's arguments are parsed by its own parser, with the text
        # the top-level parser gave.
        assert main(argv) == 3
        assert capsys.readouterr().err == f"usage error: {err}\n"

    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "usage: wstargeo [-h] COMMAND ..."),
        (["-h"], "usage: wstargeo [-h] COMMAND ..."),
        (["polar", "--help"], "usage: wstargeo polar [-h] [--name NAME] [--tol TOL] file"),
    ])
    def test_help(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.splitlines()[0] == usage

    def test_reads_sys_argv(self, tmp_path, capsys, monkeypatch):
        f = write_algebra(tmp_path / "a.json", [2], {"a": E12})
        assert main(["polar", f]) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["wstargeo", "polar", f])
        assert main(None) == 0
        assert capsys.readouterr().out == out

    def test_unknown_flag(self, capsys):
        assert main(["polar", "x.json", "--bogus"]) == 3
        capsys.readouterr()

    def test_wrong_shape_matrix(self, tmp_path, capsys):
        p = tmp_path / "a.json"
        p.write_text(json.dumps({
            "blocks": [2],
            "matrices": {"a": {"rows": 3, "cols": 3, "re": [0.0] * 9}},
        }))
        assert main(["polar", str(p)]) == 1
        assert "dimension" in capsys.readouterr().err

    def test_calls_are_independent(self, tmp_path, capsys):
        f = write_algebra(
            tmp_path / "a.json", [2], {"a": np.diag([1.0, 1e-3]).astype(complex)}
        )
        assert main(["polar", f, "--bogus"]) == 3
        assert main(["polar", f]) == 0
        full = capsys.readouterr().out
        assert main(["polar", f, "--tol", "0.01"]) == 0  # drops the 1e-3 direction
        truncated = capsys.readouterr().out
        assert main(["polar", f]) == 0
        assert capsys.readouterr().out == full != truncated
        code = main(["verify", "kks", "--algebra", "2", "--trials", "2",
                     "--tol", "1e-300"])
        assert code == 2
        assert main(["verify", "kks", "--algebra", "2", "--trials", "2"]) == 0
        assert main([]) == 3  # no subcommand left over from the last call
        capsys.readouterr()


def test_module_entry_point(tmp_path, capsys):
    """``python -m wstargeo`` in a fresh process prints what ``main`` prints."""
    rng = np.random.default_rng(5)
    d = block_diagonal(rng, (2, 3))
    files = {
        "polar": write_algebra(tmp_path / "a.json", [2, 3], {"a": d}),
        "orbit": write_algebra(tmp_path / "d.json", [2, 3], {"d": d @ d.conj().T}),
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(wstargeo.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    for command, f in files.items():
        proc = subprocess.run(
            [sys.executable, "-m", "wstargeo", command, f],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert main([command, f]) == 0
        assert proc.stdout == capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "wstargeo", "polar", files["polar"], "--tol", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3 and proc.stderr.startswith("usage error")
