"""Command-line front end.

Subcommands::

    wstargeo polar FILE [--name N] [--tol T]     polar factors of a matrix
    wstargeo verify SUITE [flags]                run a named property suite
    wstargeo amplitude FILE                      transition amplitude of a chain
    wstargeo orbit FILE [--name N] [--algebra B] orbit invariants of a density

Exit codes: 0 success / all rows pass, 1 file error, 2 domain error (including
a failing suite row), 3 usage error (unknown flags or flag values out of
range, unknown suite).
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Callable

import numpy as np

from .algebra import (
    BlockAlgebra,
    NormalFunctional,
    orbit_invariant,
    stabilizer_lie_algebra,
)
from .errors import DomainError, InvalidTrials, ParseError, UsageError
from .io import load_algebra_spec, load_vectors, open_report, write_report_csv
from .linalg import (
    DEFAULT_TOL,
    feynman_amplitude,
    frobenius,
    polar_decompose,
    positive_spectrum,
)

__all__ = ["main", "console_entry", "build_parsers"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad invocations through the exit-code contract
    instead of terminating the process itself."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _number(kind, accept, requirement: str):
    """An argparse ``type`` that parses ``kind`` and rejects values failing
    ``accept``: a usage error, not a traceback or a silently failing run."""

    def parse(text: str):
        try:
            value = kind(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {requirement}, got {text!r}")

    return parse


#: By command name, the parser that ``add_subparsers`` built for the
#: command and its handler, which takes the parsed arguments to the exit code.
Commands = dict[str, tuple[argparse.ArgumentParser, Callable[[argparse.Namespace], int]]]


def build_parsers() -> tuple[argparse.ArgumentParser, Commands]:
    """The top-level parser and the table of its commands."""
    parser = _Parser(
        prog="wstargeo",
        description="Groupoid, Poisson, and modular-flow verification "
        "on finite-dimensional W*-algebras.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_polar = sub.add_parser(
        "polar", help="polar decomposition of a matrix from an algebra file"
    )
    p_polar.add_argument("file", help="algebra file containing the matrix")
    p_polar.add_argument(
        "--name",
        default=None,
        help="which named matrix to decompose (default: the only one)",
    )
    p_polar.add_argument(
        "--tol",
        type=_number(
            float, lambda t: 0.0 < t < 1.0, "a number strictly between 0 and 1"
        ),
        default=None,
        help="relative rank cutoff for retained singular values",
    )

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help="suite name, or 'all'")
    p_verify.add_argument(
        "--algebra",
        default="2,3",
        help='block sizes, e.g. "2" or "2,3" (default "2,3")',
    )
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument(
        "--seed",
        type=_number(int, lambda s: s >= 0, "a non-negative integer"),
        default=0,
    )
    p_verify.add_argument(
        "--tol",
        type=_number(float, lambda t: 0.0 < t < math.inf, "a positive finite number"),
        default=None,
        help="override every row's pass tolerance uniformly",
    )
    p_verify.add_argument(
        "--report", default=None, help="write CSV report rows to this path"
    )

    p_amp = sub.add_parser(
        "amplitude", help="transition amplitude of a chain of unit vectors"
    )
    p_amp.add_argument("file", help="vectors file")

    p_orbit = sub.add_parser(
        "orbit", help="orbit invariants of a positive density"
    )
    p_orbit.add_argument("file", help="algebra file containing the density")
    p_orbit.add_argument(
        "--name",
        default=None,
        help="which named matrix is the density (default: the only one)",
    )
    p_orbit.add_argument(
        "--algebra",
        default=None,
        help="expected block sizes; must match the file when given",
    )
    return parser, {
        "polar": (p_polar, cmd_polar),
        "verify": (p_verify, cmd_verify),
        "amplitude": (p_amp, cmd_amplitude),
        "orbit": (p_orbit, cmd_orbit),
    }


def _algebra_option(text: str) -> BlockAlgebra:
    try:
        return BlockAlgebra.from_string(text)
    except ValueError as exc:
        raise UsageError(f"--algebra: {exc}") from exc


def _pick_matrix(matrices: dict[str, np.ndarray], name: str | None, path: str) -> np.ndarray:
    if name is not None:
        if name not in matrices:
            raise UsageError(
                f"{path} has no matrix named {name!r}; "
                f"available: {', '.join(sorted(matrices)) or '(none)'}"
            )
        return matrices[name]
    if len(matrices) != 1:
        raise UsageError(
            f"{path} holds {len(matrices)} matrices; pick one with --name"
        )
    return next(iter(matrices.values()))


def _print_matrix(label: str, a: np.ndarray) -> None:
    """Print ``a`` one bracketed row per line, each entry ``re+imj`` at 6
    decimals.  Rounding first and adding ``0.0`` turns ``-0.0`` into ``0.0``,
    so no ``-0.000000`` is printed."""
    # One %-format per row takes about half the time of one f-string per entry.
    row = ", ".join(["%9.6f%+.6fj"] * a.shape[1])
    parts = (np.round(np.asarray(a, dtype=complex), 6) + 0.0).view(float)
    rows = "],\n   [".join([row % tuple(r) for r in parts.tolist()])
    print(f"{label}:\n  [[{rows}]]")


def cmd_polar(args: argparse.Namespace) -> int:
    _, matrices = load_algebra_spec(args.file)
    a = _pick_matrix(matrices, args.name, args.file)
    prof = DEFAULT_TOL if args.tol is None else dataclasses.replace(DEFAULT_TOL, rank_rel_tol=args.tol)
    u, h = polar_decompose(a, prof)
    _print_matrix("u", u)
    _print_matrix("h", h)
    uh = u.conj().T @ u
    print(
        "residuals: "
        f"reconstruction={frobenius(u @ h - a):.6e} "
        f"isometry={frobenius(uh @ uh - uh):.6e} "
        f"support={frobenius(uh - positive_spectrum(h, prof).support):.6e}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .suites import SUITE_NAMES, run_suite, suite_rows

    algebra = _algebra_option(args.algebra)
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    # An unknown suite, then a count of trials below 1, then a report path
    # that cannot be written, fails before any suite runs.
    if args.suite != "all":
        suite_rows(args.suite)
    if args.trials < 1:
        raise InvalidTrials(f"trials must be positive, got {args.trials}")
    report = None if args.report is None else open_report(args.report)
    rows = []
    for name in names:
        rows.extend(
            run_suite(name, algebra, trials=args.trials, seed=args.seed, tol=args.tol)
        )
    width = max(len(r.suite) for r in rows)
    for r in rows:
        print(
            f"{r.suite:<{width}}  trials={r.trials} seed={r.seed}  "
            f"max_residual={r.max_residual:.6e}  tol={r.tolerance:.1e}  "
            f"{r.status}"
        )
    failed = [r for r in rows if not r.passed]
    print(
        f"verify: {len(rows)} rows, {len(rows) - len(failed)} passed, "
        f"{len(failed)} failed"
    )
    if report is not None:
        with report:
            write_report_csv(rows, report)
    return 2 if failed else 0


def cmd_amplitude(args: argparse.Namespace) -> int:
    vectors = load_vectors(args.file)
    report = feynman_amplitude(vectors)
    amp = report.amplitude
    print(f"steps: {report.steps}")
    print(f"amplitude: {amp.real:+.12f}{amp.imag:+.12f}j")
    print(f"probability: {report.probability:.12f}")
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    algebra, matrices = load_algebra_spec(args.file)
    if args.algebra is not None:
        expected = _algebra_option(args.algebra).blocks
        if expected != algebra.blocks:
            raise UsageError(
                f"--algebra {expected} does not match the file's blocks "
                f"{algebra.blocks}"
            )
    d = _pick_matrix(matrices, args.name, args.file)
    phi = NormalFunctional(algebra, d)
    # Both read the functional's one blockwise decomposition, and both are
    # decided before anything is printed.  The support rank of a block is
    # the number of its positive eigenvalues.
    spectra = orbit_invariant(phi, DEFAULT_TOL)
    dimension = stabilizer_lie_algebra(phi, DEFAULT_TOL).dimension
    for i, (n, spec_i) in enumerate(zip(algebra.blocks, spectra)):
        vals = ", ".join(f"{v:.6e}" for v in spec_i)
        print(f"block {i} ({n}x{n}): spectrum [{vals}] support rank {len(spec_i)}")
    print(f"stabilizer dimension: {dimension}")
    return 0


#: :func:`build_parsers` for :func:`main`, built on its first call.
#: Parsing leaves the parsers unchanged, so the calls of one process share
#: them.
_PARSERS: tuple[argparse.ArgumentParser, Commands] | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSERS
    if _PARSERS is None:
        _PARSERS = build_parsers()
    parser, commands = _PARSERS
    argv = sys.argv[1:] if argv is None else argv
    try:
        # A command's own parser reads its arguments: the same prog, help
        # and errors as the top-level parser, at half the cost.  Anything
        # else (-h, an unknown name) goes to the top level, which returns
        # only on no arguments at all.
        if argv and argv[0] in commands:
            sub, handler = commands[argv[0]]
            return handler(sub.parse_args(argv[1:]))
        parser.parse_args(argv)
        raise UsageError("a subcommand is required (polar, verify, amplitude, orbit)")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())
