"""End-to-end and per-layer benchmark of wstargeo.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 40 --trace 0

Runs as many whole rounds of the workload as fill ``--seconds`` at its
nominal round time, checks every output, runs the independent checks on
the workload's algebras, and prints one JSON object as the last line of
stdout.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a
traced run, together with the tracing overhead.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

#: The benchmark process and its set-up probes run single-threaded BLAS;
#: these must be set before NumPy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters started for ``setup_s`` at each of the 4 points of a
#: run (see ``timed_rounds``), after one untimed probe that fills the
#: bytecode cache; and for the import breakdown.
SETUP_PROBES = 3
IMPORT_PROBES = 3

#: Span names whose calls, self time or inclusive time are reported.
CALL_METRICS = (
    "charts.dGamma0", "poisson.degeneracy_kernel_check",
    "standard.dual_pair_orthogonality_check", "linalg.svd",
    "linalg.hermitian_eig", "linalg.check_hermitian", "linalg.frobenius",
    "numpy.svd", "numpy.eigh", "numpy.eigvalsh", "numpy.qr", "numpy.norm",
    "scipy.expm", "algebra.NormalFunctional",
)
SELF_METRICS = (
    "charts.dGamma0", "standard.fiber_kernel", "linalg.svd",
    "linalg.polar_decompose", "linalg.partial_inverse", "linalg.hermitian_eig",
    "linalg.restricted_power", "linalg.frobenius", "sampling.random_unitary",
    "sampling.partial_isometry_onto", "sampling.corner_positive",
    "sampling.random_projection", "groupoids.chain_law_residuals",
    "groupoids.composable_chain", "standard.std_mul",
    "algebra.stabilizer_lie_algebra", "algebra.orbit_invariant", "io.load",
)
INCLUSIVE_METRICS = (
    "poisson.degeneracy_kernel_check", "standard.dual_pair_orthogonality_check",
    "groupoids.axiom_check",
)
CLI_COMMANDS = ("polar", "orbit", "amplitude")
#: A p99 is reported from at least this many samples.
P99_MIN_SAMPLES = 1000


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    from wstargeo.suites import SUITE_NAMES, suite_rows

    names = [
        (f"suites.{suite}.{row}.s", "s") for suite in SUITE_NAMES for row in suite_rows(suite)
    ]
    names += [(f"{n}.calls", "count") for n in CALL_METRICS]
    names += [(f"{n}.self_s", "s") for n in SELF_METRICS]
    names += [(f"{n}.s", "s") for n in INCLUSIVE_METRICS]
    names.append(("sampling.draws_per_config", "draws/config"))
    for cmd in CLI_COMMANDS:
        names += [(f"cli.{cmd}.p50_ms", "ms"), (f"cli.{cmd}.p99_ms", "ms")]
    names += [
        ("setup.import_numpy_s", "s"), ("setup.import_scipy_s", "s"),
        ("setup.wstargeo_self_s", "s"), ("trace.untraced_run_s", "s"),
        ("trace.traced_run_s", "s"), ("trace.overhead_s", "s"),
    ]
    return names


def _probe(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, check=True
    )


class SetupProbe:
    """Times fresh interpreters doing ``import wstargeo`` and building the
    workload's algebras; each call adds ``SETUP_PROBES`` samples, each at
    the reference speed of the gauge samples taken around it."""

    def __init__(self, src: str, shapes, gauge) -> None:
        self.argv = [os.path.join(HERE, "setup_probe.py"), src,
                     *(",".join(map(str, s)) for s in shapes)]
        self.gauge = gauge
        self.samples: list[float] = []
        _probe(self.argv)

    def __call__(self) -> None:
        for _ in range(SETUP_PROBES):
            probe, wall, reference = self.gauge.time(lambda: _probe(self.argv))
            self.samples.append(float(probe.stdout) * reference / wall)


def _import_tree(stderr: str) -> list[tuple]:
    """Parse ``-X importtime`` output (children print before their parent)
    into a forest of ``(name, self_s, cumulative_s, children)``."""
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
        if m is None:
            continue
        depth = len(m.group(3))
        node = (m.group(4), int(m.group(1)) * 1e-6, int(m.group(2)) * 1e-6,
                pending.pop(depth + 2, []))
        pending.setdefault(depth, []).append(node)
    return [node for depth in sorted(pending) for node in pending[depth]]


def _outermost(nodes, package: str, field: int) -> float:
    """Sum ``field`` over the outermost imports of ``package``; for the self
    time (field 1) every module of the package counts."""
    total = 0.0
    for node in nodes:
        name = node[0]
        if name == package or name.startswith(package + "."):
            total += node[field]
            if field == 2:
                continue
        total += _outermost(node[3], package, field)
    return total


def import_breakdown(src: str, shapes) -> dict[str, float]:
    argv = ["-X", "importtime", os.path.join(HERE, "setup_probe.py"), src,
            *(",".join(map(str, s)) for s in shapes)]
    samples = {"setup.import_numpy_s": [], "setup.import_scipy_s": [], "setup.wstargeo_self_s": []}
    for _ in range(IMPORT_PROBES):
        tree = _import_tree(_probe(argv).stderr)
        samples["setup.import_numpy_s"].append(_outermost(tree, "numpy", 2))
        samples["setup.import_scipy_s"].append(_outermost(tree, "scipy", 2))
        samples["setup.wstargeo_self_s"].append(_outermost(tree, "wstargeo", 1))
    return {k: statistics.median(v) for k, v in samples.items()}


def round_count(workload, seconds: float) -> int:
    """Rounds that fill ``seconds`` at the workload's nominal round time, at
    least one.  A fixed count makes every run of a workload at the same
    ``--seconds`` attempt exactly the same operations."""
    return max(1, int(seconds / workload.round_seconds + 1e-9))


def timed_rounds(workload, tally, gauge, rounds: int, between=lambda: None, dense=True):
    """Run ``rounds`` rounds; return the round time at ``gauge``'s reference
    speed and the merged per-layer samples.  ``between()`` runs before the
    first round and after each third of them, so that set-up samples spread
    over the run.

    The round time is the sum over the run's parts of each part's time at
    reference speed (see gauge.py), divided by ``rounds``.  A part is one
    ``run_suite`` call or one command.  ``dense=False`` takes no timer
    samples, so that none lands in a span or a row's ``wall_time``.
    """
    reference_s = 0.0
    measured: list[float] = []
    samples: dict[str, list[float]] = {}
    every = max(1, rounds // 3)
    first_sample = len(gauge.samples)
    with gauge.running(workload.gauge_interval if dense else None):
        between()
        for index in range(rounds):
            round_parts, round_samples = workload.run_round(tally, gauge)
            measured.append(sum(seconds for seconds, _ in round_parts.values()))
            reference_s += sum(reference for _, reference in round_parts.values())
            for key, values in round_samples.items():
                samples.setdefault(key, []).extend(values)
            if (index + 1) % every == 0:
                between()
    taken = gauge.samples[first_sample:]
    print(f"perfbench: {rounds} rounds, measured round time min/median/max "
          f"{min(measured):.4f}/{statistics.median(measured):.4f}/{max(measured):.4f} s, "
          f"{len(taken)} gauge samples min/median/max {1e3 * min(taken):.3f}/"
          f"{1e3 * statistics.median(taken):.3f}/{1e3 * max(taken):.3f} ms",
          file=sys.stderr)
    return reference_s / rounds, samples


def layer_metrics(tr, rounds, traced_s, untraced_s, samples, imports) -> dict[str, float]:
    values: dict[str, float] = dict(imports)
    for key, series in samples.items():
        if key.startswith("suites."):
            values[key] = statistics.median(series)
        else:
            values[f"{key}.p50_ms"] = 1e3 * statistics.median(series)
            if len(series) >= P99_MIN_SAMPLES:
                values[f"{key}.p99_ms"] = 1e3 * statistics.quantiles(series, n=100)[98]
    for name in CALL_METRICS:
        values[f"{name}.calls"] = (tr.calls[name] + tr.counts[name]) / rounds
    for name in SELF_METRICS:
        values[f"{name}.self_s"] = tr.self_time[name] / rounds
    for name in INCLUSIVE_METRICS:
        values[f"{name}.s"] = tr.inclusive[name] / rounds
    configs = tr.counts["sampling.configs"]
    values["sampling.draws_per_config"] = tr.counts["sampling.draws"] / configs if configs else 0.0
    values["trace.untraced_run_s"] = untraced_s
    values["trace.traced_run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    # Layers the workload does not reach read 0.
    return {name: values.get(name, 0.0) for name, _ in per_layer_names()}


def run(args, src: str, out_dir: str, workdir: str) -> dict:
    import checks
    import tracer
    import workloads
    # The gauge binds its NumPy/SciPy functions on import, before the
    # tracer wraps them, so a traced run does not count its calls.
    from gauge import SpeedGauge

    gauge = SpeedGauge()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = checks.Tally()
    if args.trace:
        imports = import_breakdown(src, workload.shapes)
        workload.warm_up()
        rounds = round_count(workload, args.seconds / 2)
        untraced_s, samples = timed_rounds(workload, tally, gauge, rounds, dense=False)
        tr = tracer.Tracer()
        tr.install()
        try:
            traced_s, _ = timed_rounds(workload, tally, gauge, rounds, dense=False)
        finally:
            tr.restore()
        tr.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
        values = layer_metrics(tr, rounds, traced_s, untraced_s, samples, imports)
        units = dict(per_layer_names())
    else:
        setup = SetupProbe(src, workload.shapes, gauge)
        workload.warm_up()
        run_s, _ = timed_rounds(workload, tally, gauge, round_count(workload, args.seconds), setup)
        values = {
            "setup_s": statistics.median(setup.samples),
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

    for blocks in workload.shapes:
        for what, check in checks.algebra_checks(blocks, args.seed):
            tally.run(what, check)
    tally.report()
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify-small", "cli-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wstargeo", "__init__.py")):
        print(f"perfbench: no src/wstargeo under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=out_dir)
    try:
        result = run(args, src, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
