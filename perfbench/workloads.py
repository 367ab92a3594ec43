"""The benchmark workloads.

A workload runs in whole rounds; every round of a run does the same
operations on the same inputs.  ``run_round`` times each part of the round
(one ``run_suite`` call, or one command) and checks its outputs outside the
timed spans.
"""
from __future__ import annotations

import contextlib
import io
import time

import checks
import inputs


class VerifyWorkload:
    """``wstargeo verify all``: every suite through ``run_suite`` on one
    algebra, as the command makes the calls."""

    def __init__(self, blocks: tuple[int, ...], trials: int, round_seconds: float, seed: int) -> None:
        from wstargeo.suites import SUITE_NAMES, suite_rows

        self.round_seconds = round_seconds
        #: A ``run_suite`` call lasts up to seconds, over which the machine's
        #: speed changes; the gauge samples during it.
        self.gauge_interval = 0.05
        self.blocks = blocks
        self.shapes = [blocks]
        self.trials = trials
        self.suite_seed = inputs.program_seed(seed)
        self.expected = {suite: suite_rows(suite) for suite in SUITE_NAMES}

    def _run_all(self, trials: int, seed: int, timer):
        """Yield ``(suite, rows or the exception raised, seconds, seconds at
        reference speed)`` per suite; ``timer`` is ``SpeedGauge.time``."""
        from wstargeo.algebra import BlockAlgebra
        from wstargeo.suites import run_suite

        algebra = BlockAlgebra(self.blocks)

        def call(suite):
            try:
                return run_suite(suite, algebra, trials=trials, seed=seed)
            except Exception as exc:  # counted per row by run_round
                return exc

        for suite in self.expected:
            yield (suite, *timer(lambda: call(suite)))

    def warm_up(self) -> None:
        """One trial of every row: lazy imports and one-time caches."""
        for _ in self._run_all(1, self.suite_seed + 1, lambda fn: (fn(), 0.0, 0.0)):
            pass

    def run_round(self, tally: checks.Tally, gauge):
        """``(seconds, seconds at reference speed)`` of each ``run_suite``
        call keyed by suite, and each row's own ``wall_time`` keyed by
        metric name.  Rows are checked between the timed calls."""
        parts: dict[str, tuple[float, float]] = {}
        row_times: dict[str, list[float]] = {}
        for suite, rows, seconds, reference in self._run_all(self.trials, self.suite_seed, gauge.time):
            parts[suite] = (seconds, reference)
            if isinstance(rows, Exception):
                for row in self.expected[suite]:
                    tally.record(f"{suite}/{row}", [f"suite raised {rows!r}"], wrong=False)
                continue
            checks.check_suite_rows(
                tally, suite, rows, self.expected[suite], self.trials, self.suite_seed
            )
            for row in rows:
                row_times[f"suites.{row.suite.replace('/', '.')}.s"] = [row.wall_time]
        return parts, row_times


class CliFilesWorkload:
    """A fixed batch of ``orbit``, ``polar`` and ``amplitude`` commands on
    generated files, each through ``wstargeo.cli.main`` with stdout captured."""

    round_seconds = 0.09
    #: A batch lasts less than 0.1 s; the samples around it suffice.
    gauge_interval = None

    def __init__(self, seed: int, workdir: str) -> None:
        self.shapes = list(inputs.FILE_SHAPES)
        self.jobs = inputs.make_cli_batch(seed, workdir)
        # Output text of each job once it has been checked; later rounds
        # compare against it instead of parsing again.
        self._checked: dict[int, str] = {}

    def _run_batch(self):
        from wstargeo.cli import main

        out = []
        for job in self.jobs:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = main(job["argv"])
            out.append((code, buf.getvalue(), time.perf_counter() - start))
        return out

    def _check(self, tally: checks.Tally, results) -> None:
        for index, (job, (code, text, _)) in enumerate(zip(self.jobs, results)):
            what = " ".join(job["argv"][:1] + [job["argv"][1].rsplit("/", 1)[-1]])
            if code != 0:
                tally.record(what, [f"exit code {code}: {text.strip()[-200:]}"], wrong=False)
                continue
            if self._checked.get(index) == text:
                tally.record(what, [])
                continue
            try:
                problems = checks.OUTPUT_CHECKS[job["kind"]](text, job)
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"unparsable output ({exc}): {text[:200]!r}"]
            if tally.record(what, problems):
                self._checked[index] = text

    def warm_up(self) -> None:
        self._run_batch()

    def run_round(self, tally: checks.Tally, gauge):
        """``(seconds, seconds at reference speed)`` of each command keyed by
        its index, and the latencies keyed by ``cli.<command>``.  Outputs
        are checked after the batch."""
        results, seconds, reference = gauge.time(self._run_batch)
        factor = reference / seconds
        self._check(tally, results)
        parts: dict[str, tuple[float, float]] = {}
        latencies: dict[str, list[float]] = {}
        for index, (job, (_, _, seconds)) in enumerate(zip(self.jobs, results)):
            parts[str(index)] = (seconds, seconds * factor)
            latencies.setdefault(f"cli.{job['kind']}", []).append(seconds)
        return parts, latencies


#: Workload name -> constructor(seed, workdir).  ``round_seconds`` is the
#: nominal time of one round on the machine the benchmark was tuned on; it
#: turns ``--seconds`` into a fixed round count.
WORKLOADS = {
    "verify-small": lambda seed, workdir: VerifyWorkload((2, 3), 100, 11.0, seed),
    "cli-files": CliFilesWorkload,
}
