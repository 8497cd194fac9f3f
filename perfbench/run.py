"""jdist benchmark: one workload per process, closed loop, outputs checked.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload family_scan --seed 1 --seconds 20 --trace 0

Runs passes over the workload's operations, one operation at a time, until
``--seconds`` have gone by (at least one pass).  The last line of stdout is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (``pass_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the run alternates
untraced and traced passes and reports the per-layer metrics of
``spans.PER_LAYER``.

jdist is imported from ``src/`` next to this directory and nowhere else;
without it the benchmark exits with code 2.  ``JDIST_WORKERS`` is left as
the caller's environment has it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = HERE / "tmp"
SETUP_SAMPLES = 9


def load_jdist() -> None:
    """Import jdist from this checkout's ``src`` or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import jdist
    import jdist.cli
    import jdist.maximality
    import jdist.subjohnson

    if SRC.resolve() not in Path(jdist.__file__).resolve().parents:
        raise ImportError(f"jdist imported from {jdist.__file__}, not from {SRC}")


def make_workdir() -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))


def remove_workdir(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run still uses it


def setup_probe(workload: str, seed: int) -> float:
    """Time from spawning a fresh process to its report that jdist is
    imported and the inputs are written.

    The probe prints ``time.monotonic()`` when ready; that clock is shared by
    all processes, and the probe's exit stays outside the measurement.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    argv += ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    t0 = monotonic()
    probe = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=60)
    return float(probe.stdout) - t0


def run_pass(ops, rng, tracer=None) -> tuple[dict[str, float], list[tuple[str, str]]]:
    """One pass in seed-permuted order; returns each operation's time and the
    failures."""
    order = list(ops)
    rng.shuffle(order)
    times = {}
    failures = []
    for op in order:
        if tracer is not None:
            tracer.begin_op(op.label)
        t0 = perf_counter()
        try:
            outcome = op.call()
        except (Exception, SystemExit) as exc:  # argparse exits on bad arguments
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        finally:
            times[op.label] = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
        if error is None:
            try:
                error = op.check(outcome)
            except (ValueError, KeyError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((op.label, error))
    return times, failures


class Loop:
    """Runs passes for a fixed time and keeps their times and failures."""

    def __init__(self, ops, rng):
        self.ops = ops
        self.rng = rng
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def run(
        self, seconds: float, tracer=None, on_pass=None, before_pass=None
    ) -> list[dict[str, float]]:
        """Passes until ``seconds`` have gone by; returns each pass's
        operation times."""
        times = []
        deadline = perf_counter() + seconds
        while not times or perf_counter() < deadline:
            if before_pass is not None:
                before_pass()
            if tracer is not None:
                mark = tracer.quadnum_mark()
            op_times, failures = run_pass(self.ops, self.rng, tracer)
            times.append(op_times)
            self.attempted += len(self.ops)
            self.failures += failures
            if on_pass is not None:
                on_pass(tracer.take(), tracer.quadnum_mark() - mark - 1)
        return times


def untraced_metrics(
    loop: Loop, seconds: float, workload: str, seed: int
) -> tuple[dict, list[float]]:
    """End-to-end metrics; returns them and the pass times.

    ``pass_s`` is the time of a pass made of each operation's fastest run.
    On a shared machine, other work slows the program in phases that can
    last tens of seconds, and a run may hold more slow passes than fast
    ones, so the median pass flips between phases from run to run.  An
    operation is shorter than a pass and more often runs entirely inside a
    quiet phase, so the sum of the fastest runs repeats better.  Set-up is
    probed before each pass, up to ``SETUP_SAMPLES`` times, and at the end,
    so that the probes see the same phases as the passes; ``setup_s`` is
    their median.
    """
    setup_probe(workload, seed)  # also writes the bytecode caches
    probes: list[float] = []

    def probe():
        if len(probes) < SETUP_SAMPLES:
            probes.append(setup_probe(workload, seed))

    passes = loop.run(seconds, before_pass=probe)
    while len(probes) < SETUP_SAMPLES:
        probe()
    fastest = sum(min(p[label] for p in passes) for label in passes[0])
    metrics = {
        "pass_s": {"value": fastest, "unit": "s"},
        "setup_s": {"value": statistics.median(probes), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    return metrics, pass_totals(passes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    try:
        load_jdist()
    except ImportError as exc:
        print(f"cannot import jdist from {SRC}: {exc}", file=sys.stderr)
        return 2

    directory = make_workdir()
    try:
        workloads.write_inputs(args.workload, directory, args.seed)
        if args.setup_probe:
            print(monotonic())
            return 0
        loop = Loop(workloads.operations(args.workload, directory), random.Random(args.seed))
        if args.trace:
            metrics, times = traced_metrics(loop, args.seconds)
        else:
            metrics, times = untraced_metrics(loop, args.seconds, args.workload, args.seed)
    finally:
        remove_workdir(directory)

    for label, error in loop.failures:
        print(f"FAILED {label}: {error}", file=sys.stderr)
    failed = len(loop.failures)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(times)} "
        f"pass time min={min(times):.4f} median={statistics.median(times):.4f} "
        f"max={max(times):.4f} "
        f"ops={loop.attempted} fail_ratio={failed / loop.attempted:g}"
    )
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def pass_totals(passes: list[dict[str, float]]) -> list[float]:
    return [sum(p.values()) for p in passes]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def traced_metrics(loop: Loop, seconds: float) -> tuple[dict, list[float]]:
    """Untraced and traced passes in turn; per-layer medians over traced passes.

    Alternating puts both kinds of pass in the same phases of the machine's
    load, so ``trace.overhead_ratio`` compares like with like.  Returns the
    metrics and the untraced pass times.
    """
    tracer = spans.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict[str, float]] = []
    by_op: dict[tuple[str, str], list] = {}

    def record(recorded, quads):
        per_pass.append(spans.pass_figures(recorded, quads, by_op))

    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        untraced += pass_totals(loop.run(0))
        tracer.install()
        try:
            traced += pass_totals(loop.run(0, tracer, record))
        finally:
            tracer.uninstall()
    print(f"self time by operation and span over {len(traced)} traced passes:", file=sys.stderr)
    for (op, name), (calls, self_s) in sorted(by_op.items(), key=lambda kv: (kv[0][0], -kv[1][1])):
        print(f"  {op} | {name:40s} calls={calls:<8d} self_s={self_s:.4f}", file=sys.stderr)
    figures = spans.median_figures(per_pass)
    figures["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics = {
        name: {"value": figures[name], "unit": unit} for name, unit in spans.PER_LAYER.items()
    }
    return metrics, untraced


if __name__ == "__main__":
    sys.exit(main())
