"""linklab benchmark: one workload per process, outputs checked, metrics printed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the run is untraced and the last line of standard output
is a JSON object carrying the end-to-end metrics, their timings scaled to a
reference host speed (``speed.py``); with ``--trace 1`` the same
fixed amount of work runs once untraced and once under the span tracer, and
the JSON object carries the per-layer metrics plus the tracing overhead.
The line before it is a JSON stamp with the environment (nproc, Python and
networkx versions) and the details behind the metrics.  Workloads and the
reasons for them are described in ``perfbench/README.md``.

Exit codes: 0 when every output check passed, 1 when a check failed (the
result line still prints, with ``"correct": false``), 2 when the run could
not start, for example because ``src/linklab`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"
WORKLOAD_NAMES = ("sweep-m2", "sweep-m01", "certify-grid", "fuzz-removable")

# Set-up is measured on this many fresh processes that only import linklab
# and build the workload inputs; the median is reported.
SETUP_PROBES = 9
# Tail percentiles, lowest first.  Each workload fixes its own (see
# workloads.py), so two commits always compare the same percentile; a run
# steps down only when fewer than TAIL_BEYOND samples lie beyond it.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_BEYOND = 10


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import linklab, build the inputs and exit (set-up probe)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_library():
    """Import linklab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import linklab

    if Path(linklab.__file__).resolve().parent != SRC / "linklab":
        print(f"error: linklab was imported from {linklab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


def time_probe(command: list[str]) -> float:
    """Seconds from launching ``command`` to the ``time.perf_counter``
    reading it prints (one clock across processes), so interpreter
    shutdown is not counted."""
    start = time.perf_counter()
    probe = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return float(probe.stdout) - start


def measure_setup(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Raw and scaled seconds of each set-up probe.  Probes alternate with
    the reference probe of ``speed``; a probe is scaled by the mean of the
    reference times just before and just after it."""
    import speed

    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    reference = [sys.executable, "-c", speed.REFERENCE_PROBE]
    raw, scaled = [], []
    before = time_probe(reference)
    for _ in range(SETUP_PROBES):
        took = time_probe(command)
        after = time_probe(reference)
        raw.append(took)
        scaled.append(took * 2.0 * speed.SETUP_REFERENCE_S / (before + after))
        before = after
    return raw, scaled


class Tally:
    """Output-check totals over the rounds of one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.complaints: list[str] = []

    def add(self, checked: tuple[int, int, list[str]]) -> None:
        attempted, failed, complaints = checked
        self.attempted += attempted
        self.failed += failed
        self.complaints += complaints


def run_rounds(workload, clock, on_round, *, seconds: float | None = None, rounds: int | None = None):
    """Run whole rounds: a fixed number, or while the next round (judged by
    the last one) still fits into ``seconds`` of wall time, calibration
    included.  ``on_round`` receives each round's records outside the timed
    span.  Returns the timed seconds and the number of rounds run."""
    timed = 0.0
    done = 0
    while True:
        start = time.perf_counter()
        clock.start_round()
        records = workload.round(clock)
        clock.end_round()
        took = time.perf_counter() - start
        timed += took
        done += 1
        on_round(records)
        if rounds is not None:
            if done >= rounds:
                break
        elif timed + took > seconds:
            break
    return timed, done


def tail(latencies: list[float], percentile: float) -> tuple[float, float]:
    """The latency at ``percentile``, stepping down the ladder while fewer
    than ``TAIL_BEYOND`` samples lie beyond it; returns value and percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    for rank in sorted((p for p in TAIL_LADDER if p <= percentile), reverse=True):
        beyond = int(round(n * (100.0 - rank) / 100.0, 6))
        if beyond >= TAIL_BEYOND:
            return ordered[n - beyond - 1], rank
    return ordered[-1], 100.0


def stamp() -> dict:
    import networkx

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
    }


def run_untraced(args, workloads, workload, setup_raw: list[float], setup_scaled: list[float]):
    clock = workloads.OpClock(calibrate=True)
    tally = Tally()
    # Records are checked and dropped round by round, so memory does not
    # grow with the number of rounds a run fits in.
    wall, rounds = run_rounds(workload, clock, lambda records: tally.add(workload.check(records)),
                              seconds=args.seconds)
    latencies = clock.scaled_ms
    if len(latencies) != tally.attempted:
        tally.complaints.append(f"timed {len(latencies)} operations but checked {tally.attempted}")
    tail_ms, tail_rank = tail(latencies, workload.TAIL_PERCENTILE)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (tally.attempted / clock.scaled_work_s, "1/s"),
        "op_ms_p50": (statistics.median(latencies), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # The timings unscaled, and the kernel times behind the scaling.
    details = {
        "rounds": rounds,
        "wall_s": wall,
        "op_samples": len(latencies),
        "op_ms_tail_percentile": tail_rank,
        "raw_ops_per_s": tally.attempted / clock.raw_work_s,
        "raw_op_ms_p50": statistics.median(clock.latencies_ms),
        "raw_op_ms_tail": tail(clock.latencies_ms, workload.TAIL_PERCENTILE)[0],
        "kernel_runs": len(clock.kernel_s),
        "kernel_ms_p50": statistics.median(clock.kernel_s) * 1000.0,
        "raw_setup_s": statistics.median(setup_raw),
        "setup_samples_s": setup_scaled,
    }
    return tally, metrics, details


def run_traced(args, workloads, workload, tracer_module):
    rounds = workload.trace_rounds(args.seconds)
    # Records are kept and checked after the tracer is removed, so the
    # checks' own library calls stay out of the counts.
    untraced_records, traced_records = [], []
    untraced_s, _ = run_rounds(workload, workloads.OpClock(), untraced_records.extend, rounds=rounds)
    # The traced pass repeats exactly the same operations.
    workload.prepare(args.seed, WORKDIR)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced_s, _ = run_rounds(workload, workloads.OpClock(tracer), traced_records.extend, rounds=rounds)
    finally:
        tracer.uninstall()
    tally = Tally()
    tally.add(workload.check(traced_records))
    _, untraced_failed, untraced_complaints = workload.check(untraced_records)
    tally.failed = max(tally.failed, untraced_failed)
    tally.complaints += untraced_complaints
    stats = tracer.metrics()
    stats["trace.overhead"] = traced_s / untraced_s - 1.0
    metrics = {name: (stats.get(name, 0), unit) for name, unit, _ in tracer_module.layer_metric_specs()}
    trace_file = WORKDIR / f"trace-{args.workload}.json"
    tracer.write(trace_file, {"workload": args.workload, "seed": args.seed, "rounds": rounds})
    details = {
        "rounds": rounds,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.sp_start),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return tally, metrics, details


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "linklab" / "__init__.py").is_file():
        print(f"error: no linklab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    workloads = import_library()
    WORKDIR.mkdir(exist_ok=True)
    if args.setup_only:
        workloads.WORKLOADS[args.workload]().prepare(args.seed, WORKDIR)
        print(repr(time.perf_counter()))
        return 0
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed, WORKDIR)
    if args.trace:
        import tracer

        tally, metrics, details = run_traced(args, workloads, workload, tracer)
    else:
        try:
            setup_raw, setup_scaled = measure_setup(args)
        except subprocess.CalledProcessError as exc:
            print(f"error: set-up probe failed with exit code {exc.returncode}", file=sys.stderr)
            return 2
        tally, metrics, details = run_untraced(args, workloads, workload, setup_raw, setup_scaled)
    correct = tally.failed == 0 and not tally.complaints
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **stamp(),
                      **details, "fail_frac": fail_frac, "complaints": tally.complaints[:10]}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
