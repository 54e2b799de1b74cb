"""One workload in one fresh process; started by run.py, never by hand.

`--mode setup` stops once the first operation could start and reports when
that was. `--mode measure` then runs the closed loop. With `--trace 1` it
runs every input untraced and traced in back-to-back pairs, and reports
per-layer values from the traced runs together with the tracing slowdown.
The tracer is imported only with `--trace 1`, so untraced set-up pays
nothing for it.

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Enough samples for 10 beyond the 90th percentile.
MIN_SAMPLES = 100
# A run keeps going past --seconds until it has MIN_SAMPLES, but never past
# this many times --seconds.
MAX_STRETCH = 3

# The CPU speed of a shared host drifts by tens of percent within seconds
# and minutes, more than a CPU-bound figure may move between runs. So times
# count CPU at a fixed reference speed: before every operation the worker
# times reference_loop(), which never calls axiomforge, and an operation's
# CPU time is scaled by REFERENCE_S over the median of the last
# SPEED_WINDOW such times. Time spent waiting (wall minus CPU) counts as
# measured.
REFERENCE_S = 0.005
SPEED_WINDOW = 5


def reference_loop() -> float:
    """CPU seconds one fixed pure-Python loop takes on this host now.

    It makes and drops small tuples, strings and lists and stores them in a
    small dict, the kind of work axiomforge does, so it slows when the host
    slows the program. At most 97 entries are alive at once, so it neither
    grows the heap nor adds to peak RSS. The collector is off meanwhile, so
    the loop neither pays for the program's garbage nor moves when the
    program's next collection runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        table = {}
        for i in range(8000):
            key = ("k", i % 97, str(i))
            table[key[1]] = [i, key[2] + "x", (i, i + 1)]
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(wall: float, cpu: float, reference: float) -> float:
    """`wall` seconds, of which `cpu` were CPU time, with the CPU part scaled
    to a host on which reference_loop() takes REFERENCE_S."""
    return max(wall - cpu, 0.0) + cpu * REFERENCE_S / reference


def _prepare_environment(workdir: Path) -> None:
    os.environ["AXIOMFORGE_API_KEY"] = "perfbench-stub-key"
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    # requests looks for credentials in ~/.netrc unless NETRC names a file.
    os.environ["NETRC"] = str(workdir / "no-netrc")


class Stats:
    def __init__(self) -> None:
        # one sample per operation run, failed ones too, at reference speed
        self.latencies: list = []
        self.wall: list = []  # the same runs' wall-clock times
        self.failed = 0
        self.counts: dict = {}
        # (input index, pass) -> (latency, requests) of each run that passed
        self.runs: dict = {}


def run_one(workload, index: int, pass_no: int, stats: Stats, references: list) -> None:
    """Run one input once, timed, and check its output."""
    item = workload.inputs[index]
    references.append(reference_loop())
    reference = statistics.median(references[-SPEED_WINDOW:])
    t0, c0 = time.perf_counter(), time.process_time()
    error = None
    try:
        output = workload.run(item)
    except Exception as exc:
        error = exc
    elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
    stats.wall.append(elapsed)
    stats.latencies.append(at_reference_speed(elapsed, cpu, reference))
    if error is not None:
        stats.failed += 1
        traceback.print_exception(error)
        workload.resync()
        return
    try:
        counts = workload.check(item, output)
    except Exception as exc:
        stats.failed += 1
        print(f"check failed on {item!r}: {exc!r}", file=sys.stderr)
        return
    for key, value in counts.items():
        stats.counts[key] = stats.counts.get(key, 0) + value
    stats.runs[index, pass_no] = (elapsed, counts.get("proposer.http.requests", 0))


def run_loop(workload, seconds: float, tracer=None) -> tuple:
    """Whole passes over the inputs until `seconds` have gone and there are
    MIN_SAMPLES, with one caller.

    With a tracer, each input runs twice back to back in a pass, untraced
    and traced, in an order that alternates by pass and input, so the two
    runs of a pair see the same state of a shared host; returns (untraced,
    traced) stats and every reference time taken.
    """
    plain, traced = Stats(), Stats()
    references: list = []
    started = time.monotonic()
    pass_no = 0
    while True:
        for index in range(len(workload.inputs)):
            if tracer is None:
                run_one(workload, index, pass_no, plain, references)
                continue
            for stats in (traced, plain) if (pass_no + index) % 2 else (plain, traced):
                if stats is traced:
                    tracer.install()
                try:
                    run_one(workload, index, pass_no, stats, references)
                finally:
                    tracer.uninstall()  # does nothing when not installed
        pass_no += 1
        elapsed = time.monotonic() - started
        samples = len(plain.latencies) + len(traced.latencies)
        if elapsed >= seconds * MAX_STRETCH or (elapsed >= seconds and samples >= MIN_SAMPLES):
            return plain, traced, references


def trace_slowdown(plain: Stats, traced: Stats) -> float:
    """Median over inputs of the median traced/untraced latency ratio of
    that input's back-to-back pairs.

    A pair is left out if either run sent more requests than the fewest any
    run of the input sent: it was retried after a 503, and its backoff sleep
    is not a cost of the wrappers.
    """
    fewest: dict = {}
    for (index, _), (_, requests) in [*plain.runs.items(), *traced.runs.items()]:
        fewest[index] = min(requests, fewest.get(index, requests))
    ratios: dict = {}
    for key, (latency, requests) in traced.runs.items():
        if key in plain.runs and requests == plain.runs[key][1] == fewest[key[0]]:
            ratios.setdefault(key[0], []).append(latency / plain.runs[key][0])
    return statistics.median(statistics.median(r) for r in ratios.values())


def _per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def layer_metrics(tracer, counts: dict, ops: int) -> dict:
    """Per-operation layer values from the traced phase."""
    totals = tracer.layer_totals()
    merged = {**counts, **tracer.counts}
    out = {}
    for name in (
        "pddl.parse_domain", "pddl.print_canonical", "pddl.link", "planner.ground",
        "planner.solve", "distance.levenshtein", "distance.hybrid_rank", "proposer.propose",
        "proposer.http.complete", "search.evaluate", "trajectory.record",
    ):
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = _per_op(calls, ops)
        out[f"{name}.self_ms"] = _per_op(self_s * 1000, ops)
    out["proposer.extract.self_ms"] = _per_op(totals.get("proposer.extract", (0, 0.0))[1] * 1000, ops)
    for name in (
        "planner.ground.actions", "planner.solve.plan_steps", "planner.solve.resource_exceeded",
        "distance.levenshtein.chars", "distance.oracle_queries", "proposer.extract.blocks",
        "proposer.extract.dropped", "proposer.http.requests", "search.evaluations",
        "trajectory.bytes",
    ):
        out[name] = _per_op(merged.get(name, 0), ops)
    out["proposer.http.retries"] = out["proposer.http.requests"] - out["proposer.http.complete.calls"]
    blocks = merged.get("proposer.extract.blocks", 0)
    out["proposer.useful_ratio"] = merged.get("proposer.linkable", 0) / blocks if blocks else 0.0
    lookups = merged.get("search.lookups", 0)
    hits = lookups - merged.get("search.evaluations", 0)
    out["search.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "axiomforge" / "__init__.py").is_file():
        print(f"no axiomforge sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _prepare_environment(workdir)
        sys.path.insert(0, str(SRC))
        t0 = time.perf_counter()
        import axiomforge.cli  # noqa: F401  (what every CLI invocation pays)
        import_ms = (time.perf_counter() - t0) * 1000
        if Path(axiomforge.cli.__file__).resolve().parent.parent != SRC:
            print(f"axiomforge imported from {axiomforge.cli.__file__}, not {SRC}", file=sys.stderr)
            return 2

        from workloads import WORKLOADS

        if args.trace:
            from tracing import Tracer

            setup_tracer = Tracer()
            setup_tracer.install()
            try:
                workload = WORKLOADS[args.workload](args.seed, workdir)
            finally:
                setup_tracer.uninstall()
        else:
            workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            report = {"ready_at": time.monotonic(), "import_ms": import_ms}
            if args.mode == "measure":
                tracer = Tracer() if args.trace else None
                plain, traced, references = run_loop(workload, args.seconds, tracer)
                report.update(
                    latencies=plain.latencies,
                    wall=plain.wall,
                    reference_s=statistics.median(references),
                    attempted=len(plain.latencies) + len(traced.latencies),
                    failed=plain.failed + traced.failed,
                )
                if tracer is not None:
                    layers = layer_metrics(tracer, traced.counts, len(traced.latencies))
                    setup_s = setup_tracer.layer_totals().get("corpus.regression_suite", (0, 0.0))[1]
                    layers["corpus.regression_suite.self_ms"] = setup_s * 1000
                    layers["trace.slowdown"] = trace_slowdown(plain, traced)
                    report["layers"] = layers
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            workload.close()
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
