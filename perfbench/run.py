"""axiomforge benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; it measures the sources under `src/`.
Workloads, metrics and bounds are declared in BENCHMARK.json; what each
workload is for is written in perfbench/README.md.

Each call starts fresh worker processes (perfbench/worker.py). The first
SETUP_PROBES only set up, untraced, to time `setup_s`: from process start to
the moment the first operation could begin, which covers interpreter start,
`import axiomforge.cli`, loading the corpus and regression suites,
generating the inputs and starting the stub server. The last one sets up
the same way, runs the closed loop for --seconds with one caller and reports
latency, throughput and peak RSS. Operation times count CPU at a fixed
reference speed and waiting as measured (worker.at_reference_speed), so
that the drifting speed of a shared host does not swamp them. With
--trace 1 it reports the per-layer metrics instead. `--workload all` runs
every workload with tracing off and prints a table.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
`attempted` counts every operation run and failed/attempted is the failed
share. Every run is one latency sample; the stderr table gives the sample
count behind op_ms_p50 and op_ms_p90 and the wall-clock figures.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MIN_SAMPLES, REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _worker(workload: str, seed: int, mode: str, seconds: float, trace: int) -> tuple:
    """Run one worker; returns (its report, the monotonic time it was started)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        report, started = _worker(workload, seed, "setup", 0, 0)
        setups.append(report["ready_at"] - started)
        imports.append(report["import_ms"])
    report, _ = _worker(workload, seed, "measure", seconds, trace)

    latencies, wall = report["latencies"], report["wall"]
    failed = report["failed"]
    result = {
        "attempted": report["attempted"],
        "failed": failed,
        "samples": len(latencies),
        "wall": {
            "ops_per_s": len(wall) / sum(wall),
            "op_ms_p50": percentile(wall, 0.5) * 1000,
            "op_ms_p90": percentile(wall, 0.9) * 1000,
            "reference_ms": report["reference_s"] * 1000,
        },
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_ms_p50": percentile(latencies, 0.5) * 1000,
            "op_ms_p90": percentile(latencies, 0.9) * 1000,
            "peak_rss_mb": report["peak_rss_mb"],
        },
    }
    if trace:
        result["per_layer"] = {
            **report["layers"],
            "cli.import_ms": statistics.median(imports),
            "failed_frac": failed / report["attempted"],
        }
    return result


def _select(values: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _print_table(workload: str, result: dict, metrics: dict) -> None:
    ops, failed = result["attempted"], result["failed"]
    print(f"{workload}: {ops} operations, {failed} failed (failed_frac {failed / ops:.4f})",
          file=sys.stderr)
    if "op_ms_p90" in metrics:
        print(f"  latency percentiles over {result['samples']} samples", file=sys.stderr)
        if result["samples"] < MIN_SAMPLES:
            print(f"  fewer than {MIN_SAMPLES} samples: under 10 lie beyond op_ms_p90", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.4f} {entry['unit']}", file=sys.stderr)
    if "op_ms_p90" in metrics:
        wall = result["wall"]
        print(f"  wall clock, with the reference loop at {wall['reference_ms']:.2f} ms "
              f"(reference speed: {REFERENCE_S * 1000:g} ms):", file=sys.stderr)
        for name in ("ops_per_s", "op_ms_p50", "op_ms_p90"):
            print(f"  {name:40s} {wall[name]:14.4f}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        if not (ROOT / "src" / "axiomforge" / "__init__.py").is_file():
            raise BenchError(f"no axiomforge sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            rows = {}
            for name in names:
                result = measure(name, args.seed, args.seconds, 0)
                rows[name] = _select(result["end_to_end"], spec["end_to_end"])
                _print_table(name, result, rows[name])
                for metric, entry in rows[name].items():
                    print(f"{name:16s} {metric:14s} {entry['value']:12.4f} {entry['unit']}")
            return 0
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        if args.trace:
            metrics = _select(result["per_layer"], spec["per_layer"])
        else:
            metrics = _select(result["end_to_end"], spec["end_to_end"])
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench_work").rmdir()  # workers remove their own parts
        except OSError:
            pass
    _print_table(args.workload, result, metrics)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
