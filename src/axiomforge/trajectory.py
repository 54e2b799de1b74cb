"""Durable run records: one JSON object per line, header first.

A trajectory file starts with a header line, carries one step line per
evaluated candidate, and usually ends with a result line summarizing the
run. Steps store the full candidate domain text so each record stands on
its own. `export` repackages any number of runs as normalized jsonl or a
per-run csv summary.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

# hashlib takes blake2b from this same builtin module, but importing hashlib
# also loads OpenSSL (`_hashlib`), several MB that only the HTTP oracle uses.
from _blake2 import blake2b


class MalformedTrajectory(Exception):
    def __init__(self, path: str, line: int, why: str = "not valid JSON"):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {why}")


def content_hash(text: str) -> str:
    """64-bit content hash of a domain text, as 16 hex characters.

    The hash is blake2b with an 8-byte digest. blake2b is taken from
    `_blake2`, the module `hashlib.blake2b` itself comes from, to keep
    OpenSSL unloaded.
    """
    return blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class TrajectoryHeader:
    run_id: str
    config: dict
    original_domain_text: str
    problem_text: str
    corpus_domain_name: str
    seed: int
    engine_version: str

    @classmethod
    def new(cls, config: dict, original_domain_text: str, problem_text: str,
            corpus_domain_name: str, seed: int, engine_version: str) -> "TrajectoryHeader":
        import uuid

        return cls(uuid.uuid4().hex, config, original_domain_text,
                   problem_text, corpus_domain_name, seed, engine_version)


@dataclass(frozen=True)
class TrajectoryStep:
    step_id: int
    parent_id: int | None
    algorithm_phase: str
    domain_text_hash: str
    domain_text: str
    edit_description: str
    plan_length: int | None
    regression_ok: bool
    score: float
    lev_distance: int
    oracle_round: int
    timestamp: int = field(default_factory=lambda: int(time.time() * 1000))

    def __post_init__(self) -> None:
        if self.domain_text_hash != content_hash(self.domain_text):
            raise ValueError("domain_text_hash does not match domain_text")


class TrajectoryWriter:
    """Append-only writer; every record is flushed as soon as it is written."""

    def __init__(self, path, header: TrajectoryHeader):
        self.path = Path(path)
        self.header = header
        self._last_step_id: int | None = None
        self._fh = self.path.open("w", encoding="utf-8")
        # `vars`, as in `record`: the config is a fresh plain dict (a
        # `SearchConfig.snapshot`), which `asdict` would copy deeply again.
        self._write({"kind": "header", **vars(header)})

    def _write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n")
        self._fh.flush()

    def record(self, step: TrajectoryStep) -> None:
        if self._last_step_id is not None and step.step_id <= self._last_step_id:
            raise ValueError(
                f"step ids must increase: got {step.step_id} after {self._last_step_id}"
            )
        if step.parent_id is not None and step.parent_id >= step.step_id:
            raise ValueError("parent_id must be smaller than step_id")
        # A step's fields are all str, int, float, bool or None, so its
        # __dict__ writes what `asdict` would, without a deep copy.
        self._write({"kind": "step", **vars(step)})
        self._last_step_id = step.step_id

    def finalize(self, result: dict) -> None:
        self._write({"kind": "result", **result})

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class TrajectoryRun:
    header: dict
    steps: tuple
    result: dict | None

    @property
    def step_hashes(self) -> tuple:
        return tuple(s["domain_text_hash"] for s in self.steps)


def read_runs(path) -> list:
    """Parse a trajectory file; a header line starts a new run.

    Raises MalformedTrajectory naming the first offending line.
    """
    runs: list[TrajectoryRun] = []
    header: dict | None = None
    steps: list[dict] = []
    result: dict | None = None

    def flush() -> None:
        nonlocal header, steps, result
        if header is not None:
            runs.append(TrajectoryRun(header, tuple(steps), result))
        header, steps, result = None, [], None

    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise MalformedTrajectory(path, lineno, "not valid UTF-8") from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise MalformedTrajectory(path, lineno) from exc
            if not isinstance(record, dict) or "kind" not in record:
                raise MalformedTrajectory(path, lineno, "record has no 'kind'")
            kind = record["kind"]
            if kind == "header":
                if not isinstance(record.get("config", {}), dict):
                    raise MalformedTrajectory(path, lineno, "header config is not an object")
                flush()
                header = record
            elif header is None:
                raise MalformedTrajectory(path, lineno, "record before header")
            elif kind == "step":
                steps.append(record)
            elif kind == "result":
                result = record
            else:
                raise MalformedTrajectory(path, lineno, f"unknown kind '{kind}'")
    flush()
    return runs


def export(paths, out, format: str) -> int:
    """Repackage trajectory files; returns the number of runs exported.

    jsonl: concatenated records, normalized to sorted-key compact JSON, so
    exporting an export reproduces it byte for byte. csv-summary: one row
    per run.
    """
    runs: list[TrajectoryRun] = []
    for path in paths:
        runs.extend(read_runs(path))
    out = Path(out)
    if format == "jsonl":
        with out.open("w", encoding="utf-8") as fh:
            for run in runs:
                for record in (run.header, *run.steps, *((run.result,) if run.result else ())):
                    fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    elif format == "csv-summary":
        import csv

        with out.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "algorithm", "success", "best_length", "steps", "oracle_calls"])
            for run in runs:
                result = run.result or {}
                algorithm = run.header.get("config", {}).get("algorithm", "")
                best = result.get("best_length")
                writer.writerow(
                    [
                        run.header.get("run_id", ""),
                        algorithm,
                        str(bool(result.get("success", False))).lower(),
                        "" if best is None else best,
                        len(run.steps),
                        result.get("oracle_calls", ""),
                    ]
                )
    else:
        raise ValueError(f"unknown export format '{format}'")
    return len(runs)
