import json
import math
from dataclasses import asdict, replace

import pytest

from axiomforge import corpus
from axiomforge.distance import LevenshteinMockOracle
from axiomforge.pddl import parse_domain, parse_problem
from axiomforge.proposer import builtin_script
from axiomforge.search import ObjectiveWeights, SearchConfig, run_search
from axiomforge.trajectory import (
    MalformedTrajectory,
    TrajectoryHeader,
    TrajectoryStep,
    TrajectoryWriter,
    content_hash,
    export,
    read_runs,
)


def _beam_run(tmp_path, name="run.jsonl", seed=1):
    entry = corpus.load("blocksworld")
    domain = parse_domain(entry.domain_text)
    problem = parse_problem(entry.flagship.text)
    cfg = SearchConfig(
        algorithm="beam", target_length=4, seed=seed,
        weights=ObjectiveWeights(alpha=0.0, lam=0.0),
    )
    path = tmp_path / name
    result = run_search(
        cfg, domain, problem, corpus.regression_suite("blocksworld"),
        builtin_script(), distance_oracle=LevenshteinMockOracle(),
        trajectory_path=path,
    )
    return path, result


def _step(step_id, parent_id=None, text="(define (domain d))"):
    return TrajectoryStep(
        step_id=step_id,
        parent_id=parent_id,
        algorithm_phase="test",
        domain_text=text,
        edit_description="unit",
        plan_length=None,
        regression_ok=False,
        score=1.0,
        lev_distance=0,
        oracle_round=0,
    )


def _header():
    return TrajectoryHeader.new(
        config={"algorithm": "beam"},
        original_domain_text="(define (domain d))",
        problem_text="(define (problem p) (:domain d) (:goal (and)))",
        corpus_domain_name="d",
        seed=0,
        engine_version="0.0-test",
    )


def test_beam_run_file_contents(tmp_path):
    path, result = _beam_run(tmp_path)
    lines = path.read_text().splitlines()
    assert len(lines) >= 4  # header + root + two candidates (+ result)
    runs = read_runs(path)
    assert len(runs) == 1
    run = runs[0]
    assert run.header["kind"] == "header"
    assert run.steps[0]["algorithm_phase"] == "root"
    assert len(run.steps) >= 3
    assert run.result["success"] is True
    assert run.header["run_id"] == result.trajectory_id


def test_header_line_is_what_asdict_writes(tmp_path):
    # The writer writes a header from its __dict__, as it writes a step;
    # for a run's config snapshot, whose weights nest a dict, the line must
    # be the one `asdict` gives.
    cfg = SearchConfig(algorithm="beam", target_length=4, seed=1, weights=ObjectiveWeights(alpha=0.0))
    header = replace(_header(), config=cfg.snapshot())
    path = tmp_path / "h.jsonl"
    TrajectoryWriter(path, header).close()
    expected = json.dumps({"kind": "header", **asdict(header)}, sort_keys=True, separators=(",", ":"))
    assert path.read_text(encoding="utf-8") == expected + "\n"


def test_best_matches_recorded_step(tmp_path):
    path, result = _beam_run(tmp_path)
    run = read_runs(path)[0]
    best_hash = content_hash(result.best.canonical_text)
    matching = [s for s in run.steps if s["domain_text_hash"] == best_hash]
    assert len(matching) == 1
    assert run.result["best_hash"] == best_hash


def test_replay_reproduces_hash_sequence(tmp_path):
    path_a, _ = _beam_run(tmp_path, "a.jsonl", seed=9)
    path_b, _ = _beam_run(tmp_path, "b.jsonl", seed=9)
    assert read_runs(path_a)[0].step_hashes == read_runs(path_b)[0].step_hashes


def test_out_of_order_step_rejected(tmp_path):
    writer = TrajectoryWriter(tmp_path / "t.jsonl", _header())
    writer.record(_step(3))
    with pytest.raises(ValueError):
        writer.record(_step(3))
    with pytest.raises(ValueError):
        writer.record(_step(1))
    writer.close()


def test_a_step_that_is_not_finite_json_is_refused(tmp_path):
    writer = TrajectoryWriter(tmp_path / "t.jsonl", _header())
    with pytest.raises(ValueError):
        writer.record(replace(_step(0), score=math.inf))
    writer.record(_step(0))  # a refused step leaves its id free
    writer.close()
    assert "Infinity" not in (tmp_path / "t.jsonl").read_text()


def test_an_infinite_score_written_before_the_check_still_exports(tmp_path):
    # Earlier writers recorded a grounding explosion's score as `Infinity`.
    path = tmp_path / "old.jsonl"
    records = [{"kind": "header", **vars(_header())}, {"kind": "step", **vars(replace(_step(0), score=math.inf))}]
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records))
    assert '"score":Infinity' in path.read_text()
    (run,) = read_runs(path)
    assert run.steps[0]["score"] == math.inf
    out = tmp_path / "out.jsonl"
    assert export([path], out, "jsonl") == 1
    assert out.read_bytes() == path.read_bytes()


def test_parent_must_precede_child(tmp_path):
    writer = TrajectoryWriter(tmp_path / "t.jsonl", _header())
    with pytest.raises(ValueError):
        writer.record(_step(0, parent_id=0))
    writer.close()


def test_hash_integrity_enforced():
    text = "(define (domain hashed))"
    assert _step(0, text=text).domain_text_hash == content_hash(text)


def test_header_only_file_valid(tmp_path):
    path = tmp_path / "empty.jsonl"
    TrajectoryWriter(path, _header()).close()
    assert len(path.read_text().splitlines()) == 1
    runs = read_runs(path)
    assert len(runs) == 1
    assert runs[0].steps == () and runs[0].result is None


def test_every_step_flushed(tmp_path):
    writer = TrajectoryWriter(tmp_path / "t.jsonl", _header())
    writer.record(_step(0))
    # readable before close because every record is flushed
    assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 2
    writer.close()


def test_export_jsonl_counts_runs(tmp_path):
    paths = [_beam_run(tmp_path, f"r{i}.jsonl", seed=i)[0] for i in range(3)]
    out = tmp_path / "all.jsonl"
    assert export(paths, out, "jsonl") == 3
    assert len(read_runs(out)) == 3


def test_export_jsonl_idempotent(tmp_path):
    paths = [_beam_run(tmp_path, f"r{i}.jsonl", seed=i)[0] for i in range(2)]
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    export(paths, first, "jsonl")
    export([first], second, "jsonl")
    assert first.read_bytes() == second.read_bytes()


def test_export_csv_summary(tmp_path):
    path, result = _beam_run(tmp_path)
    out = tmp_path / "summary.csv"
    assert export([path], out, "csv-summary") == 1
    lines = out.read_text().splitlines()
    assert lines[0] == "run_id,algorithm,success,best_length,steps,oracle_calls"
    run_id, algorithm, success, best_length, steps, oracle_calls = lines[1].split(",")
    assert algorithm == "beam" and success == "true" and best_length == "2"
    assert int(steps) >= 3
    assert run_id == result.trajectory_id


def test_truncated_line_reports_position(tmp_path):
    path, _ = _beam_run(tmp_path)
    text = path.read_text()
    broken = tmp_path / "broken.jsonl"
    broken.write_text(text[:-20])  # chop the tail of the last record
    with pytest.raises(MalformedTrajectory) as err:
        read_runs(broken)
    expected_line = len(text.splitlines())
    assert err.value.line == expected_line
    assert str(expected_line) in str(err.value)


def test_unknown_export_format(tmp_path):
    path, _ = _beam_run(tmp_path)
    with pytest.raises(ValueError):
        export([path], tmp_path / "x", "parquet")


def test_record_before_header_rejected(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"kind": "step"}) + "\n")
    with pytest.raises(MalformedTrajectory):
        read_runs(bad)


@pytest.mark.parametrize("record, why", [
    ([1], "record has no 'kind'"),
    ({"kind": "oracle"}, "unknown kind 'oracle'"),
])
def test_bad_record_after_header_reports_its_line(tmp_path, record, why):
    path = tmp_path / "bad.jsonl"
    TrajectoryWriter(path, _header()).close()
    with path.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    with pytest.raises(MalformedTrajectory) as err:
        read_runs(path)
    assert str(err.value) == f"{path}:2: {why}"


def test_blank_lines_between_records_are_skipped(tmp_path):
    path, _ = _beam_run(tmp_path)
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n \n".join(path.read_text().splitlines(keepends=True)))
    assert read_runs(spaced) == read_runs(path)


def test_header_config_must_be_an_object(tmp_path):
    path, _ = _beam_run(tmp_path)
    header, *rest = path.read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**json.loads(header), "config": []}) + "\n" + "".join(rest))
    with pytest.raises(MalformedTrajectory, match="header config is not an object") as err:
        read_runs(bad)
    assert err.value.line == 1


def test_deeply_nested_line_is_malformed(tmp_path):
    path, _ = _beam_run(tmp_path)
    bad = tmp_path / "deep.jsonl"
    bad.write_text(path.read_text() + "[" * 200000 + "]" * 200000 + "\n")
    with pytest.raises(MalformedTrajectory) as err:
        read_runs(bad)
    assert err.value.line == len(path.read_text().splitlines()) + 1
