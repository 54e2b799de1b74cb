import functools
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import axiomforge
from axiomforge import cli, corpus, planner
from axiomforge.cli import main
from axiomforge.proposer import OracleClientConfig
from axiomforge.search import ObjectiveWeights, SearchConfig
from axiomforge.trajectory import read_runs
from conftest import WIDE_ACTIONS

B, R = "corpus:blocksworld", "corpus:blocksworld:restack"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_prints_canonical(capsys):
    code, out, err = run_cli(capsys, "parse", "corpus:blocksworld")
    assert code == 0
    assert out.startswith("(define (domain blocksworld)")
    assert err == ""


def test_parse_reports_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.pddl"
    bad.write_text("(define (domain x) (:functions (f)))")
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert "unsupported-construct" in err


def test_plan_flagship(capsys):
    code, out, err = run_cli(capsys, "plan", "corpus:blocksworld", "corpus:blocksworld:restack")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "length: 6"
    assert lines[0] == "(unstack c b)"


def test_a_corpus_domain_reference_as_the_problem_is_the_flagship(capsys):
    flagship = corpus.load("blocksworld").flagship.name
    named = run_cli(capsys, "plan", B, f"{B}:{flagship}")
    assert named[0] == 0
    assert run_cli(capsys, "plan", B, B) == named


def test_plan_unsolvable(capsys, tmp_path):
    problem = tmp_path / "p.pddl"
    problem.write_text(
        "(define (problem self) (:domain blocksworld) (:objects a)"
        " (:init (on-table a) (clear a) (arm-empty)) (:goal (and (on a a))))"
    )
    code, out, err = run_cli(capsys, "plan", "corpus:blocksworld", str(problem))
    assert code == 1
    assert out.strip() == "unsolvable"


def test_plan_over_the_state_cap(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "corpus:blocksworld", "corpus:blocksworld:restack", "--max-states", "1", "--json"
    )
    assert code == 1
    assert out.splitlines() == [
        "resource-exceeded: max-expanded-states",
        '{"reason": "max-expanded-states", "status": "resource-exceeded"}',
    ]


def test_plan_json_final_line(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "corpus:blocksworld", "corpus:blocksworld:swap", "--json"
    )
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload == {
        "status": "plan",
        "length": 4,
        "steps": ["(unstack a b)", "(putdown a)", "(pickup b)", "(stack b a)"],
    }


def test_validate_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "plan", "corpus:blocksworld", "corpus:blocksworld:restack")
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(out)
    code, out, _ = run_cli(
        capsys, "validate", "corpus:blocksworld", "corpus:blocksworld:restack", str(plan_file)
    )
    assert code == 0
    assert out.strip() == "valid"


def test_validate_detects_bad_step(capsys, tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("(pickup b)\n(unstack c b)\n")
    code, out, _ = run_cli(
        capsys, "validate", "corpus:blocksworld", "corpus:blocksworld:restack", str(plan_file)
    )
    assert code == 1
    assert out.strip() == "invalid at step 0"


RESTACK_PLAN = ["(unstack c b)", "(putdown c)", "(pickup b)", "(stack b a)", "(pickup c)",
                "(stack c b)"]


@pytest.mark.parametrize("line", [
    "(UNSTACK C B)", "(unstack \t c b)", "(unstack c b) ; note", "  (Unstack  c\tB)  ",
])
def test_validate_reads_plan_lines_as_pddl(capsys, tmp_path, line):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("\n".join(["; restack", line, *RESTACK_PLAN[1:], "length: 6"]) + "\n")
    code, out, _ = run_cli(capsys, "validate", B, R, str(plan_file))
    assert code == 0
    assert out == "valid\n"


@pytest.mark.parametrize("line", [
    "(unstack (c) b)", "unstack c b", "(unstack c b", "(unstack c b))", "()", "(fly c b)",
])
def test_validate_rejects_a_line_that_is_not_one_flat_list(capsys, tmp_path, line):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(f"{RESTACK_PLAN[0]}\n{line}\n")
    code, out, _ = run_cli(capsys, "validate", B, R, str(plan_file), "--json")
    assert code == 1
    assert out.splitlines() == [f"invalid at step 1: unknown action {line}",
                                '{"failed_at": 1, "status": "invalid"}']


def test_evolve_scripted_beam(capsys, tmp_path):
    traj = tmp_path / "run.jsonl"
    code, out, _ = run_cli(
        capsys,
        "evolve", "corpus:blocksworld", "corpus:blocksworld:restack",
        "--algo", "beam", "--beam-width", "8", "--target-len", "4",
        "--oracle", "scripted", "--seed", "1", "--trajectory", str(traj),
    )
    assert code == 0
    assert "success: true" in out
    assert "best-length: 2" in out
    assert traj.exists()


def test_evolve_no_success_exit_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "evolve", "corpus:blocksworld", "corpus:blocksworld:restack",
        "--algo", "beam", "--target-len", "1", "--oracle", "scripted",
        "--max-depth", "2", "--seed", "1",
    )
    assert code == 1
    assert "success: false" in out


def test_evolve_stdout_deterministic(capsys):
    argv = (
        "evolve", "corpus:blocksworld", "corpus:blocksworld:restack",
        "--algo", "mcts", "--target-len", "4", "--oracle", "scripted",
        "--seed", "5", "--json",
    )
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_evolve_scripted_makes_no_network_calls(capsys, monkeypatch):
    connects = []

    def refuse(*args, **kwargs):
        connects.append(args)
        raise ConnectionRefusedError("network disabled in this test")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    code, out, _ = run_cli(
        capsys,
        "evolve", "corpus:blocksworld", "corpus:blocksworld:restack",
        "--algo", "beam", "--target-len", "4", "--oracle", "scripted", "--seed", "1",
    )
    assert code == 0 and "success: true" in out
    assert connects == []


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_evolve_from_an_exploding_original_writes_strict_json(capsys, tmp_path):
    # The original's wide action explodes in grounding, so the root fails;
    # the scripted MULTI_LIFT text drops that action and plans in 2 steps.
    domain = tmp_path / "wide.pddl"
    domain.write_text(corpus.load("blocksworld").domain_text.rstrip()[:-1]
                      + WIDE_ACTIONS["false-last-precondition"] + ")\n")
    traj = tmp_path / "run.jsonl"
    code, out, _ = run_cli(
        capsys, "evolve", str(domain), R, "--oracle", "scripted", "--algo", "bfs",
        "--target-len", "4", "--json", "--trajectory", str(traj),
    )
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1], parse_constant=_refuse)
    assert payload["best_length"] == 2
    records = [json.loads(line, parse_constant=_refuse) for line in traj.read_text().splitlines()]
    root = records[1]
    assert root["algorithm_phase"] == "root"
    assert (root["plan_length"], root["regression_ok"], root["score"]) == (None, False, 1e6)


def test_rank_by_levenshtein(capsys, tmp_path):
    entry = corpus.load("blocksworld")
    ref = tmp_path / "ref.pddl"
    ref.write_text(entry.domain_text)
    near = tmp_path / "near.pddl"
    near.write_text(entry.domain_text.replace("pickup", "grab"))
    far = tmp_path / "far.pddl"
    far.write_text(corpus.load("gripper").domain_text.replace("gripper", "blocksworld"))
    code, out, _ = run_cli(
        capsys, "rank", str(ref), str(far), str(near), "--metric", "lev"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == f"1\t{near}"
    assert lines[1] == f"2\t{far}"


def test_rank_semantic_mock(capsys, tmp_path):
    entry = corpus.load("blocksworld")
    ref = tmp_path / "ref.pddl"
    ref.write_text(entry.domain_text)
    a = tmp_path / "a.pddl"
    a.write_text(entry.domain_text.replace("pickup", "grab"))
    b = tmp_path / "b.pddl"
    b.write_text(entry.domain_text.replace("(:action unstack", "(:action yank"))
    code, out, _ = run_cli(
        capsys, "rank", str(ref), str(a), str(b),
        "--metric", "semantic", "--oracle", "mock", "--json",
    )
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert set(payload["ranking"]) == {str(a), str(b)}
    assert payload["oracle_queries"] >= 1


def test_rank_reads_corpus_references(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "corpus:blocksworld", "corpus:hanoi", "corpus:gripper",
        "--metric", "hybrid", "--oracle", "mock", "--json",
    )
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["ranking"] == ["corpus:gripper", "corpus:hanoi"]
    assert payload["oracle_queries"] == 1


def test_corpus_dump_and_list(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    assert "hanoi" in out.splitlines()

    out_dir = tmp_path / "dump"
    code, out, _ = run_cli(capsys, "corpus", "dump", "hanoi", "--out", str(out_dir))
    assert code == 0
    domain_file = out_dir / "hanoi.domain.pddl"
    assert domain_file.read_text() == corpus.load("hanoi").domain_text
    assert (out_dir / "hanoi.three-discs.problem.pddl").exists()


def test_export_cli(capsys, tmp_path):
    traj = tmp_path / "run.jsonl"
    run_cli(
        capsys,
        "evolve", "corpus:blocksworld", "corpus:blocksworld:restack",
        "--algo", "beam", "--target-len", "4", "--oracle", "scripted",
        "--seed", "1", "--trajectory", str(traj),
    )
    out_path = tmp_path / "summary.csv"
    code, out, _ = run_cli(
        capsys, "export", str(traj), "--format", "csv-summary", "--out", str(out_path)
    )
    assert code == 0
    assert out.strip().splitlines()[0] == "exported: 1"
    assert out_path.read_text().splitlines()[0].startswith("run_id,")


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["plan", "corpus:blocksworld", "corpus:blocksworld:restack", "--warp-speed"])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


# The lowest value each flag accepts, where it is not 1.
FLAG_BOUNDS = {
    "--target-len": "at least 0",
    "--ga-generations": "at least 0",
    "--ga-population": "at least 2",
    "--alpha": "at least 0",
    "--lambda": "at least 0",
    "--mcts-c": "at least 0",
    "--ga-mutation-rate": "in [0, 1]",
}
OUT_OF_RANGE = [
    *((value, flag, command) for command in ("plan", "evolve")
      for flag in ("--max-states", "--max-len", "--budget-ms") for value in ("0", "-1")),
    ("-1", "--target-len", "evolve"),
    ("-1", "--ga-generations", "evolve"),
    *(("0", flag, "evolve") for flag in
      ("--beam-width", "--max-depth", "--proposals", "--mcts-iterations", "--samples")),
    ("1", "--ga-population", "evolve"),
    ("-0.5", "--alpha", "evolve"),
    ("nan", "--alpha", "evolve"),
    ("inf", "--alpha", "evolve"),
    ("-1", "--lambda", "evolve"),
    ("nan", "--lambda", "evolve"),
    ("-1", "--mcts-c", "evolve"),
    ("inf", "--mcts-c", "evolve"),
    ("-0.1", "--ga-mutation-rate", "evolve"),
    ("1.5", "--ga-mutation-rate", "evolve"),
    ("nan", "--ga-mutation-rate", "evolve"),
    ("0", "--keep", "rank"),
    ("0", "--samples", "rank"),
]


@pytest.mark.parametrize("value, flag, command", OUT_OF_RANGE)
def test_non_positive_limit_is_a_usage_error(capsys, command, flag, value):
    if command == "rank":
        argv = ["rank", "reference.pddl", "candidate.pddl", "--metric", "hybrid", flag, value]
    else:
        argv = [command, "corpus:blocksworld", "corpus:blocksworld:restack", flag, value]
    if command == "evolve":
        argv += ["--target-len", "4", "--oracle", "scripted"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr().err
    bound = "finite" if value in ("nan", "inf") else FLAG_BOUNDS.get(flag, "at least 1")
    assert "usage" in captured and f"argument {flag}: must be {bound}" in captured


def test_range_bounds_are_accepted():
    args = cli.build_parser().parse_args([
        "evolve", "d", "p", "--target-len", "0", "--ga-generations", "0", "--ga-population", "2",
        "--alpha", "0", "--lambda", "0", "--mcts-c", "0", "--ga-mutation-rate", "1",
        "--beam-width", "1", "--max-depth", "1", "--proposals", "1", "--mcts-iterations", "1",
        "--samples", "1",
    ])
    assert (args.target_len, args.ga_generations, args.ga_population) == (0, 0, 2)
    assert (args.alpha, args.lam, args.mcts_c, args.ga_mutation_rate) == (0.0, 0.0, 0.0, 1.0)
    assert (args.beam_width, args.max_depth, args.proposals, args.mcts_iterations) == (1, 1, 1, 1)
    assert args.samples == 1


_LIMITS, _CONFIG = planner.SearchLimits(), SearchConfig(algorithm="beam", target_length=4)
_WEIGHTS, _CLIENT = ObjectiveWeights(), OracleClientConfig()
DEFAULTS = [
    ("plan", "max_states", _LIMITS.max_expanded_states),
    ("plan", "max_len", _LIMITS.max_plan_length),
    ("plan", "budget_ms", _LIMITS.wall_budget_ms),
    ("evolve", "max_states", _LIMITS.max_expanded_states),
    ("evolve", "max_len", _LIMITS.max_plan_length),
    ("evolve", "budget_ms", _LIMITS.wall_budget_ms),
    ("evolve", "beam_width", _CONFIG.beam_width),
    ("evolve", "seed", _CONFIG.seed),
    ("evolve", "alpha", _WEIGHTS.alpha),
    ("evolve", "lam", _WEIGHTS.lam),
    ("evolve", "samples", _CLIENT.samples),
    ("evolve", "max_depth", _CONFIG.max_depth),
    ("evolve", "proposals", _CONFIG.proposals_per_expansion),
    ("evolve", "mcts_iterations", _CONFIG.mcts_iterations),
    ("evolve", "mcts_c", _CONFIG.mcts_exploration_c),
    ("evolve", "ga_population", _CONFIG.ga_population),
    ("evolve", "ga_generations", _CONFIG.ga_generations),
    ("evolve", "ga_mutation_rate", _CONFIG.ga_mutation_rate),
    ("rank", "samples", _CLIENT.samples),
]
_ARGV = {"plan": ["plan", "d", "p"], "evolve": ["evolve", "d", "p", "--target-len", "4"],
         "rank": ["rank", "r", "c"]}


@pytest.mark.parametrize("command, dest, default", DEFAULTS)
def test_flag_defaults_to_its_dataclass_default(command, dest, default):
    args = cli.build_parser().parse_args(_ARGV[command])
    assert type(getattr(args, dest)) is type(default)
    assert getattr(args, dest) == default


def test_validate_takes_no_limit_flags(capsys, tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("(unstack c b)\n")
    with pytest.raises(SystemExit) as err:
        main(["validate", "corpus:blocksworld", "corpus:blocksworld:restack", str(plan_file),
              "--max-len", "3"])
    assert err.value.code == 2


@pytest.fixture
def wide_task(tmp_path, monkeypatch):
    """A 3-parameter action over 60 objects: 216,000 ground actions. The cap
    is lowered so the test does not ground the 200,000 the default allows."""
    monkeypatch.setattr(cli, "ground", functools.partial(planner.ground, max_actions=1000))
    domain = tmp_path / "wide.pddl"
    domain.write_text(
        "(define (domain wide) (:requirements :strips) (:predicates (p ?x ?y ?z))"
        " (:action touch :parameters (?x ?y ?z) :precondition (and) :effect (p ?x ?y ?z)))"
    )
    objects = " ".join(f"o{i}" for i in range(60))
    problem = tmp_path / "wide-60.pddl"
    problem.write_text(
        f"(define (problem wide-60) (:domain wide) (:objects {objects}) (:init)"
        " (:goal (p o0 o1 o2)))"
    )
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("(touch o0 o1 o2)\n")
    return str(domain), str(problem), str(plan_file)


@pytest.mark.parametrize("command", ["plan", "validate"])
def test_grounding_explosion_is_reported(capsys, wide_task, command):
    domain, problem, plan_file = wide_task
    argv = [command, domain, problem] + ([plan_file] if command == "validate" else [])
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 1
    assert err.startswith("grounding-explosion: more than 1000 ground actions")
    assert json.loads(out.strip().splitlines()[-1]) == {"status": "grounding-explosion"}


def test_wide_action_is_a_grounding_explosion(capsys, tmp_path, wide_blocksworld_text):
    domain = tmp_path / "wide.pddl"
    domain.write_text(wide_blocksworld_text)
    code, out, err = run_cli(capsys, "plan", str(domain), "corpus:blocksworld:restack", "--json")
    assert code == 1
    assert err.startswith("grounding-explosion: more than 200000 ground actions or bindings")
    assert json.loads(out.strip().splitlines()[-1]) == {"status": "grounding-explosion"}


NO_FILE = "[Errno 2] No such file or directory"
URL_REFUSED = "oracle URL must start with http:// or https://: 'ftp://nowhere/chat/completions'"
NO_KEY = "set AXIOMFORGE_API_KEY before using the HTTP oracle"
HANOI_FOR_BLOCKSWORLD = "problem names domain 'hanoi', expected 'blocksworld'"
UNDECLARED = {"code": "undeclared-predicate", "message": "predicate 'q' is not declared",
              "line": 1, "col": 102}

# (argv, environment, exit code, first stderr line, last stdout line as JSON),
# each run with --json. `{tmp}` stands for the test's directory; an
# environment value of None unsets the variable. Neither oracle row reaches
# the network: the transport refuses an ftp URL before it connects, and the
# client refuses to send a request without a key.
FAILURES = [
    pytest.param(["parse", "{tmp}/undeclared.pddl"], {}, 1,
                 "1:102: undeclared-predicate: predicate 'q' is not declared",
                 {"status": "error", "diagnostics": [UNDECLARED]}, id="diagnostics"),
    pytest.param(["evolve", B, "corpus:hanoi:three-discs", "--oracle", "scripted", "--target-len", "4"],
                 {}, 1, f"0:0: domain-name-mismatch: {HANOI_FOR_BLOCKSWORLD}",
                 {"status": "error", "diagnostics": [{"code": "domain-name-mismatch", "line": 0, "col": 0,
                                                     "message": HANOI_FOR_BLOCKSWORLD}]},
                 id="unlinkable-task"),
    pytest.param(["evolve", B, R, "--oracle", "http", "--target-len", "4"],
                 {"AXIOMFORGE_API_KEY": "x", "AXIOMFORGE_BASE_URL": "ftp://nowhere"}, 3,
                 f"oracle failure: {URL_REFUSED}",
                 {"status": "oracle-failure", "error": URL_REFUSED}, id="oracle-url"),
    pytest.param(["rank", B, "corpus:hanoi", "corpus:gripper", "--metric", "semantic",
                  "--oracle", "http"], {"AXIOMFORGE_API_KEY": None}, 3,
                 f"oracle failure: {NO_KEY}",
                 {"status": "oracle-failure", "error": NO_KEY}, id="oracle-key"),
    pytest.param(["export", "{tmp}/early.jsonl", "--format", "jsonl", "--out", "{tmp}/out.jsonl"],
                 {}, 1, "{tmp}/early.jsonl:1: record before header",
                 {"status": "malformed", "error": "{tmp}/early.jsonl:1: record before header"},
                 id="malformed"),
    pytest.param(["export", "{tmp}/listconfig.jsonl", "--format", "csv-summary", "--out", "{tmp}/s.csv"],
                 {}, 1, "{tmp}/listconfig.jsonl:1: header config is not an object",
                 {"status": "malformed", "error": "{tmp}/listconfig.jsonl:1: header config is not an object"},
                 id="malformed-header-config"),
    pytest.param(["parse", "corpus:tetris"], {}, 2, "unknown corpus entry: tetris",
                 {"status": "unknown-corpus-entry", "error": "tetris"},
                 id="unknown-corpus-entry"),
    pytest.param(["plan", B, "corpus:blocksworld:nope"], {}, 2,
                 "unknown corpus entry: blocksworld has no problem named 'nope'",
                 {"status": "unknown-corpus-entry", "error": "blocksworld has no problem named 'nope'"},
                 id="unknown-corpus-problem"),
    pytest.param(["plan", R, R], {}, 2, "unknown corpus entry: blocksworld:restack",
                 {"status": "unknown-corpus-entry", "error": "blocksworld:restack"},
                 id="corpus-domain-with-a-problem"),
    pytest.param(["plan", B, "corpus:blocksworld:swap:extra"], {}, 2,
                 "unknown corpus entry: blocksworld:swap:extra",
                 {"status": "unknown-corpus-entry", "error": "blocksworld:swap:extra"},
                 id="corpus-problem-with-four-parts"),
    pytest.param(["plan", "corpus:blocksworld:restack:oops", "corpus:blocksworld:swap:extra"], {}, 2,
                 "unknown corpus entry: blocksworld:restack:oops",
                 {"status": "unknown-corpus-entry", "error": "blocksworld:restack:oops"},
                 id="corpus-domain-with-four-parts"),
    pytest.param(["parse", "/nonexistent/file.pddl"], {}, 3,
                 f"io failure: {NO_FILE}: '/nonexistent/file.pddl'",
                 {"status": "io-failure", "error": f"{NO_FILE}: '/nonexistent/file.pddl'"},
                 id="io-failure"),
    pytest.param(["plan", "/nonexistent", R], {}, 3, f"io failure: {NO_FILE}: '/nonexistent'",
                 {"status": "io-failure", "error": f"{NO_FILE}: '/nonexistent'"},
                 id="io-failure-plan"),
    pytest.param(["parse", "{tmp}/latin1.pddl"], {}, 3, "io failure: {tmp}/latin1.pddl: not valid UTF-8",
                 {"status": "io-failure", "error": "{tmp}/latin1.pddl: not valid UTF-8"},
                 id="io-failure-not-utf8"),
    pytest.param(["validate", B, R, "{tmp}/latin1.plan"], {}, 3,
                 "io failure: {tmp}/latin1.plan: not valid UTF-8",
                 {"status": "io-failure", "error": "{tmp}/latin1.plan: not valid UTF-8"},
                 id="io-failure-plan-not-utf8"),
    pytest.param(["export", "{tmp}/latin1.jsonl", "--format", "jsonl", "--out", "{tmp}/out.jsonl"],
                 {}, 1, "{tmp}/latin1.jsonl:2: not valid UTF-8",
                 {"status": "malformed", "error": "{tmp}/latin1.jsonl:2: not valid UTF-8"},
                 id="malformed-not-utf8"),
]


@pytest.mark.parametrize("argv, env, code, first_err, payload", FAILURES)
def test_failure_outcome(capsys, tmp_path, monkeypatch, argv, env, code, first_err, payload):
    (tmp_path / "undeclared.pddl").write_text(
        "(define (domain u) (:requirements :strips) (:predicates (p))"
        " (:action a :parameters () :precondition (q) :effect (p)))"
    )
    (tmp_path / "early.jsonl").write_text('{"kind": "step"}\n')
    (tmp_path / "listconfig.jsonl").write_text('{"kind": "header", "config": []}\n')
    # One Latin-1 byte each: in a comment, in a plan line, in a step line.
    (tmp_path / "latin1.pddl").write_bytes(b"; caf\xe9\n(define (domain d))\n")
    (tmp_path / "latin1.plan").write_bytes(b"(unstack a b) ; caf\xe9\n")
    (tmp_path / "latin1.jsonl").write_bytes(b'{"kind": "header", "config": {}}\n{"kind": "step", "x": "\xe9"}\n')
    for name, value in env.items():
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)

    def refuse(*args, **kwargs):
        raise AssertionError("a failure row tried to open a connection")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    tmp = json.dumps(str(tmp_path))[1:-1]
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    got_code, out, err = run_cli(capsys, *argv, "--json")
    assert got_code == code
    assert err.splitlines()[0] == first_err.replace("{tmp}", str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == json.loads(json.dumps(payload).replace("{tmp}", tmp))


def _fresh(probe: str, *args: str) -> str:
    """The last line `probe` prints when run in a fresh interpreter."""
    paths = [str(Path(axiomforge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1]


def _loads(importing: str, module: str) -> bool:
    """Whether a fresh interpreter that imports `importing` has `module` loaded."""
    return _fresh(f"import sys, {importing}; print({module!r} in sys.modules)") == "True"


@pytest.mark.parametrize(
    "module", ["requests", "numpy", "urllib.request", "http.client", "ssl", "_hashlib", "uuid", "csv",
               "axiomforge.search", "axiomforge.proposer", "axiomforge.distance", "axiomforge.trajectory"]
)
def test_cli_import_leaves_module_unloaded(module):
    assert not _loads("axiomforge.cli", module)


# Scripted evolve runs, a summary export and a plan, all in one interpreter;
# prints the exit codes and which of OpenSSL's modules they loaded.
_RUN_WITHOUT_OPENSSL = """
import json, sys
from axiomforge.cli import main
runs = [f"{sys.argv[1]}/run-{algo}.jsonl" for algo in ("bfs", "beam")]
codes = [
    main(["evolve", "corpus:blocksworld", "corpus:blocksworld:restack", "--oracle", "scripted",
          "--algo", algo, "--target-len", "4", "--seed", "1", "--trajectory", run])
    for algo, run in zip(("bfs", "beam"), runs)
]
codes.append(main(["export", *runs, "--format", "csv-summary", "--out", f"{sys.argv[1]}/s.csv"]))
codes.append(main(["plan", "corpus:hanoi", "corpus:hanoi:three-discs"]))
print(json.dumps([codes, [name for name in ("_hashlib", "ssl") if name in sys.modules]]))
"""


def test_evolve_export_and_plan_load_no_openssl(tmp_path):
    codes, loaded = json.loads(_fresh(_RUN_WITHOUT_OPENSSL, str(tmp_path)))
    assert codes == [0, 0, 0, 0]
    assert loaded == []
    import hashlib  # the reference, imported only once the run above is checked

    steps = [
        step for algo in ("bfs", "beam") for run in read_runs(tmp_path / f"run-{algo}.jsonl") for step in run.steps
    ]
    assert steps
    for step in steps:
        want = hashlib.blake2b(step["domain_text"].encode(), digest_size=8).hexdigest()
        assert step["domain_text_hash"] == want


# plan, parse, validate and corpus list in one interpreter, a failing plan
# among them; prints the exit codes and every search, proposer, distance or
# trajectory module they loaded.
_RUN_PLANNER_COMMANDS = """
import json, sys
from axiomforge.cli import main
plan = f"{sys.argv[1]}/plan.txt"
with open(plan, "w") as fh:
    fh.write("(move-disc d1 d2 peg3)\\n")
codes = [
    main(["plan", "corpus:hanoi", "corpus:hanoi:three-discs"]),
    main(["plan", "corpus:hanoi", "corpus:hanoi:three-discs", "--max-len", "3", "--json"]),
    main(["parse", "corpus:blocksworld", "--json"]),
    main(["validate", "corpus:hanoi", "corpus:hanoi:three-discs", plan]),
    main(["corpus", "list"]),
]
prefixes = ("axiomforge.search", "axiomforge.proposer", "axiomforge.distance", "axiomforge.trajectory")
print(json.dumps([codes, sorted(name for name in sys.modules if name.startswith(prefixes))]))
"""


def test_planner_commands_load_no_search_proposer_distance_or_trajectory(tmp_path):
    codes, loaded = json.loads(_fresh(_RUN_PLANNER_COMMANDS, str(tmp_path)))
    assert codes == [0, 1, 0, 1, 0]
    assert loaded == []


# A scripted evolve, then a rank whose HTTP oracle has no key, in one
# interpreter; prints the exit codes and whether the HTTP client was loaded
# after each.
_RUN_SCRIPTED_EVOLVE = """
import json, os, sys
from axiomforge.cli import main
os.environ.pop("AXIOMFORGE_API_KEY", None)
codes, loaded = [], []
for argv in (
    ["evolve", "corpus:blocksworld", "corpus:blocksworld:restack", "--oracle", "scripted",
     "--algo", "beam", "--target-len", "4", "--seed", "1"],
    ["rank", "corpus:blocksworld", "corpus:hanoi", "corpus:gripper", "--metric", "semantic",
     "--oracle", "http", "--json"],
):
    codes.append(main(argv))
    loaded.append("axiomforge.proposer.http" in sys.modules)
print(json.dumps([codes, loaded]))
"""


def test_scripted_evolve_leaves_the_http_client_unloaded():
    codes, loaded = json.loads(_fresh(_RUN_SCRIPTED_EVOLVE))
    # The rank fails as an oracle failure, caught once its module has loaded.
    assert codes == [0, 3]
    assert loaded == [False, True]


def test_proposer_import_leaves_planner_unloaded():
    """The proposer is prompts, transport and the fence format; reading
    oracle text into a linked domain belongs to the search evaluator."""
    assert not _loads("axiomforge.proposer", "axiomforge.planner")
