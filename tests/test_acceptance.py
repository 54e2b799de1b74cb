"""Acceptance gate: every release criterion, one test each, offline.

Each test prints `ACCEPTANCE <n> PASS ...` on success (visible with -v -s or
in the captured output section); a failed assert marks the criterion red.
"""

import math
import random
import socket
import time

import pytest

from axiomforge import corpus
from axiomforge.cli import main
from axiomforge.corpus import variants
from axiomforge.distance import (
    LevenshteinMockOracle,
    OracleUnavailable,
    levenshtein,
    semantic_rank,
)
from axiomforge.pddl import link, parse_domain, parse_problem, print_canonical
from axiomforge.planner import Plan, ground, solve
from axiomforge.proposer import (
    ProposalContext,
    ScriptEntry,
    ScriptedOracle,
    builtin_script,
    HttpProposalOracle,
    OracleClientConfig,
)
from axiomforge.search import (
    CandidateEvaluator,
    ObjectiveWeights,
    SearchConfig,
    SearchRun,
    bfs_search,
    genetic_search,
    mcts_search,
    beam_search,
    ucb1,
)
from axiomforge.search.common import propose_domains
from axiomforge.trajectory import read_runs

from oracle_bfs import oracle_plan_length, oracle_reachable_states


def _report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_figure_triple(capsys):
    started = time.perf_counter()
    entry = corpus.load("blocksworld")
    problem = parse_problem(entry.flagship.text)

    def optimum(domain_text):
        result = solve(ground(link(parse_domain(domain_text), problem)))
        assert isinstance(result, Plan)
        return result.length

    original = optimum(entry.domain_text)
    multi = optimum(variants.MULTI_LIFT)
    extract = optimum(variants.MID_EXTRACT)
    elapsed = time.perf_counter() - started
    assert (original, multi, extract) == (6, 2, 4)
    assert elapsed < 5.0
    with capsys.disabled():
        _report(1, f"flagship optima original=6 multi-lift=2 mid-extract=4 in {elapsed:.2f}s")


def test_criterion_2_beam_replay(capsys, tmp_path):
    started = time.perf_counter()
    outputs = []
    hash_sequences = []
    traj = tmp_path / "replay.jsonl"
    argv = [
        "evolve", "corpus:blocksworld", "corpus:blocksworld:restack",
        "--algo", "beam", "--beam-width", "8", "--target-len", "4",
        "--oracle", "scripted", "--seed", "1", "--trajectory", str(traj),
    ]
    for _ in range(3):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        run = read_runs(traj)[0]
        hash_sequences.append(run.step_hashes)
        assert run.result["success"] is True
        assert run.result["best_length"] == 2
        best_steps = [
            s for s in run.steps if s["domain_text_hash"] == run.result["best_hash"]
        ]
        assert best_steps and best_steps[0]["regression_ok"] is True
    elapsed = time.perf_counter() - started
    assert outputs[0] == outputs[1] == outputs[2]
    assert "success: true" in outputs[0] and "best-length: 2" in outputs[0]
    assert hash_sequences[0] == hash_sequences[1] == hash_sequences[2]
    assert elapsed < 10.0
    with capsys.disabled():
        _report(2, f"3 identical beam replays, best length 2, in {elapsed:.2f}s")


def test_criterion_3_levenshtein_anchor(capsys):
    assert levenshtein("(and (clear ?x) (clear ?y))", "(or (clear ?x) (clear ?y))") == 3
    rng = random.Random(2024)
    alphabet = "abcdefg ()?-"
    for _ in range(1000):
        a, b, c = (
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
            for _ in range(3)
        )
        assert levenshtein(a, a) == 0
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
        assert levenshtein(a, b) <= max(len(a), len(b))
    with capsys.disabled():
        _report(3, "and->or edit distance 3; metric axioms hold on 1000 random triples")


def _mutations(reference, rng, count=32):
    out = []
    seen = {reference}
    while len(out) < count:
        chars = list(reference)
        for _ in range(rng.randrange(1, 9)):
            kind = rng.randrange(3)
            pos = rng.randrange(max(1, len(chars)))
            if kind == 0:
                chars.insert(pos, rng.choice("abcxyz?() -"))
            elif kind == 1 and chars:
                del chars[pos]
            else:
                chars[pos:pos + 1] = rng.choice("abcxyz?() -")
        text = "".join(chars)
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


def test_criterion_4_semantic_ranking(capsys):
    rng = random.Random(42)
    worst_queries = 0
    for name in corpus.CORPUS_NAMES:
        reference = print_canonical(parse_domain(corpus.load(name).domain_text))
        candidates = _mutations(reference, rng, 32)
        oracle = LevenshteinMockOracle()
        ranked = semantic_rank(reference, candidates, oracle)
        direct = sorted(candidates, key=lambda t: (levenshtein(reference, t), t))
        assert list(ranked.items) == direct, f"rank mismatch on {name}"
        assert ranked.oracle_queries_used <= 160, f"query bound exceeded on {name}"
        worst_queries = max(worst_queries, ranked.oracle_queries_used)
    with capsys.disabled():
        _report(4, f"32-mutation ranking equals direct sort on 12 domains; max {worst_queries} queries <= 160")


def test_criterion_5_planner_oracle_equivalence(capsys):
    checked = 0
    for name in corpus.CORPUS_NAMES:
        entry = corpus.load(name)
        domain = parse_domain(entry.domain_text)
        for prob in entry.problems:
            task = ground(link(domain, parse_problem(prob.text)))
            assert oracle_reachable_states(task, cap=100_000) <= 100_000
            result = solve(task)
            assert isinstance(result, Plan)
            assert result.length == oracle_plan_length(task), f"{name}:{prob.name}"
            checked += 1
    with capsys.disabled():
        _report(5, f"solve == brute-force BFS oracle on all {checked} corpus problems")


def test_criterion_6_parser_coverage(capsys):
    for name in corpus.CORPUS_NAMES:
        domain = parse_domain(corpus.load(name).domain_text)  # zero diagnostics
        once = print_canonical(domain)
        assert parse_domain(once) == domain
        assert print_canonical(parse_domain(once)) == once
    briefcase = parse_domain(corpus.load("briefcase").domain_text)
    assert {":conditional-effects", ":universal-preconditions"} <= set(briefcase.requirements)
    logistics = parse_domain(corpus.load("logistics").domain_text)
    assert logistics.predicate("at").params[0].type == ("vehicle", "package")
    with capsys.disabled():
        _report(6, "12/12 domains parse with zero diagnostics and round-trip canonically")


def test_criterion_7_algorithm_mechanics(capsys):
    original = corpus.load("blocksworld").domain_text
    worse = original.replace(
        "(:action pickup",
        "(:action ponder\n        :parameters (?ob)\n"
        "        :precondition (and (holding ?ob))\n"
        "        :effect (and (holding ?ob))\n    )\n\n    (:action pickup",
    )
    unsolvable = original.replace(
        """    (:action stack
        :parameters (?ob ?underob)
        :precondition (and (clear ?underob) (holding ?ob))
        :effect (and (arm-empty) (clear ?ob) (on ?ob ?underob) (not (clear ?underob)) (not (holding ?ob)))
    )

""",
        "",
    )
    domain = parse_domain(original)
    problem = parse_problem(corpus.load("blocksworld").flagship.text)
    regression = corpus.regression_suite("blocksworld")
    weights = ObjectiveWeights(alpha=0.0, lam=0.0)

    def fresh_evaluator():
        return CandidateEvaluator(domain, problem, regression, weights=weights)

    # BFS: staged script succeeds first at depth 2, and that is what returns.
    original_text = print_canonical(domain)
    worse_text = print_canonical(parse_domain(worse))
    staged = ScriptedOracle([
        ScriptEntry(lambda ctx: print_canonical(ctx.domain) == original_text, (worse,)),
        ScriptEntry(lambda ctx: print_canonical(ctx.domain) == worse_text, (variants.MULTI_LIFT,)),
    ])
    cfg = SearchConfig(algorithm="bfs", target_length=4, max_depth=3, seed=1, weights=weights)
    bfs_result = bfs_search(SearchRun(cfg, staged, fresh_evaluator()))
    assert bfs_result.success and bfs_result.best.provenance.oracle_round == 2

    # MCTS: visit counts sum to iterations on an all-unsolvable oracle.
    roots = []
    cfg = SearchConfig(algorithm="mcts", target_length=4, mcts_iterations=12, seed=3, weights=weights)
    stub = ScriptedOracle([ScriptEntry(lambda ctx: True, (unsolvable,))])
    mcts_result = mcts_search(SearchRun(cfg, stub, fresh_evaluator()),
                              observer=lambda it, root: roots.append(root))
    assert not mcts_result.success
    assert sum(child.visits for child in roots[-1].children) == 12

    # UCB1 formula and argmax behaviour.
    expected = 0.5 + math.sqrt(2) * math.sqrt(math.log(8) / 2)
    assert abs(ucb1(0.5, 2, 8, math.sqrt(2)) - expected) < 1e-12
    assert ucb1(0.0, 0, 8, 1.4) == math.inf
    assert ucb1(0.25, 4, 8, 0.0) == 0.25

    # GA: constant population, non-increasing elite score.
    generations = []
    cfg = SearchConfig(algorithm="genetic", target_length=4, ga_population=4,
                       ga_generations=4, ga_mutation_rate=0.5, seed=2, weights=weights)
    worse_oracle = ScriptedOracle([ScriptEntry(lambda ctx: True, (worse, unsolvable))])
    ga_result = genetic_search(SearchRun(cfg, worse_oracle, fresh_evaluator()),
                               observer=lambda gen, pop: generations.append(pop))
    assert not ga_result.success
    assert all(len(pop) == 4 for pop in generations)
    elites = [min(c.score for c in pop) for pop in generations]
    assert all(a >= b for a, b in zip(elites, elites[1:]))

    # Beam: never exceeds its width.
    beams = []
    cfg = SearchConfig(algorithm="beam", target_length=0, beam_width=2, max_depth=2,
                       seed=1, weights=weights)
    beam_result = beam_search(SearchRun(cfg, builtin_script(), fresh_evaluator()),
                              LevenshteinMockOracle(),
                              observer=lambda it, beam: beams.append(beam))
    assert not beam_result.success
    assert beams and all(len(beam) <= 2 for beam in beams)

    # Determinism across repeated seeded runs.
    def signature():
        result = mcts_search(
            SearchRun(
                SearchConfig(algorithm="mcts", target_length=4, mcts_iterations=8, seed=11, weights=weights),
                ScriptedOracle([ScriptEntry(lambda ctx: True, (worse, unsolvable))]),
                fresh_evaluator(),
            )
        )
        return (result.success, result.explored, result.oracle_calls, result.best.canonical_text)

    assert signature() == signature()
    with capsys.disabled():
        _report(7, "BFS depth-minimal, MCTS visits==iterations, UCB1 exact, GA stable, beam bounded")


GOOD_A = """\
(define (domain blocksworld)
  (:requirements :strips)
  (:predicates (clear ?x) (on-table ?x) (arm-empty) (holding ?x) (on ?x ?y))
  (:action hover
    :parameters (?x)
    :precondition (holding ?x)
    :effect (and (clear ?x) (arm-empty) (not (holding ?x)))))
"""


def test_criterion_8_http_oracle_contract(capsys, stub_server, monkeypatch, tmp_path):
    monkeypatch.setenv("AXIOMFORGE_API_KEY", "test-key")
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)

    entry = corpus.load("blocksworld")
    domain = parse_domain(entry.domain_text)
    problem = parse_problem(entry.flagship.text)
    ctx = ProposalContext(domain, problem, 6, 4)
    read = CandidateEvaluator(domain, problem, []).read
    cfg = OracleClientConfig(base_url=stub_server.base_url, samples=1, max_retries=2)

    # Extracts exactly the stub's valid fenced domains.
    good_b = GOOD_A.replace("hover", "drift")
    stub_server.push(200, stub_server.chat_body(
        f"```pddl\n{GOOD_A}```\nbroken:\n```pddl\n(define (domain\n```\n```pddl\n{good_b}```"
    ))
    candidates = propose_domains(HttpProposalOracle(cfg), ctx, 8, read)
    names = [a.name for d, _ in candidates for a in d.actions if a.name in ("hover", "drift")]
    assert names == ["hover", "drift"]

    # Retry/backoff on injected 500s.
    for _ in range(3):
        stub_server.push(500, {})
    requests_before = len(stub_server.requests)
    with pytest.raises(OracleUnavailable):
        propose_domains(HttpProposalOracle(cfg), ctx, 2, read)
    assert len(stub_server.requests) - requests_before == 3
    assert sleeps == [0.5, 1.0]

    # Scripted mode performs zero network operations. Every socket connect
    # is counted and refused; the HTTP oracle shows that the counter sees
    # its connects, then a scripted evolve must make none.
    connects = {"n": 0}

    def refuse(*args, **kwargs):
        connects["n"] += 1
        raise ConnectionRefusedError("network disabled in this test")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    with pytest.raises(OracleUnavailable):
        propose_domains(HttpProposalOracle(cfg), ctx, 2, read)
    assert connects["n"] == 3
    connects["n"] = 0
    argv = [
        "evolve", "corpus:blocksworld", "corpus:blocksworld:restack",
        "--algo", "beam", "--target-len", "4", "--oracle", "scripted",
        "--seed", "1", "--trajectory", str(tmp_path / "scripted.jsonl"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert connects["n"] == 0
    with capsys.disabled():
        _report(8, "stub extraction exact, 500-retry backoff [0.5, 1.0]s, scripted socket connects = 0")


def test_criterion_9_trajectory_replay_and_export(capsys, tmp_path):
    from axiomforge.trajectory import export

    sequences = []
    paths = []
    for i in range(2):
        traj = tmp_path / f"rerun-{i}.jsonl"
        argv = [
            "evolve", "corpus:blocksworld", "corpus:blocksworld:restack",
            "--algo", "beam", "--beam-width", "8", "--target-len", "4",
            "--oracle", "scripted", "--seed", "1", "--trajectory", str(traj),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        paths.append(traj)
        sequences.append(read_runs(traj)[0].step_hashes)
    assert sequences[0] == sequences[1]

    once = tmp_path / "export-1.jsonl"
    twice = tmp_path / "export-2.jsonl"
    assert export(paths, once, "jsonl") == 2
    assert export([once], twice, "jsonl") == 2
    assert once.read_bytes() == twice.read_bytes()

    csv_once = tmp_path / "summary-1.csv"
    csv_from_export = tmp_path / "summary-2.csv"
    assert export(paths, csv_once, "csv-summary") == 2
    assert export([once], csv_from_export, "csv-summary") == 2
    assert csv_once.read_bytes() == csv_from_export.read_bytes()
    with capsys.disabled():
        _report(9, "replayed hash sequences identical; jsonl and csv exports idempotent")
