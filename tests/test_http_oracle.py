import http.client
import json
import sys
import time
from dataclasses import replace

import pytest

import axiomforge.proposer.http
import axiomforge.search.candidate
from axiomforge.cli import main
from axiomforge.corpus import variants
from axiomforge.distance import Choice, OracleUnavailable
from axiomforge.pddl import print_canonical
from axiomforge.proposer import (
    AuthError,
    HttpChatClient,
    HttpDistanceOracle,
    HttpProposalOracle,
    OracleClientConfig,
    ProposalContext,
)
from axiomforge.proposer.http import _MAX_BODY_BYTES
from axiomforge.proposer.prompts import SYSTEM_PROMPT
from axiomforge.search import CandidateEvaluator, SearchConfig, run_search
from axiomforge.search.common import propose_domains
from conftest import StubChatServer

GOOD_A = """\
(define (domain blocksworld)
  (:requirements :strips)
  (:predicates (clear ?x) (on-table ?x) (arm-empty) (holding ?x) (on ?x ?y))
  (:action hover
    :parameters (?x)
    :precondition (holding ?x)
    :effect (and (clear ?x) (arm-empty) (not (holding ?x)))))
"""
GOOD_B = GOOD_A.replace("hover", "drift")
UNLINKABLE = GOOD_A.replace("(domain blocksworld)", "(domain renamed)")
BROKEN = "(define (domain blocksworld) (:action"

_chat_body = StubChatServer.chat_body


@pytest.fixture()
def api_key(monkeypatch):
    monkeypatch.setenv("AXIOMFORGE_API_KEY", "test-key")


@pytest.fixture()
def no_sleep(monkeypatch):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return sleeps


def _cfg(state, **kw):
    defaults = dict(base_url=state.base_url, samples=1, max_retries=2, timeout_ms=5000)
    defaults.update(kw)
    return OracleClientConfig(**defaults)


def _propose(state, ctx, k, **kw):
    oracle = HttpProposalOracle(_cfg(state, **kw))
    read = CandidateEvaluator(ctx.domain, ctx.problem, []).read
    return [domain for domain, _ in propose_domains(oracle, ctx, k, read)]


def test_propose_extracts_stub_domains(stub_server, api_key, blocksworld, flagship):
    stub_server.push(200, _chat_body(f"one:\n```pddl\n{GOOD_A}```", f"two:\n```pddl\n{GOOD_B}```"))
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    candidates = _propose(stub_server, ctx, 4)
    assert [a.name for d in candidates for a in d.actions if a.name in ("hover", "drift")] == [
        "hover",
        "drift",
    ]
    sent = stub_server.requests[0]
    assert sent["model"] == "gpt-4o-mini-2024-07-18"
    assert sent["n"] == 1
    assert sent["messages"][0]["role"] == "system"


def test_malformed_blocks_dropped(stub_server, api_key, blocksworld, flagship):
    stub_server.push(200, _chat_body(f"```pddl\n{BROKEN}\n```\n```pddl\n{GOOD_A}```"))
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    candidates = _propose(stub_server, ctx, 4)
    assert len(candidates) == 1


def test_duplicates_do_not_crowd_out_distinct_domains(stub_server, api_key, blocksworld, flagship):
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    stub_server.push(200, _chat_body(*(f"```pddl\n{t}```" for t in (GOOD_A, GOOD_A, GOOD_B))))
    assert len(_propose(stub_server, ctx, 2)) == 2
    stub_server.push(200, _chat_body(*(f"```pddl\n{t}```" for t in (UNLINKABLE, GOOD_A, GOOD_B))))
    assert len(_propose(stub_server, ctx, 2)) == 2


def test_unlinkable_blocks_do_not_hide_a_later_one_in_a_reply(
    stub_server, api_key, blocksworld, flagship
):
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    other = UNLINKABLE.replace("(domain renamed)", "(domain elsewhere)")
    reply = "".join(f"```pddl\n{t}```\n" for t in (UNLINKABLE, other, GOOD_A))
    stub_server.push(200, _chat_body(reply))
    assert len(_propose(stub_server, ctx, 2)) == 1


def test_stub_run_is_reproducible(stub_server, api_key, blocksworld, flagship):
    from axiomforge.pddl import print_canonical

    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    results = []
    for _ in range(2):
        stub_server.push(200, _chat_body(f"```pddl\n{GOOD_A}```", f"```pddl\n{GOOD_B}```"))
        results.append([print_canonical(d) for d in _propose(stub_server, ctx, 4)])
    assert results[0] == results[1]


def test_server_errors_exhaust_retries(stub_server, api_key, no_sleep, blocksworld, flagship):
    for _ in range(3):
        stub_server.push(500, {"error": "boom"})
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    with pytest.raises(OracleUnavailable):
        _propose(stub_server, ctx, 2, max_retries=2)
    assert len(stub_server.requests) == 3  # initial try + 2 retries
    assert no_sleep == [0.5, 1.0]  # exponential backoff


def test_recovery_after_one_500(stub_server, api_key, no_sleep, blocksworld, flagship):
    stub_server.push(500, {})
    stub_server.push(200, _chat_body(f"```pddl\n{GOOD_A}```"))
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    assert len(_propose(stub_server, ctx, 2)) == 1
    assert no_sleep == [0.5]


def test_rate_limit_is_retried(stub_server, api_key, no_sleep):
    stub_server.push(429, {})
    stub_server.push(200, _chat_body("B"))
    assert HttpChatClient(_cfg(stub_server)).complete("sys", "user") == ["B"]
    assert no_sleep == [0.5]


def test_rate_limit_exhausts_retries(stub_server, api_key, no_sleep):
    for _ in range(3):
        stub_server.push(429, {})
    with pytest.raises(OracleUnavailable):
        HttpChatClient(_cfg(stub_server, max_retries=2)).complete("sys", "user")
    assert len(stub_server.requests) == 3
    assert no_sleep == [0.5, 1.0]


def test_auth_error_on_401(stub_server, api_key, blocksworld, flagship):
    stub_server.push(401, {})
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    with pytest.raises(AuthError):
        _propose(stub_server, ctx, 2)
    assert len(stub_server.requests) == 1  # no retry on auth failures


@pytest.mark.parametrize("status", [404, 400])
def test_unexpected_status_is_not_retried(stub_server, api_key, no_sleep, status):
    stub_server.push(status, {})
    client = HttpChatClient(_cfg(stub_server, max_retries=3))
    with pytest.raises(OracleUnavailable, match=f"^unexpected status {status}$"):
        client.complete("sys", "user")
    assert len(stub_server.requests) == 1 and client.transport_calls == 1
    assert no_sleep == []


@pytest.mark.parametrize("status", [404, 400])
def test_evolve_exits_3_on_a_non_retryable_status(capsys, monkeypatch, tmp_path, api_key, no_sleep, status):
    calls = []

    def answering(url, headers, payload, timeout):
        calls.append(url)
        return status, {}

    monkeypatch.setattr(axiomforge.proposer.http, "_default_transport", answering)
    code = main(["evolve", "corpus:blocksworld", "corpus:blocksworld:restack", "--oracle", "http",
                 "--target-len", "4", "--trajectory", str(tmp_path / "run.jsonl"), "--json"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err.splitlines()[0] == f"oracle failure: unexpected status {status}"
    assert json.loads(out.splitlines()[-1]) == {"status": "oracle-failure", "error": f"unexpected status {status}"}
    assert len(calls) == 1 and no_sleep == []


def test_missing_api_key_fails_before_any_request(monkeypatch, stub_server, blocksworld, flagship):
    monkeypatch.delenv("AXIOMFORGE_API_KEY", raising=False)
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    with pytest.raises(AuthError):
        _propose(stub_server, ctx, 2)
    assert stub_server.requests == []


def test_transport_exception_retries(monkeypatch, api_key, no_sleep):
    calls = {"n": 0}

    def failing_transport(url, headers, payload, timeout):
        calls["n"] += 1
        raise ConnectionError("refused")

    client = HttpChatClient(OracleClientConfig(max_retries=1), transport=failing_transport)
    with pytest.raises(OracleUnavailable):
        client.complete("sys", "user")
    assert calls["n"] == 2
    assert client.transport_calls == 2


def test_negative_max_retries_is_rejected():
    with pytest.raises(ValueError, match="max_retries"):
        OracleClientConfig(max_retries=-1)


def test_zero_max_retries_makes_one_attempt(api_key, no_sleep):
    calls = []

    def failing_transport(url, headers, payload, timeout):
        calls.append(url)
        raise ConnectionError("refused")

    client = HttpChatClient(OracleClientConfig(max_retries=0), transport=failing_transport)
    with pytest.raises(OracleUnavailable):
        client.complete("sys", "user")
    assert len(calls) == 1 and no_sleep == []


def test_truncated_reply_is_retried(api_key, no_sleep):
    replies = [http.client.IncompleteRead(b"{\"choi"), (200, _chat_body("B"))]

    def truncating_transport(url, headers, payload, timeout):
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    client = HttpChatClient(OracleClientConfig(max_retries=1), transport=truncating_transport)
    assert client.complete("sys", "user") == ["B"]
    assert client.transport_calls == 2
    assert no_sleep == [0.5]


def test_default_transport_needs_no_requests(stub_server, api_key, no_sleep, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # `import requests` now fails
    stub_server.push(500, {})
    stub_server.push(200, _chat_body("A", "B"))
    assert HttpChatClient(_cfg(stub_server)).complete("sys", "user", n=2) == ["A", "B"]
    assert [sent["n"] for sent in stub_server.requests] == [2, 2]
    assert no_sleep == [0.5]


def test_non_json_bodies_read_as_empty(stub_server, api_key, no_sleep):
    stub_server.push(503, b"<html>busy</html>")
    stub_server.push(200, b"not json")
    assert HttpChatClient(_cfg(stub_server)).complete("sys", "user") == []
    assert len(stub_server.requests) == 2
    assert no_sleep == [0.5]


@pytest.mark.parametrize("size, expected", [(_MAX_BODY_BYTES, ["padded"]), (_MAX_BODY_BYTES + 1, [])])
def test_reply_body_is_read_up_to_the_cap(stub_server, api_key, no_sleep, size, expected):
    body = json.dumps(_chat_body("padded")).encode()
    stub_server.push(200, body + b" " * (size - len(body)))  # valid JSON either way
    assert HttpChatClient(_cfg(stub_server)).complete("sys", "user") == expected
    assert len(stub_server.requests) == 1
    assert no_sleep == []


DEEP = b"[" * 200000 + b"]" * 200000  # deeper than json.loads can recurse


def test_deeply_nested_body_reads_as_empty(stub_server, api_key, no_sleep):
    stub_server.push(200, DEEP)
    assert HttpChatClient(_cfg(stub_server)).complete("sys", "user") == []
    assert len(stub_server.requests) == 1
    assert no_sleep == []


def test_beam_run_survives_a_deeply_nested_reply(
    stub_server, api_key, no_sleep, blocksworld, flagship, blocksworld_regression
):
    stub_server.push(200, DEEP)
    cfg = SearchConfig(algorithm="beam", target_length=4, seed=1)
    result = run_search(cfg, blocksworld, flagship, blocksworld_regression, HttpProposalOracle(_cfg(stub_server)))
    assert not result.success and result.explored == 1
    assert len(stub_server.requests) == cfg.max_depth  # the root is expanded once per iteration


@pytest.mark.parametrize("base_url", ["file:///etc", "ftp://127.0.0.1/v1", "localhost:8080/v1"])
def test_base_url_must_be_http(api_key, no_sleep, base_url):
    client = HttpChatClient(OracleClientConfig(base_url=base_url))
    with pytest.raises(OracleUnavailable, match="http:// or https://"):
        client.complete("sys", "user")
    assert client.transport_calls == 1
    assert no_sleep == []


def test_repeated_block_is_parsed_once(
    stub_server, api_key, monkeypatch, blocksworld, flagship, blocksworld_regression
):
    parsed = []
    parse = axiomforge.search.candidate.parse_domain
    monkeypatch.setattr(
        axiomforge.search.candidate,
        "parse_domain",
        lambda text, forms=None: parsed.append(text) or parse(text, forms),
    )
    block = f"```pddl\n{variants.MID_EXTRACT}```\n"
    stub_server.push(200, _chat_body(block * 2, block))
    cfg = SearchConfig(algorithm="beam", target_length=4, seed=1)
    oracle = HttpProposalOracle(_cfg(stub_server, samples=2))
    result = run_search(cfg, blocksworld, flagship, blocksworld_regression, oracle)
    assert result.success and result.best.plan_length == 4
    assert len(stub_server.requests) == 1
    assert len(parsed) == 1


def test_genetic_children_are_parsed_once(
    api_key, monkeypatch, blocksworld, flagship, blocksworld_regression
):
    parsed = []
    parse = axiomforge.search.candidate.parse_domain
    monkeypatch.setattr(
        axiomforge.search.candidate,
        "parse_domain",
        lambda text, forms=None: parsed.append(text) or parse(text, forms),
    )

    def transport(url, headers, payload, timeout_s):
        return 200, _chat_body(f"```pddl\n{variants.MID_EXTRACT}```\n")

    cfg = SearchConfig(algorithm="genetic", target_length=1, ga_population=4, ga_generations=2)
    oracle = HttpProposalOracle(OracleClientConfig(samples=1), transport)
    result = run_search(cfg, blocksworld, flagship, blocksworld_regression, oracle)
    assert oracle.calls == 11
    assert len(parsed) == 1  # crossover and mutation replies are read by the evaluator alone
    assert result.explored == 2 and result.best.plan_length == 6


def _alias(domain, name):
    """`domain` plus a copy of its pickup action under `name`: the plan
    length stays 6, and aliases with names of equal length score the same."""
    return print_canonical(replace(domain, actions=domain.actions + (replace(domain.action("pickup"), name=name),)))


@pytest.mark.parametrize("fillers, comparisons", [(("pickup-again",), 0), (("pickup-again", "pickup-twice"), 1)])
def test_beam_compares_only_candidates_of_equal_score(
    api_key, blocksworld, flagship, blocksworld_regression, fillers, comparisons
):
    sent = []
    blocks = [_alias(blocksworld, name) for name in fillers] + [variants.MID_EXTRACT]

    def transport(url, headers, payload, timeout_s):
        proposal = payload["messages"][0]["content"] == SYSTEM_PROMPT
        sent.append("proposal" if proposal else "comparison")
        if proposal:
            return 200, _chat_body("".join(f"```pddl\n{block}```\n" for block in blocks))
        return 200, _chat_body(*"A" * payload["n"])

    cfg = SearchConfig(algorithm="beam", target_length=4, seed=1)
    client_cfg = OracleClientConfig(samples=16)
    result = run_search(
        cfg, blocksworld, flagship, blocksworld_regression, HttpProposalOracle(client_cfg, transport),
        distance_oracle=HttpDistanceOracle(client_cfg, transport),
    )
    assert result.success and result.best.plan_length == 4
    assert sent == ["proposal"] + ["comparison"] * comparisons


def test_distance_oracle_parses_choice(stub_server, api_key):
    stub_server.push(200, _chat_body("B"))
    oracle = HttpDistanceOracle(_cfg(stub_server, samples=1))
    assert oracle._samples("ref", "x", "y", 1) == [Choice.B]
    stub_server.push(200, _chat_body("  answer: A"))
    assert oracle._samples("ref", "x", "y", 1) == [Choice.A]
    assert oracle.transport_calls == 2


def test_distance_query_is_one_request(stub_server, api_key):
    stub_server.push(200, _chat_body(*"B" * 16))
    oracle = HttpDistanceOracle(_cfg(stub_server, samples=16))
    assert oracle.query("ref", "x", "y") is Choice.B
    assert [sent["n"] for sent in stub_server.requests] == [16]
    assert oracle.query("ref", "x", "y") is Choice.B
    assert oracle.query("ref", "y", "x") is Choice.A
    assert len(stub_server.requests) == 1


# Levenshtein prefers B below: "wxyq" is one edit from the reference, "abcd" four.
@pytest.mark.parametrize(
    "letters, expected",
    [("A" * 9 + "B" * 7, Choice.A), ("B" * 9 + "A" * 7, Choice.B), ("AB" * 8, Choice.B)],
    ids=["9-7-for-a", "9-7-for-b", "8-8-tie"],
)
def test_distance_batch_is_majority_voted(stub_server, api_key, letters, expected):
    stub_server.push(200, _chat_body(*letters))
    oracle = HttpDistanceOracle(_cfg(stub_server, samples=16))
    assert oracle.query("wxyz", "abcd", "wxyq") is expected


def test_distance_short_replies_are_topped_up(stub_server, api_key):
    for _ in range(16):
        stub_server.push(200, _chat_body("B"))
    oracle = HttpDistanceOracle(_cfg(stub_server, samples=16))
    assert oracle._samples("ref", "x", "y", 16) == [Choice.B] * 16
    assert [sent["n"] for sent in stub_server.requests] == list(range(16, 0, -1))


def test_distance_empty_reply_votes_a(stub_server, api_key):
    stub_server.push(200, {"choices": []})
    oracle = HttpDistanceOracle(_cfg(stub_server, samples=16))
    assert oracle.query("wxyz", "abcd", "wxyq") is Choice.A
    assert len(stub_server.requests) == 1


@pytest.mark.parametrize(
    "reply, expected",
    [
        ("B", Choice.B),
        ("Candidate B", Choice.B),
        ("Answer: B", Choice.B),
        ("The answer is B", Choice.B),
        ("Based on the rules, A", Choice.A),
        ("B is closer than A", Choice.B),
        ("b.", Choice.B),
        ("(a)", Choice.A),
        ("**B**", Choice.B),
        ("I pick b", Choice.A),
        ("AB", Choice.A),
        ("Neither", Choice.A),
        ("", Choice.A),
    ],
)
def test_distance_vote_reads_a_lone_choice(api_key, reply, expected):
    oracle = HttpDistanceOracle(OracleClientConfig(), lambda *request: (200, _chat_body(reply)))
    assert oracle._samples("ref", "x", "y", 1) == [expected]


def test_distance_batch_retries_server_error(stub_server, api_key, no_sleep):
    stub_server.push(503, {})
    stub_server.push(200, _chat_body(*"B" * 16))
    oracle = HttpDistanceOracle(_cfg(stub_server, samples=16))
    assert oracle.query("abcd", "abcx", "wxyz") is Choice.B
    assert [sent["n"] for sent in stub_server.requests] == [16, 16]
    assert no_sleep == [0.5]


def test_proposal_oracle_crossover_falls_back(stub_server, api_key, blocksworld, flagship):
    stub_server.push(200, _chat_body("no code block at all"))
    oracle = HttpProposalOracle(_cfg(stub_server))
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    assert oracle.crossover(ctx, "parent-a-text", "parent-b-text") == "parent-a-text"
    assert oracle.calls == 1


def test_crossover_returns_first_block_unparsed(stub_server, api_key, blocksworld, flagship):
    stub_server.push(200, _chat_body(f"```pddl\n{BROKEN}```\n```pddl\n{GOOD_A}```\n"))
    oracle = HttpProposalOracle(_cfg(stub_server))
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    assert oracle.crossover(ctx, "parent-a-text", "parent-b-text") == BROKEN


@pytest.mark.parametrize(
    "body",
    [
        {"choices": [{"message": {"content": None}}]},
        ["not", "an", "object"],
        {"choices": "not a list"},
        {"choices": [None, {"message": "not an object"}]},
    ],
)
def test_malformed_reply_reads_as_empty(stub_server, api_key, blocksworld, flagship, body):
    ctx = ProposalContext(blocksworld, flagship, 6, 4)
    stub_server.push(200, body)
    assert _propose(stub_server, ctx, 2) == []
    stub_server.push(200, body)
    assert HttpProposalOracle(_cfg(stub_server)).crossover(ctx, "a-text", "b-text") == "a-text"
    stub_server.push(200, body)
    assert HttpDistanceOracle(_cfg(stub_server))._samples("ref", "x", "y", 1) == [Choice.A]
