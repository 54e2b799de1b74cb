"""Whole search runs over hostile oracle replies, drawn by hypothesis.

Every algorithm runs through `HttpProposalOracle` and `HttpDistanceOracle`
over an injected transport that answers from a drawn script of replies:
bodies that are not chat JSON, fences that never close or are too long to
read, backticks and non-ASCII letters in names, texts that parse but do not
link or explode in grounding, texts nested deeper than the reader reads,
an action with two preconditions, a type declared twice, and 429, 5xx and
401 statuses. A run must return a `SearchResult` or raise
`OracleUnavailable` or `AuthError`, and every step it records must be the
original's canonical text or the canonical print of a block some reply
held, must parse back to itself and must carry a finite score. Every line
of the trajectory must be strict JSON.
"""

import itertools
import json
import math
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomforge import corpus
from axiomforge.corpus import variants
from axiomforge.distance import OracleUnavailable
from axiomforge.pddl import PddlError, parse_domain, parse_problem, print_canonical
from axiomforge.pddl.reader import MAX_DEPTH
from axiomforge.proposer import AuthError, HttpDistanceOracle, HttpProposalOracle, OracleClientConfig
from axiomforge.proposer.extract import fenced_blocks
from axiomforge.proposer.http import API_KEY_ENV_VAR
from axiomforge.search import ALGORITHMS, SearchConfig, SearchResult, run_search
from axiomforge.search.candidate import MAX_TEXT_FACTOR
from axiomforge.trajectory import read_runs
from conftest import EXTRACT_PRECONDITION, REPEATED_PRECONDITION, WIDE_ACTIONS, StubChatServer

ENTRY = corpus.load("blocksworld")
ORIGINAL = parse_domain(ENTRY.domain_text)
FLAGSHIP = parse_problem(ENTRY.flagship.text)
REGRESSION = corpus.regression_suite("blocksworld")
ORIGINAL_TEXT = print_canonical(ORIGINAL)
# A whole action whose precondition nests MAX_DEPTH `and`s inside it: a
# syntax error, whether the text is read whole or form by form.
DEEP = (
    ENTRY.domain_text.rstrip()[:-1]
    + "(:action deep :parameters () :precondition "
    + "(and " * MAX_DEPTH + "(arm-empty)" + ")" * MAX_DEPTH
    + " :effect (arm-empty)))\n"
)
# MID_EXTRACT, which reaches the target, with a type declared twice.
REPEATED_TYPE = variants.MID_EXTRACT.replace("(:predicates", "(:types a - b a - c b c)\n    (:predicates", 1)
# What REPEATED_PRECONDITION would read as if its last precondition won.
LAST_PRECONDITION_TEXT = print_canonical(
    parse_domain(variants.MID_EXTRACT.replace(EXTRACT_PRECONDITION, "(and (arm-empty))"))
)

BLOCKS = [
    variants.MID_EXTRACT,
    variants.MULTI_LIFT,
    ENTRY.domain_text,
    variants.MID_EXTRACT.replace("(domain blocksworld)", "(domain renamed)"),  # parses, does not link
    variants.MID_EXTRACT.replace("pickup", "pick`up"),
    variants.MID_EXTRACT.replace("pickup", "pick```up"),  # closes its fence early
    variants.MID_EXTRACT.replace("pickup", "pické"),
    variants.MID_EXTRACT + ";" + "x" * (MAX_TEXT_FACTOR * len(ORIGINAL_TEXT)) + "\n",  # too long to read
    "(define (domain blocksworld) (:action",
    # links, but its 16-parameter action explodes in grounding
    ENTRY.domain_text.rstrip()[:-1] + WIDE_ACTIONS["false-last-precondition"] + ")\n",
    DEEP,
    REPEATED_PRECONDITION,
    REPEATED_TYPE,
]
FENCED = st.sampled_from(BLOCKS).map(lambda block: f"```pddl\n{block}```")
CONTENT_PIECES = st.one_of(
    FENCED,
    FENCED,
    st.sampled_from(BLOCKS).map(lambda block: f"```pddl\n{block}"),  # never closed
    st.sampled_from(["A", "B", "Answer: B", "(a)", "é", "", "```", "no idea"]),
)
CONTENTS = st.lists(CONTENT_PIECES, min_size=1, max_size=3).map("\n".join)
CHAT_BODIES = st.lists(CONTENTS, min_size=1, max_size=3).map(lambda contents: StubChatServer.chat_body(*contents))
BODIES = st.one_of(
    CHAT_BODIES,
    CHAT_BODIES,
    # What the default transport makes of a body that is not JSON, then
    # JSON of the wrong shape.
    st.sampled_from([{}, [], "not json", {"choices": "x"}, {"choices": [None, {"message": 7}, {}]}]),
)
STATUSES = st.sampled_from([200] * 12 + [429, 500, 503, 401])
SCRIPTS = st.lists(st.tuples(STATUSES, BODIES), min_size=1, max_size=6)

CONFIGS = {
    "bfs": dict(max_depth=2, proposals_per_expansion=2),
    "mcts": dict(mcts_iterations=4, max_depth=2, proposals_per_expansion=2),
    "genetic": dict(ga_population=3, ga_generations=2),
    "beam": dict(beam_width=2, max_depth=2, proposals_per_expansion=2),
}


def _blocks(body):
    """The fenced blocks of every choice's content in a reply body."""
    choices = body.get("choices") if isinstance(body, dict) else None
    for choice in choices if isinstance(choices, list) else ():
        message = choice.get("message") if isinstance(choice, dict) else None
        content = message.get("content") if isinstance(message, dict) else None
        if isinstance(content, str):
            yield from fenced_blocks(content)


def _canonical(block: str) -> str | None:
    try:
        return print_canonical(parse_domain(block))
    except PddlError:
        return None


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def _run(algorithm, script, path):
    """Run `algorithm` with both oracles answering from `script` in turn,
    writing its trajectory to `path`; the bodies served with status 200."""
    replies = itertools.cycle(script)
    served = []

    def transport(url, headers, payload, timeout_s):
        status, body = next(replies)
        if status == 200:
            served.append(body)
        return status, body

    client_cfg = OracleClientConfig(samples=2, max_retries=1)
    cfg = SearchConfig(algorithm=algorithm, target_length=4, seed=1, **CONFIGS[algorithm])
    with mock.patch.object(time, "sleep"), mock.patch.dict(os.environ, {API_KEY_ENV_VAR: "test-key"}):
        try:
            result = run_search(
                cfg, ORIGINAL, FLAGSHIP, REGRESSION, HttpProposalOracle(client_cfg, transport),
                distance_oracle=HttpDistanceOracle(client_cfg, transport), trajectory_path=path,
            )
            assert isinstance(result, SearchResult)
        except (OracleUnavailable, AuthError):
            pass
    return served


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=20, deadline=None)
@given(script=SCRIPTS)
def test_a_run_over_hostile_replies_ends_cleanly(algorithm, script):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        served = _run(algorithm, script, path)
        (run,) = read_runs(path)
        lines = path.read_text().splitlines()
    for line in lines:
        json.loads(line, parse_constant=_refuse)
    held = {_canonical(block) for body in served for block in _blocks(body)}
    for step in run.steps:
        text = step["domain_text"]
        assert text == ORIGINAL_TEXT or text in held
        assert text != LAST_PRECONDITION_TEXT
        types = [t.name for t in parse_domain(text).types]
        assert len(set(types)) == len(types)
        assert print_canonical(parse_domain(text)) == text
        assert math.isfinite(step["score"])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_block_nested_too_deep_is_dropped_as_a_syntax_error(algorithm, tmp_path):
    with pytest.raises(PddlError, match=f"syntax-error: nesting deeper than {MAX_DEPTH} levels"):
        parse_domain(DEEP)
    path = tmp_path / "run.jsonl"
    _run(algorithm, [(200, StubChatServer.chat_body(f"```pddl\n{DEEP}```"))], path)
    (run,) = read_runs(path)
    assert [step["domain_text"] for step in run.steps] == [ORIGINAL_TEXT]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_block_with_a_repeated_precondition_is_dropped_as_a_duplicate(algorithm, tmp_path):
    with pytest.raises(PddlError, match="duplicate-name: duplicate ':precondition'"):
        parse_domain(REPEATED_PRECONDITION)
    path = tmp_path / "run.jsonl"
    _run(algorithm, [(200, StubChatServer.chat_body(f"```pddl\n{REPEATED_PRECONDITION}```"))], path)
    (run,) = read_runs(path)
    assert [step["domain_text"] for step in run.steps] == [ORIGINAL_TEXT]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_block_with_a_repeated_type_is_dropped_as_a_duplicate(algorithm, tmp_path):
    with pytest.raises(PddlError, match="duplicate-name: duplicate type 'a'"):
        parse_domain(REPEATED_TYPE)
    path = tmp_path / "run.jsonl"
    _run(algorithm, [(200, StubChatServer.chat_body(f"```pddl\n{REPEATED_TYPE}```"))], path)
    (run,) = read_runs(path)
    assert [step["domain_text"] for step in run.steps] == [ORIGINAL_TEXT]
