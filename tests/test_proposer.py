import pytest

from axiomforge import corpus
from axiomforge.pddl import parse_domain, print_canonical
from axiomforge.proposer import (
    Intake,
    NoScriptMatch,
    ProposalContext,
    ScriptEntry,
    ScriptedOracle,
    build_prompt,
    builtin_script,
    extract_candidates,
)
from axiomforge.proposer.extract import fenced, fenced_blocks
from axiomforge.search.common import propose_domains

GOOD_DOMAIN = """\
(define (domain blocksworld)
  (:requirements :strips)
  (:predicates (clear ?x) (on-table ?x) (arm-empty) (holding ?x) (on ?x ?y))
  (:action tidy
    :parameters (?x)
    :precondition (clear ?x)
    :effect (on-table ?x)))
"""

BAD_DOMAIN = """\
(define (domain blocksworld)
  (:predicates (clear ?x))
  (:action tidy
    :parameters (?x)
    :precondition (clear ?x ?y)
    :effect (clear ?x)))
"""


def _ctx(domain, problem, baseline=6, target=4, **kw):
    return ProposalContext(domain, problem, baseline, target, **kw)


@pytest.fixture()
def bw_ctx(blocksworld, flagship):
    return _ctx(blocksworld, flagship)


# -- prompts ----------------------------------------------------------------


def test_prompt_embeds_domain_and_numbers(bw_ctx):
    prompt = build_prompt(bw_ctx)
    assert print_canonical(bw_ctx.domain).rstrip("\n") in prompt
    assert "6" in prompt and "4" in prompt
    assert "```pddl" in prompt


def test_prompt_without_history_has_no_history_section(blocksworld, flagship):
    prompt = build_prompt(_ctx(blocksworld, flagship))
    assert "Earlier attempts" not in prompt
    with_history = build_prompt(
        _ctx(blocksworld, flagship, history=("try 1: plan length 6, score 6",))
    )
    assert "Earlier attempts" in with_history


def test_prompt_states_unreachable_goal(blocksworld, flagship):
    prompt = build_prompt(_ctx(blocksworld, flagship, baseline=None))
    assert "unreachable" in prompt


@pytest.mark.parametrize("text", ["(a)", "(a)\n", "(a)\n\n", "(a\n b)\n", "(a) \n", ""])
def test_fenced_text_reads_back(text):
    block = fenced(text)
    assert block.startswith("```pddl\n") and block.endswith("\n```")
    assert fenced_blocks(block) == [text.rstrip("\n") + "\n"]
    assert fenced_blocks(f"{block}\n{block}") == [text.rstrip("\n") + "\n"] * 2


def test_negative_target_rejected(blocksworld, flagship):
    with pytest.raises(ValueError):
        _ctx(blocksworld, flagship, target=-1)


# -- extraction ---------------------------------------------------------------


def test_extracts_valid_blocks_drops_malformed():
    response = (
        "Here are two ideas.\n"
        f"```pddl\n{GOOD_DOMAIN}```\n"
        "And a broken one:\n"
        f"```\n{BAD_DOMAIN}```\n"
        "Finally:\n"
        f"```lisp\n{GOOD_DOMAIN.replace('tidy', 'sweep')}```\n"
    )
    result = extract_candidates(response)
    assert len(result.domains) == 2
    assert result.dropped == 1
    assert [a.name for d in result.domains for a in d.actions] == ["tidy", "sweep"]


def test_no_fenced_blocks_is_empty():
    result = extract_candidates("no code here, sorry")
    assert result.domains == () and result.dropped == 0


def test_undeclared_predicate_block_dropped():
    bad = GOOD_DOMAIN.replace(":effect (on-table ?x)", ":effect (levitating ?x)")
    # the effect now references a predicate that was never declared
    result = extract_candidates(f"```pddl\n{bad}```")
    assert result.domains == () and result.dropped == 1


def test_extraction_returns_every_block():
    response = "".join(f"```pddl\n{GOOD_DOMAIN}```\n" for _ in range(4))
    assert len(extract_candidates(response).domains) == 4


def test_garbage_never_raises():
    assert extract_candidates("``` unterminated").domains == ()
    assert extract_candidates("```\n(((\n```").dropped == 1


def test_deeply_nested_block_is_dropped():
    deep = "(" * 5000 + ")" * 5000
    result = extract_candidates(f"```pddl\n{deep}\n```\n```pddl\n{GOOD_DOMAIN}```")
    assert result.dropped == 1
    assert [a.name for d in result.domains for a in d.actions] == ["tidy"]


# -- scripted oracle ---------------------------------------------------------


def _propose(oracle, ctx, k):
    return [domain for domain, _ in propose_domains(oracle, ctx, k, Intake(ctx.problem))]


def test_builtin_script_returns_both_variants(bw_ctx, evaluator):
    candidates = _propose(builtin_script(), bw_ctx, 4)
    assert len(candidates) == 2
    multi, extract = candidates
    assert multi.action("pickup-pair") is not None
    assert extract.action("extract-middle") is not None


def test_script_k_one_takes_first(bw_ctx):
    candidates = _propose(builtin_script(), bw_ctx, 1)
    assert len(candidates) == 1
    assert candidates[0].action("pickup-pair") is not None


def test_no_script_match(bw_ctx):
    hanoi = parse_domain(corpus.load("hanoi").domain_text)
    ctx = ProposalContext(hanoi, bw_ctx.problem, 6, 4)
    with pytest.raises(NoScriptMatch):
        builtin_script().propose(ctx, 2)


def test_scripted_propose_drops_unlinkable(bw_ctx):
    oracle = ScriptedOracle(
        [ScriptEntry(lambda ctx: True, (GOOD_DOMAIN, BAD_DOMAIN, GOOD_DOMAIN))]
    )
    candidates = _propose(oracle, bw_ctx, 5)
    # the two good copies dedup to one; the bad one drops
    assert len(candidates) == 1


def test_scripted_crossover_mutate_defaults(bw_ctx):
    oracle = builtin_script()
    assert oracle.crossover(bw_ctx, "left", "right") == "left"
    assert oracle.mutate(bw_ctx, "text") == "text"
    assert oracle.calls == 2


def test_scripted_counts_calls(bw_ctx):
    oracle = builtin_script()
    oracle.propose(bw_ctx, 2)
    oracle.propose(bw_ctx, 2)
    assert oracle.calls == 2
