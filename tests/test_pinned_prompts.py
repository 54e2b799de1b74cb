"""Pins of what the model is shown and of the rule-size penalty.

The prompts are compared as whole texts for one fixed blocksworld context,
and by digest for every corpus domain; `compactness` is compared as an
absolute literal count. A change to how PDDL is quoted into a prompt, or
to which formula nodes count as literals, moves one of these.
"""

import hashlib

import pytest

from axiomforge import corpus
from axiomforge.corpus import variants
from axiomforge.pddl import parse_domain, parse_problem, print_canonical
from axiomforge.proposer import ProposalContext
from axiomforge.proposer.prompts import (
    JUDGE_SYSTEM_PROMPT,
    SYSTEM_PROMPT,
    build_prompt,
    comparison_prompt,
    crossover_prompt,
    mutation_prompt,
)
from axiomforge.search.candidate import compactness


@pytest.fixture(scope="module")
def ctx(blocksworld, flagship):
    return ProposalContext(
        blocksworld, flagship, 6, 4, failure_summary="plan too long", history=("beam 1: 6 steps",)
    )


BUILD_PROMPT = """\
Current rules:
```pddl
(define (domain blocksworld)
  (:requirements :equality :strips)
  (:predicates
    (clear ?x)
    (on-table ?x)
    (arm-empty)
    (holding ?x)
    (on ?x ?y))
  (:action pickup
    :parameters (?ob)
    :precondition (and (clear ?ob) (on-table ?ob) (arm-empty))
    :effect (and (holding ?ob) (not (clear ?ob)) (not (on-table ?ob)) (not (arm-empty))))
  (:action putdown
    :parameters (?ob)
    :precondition (and (holding ?ob))
    :effect (and (clear ?ob) (arm-empty) (on-table ?ob) (not (holding ?ob))))
  (:action stack
    :parameters (?ob ?underob)
    :precondition (and (clear ?underob) (holding ?ob))
    :effect (and (arm-empty) (clear ?ob) (on ?ob ?underob) (not (clear ?underob)) (not (holding ?ob))))
  (:action unstack
    :parameters (?ob ?underob)
    :precondition (and (on ?ob ?underob) (clear ?ob) (arm-empty))
    :effect (and (holding ?ob) (clear ?underob) (not (on ?ob ?underob)) (not (clear ?ob)) (not (arm-empty)))))
```

Scenario:
```pddl
(define (problem restack)
  (:domain blocksworld)
  (:objects a b c)
  (:init
    (arm-empty)
    (clear a)
    (clear c)
    (on c b)
    (on-table a)
    (on-table b))
  (:goal (and (on b a) (on c b))))
```

The best plan under the current rules takes 6 steps.
Modify the rules so the scenario becomes solvable in at most 4 steps, while every scenario that is solvable today stays solvable.
Known failure: plan too long

Earlier attempts:
- beam 1: 6 steps

Reply with one or more proposals. Each proposal must be a complete modified domain inside its own ```pddl fenced code block."""


def test_build_prompt_text(ctx):
    assert build_prompt(ctx) == BUILD_PROMPT


def test_crossover_prompt_text(ctx):
    assert crossover_prompt(ctx, "(define (domain a))\n", "(define (domain b))") == (
        "Combine the strengths of these two rule sets for the same game into a single rule set.\n"
        "\n"
        "Rule set A:\n"
        "```pddl\n"
        "(define (domain a))\n"
        "```\n"
        "\n"
        "Rule set B:\n"
        "```pddl\n"
        "(define (domain b))\n"
        "```\n"
        "\n"
        "The combined rules must keep the domain name and should solve the scenario in at most 4 steps.\n"
        "Reply with exactly one complete domain inside a ```pddl fenced code block."
    )


def test_mutation_prompt_text(ctx):
    # Every trailing newline of the quoted text goes, not just the last.
    assert mutation_prompt(ctx, "(define (domain a))\n\n") == (
        "Make one small change to this rule set: add, drop, or adjust a single precondition,"
        " effect, or action.\n"
        "\n"
        "```pddl\n"
        "(define (domain a))\n"
        "```\n"
        "\n"
        "Aim for solvability in at most 4 steps without breaking scenarios that already work.\n"
        "Reply with exactly one complete domain inside a ```pddl fenced code block."
    )


def test_comparison_prompt_text():
    assert comparison_prompt("(r)\n", "(a)", "(b)\n") == (
        "Two modified rule sets are compared against a reference rule set. Decide which"
        " modification changes the meaning of the rules less, considering preconditions,"
        " effects, and the behaviour they allow.\n"
        "\n"
        "Reference:\n"
        "```pddl\n"
        "(r)\n"
        "```\n"
        "\n"
        "Candidate A:\n"
        "```pddl\n"
        "(a)\n"
        "```\n"
        "\n"
        "Candidate B:\n"
        "```pddl\n"
        "(b)\n"
        "```\n"
        "\n"
        "Reply with the single letter A or B."
    )


# First 16 hex digits of the sha256 of five prompts for the domain and its
# flagship problem, joined by NUL; and the domain's literal count.
CORPUS_PINS = {
    "blocksworld": ("1659b8402dca5758", 27),
    "briefcase": ("24d6756b9b245f1a", 12),
    "bulldozer": ("9f8958a5c2624223", 28),
    "casino": ("8f77c53c69b41195", 19),
    "depot": ("8aaf4d0acfcddf00", 37),
    "ferry": ("9844d8903df0fdd8", 27),
    "gripper": ("6f5f239a8b29eb80", 22),
    "hanoi": ("61d5dbdd47e478dc", 8),
    "logistics": ("98af335b56e2aa6c", 24),
    "maze": ("9e49d2d487890056", 44),
    "miconic": ("2a4eeb75cf076aaa", 20),
    "monkey": ("d5092533cfcfc37d", 41),
}


def test_system_prompt_text():
    assert SYSTEM_PROMPT == (
        "You revise the rules of logic games written in PDDL. Rules are the domain's actions and predicates."
        " Keep the domain name unchanged, keep every domain you emit syntactically complete, and prefer the"
        " smallest rule change that reaches the stated goal."
    )


def test_judge_system_prompt_text():
    assert JUDGE_SYSTEM_PROMPT == (
        "You judge how close modified game rules stay to a reference. Answer with the single letter A or B."
    )


def test_every_corpus_domain_is_pinned():
    assert sorted(CORPUS_PINS) == sorted(corpus.CORPUS_NAMES)


def _prompts(name: str) -> list:
    entry = corpus.load(name)
    domain = parse_domain(entry.domain_text)
    problem = parse_problem(entry.flagship.text)
    text = print_canonical(domain)
    ctx = ProposalContext(domain, problem, 5, 3)
    return [
        build_prompt(ProposalContext(domain, problem, None, 3)),
        build_prompt(ProposalContext(domain, problem, 5, 3, "x", ("a", "b"))),
        crossover_prompt(ctx, text, text),
        mutation_prompt(ctx, text),
        comparison_prompt(text, text, text),
    ]


@pytest.mark.parametrize("name", sorted(CORPUS_PINS))
def test_corpus_prompt_digest(name):
    digest = hashlib.sha256("\0".join(_prompts(name)).encode()).hexdigest()[:16]
    assert digest == CORPUS_PINS[name][0]


@pytest.mark.parametrize("name", sorted(CORPUS_PINS))
def test_corpus_compactness(name):
    assert compactness(parse_domain(corpus.load(name).domain_text)) == CORPUS_PINS[name][1]


@pytest.mark.parametrize("text, literals", [(variants.MULTI_LIFT, 44), (variants.MID_EXTRACT, 45)],
                         ids=["multi-lift", "mid-extract"])
def test_variant_compactness(text, literals):
    assert compactness(parse_domain(text)) == literals
