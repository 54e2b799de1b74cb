import pytest

from axiomforge import corpus
from axiomforge.pddl import link, parse_domain, parse_problem, print_canonical, print_canonical_problem
from axiomforge.planner import Plan, ground, solve

# No corpus domain or problem has an `or`, empty or not.
CHOICE = """\
(define (domain choice)
    (:requirements :strips :negative-preconditions)
    (:predicates (p) (q) (r))
    (:action a
        :parameters ()
        :precondition (or (p) (and (q) (not (r))) (or))
        :effect (r)))
"""
CHOOSE = "(define (problem choose) (:domain choice) (:init (q)) (:goal (or (r) (and))))"

DOMAIN_TEXTS = {name: corpus.load(name).domain_text for name in corpus.CORPUS_NAMES} | {"choice": CHOICE}
PROBLEM_TEXTS = {"flagship": corpus.load("blocksworld").flagship.text, "choose": CHOOSE}


@pytest.mark.parametrize("name", DOMAIN_TEXTS)
def test_round_trip_structural_equality(name):
    domain = parse_domain(DOMAIN_TEXTS[name])
    assert parse_domain(print_canonical(domain)) == domain


@pytest.mark.parametrize("name", DOMAIN_TEXTS)
def test_canonical_idempotent(name):
    domain = parse_domain(DOMAIN_TEXTS[name])
    once = print_canonical(domain)
    twice = print_canonical(parse_domain(once))
    assert once == twice


def test_whitespace_and_comments_do_not_matter():
    original = corpus.load("blocksworld").domain_text
    noisy = original.replace("(:action pickup", ";; noise\n  (:action   pickup").replace(
        "(clear ?x)", "(clear    ?x) ; comment"
    )
    assert print_canonical(parse_domain(noisy)) == print_canonical(parse_domain(original))


def test_case_does_not_matter():
    original = corpus.load("blocksworld").domain_text
    assert print_canonical(parse_domain(original.upper())) == print_canonical(
        parse_domain(original)
    )


def test_reordered_precondition_changes_canonical_text():
    original = corpus.load("blocksworld").domain_text
    reordered = original.replace(
        "(and (clear ?ob) (on-table ?ob) (arm-empty))",
        "(and (arm-empty) (clear ?ob) (on-table ?ob))",
    )
    assert reordered != original
    assert print_canonical(parse_domain(reordered)) != print_canonical(parse_domain(original))


@pytest.mark.parametrize("name", PROBLEM_TEXTS)
def test_problem_round_trip(name):
    problem = parse_problem(PROBLEM_TEXTS[name])
    printed = print_canonical_problem(problem)
    assert parse_problem(printed) == problem
    assert print_canonical_problem(parse_problem(printed)) == printed


def test_goal_with_empty_and_holds_at_init():
    assert solve(ground(link(parse_domain(CHOICE), parse_problem(CHOOSE)))) == Plan(())


def test_untyped_domain_stays_untyped():
    text = print_canonical(parse_domain(corpus.load("blocksworld").domain_text))
    assert "- object" not in text


def test_typed_lists_keep_declared_types():
    text = print_canonical(parse_domain(corpus.load("logistics").domain_text))
    assert "(either vehicle package)" in text
    assert "truck - vehicle" in text


def test_a_block_dict_outlives_the_domains_printed_into_it():
    """Each block holds the objects it was printed from, so a domain built
    after an earlier one was dropped cannot take its ids and its text."""
    blocks: dict = {}
    texts = list(DOMAIN_TEXTS.values())
    for before, after in zip(texts, texts[1:] + texts[:1]):
        print_canonical(parse_domain(before), blocks)
        domain = parse_domain(after)
        assert print_canonical(domain, blocks) == print_canonical(domain)
