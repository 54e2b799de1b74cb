import pytest

from axiomforge import corpus
from axiomforge.pddl import parse_domain, parse_problem, print_canonical, print_canonical_problem

ALL = list(corpus.CORPUS_NAMES)


@pytest.mark.parametrize("name", ALL)
def test_round_trip_structural_equality(name):
    domain = parse_domain(corpus.load(name).domain_text)
    assert parse_domain(print_canonical(domain)) == domain


@pytest.mark.parametrize("name", ALL)
def test_canonical_idempotent(name):
    domain = parse_domain(corpus.load(name).domain_text)
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


def test_problem_round_trip(flagship):
    printed = print_canonical_problem(flagship)
    assert parse_problem(printed) == flagship
    assert print_canonical_problem(parse_problem(printed)) == printed


def test_untyped_domain_stays_untyped():
    text = print_canonical(parse_domain(corpus.load("blocksworld").domain_text))
    assert "- object" not in text


def test_typed_lists_keep_declared_types():
    text = print_canonical(parse_domain(corpus.load("logistics").domain_text))
    assert "(either vehicle package)" in text
    assert "truck - vehicle" in text
