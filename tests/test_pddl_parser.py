import pytest

from axiomforge import corpus
from axiomforge.pddl import (
    And,
    Atom,
    Forall,
    PddlError,
    When,
    parse_domain,
    parse_problem,
)
from axiomforge.pddl.reader import MAX_DEPTH

ALL_DOMAINS = [(name, corpus.load(name).domain_text) for name in corpus.CORPUS_NAMES]


@pytest.mark.parametrize("name,text", ALL_DOMAINS, ids=[n for n, _ in ALL_DOMAINS])
def test_corpus_domains_parse_clean(name, text):
    domain = parse_domain(text)
    assert domain.name == name


def test_blocksworld_shape():
    domain = parse_domain(corpus.load("blocksworld").domain_text)
    assert {a.name for a in domain.actions} == {"pickup", "putdown", "stack", "unstack"}
    assert len(domain.predicates) == 5


def test_hanoi_shape():
    domain = parse_domain(corpus.load("hanoi").domain_text)
    assert [a.name for a in domain.actions] == ["move"]
    assert len(domain.predicates) == 3


def test_degenerate_domain():
    domain = parse_domain("(define (domain empty) (:requirements :strips) (:predicates))")
    assert domain.actions == ()
    assert domain.predicates == ()


def test_identifiers_lowercased():
    domain = parse_domain(corpus.load("monkey").domain_text)
    assert domain.action("go-to") is not None
    assert all(a.name == a.name.lower() for a in domain.actions)
    assert {c.name for c in domain.constants} == {
        "monkey", "box", "knife", "bananas", "glass", "waterfountain",
    }


def test_comments_stripped():
    text = """
    ; header comment
    (define (domain commented) ; trailing
      (:requirements :strips)
      (:predicates (p ?x)) ; another
      (:action a :parameters (?x) :precondition (p ?x) :effect (not (p ?x))))
    """
    domain = parse_domain(text)
    assert domain.action("a").precondition == Atom("p", ("?x",))


def test_briefcase_conditional_effect_structure():
    domain = parse_domain(corpus.load("briefcase").domain_text)
    move = domain.action("move")
    forall = next(p for p in move.effect.parts if isinstance(p, Forall))
    assert isinstance(forall.body, When)
    assert forall.variables[0].type == "portable"


def test_logistics_either_type():
    domain = parse_domain(corpus.load("logistics").domain_text)
    at = domain.predicate("at")
    assert at.params[0].type == ("vehicle", "package")


def test_unsupported_requirement():
    with pytest.raises(PddlError) as err:
        parse_domain("(define (domain x) (:requirements :durative-actions))")
    diag = err.value.diagnostics[0]
    assert diag.code == "unsupported-construct"
    assert ":durative-actions" in diag.message


def test_unsupported_section_and_head():
    with pytest.raises(PddlError) as err:
        parse_domain("(define (domain x) (:functions (cost)))")
    assert err.value.diagnostics[0].code == "unsupported-construct"

    with pytest.raises(PddlError) as err:
        parse_domain(
            "(define (domain x) (:predicates (p ?a))"
            " (:action a :parameters (?x) :precondition (exists (?y) (p ?y))"
            " :effect (p ?x)))"
        )
    assert any(d.code == "unsupported-construct" for d in err.value.diagnostics)


def test_arity_mismatch_detected():
    with pytest.raises(PddlError) as err:
        parse_domain(
            "(define (domain x) (:predicates (on ?a ?b))"
            " (:action a :parameters (?x) :precondition (on ?x) :effect (on ?x ?x)))"
        )
    diag = next(d for d in err.value.diagnostics if d.code == "arity-mismatch")
    assert "'on'" in diag.message and "2" in diag.message


def test_unbound_variable_detected():
    with pytest.raises(PddlError) as err:
        parse_domain(
            "(define (domain x) (:predicates (p ?a))"
            " (:action a :parameters (?x) :precondition (p ?y) :effect (p ?x)))"
        )
    diag = next(d for d in err.value.diagnostics if d.code == "unbound-variable")
    assert "?y" in diag.message and "'a'" in diag.message


def test_duplicate_action_name():
    with pytest.raises(PddlError) as err:
        parse_domain(
            "(define (domain x) (:predicates (p ?a))"
            " (:action a :parameters (?x) :precondition (p ?x) :effect (not (p ?x)))"
            " (:action a :parameters (?x) :precondition (p ?x) :effect (not (p ?x))))"
        )
    assert any(d.code == "duplicate-name" for d in err.value.diagnostics)


def test_when_rejected_in_precondition():
    with pytest.raises(PddlError) as err:
        parse_domain(
            "(define (domain x) (:predicates (p ?a) (q ?a))"
            " (:action a :parameters (?x)"
            " :precondition (when (p ?x) (q ?x)) :effect (p ?x)))"
        )
    assert any(d.code == "unsupported-construct" for d in err.value.diagnostics)


def test_or_rejected_in_effect():
    with pytest.raises(PddlError) as err:
        parse_domain(
            "(define (domain x) (:predicates (p ?a) (q ?a))"
            " (:action a :parameters (?x) :precondition (p ?x)"
            " :effect (or (p ?x) (q ?x))))"
        )
    assert any(d.code == "unsupported-construct" for d in err.value.diagnostics)


def test_diagnostics_carry_positions():
    bad = "(define (domain x)\n  (:requirements :strips)\n  (:functions (cost)))"
    with pytest.raises(PddlError) as err:
        parse_domain(bad)
    for diag in err.value.diagnostics:
        assert diag.line >= 1 and diag.col >= 1
    assert err.value.diagnostics[0].line == 3


def test_syntax_error_position():
    with pytest.raises(PddlError) as err:
        parse_domain("(define (domain x)\n  (:predicates (p ?a))")
    diag = err.value.diagnostics[0]
    assert diag.code == "syntax-error"
    assert (diag.line, diag.col) == (1, 1)  # the unclosed '('


@pytest.mark.parametrize(
    "text, position",
    [
        ("(define (domain x```y)\n  (:predicates (p)))", (1, 18)),
        ("(define (domain x)\n  (:predicates (p`)))", (2, 18)),
        ("(define (domain x) ; `quoted` names\n  (:predicates (`p)))", (2, 17)),
    ],
    ids=["domain-name", "predicate", "after-a-comment"],
)
def test_backtick_in_a_name_is_a_positioned_syntax_error(text, position):
    with pytest.raises(PddlError) as err:
        parse_domain(text)
    (diag,) = err.value.diagnostics
    assert diag.code == "syntax-error"
    assert (diag.line, diag.col) == position  # the first backtick


def _nested_precondition(levels: int) -> str:
    """A domain whose only precondition sits under `levels` nested nots;
    the whole text is levels + 3 lists deep."""
    pre = "(not " * levels + "(p)" + ")" * levels
    return (
        "(define (domain d) (:predicates (p))\n"
        f"  (:action a :parameters () :precondition {pre} :effect (p)))"
    )


def test_nesting_at_the_cap_parses():
    parse_domain(_nested_precondition(MAX_DEPTH - 3))


def test_nesting_past_the_cap_is_a_positioned_syntax_error():
    with pytest.raises(PddlError) as err:
        parse_domain(_nested_precondition(5000))
    (diag,) = err.value.diagnostics
    assert diag.code == "syntax-error"
    # define and action are levels 1 and 2, the k-th "(not " is level k + 2
    # and opens at column 43 + 5 * (k - 1); the one at level MAX_DEPTH + 1 fails
    assert (diag.line, diag.col) == (2, 43 + 5 * (MAX_DEPTH - 2))


def test_an_action_is_parsed_again_under_a_changed_header():
    action = "(:action a :parameters (?x) :precondition (p ?x) :effect (not (p ?x)))"
    forms: dict = {}
    parse_domain(f"(define (domain d) (:predicates (p ?x))\n  {action})", forms)
    with pytest.raises(PddlError) as err:
        parse_domain(f"(define (domain d) (:predicates (p))\n  {action})", forms)
    assert [(d.code, d.line, d.col) for d in err.value.diagnostics] == [
        ("arity-mismatch", 2, 45),
        ("arity-mismatch", 2, 65),
    ]


def test_a_remembered_action_repeated_is_a_positioned_duplicate():
    action = "(:action a :parameters () :precondition (p) :effect (p))"
    forms: dict = {}
    parse_domain(f"(define (domain d) (:predicates (p))\n  {action})", forms)
    with pytest.raises(PddlError) as err:
        parse_domain(f"(define (domain d) (:predicates (p))\n  {action}\n  {action})", forms)
    assert [(d.code, d.line, d.col) for d in err.value.diagnostics] == [("duplicate-name", 3, 3)]


# -- problems -------------------------------------------------------------


def test_parse_three_block_problem(flagship):
    assert len(flagship.objects) == 3
    assert Atom("arm-empty") in flagship.init
    assert isinstance(flagship.goal, And)


def test_goal_equal_to_init_accepted():
    problem = parse_problem(
        "(define (problem p) (:domain blocksworld) (:objects a)"
        " (:init (on-table a)) (:goal (and (on-table a))))"
    )
    assert problem.init == frozenset({Atom("on-table", ("a",))})


def test_zero_objects_empty_goal():
    problem = parse_problem(
        "(define (problem p) (:domain blocksworld) (:init) (:goal (and)))"
    )
    assert problem.objects == ()
    assert problem.goal == And()


def test_duplicate_object_rejected():
    with pytest.raises(PddlError) as err:
        parse_problem(
            "(define (problem p) (:domain d) (:objects a a) (:init) (:goal (and)))"
        )
    assert any(d.code == "duplicate-object" for d in err.value.diagnostics)


def test_non_ground_init_rejected():
    with pytest.raises(PddlError) as err:
        parse_problem(
            "(define (problem p) (:domain d) (:objects a) (:init (on ?x a)) (:goal (and)))"
        )
    assert any(d.code == "syntax-error" for d in err.value.diagnostics)


def test_free_goal_variable_rejected():
    with pytest.raises(PddlError) as err:
        parse_problem(
            "(define (problem p) (:domain d) (:objects a) (:init) (:goal (on ?x a)))"
        )
    assert any(d.code == "unbound-variable" for d in err.value.diagnostics)
