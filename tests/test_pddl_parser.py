from unittest import mock

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
    print_canonical,
)
from axiomforge.pddl import parser as parser_module
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


# A section, keyword or name that may appear once, given twice, is reported
# at the repeat, and a `- TYPE` that follows no name at its `-`: neither is
# dropped in silence. Each row pins the code, the message and the position
# (line, column).
_ACTION = "(:action a :parameters (?x) :precondition (p ?x) :effect (q ?x))"
_REPEATS = {
    "types": (
        "(define (domain d) (:types a)\n  (:types b) (:predicates (p)))",
        "duplicate-name", "duplicate ':types'", (2, 3),
    ),
    "constants": (
        "(define (domain d) (:constants c)\n  (:constants e) (:predicates (p)))",
        "duplicate-name", "duplicate ':constants'", (2, 3),
    ),
    "parameters": (
        "(define (domain d) (:predicates (p ?x) (q ?x))\n  "
        + _ACTION.replace(":precondition", ":parameters (?y) :precondition") + ")",
        "duplicate-name", "duplicate ':parameters' in action 'a'", (2, 31),
    ),
    "precondition": (
        "(define (domain d) (:predicates (p ?x) (q ?x))\n  "
        + _ACTION.replace(":effect", ":precondition (q ?x) :effect") + ")",
        "duplicate-name", "duplicate ':precondition' in action 'a'", (2, 52),
    ),
    "effect": (
        "(define (domain d) (:predicates (p ?x) (q ?x))\n  " + _ACTION.replace("(q ?x))", "(q ?x) :effect (p ?x))") + ")",
        "duplicate-name", "duplicate ':effect' in action 'a'", (2, 67),
    ),
    "type-declared-twice": (
        "(define (domain d) (:types a - b\n  a - c b c) (:predicates (p)))",
        "duplicate-name", "duplicate type 'a'", (2, 3),
    ),
    "constant-declared-twice": (
        "(define (domain d) (:constants k - a\n  k - b) (:predicates (p)))",
        "duplicate-name", "duplicate constant 'k'", (2, 3),
    ),
    "predicate-declared-twice": (
        "(define (domain d) (:predicates (p) (q)\n  (p)))",
        "duplicate-name", "duplicate predicate 'p'", (2, 3),
    ),
    "predicate-declared-in-two-sections": (
        "(define (domain d) (:predicates (p))\n  (:predicates (q) (p)))",
        "duplicate-name", "duplicate predicate 'p'", (2, 20),
    ),
    "parameter-declared-twice": (
        "(define (domain d) (:predicates (p ?x) (q ?x))\n  " + _ACTION.replace("(?x)", "(?x ?x)", 1) + ")",
        "duplicate-name", "duplicate parameter '?x'", (2, 30),
    ),
    "predicate-parameter-declared-twice": (
        "(define (domain d) (:predicates (p ?x\n  ?x)))",
        "duplicate-name", "duplicate parameter '?x'", (2, 3),
    ),
    "forall-variable-in-precondition": (
        "(define (domain d) (:predicates (p ?x) (q ?x))\n  "
        "(:action a :parameters () :precondition (forall (?x ?x) (p ?x)) :effect (and)))",
        "duplicate-name", "duplicate variable '?x'", (2, 55),
    ),
    "forall-variable-in-effect": (
        "(define (domain d) (:predicates (p ?x) (q ?x))\n  "
        "(:action a :parameters () :effect (forall (?y ?x\n  ?y) (q ?y))))",
        "duplicate-name", "duplicate variable '?y'", (3, 3),
    ),
    "action-declared-twice": (
        "(define (domain d) (:predicates (p ?x) (q ?x))\n  " + _ACTION + "\n  " + _ACTION + ")",
        "duplicate-name", "duplicate action 'a'", (3, 3),
    ),
    "dash-in-types": (
        "(define (domain d) (:types a - b - c)\n  (:predicates (p)))",
        "syntax-error", "'-' follows no name in :types", (1, 34),
    ),
    "dash-in-parameters": (
        "(define (domain d) (:types t) (:predicates (p ?x - t) (q ?x))\n  "
        + _ACTION.replace("(?x)", "(- t ?x)") + ")",
        "syntax-error", "'-' follows no name in :parameters", (2, 27),
    ),
}


@pytest.mark.parametrize("whole", [False, True], ids=["form-by-form", "whole-text"])
@pytest.mark.parametrize("case", list(_REPEATS))
def test_a_repeat_or_an_orphan_dash_in_a_domain_is_a_positioned_diagnostic(case, whole):
    text, code, message, position = _REPEATS[case]
    split = (lambda text: None) if whole else parser_module.split_define
    with mock.patch.object(parser_module, "split_define", split), pytest.raises(PddlError) as err:
        parse_domain(text)
    assert [(d.code, d.message, (d.line, d.col)) for d in err.value.diagnostics] == [(code, message, position)]


# PDDL gives a type that is its own ancestor no meaning. The cycle is
# reported at its `:types` section.
_CYCLES = {
    "two-types": "(define (domain d)\n  (:types a - b b - a) (:predicates (p)))",
    "own-parent": "(define (domain d)\n  (:types c a - a) (:predicates (p)))",
}


@pytest.mark.parametrize("whole", [False, True], ids=["form-by-form", "whole-text"])
@pytest.mark.parametrize("case", list(_CYCLES))
def test_a_type_cycle_is_a_type_error_at_its_section(case, whole):
    split = (lambda text: None) if whole else parser_module.split_define
    with mock.patch.object(parser_module, "split_define", split), pytest.raises(PddlError) as err:
        parse_domain(_CYCLES[case])
    assert [(d.code, (d.line, d.col)) for d in err.value.diagnostics] == [("type-error", (2, 3))]


# A list where an action keyword should stand is one fault with one
# diagnostic; a keyword with nothing after it is still a dangling keyword.
_KEYWORD_FAULTS = {
    "list-for-keyword": ("(:action a :parameters () (p) :effect (p))", "expected action keyword", (2, 29)),
    "dangling-keyword": ("(:action a :parameters () :effect)", "dangling keyword in action 'a'", (2, 29)),
}


@pytest.mark.parametrize("whole", [False, True], ids=["form-by-form", "whole-text"])
@pytest.mark.parametrize("case", list(_KEYWORD_FAULTS))
def test_a_misplaced_action_keyword_gives_one_diagnostic(case, whole):
    action, message, position = _KEYWORD_FAULTS[case]
    split = (lambda text: None) if whole else parser_module.split_define
    text = f"(define (domain d) (:predicates (p))\n  {action})"
    with mock.patch.object(parser_module, "split_define", split), pytest.raises(PddlError) as err:
        parse_domain(text)
    assert [(d.code, d.message, (d.line, d.col)) for d in err.value.diagnostics] == [
        ("syntax-error", message, position)
    ]


# An action's `:parameters` binds its variables wherever it stands, and a
# malformed one is its only fault. A whole `:precondition` or `:effect`
# value `()` is PDDL 3.1's <emptyOr>, the empty conjunction; a `()` inside
# a formula is still an error. Each row pins every diagnostic's code,
# message and position; a text that parses prints as its last field does.
_EMPTY_ACTION = "(define (domain empty)\n  (:predicates (p))\n  (:action a :parameters ()))"
_ACTION_VALUES = {
    "parameters-after-precondition": (
        "(define (domain order)\n  (:predicates (p ?x))\n  (:action a :precondition (p ?x)\n"
        "    :parameters (?x) :effect (p ?x)))",
        [],
        "(define (domain order)\n  (:predicates (p ?x))\n  (:action a :parameters (?x)\n"
        "    :precondition (p ?x) :effect (p ?x)))",
    ),
    "parameters-not-a-list": (
        "(define (domain params)\n  (:predicates (p ?x))\n  (:action a :parameters ?x\n"
        "    :precondition (p ?x) :effect (p ?x)))",
        [("syntax-error", ":parameters expects a (...) list", (3, 26))],
        None,
    ),
    "empty-precondition-and-effect": (
        "(define (domain empty)\n  (:predicates (p))\n  (:action a :parameters () :precondition () :effect ()))",
        [],
        _EMPTY_ACTION,
    ),
    "empty-part-of-a-precondition": (
        "(define (domain empty)\n  (:predicates (p))\n  (:action a :parameters () :precondition (and (p) ())))",
        [("syntax-error", "expected a formula, got '()'", (3, 52))],
        None,
    ),
}


@pytest.mark.parametrize("whole", [False, True], ids=["form-by-form", "whole-text"])
@pytest.mark.parametrize("case", list(_ACTION_VALUES))
def test_an_action_reads_its_parameters_anywhere_and_an_empty_value_as_and(case, whole):
    text, expected, same_as = _ACTION_VALUES[case]
    split = (lambda text: None) if whole else parser_module.split_define
    with mock.patch.object(parser_module, "split_define", split):
        try:
            domain = parse_domain(text)
        except PddlError as err:
            assert [(d.code, d.message, (d.line, d.col)) for d in err.diagnostics] == expected
            return
    assert expected == []
    assert print_canonical(domain) == print_canonical(parse_domain(same_as))


def test_an_action_of_a_name_alone_reads_as_an_empty_action():
    domain = parse_domain("(define (domain bare) (:predicates (p)) (:action a))")
    assert print_canonical(domain) == (
        "(define (domain bare)\n  (:predicates\n    (p))\n"
        "  (:action a\n    :parameters ()\n    :precondition (and)\n    :effect (and)))\n"
    )


def test_an_empty_goal_list_is_still_a_positioned_syntax_error():
    with pytest.raises(PddlError) as err:
        parse_problem("(define (problem x) (:domain d) (:goal ()))")
    assert [(d.code, d.message, (d.line, d.col)) for d in err.value.diagnostics] == [
        ("syntax-error", "expected a formula, got '()'", (1, 40))
    ]


def test_repeated_requirements_and_predicates_still_merge():
    domain = parse_domain(
        "(define (domain d) (:requirements :strips) (:predicates (p))"
        " (:requirements :typing) (:predicates (q)))"
    )
    assert domain.requirements == {":strips", ":typing"}
    assert [p.name for p in domain.predicates] == ["p", "q"]


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


@pytest.mark.parametrize(
    "text, code, message, position",
    [
        (
            "(define (problem p) (:domain d)\n  (:domain e) (:init) (:goal (and)))",
            "duplicate-name", "duplicate ':domain'", (2, 3),
        ),
        (
            "(define (problem p) (:domain d) (:objects a)\n  (:objects b) (:init) (:goal (and)))",
            "duplicate-name", "duplicate ':objects'", (2, 3),
        ),
        (
            "(define (problem p) (:domain d) (:init) (:goal (and))\n  (:goal (and)))",
            "duplicate-name", "duplicate ':goal'", (2, 3),
        ),
        (
            "(define (problem p) (:domain d)\n  (:objects - t a) (:init) (:goal (and)))",
            "syntax-error", "'-' follows no name in :objects", (2, 13),
        ),
        (
            "(define (problem p) (:domain d) (:objects o\n o) (:init) (:goal (and)))",
            "duplicate-object", "duplicate object 'o'", (2, 2),
        ),
        (
            "(define (problem p) (:domain d) (:init)\n  (:goal (forall (?x ?x) (p ?x))))",
            "duplicate-name", "duplicate variable '?x'", (2, 22),
        ),
    ],
    ids=["domain", "objects", "goal", "dash-in-objects", "object-declared-twice", "forall-variable-in-goal"],
)
def test_a_repeat_or_an_orphan_dash_in_a_problem_is_a_positioned_diagnostic(text, code, message, position):
    with pytest.raises(PddlError) as err:
        parse_problem(text)
    assert [(d.code, d.message, (d.line, d.col)) for d in err.value.diagnostics] == [(code, message, position)]


_INIT_FAULTS = {
    "not-a-list": ("a", "syntax-error", "init entries must be ground atoms", (2, 3)),
    "empty-list": ("()", "syntax-error", "init entries must be ground atoms", (2, 3)),
    "list-head": ("((p) a)", "syntax-error", "init entries must be ground atoms", (2, 3)),
    "not": ("(not (p a))", "unsupported-construct", "'not' is not allowed in :init", (2, 3)),
    "equality": ("(= a a)", "unsupported-construct", "'=' is not allowed in :init", (2, 3)),
    "numeric": ("(increase (fuel a) 1)", "unsupported-construct", "'increase' is not allowed in :init", (2, 3)),
    "variable": ("(p a ?x)", "syntax-error", "init atom must be ground, found '?x'", (2, 8)),
    "list-argument": ("(p (a))", "syntax-error", "expected atom argument", (2, 6)),
}


@pytest.mark.parametrize("case", list(_INIT_FAULTS))
def test_a_bad_init_entry_is_one_positioned_diagnostic(case):
    entry, code, message, position = _INIT_FAULTS[case]
    text = f"(define (problem p) (:domain d) (:objects a) (:init (q a)\n  {entry} (q a)) (:goal (and)))"
    with pytest.raises(PddlError) as err:
        parse_problem(text)
    assert [(d.code, d.message, (d.line, d.col)) for d in err.value.diagnostics] == [(code, message, position)]


def test_repeated_init_sections_still_merge():
    problem = parse_problem("(define (problem p) (:domain d) (:objects a) (:init (p a)) (:init (q a)) (:goal (and)))")
    assert problem.init == frozenset({Atom("p", ("a",)), Atom("q", ("a",))})


# Reader diagnostics that no other input reaches, each pinned as (code,
# message, (line, col)). Each text puts its fault on line 2.
_DOMAIN = "(define (domain d) (:requirements :typing :conditional-effects :equality)\n  {} (:predicates (p ?x) (q)) {})"
_ACTION_WITH = "(:action a :parameters (?x) :precondition {} :effect {})"
_PROBLEM = "(define (problem p) (:domain d) (:objects a)\n  {} (:init) (:goal (and)))"
_READER_FAULTS = {
    "either-with-no-member": (
        _DOMAIN.format("(:constants k - (either))", ""),
        [("syntax-error", "(either ...) needs at least one type", (2, 19))],
    ),
    "type-expression": (
        _DOMAIN.format("(:constants k - (set t))", ""),
        [("unsupported-construct", "'set' is not a supported type expression", (2, 19))],
    ),
    "dash-at-the-end": (
        _DOMAIN.format("(:types t -)", ""),
        [("syntax-error", "type expected after '-' in :types", (2, 13))],
    ),
    "variable-for-a-name": (
        _DOMAIN.format("(:constants ?k)", ""),
        [("syntax-error", "name expected in :constants, got variable '?k'", (2, 15))],
    ),
    "not-over-a-non-atom-in-an-effect": (
        _DOMAIN.format("", _ACTION_WITH.format("(p ?x)", "(not (and (q)))")),
        [("unsupported-construct", "effects may negate atoms only", (2, 86))],
    ),
    "malformed-forall": (
        _DOMAIN.format("", _ACTION_WITH.format("(forall ?y (p ?y))", "(q)")),
        [("syntax-error", "'forall' takes (vars) and one body formula", (2, 71))],
    ),
    "nested-when": (
        _DOMAIN.format("", _ACTION_WITH.format("(p ?x)", "(when (q) (when (q) (q)))")),
        [("unsupported-construct", "'when' cannot nest inside another 'when'", (2, 96))],
    ),
    "when-of-one-part": (
        _DOMAIN.format("", _ACTION_WITH.format("(p ?x)", "(when (q))")),
        [("syntax-error", "'when' takes a condition and an effect", (2, 86))],
    ),
    "equality-in-an-effect": (
        _DOMAIN.format("", _ACTION_WITH.format("(p ?x)", "(= ?x ?x)")),
        [("unsupported-construct", "'=' is not allowed in effects", (2, 86))],
    ),
    "equality-of-one-argument": (
        _DOMAIN.format("", _ACTION_WITH.format("(= ?x)", "(q)")),
        [("syntax-error", "'=' takes exactly two arguments", (2, 71))],
    ),
    "list-as-an-equality-argument": (
        _DOMAIN.format("", _ACTION_WITH.format("(= ?x (q))", "(q)")),
        [("syntax-error", "expected '=' argument", (2, 77))],
    ),
    "action-with-no-name": (
        _DOMAIN.format("", "(:action)"),
        [("syntax-error", "expected (:action NAME ...)", (2, 29))],
    ),
    "malformed-domain-section": (
        _PROBLEM.replace("(:domain d) ", "").format("(:domain)"),
        [("syntax-error", "expected (:domain NAME)", (2, 3)),
         ("syntax-error", "problem is missing its (:domain ...) section", (1, 1))],
    ),
    "unsupported-problem-requirement": (
        _PROBLEM.format("(:requirements :strips :fluents)"),
        [("unsupported-construct", "requirement ':fluents' is not supported", (2, 26))],
    ),
}


@pytest.mark.parametrize("case", list(_READER_FAULTS))
def test_a_reader_fault_no_other_input_reaches_is_pinned(case):
    text, diagnostics = _READER_FAULTS[case]
    with pytest.raises(PddlError) as err:
        (parse_problem if text.startswith("(define (problem") else parse_domain)(text)
    assert [(d.code, d.message, (d.line, d.col)) for d in err.value.diagnostics] == diagnostics
