import gc
from dataclasses import replace

import pytest

from axiomforge import corpus
from axiomforge import planner as planner_module
from axiomforge.pddl import ROOT_TYPE, LinkedTask, PddlError, TypedName, link, parse_domain, parse_problem
from axiomforge.pddl import parser as parser_module
from axiomforge.pddl.ast import fits_type, type_ancestors
from axiomforge.planner import RunCache, ground

from test_ground_oracle import rule_edits


def _codes(err):
    return {d.code for d in err.value.diagnostics}


def test_link_flagship(blocksworld, flagship):
    task = link(blocksworld, flagship)
    assert isinstance(task, LinkedTask)
    assert task.domain is blocksworld and task.problem is flagship


@pytest.mark.parametrize("name", ["blocksworld", "casino", "logistics"])
def test_link_leaves_no_cyclic_garbage(name):
    entry = corpus.load(name)
    domain, problem = parse_domain(entry.domain_text), parse_problem(entry.flagship.text)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            link(domain, problem)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_goal_diagnostics_follow_goal_order(blocksworld):
    problem = parse_problem(
        "(define (problem p) (:domain blocksworld) (:objects a)"
        " (:init) (:goal (and (on a zz) (not (clear yy)) (or (= xx a) (holding ww)))))"
    )
    with pytest.raises(PddlError) as err:
        link(blocksworld, problem)
    assert [d.message.split("'")[1] for d in err.value.diagnostics] == ["zz", "yy", "xx", "ww"]


@pytest.mark.parametrize("name", ["casino", "logistics"])
def test_type_map_is_built_once_per_link_and_ground(monkeypatch, name):
    entry = corpus.load(name)
    domain, problem = parse_domain(entry.domain_text), parse_problem(entry.flagship.text)
    builds = []
    for module in (parser_module, planner_module):
        monkeypatch.setattr(module, "type_ancestors", lambda types: builds.append(1) or type_ancestors(types))
    task = link(domain, problem)
    assert len(builds) == 1
    assert ground(task).actions
    assert len(builds) == 2


def test_domain_name_mismatch():
    hanoi = parse_domain(corpus.load("hanoi").domain_text)
    problem = parse_problem(
        "(define (problem p) (:domain gripper) (:objects a) (:init) (:goal (and)))"
    )
    with pytest.raises(PddlError) as err:
        link(hanoi, problem)
    assert _codes(err) == {"domain-name-mismatch"}


def test_init_arity_mismatch(blocksworld):
    problem = parse_problem(
        "(define (problem p) (:domain blocksworld) (:objects a b c)"
        " (:init (on a b c)) (:goal (and)))"
    )
    with pytest.raises(PddlError) as err:
        link(blocksworld, problem)
    assert "arity-mismatch" in _codes(err)


def test_undeclared_predicate(blocksworld):
    problem = parse_problem(
        "(define (problem p) (:domain blocksworld) (:objects a)"
        " (:init (levitating a)) (:goal (and)))"
    )
    with pytest.raises(PddlError) as err:
        link(blocksworld, problem)
    assert "undeclared-predicate" in _codes(err)


def test_undeclared_object_in_goal(blocksworld):
    problem = parse_problem(
        "(define (problem p) (:domain blocksworld) (:objects a)"
        " (:init) (:goal (and (on a ghost))))"
    )
    with pytest.raises(PddlError) as err:
        link(blocksworld, problem)
    assert "undeclared-object" in _codes(err)


def test_object_type_must_exist():
    depot = parse_domain(corpus.load("depot").domain_text)
    problem = parse_problem(
        "(define (problem p) (:domain depot) (:objects x - spaceship)"
        " (:init) (:goal (and)))"
    )
    with pytest.raises(PddlError) as err:
        link(depot, problem)
    assert "type-error" in _codes(err)


def _depot_objects(objects):
    depot = parse_domain(corpus.load("depot").domain_text)
    problem = parse_problem(
        f"(define (problem p) (:domain depot) (:objects {objects}) (:init (at t d1)) (:goal (at t d2)))"
    )
    return depot, problem


@pytest.mark.parametrize(
    "objects, messages",
    [
        (
            "x - (either spaceship) y - spaceship t - truck d1 d2 - depot",
            ["object 'x' has unknown type 'spaceship'", "object 'y' has unknown type 'spaceship'"],
        ),
        (
            "x - (either truck spaceship) t - truck d1 d2 - depot",
            ["object 'x' has unknown type 'spaceship'"],
        ),
    ],
    ids=["either-and-plain", "one-unknown-member"],
)
def test_each_unknown_member_of_an_either_object_type_is_reported(objects, messages):
    with pytest.raises(PddlError) as err:
        link(*_depot_objects(objects))
    assert [(d.code, d.message, d.line, d.col) for d in err.value.diagnostics] == [
        ("type-error", message, 0, 0) for message in messages
    ]


def test_an_either_of_declared_types_links_and_grounds_as_object():
    # Every depot parameter is typed, so `x` (an `object`) fills no slot.
    # Driving from a depot to itself adds and deletes one atom, so it goes.
    task = ground(link(*_depot_objects("x - (either truck hoist) t - truck d1 d2 - depot")))
    assert [str(action) for action in task.actions] == ["(drive t d1 d2)", "(drive t d2 d1)"]


def test_argument_type_checked():
    depot = parse_domain(corpus.load("depot").domain_text)
    problem = parse_problem(
        "(define (problem p) (:domain depot) (:objects yard - depot arm - hoist)"
        " (:init (lifting yard arm)) (:goal (and)))"
    )
    with pytest.raises(PddlError) as err:
        link(depot, problem)
    assert "type-error" in _codes(err)


def test_an_undeclared_parent_type_is_implicit():
    # `zz` is never declared, as briefcase never declares `location`.
    domain = parse_domain(
        "(define (domain d) (:requirements :typing) (:types a - zz) (:predicates (p ?x - zz) (q ?x))"
        " (:action go :parameters (?x - zz) :precondition (p ?x) :effect (q ?x)))"
    )
    problem = parse_problem(
        "(define (problem i) (:domain d) (:objects o - a z - zz) (:init (p o) (p z)) (:goal (and (q o) (q z))))"
    )
    task = ground(link(domain, problem))
    assert [str(action) for action in task.actions] == ["(go o)", "(go z)"]


def test_subtypes_satisfy_supertypes():
    logistics = parse_domain(corpus.load("logistics").domain_text)
    problem = parse_problem(corpus.load("logistics").problem("air-freight").text)
    assert isinstance(link(logistics, problem), LinkedTask)  # airport counts as location


def test_object_colliding_with_constant():
    monkey = parse_domain(corpus.load("monkey").domain_text)
    problem = parse_problem(
        "(define (problem p) (:domain monkey) (:objects box p1)"
        " (:init (location p1)) (:goal (and)))"
    )
    with pytest.raises(PddlError) as err:
        link(monkey, problem)
    assert "duplicate-object" in _codes(err)


# -- the typing rule: a type fits itself, its chain of parents and `object` --


def _types(*pairs):
    return tuple(TypedName(name, parent) for name, parent in pairs)


# Each hand-built hierarchy, and the types each of its types fits besides `object`.
_CYCLES = {
    "two-types": (_types(("a", "b"), ("b", "a")), {"a": "ab", "b": "ab"}),
    "own-parent": (_types(("a", "a"), ("c", "a")), {"a": "a", "c": "ac"}),
}


@pytest.mark.parametrize("case", list(_CYCLES))
def test_type_ancestors_ends_on_a_hand_built_cycle(case):
    types, fits = _CYCLES[case]
    ancestors = type_ancestors(types)
    assert ancestors == {ROOT_TYPE: {ROOT_TYPE}, **{name: {*sups, ROOT_TYPE} for name, sups in fits.items()}}
    # `zz` is no type, so each slot takes a type through its second member.
    for sub, sups in fits.items():
        assert all(fits_type(ancestors, sub, ("zz", sup)) for sup in sups)


def test_an_either_slot_takes_a_type_that_fits_any_member():
    ancestors = type_ancestors(_types(("a", "b"), ("b", ROOT_TYPE), ("c", ROOT_TYPE)))
    assert fits_type(ancestors, "a", ("c", "b"))
    assert fits_type(ancestors, "b", ("c", "b"))
    assert not fits_type(ancestors, "b", ("c", "a"))


def test_a_type_outside_the_map_fits_itself_and_object_only():
    ancestors = type_ancestors(_types(("a", "b")))
    assert "zz" not in ancestors
    assert fits_type(ancestors, "zz", "zz") and fits_type(ancestors, "zz", ROOT_TYPE)
    assert not fits_type(ancestors, "zz", "a") and not fits_type(ancestors, "zz", "b")
    assert fits_type(ancestors, "zz", ("b", "zz")) and fits_type(ancestors, "a", ("zz", "b"))


def test_an_either_parent_and_an_either_typed_object_count_as_object():
    """`x` is an `a`, whose parent is an either, and `y` is declared with an
    either type: both fit only `object` slots. `z` is a `b`, so it fits the
    either slot of `deep` through its parent `d`."""
    domain = parse_domain(
        "(define (domain d) (:requirements :typing) (:types a - (either b c) b - d c d)"
        " (:predicates (done ?x))"
        " (:action any :parameters (?x) :precondition (and) :effect (done ?x))"
        " (:action deep :parameters (?x - (either c d)) :precondition (and) :effect (done ?x))"
        " (:action narrow :parameters (?x - b) :precondition (and) :effect (done ?x)))"
    )
    problem = parse_problem(
        "(define (problem p) (:domain d) (:objects x - a y - (either b c) z - b) (:init) (:goal (and)))"
    )
    task = ground(link(domain, problem))
    assert [str(action) for action in task.actions] == ["(any x)", "(any y)", "(any z)", "(deep z)", "(narrow z)"]


def _link_outcome(linker, domain, problem):
    """The LinkedTask of a pass, checked to hold the very ASTs passed, or
    the diagnostics of a failure."""
    try:
        task = linker(domain, problem)
    except PddlError as err:
        return err.diagnostics
    assert task.domain is domain and task.problem is problem
    return task


def _link_edits(domain):
    """Every rule edit of `domain`, then the domain renamed, its first
    predicate given one more argument, and the first parameter of its first
    action with parameters given the undeclared type `ghost`."""
    first = domain.predicates[0]
    wider = replace(first, params=first.params + (TypedName("?extra"),))
    action = next(a for a in domain.actions if a.params)
    ghostly = replace(action, params=(replace(action.params[0], type="ghost"),) + action.params[1:])
    return [
        *rule_edits(domain),
        replace(domain, name=f"{domain.name}-renamed"),
        replace(domain, predicates=(wider,) + domain.predicates[1:]),
        replace(domain, actions=tuple(ghostly if a is action else a for a in domain.actions)),
    ]


def test_cached_link_matches_link():
    """One cache answers for every edit of every corpus domain, against
    every problem of the domain and the flagship with an object of type
    `ghost`, which links only once an action parameter names that type."""
    cache = RunCache()
    outcomes = set()
    for name in corpus.CORPUS_NAMES:
        entry = corpus.load(name)
        problems = [parse_problem(p.text) for p in entry.problems]
        flagship = problems[0]
        problems.append(replace(flagship, objects=flagship.objects + (TypedName("spook", "ghost"),)))
        domain = parse_domain(entry.domain_text)
        for edit in [domain, *_link_edits(domain)]:
            for problem in problems:
                expected = _link_outcome(link, edit, problem)
                assert _link_outcome(cache.link, edit, problem) == expected
                outcomes.add(type(expected))
    assert outcomes == {LinkedTask, tuple}
