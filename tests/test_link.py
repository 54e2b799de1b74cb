import gc
from dataclasses import replace

import pytest

from axiomforge import corpus
from axiomforge.pddl import DomainAst, LinkedTask, PddlError, TypedName, link, parse_domain, parse_problem
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
    parent_types = DomainAst.parent_types
    monkeypatch.setattr(DomainAst, "parent_types", lambda self: builds.append(1) or parent_types(self))
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


def test_argument_type_checked():
    depot = parse_domain(corpus.load("depot").domain_text)
    problem = parse_problem(
        "(define (problem p) (:domain depot) (:objects yard - depot arm - hoist)"
        " (:init (lifting yard arm)) (:goal (and)))"
    )
    with pytest.raises(PddlError) as err:
        link(depot, problem)
    assert "type-error" in _codes(err)


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
