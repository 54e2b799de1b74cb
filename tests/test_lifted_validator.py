"""`validate_lifted` against `validate_plan` on `ground`'s actions.

The lifted check reads only the ASTs, so it is compared with the ground
replay on the corpus rule edits, on random small typed domains (foralls,
`when`s, `either` types, `=`) and their rule edits, and on such domains with
actions redrawn so that walks apply many `when`s: every plan `solve`
returns validates lifted, a step sequence gets the verdict the ground
replay gives, statically dropped and contradictory bindings included, and
a plan with one step swapped fails at the index `validate_plan` names.
Each task's cases also run through one shared `RunCache`, twice each, and
grounding through that cache afterwards gives what a fresh `ground` gives.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomforge import corpus
from axiomforge.pddl import (
    ActionSchema,
    And,
    Atom,
    Eq,
    Forall,
    LinkedTask,
    Not,
    TypedName,
    When,
    link,
    parse_domain,
    parse_problem,
)
from axiomforge.planner import Plan, RunCache, SearchLimits, apply, ground, solve, validate_lifted, validate_plan

from test_ground_oracle import EDIT_TASKS, _outcome, rule_edits, typed_tasks
from test_pinned_plans import hanoi, tower_reversal

# Random tasks can have large state spaces; a plan found within this many
# expanded states is still checked, and a search past it checks nothing.
LIMITS = SearchLimits(max_expanded_states=2000)


def _ground_actions(grounded, steps):
    """The actions of `grounded` that `steps`, (name, args) pairs, name, up
    to the first step it has none for."""
    by_key = {(a.name, a.args): a for a in grounded.actions}
    assert len(by_key) == len(grounded.actions)
    actions = []
    for step in steps:
        if step not in by_key:
            break
        actions.append(by_key[step])
    return actions


def ground_verdict(grounded, steps):
    """What `validate_plan` says of `steps` as actions of `grounded`: None,
    or the first failing index. A step with no ground action fails where it
    stands, unless an earlier one fails first."""
    actions = _ground_actions(grounded, steps)
    ok, index = validate_plan(grounded, Plan(tuple(actions)))
    if len(actions) == len(steps):
        return None if ok else index
    return len(actions) if index is None else min(index, len(actions))


def _steps(plan):
    return tuple((a.name, a.args) for a in plan.steps)


def assert_agrees(task, grounded, steps, cache):
    """`validate_lifted` gives the ground verdict on `steps`, without a
    cache and through `cache` twice, first where the case may be new to it
    and then warm; and where every step applies, it reaches the ground
    replay's state: a goal that lists each atom of the universe, or its
    negation, as that state holds it, validates."""
    verdict = ground_verdict(grounded, steps)
    assert validate_lifted(task.domain, task.problem, steps) == verdict
    assert validate_lifted(task.domain, task.problem, steps, cache) == verdict
    assert validate_lifted(task.domain, task.problem, steps, cache) == verdict
    actions = _ground_actions(grounded, steps)
    if len(actions) == len(steps) and validate_plan(replace(grounded, goal=And()), Plan(tuple(actions)))[0]:
        state = grounded.init
        for action in actions:
            state = apply(state, action)
        goal = And(tuple(atom if state >> i & 1 else Not(atom) for i, atom in enumerate(grounded.atoms)))
        assert validate_lifted(task.domain, replace(task.problem, goal=goal), steps, cache) is None


def assert_cache_grounds_as_fresh(task, cache):
    """Grounding through `cache`, which replays filled, gives what a fresh
    `ground` gives, explosions included."""
    for caps in ({}, {"max_atoms": 3}, {"max_actions": 5}):
        assert _outcome(ground, task, cache=cache, **caps) == _outcome(ground, task, **caps)


def assert_plans_validate(task, swaps):
    """The plan `solve` finds for `task`, if any, validates lifted, and so
    does each (index, step) swap in `swaps` exactly where the ground replay
    says."""
    grounded = ground(task)
    result = solve(grounded, LIMITS)
    if not isinstance(result, Plan):
        return
    steps = _steps(result)
    cache = RunCache()
    assert validate_lifted(task.domain, task.problem, steps) is None
    assert validate_lifted(task.domain, task.problem, steps, cache) is None
    for index, step in swaps(grounded, steps):
        assert_agrees(task, grounded, steps[:index] + (step,) + steps[index + 1 :], cache)
    assert_cache_grounds_as_fresh(task, cache)


# -- fixed cases ---------------------------------------------------------------


def _ground_steps_at_each_index(grounded, steps):
    """Each of the first few ground actions, which keep the corpus cases
    fast, in place of each step."""
    return [(i, (a.name, a.args)) for i in range(len(steps)) for a in grounded.actions[:8]]


def _corpus_tasks():
    out = []
    for name in corpus.CORPUS_NAMES:
        entry = corpus.load(name)
        for prob in entry.problems:
            out.append((f"{name}:{prob.name}", entry.domain_text, prob.text))
    blocksworld = corpus.load("blocksworld").domain_text
    out += [(f"tower-reversal-{n}", blocksworld, tower_reversal(n)) for n in (4, 6)]
    out += [(f"hanoi-{n}", corpus.load("hanoi").domain_text, hanoi(n)) for n in (3, 4)]
    return out


CORPUS_TASKS = _corpus_tasks()


@pytest.mark.parametrize(
    "domain_text, problem_text", [c[1:] for c in CORPUS_TASKS], ids=[c[0] for c in CORPUS_TASKS]
)
def test_corpus_plans_validate_lifted(domain_text, problem_text):
    task = link(parse_domain(domain_text), parse_problem(problem_text))
    assert_plans_validate(task, _ground_steps_at_each_index)


@pytest.mark.parametrize(
    "edit, problem_text", [t[2:] for t in EDIT_TASKS], ids=[f"{t[0]}-{t[1]}" for t in EDIT_TASKS]
)
def test_rule_edit_plans_validate_lifted(edit, problem_text):
    task = link(edit, parse_problem(problem_text))
    assert_plans_validate(task, _ground_steps_at_each_index)


def test_a_truncated_plan_fails_at_the_goal():
    entry = corpus.load("blocksworld")
    task = link(parse_domain(entry.domain_text), parse_problem(entry.flagship.text))
    steps = _steps(solve(ground(task)))
    assert validate_lifted(task.domain, task.problem, steps[:-1]) == len(steps) - 1
    assert validate_lifted(task.domain, task.problem, ()) == 0


@pytest.mark.parametrize("step", [
    ("pickup", ("c",)),  # c is on b, not on the table
    ("pickup", ("a", "b")),  # no schema of that arity
    ("fly", ("a",)),  # no schema of that name
    ("pickup", ("zz",)),  # not an object
])
def test_a_first_step_that_does_not_apply_fails_at_zero(step):
    entry = corpus.load("blocksworld")
    task = link(parse_domain(entry.domain_text), parse_problem(entry.flagship.text))
    grounded = ground(task)
    steps = (step,) + _steps(solve(grounded))
    assert validate_lifted(task.domain, task.problem, steps) == ground_verdict(grounded, steps) == 0


# Small tasks, each with steps whose verdict turns on one rule of grounding.
FIXED = {
    # `flip ?x ?x` both adds and deletes `(on ?x)` under its `when`, so
    # grounding drops it. `spin ?x ?y` where ?x and ?y differ has its
    # contradictory `when` decided false by the static `=`, so it is kept.
    "toggle": (
        "(define (domain toggle) (:requirements :strips :conditional-effects :equality)"
        " (:predicates (on ?x) (lit ?x))"
        " (:action flip :parameters (?x ?y) :precondition (lit ?x)"
        " :effect (when (on ?x) (and (on ?y) (not (on ?x)))))"
        " (:action spin :parameters (?x ?y) :precondition (lit ?x)"
        " :effect (and (on ?y) (when (= ?x ?y) (and (lit ?y) (not (lit ?y)))))))",
        "(define (problem two) (:domain toggle) (:objects a b)"
        " (:init (lit a) (on a)) (:goal (on b)))",
    ),
    # `pass ?x ?y` moves `on` along a static wire. Its first `when` reads
    # `(on ?x)`, which the unconditional effect deletes, so it fires on the
    # pre-state. Its second `when` has its static part true and `(lit ?x)`
    # false, so it neither fires nor becomes unconditional. `c` is wired
    # from `a` but is no node.
    "relay": (
        "(define (domain relay) (:requirements :strips :typing :conditional-effects)"
        " (:types node) (:predicates (on ?x) (lit ?x) (wire ?x ?y))"
        " (:action pass :parameters (?x ?y - node) :precondition (wire ?x ?y)"
        " :effect (and (not (on ?x)) (when (on ?x) (on ?y)) (when (and (wire ?x ?y) (lit ?x)) (lit ?y)))))",
        "(define (problem line) (:domain relay) (:objects a b - node c)"
        " (:init (on a) (wire a b) (wire a c)) (:goal (and (on b) (not (lit b)) (not (on a)))))",
    ),
    # `finish` needs every object clean, and `a`, the first, already is.
    "sweep": (
        "(define (domain sweep) (:requirements :strips :universal-preconditions)"
        " (:predicates (dirty ?x) (done))"
        " (:action finish :parameters () :precondition (forall (?x) (not (dirty ?x))) :effect (done))"
        " (:action clean :parameters (?x) :precondition (dirty ?x) :effect (not (dirty ?x))))",
        "(define (problem two) (:domain sweep) (:objects a b) (:init (dirty b)) (:goal (done)))",
    ),
}


@pytest.mark.parametrize("name, steps, index", [
    ("toggle", (("flip", ("a", "a")),), 0),
    ("toggle", (("flip", ("a", "b")),), None),
    ("toggle", (("spin", ("a", "a")),), 0),
    ("toggle", (("spin", ("a", "b")),), None),
    ("relay", (("pass", ("a", "b")),), None),
    ("relay", (("pass", ("a", "c")),), 0),
    ("relay", (("pass", ("a", "b")), ("pass", ("a", "b"))), None),
    ("relay", (("pass", ("b", "a")),), 0),
    ("sweep", (("finish", ()),), 0),
    ("sweep", (("clean", ("b",)), ("finish", ())), None),
])
def test_fixed_steps_get_the_ground_verdict(name, steps, index):
    task = link(parse_domain(FIXED[name][0]), parse_problem(FIXED[name][1]))
    assert validate_lifted(task.domain, task.problem, steps) == ground_verdict(ground(task), steps) == index


# -- random typed domains --------------------------------------------------------


def _names(task):
    return [c.name for c in task.domain.constants] + [o.name for o in task.problem.objects]


@st.composite
def _any_step(draw, task, grounded):
    """A ground action of `grounded`, or any binding of a schema over every
    name, arity slips included: such a binding may be ill-typed, statically
    false or contradictory, and then grounding has no action for it."""
    if grounded.actions and draw(st.booleans()):
        action = draw(st.sampled_from(grounded.actions))
        return action.name, action.args
    schema = draw(st.sampled_from(task.domain.actions))
    arity = len(schema.params) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    names = _names(task)
    args = tuple(draw(st.sampled_from(names)) for _ in range(max(arity, 0))) if names else ()
    return schema.name, args


def _relaxed(domain):
    """`domain` with each precondition cut down to its top-level foralls, so
    that most bindings apply and their effects and foralls are exercised."""
    def foralls(pre):
        return And(tuple(p for p in (pre.parts if isinstance(pre, And) else (pre,)) if isinstance(p, Forall)))

    return replace(domain, actions=tuple(replace(a, precondition=foralls(a.precondition)) for a in domain.actions))


@st.composite
def _edited_tasks(draw):
    """A random typed task, the task under one of its rule edits, or under
    its relaxed rules."""
    task = draw(typed_tasks())
    kind = draw(st.sampled_from(["drawn", "relaxed", "edited"]))
    if kind == "relaxed":
        return LinkedTask(_relaxed(task.domain), task.problem)
    edits = rule_edits(task.domain)
    if kind == "edited" and edits:
        return LinkedTask(draw(st.sampled_from(edits)), task.problem)
    return task


@st.composite
def _walks(draw, task, grounded):
    """Up to six steps, each mostly a ground action applicable where the
    ground replay stands, so that sequences go deep, and else any step."""
    state = grounded.init
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        applicable = [a for a in grounded.actions if a.applicable(state)]
        if applicable and draw(st.integers(0, 3)):
            action = draw(st.sampled_from(applicable))
            state = apply(state, action)
            steps.append((action.name, action.args))
        else:
            steps.append(draw(_any_step(task, grounded)))
    return tuple(steps)


def assert_walk_agrees(task, data):
    """A drawn walk agrees with the ground replay, and so does each prefix
    of its longest valid prefix followed by any binding of any schema over
    every name."""
    grounded = ground(task)
    steps = data.draw(_walks(task, grounded))
    cache = RunCache()
    assert_agrees(task, grounded, steps, cache)
    index = validate_lifted(task.domain, task.problem, steps)
    prefix = steps[: len(steps) if index is None else index]
    names = _names(task)
    for k in range(len(prefix) + 1):
        for schema in task.domain.actions:
            for args in itertools.product(names, repeat=len(schema.params)):
                assert_agrees(task, grounded, prefix[:k] + ((schema.name, args),), cache)
    assert_cache_grounds_as_fresh(task, cache)


@given(_edited_tasks(), st.data())
@settings(max_examples=300, deadline=None)
def test_random_step_sequences_get_the_ground_verdict(task, data):
    assert_walk_agrees(task, data)


def _literals(draw, preds, terms, low, high, eq=False):
    """`low` to `high` literals: atoms of `preds` over `terms`, their
    negations, and with `eq` also `=`s."""
    out = []
    for _ in range(draw(st.integers(low, high))):
        kind = draw(st.sampled_from(["atom", "not", "eq"] if eq else ["atom", "not"]))
        if kind == "eq":
            out.append(Eq(draw(st.sampled_from(terms)), draw(st.sampled_from(terms))))
        else:
            name, arity = draw(st.sampled_from(preds))
            atom = Atom(name, tuple(draw(st.sampled_from(terms)) for _ in range(arity)))
            out.append(atom if kind == "atom" else Not(atom))
    return tuple(out)


@st.composite
def _when_tasks(draw):
    """A random typed task with its actions redrawn so that walks apply many
    `when`s: a precondition is empty or one literal, which some binding
    meets on most initial states, and an effect is a few literals and
    `when`s. Each `when` reads a fluent, which the step's other effects may
    change, and may read a static atom or an `=` too."""
    task = draw(typed_tasks())
    preds = [(p.name, len(p.params)) for p in task.domain.predicates]
    fluents = draw(st.lists(st.sampled_from(preds), min_size=1, max_size=2, unique=True))
    actions = []
    for index in range(draw(st.integers(1, 2))):
        params = tuple(TypedName(f"?{'ab'[i]}") for i in range(draw(st.integers(0, 2))))
        terms = [p.name for p in params] + [c.name for c in task.domain.constants]
        parts = _literals(draw, fluents, terms, 1, 2)
        for _ in range(draw(st.integers(1, 2))):
            condition = _literals(draw, fluents, terms, 1, 1) + _literals(draw, preds, terms, 0, 1, eq=True)
            parts += (When(And(condition), And(_literals(draw, fluents, terms, 1, 2))),)
        pre = And(_literals(draw, preds, terms, 0, 1))
        actions.append(ActionSchema(f"act{index}", params, pre, And(parts)))
    return LinkedTask(replace(task.domain, actions=tuple(actions)), task.problem)


@given(_when_tasks(), st.data())
@settings(max_examples=100, deadline=None)
def test_random_when_walks_get_the_ground_verdict(task, data):
    assert_walk_agrees(task, data)


@given(_edited_tasks(), st.data())
@settings(max_examples=200, deadline=None)
def test_random_plans_validate_and_fail_where_swapped(task, data):
    def swaps(grounded, steps):
        if not steps:
            return []
        index = data.draw(st.integers(0, len(steps) - 1))
        return [(index, data.draw(_any_step(task, grounded)))]

    assert_plans_validate(task, swaps)


def test_a_forall_too_wide_to_enumerate_stops_the_check():
    """Past `ground`'s default binding cap, the lifted check reports the
    step it is at instead of enumerating on."""
    wide = parse_domain(
        "(define (domain wide) (:predicates (p ?x) (q))"
        " (:action a :parameters () :precondition (forall (?a ?b ?c ?d) (not (p ?a))) :effect (q)))"
    )
    objects = " ".join(f"o{i}" for i in range(30))  # 30^4 = 810,000 bindings
    problem = parse_problem(f"(define (problem w) (:domain wide) (:objects {objects}) (:init) (:goal (q)))")
    assert validate_lifted(wide, problem, (("a", ()),)) == 0
    small = replace(problem, objects=problem.objects[:3])
    assert validate_lifted(wide, small, (("a", ()),)) is None
