"""`ground` against the reference grounder in oracle_ground.py.

The two must return equal GroundedTasks (atom order, init, goal, action
order, preconditions and masks) on the corpus, the figure variants,
generated rule edits, tower and hanoi instances and random small typed
domains, and raise the same GroundingExplosion under tight caps. Each
input is grounded with a private cache of its own, and again through one
`RunCache` shared with the other problems of its domain and, for the rule
edits and the random families, with the other edits as a search run
shares it with its candidates. The shared cache must return and raise
exactly what a private one does.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomforge import corpus
from axiomforge.corpus import variants
from axiomforge.pddl import (
    ROOT_TYPE,
    ActionSchema,
    And,
    Atom,
    DomainAst,
    Eq,
    Forall,
    LinkedTask,
    Not,
    Or,
    PredicateDecl,
    ProblemAst,
    TypedName,
    When,
    link,
    parse_domain,
    parse_problem,
)
from axiomforge.planner import GroundingExplosion, RunCache, ground

from oracle_ground import oracle_ground
from test_pinned_plans import hanoi, tower_reversal


def _outcome(grounder, task, **caps):
    try:
        return grounder(task, **caps)
    except GroundingExplosion as err:
        return str(err)


def assert_same_grounding(task, cache=None):
    """`cache`, when given, is a RunCache that other tasks share."""
    assert ground(task, cache=cache) == oracle_ground(task)
    assert _outcome(ground, task, max_atoms=3, cache=cache) == _outcome(oracle_ground, task, max_atoms=3)
    # `ground` also counts the bindings it visits against max_actions, so it
    # raises wherever the oracle does, and may raise where the oracle does not.
    expected = _outcome(oracle_ground, task, max_actions=5)
    got = _outcome(ground, task, max_actions=5, cache=cache)
    assert got == _outcome(ground, task, max_actions=5)
    if isinstance(expected, str):
        assert isinstance(got, str) and got.startswith(expected)
    elif not isinstance(got, str):
        assert got == expected


# -- fixed cases ---------------------------------------------------------------


# `flip ?x ?x` both adds and deletes (on ?x) under its `when`, so it is
# dropped as contradictory.
TOGGLE = (
    "(define (domain toggle) (:requirements :strips :conditional-effects)"
    " (:predicates (on ?x) (lit ?x))"
    " (:action flip :parameters (?x ?y) :precondition (lit ?x)"
    " :effect (when (on ?x) (and (on ?y) (not (on ?x))))))",
    "(define (problem two) (:domain toggle) (:objects a b)"
    " (:init (lit a) (on a)) (:goal (on b)))",
)


def _corpus_cases():
    out = [("toggle:two", *TOGGLE)]
    for name in corpus.CORPUS_NAMES:
        entry = corpus.load(name)
        for prob in entry.problems:
            out.append((f"{name}:{prob.name}", entry.domain_text, prob.text))
    blocksworld = corpus.load("blocksworld")
    for label, text in (("multi-lift", variants.MULTI_LIFT), ("mid-extract", variants.MID_EXTRACT)):
        for prob in blocksworld.problems:
            out.append((f"{label}:{prob.name}", text, prob.text))
    for n in range(4, 9):
        out.append((f"tower-reversal-{n}", blocksworld.domain_text, tower_reversal(n)))
    for n in range(3, 8):
        out.append((f"hanoi-{n}", corpus.load("hanoi").domain_text, hanoi(n)))
    return out


CASES = _corpus_cases()


@pytest.mark.parametrize("domain_text, problem_text", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_ground_matches_oracle(domain_text, problem_text):
    assert_same_grounding(link(parse_domain(domain_text), parse_problem(problem_text)))


def assert_same_grounding_shared(domain, problems, cache=None):
    """Ground every problem through one cache: `cache`, or a new one."""
    cache = cache if cache is not None else RunCache()
    for problem in problems:
        assert_same_grounding(link(domain, problem), cache)


# The CASES grouped by domain text, each under the label of its first case.
FAMILIES: dict = {}
for _label, _domain_text, _problem_text in CASES:
    FAMILIES.setdefault(_domain_text, (_label.split(":")[0], []))[1].append(_problem_text)


@pytest.mark.parametrize(
    "domain_text, problem_texts", [(d, p) for d, (_, p) in FAMILIES.items()],
    ids=[label for label, _ in FAMILIES.values()],
)
def test_shared_compile_matches_oracle(domain_text, problem_texts):
    problems = [parse_problem(text) for text in problem_texts]
    assert_same_grounding_shared(parse_domain(domain_text), problems)


# One compile, two problems that differ where grounding reads the problem:
# the static 0-ary `powered` (a ground static precondition atom) holds in
# one init only, and the forall over `lamp` ranges over different objects.
SWITCHBOARD = (
    "(define (domain switchboard) (:requirements :strips :typing :conditional-effects)"
    " (:types lamp switch)"
    " (:predicates (powered) (wired ?s - switch ?l - lamp) (lit ?l - lamp) (done))"
    " (:action flip :parameters (?s - switch)"
    " :precondition (and (powered) (not (done)))"
    " :effect (and (done) (forall (?l - lamp) (when (wired ?s ?l) (lit ?l))))))"
)
SWITCHBOARD_PROBLEMS = (
    "(define (problem small) (:domain switchboard) (:objects s1 - switch l1 - lamp)"
    " (:init (powered) (wired s1 l1)) (:goal (forall (?l - lamp) (lit ?l))))",
    "(define (problem dark) (:domain switchboard) (:objects s1 - switch l1 l2 - lamp)"
    " (:init (wired s1 l1)) (:goal (lit l1)))",
    "(define (problem big) (:domain switchboard) (:objects s1 s2 - switch l1 l2 l3 - lamp)"
    " (:init (powered) (wired s1 l1) (wired s1 l3) (wired s2 l2))"
    " (:goal (forall (?l - lamp) (lit ?l))))",
)


def test_shared_compile_follows_each_problem():
    domain = parse_domain(SWITCHBOARD)
    tasks = [link(domain, parse_problem(text)) for text in SWITCHBOARD_PROBLEMS]
    cache = RunCache()
    small, dark, big = (ground(task, cache=cache) for task in tasks)
    assert [len(t.actions) for t in (small, dark, big)] == [1, 0, 2]
    # flip s1 adds (done) and (lit ?l) for each lamp wired to s1.
    assert [bin(t.actions[0].add_mask).count("1") for t in (small, big)] == [2, 3]
    assert_same_grounding_shared(domain, [task.problem for task in tasks], cache)
    # An equal domain parsed again shares the cache's work too.
    assert_same_grounding_shared(parse_domain(SWITCHBOARD), [task.problem for task in tasks], cache)


def test_a_cached_binding_charges_its_visits_again():
    """Every cap below what the big problem visits raises at the same point
    through a cache that already holds its bindings and goal, the forall
    in flip's effect and in the goal included."""
    domain = parse_domain(SWITCHBOARD)
    task = link(domain, parse_problem(SWITCHBOARD_PROBLEMS[2]))
    cache = RunCache()
    ground(task, cache=cache)
    outcomes = [_outcome(ground, task, max_actions=cap) for cap in range(16)]
    assert isinstance(outcomes[0], str) and not isinstance(outcomes[-1], str)
    assert [_outcome(ground, task, max_actions=cap, cache=cache) for cap in range(16)] == outcomes


# `drive` joins on the static `road`, and `pave` makes it fluent. `alarm`,
# placed before `drive`, interns a new atom ahead of what `drive` adds, so
# the index of every atom `drive` adds moves.
ROADS = (
    "(define (domain roads) (:requirements :strips)"
    " (:predicates (at ?x) (road ?x ?y) (rang)){first}"
    " (:action drive :parameters (?x ?y) :precondition (and (at ?x) (road ?x ?y))"
    " :effect (and (at ?y) (not (at ?x)))){last})"
)
UNEDITED = {"first": "", "last": ""}
ALARM = {"first": " (:action alarm :parameters (?x) :precondition (at ?x) :effect (rang))"}
PAVE = {"last": " (:action pave :parameters (?x ?y) :precondition (at ?x) :effect (road ?x ?y))"}
ROADS_PROBLEM = (
    "(define (problem trip) (:domain roads) (:objects a b c)"
    " (:init (at a) (road a b)) (:goal (at c)))"
)


@pytest.mark.parametrize("edit", [PAVE, ALARM, PAVE | ALARM], ids=["fluent-road", "new-atom", "both"])
def test_a_cache_follows_an_edit_to_another_action(edit):
    """An edit elsewhere in the domain can make a predicate that `drive`
    reads fluent, or move the index of every atom `drive` lowers to; the
    cached compile, bindings and lowering of `drive` must not be reused."""
    problem = parse_problem(ROADS_PROBLEM)
    cache = RunCache()
    before = link(parse_domain(ROADS.format_map(UNEDITED)), problem)
    after = link(parse_domain(ROADS.format_map(UNEDITED | edit)), problem)
    assert_same_grounding(before, cache)
    assert_same_grounding(after, cache)
    assert ground(after, cache=cache) != ground(before)
    assert_same_grounding(before, cache)


# -- rule edits ----------------------------------------------------------------


def _mentions(f, var):
    if isinstance(f, Atom):
        return var in f.args
    if isinstance(f, Eq):
        return var in (f.left, f.right)
    if isinstance(f, (Not, Forall)):
        return _mentions(f.body, var)
    if isinstance(f, (And, Or)):
        return any(_mentions(p, var) for p in f.parts)
    if isinstance(f, When):
        return _mentions(f.condition, var) or _mentions(f.effect, var)
    raise TypeError(f"not a formula: {f!r}")


def _without(f, var):
    parts = f.parts if isinstance(f, And) else (f,)
    return And(tuple(p for p in parts if not _mentions(p, var)))


def rule_edits(domain):
    """Each domain with one precondition part dropped, and each domain plus
    a copy of one action without its last parameter: once without the
    top-level conjuncts that mention it, once with that variable left
    unbound, which both grounders read as a name."""
    edits = []
    for i, action in enumerate(domain.actions):
        pre = action.precondition
        if isinstance(pre, And):
            for j in range(len(pre.parts)):
                dropped = replace(action, precondition=And(pre.parts[:j] + pre.parts[j + 1 :]))
                actions = domain.actions[:i] + (dropped,) + domain.actions[i + 1 :]
                edits.append(replace(domain, actions=actions))
        if action.params:
            var = action.params[-1].name
            lite = ActionSchema(
                f"{action.name}-lite",
                action.params[:-1],
                _without(pre, var),
                _without(action.effect, var),
            )
            edits.append(replace(domain, actions=domain.actions + (lite,)))
            free = replace(action, name=f"{action.name}-free", params=action.params[:-1])
            edits.append(replace(domain, actions=domain.actions + (free,)))
    return edits


EDIT_TASKS = [
    (name, index, edit, corpus.load(name).flagship.text)
    for name in corpus.CORPUS_NAMES
    for index, edit in enumerate(rule_edits(parse_domain(corpus.load(name).domain_text)))
]


@pytest.mark.parametrize(
    "edit, problem_text",
    [t[2:] for t in EDIT_TASKS],
    ids=[f"{t[0]}-{t[1]}" for t in EDIT_TASKS],
)
def test_ground_matches_oracle_on_rule_edits(edit, problem_text):
    assert_same_grounding(link(edit, parse_problem(problem_text)))


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_shared_compile_matches_oracle_on_rule_edits(name):
    entry = corpus.load(name)
    problems = [parse_problem(p.text) for p in entry.problems]
    domain = parse_domain(entry.domain_text)
    cache = RunCache()
    for edit in [domain, *rule_edits(domain), domain]:
        assert_same_grounding_shared(edit, problems, cache)


def test_one_cache_serves_every_rule_edit_of_every_corpus_domain():
    cache = RunCache()
    for name in corpus.CORPUS_NAMES:
        entry = corpus.load(name)
        problems = [parse_problem(p.text) for p in entry.problems]
        for edit in rule_edits(parse_domain(entry.domain_text)):
            assert_same_grounding_shared(edit, problems, cache)


# -- random small typed domains ------------------------------------------------

TYPES = (ROOT_TYPE, "t1", "t2", "t3")
_type_refs = st.one_of(
    st.sampled_from(TYPES), st.lists(st.sampled_from(TYPES), min_size=2, max_size=2).map(tuple)
)


def _condition(draw, preds, terms, depth):
    kinds = ["atom", "atom", "not", "eq"] + (["and", "or", "forall"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        name, arity = draw(st.sampled_from(preds))
        return Atom(name, tuple(draw(st.sampled_from(terms)) for _ in range(arity)))
    if kind == "eq":
        return Eq(draw(st.sampled_from(terms)), draw(st.sampled_from(terms)))
    if kind == "not":
        return Not(_condition(draw, preds, terms, depth + 1))
    if kind == "forall":
        variables = _variables(draw)
        return Forall(variables, _condition(draw, preds, terms + [v.name for v in variables], depth + 1))
    parts = tuple(
        _condition(draw, preds, terms, depth + 1) for _ in range(draw(st.integers(0, 3)))
    )
    return And(parts) if kind == "and" else Or(parts)


def _effect(draw, preds, fluents, terms, depth, in_when=False):
    kinds = ["add", "add", "del"] + (["and", "forall"] if depth < 3 else [])
    kinds += ["when"] if depth < 2 and not in_when else []
    kind = draw(st.sampled_from(kinds))
    if kind in ("add", "del"):
        name, arity = draw(st.sampled_from(fluents))
        atom = Atom(name, tuple(draw(st.sampled_from(terms)) for _ in range(arity)))
        return atom if kind == "add" else Not(atom)
    if kind == "forall":
        variables = _variables(draw)
        inner = terms + [v.name for v in variables]
        return Forall(variables, _effect(draw, preds, fluents, inner, depth + 1, in_when))
    if kind == "when":
        return When(
            _condition(draw, preds, terms, depth + 1),
            _effect(draw, preds, fluents, terms, depth + 1, in_when=True),
        )
    return And(tuple(
        _effect(draw, preds, fluents, terms, depth + 1, in_when) for _ in range(draw(st.integers(0, 3)))
    ))


def _variables(draw):
    # Names may repeat a parameter's, which the forall then shadows.
    names = draw(st.lists(st.sampled_from(["?a", "?b", "?f", "?g"]), min_size=1, max_size=2, unique=True))
    return tuple(TypedName(name, draw(_type_refs)) for name in names)


@st.composite
def typed_tasks(draw):
    types = (
        TypedName("t1", ROOT_TYPE),
        TypedName("t2", draw(st.sampled_from([ROOT_TYPE, "t1"]))),
        TypedName("t3", draw(st.sampled_from([ROOT_TYPE, "t1", "t2"]))),
    )
    constants = tuple(TypedName(f"c{i}", draw(_type_refs)) for i in range(draw(st.integers(1, 2))))
    objects = tuple(TypedName(f"o{i}", draw(_type_refs)) for i in range(draw(st.integers(0, 3))))
    preds = [(f"p{i}", draw(st.integers(0, 2))) for i in range(draw(st.integers(2, 4)))]
    # Predicates outside `fluents` are static: no effect mentions them.
    fluents = draw(st.lists(st.sampled_from(preds), min_size=1, max_size=len(preds), unique=True))
    actions = []
    for index in range(draw(st.integers(1, 3))):
        params = tuple(
            TypedName(f"?{'abc'[i]}", draw(_type_refs)) for i in range(draw(st.integers(0, 3)))
        )
        terms = [p.name for p in params] + [c.name for c in constants]
        if draw(st.booleans()):
            parts = [_condition(draw, preds, terms, 1) for _ in range(draw(st.integers(0, 4)))]
            pre = And(tuple(parts))
        else:
            pre = _condition(draw, preds, terms, 0)
        effect = And(tuple(
            _effect(draw, preds, fluents, terms, 1) for _ in range(draw(st.integers(1, 3)))
        ))
        actions.append(ActionSchema(f"act{index}", params, pre, effect))
    domain = DomainAst(
        name="random",
        requirements=frozenset(),
        types=types,
        constants=constants,
        predicates=tuple(
            PredicateDecl(name, tuple(TypedName(f"?x{i}") for i in range(arity)))
            for name, arity in preds
        ),
        actions=tuple(actions),
    )
    return LinkedTask(domain, _problem(draw, domain, objects))


def _problem(draw, domain, objects):
    """A problem over `objects`: random init facts and a random goal."""
    preds = [(p.name, len(p.params)) for p in domain.predicates]
    names = [c.name for c in domain.constants] + [o.name for o in objects]
    facts = [Atom(name, (a, b)[:arity]) for name, arity in preds for a in names for b in names]
    init = frozenset(draw(st.lists(st.sampled_from(sorted(set(facts), key=str)), max_size=8)))
    goal = _condition(draw, preds, names, 0)
    return ProblemAst("random-problem", "random", objects, init, goal)


@given(typed_tasks())
@settings(max_examples=200, deadline=None)
def test_ground_matches_oracle_on_random_typed_domains(task):
    assert_same_grounding(task)


@st.composite
def typed_families(draw):
    """A random typed domain and three problems of it, with their own
    objects, init facts and goals."""
    task = draw(typed_tasks())
    problems = [task.problem]
    for _ in range(2):
        objects = tuple(TypedName(f"o{i}", draw(_type_refs)) for i in range(draw(st.integers(0, 3))))
        problems.append(_problem(draw, task.domain, objects))
    return task.domain, problems


@given(typed_families())
@settings(max_examples=100, deadline=None)
def test_shared_compile_matches_oracle_on_random_typed_domains(family):
    """One cache for the family's domain and its rule edits, as a run
    shares it with its candidates."""
    domain, problems = family
    cache = RunCache()
    for edit in [domain, *rule_edits(domain)[:6]]:
        assert_same_grounding_shared(edit, problems, cache)
