import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomforge import corpus
from axiomforge.pddl import And, Atom, Not, Or, link, parse_domain, parse_problem
from axiomforge.planner import (
    _CHUNK_BITS,
    GroundAction,
    GroundedTask,
    GroundingExplosion,
    Plan,
    PreconditionViolated,
    ResourceExceeded,
    SearchLimits,
    Unsolvable,
    apply,
    ground,
    solve,
    validate_plan,
)

from conftest import THOUSAND_WIDE
from oracle_bfs import oracle_plan, oracle_plan_length
from oracle_solve import oracle_solve
from test_pinned_plans import tower_reversal
from test_solve_oracle import _spread


def _task(domain_text, problem_text):
    return ground(link(parse_domain(domain_text), parse_problem(problem_text)))


@pytest.fixture(scope="module")
def flagship_task():
    entry = corpus.load("blocksworld")
    return _task(entry.domain_text, entry.flagship.text)


# -- grounding ------------------------------------------------------------


def test_blocksworld_ground_counts(flagship_task):
    counts = Counter(a.name for a in flagship_task.actions)
    assert counts == {"pickup": 3, "putdown": 3, "stack": 6, "unstack": 6}


def test_gripper_ground_counts():
    entry = corpus.load("gripper")
    task = _task(entry.domain_text, entry.problem("transport").text)
    counts = Counter(a.name for a in task.actions)
    assert counts == {"move": 2, "pick": 4, "drop": 4}
    assert len(task.actions) == 10


def test_equality_precondition_filters_grounding():
    entry = corpus.load("bulldozer")
    task = _task(entry.domain_text, entry.problem("walk").text)
    # (not (= ?from ?to)) rules out from == to at grounding time
    assert all(a.args[1] != a.args[2] for a in task.actions if a.name in ("drive", "cross"))


def test_hanoi_zero_discs_trivial():
    task = _task(
        corpus.load("hanoi").domain_text,
        "(define (problem empty) (:domain hanoi) (:objects p1 p2 p3)"
        " (:init (clear p1) (clear p2) (clear p3)) (:goal (and)))",
    )
    result = solve(task)
    assert isinstance(result, Plan) and result.length == 0


def test_grounding_explosion_cap():
    entry = corpus.load("blocksworld")
    linked = link(parse_domain(entry.domain_text), parse_problem(entry.flagship.text))
    with pytest.raises(GroundingExplosion):
        ground(linked, max_actions=5)
    with pytest.raises(GroundingExplosion):
        ground(linked, max_atoms=3)


# An oracle's text may name more parameters than Python's recursion limit;
# 1000 fit well within the candidate size cap.
def test_a_thousand_parameters_bind_without_recursion():
    params = " ".join(f"?v{i}" for i in range(1000))
    text = corpus.load("blocksworld").domain_text.rstrip()[:-1]
    domain = parse_domain(text + f"(:action hog :parameters ({params}) :precondition (and) :effect (clear ?v0)))")
    one_block = parse_problem(
        "(define (problem one) (:domain blocksworld) (:objects a)"
        " (:init (on-table a) (clear a) (arm-empty)) (:goal (holding a)))"
    )
    assert [a.args for a in ground(link(domain, one_block)).actions if a.name == "hog"] == [("a",) * 1000]
    with pytest.raises(GroundingExplosion):
        ground(link(domain, parse_problem(corpus.load("blocksworld").flagship.text)), max_actions=5000)


def test_a_thousand_wide_action_explodes_in_bounded_memory():
    # 3^1000 bindings over the flagship's blocks, each kept: a kept binding
    # is charged its 1000 parameters, so the default action cap trips after
    # about 200 of them, not 200,000.
    task = link(parse_domain(THOUSAND_WIDE), parse_problem(corpus.load("blocksworld").flagship.text))
    tracemalloc.start()
    try:
        with pytest.raises(GroundingExplosion):
            ground(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000


def test_add_delete_disjoint(flagship_task):
    for action in flagship_task.actions:
        assert action.add_mask & action.del_mask == 0
        for _, add, dele in action.conditional:
            assert add & dele == 0


def test_init_within_universe(flagship_task):
    assert flagship_task.init < (1 << len(flagship_task.atoms))


_CORPUS_PROBLEMS = [(name, prob.name) for name in corpus.CORPUS_NAMES for prob in corpus.load(name).problems]


@pytest.mark.parametrize("name, problem", _CORPUS_PROBLEMS, ids=[f"{n}:{p}" for n, p in _CORPUS_PROBLEMS])
def test_ground_formulas_are_and_or_not_over_atom_indices(name, problem):
    entry = corpus.load(name)
    task = ground(link(parse_domain(entry.domain_text), parse_problem(entry.problem(problem).text)))
    formulas = [task.goal]
    for action in task.actions:
        formulas += [action.precondition, *(cond for cond, _, _ in action.conditional)]
    while formulas:
        node = formulas.pop()
        if type(node) in (And, Or):
            formulas += node.parts
        elif type(node) is Not:
            formulas.append(node.body)
        else:
            assert type(node) is int and 0 <= node < len(task.atoms), node


# -- apply ------------------------------------------------------------------


def _state_from_atoms(task, atoms):
    mask = 0
    for atom in atoms:
        mask |= 1 << task.atoms.index(atom)
    return mask


def test_apply_pickup(flagship_task):
    task = flagship_task
    state = _state_from_atoms(
        task, [Atom("clear", ("a",)), Atom("on-table", ("a",)), Atom("arm-empty")]
    )
    pickup_a = next(a for a in task.actions if str(a) == "(pickup a)")
    result = apply(state, pickup_a)
    assert task.state_atoms(result) == [Atom("holding", ("a",))]


def test_apply_requires_precondition(flagship_task):
    task = flagship_task
    pickup_a = next(a for a in task.actions if str(a) == "(pickup a)")
    with pytest.raises(PreconditionViolated):
        apply(0, pickup_a)


def test_briefcase_conditional_move():
    entry = corpus.load("briefcase")
    task = _task(entry.domain_text, entry.problem("deliver").text)
    put_in = next(a for a in task.actions if str(a) == "(put-in doc home)")
    move = next(a for a in task.actions if str(a) == "(move home office)")
    state = apply(task.init, put_in)
    state = apply(state, move)
    atoms = set(task.state_atoms(state))
    assert Atom("at", ("doc", "office")) in atoms
    assert Atom("at", ("doc", "home")) not in atoms


def test_conditional_fires_on_pre_state():
    entry = corpus.load("briefcase")
    task = _task(entry.domain_text, entry.problem("deliver").text)
    move = next(a for a in task.actions if str(a) == "(move home office)")
    state = apply(task.init, move)  # doc not in briefcase: stays home
    atoms = set(task.state_atoms(state))
    assert Atom("at", ("doc", "home")) in atoms
    assert Atom("is-at", ("office",)) in atoms


def test_empty_effect_leaves_state_identical():
    task = _task(
        "(define (domain idle) (:requirements :strips) (:predicates (p ?x))"
        " (:action wait :parameters (?x) :precondition (p ?x) :effect (and)))",
        "(define (problem q) (:domain idle) (:objects a)"
        " (:init (p a)) (:goal (and (p a))))",
    )
    wait = task.actions[0]
    assert apply(task.init, wait) == task.init


def test_frame_property(flagship_task):
    task = flagship_task
    state = task.init
    pickup_a = next(a for a in task.actions if str(a) == "(pickup a)")
    touched = pickup_a.add_mask | pickup_a.del_mask
    result = apply(state, pickup_a)
    assert state & ~touched == result & ~touched


# -- solve ------------------------------------------------------------------


def test_flagship_optimum_six(flagship_task):
    result = solve(flagship_task)
    assert isinstance(result, Plan) and result.length == 6


def test_goal_in_init_empty_plan(flagship_task):
    entry = corpus.load("blocksworld")
    task = _task(
        entry.domain_text,
        "(define (problem done) (:domain blocksworld) (:objects a b c)"
        " (:init (on-table a) (on-table b) (on c b) (clear a) (clear c) (arm-empty))"
        " (:goal (and (on c b))))",
    )
    result = solve(task)
    assert isinstance(result, Plan) and result.steps == ()


def test_on_self_unsolvable():
    entry = corpus.load("blocksworld")
    task = _task(
        entry.domain_text,
        "(define (problem self) (:domain blocksworld) (:objects a b c)"
        " (:init (on-table a) (on-table b) (on c b) (clear a) (clear c) (arm-empty))"
        " (:goal (and (on a a))))",
    )
    assert isinstance(solve(task), Unsolvable)


def test_solve_plans_validate(flagship_task):
    result = solve(flagship_task)
    assert validate_plan(flagship_task, result) == (True, None)


def test_swapped_steps_fail_validation(flagship_task):
    plan = solve(flagship_task)
    steps = list(plan.steps)
    steps[1], steps[2] = steps[2], steps[1]
    ok, failed_at = validate_plan(flagship_task, Plan(tuple(steps)))
    assert not ok and failed_at == 1


def test_validate_goal_failure_index(flagship_task):
    plan = solve(flagship_task)
    truncated = Plan(plan.steps[:-1])
    ok, failed_at = validate_plan(flagship_task, truncated)
    assert not ok and failed_at == len(truncated.steps)


def test_empty_plan_on_satisfied_goal():
    entry = corpus.load("blocksworld")
    task = _task(
        entry.domain_text,
        "(define (problem done) (:domain blocksworld) (:objects a)"
        " (:init (on-table a) (clear a) (arm-empty)) (:goal (and (on-table a))))",
    )
    assert validate_plan(task, Plan(())) == (True, None)


def test_determinism(flagship_task):
    first = solve(flagship_task)
    second = solve(flagship_task)
    assert [str(s) for s in first.steps] == [str(s) for s in second.steps]


def test_expanded_state_limit(flagship_task):
    result = solve(flagship_task, SearchLimits(max_expanded_states=2))
    assert result == ResourceExceeded("max-expanded-states")


def test_plan_length_limit_reports_resource(flagship_task):
    result = solve(flagship_task, SearchLimits(max_plan_length=3))
    assert result == ResourceExceeded("max-plan-length")


def test_plan_length_cap_stops_at_the_layer_boundary(flagship_task):
    # With a 2-step cap only the initial state and its successors are
    # expanded. The layer 2 steps out is never counted, so its size cannot
    # turn the reason into "max-expanded-states".
    init = flagship_task.init
    successors = {apply(init, a) for a in flagship_task.actions if a.applicable(init)} - {init}
    below_cap = 1 + len(successors)
    assert below_cap == 3
    for max_states in range(1, below_cap + 10):
        result = solve(flagship_task, SearchLimits(max_expanded_states=max_states, max_plan_length=2))
        expected = "max-expanded-states" if max_states < below_cap else "max-plan-length"
        assert result == ResourceExceeded(expected)


def test_raising_limits_recovers_plan(flagship_task):
    tight = solve(flagship_task, SearchLimits(max_plan_length=3))
    assert isinstance(tight, ResourceExceeded)
    loose = solve(flagship_task, SearchLimits(max_plan_length=6))
    assert isinstance(loose, Plan) and loose.length == 6


def test_unsolvable_never_degrades_with_limits():
    entry = corpus.load("blocksworld")
    task = _task(
        entry.domain_text,
        "(define (problem self) (:domain blocksworld) (:objects a b)"
        " (:init (on-table a) (on-table b) (clear a) (clear b) (arm-empty))"
        " (:goal (and (on a a))))",
    )
    assert isinstance(solve(task, SearchLimits(max_plan_length=100)), Unsolvable)
    assert isinstance(solve(task, SearchLimits(max_plan_length=200)), Unsolvable)


def test_goal_folded_to_false_is_unsolvable_at_once():
    # No action adds (on b1 b1) and init lacks it, so the goal grounds to
    # false; the answer must not depend on how many states the cap allows.
    problem = tower_reversal(8).replace("(:goal (and", "(:goal (and (on b1 b1)")
    task = _task(corpus.load("blocksworld").domain_text, problem)
    assert task.goal == Or()
    assert solve(task, SearchLimits(max_expanded_states=1)) == Unsolvable()


def test_wall_budget(monkeypatch, flagship_task):
    ticks = iter([0.0] + [100.0] * 50)
    monkeypatch.setattr(time, "monotonic", lambda: next(ticks))
    result = solve(flagship_task, SearchLimits(wall_budget_ms=10))
    assert result == ResourceExceeded("wall-budget")


def test_successors_follow_action_index_order():
    # Both actions reach the goal in one step. a0 needs p1 and a1 needs p0,
    # so a generator that visits actions by the bits they need meets a1
    # first; the plan must still be the one a scan in action-index order finds.
    actions = (
        GroundAction("a0", (), 1, 0b100, 0b001, pre_masks=(0b010, 0)),
        GroundAction("a1", (), 0, 0b100, 0b010, pre_masks=(0b001, 0)),
    )
    task = GroundedTask(
        atoms=(Atom("p0"), Atom("p1"), Atom("p2")), init=0b011, goal=2, actions=actions
    )
    assert solve(task) == Plan((actions[0],))


# -- oracle agreement --------------------------------------------------------


def test_oracle_agreement_on_flagship(flagship_task):
    result = solve(flagship_task)
    assert oracle_plan_length(flagship_task) == result.length


# Random small tasks: at most 8 atoms and 12 actions, mixing literal,
# negative-only, empty and `or` preconditions, conditional effects, and
# literal and `or` goals.

MAX_ATOMS = 8
# Each atom's sign in a drawn mask pair is read off one base-len(signs)
# digit: 1 positive, -1 negative, 0 absent. Conditions are sparse, so they
# are often satisfied; goals and effects are dense.
SPARSE = (1, -1, 0, 0)
NEGATIVE = (-1, 0, 0, 0)
DENSE = (1, 1, -1, 0)


@st.composite
def _masks(draw, atoms, signs):
    """Two disjoint masks over `atoms` bits: (positive, negative)."""
    code = draw(st.integers(0, len(signs) ** atoms - 1))
    pos = neg = 0
    for i in range(atoms):
        code, digit = divmod(code, len(signs))
        pos |= (signs[digit] == 1) << i
        neg |= (signs[digit] == -1) << i
    return pos, neg


def _conjunction(pos, neg):
    parts = [i for i in range(MAX_ATOMS) if pos >> i & 1]
    parts += [Not(i) for i in range(MAX_ATOMS) if neg >> i & 1]
    return And(tuple(parts))


@st.composite
def _formula(draw, atoms, kinds, signs=SPARSE):
    """(formula, its literal masks or None) of one of `kinds`."""
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        return And(), (0, 0)
    if kind == "or":
        branches = draw(st.lists(_masks(atoms, signs), min_size=2, max_size=3))
        return Or(tuple(_conjunction(*m) for m in branches)), None
    pos, neg = draw(_masks(atoms, NEGATIVE if kind == "negative" else signs))
    return _conjunction(pos, neg), (pos, neg)


@st.composite
def _tasks(draw):
    atoms = draw(st.integers(1, MAX_ATOMS))
    actions = []
    for index in range(draw(st.integers(0, 12))):
        pre, pre_masks = draw(_formula(atoms, ("literal", "negative", "empty", "or")))
        add, dele = draw(_masks(atoms, DENSE))
        conditional = tuple(
            (draw(_formula(atoms, ("literal", "or")))[0], *draw(_masks(atoms, DENSE)))
            for _ in range(draw(st.integers(0, 2)))
        )
        actions.append(GroundAction(f"a{index}", (), pre, add, dele, conditional, pre_masks))
    return GroundedTask(
        atoms=tuple(Atom(f"p{i}") for i in range(atoms)),
        init=draw(st.integers(0, (1 << atoms) - 1)),
        goal=draw(_formula(atoms, ("literal", "or"), DENSE))[0],
        actions=tuple(actions),
    )


@given(_tasks())
@settings(max_examples=60, deadline=None)
def test_solve_matches_oracle_on_random_tasks(task):
    _assert_matches_oracle(task)


def _assert_matches_oracle(task):
    expected = oracle_plan(task)
    # 2^8 states bound every plan, so the length cap never truncates.
    limits = SearchLimits(max_plan_length=1 << MAX_ATOMS)
    result = solve(task, limits)
    if expected is None:
        assert isinstance(result, Unsolvable)
    else:
        assert isinstance(result, Plan) and result.length == len(expected)
        # The first shortest plan of a scan in action-index order, step for step.
        assert result.steps == tuple(task.actions[i] for i in expected)
        assert validate_plan(task, result) == (True, None)
    _assert_limits_match_oracle_solve(task, limits)


def _assert_limits_match_oracle_solve(task, limits):
    """`solve` equals `oracle_solve` under the expansion caps `_spread`
    picks, and under a clock that passes the deadline at each of its reads.
    The clock is patched inside the test body, as `monkeypatch` would not
    be undone between the examples of one `@given` test."""
    reads = 0

    def clock():
        nonlocal reads
        reads += 1
        return 0.0

    with mock.patch.object(time, "monotonic", clock):
        solve(task, limits)
    # One read sets the deadline; each expanded state reads once more.
    expanded = reads - 1
    for cap in _spread(expanded):
        capped = replace(limits, max_expanded_states=cap)
        assert solve(task, capped) == oracle_solve(task, capped), cap
    timed = replace(limits, wall_budget_ms=10)
    for k in _spread(expanded + 1):
        results = []
        for search in (solve, oracle_solve):
            ticks = iter([0.0] * k + [100.0] * (expanded + 2))
            with mock.patch.object(time, "monotonic", lambda: next(ticks)):
                results.append(search(task, timed))
        assert results[0] == results[1], k


# The same tasks with their atoms moved to scattered bits of a universe of
# 40 or more, so literals sit in several of `solve`'s chunks and on both
# sides of chunk edges, negative ones in high chunks too.

WIDE_ATOMS = 40


def _move_formula(f, where):
    if type(f) is int:
        return where[f]
    if isinstance(f, Not):
        return Not(_move_formula(f.body, where))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_move_formula(p, where) for p in f.parts))
    return f


def _move_mask(mask, where):
    return sum(1 << where[i] for i in range(MAX_ATOMS) if mask >> i & 1)


@st.composite
def _wide_tasks(draw):
    task = draw(_tasks())
    width = draw(st.integers(WIDE_ATOMS, WIDE_ATOMS + 24))
    edges = [b for k in range(_CHUNK_BITS, width, _CHUNK_BITS) for b in (k - 1, k)]
    where = draw(
        st.lists(
            st.one_of(st.sampled_from(edges), st.integers(0, width - 1)),
            min_size=len(task.atoms),
            max_size=len(task.atoms),
            unique=True,
        )
    )
    actions = tuple(
        GroundAction(
            a.name,
            (),
            _move_formula(a.precondition, where),
            _move_mask(a.add_mask, where),
            _move_mask(a.del_mask, where),
            tuple(
                (_move_formula(c, where), _move_mask(add, where), _move_mask(dele, where))
                for c, add, dele in a.conditional
            ),
            a.pre_masks and tuple(_move_mask(m, where) for m in a.pre_masks),
        )
        for a in task.actions
    )
    return GroundedTask(
        atoms=tuple(Atom(f"p{i}") for i in range(width)),
        init=_move_mask(task.init, where),
        goal=_move_formula(task.goal, where),
        actions=actions,
    )


@given(_wide_tasks())
@settings(max_examples=60, deadline=None)
def test_solve_matches_oracle_on_wide_random_tasks(task):
    _assert_matches_oracle(task)


def _atoms(count):
    return tuple(Atom(f"p{i}") for i in range(count))


EDGE_TASKS = {
    # No action reads a literal bit, so `solve` has no chunk at all; the
    # `or` action comes first but applies only after `a1`.
    "no-literal-bits": GroundedTask(
        atoms=_atoms(3),
        init=0b000,
        goal=2,
        actions=(
            GroundAction("a0", (), Or((1, 0)), 0b100, 0),
            GroundAction("a1", (), And(), 0b010, 0, pre_masks=(0, 0)),
        ),
    ),
    "no-actions": GroundedTask(atoms=_atoms(1), init=0, goal=0, actions=()),
    # (and p0 (not p0)) never holds, so the plan goes through a1.
    "contradictory-precondition": GroundedTask(
        atoms=_atoms(3),
        init=0b001,
        goal=2,
        actions=(
            GroundAction("a0", (), And((0, Not(0))), 0b100, 0, pre_masks=(1, 1)),
            GroundAction("a1", (), 0, 0b010, 0, pre_masks=(0b001, 0)),
            GroundAction("a2", (), 1, 0b100, 0, pre_masks=(0b010, 0)),
        ),
    ),
    # a2 and a3 make the layer-1 states {p1} and {p2}, in that order, and
    # both reach p3. {p2} does it with a0, the lower index, yet the plan is
    # a2 a1: the first state of the layer with a goal successor wins.
    "earlier-state-wins": GroundedTask(
        atoms=_atoms(4),
        init=0,
        goal=3,
        actions=(
            GroundAction("a0", (), 2, 0b1000, 0, pre_masks=(0b0100, 0)),
            GroundAction("a1", (), 1, 0b1000, 0, pre_masks=(0b0010, 0)),
            GroundAction("a2", (), And(), 0b0010, 0, pre_masks=(0, 0)),
            GroundAction("a3", (), And(), 0b0100, 0, pre_masks=(0, 0)),
        ),
    ),
    # Only a0's conditional effect deletes p0, and only where p3 holds. Of
    # the layer-1 states {p0 p1}, {p0 p2} and {p0 p3}, the last is the
    # goal's only predecessor, so the plan is a3 a0.
    "conditional-delete-goal": GroundedTask(
        atoms=_atoms(4),
        init=0b0001,
        goal=Not(0),
        actions=(
            GroundAction("a0", (), And(), 0, 0, ((3, 0, 0b0001),), pre_masks=(0, 0)),
            GroundAction("a1", (), And(), 0b0010, 0, pre_masks=(0, 0)),
            GroundAction("a2", (), And(), 0b0100, 0, pre_masks=(0, 0)),
            GroundAction("a3", (), And(), 0b1000, 0, pre_masks=(0, 0)),
        ),
    ),
}


@pytest.mark.parametrize("name", EDGE_TASKS)
def test_solve_matches_oracle_on_edge_tasks(name):
    _assert_matches_oracle(EDGE_TASKS[name])


@pytest.mark.parametrize("name, names", [
    ("earlier-state-wins", ("a2", "a1")),
    ("conditional-delete-goal", ("a3", "a0")),
])
def test_edge_task_plans(name, names):
    assert tuple(step.name for step in solve(EDGE_TASKS[name]).steps) == names
