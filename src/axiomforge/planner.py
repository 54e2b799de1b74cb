"""Ground PDDL tasks and search them for step-optimal plans.

States are bitsets (Python ints) over an indexed universe of ground atoms.
`solve` is a plain breadth-first search with duplicate detection, so the
plan length it reports is exact; everything downstream that compares step
counts relies on that guarantee. Its successor generator indexes actions
by one atom they require (Helmert, "The Fast Downward Planning System",
JAIR 26, 2006), the lowest positive literal of their precondition, so a
state only tests the actions filed under its true atoms plus those with no
positive literal. Successors are still generated in action-index order, so
the plan is the one a scan over all actions would return.

Grounding resolves what it can statically:
  * `(= a b)` literals and predicates that no effect ever touches are
    folded into constants using the initial state;
  * instantiations whose precondition is statically false are dropped;
  * instantiations where one effect group both adds and deletes the same
    atom (e.g. `stack(a, a)` in blocks world) are dropped as contradictory,
    which keeps add/delete sets disjoint.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .pddl.ast import (
    And,
    Atom,
    Eq,
    Forall,
    Formula,
    LinkedTask,
    Not,
    Or,
    ROOT_TYPE,
    When,
)


class GroundingExplosion(Exception):
    """Raised when grounding would exceed the configured atom/action caps."""


class PreconditionViolated(Exception):
    """Raised by `apply` when the action's precondition does not hold."""


@dataclass(frozen=True)
class SearchLimits:
    max_expanded_states: int = 1_000_000
    max_plan_length: int = 100
    wall_budget_ms: int = 10_000

    def __post_init__(self) -> None:
        if min(self.max_expanded_states, self.max_plan_length, self.wall_budget_ms) <= 0:
            raise ValueError("search limits must be positive")


# -- ground formulas ----------------------------------------------------------


@dataclass(frozen=True)
class GTrue:
    def holds(self, state: int) -> bool:
        return True


@dataclass(frozen=True)
class GFalse:
    def holds(self, state: int) -> bool:
        return False


@dataclass(frozen=True)
class GAtom:
    index: int

    def holds(self, state: int) -> bool:
        return bool(state >> self.index & 1)


@dataclass(frozen=True)
class GNot:
    body: "GroundFormula"

    def holds(self, state: int) -> bool:
        return not self.body.holds(state)


@dataclass(frozen=True)
class GAnd:
    parts: tuple

    def holds(self, state: int) -> bool:
        return all(p.holds(state) for p in self.parts)


@dataclass(frozen=True)
class GOr:
    parts: tuple

    def holds(self, state: int) -> bool:
        return any(p.holds(state) for p in self.parts)


GroundFormula = GTrue | GFalse | GAtom | GNot | GAnd | GOr


def _literal_masks(f: GroundFormula) -> tuple[int, int] | None:
    """(positive, negative) masks when `f` is a pure literal conjunction."""
    pos = neg = 0
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, GTrue):
            continue
        if isinstance(node, GAtom):
            pos |= 1 << node.index
        elif isinstance(node, GNot) and isinstance(node.body, GAtom):
            neg |= 1 << node.body.index
        elif isinstance(node, GAnd):
            stack.extend(node.parts)
        else:
            return None
    return pos, neg


@dataclass(frozen=True)
class GroundAction:
    name: str
    args: tuple
    precondition: GroundFormula
    add_mask: int
    del_mask: int
    conditional: tuple = ()  # (condition, add_mask, del_mask) triples
    pre_masks: tuple | None = None

    def __str__(self) -> str:
        if not self.args:
            return f"({self.name})"
        return f"({self.name} {' '.join(self.args)})"

    def applicable(self, state: int) -> bool:
        if self.pre_masks is not None:
            pos, neg = self.pre_masks
            return state & pos == pos and not state & neg
        return self.precondition.holds(state)


@dataclass(frozen=True)
class Plan:
    steps: tuple

    @property
    def length(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Unsolvable:
    pass


@dataclass(frozen=True)
class ResourceExceeded:
    reason: str


SolveResult = Plan | Unsolvable | ResourceExceeded


@dataclass(frozen=True)
class GroundedTask:
    atoms: tuple  # ground Atom per index
    init: int
    goal: GroundFormula
    actions: tuple

    def state_atoms(self, state: int):
        return [a for i, a in enumerate(self.atoms) if state >> i & 1]


# -- grounding ----------------------------------------------------------------


def _effect_predicates(f: Formula, acc: set) -> None:
    if isinstance(f, Atom):
        acc.add(f.name)
    elif isinstance(f, Not):
        _effect_predicates(f.body, acc)
    elif isinstance(f, And):
        for p in f.parts:
            _effect_predicates(p, acc)
    elif isinstance(f, Forall):
        _effect_predicates(f.body, acc)
    elif isinstance(f, When):
        _effect_predicates(f.effect, acc)


@dataclass(frozen=True)
class _PAtom:
    atom: Atom


@dataclass(frozen=True)
class _PNot:
    body: object


@dataclass(frozen=True)
class _PAnd:
    parts: tuple


@dataclass(frozen=True)
class _POr:
    parts: tuple


_TRUE = GTrue()
_FALSE = GFalse()


class _Grounder:
    def __init__(self, task: LinkedTask, max_atoms: int, max_actions: int):
        self.domain = task.domain
        self.problem = task.problem
        self.max_atoms = max_atoms
        self.max_actions = max_actions

        self.object_types: dict[str, str] = {}
        for c in self.domain.constants:
            self.object_types[c.name] = c.type if isinstance(c.type, str) else ROOT_TYPE
        for o in self.problem.objects:
            self.object_types[o.name] = o.type if isinstance(o.type, str) else ROOT_TYPE

        touched: set = set()
        for action in self.domain.actions:
            _effect_predicates(action.effect, touched)
        self.static_preds = {p.name for p in self.domain.predicates} - touched
        self.init_atoms = set(self.problem.init)

    def objects_matching(self, tref) -> list[str]:
        return [o for o, t in self.object_types.items() if self.domain.matches_type(t, tref)]

    # Stage one: substitute and fold static truth into a reduced condition IR.
    def _cond(self, f: Formula, sub: dict):
        if isinstance(f, Atom):
            ground = Atom(f.name, tuple(sub.get(a, a) for a in f.args))
            if f.name in self.static_preds:
                return _TRUE if ground in self.init_atoms else _FALSE
            return _PAtom(ground)
        if isinstance(f, Eq):
            left = sub.get(f.left, f.left)
            right = sub.get(f.right, f.right)
            return _TRUE if left == right else _FALSE
        if isinstance(f, Not):
            inner = self._cond(f.body, sub)
            if inner is _TRUE:
                return _FALSE
            if inner is _FALSE:
                return _TRUE
            return _PNot(inner)
        if isinstance(f, And):
            parts = []
            for p in f.parts:
                q = self._cond(p, sub)
                if q is _FALSE:
                    return _FALSE
                if q is not _TRUE:
                    parts.append(q)
            return _PAnd(tuple(parts)) if parts else _TRUE
        if isinstance(f, Or):
            parts = []
            for p in f.parts:
                q = self._cond(p, sub)
                if q is _TRUE:
                    return _TRUE
                if q is not _FALSE:
                    parts.append(q)
            return _POr(tuple(parts)) if parts else _FALSE
        if isinstance(f, Forall):
            parts = []
            for binding in self._bindings(f.variables):
                q = self._cond(f.body, {**sub, **binding})
                if q is _FALSE:
                    return _FALSE
                if q is not _TRUE:
                    parts.append(q)
            return _PAnd(tuple(parts)) if parts else _TRUE
        raise TypeError(f"unexpected construct in condition: {f!r}")

    def _bindings(self, variables: tuple):
        pools = [self.objects_matching(v.type) for v in variables]
        names = [v.name for v in variables]
        for combo in itertools.product(*pools):
            yield dict(zip(names, combo))

    def _effects(self, f: Formula, sub: dict, adds: set, dels: set, groups: list) -> None:
        if isinstance(f, Atom):
            adds.add(Atom(f.name, tuple(sub.get(a, a) for a in f.args)))
        elif isinstance(f, Not):
            body = f.body
            dels.add(Atom(body.name, tuple(sub.get(a, a) for a in body.args)))
        elif isinstance(f, And):
            for p in f.parts:
                self._effects(p, sub, adds, dels, groups)
        elif isinstance(f, Forall):
            for binding in self._bindings(f.variables):
                self._effects(f.body, {**sub, **binding}, adds, dels, groups)
        elif isinstance(f, When):
            cond = self._cond(f.condition, sub)
            if cond is _FALSE:
                return
            sub_adds: set = set()
            sub_dels: set = set()
            self._effects(f.effect, sub, sub_adds, sub_dels, groups)
            if cond is _TRUE:
                adds |= sub_adds
                dels |= sub_dels
            else:
                groups.append((cond, sub_adds, sub_dels))
        else:
            raise TypeError(f"unexpected construct in effect: {f!r}")

    def ground(self) -> GroundedTask:
        raw_actions = []
        for schema in self.domain.actions:
            for binding in self._bindings(schema.params):
                pre = self._cond(schema.precondition, binding)
                if pre is _FALSE:
                    continue
                adds: set = set()
                dels: set = set()
                groups: list = []
                self._effects(schema.effect, binding, adds, dels, groups)
                if adds & dels or any(a & d for _, a, d in groups):
                    continue  # contradictory instantiation
                args = tuple(binding[p.name] for p in schema.params)
                raw_actions.append((schema.name, args, pre, adds, dels, groups))
                if len(raw_actions) > self.max_actions:
                    raise GroundingExplosion(
                        f"more than {self.max_actions} ground actions"
                    )

        universe: dict[Atom, int] = {}

        def intern(atom: Atom) -> int:
            idx = universe.get(atom)
            if idx is None:
                idx = len(universe)
                universe[atom] = idx
                if idx >= self.max_atoms:
                    raise GroundingExplosion(f"more than {self.max_atoms} ground atoms")
            return idx

        for atom in sorted(self.init_atoms, key=str):
            intern(atom)
        for _, _, _, adds, _, groups in raw_actions:
            for atom in sorted(adds, key=str):
                intern(atom)
            for _, g_adds, _ in groups:
                for atom in sorted(g_adds, key=str):
                    intern(atom)

        def lower(cond) -> GroundFormula:
            """Index the condition IR; atoms outside the universe are false."""
            if cond is _TRUE or cond is _FALSE:
                return cond
            if isinstance(cond, _PAtom):
                idx = universe.get(cond.atom)
                return GAtom(idx) if idx is not None else _FALSE
            if isinstance(cond, _PNot):
                inner = lower(cond.body)
                if isinstance(inner, GTrue):
                    return _FALSE
                if isinstance(inner, GFalse):
                    return _TRUE
                return GNot(inner)
            if isinstance(cond, _PAnd):
                parts = []
                for p in cond.parts:
                    q = lower(p)
                    if isinstance(q, GFalse):
                        return _FALSE
                    if not isinstance(q, GTrue):
                        parts.append(q)
                return GAnd(tuple(parts)) if parts else _TRUE
            if isinstance(cond, _POr):
                parts = []
                for p in cond.parts:
                    q = lower(p)
                    if isinstance(q, GTrue):
                        return _TRUE
                    if not isinstance(q, GFalse):
                        parts.append(q)
                return GOr(tuple(parts)) if parts else _FALSE
            raise TypeError(f"unexpected condition node: {cond!r}")

        def mask(atoms: set, *, adds: bool) -> int:
            m = 0
            for atom in atoms:
                idx = universe.get(atom)
                if idx is None:
                    if adds:
                        raise AssertionError("add effect missing from universe")
                    continue  # deleting a never-true atom is a no-op
                m |= 1 << idx
            return m

        actions = []
        for name, args, pre, adds, dels, groups in raw_actions:
            pre_g = lower(pre)
            if isinstance(pre_g, GFalse):
                continue
            cond_groups = []
            for cond, g_adds, g_dels in groups:
                cond_g = lower(cond)
                if isinstance(cond_g, GFalse):
                    continue
                cond_groups.append((cond_g, mask(g_adds, adds=True), mask(g_dels, adds=False)))
            actions.append(
                GroundAction(
                    name=name,
                    args=args,
                    precondition=pre_g,
                    add_mask=mask(adds, adds=True),
                    del_mask=mask(dels, adds=False),
                    conditional=tuple(cond_groups),
                    pre_masks=_literal_masks(pre_g),
                )
            )

        init_mask = 0
        for atom in self.init_atoms:
            init_mask |= 1 << universe[atom]

        goal = lower(self._cond(self.problem.goal, {}))
        atoms = tuple(sorted(universe, key=universe.get))
        return GroundedTask(atoms=atoms, init=init_mask, goal=goal, actions=tuple(actions))


def ground(task: LinkedTask, *, max_atoms: int = 100_000, max_actions: int = 200_000) -> GroundedTask:
    """Instantiate every action schema over all type-consistent object tuples."""
    return _Grounder(task, max_atoms, max_actions).ground()


# -- execution ----------------------------------------------------------------


def apply(state: int, action: GroundAction) -> int:
    """Successor state; conditional effects fire on the pre-state."""
    if not action.applicable(state):
        raise PreconditionViolated(str(action))
    result = (state & ~action.del_mask) | action.add_mask
    for cond, add_mask, del_mask in action.conditional:
        if cond.holds(state):
            result = (result & ~del_mask) | add_mask
    return result


def solve(task: GroundedTask, limits: SearchLimits | None = None) -> SolveResult:
    """Breadth-first search; any returned plan is optimal in step count.

    Each call first indexes the actions. An action whose precondition has a
    positive literal is filed under its lowest positive precondition bit;
    the rest (no positive literal, or a precondition that is not a literal
    conjunction, such as an `or`) are tried in every state. A state then
    tries only the always-tried actions and the buckets of its set bits.
    Those candidates are sorted by action index, so successors are generated
    in the same order as a scan over all actions, and the plan returned is
    the one such a scan would return.

    A frontier whose successors would pass `max_plan_length` ends the
    search before any of its states counts as expanded.
    """
    limits = limits or SearchLimits()
    deadline = time.monotonic() + limits.wall_budget_ms / 1000.0

    if task.goal.holds(task.init):
        return Plan(())

    # Rows are (index, pos, neg, add, del, conditional, precondition); the
    # precondition is kept only where the masks cannot express it.
    always: list[tuple] = []
    buckets: dict[int, list[tuple]] = {}
    for index, action in enumerate(task.actions):
        masks = action.pre_masks
        pos, neg = masks or (0, 0)
        row = (index, pos, neg, action.add_mask, action.del_mask, action.conditional,
               None if masks else action.precondition)
        if pos:
            buckets.setdefault(pos & -pos, []).append(row)
        else:
            always.append(row)
    keys = sum(buckets)  # distinct single bits, so the sum is their union
    goal_masks = _literal_masks(task.goal)
    goal_pos, goal_neg = goal_masks or (0, 0)

    parent: dict[int, tuple[int, int] | None] = {task.init: None}
    frontier = [task.init]
    layer = 0
    expanded = 0

    while frontier:
        if layer >= limits.max_plan_length:
            return ResourceExceeded("max-plan-length")
        next_frontier: list[int] = []
        for state in frontier:
            expanded += 1
            if expanded > limits.max_expanded_states:
                return ResourceExceeded("max-expanded-states")
            if time.monotonic() > deadline:
                return ResourceExceeded("wall-budget")
            rows = list(always)
            bits = state & keys
            while bits:
                low = bits & -bits
                rows += buckets[low]
                bits ^= low
            rows.sort()
            for index, pos, neg, add, dele, conditional, pre in rows:
                if state & pos != pos or state & neg:
                    continue
                if pre is not None and not pre.holds(state):
                    continue
                succ = (state & ~dele) | add
                for cond, c_add, c_del in conditional:
                    if cond.holds(state):
                        succ = (succ & ~c_del) | c_add
                if succ in parent:
                    continue
                parent[succ] = (state, index)
                if goal_masks is None:
                    reached = task.goal.holds(succ)
                else:
                    reached = succ & goal_pos == goal_pos and not succ & goal_neg
                if reached:
                    steps = []
                    cur = succ
                    while cur != task.init:
                        prev, aidx = parent[cur]
                        steps.append(task.actions[aidx])
                        cur = prev
                    return Plan(tuple(reversed(steps)))
                next_frontier.append(succ)
        frontier = next_frontier
        layer += 1

    return Unsolvable()


def validate_plan(task: GroundedTask, plan: Plan) -> tuple[bool, int | None]:
    """Replay a plan; returns (ok, first failing index).

    A precondition failure reports the step's index; an unsatisfied goal
    reports len(steps).
    """
    state = task.init
    for i, action in enumerate(plan.steps):
        if not action.applicable(state):
            return False, i
        state = apply(state, action)
    if not task.goal.holds(state):
        return False, len(plan.steps)
    return True, None
