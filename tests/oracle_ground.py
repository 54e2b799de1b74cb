"""Reference grounder for cross-checking `planner.ground`.

It instantiates every action schema over the full cartesian product of
type-consistent objects and folds each binding through an interpretive walk
over a substitution dict, which is how `ground` worked before it joined on
static atoms. Only the GroundedTask data layout is shared with the planner.
The result must equal `ground`'s field for field: atom order, init, goal,
action order, preconditions and masks.

Its explosion check counts kept ground actions only, so `max_actions`
raises here whenever it raises in `ground`, which also counts every binding
it visits.
"""

import itertools
from dataclasses import dataclass

from axiomforge.pddl.ast import And, Atom, Eq, Forall, Not, Or, ROOT_TYPE, When
from axiomforge.planner import (
    GAnd,
    GAtom,
    GFalse,
    GNot,
    GOr,
    GroundAction,
    GroundedTask,
    GroundingExplosion,
    GTrue,
)


def oracle_ground(task, max_atoms=100_000, max_actions=200_000):
    return _Grounder(task, max_atoms, max_actions).ground()


def _literal_masks(f):
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


def _effect_predicates(f, acc):
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
    def __init__(self, task, max_atoms, max_actions):
        self.domain = task.domain
        self.problem = task.problem
        self.max_atoms = max_atoms
        self.max_actions = max_actions

        self.object_types = {}
        for c in self.domain.constants:
            self.object_types[c.name] = c.type if isinstance(c.type, str) else ROOT_TYPE
        for o in self.problem.objects:
            self.object_types[o.name] = o.type if isinstance(o.type, str) else ROOT_TYPE

        touched = set()
        for action in self.domain.actions:
            _effect_predicates(action.effect, touched)
        self.static_preds = {p.name for p in self.domain.predicates} - touched
        self.init_atoms = set(self.problem.init)

    def objects_matching(self, tref):
        return [o for o, t in self.object_types.items() if self.domain.matches_type(t, tref)]

    # Stage one: substitute and fold static truth into a reduced condition IR.
    def _cond(self, f, sub):
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

    def _bindings(self, variables):
        pools = [self.objects_matching(v.type) for v in variables]
        names = [v.name for v in variables]
        for combo in itertools.product(*pools):
            yield dict(zip(names, combo))

    def _effects(self, f, sub, adds, dels, groups):
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
            sub_adds = set()
            sub_dels = set()
            self._effects(f.effect, sub, sub_adds, sub_dels, groups)
            if cond is _TRUE:
                adds |= sub_adds
                dels |= sub_dels
            else:
                groups.append((cond, sub_adds, sub_dels))
        else:
            raise TypeError(f"unexpected construct in effect: {f!r}")

    def ground(self):
        raw_actions = []
        for schema in self.domain.actions:
            for binding in self._bindings(schema.params):
                pre = self._cond(schema.precondition, binding)
                if pre is _FALSE:
                    continue
                adds = set()
                dels = set()
                groups = []
                self._effects(schema.effect, binding, adds, dels, groups)
                if adds & dels or any(a & d for _, a, d in groups):
                    continue  # contradictory instantiation
                args = tuple(binding[p.name] for p in schema.params)
                raw_actions.append((schema.name, args, pre, adds, dels, groups))
                if len(raw_actions) > self.max_actions:
                    raise GroundingExplosion(f"more than {self.max_actions} ground actions")

        universe = {}

        def intern(atom):
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

        def lower(cond):
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

        def mask(atoms, *, adds):
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
