"""Ground PDDL tasks and search them for step-optimal plans.

States are bitsets (Python ints) over an indexed universe of ground atoms.
`solve` is a plain breadth-first search with duplicate detection, so the
plan length it reports is exact; everything downstream that compares step
counts relies on that guarantee. Its successor generator finds a state's
applicable actions without testing each one (Helmert, "The Fast Downward
Planning System", JAIR 26, 2006): per-chunk tables map a few state bits
to the bitset of actions they admit, and a state ANDs its chunks' entries.
Successors are still generated in action-index order, so the plan is the
one a scan over all actions would return.

Where the goal is a literal conjunction, each layer first looks for the
plan's last step, trying only states that miss few enough goal literals
and only actions that can make the lowest missing one true, so the final
layer is never expanded. The plan is the one a full expansion returns, and
the expansion cap and the clock still count and read once for every state
a full expansion reaches, so expanded-state counts and a fake clock's
reads mean what they did before the lookahead.

Grounding joins each action schema against the initial state on its
static preconditions (Helmert, "Concise finite-domain representations for
PDDL planning tasks", AIJ 173, 2009), and resolves what it can statically:
  * `(= a b)` literals and predicates that no effect ever touches are
    folded into constants using the initial state;
  * instantiations whose precondition is statically false are dropped;
  * instantiations where one effect group both adds and deletes the same
    atom (e.g. `stack(a, a)` in blocks world) are dropped as contradictory,
    which keeps add/delete sets disjoint.

Grounding runs in three steps: compile each schema (`_Compiler`), bind it
to the problem's objects and initial state, and lower the kept bindings to
`GroundAction`s over the interned atom universe. Every step goes through a
`RunCache`, which a search run shares across its candidates, since a rule
edit changes one action and copies the rest. The cache keeps link verdicts
by the problem and what `link` reads of the domain; compiles by the action
and the static predicates it mentions; kept bindings and the folded goal by
the compile, the problem and the domain's types and constants; and
lowerings by the atom universe, which must be equal, in order. A reused
binding or goal charges the bindings it visited to `max_actions` again. So
the join against static atoms is incremental across a run's candidates,
and `ground` returns a `GroundedTask` equal, field for field, to a fresh
call's, and raises the same explosion where a fresh call does.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from operator import itemgetter

from .pddl import PddlError, link
from .pddl.ast import (
    And,
    Atom,
    DomainAst,
    Eq,
    Forall,
    Formula,
    LinkedTask,
    Not,
    Or,
    ProblemAst,
    ROOT_TYPE,
    When,
    walk,
)


class GroundingExplosion(Exception):
    """Raised when grounding would exceed the configured atom/action caps.

    The action cap counts every binding grounding visits, kept or not.
    """


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

    __str__ = Atom.__str__

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


def _text(key: tuple) -> str:
    """`str` of the ground atom whose key is `key`."""
    return "(" + " ".join(key) + ")"


# Tags of compiled specs. A condition spec folds against a binding to True,
# False, an atom key `(predicate, *args)`, or a (_NOT | _AND | _OR, ...)
# tuple over those; `_lower` indexes that once the atom universe is known.
_VALUE, _ATOM, _STATIC, _INIT, _EQ, _NOT, _AND, _OR, _FORALL, _WHEN = range(10)

_TRUE = GTrue()
_FALSE = GFalse()


class _Compiler:
    """Compiles action schemas and conditions for grounding. The compile
    reads the formulas and which predicates among those they mention are
    static (no effect of the domain touches them), nothing else.

    A binding is a tuple `env`: the names the schema's formulas mention
    (predicates and constants), then the action's parameters in declaration
    order, then the variables of the enclosing foralls. An atom compiles to
    an `itemgetter` over slots of env that returns its key, or to the key
    itself when no variable occurs in it. A forall keeps the types of its
    variables, and a static atom without variables keeps its key; grounding
    resolves those against each problem's objects and initial state.

    Each top-level conjunct of a precondition that is a static atom or an
    `=`, or the negation of one, becomes a check at the first parameter
    depth where its variables are bound. That is a join against the initial
    state, since static predicates never change. Such a conjunct without
    variables tests the whole schema once per problem instead.
    """

    def __init__(self, static_preds: frozenset):
        self.static_preds = static_preds
        self.names: tuple = ()  # the literal slots of the formulas being compiled
        self.slots: dict = {}

    def condition(self, f: Formula) -> tuple:
        """(env, spec) of a condition with no free variable, such as a goal."""
        depth = self._literals((f,), ())
        return self.names, self._cond(f, {}, depth)

    def _literals(self, formulas: tuple, bound) -> int:
        """Give each name that `formulas` mention, other than the variables
        in `bound`, a slot at the front of env; returns how many there are."""
        names: list = []
        for f in formulas:
            for node in walk(f):
                if isinstance(node, Atom):
                    names.append(node.name)
                    names += node.args
                elif isinstance(node, Eq):
                    names += (node.left, node.right)
        self.names = tuple(dict.fromkeys(n for n in names if n not in bound))
        self.slots = {name: i for i, name in enumerate(self.names)}
        return len(self.names)

    def _key(self, atom: Atom, scope: dict):
        """The atom's key if it has no variable, else a getter of it from env."""
        if scope.keys().isdisjoint(atom.args):
            return (atom.name, *atom.args)
        slots = self.slots
        return itemgetter(slots[atom.name], *[scope[a] if a in scope else slots[a] for a in atom.args])

    def _slot(self, term: str, scope: dict) -> int:
        return scope[term] if term in scope else self.slots[term]

    def _forall(self, f: Forall, scope: dict, depth: int) -> tuple:
        """(variable types, inner scope, inner depth) of a forall."""
        inner = dict(scope)
        for i, v in enumerate(f.variables):
            inner[v.name] = depth + i
        return tuple(v.type for v in f.variables), inner, depth + len(f.variables)

    def _cond(self, f: Formula, scope: dict, depth: int) -> tuple:
        """Compile a condition; `scope` maps variables to env slots, and env
        holds `depth` values where `f` is evaluated."""
        if isinstance(f, Atom):
            key = self._key(f, scope)
            static = f.name in self.static_preds
            if isinstance(key, tuple):
                return (_INIT if static else _VALUE, key)
            return (_STATIC if static else _ATOM, key)
        if isinstance(f, Eq):
            if f.left in scope or f.right in scope:
                return (_EQ, self._slot(f.left, scope), self._slot(f.right, scope))
            return (_VALUE, f.left == f.right)
        if isinstance(f, Not):
            return (_NOT, self._cond(f.body, scope, depth))
        if isinstance(f, (And, Or)):
            return (_AND if isinstance(f, And) else _OR,
                    tuple(self._cond(p, scope, depth) for p in f.parts))
        if isinstance(f, Forall):
            types, inner, inner_depth = self._forall(f, scope, depth)
            return (_FORALL, types, self._cond(f.body, inner, inner_depth))
        raise TypeError(f"unexpected construct in condition: {f!r}")

    def _effect(self, f: Formula, scope: dict, depth: int) -> tuple:
        """Compile an effect to (constant adds, add getters, constant dels,
        del getters, its foralls and whens in order)."""
        out: tuple = ([], [], [], [], [])
        self._effect_into(f, scope, depth, out)
        return tuple(map(tuple, out))

    def _effect_into(self, f: Formula, scope: dict, depth: int, out: tuple) -> None:
        if isinstance(f, And):
            for p in f.parts:
                self._effect_into(p, scope, depth, out)
        elif isinstance(f, (Atom, Not)):
            delete = isinstance(f, Not)
            key = self._key(f.body if delete else f, scope)
            out[(2 if delete else 0) + (0 if isinstance(key, tuple) else 1)].append(key)
        elif isinstance(f, Forall):
            types, inner, inner_depth = self._forall(f, scope, depth)
            out[4].append((_FORALL, types, self._effect(f.body, inner, inner_depth)))
        elif isinstance(f, When):
            out[4].append((_WHEN, self._cond(f.condition, scope, depth),
                           self._effect(f.effect, scope, depth)))
        else:
            raise TypeError(f"unexpected construct in effect: {f!r}")

    def schema(self, schema) -> tuple | None:
        """(name, literal slots, parameter types, static tests without
        variables, checks per depth, precondition, effect) of one schema;
        None when an `=` of two constants makes its precondition false."""
        params = [p.name for p in schema.params]
        base = self._literals((schema.precondition, schema.effect), params)
        n = len(params)
        scope = {name: base + i for i, name in enumerate(params)}
        depth = base + n

        pre = schema.precondition
        facts: list = []  # (key, wanted truth in init)
        checks: list = [[] for _ in range(n)]
        rest = []
        for part in pre.parts if isinstance(pre, And) else (pre,):
            literal = part.body if isinstance(part, Not) else part
            if not (isinstance(literal, Eq)
                    or isinstance(literal, Atom) and literal.name in self.static_preds):
                rest.append(part)
                continue
            spec = self._cond(literal, scope, depth)
            want = literal is part
            if spec[0] == _VALUE:
                if spec[1] is not want:
                    return None  # statically false for every binding
                continue
            if spec[0] == _INIT:
                facts.append((spec[1], want))
                continue
            terms = (literal.left, literal.right) if isinstance(literal, Eq) else literal.args
            level = max(scope[t] for t in terms if t in scope) - base
            get = itemgetter(spec[1], spec[2]) if spec[0] == _EQ else spec[1]
            checks[level].append((get, spec[0] == _EQ, want))
        if isinstance(pre, And):
            pre_spec = (_AND, tuple(self._cond(p, scope, depth) for p in rest))
        else:
            pre_spec = self._cond(pre, scope, depth) if rest else (_VALUE, True)
        effect = self._effect(schema.effect, scope, depth)
        types = tuple(p.type for p in schema.params)
        return (schema.name, self.names, types, tuple(facts), checks, pre_spec, effect)


class _Work:
    """A cached result, how many bindings computing it visited, and what it
    lowered to, by atom universe token."""

    __slots__ = ("value", "visited", "lowered")

    def __init__(self, value, visited: int):
        self.value = value
        self.visited = visited
        self.lowered: dict = {}


class RunCache:
    """The link and grounding work that one search run's candidates share.

    A run's evaluator makes one, reads oracle text and scores candidates
    through it; nothing outlives the run. Each layer is keyed on exactly what it reads, so a hit
    returns what doing the work again would:
      * `link` verdicts, by the problem and the domain's name, types,
        constants, predicates and the set of types its action parameters
        name (they feed `known_types`). A failure is kept as its
        diagnostics and raised again as a fresh `PddlError`.
      * Schema compiles, by the action and the static predicates it
        mentions.
      * The kept bindings of a compiled schema, and the folded goal, by the
        problem and the domain's types and constants (the goal also by its
        static predicates), with the number of bindings that work visited.
        A hit charges that number to `max_actions` again, so a cached call
        raises `GroundingExplosion` exactly where a fresh one does.
      * What those bindings and that goal lowered to, by the interned atom
        universe, which is reused only when it is equal, in order.
    """

    def __init__(self):
        # Hashing an AST walks it, so what is read off a domain or problem
        # is worked out once per object, and keys built from ASTs are
        # interned as small ints in `_tokens`. An entry under an object's id
        # holds the object, so no other object takes that id meanwhile.
        self._tokens: dict = {}
        self._problems: dict = {}  # id -> (problem, token, goal predicates)
        self._domains: dict = {}  # id -> [domain, link key token, schemas]
        self._links: dict = {}  # (problem, domain) tokens -> () or the failure's diagnostics
        self._actions: dict = {}  # action -> [mentioned, touched, {static key: (spec, binds)}]
        self.goals: dict = {}  # (problem, typing token, static goal predicates) -> _Work
        self._universes: dict = {}  # atom keys in index order -> (token, atoms)

    def _token(self, key) -> int:
        return self._tokens.setdefault(key, len(self._tokens))

    def _domain(self, domain: DomainAst) -> list:
        seen = self._domains.get(id(domain))
        if seen is None:
            seen = self._domains[id(domain)] = [domain, None, None]
        return seen

    def problem(self, problem: ProblemAst) -> tuple:
        """(token, goal predicates) of `problem`; equal problems share the
        token."""
        got = self._problems.get(id(problem))
        if got is None:
            goal_preds = frozenset(f.name for f in walk(problem.goal) if isinstance(f, Atom))
            got = self._problems[id(problem)] = (problem, self._token(problem), goal_preds)
        return got[1:]

    def link(self, domain: DomainAst, problem: ProblemAst) -> LinkedTask:
        """`pddl.link(domain, problem)`, answered from an earlier verdict
        with the same key when there is one."""
        seen = self._domain(domain)
        if seen[1] is None:
            params = frozenset(p.type for a in domain.actions for p in a.params)
            seen[1] = self._token((domain.name, domain.types, domain.constants, domain.predicates, params))
        key = (self.problem(problem)[0], seen[1])
        verdict = self._links.get(key)
        if verdict is None:
            try:
                link(domain, problem)
                verdict = ()
            except PddlError as err:
                verdict = err.diagnostics
            self._links[key] = verdict
        if verdict:
            raise PddlError(verdict)
        return LinkedTask(domain, problem)

    def schemas(self, domain: DomainAst) -> tuple:
        """(compiled schemas, static predicates, typing token) of `domain`.
        Each compiled schema is a (spec, binds) pair; a schema whose
        precondition is statically false is left out. The typing token
        stands for the domain's types and constants."""
        seen = self._domain(domain)
        if seen[2] is None:
            entries = []
            touched: set = set()
            for action in domain.actions:
                entry = self._actions.setdefault(action, [])  # hashes the action once
                if not entry:
                    mentioned = frozenset(f.name for part in (action.precondition, action.effect)
                                          for f in walk(part) if isinstance(f, Atom))
                    effects: set = set()
                    _effect_predicates(action.effect, effects)
                    entry += (mentioned, frozenset(effects), {})
                entries.append(entry)
                touched |= entry[1]
            static = frozenset(p.name for p in domain.predicates) - touched
            compiled = []
            for action, (mentioned, _, compiles) in zip(domain.actions, entries):
                key = mentioned & static
                got = compiles.get(key)
                if got is None:
                    got = compiles[key] = (_Compiler(key).schema(action), {})
                if got[0] is not None:
                    compiled.append(got)
            seen[2] = (compiled, static, self._token((domain.types, domain.constants)))
        return seen[2]

    def universe(self, keys: tuple) -> tuple:
        """(token, ground Atoms) of the atom universe whose keys in index
        order are `keys`."""
        got = self._universes.get(keys)
        if got is None:
            got = self._universes[keys] = (len(self._universes), tuple(Atom(k[0], k[1:]) for k in keys))
        return got


class _Grounder:
    """Grounds one linked task, reusing what a `RunCache` holds.

    Parameters are bound depth-first in declaration order, and each depth
    runs the static checks compiled for it. The bindings that pass come out
    in `itertools.product` order, so the ground actions keep the order of a
    scan over the full cartesian product.

    Every binding visited, partial or full, in a parameter list or a forall,
    counts against `max_actions`. Kept actions are among them, and a schema
    whose bindings all fail late still ends after bounded work.
    """

    def __init__(self, task: LinkedTask, cache: RunCache, max_atoms: int, max_actions: int):
        self.cache = cache
        self.domain = task.domain
        self.problem = task.problem
        self.max_atoms = max_atoms
        self.max_actions = max_actions
        self.visited = 0

        self.parents = self.domain.parent_types()
        self.object_types: dict[str, str] = {}
        for c in self.domain.constants:
            self.object_types[c.name] = c.type if isinstance(c.type, str) else ROOT_TYPE
        for o in self.problem.objects:
            self.object_types[o.name] = o.type if isinstance(o.type, str) else ROOT_TYPE
        self.pools: dict = {}  # type -> objects of that type
        self.forall_pools: dict = {}  # variable types -> (pools, number of bindings)
        self.init = {(a.name, *a.args) for a in self.problem.init}
        self.universe: dict[tuple, int] = {}  # atom key -> index
        self.lowered: dict = {}  # atom key -> GAtom, or _FALSE outside the universe
        self.bits: dict | None = None  # atom key -> its bit, once the universe is known

    def _pool(self, tref) -> tuple:
        pool = self.pools.get(tref)
        if pool is None:
            matches = self.domain.matches_type
            parents = self.parents
            pool = tuple(o for o, t in self.object_types.items() if matches(t, tref, parents))
            self.pools[tref] = pool
        return pool

    def _forall_pools(self, types: tuple) -> tuple:
        """(pools, number of bindings) of a forall's variables."""
        got = self.forall_pools.get(types)
        if got is None:
            pools = tuple(self._pool(t) for t in types)
            count = 1
            for pool in pools:
                count *= len(pool)
            got = self.forall_pools[types] = (pools, count)
        return got

    def _visit(self, count: int) -> None:
        self.visited += count
        if self.visited > self.max_actions:
            raise GroundingExplosion(f"more than {self.max_actions} ground actions or bindings")

    # -- evaluating, once per binding

    def _fold(self, spec: tuple, env: tuple):
        """Fold a compiled condition against a binding, dropping static truth."""
        kind = spec[0]
        if kind == _ATOM:
            return spec[1](env)
        if kind == _VALUE:
            return spec[1]
        if kind == _STATIC:
            return spec[1](env) in self.init
        if kind == _EQ:
            return env[spec[1]] == env[spec[2]]
        if kind == _NOT:
            inner = self._fold(spec[1], env)
            if inner is True:
                return False
            if inner is False:
                return True
            return (_NOT, inner)
        if kind == _OR:
            parts = []
            for p in spec[1]:
                q = self._fold(p, env)
                if q is True:
                    return True
                if q is not False:
                    parts.append(q)
            return (_OR, tuple(parts)) if parts else False
        if kind == _INIT:
            return spec[1] in self.init
        parts = []
        if kind == _AND:
            for p in spec[1]:
                q = self._fold(p, env)
                if q is False:
                    return False
                if q is not True:
                    parts.append(q)
            return (_AND, tuple(parts)) if parts else True
        _, types, body = spec  # a forall folds to a conjunction
        pools, count = self._forall_pools(types)
        self._visit(count)
        for combo in itertools.product(*pools):
            q = self._fold(body, env + combo)
            if q is False:
                return False
            if q is not True:
                parts.append(q)
        return (_AND, tuple(parts)) if parts else True

    def _effects(self, spec: tuple, env: tuple, adds: set, dels: set, groups: list) -> None:
        const_adds, add_keys, const_dels, del_keys, nested = spec
        adds.update(const_adds)
        for get in add_keys:
            adds.add(get(env))
        dels.update(const_dels)
        for get in del_keys:
            dels.add(get(env))
        for item in nested:
            if item[0] == _FORALL:
                _, types, body = item
                pools, count = self._forall_pools(types)
                self._visit(count)
                for combo in itertools.product(*pools):
                    self._effects(body, env + combo, adds, dels, groups)
                continue
            cond = self._fold(item[1], env)
            if cond is False:
                continue
            sub_adds: set = set()
            sub_dels: set = set()
            self._effects(item[2], env, sub_adds, sub_dels, groups)
            if cond is True:
                adds |= sub_adds
                dels |= sub_dels
            else:
                groups.append((cond, sub_adds, sub_dels))

    def _joined(self, checks: list, env: tuple) -> bool:
        """True if every static test of one depth holds on `env`."""
        for get, eq, want in checks:
            value = get(env)
            if (value[0] == value[1] if eq else value in self.init) is not want:
                return False
        return True

    def _reuse(self, table: dict, key, compute) -> _Work:
        """`table[key]`, charging the bindings it visited again, or else the
        `_Work` of `compute()`, which visits them itself."""
        work = table.get(key)
        if work is None:
            start = self.visited
            value = compute()
            work = table[key] = _Work(value, self.visited - start)
        else:
            self._visit(work.visited)
        return work

    def _schema(self, schema: tuple) -> list:
        """(name, args, precondition, adds, dels, groups) of each binding of
        a compiled schema that is kept, in product order."""
        raw: list = []
        name, names, types, facts, checks, pre_spec, effect = schema
        for key, want in facts:
            if (key in self.init) is not want:
                return raw  # statically false for every binding
        base = len(names)
        n = len(types)

        def keep(env: tuple) -> None:
            cond = self._fold(pre_spec, env)
            if cond is False:
                return
            adds: set = set()
            dels: set = set()
            groups: list = []
            self._effects(effect, env, adds, dels, groups)
            if not adds.isdisjoint(dels) or any(not a.isdisjoint(d) for _, a, d in groups):
                return  # contradictory instantiation
            raw.append((name, env[base:], cond, adds, dels, groups))

        if not n:
            self._visit(1)
            keep(names)
            return raw
        pools = [self._pool(t) for t in types]
        prefixes: list = [names] + [None] * n  # env with d parameters bound
        iters: list = [None] * n
        d = 0
        self._visit(len(pools[0]))
        iters[0] = iter(pools[0])
        while d >= 0:
            level = checks[d]
            for obj in iters[d]:
                env = prefixes[d] + (obj,)
                if level and not self._joined(level, env):
                    continue
                if d + 1 == n:
                    keep(env)
                    continue
                d += 1
                prefixes[d] = env
                self._visit(len(pools[d]))
                iters[d] = iter(pools[d])
                break
            else:
                d -= 1
        return raw

    def _lower(self, node) -> GroundFormula:
        """Index a folded condition; atoms outside the universe are false."""
        if node is True:
            return _TRUE
        if node is False:
            return _FALSE
        tag = node[0]
        if type(tag) is str:
            g = self.lowered.get(node)
            if g is None:
                index = self.universe.get(node)
                g = self.lowered[node] = _FALSE if index is None else GAtom(index)
            return g
        if tag == _NOT:
            inner = self._lower(node[1])
            if inner is _TRUE:
                return _FALSE
            if inner is _FALSE:
                return _TRUE
            return GNot(inner)
        parts = []
        if tag == _AND:
            for p in node[1]:
                q = self._lower(p)
                if q is _FALSE:
                    return _FALSE
                if q is not _TRUE:
                    parts.append(q)
            return GAnd(tuple(parts)) if parts else _TRUE
        for p in node[1]:
            q = self._lower(p)
            if q is _TRUE:
                return _TRUE
            if q is not _FALSE:
                parts.append(q)
        return GOr(tuple(parts)) if parts else _FALSE

    def _actions(self, raw: list) -> tuple:
        """The GroundActions of a schema's kept bindings, against the universe."""
        bits = self.bits
        if bits is None:
            bits = self.bits = {key: 1 << i for key, i in self.universe.items()}

        def mask(keys) -> int:
            # Deleting an atom outside the universe is a no-op.
            return sum([bits.get(k, 0) for k in keys])

        actions = []
        for name, args, pre, adds, dels, groups in raw:
            pre_g = self._lower(pre)
            if pre_g is _FALSE:
                continue
            cond_groups = []
            for cond, g_adds, g_dels in groups:
                cond_g = self._lower(cond)
                if cond_g is not _FALSE:
                    cond_groups.append((cond_g, mask(g_adds), mask(g_dels)))
            actions.append(
                GroundAction(
                    name=name,
                    args=args,
                    precondition=pre_g,
                    add_mask=mask(adds),
                    del_mask=mask(dels),
                    conditional=tuple(cond_groups),
                    pre_masks=_literal_masks(pre_g),
                )
            )
        return tuple(actions)

    def ground(self) -> GroundedTask:
        cache = self.cache
        schemas, static, typing = cache.schemas(self.domain)
        problem, goal_preds = cache.problem(self.problem)
        task = (problem, typing)  # what binding reads besides the schema
        bound = [self._reuse(binds, task, lambda: self._schema(spec)) for spec, binds in schemas]

        universe = self.universe

        def intern(keys) -> None:
            new = [k for k in keys if k not in universe]
            if len(new) > 1:
                new.sort(key=_text)
            for key in new:
                if len(universe) >= self.max_atoms:
                    raise GroundingExplosion(f"more than {self.max_atoms} ground atoms")
                universe[key] = len(universe)

        intern(self.init)
        for work in bound:
            for _, _, _, adds, _, groups in work.value:
                intern(adds)
                for _, g_adds, _ in groups:
                    intern(g_adds)
        token, atoms = cache.universe(tuple(universe))

        actions: list = []
        for work in bound:
            lowered = work.lowered.get(token)
            if lowered is None:
                lowered = work.lowered[token] = self._actions(work.value)
            actions += lowered

        def fold_goal():
            names, spec = _Compiler(goal_preds & static).condition(self.problem.goal)
            return self._fold(spec, names)

        goal = self._reuse(cache.goals, (*task, goal_preds & static), fold_goal)
        goal_g = goal.lowered.get(token)
        if goal_g is None:
            goal_g = goal.lowered[token] = self._lower(goal.value)
        return GroundedTask(
            atoms=atoms,
            init=(1 << len(self.init)) - 1,  # interned first, so the lowest bits
            goal=goal_g,
            actions=tuple(actions),
        )


def ground(
    task: LinkedTask,
    *,
    max_atoms: int = 100_000,
    max_actions: int = 200_000,
    cache: RunCache | None = None,
) -> GroundedTask:
    """Instantiate every action schema over the type-consistent object tuples
    that pass its static preconditions.

    Raises `GroundingExplosion` past `max_atoms` ground atoms, or once more
    than `max_actions` bindings have been visited, partial and full
    bindings of the parameters and the bindings of every forall included.

    `cache` is the run's `RunCache`; without one, the call makes a private
    one, so every call takes the same path. A compile, a schema's kept
    bindings, the folded goal or a lowering found there is reused, and a
    reused binding or goal charges the bindings it visited to `max_actions`
    again. The `GroundedTask` returned is equal, field for field, to the
    one a call with a fresh cache returns, and so is any explosion raised.
    """
    return _Grounder(task, cache if cache is not None else RunCache(), max_atoms, max_actions).ground()


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


# Width in bits of the state chunks that `solve` looks up in its tables. 12
# gave the least solve CPU over the tower and hanoi tasks of a plan-scaled
# benchmark pass; 8, 10, 14 and 16 took 8-17% more.
_CHUNK_BITS = 12


def _plan(parent: dict, actions: tuple, state: int) -> Plan:
    """The plan that `parent` links from the initial state to `state`."""
    steps = []
    link = parent[state]
    while link is not None:
        state, index = link
        steps.append(actions[index])
        link = parent[state]
    return Plan(tuple(reversed(steps)))


def solve(task: GroundedTask, limits: SearchLimits | None = None) -> SolveResult:
    """Breadth-first search; any returned plan is optimal in step count.

    Action i is bit i of an action bitset. Each call splits the state's bits
    into chunks of `_CHUNK_BITS` and gives each chunk that a `pre_masks`
    literal reads a table, filled lazily, from the value of its read bits to
    the actions that value admits: all but those that need one of its clear
    bits on or one of its set bits off. A state ANDs its chunks' entries and
    visits the result lowest bit first, which is action-index order, so the
    plan is the one a scan over all actions would return.

    Actions whose `pre_masks` is None (such as an `or`), which no table
    refuses, and actions with conditional effects take the formula path: the
    precondition is checked on the state, and conditional effects fire on
    the pre-state. Every other successor is `state & ~del_mask | add_mask`.

    A goal that is a literal conjunction is not tested on each successor.
    Instead, each layer first looks for the plan's last step: the first
    state of the layer, in expansion order, with a successor that meets the
    goal, and that state's lowest-index action reaching it. That is the
    step a full expansion of the layer would meet first, so the plan is the
    same. Only *near* states can have such a successor: those that miss at
    most as many goal literals as one action can make true, conditional
    effects included. A near state tries only the actions that can make its
    lowest missing goal literal true. When the lookahead finds the step, the
    layer is not expanded; the cap check and the clock read still run for
    each state a full expansion would have reached, so `max_expanded_states`
    and `wall_budget_ms` trip on the same state as they would without the
    lookahead. Any other goal is tested on each new successor.

    A goal that grounding folded to false is unsolvable before any state is
    expanded. A frontier whose successors would pass `max_plan_length` ends
    the search before any of its states counts as expanded.
    """
    limits = limits or SearchLimits()
    deadline = time.monotonic() + limits.wall_budget_ms / 1000.0

    if isinstance(task.goal, GFalse):
        return Unsolvable()
    if task.goal.holds(task.init):
        return Plan(())

    actions = task.actions
    goal_masks = _literal_masks(task.goal)
    goal_pos, goal_neg = goal_masks or (0, 0)
    # need_on[i] and need_off[i] are the actions whose masks need bit i on
    # and off; `hard` holds the actions that take the formula path.
    # setters[b] are the actions that can make the goal literal on bit b
    # true, and `most` is the most goal literals one action can make true.
    need_on: dict[int, int] = {}
    need_off: dict[int, int] = {}
    setters: dict[int, int] = {}
    most = 0
    hard = 0
    effects = []
    for index, action in enumerate(actions):
        bit = 1 << index
        masks = action.pre_masks
        if masks is None:
            hard |= bit
        else:
            pos, neg = masks
            while pos:
                low = pos & -pos
                i = low.bit_length() - 1
                need_on[i] = need_on.get(i, 0) | bit
                pos ^= low
            while neg:
                low = neg & -neg
                i = low.bit_length() - 1
                need_off[i] = need_off.get(i, 0) | bit
                neg ^= low
        add, dele = action.add_mask, action.del_mask
        sets = add & goal_pos | dele & goal_neg
        if action.conditional:
            hard |= bit
            for _, c_add, c_del in action.conditional:
                sets |= c_add & goal_pos | c_del & goal_neg
        if sets:
            count = sets.bit_count()
            if count > most:
                most = count
            while sets:
                low = sets & -sets
                setters[low] = setters.get(low, 0) | bit
                sets ^= low
        effects.append((~dele, add))
    everything = (1 << len(actions)) - 1

    # One table per chunk that a literal reads: (shift, mask of the read
    # bits, (offset, need on, need off) per read bit, memo from the read
    # bits' value to the actions it admits).
    chunks: dict[int, list] = {}
    for i in need_on.keys() | need_off.keys():
        offset = i % _CHUNK_BITS
        table = chunks.get(i - offset)
        if table is None:
            table = chunks[i - offset] = [i - offset, 0, [], {}]
        table[1] |= 1 << offset
        table[2].append((offset, need_on.get(i, 0), need_off.get(i, 0)))
    tables = list(chunks.values())

    parent: dict[int, tuple[int, int] | None] = {task.init: None}
    frontier = [task.init]
    # The frontier's near states in order; the initial state is tried
    # whether it is near or not.
    near = [] if goal_masks is None else [task.init]
    layer = 0
    expanded = 0

    while frontier:
        if layer >= limits.max_plan_length:
            return ResourceExceeded("max-plan-length")
        for state in near:
            missing = state & goal_pos ^ goal_pos | state & goal_neg
            todo = setters.get(missing & -missing, 0)
            while todo:
                low = todo & -todo
                todo ^= low
                index = low.bit_length() - 1
                action = actions[index]
                if not action.applicable(state):
                    continue
                succ = apply(state, action)
                if succ & goal_pos != goal_pos or succ & goal_neg:
                    continue
                for _ in range(frontier.index(state) + 1):
                    expanded += 1
                    if expanded > limits.max_expanded_states:
                        return ResourceExceeded("max-expanded-states")
                    if time.monotonic() > deadline:
                        return ResourceExceeded("wall-budget")
                parent[succ] = (state, index)
                return _plan(parent, actions, succ)
        next_frontier: list[int] = []
        near = []
        for state in frontier:
            expanded += 1
            if expanded > limits.max_expanded_states:
                return ResourceExceeded("max-expanded-states")
            if time.monotonic() > deadline:
                return ResourceExceeded("wall-budget")
            todo = everything
            for shift, live, bits, memo in tables:
                value = state >> shift & live
                admitted = memo.get(value)
                if admitted is None:
                    refused = 0
                    for offset, on, off in bits:
                        refused |= off if value >> offset & 1 else on
                    admitted = memo[value] = everything & ~refused
                todo &= admitted
            while todo:
                low = todo & -todo
                todo ^= low
                index = low.bit_length() - 1
                keep, add = effects[index]
                succ = state & keep | add
                if low & hard:
                    action = actions[index]
                    if action.pre_masks is None and not action.precondition.holds(state):
                        continue
                    for cond, c_add, c_del in action.conditional:
                        if cond.holds(state):
                            succ = (succ & ~c_del) | c_add
                if succ in parent:
                    continue
                parent[succ] = (state, index)
                if goal_masks is None:
                    if task.goal.holds(succ):
                        return _plan(parent, actions, succ)
                elif (succ & goal_pos ^ goal_pos | succ & goal_neg).bit_count() <= most:
                    near.append(succ)
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
