"""AST for the supported PDDL subset.

All nodes are frozen dataclasses compared structurally, so two parses of
equivalent text (modulo whitespace, comments, and letter case) are equal.
Types are plain strings; an ``(either a b)`` type is a tuple of strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

ROOT_TYPE = "object"

TypeRef = Union[str, tuple]


@dataclass(frozen=True)
class TypedName:
    """An identifier with a type, as found in typed lists."""

    name: str
    type: TypeRef = ROOT_TYPE


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return f"({self.name})"
        return f"({self.name} {' '.join(self.args)})"


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple = ()


@dataclass(frozen=True)
class Or:
    parts: tuple = ()


@dataclass(frozen=True)
class Forall:
    variables: tuple
    body: "Formula"


@dataclass(frozen=True)
class When:
    condition: "Formula"
    effect: "Formula"


Formula = Union[Atom, Eq, Not, And, Or, Forall, When]


def walk(f: Formula) -> Iterator[Formula]:
    """Every node of `f` in pre-order: each node before its parts, and the
    parts in document order (a `when`'s condition before its effect). The
    walk keeps an explicit stack, so it leaves no reference cycle and has no
    depth limit."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Atom, Eq)):
            continue
        if isinstance(node, (And, Or)):
            stack.extend(reversed(node.parts))
        elif isinstance(node, (Not, Forall)):
            stack.append(node.body)
        elif isinstance(node, When):
            stack += (node.effect, node.condition)
        else:
            raise TypeError(f"not a formula: {node!r}")


@dataclass(frozen=True)
class PredicateDecl:
    name: str
    params: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple
    precondition: Formula
    effect: Formula


@dataclass(frozen=True)
class DomainAst:
    name: str
    requirements: frozenset
    types: tuple
    constants: tuple
    predicates: tuple
    actions: tuple

    def predicate(self, name: str) -> PredicateDecl | None:
        for p in self.predicates:
            if p.name == name:
                return p
        return None

    def action(self, name: str) -> ActionSchema | None:
        for a in self.actions:
            if a.name == name:
                return a
        return None


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple
    init: frozenset
    goal: Formula


def type_ancestors(types: tuple) -> dict:
    """Each type that `types` declares or names as a parent -> the set of
    types an object of it fits: itself, its chain of parents and ``object``.
    The first declaration of a type counts, and an ``either`` parent counts
    as ``object``. A chain ends where it meets itself, so a cyclic hierarchy
    built by hand still ends."""
    parents: dict = {}
    for t in types:
        parents.setdefault(t.name, t.type if isinstance(t.type, str) else ROOT_TYPE)
    ancestors: dict = {}
    for name in (ROOT_TYPE, *parents, *parents.values()):
        if name not in ancestors:
            chain = set()
            cur = name
            while cur not in chain:
                chain.add(cur)
                cur = parents.get(cur, ROOT_TYPE)
            chain.add(ROOT_TYPE)  # a cycle that misses `object` ends before it
            ancestors[name] = frozenset(chain)
    return ancestors


def fits_type(ancestors: dict, sub: str, target: TypeRef) -> bool:
    """Whether an object of type `sub` fits a slot typed `target`, where
    `ancestors` is the map `type_ancestors` built. A type the map lacks fits
    itself and ``object``; an ``either`` target fits when any member does."""
    if isinstance(target, tuple):
        return any(fits_type(ancestors, sub, t) for t in target)
    return target == ROOT_TYPE or target == sub or target in ancestors.get(sub, ())


def object_types(domain: DomainAst, problem: ProblemAst) -> dict:
    """Each constant of `domain` and object of `problem` -> its type, an
    ``either`` type counting as ``object``. An object named like a constant
    takes the constant's place."""
    named = (*domain.constants, *problem.objects)
    return {o.name: o.type if isinstance(o.type, str) else ROOT_TYPE for o in named}


@dataclass(frozen=True)
class LinkedTask:
    """A domain/problem pair that passed cross-validation; ready to ground."""

    domain: DomainAst
    problem: ProblemAst
