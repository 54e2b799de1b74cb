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

    def parent_types(self) -> dict:
        """Declared type -> parent map; every chain bottoms out at ``object``."""
        parents = {ROOT_TYPE: None}
        for t in self.types:
            parents[t.name] = t.type if isinstance(t.type, str) else ROOT_TYPE
        return parents

    def known_types(self) -> set:
        """Declared types plus types referenced in declarations (implicit)."""
        known = {ROOT_TYPE}
        for t in self.types:
            known.add(t.name)
            if isinstance(t.type, str):
                known.add(t.type)

        def visit(ref: TypeRef) -> None:
            if isinstance(ref, tuple):
                known.update(ref)
            else:
                known.add(ref)

        for pred in self.predicates:
            for p in pred.params:
                visit(p.type)
        for act in self.actions:
            for p in act.params:
                visit(p.type)
        for c in self.constants:
            visit(c.type)
        return known

    def is_subtype(self, sub: str, sup: str, parents: dict | None = None) -> bool:
        """`parents` is this domain's `parent_types()`, for a caller that
        asks many questions and builds the map once."""
        if sup == ROOT_TYPE or sub == sup:
            return True
        if parents is None:
            parents = self.parent_types()
        seen = set()
        cur: str | None = sub
        while cur is not None and cur not in seen:
            if cur == sup:
                return True
            seen.add(cur)
            cur = parents.get(cur)
        return False

    def matches_type(self, sub: str, target: TypeRef, parents: dict | None = None) -> bool:
        """True if an object of type `sub` fits a slot typed `target`;
        `parents` as for `is_subtype`."""
        if isinstance(target, tuple):
            return any(self.is_subtype(sub, t, parents) for t in target)
        return self.is_subtype(sub, target, parents)


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple
    init: frozenset
    goal: Formula


@dataclass(frozen=True)
class LinkedTask:
    """A domain/problem pair that passed cross-validation; ready to ground."""

    domain: DomainAst
    problem: ProblemAst
