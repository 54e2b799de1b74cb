"""Deterministic canonical printing for domains and problems.

The canonical form is the substrate every text distance in this package is
computed over: lowercase identifiers, single spaces, two-space indents, one
formula per line inside actions. Declaration and conjunct order are
preserved; only the requirement set and problem init (both sets) are sorted.
``parse(print_canonical(d))`` is structurally equal to ``d`` and printing is
byte-idempotent.

A domain's text is its header block joined with one block per action. A
caller that prints many domains sharing objects (a search run's candidates,
read through one form memo) passes a dict that keeps each block's text under
the identity of the objects it was printed from: the domain name and the
`id` of its requirements, types, constants and predicates for the header,
the action's `id` for an action. An entry holds those objects, so none is
freed and no other object can take its id while the dict lives.
"""

from __future__ import annotations

from .ast import (
    ROOT_TYPE,
    ActionSchema,
    And,
    Atom,
    DomainAst,
    Eq,
    Forall,
    Formula,
    Not,
    Or,
    ProblemAst,
    TypeRef,
    When,
)


def _type_str(ref: TypeRef) -> str:
    if isinstance(ref, tuple):
        return "(either " + " ".join(ref) + ")"
    return ref


def _typed_list(entries: tuple) -> str:
    """Render a typed list; types are omitted only when all are `object`.

    Mixing bare and typed names could re-group under PDDL's dash rule, so a
    single non-object type forces explicit types on every entry.
    """
    if all(e.type == ROOT_TYPE for e in entries):
        return " ".join(e.name for e in entries)
    return " ".join(f"{e.name} - {_type_str(e.type)}" for e in entries)


def format_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return str(f)
    if isinstance(f, Eq):
        return f"(= {f.left} {f.right})"
    if isinstance(f, Not):
        return f"(not {format_formula(f.body)})"
    if isinstance(f, And):
        if not f.parts:
            return "(and)"
        return "(and " + " ".join(format_formula(p) for p in f.parts) + ")"
    if isinstance(f, Or):
        if not f.parts:
            return "(or)"
        return "(or " + " ".join(format_formula(p) for p in f.parts) + ")"
    if isinstance(f, Forall):
        return f"(forall ({_typed_list(f.variables)}) {format_formula(f.body)})"
    if isinstance(f, When):
        return f"(when {format_formula(f.condition)} {format_formula(f.effect)})"
    raise TypeError(f"not a formula: {f!r}")


def print_canonical(domain: DomainAst, blocks: dict | None = None) -> str:
    """The canonical text of `domain`, joined from its header block and one
    block per action.

    `blocks`, when given, keeps each block's text for later calls, keyed
    by identity as the module docstring says: hashing an AST walks it,
    while the form memo of `parse_domain` hands back the very objects of
    every form an edit left alone. Each entry holds the objects it was
    printed from, so their ids cannot be reused while the dict lives.
    Without `blocks`, a dict of this call's own is used.
    """
    if blocks is None:
        blocks = {}
    head = (domain.requirements, domain.types, domain.constants, domain.predicates)
    key = (domain.name, *map(id, head))
    entry = blocks.get(key)
    if entry is None:
        entry = blocks[key] = (_header_block(domain), head)
    texts = [entry[0]]
    for action in domain.actions:
        entry = blocks.get(id(action))
        if entry is None:
            entry = blocks[id(action)] = (_action_block(action), action)
        texts.append(entry[0])
    return "\n".join(texts) + ")\n"


def _header_block(domain: DomainAst) -> str:
    lines = [f"(define (domain {domain.name})"]
    if domain.requirements:
        lines.append("  (:requirements " + " ".join(sorted(domain.requirements)) + ")")
    if domain.types:
        lines.append(f"  (:types {_typed_list(domain.types)})")
    if domain.constants:
        lines.append(f"  (:constants {_typed_list(domain.constants)})")
    if domain.predicates:
        lines.append("  (:predicates")
        for i, pred in enumerate(domain.predicates):
            body = pred.name if not pred.params else f"{pred.name} {_typed_list(pred.params)}"
            suffix = ")" if i + 1 == len(domain.predicates) else ""
            lines.append(f"    ({body}){suffix}")
    return "\n".join(lines)


def _action_block(action: ActionSchema) -> str:
    return (
        f"  (:action {action.name}\n"
        f"    :parameters ({_typed_list(action.params)})\n"
        f"    :precondition {format_formula(action.precondition)}\n"
        f"    :effect {format_formula(action.effect)})"
    )


def print_canonical_problem(problem: ProblemAst) -> str:
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain_name})")
    if problem.objects:
        lines.append(f"  (:objects {_typed_list(problem.objects)})")
    if problem.init:
        lines.append("  (:init")
        atoms = sorted(problem.init, key=str)
        for i, atom in enumerate(atoms):
            close = "" if i + 1 < len(atoms) else ")"
            lines.append(f"    {atom}{close}")
    lines.append(f"  (:goal {format_formula(problem.goal)}))")
    return "\n".join(lines) + "\n"
