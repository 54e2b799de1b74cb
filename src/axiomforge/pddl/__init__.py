"""PDDL front end: AST, parser, validator, linker, canonical printer."""

from .ast import (
    ROOT_TYPE,
    ActionSchema,
    And,
    Atom,
    DomainAst,
    Eq,
    Forall,
    Formula,
    LinkedTask,
    Not,
    Or,
    PredicateDecl,
    ProblemAst,
    TypedName,
    When,
    walk,
)
from .errors import Diagnostic, PddlError
from .parser import SUPPORTED_REQUIREMENTS, file_forms, link, parse_domain, parse_problem
from .printer import format_formula, print_canonical, print_canonical_problem

__all__ = [
    "ROOT_TYPE",
    "ActionSchema",
    "And",
    "Atom",
    "Diagnostic",
    "DomainAst",
    "Eq",
    "Forall",
    "Formula",
    "LinkedTask",
    "Not",
    "Or",
    "PddlError",
    "PredicateDecl",
    "ProblemAst",
    "SUPPORTED_REQUIREMENTS",
    "TypedName",
    "When",
    "file_forms",
    "format_formula",
    "link",
    "parse_domain",
    "parse_problem",
    "print_canonical",
    "print_canonical_problem",
    "walk",
]
