"""Embedded game corpus: twelve domains plus authored problem instances."""

from __future__ import annotations

from ..pddl import ProblemAst, parse_problem
from .domains import DOMAIN_TEXTS
from .problems import PROBLEM_TEXTS
from . import variants

CORPUS_NAMES = tuple(sorted(DOMAIN_TEXTS))


class UnknownDomain(KeyError):
    """Requested corpus entry does not exist.

    A `KeyError` prints the repr of its key; this prints its message as is.
    """

    def __str__(self) -> str:
        return str(self.args[0])


class CorpusProblem:
    """An authored problem instance and its optimal plan length."""

    def __init__(self, name: str, text: str, optimal_length: int):
        self.name = name
        self.text = text
        self.optimal_length = optimal_length


class CorpusEntry:
    """A domain's text and its problems, the flagship first."""

    def __init__(self, name: str, domain_text: str, problems: tuple):
        self.name = name
        self.domain_text = domain_text
        self.problems = problems

    def problem(self, name: str) -> CorpusProblem:
        for p in self.problems:
            if p.name == name:
                return p
        raise UnknownDomain(f"{self.name} has no problem named '{name}'")

    @property
    def flagship(self) -> CorpusProblem:
        return self.problems[0]


def load(name: str) -> CorpusEntry:
    """Return the embedded entry for `name`; no filesystem access."""
    if name not in DOMAIN_TEXTS:
        raise UnknownDomain(name)
    problems = tuple(CorpusProblem(*entry) for entry in PROBLEM_TEXTS[name])
    return CorpusEntry(name=name, domain_text=DOMAIN_TEXTS[name], problems=problems)


def regression_suite(name: str) -> list[ProblemAst]:
    """Parsed, previously-solvable problems a modified rule set must keep solvable."""
    return [parse_problem(p.text) for p in load(name).problems]


__all__ = [
    "CORPUS_NAMES",
    "CorpusEntry",
    "CorpusProblem",
    "UnknownDomain",
    "load",
    "regression_suite",
    "variants",
]
