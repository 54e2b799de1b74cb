"""Proposal oracle interface, the context it is given, and the
deterministic scripted implementation."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from .. import bounded, check_bounds
from ..corpus import variants
from ..pddl import DomainAst, ProblemAst


@dataclass(frozen=True)
class ProposalContext:
    """What a proposal oracle gets to see when asked for rule edits."""

    domain: DomainAst
    problem: ProblemAst
    baseline_length: int | None  # None when the goal is unreachable
    target_length: int = field(metadata=bounded(0))
    failure_summary: str = ""
    history: tuple = ()  # summaries of earlier candidates, oldest first

    __post_init__ = check_bounds


class NoScriptMatch(Exception):
    """No script entry matched the proposal context."""


class ProposalOracle(ABC):
    """Source of candidate rule edits; also crossover/mutation for the GA.

    `calls` counts oracle invocations so search results can account for
    oracle usage regardless of the backing transport.
    """

    def __init__(self) -> None:
        self.calls = 0

    @abstractmethod
    def propose(self, ctx: ProposalContext, k: int) -> list:
        """Candidate domain texts, best guesses first, for a caller that
        keeps k. An oracle may return more, and texts that do not parse or
        link: the run's evaluator reads each distinct text once and
        `filter_linkable` keeps the first k distinct ones that link."""

    @abstractmethod
    def crossover(self, ctx: ProposalContext, parent_a: str, parent_b: str) -> str:
        ...

    @abstractmethod
    def mutate(self, ctx: ProposalContext, candidate: str) -> str:
        ...


@dataclass(frozen=True)
class ScriptEntry:
    trigger: Callable
    responses: tuple


class ScriptedOracle(ProposalOracle):
    """Replays canned domain texts; fully deterministic, no network.

    The first entry whose trigger accepts the context supplies the
    responses. Crossover returns parent A and mutation is the identity,
    keeping genetic runs reproducible.
    """

    def __init__(self, entries):
        super().__init__()
        self.entries = tuple(entries)

    def propose(self, ctx: ProposalContext, k: int) -> list:
        self.calls += 1
        for entry in self.entries:
            if entry.trigger(ctx):
                return list(entry.responses[:k])
        raise NoScriptMatch(ctx.domain.name)

    def crossover(self, ctx: ProposalContext, parent_a: str, parent_b: str) -> str:
        self.calls += 1
        return parent_a

    def mutate(self, ctx: ProposalContext, candidate: str) -> str:
        self.calls += 1
        return candidate


def builtin_script() -> ScriptedOracle:
    """Ships the blocksworld entry: a multi-block lift variant and a
    mid-stack extraction variant, in that order."""
    return ScriptedOracle(
        [
            ScriptEntry(
                trigger=lambda ctx: ctx.domain.name == "blocksworld",
                responses=(variants.MULTI_LIFT, variants.MID_EXTRACT),
            )
        ]
    )
