"""Pull candidate domains out of free-form oracle replies."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..pddl import DomainAst, PddlError, ProblemAst, parse_domain, print_canonical
from ..planner import RunCache

_FENCE = re.compile(r"```[a-zA-Z0-9_-]*[ \t]*\r?\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class ExtractionResult:
    domains: tuple
    dropped: int


def fenced_blocks(raw_response: str) -> list[str]:
    """The text inside every fenced block of a reply, in order; unparsed."""
    return _FENCE.findall(raw_response)


def extract_candidates(raw_response: str) -> ExtractionResult:
    """Parse every fenced block as a domain; never raises on garbage input.

    Returns the valid domains in order of appearance plus the count of
    blocks that failed to parse or validate. The cut to k is left to
    `filter_linkable`, so unlinkable blocks cannot hide a valid one.
    """
    domains: list[DomainAst] = []
    dropped = 0
    for block in fenced_blocks(raw_response):
        try:
            domains.append(parse_domain(block))
        except PddlError:
            dropped += 1
    return ExtractionResult(tuple(domains), dropped)


class Intake:
    """Reads oracle text for one search run: `intake(text)` is the linked
    domain and its canonical text, or None when the text does not parse or
    link. Each distinct text is read once and its answer kept. It links
    through `cache`, the run's `RunCache` (a private one when none is
    given), so the evaluator finds the verdict there and does not link the
    domain to the problem again."""

    def __init__(self, problem: ProblemAst, cache: RunCache | None = None):
        self.problem = problem
        self.cache = cache if cache is not None else RunCache()
        self._seen: dict = {}

    def __call__(self, text: str) -> tuple | None:
        if text not in self._seen:
            try:
                domain = parse_domain(text)
                self.cache.link(domain, self.problem)
                self._seen[text] = (domain, print_canonical(domain))
            except PddlError:
                self._seen[text] = None
        return self._seen[text]


def filter_linkable(texts, intake: Intake, k: int) -> list:
    """The first k distinct (domain, canonical text) pairs the intake
    accepts among oracle texts, in order; no text after the k-th is read.
    Downstream search never sees a domain it cannot ground."""
    kept: dict = {}  # canonical text -> first pair with it
    for text in texts:
        if len(kept) >= k:
            break
        entry = intake(text)
        if entry is not None:
            kept.setdefault(entry[1], entry)
    return list(kept.values())
