"""Pull candidate domains out of free-form oracle replies."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..pddl import DomainAst, PddlError, ProblemAst, link, parse_domain, print_canonical

_FENCE = re.compile(r"```[a-zA-Z0-9_-]*[ \t]*\r?\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class ExtractionResult:
    domains: tuple
    dropped: int


def extract_candidates(raw_response: str) -> ExtractionResult:
    """Parse every fenced block as a domain; never raises on garbage input.

    Returns the valid domains in order of appearance plus the count of
    blocks that failed to parse or validate. The cut to k is left to
    `filter_linkable`, so unlinkable blocks cannot hide a valid one.
    """
    domains: list[DomainAst] = []
    dropped = 0
    for match in _FENCE.finditer(raw_response):
        try:
            domains.append(parse_domain(match.group(1)))
        except PddlError:
            dropped += 1
    return ExtractionResult(tuple(domains), dropped)


def filter_linkable(domains, problem: ProblemAst, k: int) -> list:
    """Keep candidates that link against the problem, deduped by canonical text.

    Every candidate leaving the proposer goes through here, so downstream
    search never sees a domain it cannot ground.
    """
    kept: list[DomainAst] = []
    seen: set[str] = set()
    for dom in domains:
        if len(kept) >= k:
            break
        try:
            link(dom, problem)
        except PddlError:
            continue
        text = print_canonical(dom)
        if text in seen:
            continue
        seen.add(text)
        kept.append(dom)
    return kept
