"""The fenced-block format: quote PDDL for a prompt, and pull candidate
domains out of free-form oracle replies."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..pddl import DomainAst, PddlError, parse_domain

_FENCE = re.compile(r"```[a-zA-Z0-9_-]*[ \t]*\r?\n(.*?)```", re.DOTALL)


def fenced(text: str) -> str:
    """`text` in a ```pddl block, less its trailing newlines; `_FENCE`
    reads it back."""
    return "```pddl\n" + text.rstrip("\n") + "\n```"


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


def filter_linkable(texts, read, k: int) -> list:
    """The first k distinct (domain, canonical text) pairs that `read`, a
    run evaluator's, accepts among oracle texts, in order; no text after
    the k-th is read. Downstream search never sees a domain it cannot ground."""
    kept: dict = {}  # canonical text -> first pair with it
    for text in texts:
        if len(kept) >= k:
            break
        entry = read(text)
        if entry is not None:
            kept.setdefault(entry[1], entry)
    return list(kept.values())
