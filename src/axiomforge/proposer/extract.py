"""The fenced-block format: quote PDDL for a prompt, and pull candidate
domains out of free-form oracle replies."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..pddl import DomainAst, PddlError, ProblemAst, parse_domain, print_canonical
from ..planner import RunCache

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


# An oracle text longer than this many times the run's original canonical
# text is dropped unread, which bounds what one hostile block costs. An edit
# changes a few axioms: 8 times the smallest corpus domain (hanoi, 342
# characters printed) is still more than the largest (maze, 1861).
MAX_TEXT_FACTOR = 8


class Intake:
    """Reads oracle text for one search run: `intake(text)` is the linked
    domain and its canonical text, or None when the text does not parse or
    link, or is more than MAX_TEXT_FACTOR times as long as `original_text`
    (such a text is not read at all). Each distinct text is read once and
    its answer kept. Texts are parsed form by form through the run's own
    form memo, so a declaration or action that an earlier text of the run
    held unchanged is neither read nor parsed again. It links through
    `cache`, the run's `RunCache` (a private one when none is given), so the
    evaluator finds the verdict there and does not link the domain to the
    problem again."""

    def __init__(self, problem: ProblemAst, original_text: str, cache: RunCache | None = None):
        self.problem = problem
        self._max_len = MAX_TEXT_FACTOR * len(original_text)
        self.cache = cache if cache is not None else RunCache()
        self._seen: dict = {}
        self._forms: dict = {}  # parse_domain's memo of forms, for this run only

    def __call__(self, text: str) -> tuple | None:
        if len(text) > self._max_len:
            return None
        if text not in self._seen:
            try:
                domain = parse_domain(text, self._forms)
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
