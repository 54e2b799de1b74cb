"""Candidate scoring: plan length plus compactness and locality penalties."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..distance import levenshtein
from ..pddl import Atom, DomainAst, Eq, PddlError, ProblemAst, parse_domain, print_canonical, walk
from ..planner import (
    GroundingExplosion,
    Plan,
    RunCache,
    SearchLimits,
    SolveResult,
    ground,
    solve,
)


@dataclass(frozen=True)
class ObjectiveWeights:
    """alpha weighs distance to the original, lam rule size; a failure costs the penalty."""

    alpha: float = 0.01
    lam: float = 0.01
    unsolvable_penalty: float = 1e6

    def __post_init__(self) -> None:
        # Written so that NaN, for which every comparison is False, fails.
        if not (0 <= self.alpha < math.inf and 0 <= self.lam < math.inf
                and 0 < self.unsolvable_penalty < math.inf):
            raise ValueError("weights must be finite and non-negative, penalty positive")


def compactness(domain: DomainAst) -> int:
    """Rule-set size: total literal count over all preconditions and effects."""
    return sum(
        isinstance(node, (Atom, Eq))
        for a in domain.actions
        for f in (a.precondition, a.effect)
        for node in walk(f)
    )


@dataclass(frozen=True)
class Provenance:
    parent_id: int | None
    oracle_round: int
    description: str


@dataclass
class EditCandidate:
    domain: DomainAst
    canonical_text: str
    provenance: Provenance
    plan_result: SolveResult | None = None
    regression_ok: bool = False
    compactness: int = 0
    lev_distance: int = 0
    # Set by beam: the position among candidates of equal score in its
    # last ranked pool (0 for a score no other candidate had).
    semantic_rank_position: int | None = None
    score: float = math.inf
    step_id: int | None = None

    @property
    def plan_length(self) -> int | None:
        if isinstance(self.plan_result, Plan):
            return self.plan_result.length
        return None

    def meets_target(self, target_length: int) -> bool:
        length = self.plan_length
        return length is not None and length <= target_length and self.regression_ok


def score(candidate: EditCandidate, weights: ObjectiveWeights) -> float:
    """Lower is better. A candidate with no flagship plan, or one that breaks
    a suite problem, costs `unsolvable_penalty`, whatever the failure:
    no plan, a resource limit, a grounding explosion or a failed link."""
    if isinstance(candidate.plan_result, Plan) and candidate.regression_ok:
        return (
            candidate.plan_result.length
            + weights.lam * candidate.compactness
            + weights.alpha * candidate.lev_distance
        )
    return weights.unsolvable_penalty


# An oracle text longer than this many times the run's original canonical
# text is dropped unread, which bounds what one hostile block costs. An edit
# changes a few axioms: 8 times the smallest corpus domain (hanoi, 342
# characters printed) is still more than the largest (maze, 1861).
MAX_TEXT_FACTOR = 8


class CandidateEvaluator:
    """Reads, grounds, solves, and scores candidate domains against one task.

    `read` turns oracle text into a linked domain and its canonical text.
    Evaluations are memoized by that canonical text: proposing the same
    edit twice returns the first EditCandidate untouched, so step records
    stay unique per distinct rule set. `evaluations` counts cache misses.

    Links and grounding go through `cache`, the evaluator's `RunCache`,
    which holds the original's link first (a task that does not link
    raises `PddlError` here): a candidate's link to the flagship is then
    the verdict `read` reached, and the compiles, bindings and lowerings of
    the actions it shares with earlier candidates are reused. An evaluator
    serves one run, since its memoized candidates carry that run's step ids.
    """

    def __init__(
        self,
        original: DomainAst,
        problem: ProblemAst,
        regression: list,
        limits: SearchLimits | None = None,
        weights: ObjectiveWeights | None = None,
    ):
        self.original = original
        self.original_text = print_canonical(original)
        self.problem = problem
        # The suite usually holds the flagship too, whose result each
        # evaluation reuses; None stands for it, decided here once.
        self._suite = [None if prob == problem else prob for prob in regression]
        self.limits = limits or SearchLimits()
        self.weights = weights or ObjectiveWeights()
        self.evaluations = 0
        self.cache = RunCache()
        self.cache.link(original, problem)
        self._max_len = MAX_TEXT_FACTOR * len(self.original_text)
        self._read: dict = {}  # oracle text -> read's answer
        self._forms: dict = {}  # parse_domain's memo of forms, for this run only
        self._memo: dict = {}

    def read(self, text: str) -> tuple | None:
        """The linked domain in oracle `text` and its canonical text, or None
        when it does not parse or link, or is more than MAX_TEXT_FACTOR times
        as long as the original (then it is not read at all). Each distinct
        text is read once, form by form through the run's form memo, so a
        declaration or action an earlier text held unchanged is neither read
        nor parsed again."""
        if len(text) > self._max_len:
            return None
        if text not in self._read:
            try:
                domain = parse_domain(text, self._forms)
                self.cache.link(domain, self.problem)
                self._read[text] = (domain, print_canonical(domain))
            except PddlError:
                self._read[text] = None
        return self._read[text]

    def _solve(self, domain: DomainAst, problem: ProblemAst) -> SolveResult:
        return solve(ground(self.cache.link(domain, problem), cache=self.cache), self.limits)

    def evaluate(self, domain: DomainAst, text: str, provenance: Provenance) -> EditCandidate:
        """Score `domain`, whose canonical text is `text`: the flagship first, then
        the suite. A grounding explosion or a failed link stops the evaluation."""
        hit = self._memo.get(text)
        if hit is not None:
            return hit
        cand = EditCandidate(
            domain=domain,
            canonical_text=text,
            provenance=provenance,
            compactness=compactness(domain),
            lev_distance=levenshtein(self.original_text, text),
        )
        try:
            cand.plan_result = self._solve(domain, self.problem)
            cand.regression_ok = all(
                isinstance(cand.plan_result if prob is None else self._solve(domain, prob), Plan)
                for prob in self._suite
            )
        except (GroundingExplosion, PddlError):
            pass
        cand.score = score(cand, self.weights)
        self.evaluations += 1
        self._memo[text] = cand
        return cand

    def evaluate_many(self, items: list) -> list:
        """Evaluate (domain, text, provenance) triples, results in input order.

        Entries with the same canonical text as an earlier one, in this
        batch or before it, return that earlier candidate.
        """
        return [self.evaluate(domain, text, provenance) for domain, text, provenance in items]

    def evaluate_root(self) -> EditCandidate:
        return self.evaluate(self.original, self.original_text, Provenance(None, 0, "original"))
