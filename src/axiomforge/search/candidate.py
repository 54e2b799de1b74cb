"""Candidate scoring: plan length plus compactness and locality penalties."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..distance import levenshtein
from ..pddl import Atom, DomainAst, Eq, PddlError, ProblemAst, print_canonical, walk
from ..planner import (
    GroundingExplosion,
    Plan,
    ResourceExceeded,
    RunCache,
    SearchLimits,
    SolveResult,
    ground,
    solve,
)


@dataclass(frozen=True)
class ObjectiveWeights:
    """alpha weighs distance to the original rules, lam weighs rule size."""

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
    """Lower is better; infeasible candidates cost the unsolvable penalty."""
    if isinstance(candidate.plan_result, Plan) and candidate.regression_ok:
        return (
            candidate.plan_result.length
            + weights.lam * candidate.compactness
            + weights.alpha * candidate.lev_distance
        )
    return weights.unsolvable_penalty


class CandidateEvaluator:
    """Grounds, solves, and scores candidate domains against one task.

    Evaluations are memoized by the canonical text the caller passes in
    (the run's intake printed it once): proposing the same edit twice
    returns the first EditCandidate untouched, so step records stay unique
    per distinct rule set. `evaluations` counts cache misses.

    Links and grounding go through `cache`, a `RunCache` that a search run
    replaces with its own, shared with its intake: a candidate's link to the
    flagship is then the intake's verdict, and the compiles, bindings and
    lowerings of the actions it shares with earlier candidates are reused.
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
        self.regression = list(regression)
        self.limits = limits or SearchLimits()
        self.weights = weights or ObjectiveWeights()
        self.evaluations = 0
        self.cache = RunCache()
        self._memo: dict = {}

    def _solve(self, domain: DomainAst, problem: ProblemAst) -> SolveResult:
        return solve(ground(self.cache.link(domain, problem), cache=self.cache), self.limits)

    def evaluate(self, domain: DomainAst, text: str, provenance: Provenance) -> EditCandidate:
        """Score `domain`, whose canonical text is `text`."""
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
            # The suite usually holds the flagship too; reuse its result.
            cand.regression_ok = all(
                isinstance(cand.plan_result if prob == self.problem else self._solve(domain, prob), Plan)
                for prob in self.regression
            )
            cand.score = score(cand, self.weights)
        except (GroundingExplosion, PddlError) as exc:
            cand.plan_result = ResourceExceeded(f"grounding failed: {exc.__class__.__name__}")
            cand.regression_ok = False
            cand.score = math.inf
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
