"""Beam search over rule edits, ranked by score then semantic closeness."""

from __future__ import annotations

from ..distance import DistanceOracle, hybrid_rank
from ..proposer import ProposalContext, ProposalOracle
from .candidate import CandidateEvaluator
from .common import SearchRun, StepRecorder
from .config import SearchConfig, SearchResult


def beam_search(
    cfg: SearchConfig,
    ctx: ProposalContext,
    oracle: ProposalOracle,
    distance_oracle: DistanceOracle,
    *,
    evaluator: CandidateEvaluator,
    recorder: StepRecorder | None = None,
    observer=None,
) -> SearchResult:
    """Each iteration expands every beam member, ranks the pool by
    (score, hybrid rank position vs. the original, canonical text), and keeps
    the best beam_width candidates. The hybrid pre-filter keeps 2*beam_width
    survivors, so oracle cost stays linear in the beam.

    `observer(iteration, beam)` fires after each truncation."""
    run = SearchRun(cfg, ctx, oracle, evaluator, recorder)
    root = run.root()
    if run.reached(root):
        return run.result(root)

    beam = [root]
    for iteration in range(1, cfg.max_depth + 1):
        pool = list(beam)
        seen = {c.canonical_text for c in beam}
        for node in beam:
            for cand in run.expand(node, iteration, f"beam-iter-{iteration}", "proposal {i} from step {step}"):
                if cand.canonical_text not in seen:
                    seen.add(cand.canonical_text)
                    pool.append(cand)

        keep = min(2 * cfg.beam_width, len(pool))
        ranking = hybrid_rank(
            evaluator.original_text,
            [c.canonical_text for c in pool],
            keep,
            distance_oracle,
        )
        position = {text: i for i, text in enumerate(ranking.items)}
        for cand in pool:
            cand.semantic_rank_position = position[cand.canonical_text]
        pool.sort(key=lambda c: (c.score, c.semantic_rank_position, c.canonical_text))

        for cand in pool:
            if run.reached(cand):
                return run.result(cand)
        beam = pool[: cfg.beam_width]
        if observer is not None:
            observer(iteration, tuple(beam))

    return run.result()
