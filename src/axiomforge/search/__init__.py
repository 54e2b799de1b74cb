"""Search strategies over the space of rule edits, plus the run orchestrator."""

from __future__ import annotations

from dataclasses import replace

from .. import __version__
from ..distance import DistanceOracle, LevenshteinMockOracle
from ..pddl import DomainAst, ProblemAst, print_canonical_problem
from ..planner import SearchLimits
from ..proposer import ProposalContext, ProposalOracle
from ..trajectory import TrajectoryHeader, TrajectoryWriter, content_hash
from .beam import beam_search
from .bfs import bfs_search
from .candidate import (
    CandidateEvaluator,
    EditCandidate,
    ObjectiveWeights,
    Provenance,
    compactness,
    score,
)
from .common import StepRecorder
from .config import ALGORITHMS, SearchConfig, SearchResult
from .genetic import genetic_search
from .mcts import mcts_search, ucb1


def run_search(
    cfg: SearchConfig,
    domain: DomainAst,
    problem: ProblemAst,
    regression: list,
    oracle: ProposalOracle,
    *,
    distance_oracle: DistanceOracle | None = None,
    limits: SearchLimits | None = None,
    trajectory_path=None,
) -> SearchResult:
    """Run the configured algorithm end to end, optionally recording a
    trajectory file. The returned result carries the run id when recording."""
    evaluator = CandidateEvaluator(domain, problem, regression, limits=limits, weights=cfg.weights)
    base_ctx = ProposalContext(
        domain=domain,
        problem=problem,
        baseline_length=None,
        target_length=cfg.target_length,
    )

    writer = None
    run_id = None
    if trajectory_path is not None:
        header = TrajectoryHeader.new(
            config=cfg.snapshot(),
            original_domain_text=evaluator.original_text,
            problem_text=print_canonical_problem(problem),
            corpus_domain_name=domain.name,
            seed=cfg.seed,
            engine_version=__version__,
        )
        writer = TrajectoryWriter(trajectory_path, header)
        run_id = header.run_id
    recorder = StepRecorder(writer)

    try:
        if cfg.algorithm == "bfs":
            result = bfs_search(cfg, base_ctx, oracle, evaluator=evaluator, recorder=recorder)
        elif cfg.algorithm == "mcts":
            result = mcts_search(cfg, base_ctx, oracle, evaluator=evaluator, recorder=recorder)
        elif cfg.algorithm == "genetic":
            result = genetic_search(cfg, base_ctx, oracle, evaluator=evaluator, recorder=recorder)
        else:
            result = beam_search(
                cfg,
                base_ctx,
                oracle,
                distance_oracle or LevenshteinMockOracle(),
                evaluator=evaluator,
                recorder=recorder,
            )
        if writer is not None:
            best = result.best
            writer.finalize(
                {
                    "success": result.success,
                    "best_length": best.plan_length if best is not None else None,
                    "best_hash": content_hash(best.canonical_text) if best is not None else None,
                    "explored": result.explored,
                    "oracle_calls": result.oracle_calls,
                    "algorithm": cfg.algorithm,
                }
            )
        return replace(result, trajectory_id=run_id)
    finally:
        if writer is not None:
            writer.close()


__all__ = [
    "ALGORITHMS",
    "CandidateEvaluator",
    "EditCandidate",
    "ObjectiveWeights",
    "Provenance",
    "SearchConfig",
    "SearchResult",
    "StepRecorder",
    "beam_search",
    "bfs_search",
    "compactness",
    "genetic_search",
    "mcts_search",
    "run_search",
    "score",
    "ucb1",
]
