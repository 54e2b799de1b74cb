"""Search strategies over the space of rule edits, plus the run orchestrator."""

from __future__ import annotations

from dataclasses import replace

from .. import __version__
from ..distance import DistanceOracle, LevenshteinMockOracle
from ..pddl import DomainAst, ProblemAst, print_canonical_problem
from ..planner import SearchLimits
from ..proposer import ProposalOracle
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
from .common import SearchRun
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
    """Open a `SearchRun` on the task and let the configured algorithm steer
    it, optionally recording a trajectory file. The returned result carries
    the run id when recording."""
    evaluator = CandidateEvaluator(domain, problem, regression, limits=limits, weights=cfg.weights)
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
    run = SearchRun(cfg, oracle, evaluator, writer)

    try:
        if cfg.algorithm == "bfs":
            result = bfs_search(run)
        elif cfg.algorithm == "mcts":
            result = mcts_search(run)
        elif cfg.algorithm == "genetic":
            result = genetic_search(run)
        else:
            result = beam_search(run, distance_oracle or LevenshteinMockOracle())
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
    "SearchRun",
    "beam_search",
    "bfs_search",
    "compactness",
    "genetic_search",
    "mcts_search",
    "run_search",
    "score",
    "ucb1",
]
