"""Search strategies over the space of rule edits, plus the run orchestrator.

Importing the package loads none of its submodules. Each re-exported name
is looked up in the submodule that defines it on first use (PEP 562), and
`run_search` imports what it runs, so a command that plans or parses pays
nothing for search, the proposer, distances or trajectories.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..distance import DistanceOracle
    from ..pddl import DomainAst, ProblemAst
    from ..planner import SearchLimits
    from ..proposer import ProposalOracle
    from .config import SearchConfig, SearchResult

# re-exported name -> the submodule that defines it
_EXPORTS = {
    "ALGORITHMS": "config",
    "CandidateEvaluator": "candidate",
    "EditCandidate": "candidate",
    "ObjectiveWeights": "candidate",
    "Provenance": "candidate",
    "SearchConfig": "config",
    "SearchResult": "config",
    "SearchRun": "common",
    "beam_search": "beam",
    "bfs_search": "bfs",
    "compactness": "candidate",
    "genetic_search": "genetic",
    "mcts_search": "mcts",
    "score": "candidate",
    "ucb1": "mcts",
}


def __getattr__(name: str):
    # Not cached in the package: the submodule's attribute is the one
    # object, so a wrapper put there and taken away again leaves no trace.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})


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
    from dataclasses import replace

    from .. import __version__
    from ..distance import LevenshteinMockOracle
    from ..pddl import print_canonical_problem
    from ..trajectory import TrajectoryHeader, TrajectoryWriter, content_hash
    from .beam import beam_search
    from .bfs import bfs_search
    from .candidate import CandidateEvaluator
    from .common import SearchRun
    from .genetic import genetic_search
    from .mcts import mcts_search

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


__all__ = sorted([*_EXPORTS, "run_search"])
