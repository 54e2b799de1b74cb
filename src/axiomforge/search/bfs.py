"""Level-by-level edit search: all depth-d candidates before any at d+1."""

from __future__ import annotations

from ..proposer import ProposalContext, ProposalOracle
from .candidate import CandidateEvaluator
from .common import SearchRun, StepRecorder
from .config import SearchConfig, SearchResult


def bfs_search(
    cfg: SearchConfig,
    ctx: ProposalContext,
    oracle: ProposalOracle,
    *,
    evaluator: CandidateEvaluator,
    recorder: StepRecorder | None = None,
) -> SearchResult:
    """Explore one proposal round at a time; the first success is returned,
    which makes it the minimal-edit-depth success among generated candidates."""
    if cfg.max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    run = SearchRun(cfg, ctx, oracle, evaluator, recorder)
    root = run.root()
    if run.reached(root):
        return run.result(root)

    level = [root]
    for depth in range(1, cfg.max_depth + 1):
        first_new = len(run.steps)
        for node in level:
            for cand in run.expand(node, depth, f"bfs-depth-{depth}", "proposal {i} from step {step}"):
                if run.reached(cand):
                    return run.result(cand)
        level = run.steps[first_new:]  # the candidates this level recorded
        if not level:
            break
    return run.result()
