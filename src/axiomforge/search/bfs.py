"""Level-by-level edit search: all depth-d candidates before any at d+1."""

from __future__ import annotations

from .common import SearchRun
from .config import SearchResult


def bfs_search(run: SearchRun) -> SearchResult:
    """Explore one proposal round at a time; the first success is returned,
    which makes it the minimal-edit-depth success among generated candidates."""
    root = run.root()
    if run.reached(root):
        return run.result(root)

    level = [root]
    for depth in range(1, run.cfg.max_depth + 1):
        first_new = len(run.steps)
        for node in level:
            for cand in run.expand(node, depth, f"bfs-depth-{depth}", "proposal {i} from step {step}"):
                if run.reached(cand):
                    return run.result(cand)
        level = run.steps[first_new:]  # the candidates this level recorded
        if not level:
            break
    return run.result()
