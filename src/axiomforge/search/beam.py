"""Beam search over rule edits, ranked by score then semantic closeness."""

from __future__ import annotations

from ..distance import DistanceOracle, semantic_rank
from .candidate import EditCandidate
from .common import SearchRun
from .config import SearchResult


def rank_pool(pool: list[EditCandidate], keep: int, reference: str, oracle: DistanceOracle) -> None:
    """Sort `pool`, whose canonical texts are distinct, by score, then by
    place among the candidates of that score.

    The `keep` candidates nearest `reference` by (edit distance, text)
    survive a pre-filter. Within a group of equal scores the oracle orders
    the group's survivors, when there are at least two, and the group's
    other members follow in edit-distance order. Only score ties ask the
    oracle, so a ranking makes at most `query_budget(keep)` queries.
    """
    by_lev = sorted(pool, key=lambda c: (c.lev_distance, c.canonical_text))
    groups: dict[float, tuple[list, list]] = {}  # score -> texts (near, far)
    for i, cand in enumerate(by_lev):
        groups.setdefault(cand.score, ([], []))[i >= keep].append(cand.canonical_text)
    place: dict[str, int] = {}  # canonical text -> place among its score's candidates
    for near, far in groups.values():
        if len(near) > 1:
            near = list(semantic_rank(reference, near, oracle).items)
        place.update((text, i) for i, text in enumerate(near + far))
    pool.sort(key=lambda c: (c.score, place[c.canonical_text]))


def beam_search(run: SearchRun, distance_oracle: DistanceOracle, observer=None) -> SearchResult:
    """Each iteration expands every beam member, ranks the pool with
    `rank_pool` (score first; the distance oracle only breaks ties among the
    2*beam_width candidates nearest the original), and keeps the best
    beam_width candidates. Oracle cost stays linear in the beam, and is 0
    when no two scores are equal.

    `observer(iteration, beam)` fires after each truncation."""
    cfg = run.cfg
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

        rank_pool(pool, min(2 * cfg.beam_width, len(pool)), run.evaluator.original_text, distance_oracle)
        for cand in pool:
            if run.reached(cand):
                return run.result(cand)
        beam = pool[: cfg.beam_width]
        if observer is not None:
            observer(iteration, tuple(beam))

    return run.result()
