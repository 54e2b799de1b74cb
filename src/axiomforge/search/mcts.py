"""Monte Carlo tree search over rule edits: UCB1 selection, random rollouts."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .candidate import EditCandidate, Provenance
from .common import SearchRun
from .config import SearchResult


def ucb1(mean_reward: float, node_visits: int, parent_visits: int, c: float) -> float:
    """Unvisited nodes sort first; otherwise mean + c*sqrt(ln(parent)/visits)."""
    if node_visits == 0:
        return math.inf
    return mean_reward + c * math.sqrt(math.log(parent_visits) / node_visits)


@dataclass
class _Node:
    cand: EditCandidate
    children: list = field(default_factory=list)
    visits: int = 0
    total_reward: float = 0.0
    expanded: bool = False

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0


def _select_child(node: _Node, c: float) -> _Node:
    """UCB1 argmax over children; ties resolve to the lowest child index."""
    best_child = node.children[0]
    best_value = ucb1(best_child.mean_reward, best_child.visits, node.visits, c)
    for child in node.children[1:]:
        value = ucb1(child.mean_reward, child.visits, node.visits, c)
        if value > best_value:
            best_child, best_value = child, value
    return best_child


def mcts_search(run: SearchRun, observer=None) -> SearchResult:
    """Reward is the normalized plan-length improvement over the original,
    clamped to [0, 1]; unsolvable or regression-breaking candidates earn 0.

    `observer(iteration, root)` fires after each backpropagation, mainly so
    tests can check visit-count bookkeeping on the tree."""
    cfg = run.cfg
    rng = random.Random(cfg.seed)
    root_cand = run.root()
    if run.reached(root_cand):
        return run.result(root_cand)
    baseline = root_cand.plan_length

    def reward(cand: EditCandidate) -> float:
        length = cand.plan_length
        if length is None or not cand.regression_ok:
            return 0.0
        if baseline is None:
            return 1.0
        if baseline == 0:
            return 0.0
        return min(1.0, max(0.0, (baseline - length) / baseline))

    root = _Node(root_cand)
    found: EditCandidate | None = None

    for iteration in range(1, cfg.mcts_iterations + 1):
        node = root
        path = [root]
        while node.expanded and node.children:
            node = _select_child(node, cfg.mcts_exploration_c)
            path.append(node)

        if not node.expanded:
            node.expanded = True
            for cand in run.expand(node.cand, iteration, "mcts-expand", "expansion {i} of step {step}"):
                if found is None and run.reached(cand):
                    found = cand
                node.children.append(_Node(cand))
            if node.children:
                node = _select_child(node, cfg.mcts_exploration_c)
                path.append(node)

        value = reward(node.cand)
        proposals = run.propose(node.cand)
        if proposals:
            domain, text = proposals[rng.randrange(len(proposals))]
            provenance = Provenance(
                node.cand.step_id, iteration, f"rollout from step {node.cand.step_id}"
            )
            rollout_cand = run.evaluate(domain, text, provenance, "mcts-rollout")
            if found is None and run.reached(rollout_cand):
                found = rollout_cand
            value = max(value, reward(rollout_cand))

        for n in path:
            n.visits += 1
            n.total_reward += value

        if observer is not None:
            observer(iteration, root)
        if found is not None:
            return run.result(found)

    return run.result()
