"""Search configuration and the result every algorithm returns."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .. import bounded, check_bounds
from .candidate import EditCandidate, ObjectiveWeights

ALGORITHMS = ("bfs", "mcts", "genetic", "beam")


@dataclass(frozen=True)
class SearchConfig:
    algorithm: str
    target_length: int = field(metadata=bounded(0))
    beam_width: int = field(default=8, metadata=bounded(1))
    mcts_iterations: int = field(default=32, metadata=bounded(1))
    mcts_exploration_c: float = field(default=math.sqrt(2), metadata=bounded(0))
    ga_population: int = field(default=8, metadata=bounded(2))
    ga_generations: int = field(default=10, metadata=bounded(0))
    ga_mutation_rate: float = field(default=0.25, metadata=bounded(0, 1))
    max_depth: int = field(default=3, metadata=bounded(1))
    proposals_per_expansion: int = field(default=4, metadata=bounded(1))
    seed: int = 0
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{self.algorithm}'")
        check_bounds(self)

    def snapshot(self) -> dict:
        """The fields as `dataclasses.asdict` gives them, without its deep
        copy; the weights are copied, so the dict is the caller's own."""
        return dict(vars(self), weights=dict(vars(self.weights)))


@dataclass(frozen=True)
class SearchResult:
    best: EditCandidate | None
    success: bool
    explored: int
    oracle_calls: int
    trajectory_id: str | None = None
