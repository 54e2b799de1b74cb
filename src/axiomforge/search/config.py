"""Search configuration and the result every algorithm returns."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .candidate import EditCandidate, ObjectiveWeights

ALGORITHMS = ("bfs", "mcts", "genetic", "beam")


@dataclass(frozen=True)
class SearchConfig:
    algorithm: str
    target_length: int
    beam_width: int = 8
    mcts_iterations: int = 32
    mcts_exploration_c: float = math.sqrt(2)
    ga_population: int = 8
    ga_generations: int = 10
    ga_mutation_rate: float = 0.25
    max_depth: int = 3
    proposals_per_expansion: int = 4
    seed: int = 0
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{self.algorithm}'")
        if self.target_length < 0:
            raise ValueError("target_length must be >= 0")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if not 0 <= self.mcts_exploration_c < math.inf:
            raise ValueError("mcts_exploration_c must be finite and >= 0")
        if not 0 <= self.ga_mutation_rate <= 1:
            raise ValueError("ga_mutation_rate must be within [0, 1]")

    def snapshot(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SearchResult:
    best: EditCandidate | None
    success: bool
    explored: int
    oracle_calls: int
    trajectory_id: str | None = None
