"""Genetic search where the oracle supplies crossover and mutation."""

from __future__ import annotations

import random

from .candidate import EditCandidate, Provenance
from .common import SearchRun
from .config import SearchResult


def _tournament(rng: random.Random, population: list) -> EditCandidate:
    """Size-2 tournament; lower score wins, ties go to the earlier member."""
    i = rng.randrange(len(population))
    j = rng.randrange(len(population))
    a, b = population[min(i, j)], population[max(i, j)]
    return b if b.score < a.score else a


def genetic_search(run: SearchRun, observer=None) -> SearchResult:
    """Tournament selection, oracle crossover, probabilistic oracle mutation,
    elitism of one. Children that fail to parse or link fall back to parent A,
    so the population size never drifts.

    `observer(generation, population)` fires after each survivor selection."""
    cfg, oracle = run.cfg, run.oracle
    rng = random.Random(cfg.seed)
    root = run.root()
    if run.reached(root):
        return run.result(root)

    population: list = []
    for i, (domain, text) in enumerate(run.propose(root, cfg.ga_population)):
        provenance = Provenance(root.step_id, 0, f"seed proposal {i}")
        cand = run.evaluate(domain, text, provenance, "ga-gen-0")
        if run.reached(cand):
            return run.result(cand)
        population.append(cand)
    while len(population) < cfg.ga_population:
        population.append(root)

    for generation in range(1, cfg.ga_generations + 1):
        elite = min(population, key=lambda c: c.score)
        # Breed the whole generation before admitting any child, so every
        # crossover and mutation sees the same history.
        batch = []
        for i in range(cfg.ga_population):
            parent_a = _tournament(rng, population)
            parent_b = _tournament(rng, population)
            parent_ctx = run.context(parent_a)
            child_text = oracle.crossover(
                parent_ctx, parent_a.canonical_text, parent_b.canonical_text
            )
            if rng.random() < cfg.ga_mutation_rate:
                child_text = oracle.mutate(parent_ctx, child_text)
            domain, text = run.evaluator.read(child_text) or (parent_a.domain, parent_a.canonical_text)
            batch.append(
                (
                    domain,
                    text,
                    Provenance(parent_a.step_id, generation, f"offspring {i} of generation {generation}"),
                )
            )
        offspring: list = []
        for cand in run.evaluate_batch(batch, f"ga-gen-{generation}"):
            if run.reached(cand):
                return run.result(cand)
            offspring.append(cand)
        pool = offspring + [elite]
        pool.sort(key=lambda c: c.score)  # stable: insertion order breaks ties
        population = pool[: cfg.ga_population]
        if observer is not None:
            observer(generation, tuple(population))

    return run.result()
