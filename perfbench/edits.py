"""Benchmark-owned rule edits and the seeded oracle that replays them.

The pool is built once at set-up, so its cost lands in `setup_s` and not in
the per-operation latency. An edit either drops one precondition literal
of an action, or adds a copy of an action with its last parameter removed
together with every literal that mentions it.
"""

from __future__ import annotations

import random
from dataclasses import replace

from axiomforge.pddl import (
    And,
    Atom,
    DomainAst,
    Eq,
    Forall,
    Not,
    Or,
    PddlError,
    ProblemAst,
    When,
    link,
    parse_domain,
    print_canonical,
)
from axiomforge.proposer import ProposalOracle


def _mentions(f, var: str) -> bool:
    if isinstance(f, Atom):
        return var in f.args
    if isinstance(f, Eq):
        return var in (f.left, f.right)
    if isinstance(f, Not):
        return _mentions(f.body, var)
    if isinstance(f, (And, Or)):
        return any(_mentions(p, var) for p in f.parts)
    if isinstance(f, Forall):
        return _mentions(f.body, var)
    if isinstance(f, When):
        return _mentions(f.condition, var) or _mentions(f.effect, var)
    raise TypeError(f"not a formula: {f!r}")


def _without(f, var: str):
    """Drop the top-level conjuncts that mention var."""
    parts = f.parts if isinstance(f, And) else (f,)
    return And(tuple(p for p in parts if not _mentions(p, var)))


def _with_action(domain: DomainAst, index: int, action) -> DomainAst:
    actions = list(domain.actions)
    actions[index] = action
    return replace(domain, actions=tuple(actions))


def rule_edits(domain: DomainAst) -> list:
    """Every single-step edit of the two kinds above, in a fixed order."""
    edits = []
    for i, action in enumerate(domain.actions):
        pre = action.precondition
        if isinstance(pre, And) and len(pre.parts) > 1:
            for j in range(len(pre.parts)):
                dropped = And(pre.parts[:j] + pre.parts[j + 1 :])
                edits.append(_with_action(domain, i, replace(action, precondition=dropped)))
        if action.params:
            var = action.params[-1].name
            lite = replace(
                action,
                name=f"{action.name}-lite",
                params=action.params[:-1],
                precondition=_without(pre, var),
                effect=_without(action.effect, var),
            )
            if not _mentions(lite.precondition, var) and not _mentions(lite.effect, var):
                edits.append(replace(domain, actions=domain.actions + (lite,)))
    return edits


def edit_pool(domain: DomainAst, problem: ProblemAst, rng: random.Random, size: int) -> tuple:
    """Up to `size` distinct canonical edit texts that parse and link."""
    texts = []
    for edit in rule_edits(domain):
        text = print_canonical(edit)
        try:
            link(parse_domain(text), problem)
        except PddlError:
            continue
        if text not in texts:
            texts.append(text)
    rng.shuffle(texts)
    return tuple(texts[:size])


class SeededEditOracle(ProposalOracle):
    """Replays a pre-built edit pool in a seeded order.

    Each answer repeats an earlier answer with probability REPEAT_SHARE
    and otherwise takes the next pool entry, so the evaluator's memo sees
    both hits and misses. Crossover and mutation draw from the same stream.
    """

    REPEAT_SHARE = 0.3

    def __init__(self, pool: tuple, seed: int):
        super().__init__()
        if not pool:
            raise ValueError("the edit pool is empty")
        self.pool = pool
        self._rng = random.Random(seed)
        self._cursor = self._rng.randrange(len(pool))
        self._issued: list = []

    def _next(self) -> str:
        if self._issued and self._rng.random() < self.REPEAT_SHARE:
            return self._rng.choice(self._issued)
        text = self.pool[self._cursor % len(self.pool)]
        self._cursor += 1
        self._issued.append(text)
        return text

    def propose(self, ctx, k: int) -> list:
        self.calls += 1
        return [self._next() for _ in range(k)]

    def crossover(self, ctx, parent_a: str, parent_b: str) -> str:
        self.calls += 1
        return self._next()

    def mutate(self, ctx, candidate: str) -> str:
        self.calls += 1
        return self._next()
