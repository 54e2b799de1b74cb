"""Seeded planning instances with a known optimal plan length, and a replay
of a plan that does not use the planner.

`tower_reversal(n, rng)`: n blocks in one tower, in a seeded order; the goal
is the same tower upside down. Every block has to move, and each move is two
steps (lift it, put it down), so the optimum is 2n.

`hanoi(n, rng)`: n discs on one of three pegs, to be moved to another, both
picked by the seed; the same shape as the corpus's `three-discs`. The
optimum is 2^n - 1.

The seed also shuffles the order of objects and facts, which changes the
order in which the planner grounds and expands, not the optimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    domain: str  # corpus domain name
    name: str
    text: str  # PDDL problem
    optimum: int
    init: frozenset  # facts as tuples, e.g. ("on", "b1", "b2")
    goal: frozenset


def _fact(fact: tuple) -> str:
    return "(" + " ".join(fact) + ")"


def _instance(domain: str, name: str, objects: list, init: set, goal: set, optimum: int,
              rng: random.Random) -> Instance:
    objects, facts, goals = list(objects), sorted(init), sorted(goal)
    for seq in (objects, facts, goals):
        rng.shuffle(seq)
    text = (
        f"(define (problem {name})\n  (:domain {domain})\n  (:objects {' '.join(objects)})\n"
        f"  (:init {' '.join(map(_fact, facts))})\n  (:goal (and {' '.join(map(_fact, goals))})))\n"
    )
    return Instance(domain, name, text, optimum, frozenset(init), frozenset(goal))


def tower_reversal(n: int, rng: random.Random) -> Instance:
    tower = [f"b{i}" for i in range(1, n + 1)]
    rng.shuffle(tower)  # top first
    below = list(zip(tower, tower[1:]))  # (upper, lower) pairs
    init = {("arm-empty",), ("clear", tower[0]), ("on-table", tower[-1])}
    init |= {("on", upper, lower) for upper, lower in below}
    goal = {("on", lower, upper) for upper, lower in below}
    return _instance("blocksworld", f"tower-reversal-{n}", tower, init, goal, 2 * n, rng)


def hanoi(n: int, rng: random.Random) -> Instance:
    # d1 is the smallest disc; (smaller x y) says y may go onto x.
    discs = [f"d{i}" for i in range(1, n + 1)]
    pegs = ["p1", "p2", "p3"]
    source, target = rng.sample(pegs, 2)
    init = {("smaller", big, small) for i, small in enumerate(discs) for big in discs[i + 1 :]}
    init |= {("smaller", peg, disc) for peg in pegs for disc in discs}
    init |= {("on", discs[-1], source), ("clear", discs[0])}
    init |= {("on", small, big) for small, big in zip(discs, discs[1:])}
    init |= {("clear", peg) for peg in pegs if peg != source}
    goal = {("on", discs[-1], target)} | {("on", small, big) for small, big in zip(discs, discs[1:])}
    return _instance("hanoi", f"hanoi-{n}", discs + pegs, init, goal, 2**n - 1, rng)


# Each action of the two domains as (precondition, add, delete) fact sets,
# written out from the corpus's PDDL.
RULES = {
    "blocksworld": {
        "pickup": lambda x: (
            {("clear", x), ("on-table", x), ("arm-empty",)},
            {("holding", x)},
            {("clear", x), ("on-table", x), ("arm-empty",)},
        ),
        "putdown": lambda x: (
            {("holding", x)},
            {("clear", x), ("arm-empty",), ("on-table", x)},
            {("holding", x)},
        ),
        "stack": lambda x, y: (
            {("clear", y), ("holding", x)},
            {("arm-empty",), ("clear", x), ("on", x, y)},
            {("clear", y), ("holding", x)},
        ),
        "unstack": lambda x, y: (
            {("on", x, y), ("clear", x), ("arm-empty",)},
            {("holding", x), ("clear", y)},
            {("on", x, y), ("clear", x), ("arm-empty",)},
        ),
    },
    "hanoi": {
        "move": lambda disc, src, dst: (
            {("smaller", dst, disc), ("on", disc, src), ("clear", disc), ("clear", dst)},
            {("clear", src), ("on", disc, dst)},
            {("on", disc, src), ("clear", dst)},
        ),
    },
}


def replay(instance: Instance, steps: list) -> bool:
    """Apply (action name, args) steps to the instance's facts by RULES;
    True if every step applies and the goal holds after the last."""
    state = set(instance.init)
    rules = RULES[instance.domain]
    for name, args in steps:
        if name not in rules:
            return False
        pre, add, delete = rules[name](*args)
        if not pre <= state:
            return False
        state = (state - delete) | add
    return instance.goal <= state
