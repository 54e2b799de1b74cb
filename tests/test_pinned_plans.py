"""Pinned planner output: the exact step sequence `solve` returns.

Breadth-first search returns the first optimal plan it meets, so the steps
depend on the order in which successors are generated. The plans below were
captured from a known-good build on every corpus problem and on generated
blocksworld tower reversals (optimum 2n) and hanoi towers (optimum 2^n - 1).
Any change to `solve` must reproduce them step for step, and every plan's
length must equal the brute-force oracle's.
"""

import pytest

from axiomforge import corpus
from axiomforge.pddl import link, parse_domain, parse_problem
from axiomforge.planner import Plan, ground, solve

from oracle_bfs import oracle_plan_length


def _problem(domain, name, objects, init, goal):
    return (
        f"(define (problem {name}) (:domain {domain}) (:objects {' '.join(objects)})"
        f" (:init {' '.join(init)}) (:goal (and {' '.join(goal)})))"
    )


def tower_reversal(n):
    """b1 on the table, b(i+1) on b(i); the goal is b(i) on b(i+1)."""
    blocks = [f"b{i}" for i in range(1, n + 1)]
    init = ["(arm-empty)", "(on-table b1)", f"(clear b{n})"]
    init += [f"(on b{i + 1} b{i})" for i in range(1, n)]
    goal = [f"(on b{i} b{i + 1})" for i in range(1, n)]
    return _problem("blocksworld", f"tower-reversal-{n}", blocks, init, goal)


def hanoi(n):
    """n discs on p1, d1 the smallest, to be moved to p3."""
    discs = [f"d{i}" for i in range(1, n + 1)]
    pegs = ["p1", "p2", "p3"]
    init = [f"(smaller {big} {small})" for i, small in enumerate(discs) for big in discs[i + 1 :]]
    init += [f"(smaller {peg} {disc})" for peg in pegs for disc in discs]
    init += [f"(on {discs[-1]} p1)", "(clear d1)", "(clear p2)", "(clear p3)"]
    stacked = [f"(on {small} {big})" for small, big in zip(discs, discs[1:])]
    goal = [f"(on {discs[-1]} p3)"] + stacked
    return _problem("hanoi", f"hanoi-{n}", discs + pegs, init + stacked, goal)


def cases():
    """(key, domain name, problem text, closed-form optimum or None)."""
    out = []
    for name in corpus.CORPUS_NAMES:
        for prob in corpus.load(name).problems:
            out.append((f"{name}:{prob.name}", name, prob.text, None))
    for n in range(4, 7):
        out.append((f"tower-reversal-{n}", "blocksworld", tower_reversal(n), 2 * n))
    for n in range(3, 6):
        out.append((f"hanoi-{n}", "hanoi", hanoi(n), 2**n - 1))
    return out


PINNED = {
    "blocksworld:restack": (
        "(unstack c b) (putdown c) (pickup b) (stack b a) (pickup c) (stack c b)"
    ),
    "blocksworld:swap": "(unstack a b) (putdown a) (pickup b) (stack b a)",
    "briefcase:deliver": "(put-in doc home) (move home office)",
    "briefcase:deliver-and-return": (
        "(put-in doc home) (move home office) (take-out doc) (move office home)"
    ),
    "bulldozer:walk": "(drive pat sitea siteb)",
    "bulldozer:convoy": (
        "(board pat sitea dozer) (drive dozer sitea siteb) (disembark pat siteb dozer)"
    ),
    "casino:one-prize": "(moveto lobby tables) (getprize1 toy tables)",
    "casino:two-prizes": (
        "(moveto lobby tables) (getprize1 toy tables) (getprize2 voucher tables)"
    ),
    "depot:lift-crate": "(lift arm box base yard)",
    "depot:shift-crate": "(lift arm box base yard) (drop arm box spare yard)",
    "ferry:carry-car": (
        "(board sedan porta boat) (sail porta portb) (debark sedan portb boat)"
    ),
    "ferry:reposition": "(sail porta portb)",
    "gripper:transport": "(pick ball1 rooma left) (move rooma roomb) (drop ball1 roomb left)",
    "gripper:relocate": "(move rooma roomb)",
    "hanoi:three-discs": (
        "(move d1 d2 p3) (move d2 d3 p2) (move d1 p3 d2) (move d3 p1 p3) "
        "(move d1 d2 p1) (move d2 p2 d3) (move d1 p1 d2)"
    ),
    "hanoi:two-discs": "(move d1 d2 p2) (move d2 p1 p3) (move d1 p2 d2)",
    "logistics:in-town": (
        "(load-truck pkg van depot) (drive-truck van depot shop metro) "
        "(unload-truck pkg van shop)"
    ),
    "logistics:air-freight": (
        "(load-airplane pkg jet east) (fly-airplane jet east west) "
        "(unload-airplane pkg jet west)"
    ),
    "maze:one-step": "(move-right hero cell1 cell2)",
    "maze:corner": "(move-right hero cell1 cell2) (move-up hero cell2 cell3)",
    "miconic:ride-up": "(board ground ann) (up ground top) (depart top ann)",
    "miconic:fetch-first": (
        "(down top ground) (board ground ann) (up ground top) (depart top ann)"
    ),
    "monkey:get-bananas": (
        "(get-knife p1) (go-to p2 p1) (push-box p3 p2) (climb p3) (grab-bananas p3)"
    ),
    "monkey:get-water": "(pickglass p1) (go-to p2 p1) (climb p2) (getwater p2)",
    "tower-reversal-4": (
        "(unstack b4 b3) (putdown b4) (unstack b3 b2) (stack b3 b4) (unstack b2 b1) "
        "(stack b2 b3) (pickup b1) (stack b1 b2)"
    ),
    "tower-reversal-5": (
        "(unstack b5 b4) (putdown b5) (unstack b4 b3) (stack b4 b5) (unstack b3 b2) "
        "(stack b3 b4) (unstack b2 b1) (stack b2 b3) (pickup b1) (stack b1 b2)"
    ),
    "tower-reversal-6": (
        "(unstack b6 b5) (putdown b6) (unstack b5 b4) (stack b5 b6) (unstack b4 b3) "
        "(stack b4 b5) (unstack b3 b2) (stack b3 b4) (unstack b2 b1) (stack b2 b3) "
        "(pickup b1) (stack b1 b2)"
    ),
    "hanoi-3": (
        "(move d1 d2 p3) (move d2 d3 p2) (move d1 p3 d2) (move d3 p1 p3) "
        "(move d1 d2 p1) (move d2 p2 d3) (move d1 p1 d2)"
    ),
    "hanoi-4": (
        "(move d1 d2 p2) (move d2 d3 p3) (move d1 p2 d2) (move d3 d4 p2) "
        "(move d1 d2 d4) (move d2 p3 d3) (move d1 d4 d2) (move d4 p1 p3) "
        "(move d1 d2 d4) (move d2 d3 p1) (move d1 d4 d2) (move d3 p2 d4) "
        "(move d1 d2 p2) (move d2 p1 d3) (move d1 p2 d2)"
    ),
    "hanoi-5": (
        "(move d1 d2 p3) (move d2 d3 p2) (move d1 p3 d2) (move d3 d4 p3) "
        "(move d1 d2 d4) (move d2 p2 d3) (move d1 d4 d2) (move d4 d5 p2) "
        "(move d1 d2 d4) (move d2 d3 d5) (move d1 d4 d2) (move d3 p3 d4) "
        "(move d1 d2 p3) (move d2 d5 d3) (move d1 p3 d2) (move d5 p1 p3) "
        "(move d1 d2 p1) (move d2 d3 d5) (move d1 p1 d2) (move d3 d4 p1) "
        "(move d1 d2 d4) (move d2 d5 d3) (move d1 d4 d2) (move d4 p2 d5) "
        "(move d1 d2 d4) (move d2 d3 p2) (move d1 d4 d2) (move d3 p1 d4) "
        "(move d1 d2 p1) (move d2 p2 d3) (move d1 p1 d2)"
    ),
}


@pytest.mark.parametrize("key,domain,text,optimum", cases(), ids=[c[0] for c in cases()])
def test_solve_steps_are_pinned(key, domain, text, optimum):
    task = ground(link(parse_domain(corpus.load(domain).domain_text), parse_problem(text)))
    result = solve(task)
    assert isinstance(result, Plan)
    assert " ".join(map(str, result.steps)) == PINNED[key]
    assert result.length == oracle_plan_length(task)
    if optimum is not None:
        assert result.length == optimum
