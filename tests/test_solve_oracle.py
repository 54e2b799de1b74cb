"""Differential test: `planner.solve` against the reference `oracle_solve`.

Both must return the same plan steps, `Unsolvable`, or the same
`ResourceExceeded` reason under every expansion cap and plan-length cap,
and read the clock at the same points.
"""

import time

import pytest

from axiomforge import corpus
from axiomforge.pddl import link, parse_domain, parse_problem
from axiomforge.planner import Plan, SearchLimits, ground, solve

from oracle_solve import oracle_solve
from test_pinned_plans import hanoi, tower_reversal

# Where a task expands more states than this, the expansion caps are a
# spread of about this many values rather than every one.
EVERY_CAP_UP_TO = 60


def _cases():
    out = []
    for name in corpus.CORPUS_NAMES:
        entry = corpus.load(name)
        for problem in entry.problems:
            out.append((f"{name}:{problem.name}", entry.domain_text, problem.text))
    for n in range(4, 8):
        out.append((f"tower-reversal-{n}", corpus.load("blocksworld").domain_text, tower_reversal(n)))
    for n in range(3, 7):
        out.append((f"hanoi-{n}", corpus.load("hanoi").domain_text, hanoi(n)))
    return out


CASES = _cases()


def _clock_reads(monkeypatch, task):
    """How many times an uncapped `solve` reads the clock."""
    reads = 0

    def clock():
        nonlocal reads
        reads += 1
        return 0.0

    monkeypatch.setattr(time, "monotonic", clock)
    solve(task)
    monkeypatch.undo()
    return reads


def _spread(top):
    if top <= EVERY_CAP_UP_TO:
        return range(1, top + 2)
    step = top // EVERY_CAP_UP_TO
    return sorted({1, 2, 3, top - 1, top, top + 1, *range(1, top + 1, step)})


@pytest.mark.parametrize("key,domain_text,problem_text", CASES, ids=[c[0] for c in CASES])
def test_solve_matches_the_reference_under_every_limit(monkeypatch, key, domain_text, problem_text):
    task = ground(link(parse_domain(domain_text), parse_problem(problem_text)))
    uncapped = solve(task)
    assert uncapped == oracle_solve(task)

    # One read sets the deadline; each expanded state reads once more.
    expanded = _clock_reads(monkeypatch, task) - 1
    for cap in _spread(expanded):
        limits = SearchLimits(max_expanded_states=cap)
        assert solve(task, limits) == oracle_solve(task, limits), cap

    if isinstance(uncapped, Plan):
        for cap in range(1, uncapped.length + 2):
            limits = SearchLimits(max_plan_length=cap)
            assert solve(task, limits) == oracle_solve(task, limits), cap

    # A clock that passes the deadline at its k-th read trips both searches
    # on the same state.
    for k in _spread(expanded + 1):
        results = []
        for search in (solve, oracle_solve):
            ticks = iter([0.0] * k + [100.0] * (expanded + 2))
            monkeypatch.setattr(time, "monotonic", lambda: next(ticks))
            results.append(search(task, SearchLimits(wall_budget_ms=10)))
        assert results[0] == results[1], k
