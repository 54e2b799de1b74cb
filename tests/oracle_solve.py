"""Reference search for cross-checking `planner.solve`.

It files each action under the positive precondition bit that the fewest
actions require, gathers a state's candidates from the buckets of its set
bits plus the actions with no positive literal, sorts them by action index
and tests each one's masks, which is how `solve` worked before it looked
applicable actions up in per-chunk tables. Results must agree exactly: the
same plan steps, `Unsolvable`, or the same `ResourceExceeded` reason, with
the clock read at the same points.
"""

import time

from axiomforge.planner import (
    GFalse,
    Plan,
    ResourceExceeded,
    SearchLimits,
    Unsolvable,
    _literal_masks,
)


def oracle_solve(task, limits=None):
    """Breadth-first search; any returned plan is optimal in step count.

    Each call first indexes the actions. An action whose precondition has a
    positive literal is filed under the positive precondition bit that the
    fewest actions require (the lowest such bit on a tie); the rest (no
    positive literal, or a precondition that is not a literal conjunction,
    such as an `or`) are tried in every state. A state then tries only the
    always-tried actions and the buckets of its set bits. Those candidates
    are sorted by action index, so successors are generated in the same
    order as a scan over all actions, and the plan returned is the one such
    a scan would return.

    A goal that grounding folded to false is unsolvable before any state is
    expanded. A frontier whose successors would pass `max_plan_length` ends
    the search before any of its states counts as expanded.
    """
    limits = limits or SearchLimits()
    deadline = time.monotonic() + limits.wall_budget_ms / 1000.0

    if isinstance(task.goal, GFalse):
        return Unsolvable()
    if task.goal.holds(task.init):
        return Plan(())

    # How many actions require each positive precondition bit.
    need: dict[int, int] = {}
    for action in task.actions:
        pos = action.pre_masks[0] if action.pre_masks else 0
        while pos:
            low = pos & -pos
            need[low] = need.get(low, 0) + 1
            pos ^= low

    # Rows are (index, pos, neg, add, del, conditional, precondition); the
    # precondition is kept only where the masks cannot express it.
    always: list[tuple] = []
    buckets: dict[int, list[tuple]] = {}
    for index, action in enumerate(task.actions):
        masks = action.pre_masks
        pos, neg = masks or (0, 0)
        row = (index, pos, neg, action.add_mask, action.del_mask, action.conditional,
               None if masks else action.precondition)
        if not pos:
            always.append(row)
            continue
        key = pos & -pos
        rest = pos ^ key
        while rest:
            low = rest & -rest
            if need[low] < need[key]:
                key = low
            rest ^= low
        buckets.setdefault(key, []).append(row)
    keys = sum(buckets)  # distinct single bits, so the sum is their union
    goal_masks = _literal_masks(task.goal)
    goal_pos, goal_neg = goal_masks or (0, 0)

    parent: dict[int, tuple[int, int] | None] = {task.init: None}
    frontier = [task.init]
    layer = 0
    expanded = 0

    while frontier:
        if layer >= limits.max_plan_length:
            return ResourceExceeded("max-plan-length")
        next_frontier: list[int] = []
        for state in frontier:
            expanded += 1
            if expanded > limits.max_expanded_states:
                return ResourceExceeded("max-expanded-states")
            if time.monotonic() > deadline:
                return ResourceExceeded("wall-budget")
            rows = list(always)
            bits = state & keys
            while bits:
                low = bits & -bits
                rows += buckets[low]
                bits ^= low
            rows.sort()
            for index, pos, neg, add, dele, conditional, pre in rows:
                if state & pos != pos or state & neg:
                    continue
                if pre is not None and not pre.holds(state):
                    continue
                succ = (state & ~dele) | add
                for cond, c_add, c_del in conditional:
                    if cond.holds(state):
                        succ = (succ & ~c_del) | c_add
                if succ in parent:
                    continue
                parent[succ] = (state, index)
                if goal_masks is None:
                    reached = task.goal.holds(succ)
                else:
                    reached = succ & goal_pos == goal_pos and not succ & goal_neg
                if reached:
                    steps = []
                    cur = succ
                    while cur != task.init:
                        prev, aidx = parent[cur]
                        steps.append(task.actions[aidx])
                        cur = prev
                    return Plan(tuple(reversed(steps)))
                next_frontier.append(succ)
        frontier = next_frontier
        layer += 1

    return Unsolvable()
