"""Independent brute-force planning oracle for cross-checking `solve`.

Deliberately shares no code with the planner's search: states are
frozensets of atom indices, formulas are evaluated by a local recursive
walk, and masks are unpacked into sets up front. Only the GroundedTask
data layout is shared.
"""

from collections import deque


def _mask_to_set(mask):
    out = set()
    index = 0
    while mask:
        if mask & 1:
            out.add(index)
        mask >>= 1
        index += 1
    return frozenset(out)


def _true(formula, state):
    kind = type(formula).__name__
    if kind == "int":
        return formula in state
    if kind == "Not":
        return not _true(formula.body, state)
    if kind == "And":
        return all(_true(p, state) for p in formula.parts)
    if kind == "Or":
        return any(_true(p, state) for p in formula.parts)
    raise TypeError(f"unknown formula node {kind}")


def oracle_plan(task, max_states=200_000):
    """Action indices of the first shortest plan found by exhaustive BFS
    that tries actions in index order, or None when unsolvable."""
    init = _mask_to_set(task.init)
    actions = []
    for action in task.actions:
        actions.append(
            (
                action.precondition,
                _mask_to_set(action.add_mask),
                _mask_to_set(action.del_mask),
                [
                    (cond, _mask_to_set(add), _mask_to_set(dele))
                    for cond, add, dele in action.conditional
                ],
            )
        )
    if _true(task.goal, init):
        return ()
    parent = {init: None}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        for index, (precondition, adds, dels, conds) in enumerate(actions):
            if not _true(precondition, state):
                continue
            successor = (state - dels) | adds
            for cond, add, dele in conds:
                if _true(cond, state):
                    successor = (successor - dele) | add
            successor = frozenset(successor)
            if successor in parent:
                continue
            parent[successor] = (state, index)
            if len(parent) > max_states:
                raise RuntimeError("oracle state cap exceeded")
            if _true(task.goal, successor):
                steps = []
                while parent[successor] is not None:
                    successor, index = parent[successor]
                    steps.append(index)
                return tuple(reversed(steps))
            queue.append(successor)
    return None


def oracle_plan_length(task, max_states=200_000):
    """Optimal plan length by exhaustive BFS, or None when unsolvable."""
    plan = oracle_plan(task, max_states)
    return None if plan is None else len(plan)


def oracle_reachable_states(task, cap=200_000):
    """Count reachable states (cap-limited) so tests can gate on task size."""
    init = _mask_to_set(task.init)
    actions = [
        (
            a.precondition,
            _mask_to_set(a.add_mask),
            _mask_to_set(a.del_mask),
            [(c, _mask_to_set(am), _mask_to_set(dm)) for c, am, dm in a.conditional],
        )
        for a in task.actions
    ]
    seen = {init}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        for precondition, adds, dels, conds in actions:
            if not _true(precondition, state):
                continue
            successor = (state - dels) | adds
            for cond, add, dele in conds:
                if _true(cond, state):
                    successor = (successor - dele) | add
            successor = frozenset(successor)
            if successor not in seen:
                seen.add(successor)
                if len(seen) > cap:
                    return len(seen)
                queue.append(successor)
    return len(seen)
