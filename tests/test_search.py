import functools
import math
import random
import time
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomforge import corpus, planner
from axiomforge.corpus import variants
from axiomforge.pddl import PddlError, link, parse_domain, parse_problem, print_canonical
from axiomforge.pddl import parser as parser_module
from axiomforge.pddl.reader import split_define
from axiomforge.planner import GroundingExplosion, Plan, Unsolvable, ground, solve
from axiomforge.proposer import (
    ProposalOracle,
    ScriptEntry,
    ScriptedOracle,
    builtin_script,
    filter_linkable,
)
from axiomforge.search import (
    ALGORITHMS,
    CandidateEvaluator,
    ObjectiveWeights,
    Provenance,
    SearchConfig,
    beam_search,
    bfs_search,
    genetic_search,
    mcts_search,
    run_search,
    ucb1,
)
from axiomforge.search import candidate as candidate_module
from axiomforge.search.candidate import MAX_TEXT_FACTOR, EditCandidate, compactness
from axiomforge.search import common as common_module
from axiomforge.search.common import SearchRun, summarize
from axiomforge.distance import LevenshteinMockOracle, hybrid_rank, levenshtein, query_budget
from axiomforge.search import beam as beam_module
from axiomforge.search.beam import rank_pool
from axiomforge.trajectory import TrajectoryHeader, TrajectoryWriter, read_runs
from conftest import REPEATED_PRECONDITION, THOUSAND_WIDE
from test_ground_oracle import rule_edits

ORIGINAL = corpus.load("blocksworld").domain_text

# Original rules plus a do-nothing action: still solvable, never shorter,
# and strictly worse under compactness/locality weights.
WORSE = ORIGINAL.replace(
    "(:action pickup",
    """(:action ponder
        :parameters (?ob)
        :precondition (and (holding ?ob))
        :effect (and (holding ?ob))
    )

    (:action pickup""",
)

# Dropping `stack` makes every on-goal unreachable: a 0-reward proposal.
UNSOLVABLE = ORIGINAL.replace(
    """    (:action stack
        :parameters (?ob ?underob)
        :precondition (and (clear ?underob) (holding ?ob))
        :effect (and (arm-empty) (clear ?ob) (on ?ob ?underob) (not (clear ?underob)) (not (holding ?ob)))
    )

""",
    "",
)

# Dropping `putdown` breaks regression: the flagship and the swap instance
# both need to park a block on the table.
NO_PUTDOWN = ORIGINAL.replace(
    """    (:action putdown
        :parameters (?ob)
        :precondition (and (holding ?ob))
        :effect (and (clear ?ob) (arm-empty) (on-table ?ob) (not (holding ?ob)))
    )

""",
    "",
)


# Texts an evaluator's `read` rejects: one links against no blocksworld
# problem, one does not parse.
UNLINKABLE = ORIGINAL.replace("(domain blocksworld)", "(domain renamed)")
BROKEN = "(define (domain blocksworld) (:action"


def _oracle(*texts):
    return ScriptedOracle([ScriptEntry(lambda ctx: True, tuple(texts))])


def _cfg(algorithm, **kw):
    base = dict(target_length=4, seed=1)
    base.update(kw)
    return SearchConfig(algorithm=algorithm, **base)


ZERO = ObjectiveWeights(alpha=0.0, lam=0.0)


@pytest.fixture()
def zero_evaluator(blocksworld, flagship, blocksworld_regression):
    return CandidateEvaluator(
        blocksworld, flagship, blocksworld_regression, weights=ZERO
    )


# -- score and evaluate -------------------------------------------------------


def _read(text):
    """A domain and its canonical text, as an evaluator's `read` hands them on."""
    domain = parse_domain(text)
    return domain, print_canonical(domain)


def test_baseline_score_is_plan_length(zero_evaluator):
    root = zero_evaluator.evaluate_root()
    assert isinstance(root.plan_result, Plan)
    assert root.score == 6.0
    assert root.regression_ok  # the original solves its own suite


def test_multi_lift_scores_two(zero_evaluator):
    cand = zero_evaluator.evaluate(
        *_read(variants.MULTI_LIFT), Provenance(None, 1, "multi lift")
    )
    assert cand.score == 2.0
    assert cand.plan_length == 2
    assert cand.regression_ok


def test_mid_extract_plan_four_regression_ok(zero_evaluator):
    cand = zero_evaluator.evaluate(
        *_read(variants.MID_EXTRACT), Provenance(None, 1, "mid extract")
    )
    assert cand.plan_length == 4
    assert cand.regression_ok


def test_regression_failure_scores_penalty(zero_evaluator):
    cand = zero_evaluator.evaluate(
        *_read(NO_PUTDOWN), Provenance(None, 1, "no putdown")
    )
    assert not cand.regression_ok
    assert cand.score == ZERO.unsolvable_penalty


def test_unsolvable_scores_penalty(zero_evaluator):
    cand = zero_evaluator.evaluate(
        *_read(UNSOLVABLE), Provenance(None, 1, "no stack")
    )
    assert isinstance(cand.plan_result, Unsolvable)
    assert cand.score == ZERO.unsolvable_penalty


def test_weights_shape_score(blocksworld, flagship, blocksworld_regression):
    weights = ObjectiveWeights(alpha=0.5, lam=0.25)
    evaluator = CandidateEvaluator(blocksworld, flagship, blocksworld_regression, weights=weights)
    root = evaluator.evaluate_root()
    assert root.lev_distance == 0
    assert root.score == pytest.approx(6 + 0.25 * compactness(blocksworld))


def test_memoization_returns_same_candidate(zero_evaluator):
    first = zero_evaluator.evaluate(*_read(WORSE), Provenance(None, 1, "a"))
    second = zero_evaluator.evaluate(*_read(WORSE), Provenance(None, 2, "b"))
    assert first is second
    assert zero_evaluator.evaluations == 1


def test_flagship_is_solved_once(monkeypatch, blocksworld, flagship, blocksworld_regression):
    grounded = []

    def counting_ground(*args, **kwargs):
        grounded.append(1)
        return ground(*args, **kwargs)

    monkeypatch.setattr(candidate_module, "ground", counting_ground)
    evaluator = CandidateEvaluator(blocksworld, flagship, blocksworld_regression)
    evaluator.evaluate_root()
    # two corpus problems, the flagship among them
    assert len(blocksworld_regression) == 2
    assert len(grounded) == 2


@pytest.mark.parametrize("with_flagship", [True, False])
def test_regression_ok_matches_solving_every_problem(
    with_flagship, blocksworld, flagship, blocksworld_regression
):
    regression = [p for p in blocksworld_regression if with_flagship or p != flagship]
    assert len(regression) == (2 if with_flagship else 1)
    evaluator = CandidateEvaluator(blocksworld, flagship, regression)
    for text in (ORIGINAL, variants.MULTI_LIFT, variants.MID_EXTRACT, NO_PUTDOWN):
        domain = parse_domain(text)
        expected = all(
            isinstance(solve(ground(link(domain, prob))), Plan) for prob in regression
        )
        cand = evaluator.evaluate(domain, print_canonical(domain), Provenance(None, 1, "check"))
        assert cand.regression_ok is expected


def _explode_on(monkeypatch, problem):
    """Make the evaluator's grounding against `problem` explode."""
    def exploding_ground(task, **kwargs):
        if task.problem is problem:
            raise GroundingExplosion("too many actions")
        return ground(task, **kwargs)

    monkeypatch.setattr(candidate_module, "ground", exploding_ground)


@pytest.mark.parametrize("flagship_first", [True, False])
def test_regression_stops_at_the_first_failing_problem(
    monkeypatch, flagship_first, blocksworld, flagship, blocksworld_regression
):
    # NO_PUTDOWN fails the flagship, which is solved before the suite. The
    # other suite problem would explode in grounding: after the flagship it
    # is never grounded, and before it its explosion ends the evaluation.
    # Either way the flagship's verdict stands and the penalty prices it.
    (other,) = [p for p in blocksworld_regression if p != flagship]
    _explode_on(monkeypatch, other)
    regression = [flagship, other] if flagship_first else [other, flagship]
    evaluator = CandidateEvaluator(blocksworld, flagship, regression)
    cand = evaluator.evaluate(*_read(NO_PUTDOWN), Provenance(None, 1, "no putdown"))
    assert not cand.regression_ok
    assert isinstance(cand.plan_result, Unsolvable)
    assert cand.score == evaluator.weights.unsolvable_penalty


@pytest.mark.parametrize("with_flagship", [True, False])
def test_a_flagship_without_a_plan_grounds_no_suite_problem_before_it(
    monkeypatch, with_flagship, blocksworld, flagship, blocksworld_regression
):
    # NO_PUTDOWN has no flagship plan. A suite that holds the flagship fails
    # with it, so `other`, listed first, is never grounded; a suite without
    # the flagship is still solved, as it decides regression_ok alone.
    (other,) = [p for p in blocksworld_regression if p != flagship]
    grounded = []

    def counting_ground(task, **kwargs):
        grounded.append(task.problem)
        return ground(task, **kwargs)

    monkeypatch.setattr(candidate_module, "ground", counting_ground)
    regression = [other, flagship] if with_flagship else [other]
    evaluator = CandidateEvaluator(blocksworld, flagship, regression)
    domain, text = _read(NO_PUTDOWN)
    cand = evaluator.evaluate(domain, text, Provenance(None, 1, "no putdown"))
    assert grounded == ([flagship] if with_flagship else [flagship, other])
    assert isinstance(cand.plan_result, Unsolvable)
    assert not cand.regression_ok
    assert cand.score == evaluator.weights.unsolvable_penalty
    expected = all(isinstance(solve(ground(link(domain, p))), Plan) for p in regression)
    assert cand.regression_ok is expected


# A suite problem whose goal names a predicate no blocksworld variant declares.
STRAY = parse_problem(
    "(define (problem stray) (:domain blocksworld) (:objects a)"
    " (:init (on-table a) (clear a) (arm-empty)) (:goal (and (glued a))))"
)


@pytest.mark.parametrize("flagship_first", [True, False])
@pytest.mark.parametrize("failure", ["explodes", "does-not-link"])
def test_a_broken_suite_problem_keeps_the_flagship_plan(
    monkeypatch, failure, flagship_first, blocksworld, flagship, blocksworld_regression
):
    # MULTI_LIFT plans the flagship in 2 steps; a suite problem that then
    # fails leaves that plan recorded and costs the penalty, in either order.
    (other,) = [p for p in blocksworld_regression if p != flagship]
    if failure == "explodes":
        _explode_on(monkeypatch, other)
    else:
        other = STRAY
    regression = [flagship, other] if flagship_first else [other, flagship]
    evaluator = CandidateEvaluator(blocksworld, flagship, regression)
    cand = evaluator.evaluate(*_read(variants.MULTI_LIFT), Provenance(None, 1, "multi lift"))
    assert cand.plan_length == 2
    assert not cand.regression_ok
    assert cand.score == evaluator.weights.unsolvable_penalty


def test_grounding_explosion_scores_the_penalty(
    monkeypatch, blocksworld, flagship, blocksworld_regression
):
    monkeypatch.setattr(candidate_module, "ground", functools.partial(planner.ground, max_actions=5))
    for regression in (blocksworld_regression, blocksworld_regression[::-1]):
        evaluator = CandidateEvaluator(blocksworld, flagship, regression)
        cand = evaluator.evaluate(blocksworld, print_canonical(blocksworld), Provenance(None, 0, "boom"))
        assert cand.score == evaluator.weights.unsolvable_penalty
        assert cand.plan_result is None and not cand.regression_ok


def test_wide_rule_edit_ends_as_grounding_explosion(
    blocksworld, flagship, blocksworld_regression, wide_blocksworld_text
):
    # Every binding visited counts against max_actions, so the default cap
    # ends grounding long before the 3^16 bindings are enumerated.
    evaluator = CandidateEvaluator(blocksworld, flagship, blocksworld_regression)
    domain, text = _read(wide_blocksworld_text)
    started = time.monotonic()
    cand = evaluator.evaluate(domain, text, Provenance(None, 1, "wide"))
    assert time.monotonic() - started < 1.0
    assert cand.score == evaluator.weights.unsolvable_penalty
    assert cand.plan_length is None and not cand.regression_ok


def test_thousand_wide_rule_edit_scores_the_penalty(blocksworld, flagship, blocksworld_regression):
    evaluator = CandidateEvaluator(blocksworld, flagship, blocksworld_regression)
    read = evaluator.read(THOUSAND_WIDE)
    assert read is not None  # within the size cap, so it is grounded
    cand = evaluator.evaluate(*read, Provenance(None, 1, "thousand-wide"))
    assert cand.score == evaluator.weights.unsolvable_penalty
    assert cand.plan_length is None and not cand.regression_ok


def test_zero_weights_order_equals_plan_length_order(zero_evaluator):
    candidates = [
        zero_evaluator.evaluate(*_read(text), Provenance(None, 1, name))
        for name, text in (
            ("worse", WORSE),
            ("multi", variants.MULTI_LIFT),
            ("unsolvable", UNSOLVABLE),
            ("extract", variants.MID_EXTRACT),
        )
    ]
    by_score = sorted(candidates, key=lambda c: c.score)
    lengths = [c.plan_length for c in by_score]
    assert lengths == [2, 4, 6, None]  # unsolvable carries the penalty, sorts last


def test_argmin_decisions_invariant_under_positive_scaling():
    rng = random.Random(5)
    weights = ObjectiveWeights(alpha=0.3, lam=0.7, unsolvable_penalty=1e6)
    rows = []
    for _ in range(200):
        solvable = rng.random() < 0.8
        rows.append(
            (
                rng.randrange(0, 12) if solvable else None,
                rng.randrange(10, 60),
                rng.randrange(0, 400),
            )
        )

    def objective(row, scale):
        length, compact, lev = row
        if length is None:
            return scale * weights.unsolvable_penalty
        return scale * (length + weights.lam * compact + weights.alpha * lev)

    for scale in (0.001, 1.0, 7.0, 1e4):
        base = [objective(r, 1.0) for r in rows]
        scaled = [objective(r, scale) for r in rows]
        assert sorted(range(len(rows)), key=base.__getitem__) == sorted(
            range(len(rows)), key=scaled.__getitem__
        )
        assert min(range(len(rows)), key=base.__getitem__) == min(
            range(len(rows)), key=scaled.__getitem__
        )


# -- ucb1 ---------------------------------------------------------------------


def test_ucb1_unvisited_first():
    assert ucb1(0.9, 0, 5, 1.4) == math.inf


def test_ucb1_zero_c_returns_mean():
    assert ucb1(0.5, 2, 8, 0.0) == 0.5


def test_ucb1_formula_value():
    expected = 0.5 + math.sqrt(2) * math.sqrt(math.log(8) / 2)
    assert abs(ucb1(0.5, 2, 8, math.sqrt(2)) - expected) < 1e-12


# -- bfs ------------------------------------------------------------------


def test_bfs_succeeds_at_depth_one(zero_evaluator):
    result = bfs_search(SearchRun(_cfg("bfs"), builtin_script(), zero_evaluator))
    assert result.success
    assert result.best.plan_length == 2  # first scripted variant wins
    assert result.best.provenance.oracle_round == 1
    assert result.best.domain.action("pickup-pair") is not None


def test_bfs_minimal_depth_on_staged_script(zero_evaluator):
    original_text = print_canonical(parse_domain(ORIGINAL))
    worse_text = print_canonical(parse_domain(WORSE))
    staged = ScriptedOracle(
        [
            ScriptEntry(
                lambda ctx: print_canonical(ctx.domain) == original_text, (WORSE,)
            ),
            ScriptEntry(
                lambda ctx: print_canonical(ctx.domain) == worse_text,
                (variants.MULTI_LIFT,),
            ),
        ]
    )
    result = bfs_search(SearchRun(_cfg("bfs", max_depth=3), staged, zero_evaluator))
    assert result.success
    assert result.best.provenance.oracle_round == 2  # found at depth 2, not 3
    assert result.best.plan_length == 2


def test_bfs_target_zero_fails(zero_evaluator):
    result = bfs_search(SearchRun(_cfg("bfs", target_length=0), builtin_script(), zero_evaluator))
    assert not result.success


def test_bfs_empty_oracle_explores_root_only(zero_evaluator):
    result = bfs_search(SearchRun(_cfg("bfs", max_depth=1), _oracle(), zero_evaluator))
    assert not result.success
    assert result.explored == 1


def test_bfs_root_success_when_target_met(blocksworld, flagship, blocksworld_regression):
    evaluator = CandidateEvaluator(blocksworld, flagship, blocksworld_regression, weights=ZERO)
    result = bfs_search(SearchRun(_cfg("bfs", target_length=6), builtin_script(), evaluator))
    assert result.success and result.explored == 1
    assert result.best.plan_length == 6


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_root_returned_without_oracle_call_when_target_met(algorithm, blocksworld, flagship, blocksworld_regression):
    oracle = builtin_script()
    result = run_search(_cfg(algorithm, target_length=6), blocksworld, flagship, blocksworld_regression, oracle)
    assert result.success and result.explored == 1
    assert result.best.step_id == 0 and result.best.plan_length == 6
    assert oracle.calls == 0


# The original cannot plan the flagship at all, so mcts has no baseline
# length to improve on and rewards any solving candidate fully.
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unsolvable_original_reaches_target(algorithm, flagship, blocksworld_regression):
    result = run_search(
        _cfg(algorithm, target_length=2), parse_domain(UNSOLVABLE), flagship, blocksworld_regression, builtin_script()
    )
    assert result.success
    assert result.best.plan_length == 2
    assert result.best.canonical_text == print_canonical(parse_domain(variants.MULTI_LIFT))


# -- mcts ---------------------------------------------------------------------


def test_mcts_scripted_success(zero_evaluator):
    result = mcts_search(SearchRun(_cfg("mcts", mcts_iterations=10, seed=7), builtin_script(), zero_evaluator))
    assert result.success
    assert result.best.plan_length == 2


def test_mcts_zero_reward_visit_accounting(zero_evaluator):
    roots = []
    result = mcts_search(
        SearchRun(_cfg("mcts", mcts_iterations=12, seed=3), _oracle(UNSOLVABLE), zero_evaluator),
        observer=lambda it, root: roots.append(root),
    )
    assert not result.success
    root = roots[-1]
    assert sum(child.visits for child in root.children) == 12
    assert root.visits == 12
    assert all(n.total_reward == 0.0 for n in root.children)


def test_mcts_deterministic(zero_evaluator, blocksworld, flagship, blocksworld_regression):
    def run():
        evaluator = CandidateEvaluator(
            blocksworld, flagship, blocksworld_regression, weights=ZERO
        )
        cfg = _cfg("mcts", mcts_iterations=8, seed=11)
        result = mcts_search(SearchRun(cfg, _oracle(WORSE, UNSOLVABLE), evaluator))
        return (result.success, result.explored, result.oracle_calls,
                result.best.canonical_text)

    assert run() == run()


def test_mcts_selection_breaks_ties_low_index():
    from axiomforge.search.mcts import _Node, _select_child

    a = EditCandidate(None, "a", Provenance(None, 0, ""))
    nodes = [_Node(a), _Node(a), _Node(a)]
    parent = _Node(a)
    parent.children = nodes
    parent.visits = 3
    for n in nodes:
        n.visits = 1
        n.total_reward = 0.5
    assert _select_child(parent, 1.0) is nodes[0]
    nodes[1].total_reward = 0.9
    assert _select_child(parent, 1.0) is nodes[1]


# -- genetic ------------------------------------------------------------------


def test_ga_population_constant_and_elite_monotone(zero_evaluator):
    generations = []
    result = genetic_search(
        SearchRun(
            _cfg("genetic", ga_population=4, ga_generations=5, ga_mutation_rate=0.5, seed=2),
            _oracle(WORSE, UNSOLVABLE),
            zero_evaluator,
        ),
        observer=lambda gen, pop: generations.append(pop),
    )
    assert not result.success
    assert len(generations) == 5
    assert all(len(pop) == 4 for pop in generations)
    elite_scores = [min(c.score for c in pop) for pop in generations]
    assert all(a >= b for a, b in zip(elite_scores, elite_scores[1:]))


def test_ga_scripted_success(zero_evaluator):
    result = genetic_search(
        SearchRun(_cfg("genetic", ga_population=4, ga_generations=3, seed=1), builtin_script(), zero_evaluator)
    )
    assert result.success
    assert result.best.plan_length == 2


def test_ga_population_minimum(zero_evaluator):
    with pytest.raises(ValueError):
        genetic_search(SearchRun(_cfg("genetic", ga_population=1), builtin_script(), zero_evaluator))


def test_mutation_rate_validated():
    with pytest.raises(ValueError):
        SearchConfig(algorithm="genetic", target_length=4, ga_mutation_rate=2.0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("field, value", [
    ("max_depth", 0), ("mcts_iterations", 0), ("ga_population", 1),
    ("proposals_per_expansion", 0), ("ga_generations", -1),
])
def test_config_rejects_caps_out_of_range(algorithm, field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(algorithm=algorithm, target_length=4, **{field: value})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("alpha", -1.0), ("alpha", NAN), ("alpha", INF),
    ("lam", -1.0), ("lam", NAN), ("lam", INF),
    ("unsolvable_penalty", 0.0), ("unsolvable_penalty", NAN), ("unsolvable_penalty", INF),
])
def test_weights_validated(field, value):
    with pytest.raises(ValueError):
        ObjectiveWeights(**{field: value})


@pytest.mark.parametrize("value", [-1.0, NAN, INF])
def test_exploration_constant_validated(value):
    with pytest.raises(ValueError):
        SearchConfig(algorithm="mcts", target_length=4, mcts_exploration_c=value)


SNAPSHOT_CONFIGS = [
    SearchConfig(algorithm="bfs", target_length=4),
    SearchConfig(algorithm="genetic", target_length=2, beam_width=3, mcts_exploration_c=0.5,
                 ga_mutation_rate=1.0, max_depth=5, seed=9,
                 weights=ObjectiveWeights(alpha=0.5, lam=0.0, unsolvable_penalty=7.0)),
]


@pytest.mark.parametrize("cfg", SNAPSHOT_CONFIGS)
def test_snapshot_equals_asdict(cfg):
    snap = cfg.snapshot()
    assert snap == asdict(cfg)
    assert list(snap) == list(asdict(cfg))


@pytest.mark.parametrize("cfg", SNAPSHOT_CONFIGS)
def test_snapshot_is_the_callers_own(cfg):
    before = asdict(cfg)
    snap = cfg.snapshot()
    snap["seed"] = -1
    snap["weights"]["alpha"] = 99.0
    snap["weights"]["extra"] = 1
    assert asdict(cfg) == before
    assert cfg.snapshot() == before


def test_ga_deterministic(blocksworld, flagship, blocksworld_regression):
    def run():
        evaluator = CandidateEvaluator(
            blocksworld, flagship, blocksworld_regression, weights=ZERO
        )
        cfg = _cfg("genetic", ga_population=3, ga_generations=3, seed=13)
        result = genetic_search(SearchRun(cfg, _oracle(WORSE, UNSOLVABLE), evaluator))
        return (result.success, result.explored, result.best.canonical_text)

    assert run() == run()


# -- beam ---------------------------------------------------------------------


def test_beam_scripted_success_iteration_one(zero_evaluator):
    result = beam_search(
        SearchRun(_cfg("beam", beam_width=8, seed=1), builtin_script(), zero_evaluator), LevenshteinMockOracle()
    )
    assert result.success
    assert result.best.plan_length == 2
    assert result.best.domain.action("pickup-pair") is not None
    assert result.best.provenance.oracle_round == 1


def test_beam_width_one_keeps_original_against_worse(zero_evaluator, blocksworld, flagship, blocksworld_regression):
    evaluator = CandidateEvaluator(
        blocksworld, flagship, blocksworld_regression,
        weights=ObjectiveWeights(alpha=0.01, lam=0.01),
    )
    beams = []
    result = beam_search(
        SearchRun(_cfg("beam", beam_width=1, max_depth=3), _oracle(WORSE), evaluator),
        LevenshteinMockOracle(),
        observer=lambda it, beam: beams.append(beam),
    )
    assert not result.success
    original_text = evaluator.original_text
    assert all(beam[0].canonical_text == original_text for beam in beams)


def test_beam_never_exceeds_width(zero_evaluator):
    beams = []
    result = beam_search(
        SearchRun(_cfg("beam", beam_width=2, max_depth=2, target_length=0), builtin_script(), zero_evaluator),
        LevenshteinMockOracle(),
        observer=lambda it, beam: beams.append(beam),
    )
    assert not result.success
    assert beams and all(len(beam) <= 2 for beam in beams)


class CountingOracle(LevenshteinMockOracle):
    """The mock oracle's answers, with every `_samples` call's pair kept."""

    def __init__(self):
        super().__init__()
        self.pairs = []

    def _samples(self, reference, a, b, n):
        self.pairs.append({a, b})
        return super()._samples(reference, a, b, n)


def _beam_pools(monkeypatch, evaluator, script, distance_oracle, **kw):
    """Run beam; return each iteration's ranked pool, keep and oracle pairs."""
    pools = []

    def spy(pool, keep, reference, oracle):
        before = len(distance_oracle.pairs)
        rank_pool(pool, keep, reference, oracle)
        pools.append((list(pool), keep, distance_oracle.pairs[before:]))

    monkeypatch.setattr(beam_module, "rank_pool", spy)
    beam_search(SearchRun(_cfg("beam", **kw), script, evaluator), distance_oracle)
    return pools


def test_beam_with_distinct_scores_asks_the_distance_oracle_nothing(
    monkeypatch, blocksworld, flagship, blocksworld_regression
):
    evaluator = CandidateEvaluator(blocksworld, flagship, blocksworld_regression)
    distance = CountingOracle()
    pools = _beam_pools(
        monkeypatch, evaluator, _oracle(WORSE, variants.MID_EXTRACT, variants.MULTI_LIFT), distance,
        beam_width=2, max_depth=2, target_length=0,
    )
    assert len(pools) == 2
    for pool, _, pairs in pools:
        assert len(pool) > 1 and len({c.score for c in pool}) == len(pool)
        assert pairs == []
        assert [c.score for c in pool] == sorted(c.score for c in pool)


def test_beam_tie_queries_stay_inside_the_tied_survivors(monkeypatch, zero_evaluator):
    # Under zero weights the original and WORSE both score their plan length, 6.
    distance = CountingOracle()
    pools = _beam_pools(monkeypatch, zero_evaluator, _oracle(WORSE, variants.MID_EXTRACT), distance, beam_width=8)
    [(pool, keep, pairs)] = pools
    assert [c.score for c in pool] == [4.0, 6.0, 6.0]
    tied = {zero_evaluator.original_text, print_canonical(parse_domain(WORSE))}
    assert pairs and all(pair <= tied for pair in pairs)
    assert len(pairs) <= query_budget(keep)
    # The mock oracle puts the original, at distance 0 from itself, first.
    assert [c.canonical_text for c in pool[1:]] == [zero_evaluator.original_text, print_canonical(parse_domain(WORSE))]


def _pool(reference, texts, scores):
    return [
        EditCandidate(
            domain=None, canonical_text=text, provenance=Provenance(None, 1, "test"),
            lev_distance=levenshtein(reference, text), score=score,
        )
        for text, score in zip(texts, scores)
    ]


def test_rank_pool_queries_only_survivors_of_one_score():
    reference = "(a b c d)"
    texts = ["(a b c d e)", "(a b)", "(a b c)", "(x y z w v u)", "(a)", "(a b c d f g)", "(q)", "(a c d)"]
    scores = [2.0, 1.0, 2.0, 2.0, 3.0, 2.0, 2.0, 4.0]
    pool = _pool(reference, texts, scores)
    keep = 4
    by_lev = sorted(texts, key=lambda t: (levenshtein(reference, t), t))
    survivors = set(by_lev[:keep])
    tied_survivors = {t for t, s in zip(texts, scores) if s == 2.0} & survivors
    assert len(tied_survivors) >= 2 and tied_survivors != survivors
    oracle = CountingOracle()
    rank_pool(pool, keep, reference, oracle)
    assert oracle.pairs and all(pair <= tied_survivors for pair in oracle.pairs)
    assert len(oracle.pairs) <= query_budget(keep)
    assert [c.score for c in pool] == sorted(scores)


_TEXTS = st.lists(st.text(alphabet="ab()", min_size=1, max_size=6), min_size=1, max_size=12, unique=True)


@settings(max_examples=200, deadline=None)
@given(_TEXTS, st.data())
def test_rank_pool_orders_like_sorting_by_score_then_hybrid_rank(texts, data):
    reference = "(ab)(ba)"
    scores = data.draw(st.lists(st.sampled_from([1.0, 2.0, math.inf]), min_size=len(texts), max_size=len(texts)))
    keep = data.draw(st.integers(1, len(texts)))
    pool = _pool(reference, texts, scores)
    oracle = CountingOracle()
    rank_pool(pool, keep, reference, oracle)
    position = {t: i for i, t in enumerate(hybrid_rank(reference, texts, keep, LevenshteinMockOracle()).items)}
    expected = sorted(zip(scores, texts), key=lambda pair: (pair[0], position[pair[1]], pair[1]))
    assert [(c.score, c.canonical_text) for c in pool] == expected
    assert len(oracle.pairs) <= query_budget(keep)


# -- cross-cutting -------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["bfs", "mcts", "genetic", "beam"])
def test_success_implies_valid_fast_plan(algorithm, blocksworld, flagship, blocksworld_regression):
    from axiomforge.pddl import link
    from axiomforge.planner import ground, validate_plan

    evaluator = CandidateEvaluator(blocksworld, flagship, blocksworld_regression, weights=ZERO)
    cfg = _cfg(algorithm)
    run = SearchRun(cfg, builtin_script(), evaluator)
    if algorithm == "beam":
        result = beam_search(run, LevenshteinMockOracle())
    else:
        fn = {"bfs": bfs_search, "mcts": mcts_search, "genetic": genetic_search}[algorithm]
        result = fn(run)
    assert result.success
    assert result.best.plan_length <= cfg.target_length
    assert result.best.regression_ok
    task = ground(link(result.best.domain, flagship))
    assert validate_plan(task, result.best.plan_result) == (True, None)


def test_evaluate_many_dedups_and_orders(zero_evaluator):
    worse = _read(WORSE)
    multi = _read(variants.MULTI_LIFT)
    batch = [
        (*worse, Provenance(None, 1, "w1")),
        (*multi, Provenance(None, 1, "m")),
        (*worse, Provenance(None, 1, "w2")),  # duplicate text within the batch
    ]
    results = zero_evaluator.evaluate_many(batch)
    assert results[0] is results[2]
    assert results[1].plan_length == 2
    assert zero_evaluator.evaluations == 2


def test_oracle_call_accounting(zero_evaluator):
    oracle = builtin_script()
    result = bfs_search(SearchRun(_cfg("bfs"), oracle, zero_evaluator))
    assert result.oracle_calls == oracle.calls


@pytest.mark.parametrize("recording", [True, False], ids=["writer", "no-writer"])
def test_a_search_run_returns_its_writers_run_id(recording, tmp_path, zero_evaluator):
    # Driven without run_search, as tests/test_pinned_trajectories.py drives runs.
    header = TrajectoryHeader.new(
        config={}, original_domain_text=zero_evaluator.original_text, problem_text="",
        corpus_domain_name="blocksworld", seed=1, engine_version="test",
    )
    with TrajectoryWriter(tmp_path / "run.jsonl", header) as writer:
        run = SearchRun(_cfg("bfs"), builtin_script(), zero_evaluator, writer if recording else None)
        result = bfs_search(run)
    assert result.trajectory_id == (header.run_id if recording else None)


def test_run_search_dispatch(blocksworld, flagship, blocksworld_regression):
    cfg = SearchConfig(algorithm="beam", target_length=4, seed=1, weights=ZERO)
    result = run_search(
        cfg, blocksworld, flagship, blocksworld_regression, builtin_script()
    )
    assert result.success and result.trajectory_id is None


# -- reading oracle text ------------------------------------------------------


class _RepeatingOracle(ProposalOracle):
    """Answers every request from a fixed pool of raw texts; each answer
    repeats an earlier one with probability 0.3, as live oracles and the
    benchmark's seeded edit oracle do."""

    POOL = (WORSE, UNSOLVABLE, NO_PUTDOWN, variants.MID_EXTRACT, UNLINKABLE, BROKEN, WORSE + "\n; again\n")

    def __init__(self, seed: int):
        super().__init__()
        self._rng = random.Random(seed)
        self.issued: list = []

    def _next(self) -> str:
        if self.issued and self._rng.random() < 0.3:
            text = self._rng.choice(self.issued)
        else:
            text = self.POOL[len(set(self.issued)) % len(self.POOL)]
        self.issued.append(text)
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


@pytest.fixture()
def parsed(monkeypatch):
    """Every raw text the run's evaluator parses, in order."""
    texts = []

    def recording_parse(text, forms=None):
        texts.append(text)
        return parse_domain(text, forms)

    monkeypatch.setattr(candidate_module, "parse_domain", recording_parse)
    return texts


def _unreachable_cfg(algorithm):
    return _cfg(algorithm, target_length=0, max_depth=2, mcts_iterations=8,
                ga_population=4, ga_generations=3, ga_mutation_rate=0.5)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_parses_each_distinct_text_once(
    algorithm, parsed, blocksworld, flagship, blocksworld_regression
):
    oracle = _RepeatingOracle(seed=3)
    result = run_search(
        _unreachable_cfg(algorithm), blocksworld, flagship, blocksworld_regression, oracle
    )
    assert not result.success
    assert len(oracle.issued) > len(set(oracle.issued))  # the oracle repeated itself
    assert len(parsed) == len(set(parsed))
    assert set(parsed) <= set(oracle.issued)
    assert len(parsed) >= 3


class _ContextLog(_RepeatingOracle):
    """A repeating oracle that keeps the context of every call it answers."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.contexts: list = []

    def propose(self, ctx, k: int) -> list:
        self.contexts.append(("propose", ctx))
        return super().propose(ctx, k)

    def crossover(self, ctx, parent_a: str, parent_b: str) -> str:
        self.contexts.append(("crossover", ctx))
        return super().crossover(ctx, parent_a, parent_b)

    def mutate(self, ctx, candidate: str) -> str:
        self.contexts.append(("mutate", ctx))
        return super().mutate(ctx, candidate)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_oracle_call_sees_the_run_task(algorithm, blocksworld, flagship, blocksworld_regression):
    oracle = _ContextLog(seed=3)
    cfg = replace(_unreachable_cfg(algorithm), target_length=1)
    run_search(cfg, blocksworld, flagship, blocksworld_regression, oracle)
    kinds = {kind for kind, _ in oracle.contexts}
    assert kinds == ({"propose", "crossover", "mutate"} if algorithm == "genetic" else {"propose"})
    assert all(ctx.target_length == cfg.target_length for _, ctx in oracle.contexts)
    assert all(ctx.problem is flagship for _, ctx in oracle.contexts)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_each_step_is_summarized_once_for_every_later_history(
    algorithm, monkeypatch, tmp_path, blocksworld, flagship, blocksworld_regression
):
    summarized, histories = [], []
    context = SearchRun.context

    def counting_summarize(cand):
        summarized.append(cand.step_id)
        return summarize(cand)

    def checked_context(run, node):
        ctx = context(run, node)
        assert ctx.history == tuple(summarize(c) for c in run.steps[-3:])
        histories.append(ctx.history)
        return ctx

    # A window shorter than these runs' step counts, so that it slides.
    monkeypatch.setattr(common_module, "HISTORY_WINDOW", 3)
    monkeypatch.setattr(common_module, "summarize", counting_summarize)
    monkeypatch.setattr(SearchRun, "context", checked_context)
    path = tmp_path / "run.jsonl"
    run_search(
        _unreachable_cfg(algorithm), blocksworld, flagship, blocksworld_regression,
        _RepeatingOracle(seed=3), trajectory_path=path,
    )
    (recorded,) = read_runs(path)
    assert summarized == list(range(len(recorded.steps)))
    assert sum(len(history) for history in histories) > len(recorded.steps)
    assert max(len(history) for history in histories) == 3


def test_a_second_run_parses_again(parsed, blocksworld, flagship, blocksworld_regression):
    cfg = _unreachable_cfg("beam")
    run_search(cfg, blocksworld, flagship, blocksworld_regression, _RepeatingOracle(seed=3))
    first = list(parsed)
    parsed.clear()
    run_search(cfg, blocksworld, flagship, blocksworld_regression, _RepeatingOracle(seed=3))
    assert first and parsed == first


def test_a_second_run_reads_its_forms_again(monkeypatch, blocksworld, flagship):
    """The form memo lives in the run's evaluator: within one evaluator the
    forms that two texts share are read once, and a new one reads them again."""
    reads = []
    read_one = parser_module.read_one

    def recording_read(text, *window):
        reads.append(text[window[0] : window[1]] if window else text)
        return read_one(text, *window)

    monkeypatch.setattr(parser_module, "read_one", recording_read)

    def run():
        reads.clear()
        read = CandidateEvaluator(blocksworld, flagship, []).read
        assert all(read(text) is not None for text in (ORIGINAL, variants.MID_EXTRACT))
        return list(reads)

    first = run()
    # MID_EXTRACT shares its header and four actions with the original, so
    # only its two new actions are read.
    assert len(first) == len(split_define(ORIGINAL)) - 1 + 2
    assert run() == first


def _memo_of_original(domain, problem):
    """The form memo a new evaluator of `domain` starts with."""
    return CandidateEvaluator(domain, problem, [])._forms


def _memo_of_parse(domain):
    """The form memo that parsing `domain`'s canonical text builds."""
    forms: dict = {}
    parse_domain(print_canonical(domain), forms)
    return forms


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_the_original_is_filed_as_its_canonical_text_parses(name):
    entry = corpus.load(name)
    domain = parse_domain(entry.domain_text)
    filed = _memo_of_original(domain, parse_problem(entry.flagship.text))
    assert len(filed) == 1 + len(domain.actions)
    assert filed == _memo_of_parse(domain)


def _accepted(domain) -> bool:
    """Whether `domain`'s canonical text parses back to it."""
    try:
        return parse_domain(print_canonical(domain)) == domain
    except PddlError:
        return False


# Each rule edit of a corpus domain whose canonical text parses back to it,
# with that domain's flagship problem.
_FILED_EDITS = [
    (edit, problem)
    for name in corpus.CORPUS_NAMES
    for problem in [parse_problem(corpus.load(name).flagship.text)]
    for edit in rule_edits(parse_domain(corpus.load(name).domain_text))
    if _accepted(edit)
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FILED_EDITS))
def test_an_edited_original_is_filed_as_its_canonical_text_parses(case):
    edit, problem = case
    assert _memo_of_original(edit, problem) == _memo_of_parse(edit)


def test_a_first_canonical_edit_reads_only_the_form_it_changed(monkeypatch, blocksworld, flagship):
    """The run's form memo starts with the original's forms, so a canonical
    text that changes one action reads that action alone; a second
    evaluator, with a memo of its own, reads it again."""
    reads = []
    read_one = parser_module.read_one

    def recording_read(text, *window):
        reads.append(text[window[0] : window[1]] if window else text)
        return read_one(text, *window)

    monkeypatch.setattr(parser_module, "read_one", recording_read)
    edit = rule_edits(blocksworld)[0]
    assert edit.actions[1:] == blocksworld.actions[1:] and edit.actions[0] != blocksworld.actions[0]
    text = print_canonical(edit)
    changed = next(text[f.start : f.end] for f in split_define(text) if f.head == ":action")

    def first_read():
        reads.clear()
        assert CandidateEvaluator(blocksworld, flagship, []).read(text) is not None
        return list(reads)

    assert first_read() == [changed]
    assert first_read() == [changed]


def test_a_forall_naming_a_variable_twice_is_not_read(blocksworld, flagship):
    read = CandidateEvaluator(blocksworld, flagship, []).read
    pre = "(and (clear ?ob) (on-table ?ob) (arm-empty))"
    assert pre in ORIGINAL
    for variables, kept in (("?x ?y", True), ("?x ?x", False)):
        block = ORIGINAL.replace(pre, f"(and (forall ({variables}) (clear ?x)) (on-table ?ob) (arm-empty))")
        assert (read(block) is not None) is kept


def test_over_long_block_is_dropped_unread(parsed, blocksworld, flagship):
    original = print_canonical(blocksworld)
    noops = "".join(
        f"\n  (:action noop-{i}\n    :parameters ()\n    :precondition (and)\n    :effect (and))"
        for i in range(5000)
    )
    long_block = ORIGINAL[: ORIGINAL.rindex(")")] + noops + ")"
    assert len(long_block) > MAX_TEXT_FACTOR * len(original)
    read = CandidateEvaluator(blocksworld, flagship, []).read
    kept = filter_linkable([long_block, variants.MID_EXTRACT], read, 2)
    assert parsed == [variants.MID_EXTRACT]
    assert [text for _, text in kept] == [print_canonical(parse_domain(variants.MID_EXTRACT))]


def test_unlinkable_task_fails_before_any_oracle_call(blocksworld):
    hanoi = parse_problem(corpus.load("hanoi").flagship.text)
    oracle = builtin_script()
    with pytest.raises(PddlError) as err:
        run_search(SearchConfig("bfs", 4), blocksworld, hanoi, [], oracle)
    assert [d.code for d in err.value.diagnostics] == ["domain-name-mismatch"]
    assert oracle.calls == 0


def test_an_evaluator_serves_one_run(zero_evaluator):
    bfs_search(SearchRun(_cfg("bfs"), builtin_script(), zero_evaluator))
    with pytest.raises(ValueError, match="an evaluator serves one run"):
        bfs_search(SearchRun(_cfg("bfs"), builtin_script(), zero_evaluator))


def _record_links_and_compiles(monkeypatch):
    """Lists that collect the key of each `link` call (the problem and what
    link reads of the domain) and the action of each schema compile."""
    links, compiled = [], []

    def recording_link(domain, problem):
        params = frozenset(p.type for a in domain.actions for p in a.params)
        links.append((problem, domain.name, domain.types, domain.constants, domain.predicates, params))
        return link(domain, problem)

    compile_schema = planner._Compiler.schema

    def recording_schema(compiler, action):
        compiled.append(action)
        return compile_schema(compiler, action)

    monkeypatch.setattr(planner, "link", recording_link)
    monkeypatch.setattr(planner._Compiler, "schema", recording_schema)
    return links, compiled


def test_a_second_run_links_and_grounds_again(monkeypatch, blocksworld, flagship, blocksworld_regression):
    links, compiled = _record_links_and_compiles(monkeypatch)
    cfg = _unreachable_cfg("beam")
    run_search(cfg, blocksworld, flagship, blocksworld_regression, _RepeatingOracle(seed=3))
    first = (list(links), list(compiled))
    links.clear()
    compiled.clear()
    run_search(cfg, blocksworld, flagship, blocksworld_regression, _RepeatingOracle(seed=3))
    assert first[0] and first[1] and (links, compiled) == first


@pytest.mark.parametrize(
    "text",
    [REPEATED_PRECONDITION, variants.MID_EXTRACT.replace("(?ob ?above)", "(- object ?ob ?above)")],
    ids=["repeated-precondition", "orphan-dash"],
)
def test_a_block_with_a_repeat_or_an_orphan_dash_reads_as_none(text, zero_evaluator):
    assert zero_evaluator.read(text) is None


@pytest.mark.parametrize(
    "declaration",
    ["(:types a - b a - c b c)", "(:constants k - a k - b)", "(:predicates (arm-empty))"],
    ids=["type", "constant", "predicate"],
)
def test_a_block_with_a_repeated_declaration_reads_as_none(declaration, zero_evaluator):
    text = variants.MID_EXTRACT.replace("(:predicates", f"{declaration}\n    (:predicates", 1)
    assert zero_evaluator.read(text) is None


def test_unlinkable_text_is_rejected_once(parsed, zero_evaluator):
    oracle = _oracle(UNLINKABLE, WORSE, BROKEN, variants.MID_EXTRACT)
    run = SearchRun(_cfg("beam"), oracle, zero_evaluator)
    root = run.root()
    batches = [run.propose(root) for _ in range(3)]
    assert parsed.count(UNLINKABLE) == 1 and parsed.count(BROKEN) == 1
    assert run.evaluator.read(UNLINKABLE) is None and run.evaluator.read(BROKEN) is None
    expected = [_read(WORSE)[1], _read(variants.MID_EXTRACT)[1]]
    assert all([text for _, text in batch] == expected for batch in batches)


@pytest.mark.parametrize("child", [BROKEN, UNLINKABLE], ids=["unparsable", "unlinkable"])
def test_rejected_child_falls_back_to_parent_a(child, blocksworld, flagship, blocksworld_regression):
    parents, batches = [], []

    class Breeder(ScriptedOracle):
        def crossover(self, ctx, parent_a, parent_b):
            self.calls += 1
            parents.append((parent_a, parent_b))
            return child

    class BatchLog(CandidateEvaluator):
        def evaluate_many(self, items):
            batches.append([text for _, text, _ in items])
            return super().evaluate_many(items)

    evaluator = BatchLog(blocksworld, flagship, blocksworld_regression, weights=ZERO)
    oracle = Breeder([ScriptEntry(lambda ctx: True, (WORSE,))])
    cfg = _cfg("genetic", target_length=0, ga_population=4, ga_generations=3)
    result = genetic_search(SearchRun(cfg, oracle, evaluator))
    assert result.explored == 2  # the root and WORSE; no child is new
    assert any(a != b for a, b in parents)
    assert [text for batch in batches for text in batch] == [a for a, _ in parents]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_each_candidate_is_linked_to_the_flagship_and_compiled_once(
    algorithm, monkeypatch, blocksworld, flagship, blocksworld_regression
):
    """Within one run, each distinct action schema is compiled once, and
    `link` runs once per distinct link key and problem: the link `read`
    makes to the flagship serves the evaluation, and an edit that keeps what link
    reads of the domain is not linked again."""
    links, compiled = _record_links_and_compiles(monkeypatch)
    result = run_search(
        _unreachable_cfg(algorithm), blocksworld, flagship, blocksworld_regression, _RepeatingOracle(seed=3)
    )
    assert result.explored > 1
    assert compiled and len(compiled) == len(set(compiled))
    assert links and len(links) == len(set(links))
    assert len(compiled) < result.explored * len(blocksworld.actions)
