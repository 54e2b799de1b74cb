"""The candidate evaluator's suite witnesses, search limits, text cap and
block memo.

The root's evaluation keeps each suite problem's plan; a later candidate
keeps that problem when the plan replays lifted under its rules, and is
searched otherwise, as an evaluator without a root evaluation always is.
"""

import pytest

from axiomforge import corpus
from axiomforge.pddl import link, parse_domain, parse_problem, print_canonical
from axiomforge.pddl import printer as printer_module
from axiomforge.planner import Plan, ResourceExceeded, SearchLimits, ground, solve, validate_lifted
from axiomforge.proposer import ScriptEntry, ScriptedOracle, builtin_script
from axiomforge.search import CandidateEvaluator, Provenance, SearchConfig, run_search
from axiomforge.search import candidate as candidate_module
from axiomforge.search.candidate import MAX_TEXT_FACTOR
from axiomforge.trajectory import read_runs

from test_pddl_fuzz import rule_edits
from test_pinned_plans import tower_reversal

ORIGINAL = corpus.load("blocksworld").domain_text


def _painted(text):
    """Blocksworld rules plus `paint`, which any clear block allows: the
    flagship keeps its 6-step plan, and a search meets many more states on
    the way to it."""
    return text.replace("(on ?x ?y)", "(on ?x ?y)\n        (painted ?x)").replace(
        "(:action pickup",
        "(:action paint :parameters (?ob) :precondition (clear ?ob) :effect (painted ?ob))\n    (:action pickup",
    )


PAINT = _painted(ORIGINAL)
# Blocksworld with `unstack` renamed: the same plans, under another name.
RENAMED = ORIGINAL.replace("(:action unstack", "(:action lift")
# Blocksworld without `putdown`: no block reaches the table again.
NO_PUTDOWN = ORIGINAL.replace(
    ORIGINAL[ORIGINAL.index("(:action putdown") : ORIGINAL.index("(:action stack")], ""
)

TOWER = parse_problem(tower_reversal(5))
# A search of the tower expands 95 states under the original rules and 537
# under PAINT; one of the flagship expands 17 and 88.
CAP = SearchLimits(max_expanded_states=100)


def _read(text):
    domain = parse_domain(text)
    return domain, print_canonical(domain), Provenance(None, 1, "edit")


@pytest.fixture()
def grounded(monkeypatch):
    """The problem of each task the evaluator grounds, in order."""
    problems = []

    def recording_ground(task, **kwargs):
        problems.append(task.problem)
        return ground(task, **kwargs)

    monkeypatch.setattr(candidate_module, "ground", recording_ground)
    return problems


def test_a_witness_keeps_a_suite_problem_whose_search_would_trip_the_cap(grounded, blocksworld, flagship):
    assert isinstance(solve(ground(link(parse_domain(PAINT), flagship)), CAP), Plan)
    assert solve(ground(link(parse_domain(PAINT), TOWER)), CAP) == ResourceExceeded("max-expanded-states")
    evaluator = CandidateEvaluator(blocksworld, flagship, [flagship, TOWER], limits=CAP)
    assert evaluator.evaluate_root().regression_ok
    assert grounded == [flagship, TOWER]
    grounded.clear()
    cand = evaluator.evaluate(*_read(PAINT))
    assert grounded == [flagship]
    assert cand.plan_length == 6 and cand.regression_ok


def test_without_a_root_evaluation_every_suite_problem_is_searched(grounded, blocksworld, flagship):
    # Only the root's plans are witnesses: RENAMED's plan for the tower,
    # which would replay under its painted rules, is not kept.
    evaluator = CandidateEvaluator(blocksworld, flagship, [flagship, TOWER], limits=CAP)
    for text, kept in ((PAINT, False), (RENAMED, True), (_painted(RENAMED), False)):
        grounded.clear()
        cand = evaluator.evaluate(*_read(text))
        assert grounded == [flagship, TOWER]
        assert cand.plan_length == 6 and cand.regression_ok is kept


@pytest.mark.parametrize("text", [RENAMED, NO_PUTDOWN], ids=["renamed-unstack", "no-putdown"])
def test_a_candidate_without_a_witness_step_is_searched(text, grounded, blocksworld, flagship):
    # The suite leaves the flagship out, so it is decided even where the
    # flagship has no plan.
    evaluator = CandidateEvaluator(blocksworld, flagship, [TOWER])
    evaluator.evaluate_root()
    grounded.clear()
    domain, canonical, provenance = _read(text)
    cand = evaluator.evaluate(domain, canonical, provenance)
    assert grounded == [flagship, TOWER]
    assert cand.regression_ok is isinstance(solve(ground(link(domain, TOWER))), Plan)
    assert cand.regression_ok is (text == RENAMED)


# The original declares `glued`, and a suite problem's initial state uses it.
# The corpus rules do not declare it: the witness still replays under them,
# but the suite problem does not link.
GLUED = ORIGINAL.replace("(on ?x ?y)", "(on ?x ?y)\n        (glued ?x)")
GLUED_TOWER = parse_problem(tower_reversal(4).replace("(arm-empty)", "(arm-empty) (glued b1)"))


def test_a_suite_problem_that_does_not_link_fails_the_candidate(flagship):
    glued = parse_domain(GLUED)
    evaluator = CandidateEvaluator(glued, flagship, [flagship, GLUED_TOWER])
    assert evaluator.evaluate_root().regression_ok
    domain, canonical, provenance = _read(ORIGINAL)
    witness = solve(ground(link(glued, GLUED_TOWER))).steps
    assert validate_lifted(domain, GLUED_TOWER, [(s.name, s.args) for s in witness]) is None
    cand = evaluator.evaluate(domain, canonical, provenance)
    assert cand.plan_length == 6 and not cand.regression_ok
    assert cand.score == evaluator.weights.unsolvable_penalty


# The flagship's search expands 17 states under the original rules.
@pytest.mark.parametrize("cap", [1, 16])
def test_an_evaluator_honours_its_limits(cap, tmp_path, blocksworld, flagship, blocksworld_regression):
    limits = SearchLimits(max_expanded_states=cap)
    evaluator = CandidateEvaluator(blocksworld, flagship, blocksworld_regression, limits=limits)
    root = evaluator.evaluate_root()
    assert root.plan_result == ResourceExceeded("max-expanded-states")
    assert root.plan_length is None and root.score == evaluator.weights.unsolvable_penalty

    path = tmp_path / "run.jsonl"
    cfg = SearchConfig(algorithm="bfs", target_length=4, seed=1)
    run_search(cfg, blocksworld, flagship, blocksworld_regression, builtin_script(), limits=limits, trajectory_path=path)
    (run,) = read_runs(path)
    assert run.steps[0]["plan_length"] is None
    assert run.steps[0]["score"] == evaluator.weights.unsolvable_penalty


def test_a_text_at_the_size_cap_is_read_and_one_longer_is_not(monkeypatch, blocksworld, flagship):
    parsed = []

    def recording_parse(text, forms=None):
        parsed.append(text)
        return parse_domain(text, forms)

    monkeypatch.setattr(candidate_module, "parse_domain", recording_parse)
    read = CandidateEvaluator(blocksworld, flagship, []).read
    cap = MAX_TEXT_FACTOR * len(print_canonical(blocksworld))
    at_cap = ORIGINAL + "\n;" + "x" * (cap - len(ORIGINAL) - 2)
    assert len(at_cap) == cap
    assert read(at_cap) is not None and parsed == [at_cap]
    assert read(at_cap + "x") is None and parsed == [at_cap]


def test_a_run_prints_each_action_it_reads_once(monkeypatch, blocksworld, flagship, blocksworld_regression):
    """An edit of one action prints only that action: the others are the
    objects of the original, whose blocks the run's block memo holds."""
    edits = tuple(print_canonical(edit) for edit in rule_edits(blocksworld))
    printed, formatted = [], []
    real_print = candidate_module.print_canonical
    real_format = printer_module.format_formula

    def recording_print(domain, *blocks):
        printed.append(domain)
        return real_print(domain, *blocks)

    def recording_format(f):
        formatted.append(f)
        return real_format(f)

    monkeypatch.setattr(candidate_module, "print_canonical", recording_print)
    monkeypatch.setattr(printer_module, "format_formula", recording_format)
    oracle = ScriptedOracle([ScriptEntry(trigger=lambda ctx: True, responses=edits)])
    cfg = SearchConfig(algorithm="beam", target_length=0, max_depth=2, proposals_per_expansion=len(edits))
    run_search(cfg, blocksworld, flagship, blocksworld_regression, oracle)

    actions = {id(a): a for domain in printed for a in domain.actions}
    preconditions = [f for f in formatted if any(f is a.precondition for a in actions.values())]
    assert len(printed) > len(edits) // 2
    assert len(preconditions) == len(actions) < sum(len(domain.actions) for domain in printed)
