import pytest

from axiomforge import corpus
from axiomforge.corpus import variants
from axiomforge.pddl import link, parse_domain, parse_problem
from axiomforge.planner import Plan, ground, solve
from axiomforge.trajectory import content_hash

from oracle_bfs import oracle_plan_length

ALL_PROBLEMS = [
    (name, prob.name)
    for name in corpus.CORPUS_NAMES
    for prob in corpus.load(name).problems
]


def _task(name, problem_name):
    entry = corpus.load(name)
    return ground(
        link(parse_domain(entry.domain_text), parse_problem(entry.problem(problem_name).text))
    )


def test_twelve_domains_present():
    assert corpus.CORPUS_NAMES == (
        "blocksworld", "briefcase", "bulldozer", "casino", "depot", "ferry",
        "gripper", "hanoi", "logistics", "maze", "miconic", "monkey",
    )


def test_unknown_domain():
    with pytest.raises(corpus.UnknownDomain):
        corpus.load("chess")
    with pytest.raises(corpus.UnknownDomain):
        corpus.regression_suite("chess")


def test_unknown_entry_prints_its_message_plainly():
    with pytest.raises(KeyError) as err:
        corpus.load("chess")
    assert str(err.value) == "chess"
    with pytest.raises(KeyError) as err:
        corpus.load("blocksworld").problem("nope")
    assert str(err.value) == "blocksworld has no problem named 'nope'"


def test_load_is_embedded_no_filesystem():
    entry = corpus.load("blocksworld")
    assert entry.domain_text.startswith("(define (domain blocksworld)")
    assert entry.flagship.optimal_length == 6


def test_casino_typing_and_actions():
    domain = parse_domain(corpus.load("casino").domain_text)
    assert ":typing" in domain.requirements
    assert [a.name for a in domain.actions] == ["moveto", "getprize1", "getprize2", "getprize3"]


def test_hanoi_three_discs_is_seven():
    assert corpus.load("hanoi").problem("three-discs").optimal_length == 7


def test_gripper_transport_is_three():
    assert corpus.load("gripper").problem("transport").optimal_length == 3


def test_blocksworld_swap_is_four():
    assert corpus.load("blocksworld").problem("swap").optimal_length == 4


@pytest.mark.parametrize("name,problem_name", ALL_PROBLEMS, ids=[f"{d}:{p}" for d, p in ALL_PROBLEMS])
def test_recorded_optimum_matches_solver_and_oracle(name, problem_name):
    expected = corpus.load(name).problem(problem_name).optimal_length
    task = _task(name, problem_name)
    result = solve(task)
    assert isinstance(result, Plan)
    assert result.length == expected
    assert oracle_plan_length(task) == expected


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_regression_suite_shape(name):
    suite = corpus.regression_suite(name)
    assert len(suite) >= 2
    for problem in suite:
        assert problem.domain_name == name


def test_flagship_triple():
    entry = corpus.load("blocksworld")
    problem = parse_problem(entry.flagship.text)

    def optimum(domain_text):
        result = solve(ground(link(parse_domain(domain_text), problem)))
        assert isinstance(result, Plan)
        return result.length

    assert optimum(entry.domain_text) == 6
    assert optimum(variants.MULTI_LIFT) == 2
    assert optimum(variants.MID_EXTRACT) == 4


# The run's read memo, the pinned trajectories and the scripted oracle all
# see these raw texts, so their bytes are pinned, not just their meaning.
@pytest.mark.parametrize("text, raw_hash", [
    (variants.MULTI_LIFT, "68d5a92b23044c0a"),
    (variants.MID_EXTRACT, "b37029d8ffe80fc7"),
], ids=["multi-lift", "mid-extract"])
def test_variant_is_the_original_plus_its_edit(text, raw_hash):
    assert content_hash(text) == raw_hash
    original = parse_domain(corpus.load("blocksworld").domain_text)
    variant = parse_domain(text)
    assert variant.predicates[:len(original.predicates)] == original.predicates
    assert variant.actions[:len(original.actions)] == original.actions
