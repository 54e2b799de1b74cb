"""Every bounded setting, by hand: the value each field rejects and the
boundary value it accepts.

The table below is the reference the fields' `bounded` metadata is checked
against, so it is written out, not read from that metadata. A rejected
value raises `ValueError` whose message starts with the field's name.
"""

import math
from dataclasses import fields

import pytest

from axiomforge import corpus
from axiomforge.cli import main
from axiomforge.pddl import parse_domain, parse_problem
from axiomforge.planner import SearchLimits
from axiomforge.proposer import OracleClientConfig, ProposalContext
from axiomforge.search import ObjectiveWeights, SearchConfig

ENTRY = corpus.load("blocksworld")
# What each class needs besides the field under test.
REQUIRED = {
    SearchLimits: {},
    SearchConfig: {"algorithm": "beam", "target_length": 4},
    ObjectiveWeights: {},
    OracleClientConfig: {},
    ProposalContext: {
        "domain": parse_domain(ENTRY.domain_text),
        "problem": parse_problem(ENTRY.flagship.text),
        "baseline_length": 6,
        "target_length": 4,
    },
}

NAN, INF = math.nan, math.inf

# (class, field, rejected value, accepted boundary value)
BOUNDS = [
    (SearchLimits, "max_expanded_states", 0, 1),
    (SearchLimits, "max_expanded_states", 0.5, 1),
    (SearchLimits, "max_plan_length", 0, 1),
    (SearchLimits, "max_plan_length", -1, 1),
    (SearchLimits, "wall_budget_ms", 0, 1),
    (SearchLimits, "wall_budget_ms", 0.5, 1),
    (SearchConfig, "target_length", -1, 0),
    (SearchConfig, "beam_width", 0, 1),
    (SearchConfig, "mcts_iterations", 0, 1),
    (SearchConfig, "mcts_exploration_c", -0.5, 0.0),
    (SearchConfig, "ga_population", 1, 2),
    (SearchConfig, "ga_generations", -1, 0),
    (SearchConfig, "ga_mutation_rate", -0.1, 0.0),
    (SearchConfig, "ga_mutation_rate", 1.5, 1.0),
    (SearchConfig, "max_depth", 0, 1),
    (SearchConfig, "proposals_per_expansion", 0, 1),
    (ObjectiveWeights, "alpha", -0.5, 0.0),
    (ObjectiveWeights, "lam", -0.5, 0.0),
    (ObjectiveWeights, "unsolvable_penalty", 0.0, 5e-324),
    (ObjectiveWeights, "unsolvable_penalty", -1.0, 5e-324),
    (OracleClientConfig, "samples", 0, 1),
    (OracleClientConfig, "timeout_ms", 0, 1),
    (OracleClientConfig, "timeout_ms", 0.5, 1),
    (OracleClientConfig, "max_retries", -1, 0),
    (ProposalContext, "target_length", -1, 0),
]
# Every float field, with a value it accepts: NaN and ±inf are refused.
FLOAT_FIELDS = [
    (SearchConfig, "mcts_exploration_c", 0.0),
    (SearchConfig, "ga_mutation_rate", 1.0),
    (ObjectiveWeights, "alpha", 0.0),
    (ObjectiveWeights, "lam", 0.0),
    (ObjectiveWeights, "unsolvable_penalty", 1e6),
]
BOUNDS += [(cls, name, bad, ok) for cls, name, ok in FLOAT_FIELDS for bad in (NAN, INF, -INF)]


def _build(cls, name, value):
    return cls(**{**REQUIRED[cls], name: value})


@pytest.mark.parametrize(
    "cls, name, rejected, accepted", BOUNDS,
    ids=[f"{cls.__name__}.{name}={rejected}" for cls, name, rejected, _ in BOUNDS],
)
def test_a_setting_rejects_a_value_out_of_its_bound(cls, name, rejected, accepted):
    with pytest.raises(ValueError) as err:
        _build(cls, name, rejected)
    assert str(err.value).startswith(f"{name} ")
    assert getattr(_build(cls, name, accepted), name) == accepted


def test_every_bounded_field_is_in_the_table():
    bounded = {(cls, f.name) for cls in REQUIRED for f in fields(cls) if "bounds" in f.metadata}
    # The penalty's bound is strict (> 0), so it is checked by hand.
    assert bounded | {(ObjectiveWeights, "unsolvable_penalty")} == {(cls, name) for cls, name, _, _ in BOUNDS}


def test_a_flag_and_its_field_give_the_same_bound(capsys):
    with pytest.raises(SystemExit) as err:
        main(["evolve", "corpus:blocksworld", "corpus:blocksworld", "--target-len", "4",
              "--oracle", "scripted", "--ga-population", "1", "--json"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --ga-population: must be at least 2, got 1" in captured.err
    with pytest.raises(ValueError, match=r"^ga_population must be at least 2, got 1$"):
        SearchConfig(algorithm="genetic", target_length=4, ga_population=1)
