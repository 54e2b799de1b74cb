"""`walk` against a recursive pre-order reference: the same nodes, in the
same order, on every corpus formula and on every rule edit that
`test_pddl_fuzz.rule_edits` generates."""

import pytest

from axiomforge import corpus
from axiomforge.pddl import (
    And,
    Atom,
    Eq,
    Forall,
    Not,
    Or,
    TypedName,
    When,
    parse_domain,
    parse_problem,
    walk,
)

from test_pddl_fuzz import rule_edits


def reference(f):
    """Each node, then the nodes of its parts in document order."""
    yield f
    if isinstance(f, (And, Or)):
        for part in f.parts:
            yield from reference(part)
    elif isinstance(f, (Not, Forall)):
        yield from reference(f.body)
    elif isinstance(f, When):
        yield from reference(f.condition)
        yield from reference(f.effect)


def assert_walks_like_reference(f):
    got, want = list(walk(f)), list(reference(f))
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


def _action_formulas(domain):
    for action in domain.actions:
        yield action.precondition
        yield action.effect


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_walk_matches_reference_on_corpus(name):
    entry = corpus.load(name)
    for f in _action_formulas(parse_domain(entry.domain_text)):
        assert_walks_like_reference(f)
    for problem in entry.problems:
        assert_walks_like_reference(parse_problem(problem.text).goal)


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_walk_matches_reference_on_rule_edits(name):
    edits = list(rule_edits(parse_domain(corpus.load(name).domain_text)))
    assert edits
    for edit in edits:
        for f in _action_formulas(edit):
            assert_walks_like_reference(f)


def test_walk_order_by_hand():
    p, q, r, s = (Atom(n, ("?x",)) for n in "pqrs")
    eq = Eq("?x", "a")
    inner = And((q, Not(r)))
    cond = When(Or((p, eq)), inner)
    body = Forall((TypedName("?x"),), cond)
    f = And((body, s))
    assert list(walk(f)) == [f, body, cond, cond.condition, p, eq, inner, q, Not(r), r, s]


def test_walk_has_no_depth_limit():
    f = Atom("p")
    for _ in range(5000):
        f = Not(f)
    nodes = list(walk(f))
    assert len(nodes) == 5001 and nodes[-1] == Atom("p")


def test_walk_rejects_what_is_not_a_formula():
    with pytest.raises(TypeError, match="not a formula"):
        list(walk(And((Atom("p"), "q"))))
