"""Fuzzing the reader, parser and printer with hypothesis.

Untrusted text must end as a parsed AST or a `PddlError`, never another
exception; and whatever parses must survive print -> parse unchanged. The
rule-edit generator below makes the two kinds of edit that the benchmark's
edit pool (perfbench/edits.py) replays: drop one precondition part, or drop
an action's last parameter.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomforge import corpus
from axiomforge.pddl import (
    And,
    Atom,
    Eq,
    Forall,
    Not,
    Or,
    PddlError,
    When,
    parse_domain,
    parse_problem,
    print_canonical,
    print_canonical_problem,
)

FUZZ = settings(max_examples=60, deadline=None)

ENTRIES = [corpus.load(name) for name in corpus.CORPUS_NAMES]
DOMAINS = [parse_domain(entry.domain_text) for entry in ENTRIES]
TEXTS = [entry.domain_text for entry in ENTRIES] + [
    problem.text for entry in ENTRIES for problem in entry.problems
]

_WORDS = st.sampled_from(
    [
        "define", "domain", "problem", ":requirements", ":strips", ":typing",
        ":equality", ":conditional-effects", ":fluents", ":types", ":constants",
        ":predicates", ":action", ":parameters", ":precondition", ":effect",
        ":domain", ":objects", ":init", ":goal", ":functions", "and", "or", "not",
        "forall", "exists", "when", "=", "either", "-", "increase", "?x", "?y",
        "a", "b", "object", "(", ")", ";", "\n",
    ]
)
_ATOMS = st.one_of(_WORDS, st.text(alphabet="abc?-:=()~\t", min_size=1, max_size=4))
_SEXPRS = st.recursive(
    _ATOMS,
    lambda children: st.lists(children, max_size=5).map(lambda xs: "(" + " ".join(xs) + ")"),
    max_leaves=30,
)


def _check_read(text: str) -> None:
    """Parse as a domain and as a problem; check the round trip of any
    result. Only PddlError may escape the parser."""
    for parse, render in ((parse_domain, print_canonical), (parse_problem, print_canonical_problem)):
        try:
            ast = parse(text)
        except PddlError:
            continue
        printed = render(ast)
        assert parse(printed) == ast
        assert render(parse(printed)) == printed


@FUZZ
@given(st.lists(_SEXPRS, max_size=6), st.sampled_from(["domain", "problem"]))
def test_random_sexprs_give_only_pddl_errors(sections, kind):
    _check_read(" ".join(sections))
    _check_read(f"(define ({kind} d) " + " ".join(sections) + ")")


@st.composite
def _mutated_texts(draw):
    text = draw(st.sampled_from(TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if kind == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 40)) :]
        elif kind == "insert":
            text = text[:at] + draw(_ATOMS) + text[at:]
        else:
            text = text[:at] + text[at : at + draw(st.integers(1, 40))] + text[at:]
    return text


@FUZZ
@given(_mutated_texts())
def test_mutated_corpus_texts_give_only_pddl_errors(text):
    _check_read(text)


# -- rule edits -----------------------------------------------------------------


def _mentions(f, var: str) -> bool:
    if isinstance(f, Atom):
        return var in f.args
    if isinstance(f, Eq):
        return var in (f.left, f.right)
    if isinstance(f, (Not, Forall)):
        return _mentions(f.body, var)
    if isinstance(f, (And, Or)):
        return any(_mentions(p, var) for p in f.parts)
    if isinstance(f, When):
        return _mentions(f.condition, var) or _mentions(f.effect, var)
    raise TypeError(f"not a formula: {f!r}")


def _drop_mentions(f, var: str) -> And:
    """The top-level conjuncts of f that do not mention var."""
    parts = f.parts if isinstance(f, And) else (f,)
    return And(tuple(p for p in parts if not _mentions(p, var)))


def rule_edits(domain):
    """Every single edit of a domain: drop one part of an action's
    conjunctive precondition, or drop an action's last parameter along with
    every top-level conjunct that mentions it."""
    for i, action in enumerate(domain.actions):
        edited = []
        pre = action.precondition
        if isinstance(pre, And):
            for j in range(len(pre.parts)):
                edited.append(replace(action, precondition=And(pre.parts[:j] + pre.parts[j + 1 :])))
        if action.params:
            var = action.params[-1].name
            edited.append(
                replace(
                    action,
                    params=action.params[:-1],
                    precondition=_drop_mentions(pre, var),
                    effect=_drop_mentions(action.effect, var),
                )
            )
        for new in edited:
            actions = domain.actions[:i] + (new,) + domain.actions[i + 1 :]
            yield replace(domain, actions=actions)


def _round_trips(domain) -> None:
    text = print_canonical(domain)
    assert parse_domain(text) == domain
    assert print_canonical(parse_domain(text)) == text


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry.name for entry in ENTRIES])
def test_corpus_and_its_edits_round_trip(entry):
    domain = parse_domain(entry.domain_text)
    _round_trips(domain)
    edits = list(rule_edits(domain))
    assert edits
    for edit in edits:
        _round_trips(edit)


@FUZZ
@given(st.sampled_from(DOMAINS), st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
def test_chained_edits_round_trip(domain, picks):
    for pick in picks:
        edits = list(rule_edits(domain))
        if not edits:
            break
        domain = edits[pick % len(edits)]
        _round_trips(domain)
