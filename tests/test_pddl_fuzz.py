"""Fuzzing the reader, parser and printer with hypothesis.

Untrusted text must end as a parsed AST or a `PddlError`, never another
exception; and whatever parses must survive print -> parse unchanged. The
rule-edit generator below makes the two kinds of edit that the benchmark's
edit pool (perfbench/edits.py) replays: drop one precondition part, or drop
an action's last parameter. Reading a domain form by form, with or without
a memo of forms shared across texts, must give what reading it whole gives,
and printing it through a memo of blocks shared across texts must give what
printing it alone gives.
"""

import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomforge import corpus
from axiomforge.corpus import variants
from axiomforge.pddl import parser as parser_module
from axiomforge.pddl.reader import FORM_DEPTH, MAX_DEPTH, read_one, split_define
from axiomforge.pddl import (
    And,
    Atom,
    Eq,
    Forall,
    Not,
    Or,
    PddlError,
    When,
    link,
    parse_domain,
    parse_problem,
    print_canonical,
    print_canonical_problem,
)
from axiomforge.planner import GroundingExplosion, ground

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
def _mutated_texts(draw, pool=TEXTS):
    text = draw(st.sampled_from(pool))
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


# A canonical print means what its text meant: it links with the same
# verdict, and grounds to an equal task, against every problem of its
# domain. The drawn texts are chained rule edits, re-spelled with other
# blanks, comments, section orders and split `:predicates` sections, and
# sometimes mutated further. A text that is only re-spelled must also mean
# what the edit does.

_BLANKS = ["  ", "\n", "\t", " \n\t "]


def _meaning(domain, problem):
    """The link diagnostics, the grounding explosion, or the ground task."""
    try:
        return ground(link(domain, problem))
    except PddlError as err:
        return err.diagnostics
    except GroundingExplosion as err:
        return str(err)


@st.composite
def _respelled_edits(draw, entry):
    """(text, edit) of a chained rule edit of `entry`'s domain, printed and
    then re-spelled; the edit is None when the text was also mutated."""
    domain = parse_domain(entry.domain_text)
    for pick in draw(st.lists(st.integers(0, 10**6), max_size=3)):
        edits = list(rule_edits(domain))
        domain = edits[pick % len(edits)] if edits else domain
    text = print_canonical(domain)
    _, name_form, *forms = split_define(text)
    header = [text[f.start : f.end] for f in forms if f.head != ":action"]
    actions = [text[f.start : f.end] for f in forms if f.head == ":action"]
    if draw(st.booleans()):
        header = draw(st.permutations(header))
    if draw(st.booleans()):
        # The canonical `:predicates` form has one declaration per line.
        header = [
            "".join(f"(:predicates {line.strip()})" for line in h[:-1].splitlines()[1:])
            if h.startswith("(:predicates") else h
            for h in header
        ]
    text = f"(define {text[name_form.start : name_form.end]} {' '.join(header + actions)})"
    text = text.replace(" ", draw(st.sampled_from(_BLANKS)))
    if draw(st.booleans()):
        text = text.replace("\n", " ; a comment ( with parens\n")
    if draw(st.booleans()):
        return draw(_mutated_texts([text])), None
    return text, domain


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry.name for entry in ENTRIES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_canonical_print_means_what_its_text_meant(entry, data):
    text, edit = data.draw(_respelled_edits(entry))
    problems = [parse_problem(p.text) for p in entry.problems]
    try:
        domain = parse_domain(text)
    except PddlError:
        assert edit is None
        return
    printed = parse_domain(print_canonical(domain))
    for problem in problems:
        meaning = _meaning(domain, problem)
        assert _meaning(printed, problem) == meaning
        if edit is not None:
            assert _meaning(edit, problem) == meaning


# -- per-form reading -------------------------------------------------------------


def _outcome(text: str, forms: dict | None = None):
    """The AST, or the full diagnostics list (code, message, line, column,
    in order) of the PddlError."""
    try:
        return parse_domain(text, forms)
    except PddlError as err:
        return list(err.diagnostics)


def _whole_outcome(text: str):
    """The outcome of reading the text whole, as a text the form split does
    not recognise is read."""
    with mock.patch.object(parser_module, "split_define", lambda text: None):
        return _outcome(text)


def _nested_domain(levels: int) -> str:
    """A domain whose one action nests `levels` + 2 lists deep, inside a
    define: levels + 3 in all."""
    pre = "(not " * levels + "(p)" + ")" * levels
    return f"(define (domain d) (:predicates (p))\n  (:action a :parameters () :precondition {pre} :effect (p)))"


# Texts that share forms: each corpus domain as written and printed, with
# every single rule edit of it printed; blocksworld also has the variants.
_FAMILIES = []
for _entry, _domain in zip(ENTRIES, DOMAINS):
    _family = [_entry.domain_text, print_canonical(_domain)]
    if _entry.name == "blocksworld":
        _family += [variants.MULTI_LIFT, variants.MID_EXTRACT]
        _family += [print_canonical(parse_domain(text)) for text in (variants.MULTI_LIFT, variants.MID_EXTRACT)]
    _family += [print_canonical(edit) for edit in rule_edits(_domain)]
    _FAMILIES.append(_family)

_EXTRA_TEXTS = [
    _nested_domain(FORM_DEPTH - 2),  # the deepest form the split finds
    _nested_domain(FORM_DEPTH - 1),
    _nested_domain(MAX_DEPTH - 3),  # 64 levels: parses
    _nested_domain(MAX_DEPTH - 2),  # 65 levels: a syntax error
    # A syntax error after a parser error: the syntax error wins.
    "(define (domain d) (:predicates (p))\n  (:action a :parameters () :precondition (q) :effect (p))\n"
    "  (:action b :parameters () :precondition (p) :effect (p)))\n)",
    # One action twice: the second is a memo hit and still a duplicate.
    "(define (domain d) (:predicates (p))\n  (:action a :parameters () :precondition (p) :effect (p))\n"
    "  (:action a :parameters () :precondition (p) :effect (p)))",
]

_DECORATIONS = {
    "comment-with-parens": "\n ; a comment ( with ) parens (\n ",
    "blank-and-comment-run": "\n\n\t;; first\r\n  ; second\n\n",
    "content-between-sections": " stray ",
    "open-paren": " ( ",
    "close-paren": " ) ",
    "unsupported-section": " (:functions (f)) ",
    "unclosed-comment-paren": ";(\n",
    "backtick": "`",
}


@st.composite
def _decorated(draw, pool):
    """A text of `pool`, or a mutation of one, with a few decorations: each
    is inserted before one of its forms or at any offset, or upper-cases one
    form's head."""
    text = draw(st.one_of(st.sampled_from(pool + _EXTRA_TEXTS), _mutated_texts(pool)))
    for _ in range(draw(st.integers(0, 3))):
        starts = [m.start() for m in re.finditer(r"\(", text)] or [0]
        kind = draw(st.sampled_from(sorted(_DECORATIONS) + ["upper-case-head"]))
        if draw(st.booleans()):
            at = draw(st.sampled_from(starts))
        else:
            at = draw(st.integers(0, len(text)))
        if kind == "upper-case-head":
            at = draw(st.sampled_from(starts))
            head = re.match(r"\(([^ \t\r\n;()]*)", text[at:])[1]
            text = text[: at + 1] + head.upper() + text[at + 1 + len(head) :]
        else:
            text = text[:at] + _DECORATIONS[kind] + text[at:]
    return text


@st.composite
def _text_runs(draw):
    """A few texts drawn from one family, so that they share forms."""
    pool = draw(st.sampled_from(_FAMILIES))
    return draw(st.lists(_decorated(pool), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_text_runs())
def test_a_shared_form_memo_changes_no_outcome(texts):
    forms: dict = {}
    blocks: dict = {}
    for text in texts:
        expected = _whole_outcome(text)
        assert _outcome(text) == expected
        shared = _outcome(text, forms)
        assert shared == expected
        if not isinstance(shared, list):
            assert print_canonical(shared, blocks) == print_canonical(shared)


@FUZZ
@given(_text_runs())
def test_each_form_reads_as_in_the_whole_text(texts):
    for text in texts:
        found = split_define(text)
        if found is None:
            continue
        root = read_one(text)  # a text the split accepts reads whole without an error
        define, *inner = found
        assert (root.line, root.col) == (define.line, define.col)
        assert tuple(read_one(text, f.start, f.end, f.line, f.col) for f in inner) == root.items[1:]
        assert [f.head for f in inner] == [item.items[0].text for item in root.items[1:]]


def test_every_corpus_text_is_read_form_by_form():
    for family in _FAMILIES:
        assert all(split_define(text) is not None for text in family)
