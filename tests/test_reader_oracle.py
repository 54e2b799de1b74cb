"""`read_one` against the reference reader in oracle_reader.py.

Both must build the same tree (node kinds, atom texts, lines and columns)
or raise the same diagnostics (code, message, line, column) on the corpus
texts, on seeded mutations of them and on the fuzz strategies of
test_pddl_fuzz.py. The mutations insert what a character-level reader and
a regex could disagree on: CRLF, tabs, form feeds and vertical tabs (atom
characters, not blanks), letters whose lowercase changes length, comments,
backticks (rejected in atoms, skipped in comments), and nesting at and
past the 64-level cap.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reader
from axiomforge.pddl import PddlError
from axiomforge.pddl import reader
from test_pddl_fuzz import ENTRIES, TEXTS, _SEXPRS, _mutated_texts


def _tree(node):
    if isinstance(node, (reader.SList, oracle_reader.SList)):
        return ("list", tuple(_tree(item) for item in node.items), node.line, node.col)
    assert isinstance(node, (reader.SAtom, oracle_reader.SAtom))
    return ("atom", node.text, node.line, node.col)


def _outcome(read, text):
    try:
        return _tree(read(text))
    except PddlError as err:
        return err.diagnostics


def assert_same_read(text):
    assert _outcome(reader.read_one, text) == _outcome(oracle_reader.read_one, text)


def _nested(depth):
    return "(" * depth + "a" + ")" * depth


# Inserted at random offsets; each may also replace a character.
PIECES = [
    "\r\n", "\r", "\t", "\f", "\v", "İ", "ß", "ẞ", "ǅ", " ", "\x85", "\xa0",
    "; a (comment\n", ";", ";(\r\n", "(", ")", " ", "\n", "Ab", "?X-y", "`", "```", "; `\n",
    _nested(64), _nested(65), _nested(63) + ")",
]


def _mutations(text, rng, count):
    whole = [
        text.replace("\n", "\r\n"),
        text.replace(" ", "\t"),
        text.replace(" ", "\f"),
        text.replace("  ", " \v"),
        text.upper(),
        text.replace("i", "İ").replace("s", "ß"),
        text.replace("\n", " ; x\n"),
        "(" * 63 + text + ")" * 63,
        "(" * 64 + text + ")" * 64,
    ]
    out = list(whole)
    for _ in range(count):
        mutated = rng.choice([text] + whole)
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(mutated))
            cut = rng.choice([0, 0, 1, rng.randint(1, 30)])
            mutated = mutated[:at] + rng.choice(PIECES) + mutated[at + cut :]
        out.append(mutated)
    return out


TEXT_IDS = [f"{entry.name}-domain" for entry in ENTRIES] + [
    f"{entry.name}-{problem.name}" for entry in ENTRIES for problem in entry.problems
]


@pytest.mark.parametrize("text", TEXTS, ids=TEXT_IDS)
def test_reader_matches_oracle_on_corpus_and_mutations(text):
    assert_same_read(text)
    for mutated in _mutations(text, random.Random(text), 40):
        assert_same_read(mutated)


@pytest.mark.parametrize(
    "text",
    [
        "", " \t\r\n", "; only a comment", "a", ")", "(", "(a))", "(a) b", "(a) ;tail\n",
        "(a\r\nb)", "(\fa\v)", "(İ ß)", "(a;(\n)", _nested(64), _nested(65),
        "(" * 64 + ")" * 64, "(" * 65 + ")" * 65, _nested(64) + ")", "\n\n  (x\n  (y))",
        "(x```y)", "`a", "(a) `", "(İ`)", "(a ; `\n b)",
    ],
)
def test_reader_matches_oracle_on_edge_cases(text):
    assert_same_read(text)


FUZZ = settings(max_examples=100, deadline=None)


@FUZZ
@given(st.lists(_SEXPRS, max_size=6))
def test_reader_matches_oracle_on_random_sexprs(sections):
    assert_same_read(" ".join(sections))
    assert_same_read("(define " + "\r\n".join(sections) + ")")


@FUZZ
@given(_mutated_texts())
def test_reader_matches_oracle_on_fuzzed_corpus_texts(text):
    assert_same_read(text)


@FUZZ
@given(st.text(alphabet="()ab ;\n\r\t\f\vİß?-`", max_size=60))
def test_reader_matches_oracle_on_random_characters(text):
    assert_same_read(text)
