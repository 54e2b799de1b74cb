"""S-expression reader: text -> positioned node tree.

One compiled regex splits the text, and each match is an atom, `(`, `)`,
a newline, or a run of blanks (space, tab, carriage return) or a `;`
comment, which is skipped. An atom may not hold a backtick. Identifiers
are lowercased here, and every node remembers the line/column it started
on (both 1-based; a column counts characters, so a tab is one). Nodes are
named tuples, which are cheaper to build than frozen dataclasses.

`read_one` reads a whole text or a window of one. `split_define` finds the
top-level forms of a `(define ...)` text without reading them, so a parser
can read one form at a time and skip the forms it has seen before; a
window reports the positions a read of the whole text would.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import SYNTAX, Diagnostic, PddlError


class SAtom(NamedTuple):
    text: str
    line: int
    col: int


class SList(NamedTuple):
    items: tuple
    line: int
    col: int


SNode = SAtom | SList

# Deepest list nesting accepted. Real domains stay below ten levels; the
# cap keeps every recursive consumer of the tree (parser, printer, linker,
# grounder) far inside Python's recursion limit on untrusted text.
MAX_DEPTH = 64

# Every character falls in one alternative. `lastindex` tells them apart:
# 1 an atom, 2 `(`, 3 `)`, 4 a newline, None a blank run or a comment.
_TOKEN = re.compile(r"([^ \t\r\n;()]+)|(\()|(\))|(\n)|[ \t\r]+|;[^\n]*")


def _error(message: str, line: int, col: int) -> PddlError:
    return PddlError([Diagnostic(SYNTAX, message, line, col)])


def read_one(text: str, start: int = 0, end: int | None = None, line: int = 1, col: int = 1) -> SNode:
    """Read exactly one top-level s-expression from text[start:end] (the
    whole text by default); reject trailing content. `line` and `col` give
    the position of text[start], so that nodes and errors carry positions
    in the whole text."""
    stack: list[tuple[list, int, int]] = []  # (items, line, col) per open list
    items: list | None = None  # the items of the innermost open list
    result: SNode | None = None
    first = (line, col)
    line_start = start - col + 1  # offset of the line's first character
    # A backtick would let a printed name close the ``` fence that quotes
    # a rule set to the model; most texts have none, so atoms skip the test.
    ticks = "`" in text
    for m in _TOKEN.finditer(text, start, len(text) if end is None else end):
        kind = m.lastindex
        if kind is None:
            continue
        if kind == 4:
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        if result is not None:
            raise _error("unexpected content after top-level form", line, col)
        if kind == 1:
            if items is None:
                raise _error(f"expected '(' but found '{m[1].lower()}'", line, col)
            if ticks and "`" in m[1]:
                raise _error("backtick in a name", line, col + m[1].index("`"))
            items.append(SAtom(m[1].lower(), line, col))
        elif kind == 2:
            if len(stack) == MAX_DEPTH:
                raise _error(f"nesting deeper than {MAX_DEPTH} levels", line, col)
            items = []
            stack.append((items, line, col))
        else:
            if not stack:
                raise _error("unbalanced ')'", line, col)
            done, l0, c0 = stack.pop()
            node = SList(tuple(done), l0, c0)
            if stack:
                items = stack[-1][0]
                items.append(node)
            else:
                items = None
                result = node
    if stack:
        _, l0, c0 = stack[-1]
        raise _error("unclosed '('", l0, c0)
    if result is None:
        raise _error("empty input", *first)
    return result


# -- forms --------------------------------------------------------------------

# Deepest nesting of a form that `split_define` finds; a deeper form sends
# the whole text to `read_one`, whose MAX_DEPTH check then holds as before.
# Corpus forms nest at most 7 levels. Compiling the pattern takes about
# 0.1 ms per level at import.
FORM_DEPTH = 12


def _balanced(depth: int) -> str:
    """A pattern for one list of at most `depth` levels, with `;` comments
    anywhere inside. Each level is `( plain* ((comment | list) plain*)* )`,
    whose parts start with distinct characters, and a comment must run to
    the end of its line, so a match can go only one way and a failed one
    backtracks in linear time."""
    comment = r";[^\n]*(?![^\n])"
    form = r"\([^();]*(?:" + comment + r"[^();]*)*\)"
    for _ in range(depth - 1):
        form = r"\([^();]*(?:(?:" + comment + "|" + form + r")[^();]*)*\)"
    return form


_GAP = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*")  # blanks, newlines and comments
_HEAD = re.compile(r"\(([^ \t\r\n;()]+)")  # `(` and the atom right after it
# A list whose first item is an atom right after its `(`; group 1 is that atom.
_FORM = re.compile(r"(?=\(([^ \t\r\n;()]+))" + _balanced(FORM_DEPTH))


class Form(NamedTuple):
    """A list found in a text but not read: text[start:end], starting at
    line:col, with its head atom lowercased."""

    start: int
    end: int
    line: int
    col: int
    head: str


def split_define(text: str) -> list[Form] | None:
    """The `(define` form of a `(define FORM FORM...)` text, then each form
    inside it, in order; None for any other shape, and for a text that holds
    a backtick or a form nested deeper than FORM_DEPTH. Every form inside
    is a list with an atom right after its `(`. A text this accepts reads
    without a syntax error, so every reader error comes from reading a
    text that this returns None for as a whole."""
    if "`" in text:
        return None
    start = _GAP.match(text).end()
    head = _HEAD.match(text, start)
    if head is None or head[1].lower() != "define":
        return None
    line = text.count("\n", 0, start) + 1
    line_start = text.rfind("\n", 0, start) + 1
    define = (start, line, start - line_start + 1)
    forms = []
    pos = mark = head.end()  # (line, line_start) hold at `mark`
    while True:
        start = _GAP.match(text, pos).end()
        newlines = text.count("\n", mark, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", mark, start) + 1
        mark = start
        form = _FORM.match(text, start)
        if form is None:
            break
        pos = form.end()
        forms.append(Form(start, pos, line, start - line_start + 1, form[1].lower()))
    if not forms or not text.startswith(")", start) or _GAP.match(text, start + 1).end() != len(text):
        return None
    return [Form(define[0], start + 1, define[1], define[2], "define"), *forms]
