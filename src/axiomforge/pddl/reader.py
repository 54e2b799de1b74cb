"""S-expression reader: text -> positioned node tree.

One compiled regex splits the text, and each match is an atom, `(`, `)`,
a newline, or a run of blanks (space, tab, carriage return) or a `;`
comment, which is skipped. An atom may not hold a backtick. Identifiers
are lowercased here, and every node remembers the line/column it started
on (both 1-based; a column counts characters, so a tab is one). Nodes are
named tuples, which are cheaper to build than frozen dataclasses.
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


def read_one(text: str) -> SNode:
    """Read exactly one top-level s-expression; reject trailing content."""
    stack: list[tuple[list, int, int]] = []  # (items, line, col) per open list
    items: list | None = None  # the items of the innermost open list
    result: SNode | None = None
    line, line_start = 1, 0  # line_start: offset of the line's first character
    # A backtick would let a printed name close the ``` fence that quotes
    # a rule set to the model; most texts have none, so atoms skip the test.
    ticks = "`" in text
    for m in _TOKEN.finditer(text):
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
        raise _error("empty input", 1, 1)
    return result
