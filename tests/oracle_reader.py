"""Reference reader for cross-checking `pddl.reader.read_one`.

It walks the text one character at a time in a generator of tokens and
builds frozen-dataclass nodes, which is how the reader worked before it
matched one compiled regex and built tuple nodes. Trees must agree field
for field (text or items, line, col), and every rejected text must give
the same diagnostics: code, message, line and column.
"""

from __future__ import annotations

from dataclasses import dataclass

from axiomforge.pddl.errors import SYNTAX, Diagnostic, PddlError


@dataclass(frozen=True)
class SAtom:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class SList:
    items: tuple
    line: int
    col: int


SNode = SAtom | SList

_DELIMS = "()"

# Deepest list nesting accepted. Real domains stay below ten levels; the
# cap keeps every recursive consumer of the tree (parser, printer, linker,
# grounder) far inside Python's recursion limit on untrusted text.
MAX_DEPTH = 64


def _tokens(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _DELIMS:
            yield ch, line, col
            i += 1
            col += 1
            continue
        start = i
        start_col = col
        while i < n and text[i] not in " \t\r\n;()":
            i += 1
            col += 1
        yield text[start:i], line, start_col


def read_one(text: str) -> SNode:
    """Read exactly one top-level s-expression; reject trailing content."""
    stack: list[tuple[list, int, int]] = []
    result: SNode | None = None
    for tok, line, col in _tokens(text):
        if result is not None:
            raise PddlError([Diagnostic(SYNTAX, "unexpected content after top-level form", line, col)])
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise PddlError([Diagnostic(SYNTAX, f"nesting deeper than {MAX_DEPTH} levels", line, col)])
            stack.append(([], line, col))
        elif tok == ")":
            if not stack:
                raise PddlError([Diagnostic(SYNTAX, "unbalanced ')'", line, col)])
            items, l0, c0 = stack.pop()
            node = SList(tuple(items), l0, c0)
            if stack:
                stack[-1][0].append(node)
            else:
                result = node
        elif not stack:
            raise PddlError([Diagnostic(SYNTAX, f"expected '(' but found '{tok.lower()}'", line, col)])
        elif "`" in tok:
            raise PddlError([Diagnostic(SYNTAX, "backtick in a name", line, col + tok.index("`"))])
        else:
            stack[-1][0].append(SAtom(tok.lower(), line, col))
    if stack:
        _, l0, c0 = stack[-1]
        raise PddlError([Diagnostic(SYNTAX, "unclosed '('", l0, c0)])
    if result is None:
        raise PddlError([Diagnostic(SYNTAX, "empty input", 1, 1)])
    return result
