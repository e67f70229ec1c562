"""Source buffers, locations and ranges.

A location is a (file, offset) pair; its line and column are worked out
from the file's line-start index only when something reads them.
A SourceRange's `end` points at the first byte PAST the last token, so
`text[begin.offset:end.offset]` is always the exact spelling of the node.
Locations and ranges are named tuples: immutable, built, compared and
hashed by the interpreter's tuple code, as cheap to pass around as Clang's
encoded `SourceLocation`. As in Clang, they are made only for AST nodes,
comments and diagnostics: a token carries plain offsets.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple


class InternalError(Exception):
    """A contract of the toolkit itself was violated (not a user-input error)."""


class SourceFile:
    """One analyzed file: name plus its full text, with line-offset index."""

    def __init__(self, name: str, text: str):
        self.name = name
        self.text = text
        self._line_starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def location(self, offset: int) -> "SourceLocation":
        if offset < 0 or offset > len(self.text):
            raise InternalError(f"offset {offset} outside {self.name!r}")
        return SourceLocation(self, offset)

    def line_column(self, offset: int) -> tuple[int, int]:
        """1-based line and column of `offset`."""
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1

    def line_text(self, line: int) -> str:
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        if end < 0:
            end = len(self.text)
        return self.text[start:end]

    def num_lines(self) -> int:
        return len(self._line_starts)

    def __repr__(self):
        return f"SourceFile({self.name!r})"


class SourceLocation(NamedTuple):
    file: SourceFile
    offset: int

    @property
    def line(self) -> int:
        return self.file.line_column(self.offset)[0]

    @property
    def column(self) -> int:
        return self.file.line_column(self.offset)[1]

    def __str__(self):
        line, column = self.file.line_column(self.offset)
        return f"{self.file.name}:{line}:{column}"

    def __lt__(self, other: "SourceLocation"):
        return self.offset < other.offset


class _RangeFields(NamedTuple):
    begin: SourceLocation
    end: SourceLocation  # first byte past the last token


class SourceRange(_RangeFields):
    __slots__ = ()

    def __new__(cls, begin: SourceLocation, end: SourceLocation):
        if begin.offset > end.offset:
            raise InternalError("inverted source range")
        return tuple.__new__(cls, (begin, end))

    @property
    def file(self) -> SourceFile:
        return self.begin.file
