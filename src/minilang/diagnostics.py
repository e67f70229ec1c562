"""Diagnostics, fix-it hints and fix application shared by all tools."""

from __future__ import annotations

import enum
import re
from bisect import bisect_left, bisect_right, insort
from typing import NamedTuple

from .source import InternalError, SourceLocation, SourceRange


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


class FixIt(NamedTuple):
    """Replace `range` with `text`, as Clang's `FixItHint` does: an insertion
    has an empty range, a removal an empty text."""

    range: SourceRange
    text: str = ""

    @staticmethod
    def insertion(loc: SourceLocation, text: str) -> "FixIt":
        return FixIt(SourceRange(loc, loc), text)

    @staticmethod
    def replacement(rng: SourceRange, text: str) -> "FixIt":
        return FixIt(rng, text)

    @staticmethod
    def removal(rng: SourceRange) -> "FixIt":
        return FixIt(rng)


class Diagnostic:
    def __init__(self, location: SourceLocation, message: str, severity: Severity,
                 check_name: str = "", fixits: list[FixIt] | None = None,
                 attached_notes: list[Diagnostic] | None = None,
                 highlight: SourceRange | None = None):
        self.location = location
        self.message = message  # placeholders already substituted
        self.severity = severity
        self.check_name = check_name
        self.fixits = [] if fixits is None else fixits
        self.attached_notes = [] if attached_notes is None else attached_notes
        self.highlight = highlight
        for note in self.attached_notes:
            if note.attached_notes:
                raise InternalError("notes carry no nested notes")
        spans = sorted((f.range.begin.offset, f.range.end.offset)
                       for f in self.fixits)
        for (_, prev_end), (begin, _) in zip(spans, spans[1:]):
            if begin < prev_end:
                raise InternalError("overlapping fixits within one diagnostic")


_PLACEHOLDER = re.compile("%([0-9])")


def format_message(template: str, args: tuple) -> str:
    """Substitute %0..%9; node/decl arguments render as their quoted name."""

    def fill(match: re.Match) -> str:
        k = int(match.group(1))
        if k >= len(args):
            raise InternalError(f"unfilled placeholder %{k} in {template!r}")
        return _render_arg(args[k])

    return _PLACEHOLDER.sub(fill, template)


def _render_arg(arg) -> str:
    name = getattr(arg, "name", None)
    if name is not None:
        return f"'{name}'"
    return str(arg)


def emit_diag(loc: SourceLocation, template: str, args: tuple = (),
              severity: Severity = Severity.WARNING, check_name: str = "",
              fixits: list[FixIt] | None = None,
              highlight: SourceRange | None = None) -> Diagnostic:
    return Diagnostic(loc, format_message(template, args), severity,
                      check_name, list(fixits or ()), [], highlight)


def displayed(diagnostics: list[Diagnostic], *,
              duplicate_warning_note: bool = False) -> list[Diagnostic]:
    """What a tool shows, in order, and what `--verify` checks: each
    diagnostic in source order, then its attached notes, then, when
    `duplicate_warning_note` is on, the diagnostic repeated as a note (an
    analyzer quirk kept on purpose)."""
    shown: list[Diagnostic] = []
    for diag in sorted(diagnostics, key=lambda d: d.location.offset):
        shown.append(diag)
        shown.extend(diag.attached_notes)
        if duplicate_warning_note:
            shown.append(Diagnostic(diag.location, diag.message, Severity.NOTE))
    return shown


TAB_STOP = 8  # Clang's default -ftabstop


def display_column(line: str, column: int) -> int:
    """The 0-based column at which the character at 0-based `column` of
    `line` shows once the line's tabs are expanded to stops every TAB_STOP
    columns, as `line.expandtabs(TAB_STOP)` shows it. Carets and fix-it
    hints are placed by it, as Clang's TextDiagnostic places them; a
    `file:line:col` location keeps the column in the file's text."""
    if "\t" not in line:
        return column
    return len(line[:column].expandtabs(TAB_STOP))


def render_diagnostic(diag: Diagnostic) -> str:
    """`file:line:col: severity: message [check]` plus source line and caret.
    The line is shown with its tabs expanded; the caret, the `~` run to the
    end of the highlight on the caret's line and each fix-it hint sit at
    their display columns."""
    loc = diag.location
    file = loc.file
    line, column = file.line_column(loc.offset)
    head = f"{file.name}:{line}:{column}: {diag.severity.value}: {diag.message}"
    if diag.check_name and diag.severity is Severity.WARNING:
        head += f" [{diag.check_name}]"
    src = file.line_text(line)
    line_start = loc.offset - column + 1
    caret = " " * display_column(src, column - 1) + "^"
    highlight = diag.highlight
    if highlight is not None and line_start <= highlight.begin.offset <= line_start + len(src):
        end = min(highlight.end.offset - line_start, len(src))
        caret += "~" * (display_column(src, end) - len(caret))
    lines = [head, src.expandtabs(TAB_STOP), caret]
    for fx in diag.fixits:
        if fx.text:
            fx_line, fx_column = file.line_column(fx.range.begin.offset)
            fx_src = src if fx_line == line else file.line_text(fx_line)
            lines.append(" " * display_column(fx_src, fx_column - 1) + fx.text)
    return "\n".join(lines)


def _fix_group(diag: Diagnostic) -> list[FixIt]:
    fixes = list(diag.fixits)
    for note in diag.attached_notes:
        fixes.extend(note.fixits)
    return fixes


class _EditRanges:
    """Ranges of accepted edits, searched with `bisect`, as Clang's
    `tooling::Replacements` keeps its set: the non-empty ones as sorted
    disjoint ranges (merged where they share a byte, kept apart where they
    only touch) and the offsets of the empty ones."""

    def __init__(self):
        self.begins: list[int] = []
        self.ends: list[int] = []
        self.points: list[int] = []

    def overlaps(self, begin: int, end: int) -> bool:
        """Whether an edit of [begin, end) conflicts with an accepted one:
        they share a byte, one is empty and lies strictly inside the other,
        or both are empty at the same offset."""
        i = bisect_left(self.begins, end) - 1  # the last range that begins before `end`
        if i >= 0 and self.ends[i] > begin:
            return True
        points = self.points
        if begin == end:
            j = bisect_left(points, begin)
            return j < len(points) and points[j] == begin
        j = bisect_right(points, begin)
        return j < len(points) and points[j] < end

    def add(self, begin: int, end: int) -> None:
        if begin == end:
            insort(self.points, begin)
            return
        lo = bisect_right(self.ends, begin)
        hi = bisect_left(self.begins, end)
        if lo < hi:
            begin, end = min(begin, self.begins[lo]), max(end, self.ends[hi - 1])
        self.begins[lo:hi] = [begin]
        self.ends[lo:hi] = [end]


def apply_fixes(text: str, diagnostics: list[Diagnostic]) -> tuple[str, list[str]]:
    """Apply fix-it edits as one replacement set.

    A diagnostic and its attached notes form one edit group; a group whose
    edits overlap an already accepted edit is skipped whole, with a tool
    warning. Returns (rewritten text, tool warnings).
    """
    accepted: list[FixIt] = []
    warnings: list[str] = []
    ranges = _EditRanges()
    for diag in diagnostics:
        group = _fix_group(diag)
        if not group:
            continue
        spans = [(f.range.begin.offset, f.range.end.offset) for f in group]
        if any(ranges.overlaps(begin, end) for begin, end in spans):
            warnings.append(
                f"{diag.location}: fix for '{diag.message}' overlaps an earlier fix; skipped")
            continue
        accepted.extend(group)
        for begin, end in spans:
            ranges.add(begin, end)
    return _rewrite(text, accepted), warnings


def _rewrite(text: str, edits: list[FixIt]) -> str:
    """`text` with `edits` applied one at a time, by descending begin offset
    (ties in list order), each to the text the edits before it left, joined
    once. The rewritten part always covers text[low:]; an edit that ends past
    `low` cuts into what earlier edits wrote, as slicing the text would."""
    pieces: list[str] = []  # rewritten text[low:], rightmost piece first
    low = len(text)
    for fx in sorted(edits, key=lambda f: f.range.begin.offset, reverse=True):
        begin, end = fx.range.begin.offset, fx.range.end.offset
        if end <= low:
            pieces.append(text[end:low])
        else:
            cut = end - low
            while cut and pieces:
                piece = pieces.pop()
                if len(piece) > cut:
                    pieces.append(piece[cut:])
                    break
                cut -= len(piece)
        pieces.append(fx.text)
        low = begin
    pieces.append(text[:low])
    return "".join(reversed(pieces))
