"""Bug-path assembly, text/HTML rendering, and the verify-mode test harness."""

from __future__ import annotations

import enum
import html
import re
from dataclasses import dataclass

from .checkers import (
    AllocationFamily, BugReport, get_container_obj_region, is_symbol_tracked,
    MALLOC_SLOT, RefStatus,
)
from .diagnostics import Diagnostic, render_diagnostic, Severity
from .source import InternalError, SourceFile, SourceLocation
from .symexec.engine import ExplodedNode, PostImplicitCallPoint
from .symexec.values import region_type, Symbol
from .frontend.astnodes import Assign, Call, MethodCall


class PieceKind(enum.Enum):
    EVENT = "event"
    FINAL_WARNING = "final warning"


@dataclass(frozen=True)
class PathPiece:
    location: SourceLocation
    message: str
    kind: PieceKind


@dataclass
class BugPath:
    report: BugReport
    pieces: list[PathPiece]


# --- visitors -----------------------------------------------------------------

class MallocBugVisitor:
    """Walks backward from the error node; notes the moment the tracked
    symbol's allocation state turned released."""

    def __init__(self, sym: Symbol):
        self.sym = sym
        self._fired = False

    def visit_node(self, node: ExplodedNode, pred: ExplodedNode | None) -> PathPiece | None:
        if self._fired:
            return None
        ref = node.state.slot(MALLOC_SLOT).get(self.sym)
        if ref is None or ref.status is not RefStatus.RELEASED:
            return None
        if pred is not None:
            prev = pred.state.slot(MALLOC_SLOT).get(self.sym)
            if prev is not None and prev.status is RefStatus.RELEASED:
                return None  # not the transition node yet
        self._fired = True
        loc = _point_location(node)
        if ref.family is AllocationFamily.INNER_BUFFER:
            container = "container"
            region = get_container_obj_region(pred.state, self.sym) if pred else None
            if region is not None:
                rtype = region_type(region)
                if rtype is not None:
                    container = str(rtype)
            if isinstance(node.point, PostImplicitCallPoint):
                msg = f"Inner buffer of '{container}' deallocated by call to destructor"
            else:
                msg = (f"Inner buffer of '{container}' reallocated by call to "
                       f"'{_callee_name(node)}'")
            return PathPiece(loc, msg, PieceKind.EVENT)
        return PathPiece(loc, "Memory is released", PieceKind.EVENT)


class InnerPointerBRVisitor:
    """Notes the point where the later-dangling buffer pointer was obtained."""

    def __init__(self, sym: Symbol):
        self.sym = sym
        self._fired = False

    def visit_node(self, node: ExplodedNode, pred: ExplodedNode | None) -> PathPiece | None:
        if self._fired:
            return None
        if not is_symbol_tracked(node.state, self.sym) or (
                pred is not None and is_symbol_tracked(pred.state, self.sym)):
            return None
        self._fired = True
        container = "container"
        region = get_container_obj_region(node.state, self.sym)
        if region is not None:
            rtype = region_type(region)
            if rtype is not None:
                container = str(rtype)
        return PathPiece(_point_location(node),
                         f"Pointer to inner buffer of '{container}' obtained here",
                         PieceKind.EVENT)


def _point_location(node: ExplodedNode) -> SourceLocation:
    point = node.point
    if isinstance(point, PostImplicitCallPoint):
        return point.loc
    stmt = getattr(point, "node", None)
    if stmt is not None:
        return stmt.range.begin
    raise InternalError(f"no source location for point {point.describe()}")


def _callee_name(node: ExplodedNode) -> str:
    stmt = getattr(node.point, "node", None)
    if isinstance(stmt, MethodCall):
        return stmt.method_name
    if isinstance(stmt, Assign):
        return "operator" + stmt.op
    if isinstance(stmt, Call):
        return stmt.callee.name
    return "unknown"


# --- path assembly ---------------------------------------------------------------

def assemble_bug_path(report: BugReport) -> BugPath:
    """From the error node, walk the predecessor chain backwards, let every
    visitor contribute pieces, then flip to chronological order and append
    the final warning."""
    error_node = report.error_node
    nodes = report.graph.nodes
    if (error_node is None or error_node.seq >= len(nodes)
            or nodes[error_node.seq] is not error_node):
        raise InternalError("report's error node is not part of the graph")
    pieces: list[PathPiece] = []
    node = error_node
    while node is not None:
        pred = node.first_pred()
        for visitor in report.visitors:
            piece = visitor.visit_node(node, pred)
            if piece is not None:
                pieces.append(piece)
        node = pred
    pieces.reverse()
    pieces.append(PathPiece(report.location, report.message, PieceKind.FINAL_WARNING))
    return BugPath(report, pieces)


# --- rendering -------------------------------------------------------------------

def report_to_diagnostics(path: BugPath, duplicate_warning_note: bool
                          ) -> tuple[Diagnostic, list[Diagnostic]]:
    """The warning and, as notes, the path events in order."""
    report = path.report
    warning = Diagnostic(report.location, report.message, Severity.WARNING,
                         report.check_name, highlight=report.highlight)
    notes = [Diagnostic(piece.location, piece.message, Severity.NOTE)
             for piece in path.pieces if piece.kind is PieceKind.EVENT]
    if duplicate_warning_note:
        # engine quirk kept on purpose: the warning repeats as a note
        notes.append(Diagnostic(report.location, report.message, Severity.NOTE))
    return warning, notes


def render_text(file: SourceFile, bug_paths: list[BugPath], *,
                duplicate_warning_note: bool = True) -> str:
    """Warnings with source/caret lines, path events as notes in order, and
    the per-file `Found N defect(s)` footer."""
    lines: list[str] = []
    for path in sorted(bug_paths, key=lambda p: p.report.location.offset):
        warning, notes = report_to_diagnostics(path, duplicate_warning_note)
        lines.append(render_diagnostic(warning))
        lines.extend(render_diagnostic(n) for n in notes)
    lines.append(f"Found {len(bug_paths)} defect(s) in {file.name}")
    return "\n".join(lines)


_HTML_STYLE = """
body { font-family: sans-serif; margin: 2em; }
h1 { font-size: 1.4em; }
.report { border: 1px solid #999; border-radius: 6px; padding: 1em; margin: 1em 0; }
.report h2 { font-size: 1.1em; margin-top: 0; }
.severity { color: #a00; font-weight: bold; }
.checker { color: #555; font-style: italic; }
pre { background: #f6f6f6; padding: 0.4em; }
"""


def render_html(file: SourceFile, bug_paths: list[BugPath]) -> str:
    """One self-contained page: a section per report with its numbered path
    steps interleaved with source excerpts. No external assets."""

    def excerpt(loc: SourceLocation) -> str:
        src = html.escape(file.line_text(loc.line))
        caret = " " * (loc.column - 1) + "^"
        return f"<pre>{loc.line:5}| {src}\n     | {caret}</pre>"

    body: list[str] = [f"<h1>Analysis report for {html.escape(file.name)}</h1>"]
    for path in bug_paths:
        report = path.report
        body.append('<div class="report">')
        body.append(
            f'<h2><span class="severity">warning</span>: '
            f"{html.escape(report.message, quote=False)} "
            f'<span class="checker">[{html.escape(report.check_name)}]</span></h2>')
        body.append("<ol>")
        for piece in path.pieces:
            body.append(
                f"<li>{html.escape(piece.message, quote=False)}{excerpt(piece.location)}</li>")
        body.append("</ol>")
        body.append("</div>")
    if not bug_paths:
        body.append("<p>No defects found.</p>")
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\"/>\n"
        f"<title>{html.escape(file.name)}</title>\n"
        f"<style>{_HTML_STYLE}</style>\n</head>\n<body>\n"
        + "\n".join(body) + "\n</body>\n</html>\n"
    )


# --- verify mode --------------------------------------------------------------------

class VerifyError(Exception):
    """Malformed directive; verify runs exit with code 2 on this."""


@dataclass(frozen=True)
class VerifyDirective:
    kind: str  # "expected-warning" | "expected-note"
    line: int  # target line, offset already applied
    text: str  # message text between {{ }}


_DIRECTIVE_RE = re.compile(
    r"expected-(warning|note)(@[-+]\d+)?\s*\{\{(.*?)\}\}")
_DIRECTIVE_HINT_RE = re.compile(r"expected-(warning|note)")


def parse_directives(file: SourceFile) -> list[VerifyDirective]:
    """Directives are read from `//` comments only (taken from the lexer's
    comment trivia, so string literals cannot fake one):
    `expected-(warning|note)(@[+-]N)? {{text}}`."""
    from .frontend.lexer import LexError, tokenize

    comments: list[tuple[int, str]] = []
    try:
        for token in tokenize(file):
            for comment in token.leading_comments:
                comments.append((comment.range.begin.line, comment.text))
    except LexError:
        # unlexable input cannot carry directives the tools would honor
        for line_no in range(1, file.num_lines() + 1):
            text = file.line_text(line_no)
            at = text.find("//")
            if at >= 0:
                comments.append((line_no, text[at:]))
    directives: list[VerifyDirective] = []
    for line_no, comment in comments:
        matched_spans = []
        for m in _DIRECTIVE_RE.finditer(comment):
            kind, offset, message = m.groups()
            target = line_no + int(offset[1:]) if offset else line_no
            if target < 1 or target > file.num_lines():
                raise VerifyError(
                    f"{file.name}:{line_no}: directive offset resolves outside the file")
            directives.append(VerifyDirective(f"expected-{kind}", target, message))
            matched_spans.append(m.span())
        for m in _DIRECTIVE_HINT_RE.finditer(comment):
            if not any(b <= m.start() < e for b, e in matched_spans):
                raise VerifyError(
                    f"{file.name}:{line_no}: malformed verify directive")
    directives.sort(key=lambda d: d.line)
    return directives


@dataclass
class VerifyOutcome:
    passed: bool
    mismatches: list[str]


def verify_run(file: SourceFile, rendered: str) -> VerifyOutcome:
    """Check rendered diagnostics against the file's directives: a bijection
    between directives and emitted (line, severity, message) triples, with
    substring matching on the {{...}} text."""
    directives = parse_directives(file)
    emitted = _parse_rendered(file, rendered)
    unmatched_directives: list[VerifyDirective] = []
    remaining = list(emitted)
    for directive in directives:
        want_sev = directive.kind.removeprefix("expected-")
        found = None
        for entry in remaining:
            line, sev, msg = entry
            if line == directive.line and sev == want_sev and directive.text in msg:
                found = entry
                break
        if found is None:
            unmatched_directives.append(directive)
        else:
            remaining.remove(found)
    mismatches: list[str] = []
    leftovers = list(remaining)
    for directive in unmatched_directives:
        want_sev = directive.kind.removeprefix("expected-")
        partner = next((e for e in leftovers if e[1] == want_sev), None)
        if partner is not None:
            leftovers.remove(partner)
            mismatches.append(
                f"expected {want_sev} at line {directive.line} containing "
                f"{{{{{directive.text}}}}}, but saw {want_sev} at line "
                f"{partner[0]}: {partner[2]}")
        else:
            mismatches.append(
                f"missing {directive.kind} at line {directive.line}: "
                f"{{{{{directive.text}}}}}")
    for line, sev, msg in leftovers:
        mismatches.append(f"unexpected {sev} at line {line}: {msg}")
    return VerifyOutcome(not mismatches, mismatches)


_RENDERED_LINE_RE = re.compile(r"^(.*?):(\d+):(\d+): (warning|note|error): (.*)$")


def _parse_rendered(file: SourceFile, rendered: str) -> list[tuple[int, str, str]]:
    out = []
    for line in rendered.splitlines():
        m = _RENDERED_LINE_RE.match(line)
        if m is None:
            continue
        name, line_no, _col, sev, msg = m.groups()
        if name != file.name:
            continue
        msg = re.sub(r"\s*\[[\w.-]+\]$", "", msg)  # strip the [checker] suffix
        out.append((int(line_no), sev, msg))
    return out
