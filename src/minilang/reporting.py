"""Text/HTML rendering of path reports, and the verify-mode test harness."""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import (
    Diagnostic, display_column, displayed, render_diagnostic, Severity, TAB_STOP,
)
from .frontend.lexer import Comment
from .source import SourceFile, SourceLocation


# --- rendering -------------------------------------------------------------------

def render_text(file: SourceFile, warnings: list[Diagnostic], *,
                duplicate_warning_note: bool = True) -> str:
    """Warnings with source/caret lines, path events as notes in order, and
    the per-file `Found N defect(s)` footer."""
    lines = [render_diagnostic(d) for d in displayed(
        warnings, duplicate_warning_note=duplicate_warning_note)]
    lines.append(f"Found {len(warnings)} defect(s) in {file.name}")
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


def render_html(file: SourceFile, warnings: list[Diagnostic]) -> str:
    """One self-contained page: a section per warning that lists its notes
    and then the warning itself as numbered path steps, each with a source
    excerpt. No external assets."""
    import html  # only html output needs it: the text path does not load it

    def excerpt(loc: SourceLocation) -> str:
        line, column = file.line_column(loc.offset)
        src = file.line_text(line)
        caret = " " * display_column(src, column - 1) + "^"
        return f"<pre>{line:5}| {html.escape(src.expandtabs(TAB_STOP))}\n     | {caret}</pre>"

    body: list[str] = [f"<h1>Analysis report for {html.escape(file.name)}</h1>"]
    for warning in displayed(warnings):
        if warning.severity is Severity.NOTE:
            continue  # listed below as a step of its warning
        body.append('<div class="report">')
        body.append(
            f'<h2><span class="severity">warning</span>: '
            f"{html.escape(warning.message, quote=False)} "
            f'<span class="checker">[{html.escape(warning.check_name)}]</span></h2>')
        body.append("<ol>")
        for step in (*warning.attached_notes, warning):
            body.append(
                f"<li>{html.escape(step.message, quote=False)}{excerpt(step.location)}</li>")
        body.append("</ol>")
        body.append("</div>")
    if not warnings:
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


class VerifyDirective(NamedTuple):
    kind: str  # "expected-warning" | "expected-note"
    line: int  # target line, offset already applied
    text: str  # message text between {{ }}


_DIRECTIVE_RE = re.compile(
    r"expected-(warning|note)(@[-+]\d+)?\s*\{\{(.*?)\}\}")
_DIRECTIVE_HINT_RE = re.compile(r"expected-(warning|note)")


def parse_directives(file: SourceFile, comments: list[Comment]) -> list[VerifyDirective]:
    """Directives are read from the lexer's `//` comments only, so string
    literals cannot fake one: `expected-(warning|note)(@[+-]N)? {{text}}`."""
    directives: list[VerifyDirective] = []
    for comment in comments:
        line_no, text = comment.range.begin.line, comment.text
        matched_spans = []
        for m in _DIRECTIVE_RE.finditer(text):
            kind, offset, message = m.groups()
            target = line_no + int(offset[1:]) if offset else line_no
            if target < 1 or target > file.num_lines():
                raise VerifyError(
                    f"{file.name}:{line_no}: directive offset resolves outside the file")
            directives.append(VerifyDirective(f"expected-{kind}", target, message))
            matched_spans.append(m.span())
        for m in _DIRECTIVE_HINT_RE.finditer(text):
            if not any(b <= m.start() < e for b, e in matched_spans):
                raise VerifyError(
                    f"{file.name}:{line_no}: malformed verify directive")
    directives.sort(key=lambda d: d.line)
    return directives


class VerifyOutcome(NamedTuple):
    passed: bool
    mismatches: list[str]


def verify_run(file: SourceFile, comments: list[Comment],
               diagnostics: list[Diagnostic]) -> VerifyOutcome:
    """Check the displayed diagnostics against the directives in the file's
    comments: a bijection between directives and the diagnostics' (line,
    severity, message) triples, with substring matching on the {{...}} text."""
    directives = parse_directives(file, comments)
    remaining = [(d.location.line, d.severity.value, d.message) for d in diagnostics]
    unmatched_directives: list[VerifyDirective] = []
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
    for directive in unmatched_directives:
        want_sev = directive.kind.removeprefix("expected-")
        partner = next((e for e in remaining if e[1] == want_sev), None)
        if partner is not None:
            remaining.remove(partner)
            mismatches.append(
                f"expected {want_sev} at line {directive.line} containing "
                f"{{{{{directive.text}}}}}, but saw {want_sev} at line "
                f"{partner[0]}: {partner[2]}")
        else:
            mismatches.append(
                f"missing {directive.kind} at line {directive.line}: "
                f"{{{{{directive.text}}}}}")
    for line, sev, msg in remaining:
        mismatches.append(f"unexpected {sev} at line {line}: {msg}")
    return VerifyOutcome(not mismatches, mismatches)

