"""Path assembly, visitors, text/HTML rendering and the verify harness."""

import os
import pathlib
import subprocess
import sys
from html.parser import HTMLParser

import pytest

from minilang.checkers import assemble_bug_path, BugReport
from minilang.cli import main
from minilang.diagnostics import Diagnostic, displayed, Severity
from minilang.frontend import load_unit
from minilang.reporting import (
    parse_directives, render_html, render_text, verify_run, VerifyError,
)
from minilang.source import SourceLocation
from minilang.symexec.engine import Engine, ExplodedNode

from conftest import (
    analyze, DEREF_AFTER_CLEAR_VERIFY, frontend, LOOP_THEN_DIVISION, USE_AFTER_CLEAR,
    USE_AFTER_FREE,
)
from engine_paths import error_sinks, leaf_witness, pred_chain
from interp_oracle import run_function


def paths_for(source: str, name: str = "input.mc", checkers=None):
    """One warning per report; its notes are the path events."""
    result, fe = analyze(source, name=name, checkers=checkers)
    return [assemble_bug_path(report) for report in result.reports], fe


def steps(warning):
    """A bug path as the HTML page numbers it: the notes, then the warning."""
    return [*warning.attached_notes, warning]


# --- assembly and visitors ------------------------------------------------------

def test_use_after_clear_path_pieces_in_order():
    paths, _ = paths_for(USE_AFTER_CLEAR)
    assert len(paths) == 1
    pieces = steps(paths[0])
    assert [p.severity for p in pieces] == [
        Severity.NOTE, Severity.NOTE, Severity.WARNING]
    assert pieces[0].message == "Pointer to inner buffer of 'string' obtained here"
    assert pieces[1].message == "Inner buffer of 'string' reallocated by call to 'clear'"
    assert pieces[2].message == "Inner pointer of container used after re/deallocation"
    assert pieces[0].location.line == 5
    assert pieces[1].location.line == 6
    assert pieces[2].location.line == 7


def test_a_bug_path_can_be_assembled_again():
    result, _ = analyze(USE_AFTER_CLEAR)
    (report,) = result.reports
    first, again = assemble_bug_path(report), assemble_bug_path(report)
    assert len(first.attached_notes) == 2
    assert [(n.location, n.message) for n in again.attached_notes] == [
        (n.location, n.message) for n in first.attached_notes]


def test_a_visitor_is_not_asked_again_after_its_note():
    result, _ = analyze(USE_AFTER_CLEAR)
    (report,) = result.reports
    asked = []

    class NotesAtOnce:
        def visit_node(self, node, pred):
            asked.append(node)
            return Diagnostic(report.location, "here", Severity.NOTE)

    report.visitors = [NotesAtOnce()]
    assert [n.message for n in assemble_bug_path(report).attached_notes] == ["here"]
    assert asked == [report.error_node]  # and the walk ended there
    report.visitors = []
    assert assemble_bug_path(report).attached_notes == []


def test_piece_locations_follow_path_chronology():
    paths, _ = paths_for(USE_AFTER_CLEAR)
    offsets = [p.location.offset for p in steps(paths[0])]
    assert offsets == sorted(offsets)


def test_heap_visitor_notes_release_at_delete():
    paths, _ = paths_for(USE_AFTER_FREE)
    events = [p for p in steps(paths[0]) if p.severity is Severity.NOTE]
    assert [e.message for e in events] == ["Memory is released"]
    assert events[0].location.line == 6  # the delete statement


def test_destructor_triggered_note_message():
    paths, _ = paths_for("""\
extern void sink(char* c);
void f() {
  char* c;
  {
    string s;
    c = s.c_str();
  }
  sink(c);
}
""")
    messages = [p.message for p in steps(paths[0])]
    assert "Inner buffer of 'string' deallocated by call to destructor" in messages


def test_assignment_invalidation_names_the_operator():
    paths, _ = paths_for("""\
extern void sink(char* c);
void f() {
  string s;
  string t;
  char* c = s.c_str();
  s = t;
  sink(c);
}
""")
    messages = [p.message for p in steps(paths[0])]
    assert "Inner buffer of 'string' reallocated by call to 'operator='" in messages


def test_extern_invalidation_names_the_callee():
    paths, _ = paths_for("""\
extern void sink(char* c);
extern void modify(string& s);
void f() {
  string s;
  char* c = s.c_str();
  modify(s);
  sink(c);
}
""")
    messages = [p.message for p in steps(paths[0])]
    assert "Inner buffer of 'string' reallocated by call to 'modify'" in messages


def test_visitors_fire_once_per_report():
    paths, _ = paths_for(USE_AFTER_CLEAR)
    events = [p for p in steps(paths[0]) if p.severity is Severity.NOTE]
    assert len(events) == 2  # one per visitor, never more


def test_two_pointers_note_anchors_on_the_dangling_one():
    paths, _ = paths_for("""\
extern void sink(char* c);
void f() {
  string s;
  string t;
  char* fine = t.c_str();
  char* dang = s.c_str();
  s.clear();
  sink(dang);
}
""")
    assert len(paths) == 1
    obtained = [p for p in steps(paths[0])
                if "obtained here" in p.message]
    assert len(obtained) == 1
    assert obtained[0].location.line == 6  # the s.c_str() line, not t's


def test_exactly_one_final_warning_and_it_is_last():
    for source in (USE_AFTER_CLEAR, USE_AFTER_FREE):
        paths, _ = paths_for(source)
        finals = [p for p in steps(paths[0]) if p.severity is Severity.WARNING]
        assert len(finals) == 1
        assert steps(paths[0])[-1] is finals[0]


# --- one report per defect ----------------------------------------------------------
# Each error path through one division ends in an error sink of its own; the
# engine keeps one report per (check name, message, location), whose path is
# the only one assembled and shown.

ONE_DEFECT = {
    "if-else": """\
int f(int a) { int x = 0; if (a > 0) x = 1; else x = 2; return x / 0; }
""",
    "inlined by two callers": """\
int h(int v) { return 10 / v; }
int g1() { return h(0); }
int g2() { return h(0); }
""",
    "three branches": """\
int f(int a, int b, int c) {
  int x = 0;
  if (a > 0) x = 1;
  if (b > 0) x = 2;
  if (c > 0) x = 3;
  return 10 / 0;
}
""",
    "loop then division": LOOP_THEN_DIVISION,
}

# Two deletes on paths of equal length: the note shows which path was kept.
FREED_ON_BOTH_BRANCHES = """\
struct S { int v; };
void f(int a) {
  S* p = new S();
  if (a > 0)
    delete p;
  else
    delete p;
  int x = p->v;
}
"""


@pytest.mark.parametrize("source", ONE_DEFECT.values(), ids=ONE_DEFECT)
def test_one_defect_on_many_paths_is_one_warning(source, mc, capsys):
    result, _ = analyze(source)
    assert len(error_sinks(result)) > 1
    assert len(result.reports) == 1
    path = mc(source)
    assert main(["analyze", path]) == 1
    out = capsys.readouterr().out
    assert out.count(": warning: ") == 1
    assert out.splitlines()[-1] == f"Found 1 defect(s) in {path}"


@pytest.mark.parametrize("source", ONE_DEFECT.values(), ids=ONE_DEFECT)
def test_the_report_kept_has_the_shortest_path_of_its_class(source):
    result, _ = analyze(source)
    (report,) = result.reports
    assert len(pred_chain(report.error_node)) == min(
        len(pred_chain(sink)) for sink in error_sinks(result))


def test_a_shorter_path_wins_over_the_first_branch():
    longer_then = FREED_ON_BOTH_BRANCHES.replace(
        "  if (a > 0)\n    delete p;\n", "  if (a > 0) {\n    a = 1;\n    delete p;\n  }\n")
    paths, _ = paths_for(longer_then)
    assert [(n.message, n.location.line) for n in paths[0].attached_notes] == [
        ("Memory is released", 9)]


def test_a_class_keeps_its_place_and_its_shortest_first_report():
    engine = Engine(frontend("").unit)
    file = engine.unit.file
    root = ExplodedNode(None, None, {}, None, 0)
    mid = ExplodedNode(None, None, {}, root, 1)

    def emit(message: str, offset: int, node: ExplodedNode) -> BugReport:
        report = BugReport(message, "core.DivideZero", SourceLocation(file, offset))
        report.error_node = node
        engine.report(report)
        return report

    emit("Division by zero", 0, ExplodedNode(None, None, {}, mid, 2))
    elsewhere = emit("Division by zero", 1, root)
    other = emit("Other", 0, root)
    shorter = emit("Division by zero", 0, mid)
    emit("Division by zero", 0, mid)  # a tie: the first stays
    assert engine.result.reports == [shorter, elsewhere, other]


def test_the_report_kept_is_the_same_on_every_run(mc):
    path = mc(FREED_ON_BOTH_BRANCHES)
    root = pathlib.Path(__file__).resolve().parent.parent
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-m", "minilang.cli", "analyze", path],
            env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 1, child.stdout + child.stderr
        outputs.add(child.stdout)
    (out,) = outputs
    assert out.count(": warning: ") == 1
    assert f"{path}:5:5: note: Memory is released" in out


@pytest.mark.parametrize("source", ONE_DEFECT.values(), ids=ONE_DEFECT)
def test_each_report_replays_to_a_division_by_zero(source):
    # a witness drawn from the error node's constraints makes the oracle
    # divide by zero in the function whose graph holds the report
    result, fe = analyze(source)
    names = {id(graph): name for name, graph in result.graphs.items()}
    for report in result.reports:
        fn = fe.unit.functions[names[id(report.graph)]]
        params = [param.name for param in fn.params]
        witness = leaf_witness(report.error_node, params)
        outcome = run_function(fe.unit, fn.name, tuple(witness[p] for p in params))
        assert outcome.error == "division by zero", (fn.name, witness)


# --- text rendering -----------------------------------------------------------------

def test_render_text_warning_line_format():
    paths, fe = paths_for(USE_AFTER_CLEAR, name="uac.mc")
    text = render_text(fe.file, paths)
    lines = text.splitlines()
    assert lines[0] == ("uac.mc:7:3: warning: Inner pointer of container used "
                        "after re/deallocation [cplusplus.InnerPointer]")
    assert lines[1] == "  return c;"
    assert lines[2].startswith("  ^")


def test_render_text_emits_duplicate_note_last():
    paths, fe = paths_for(USE_AFTER_CLEAR)
    text = render_text(fe.file, paths)
    notes = [l for l in text.splitlines() if ": note: " in l]
    assert len(notes) == 3
    assert notes[-1].endswith("Inner pointer of container used after re/deallocation")


def test_duplicate_note_can_be_disabled():
    paths, fe = paths_for(USE_AFTER_CLEAR)
    text = render_text(fe.file, paths, duplicate_warning_note=False)
    notes = [l for l in text.splitlines() if ": note: " in l]
    assert len(notes) == 2


def test_footer_counts_defects():
    paths, fe = paths_for(USE_AFTER_CLEAR, name="one.mc")
    assert render_text(fe.file, paths).splitlines()[-1] == \
        "Found 1 defect(s) in one.mc"
    clean, clean_fe = paths_for("void f() { }", name="clean.mc")
    assert render_text(clean_fe.file, clean).splitlines()[-1] == \
        "Found 0 defect(s) in clean.mc"


def test_divzero_line_matches_summary_format():
    paths, fe = paths_for("""\
int main_like() { return 1 / zero(); }
int zero() { return 0; }
""", name="main.mc")
    text = render_text(fe.file, paths)
    assert "Division by zero [core.DivideZero]" in text
    assert "Found 1 defect(s) in main.mc" in text


# A tab shows up to the next multiple of 8 columns, as Clang's TextDiagnostic
# expands it; the location keeps the column in the file's text.
@pytest.mark.parametrize("line, shown, caret", [
    ("\treturn a / 0;", "        return a / 0;", " " * 17 + "^~~"),
    ("  return a /\t0;", "  return a /    0;", " " * 11 + "^~~~~~"),
], ids=["tab-before-the-caret", "tab-inside-the-highlight"])
def test_caret_and_highlight_sit_at_display_columns_under_tabs(line, shown, caret):
    paths, fe = paths_for(f"int f(int a) {{\n{line}\n}}\n", name="tab.mc")
    lines = render_text(fe.file, paths).splitlines()
    column = line.index("/") + 1
    assert lines[:3] == [
        f"tab.mc:2:{column}: warning: Division by zero [core.DivideZero]", shown, caret]


def test_html_caret_sits_at_its_display_column_under_a_tab():
    paths, fe = paths_for("int f(int a) {\n\treturn a / 0;\n}\n")
    page = render_html(fe.file, paths)
    assert f"<pre>    2|         return a / 0;\n     | {' ' * 17}^</pre>" in page


def test_fixit_hint_sits_at_its_display_column_under_a_tab(mc, capsys):
    path = mc("struct S { int v; };\nextern S* mk();\nextern void use(int v);\n"
              "void g() {\n\tS* q = mk();\n\tint x = q->v;\n\tuse(x);\n}\n")
    assert main(["tidy", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["        S* q = mk();", " " * 11 + "^~~~~~~~"]
    assert lines[4:7] == ["        int x = q->v;", " " * 16 + "^", " " * 16 + "(mk())"]


def test_text_and_html_carry_the_same_messages():
    paths, fe = paths_for(USE_AFTER_CLEAR)
    text = render_text(fe.file, paths, duplicate_warning_note=False)
    page = render_html(fe.file, paths)
    for path in paths:
        for piece in steps(path):
            assert piece.message in text
            assert piece.message in page


# --- html ------------------------------------------------------------------------------

class _WellFormed(HTMLParser):
    VOID = {"meta", "br", "hr", "img", "link", "input"}

    def __init__(self):
        super().__init__()
        self.stack = []
        self.ok = True

    def handle_starttag(self, tag, attrs):
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in self.VOID:
            return
        if not self.stack or self.stack.pop() != tag:
            self.ok = False


def test_html_report_has_sections_and_steps():
    paths, fe = paths_for(USE_AFTER_CLEAR)
    page = render_html(fe.file, paths)
    assert page.count('<div class="report">') == 1
    assert page.count("<li>") >= 2
    assert "cplusplus.InnerPointer" in page


def test_html_no_defects_page():
    paths, fe = paths_for("void f() { }")
    page = render_html(fe.file, paths)
    assert "No defects found" in page


def test_html_lists_warnings_in_source_order_like_text():
    # The engine reports h's division, reached through the call inlined into
    # g, before g's own division on the line above it.
    paths, fe = paths_for("""\
int g(int a) { int x = 0; if (a > 0) { x = h(0); } return 1 / x; }
int h(int v) { return 10 / v; }
""")
    assert [w.location.line for w in paths] == [2, 1]
    text = render_text(fe.file, paths, duplicate_warning_note=False)
    assert [line.split(":")[1] for line in text.splitlines()
            if ": warning: " in line] == ["1", "2"]
    page = render_html(fe.file, paths)
    assert page.index("    1| int g") < page.index("    2| int h")


def test_html_is_wellformed():
    for source in (USE_AFTER_CLEAR, "void f() { }"):
        paths, fe = paths_for(source)
        parser = _WellFormed()
        parser.feed(render_html(fe.file, paths))
        assert parser.ok and parser.stack == []


# --- verify ---------------------------------------------------------------------------

def render_for_verify(source: str, name: str = "v.mc"):
    """The file, its comments and the diagnostics a plain run would show."""
    paths, fe = paths_for(source, name=name)
    return fe.file, fe.comments, displayed(paths, duplicate_warning_note=True)


def directives_of(source: str, name: str):
    fe = load_unit(name, source)
    return parse_directives(fe.file, fe.comments)


def test_directive_parsing_with_offsets():
    directives = directives_of(DEREF_AFTER_CLEAR_VERIFY, "d.mc")
    kinds = sorted(d.kind for d in directives)
    assert kinds == ["expected-note"] * 3 + ["expected-warning"]
    warning = next(d for d in directives if d.kind == "expected-warning")
    assert warning.line == 8  # @-1 applied


def test_verify_passes_on_the_ported_regression_file():
    outcome = verify_run(*render_for_verify(DEREF_AFTER_CLEAR_VERIFY))
    assert outcome.passed, outcome.mismatches


def test_verify_is_deterministic():
    run = render_for_verify(DEREF_AFTER_CLEAR_VERIFY)
    assert verify_run(*run).passed
    assert verify_run(*run).passed


def test_removing_a_directive_lists_one_unexpected():
    mutated = DEREF_AFTER_CLEAR_VERIFY.replace(
        "// expected-note@-2 {{Inner pointer of container used after re/deallocation}}\n",
        "")
    outcome = verify_run(*render_for_verify(mutated))
    assert not outcome.passed
    assert len(outcome.mismatches) == 1
    assert "unexpected note" in outcome.mismatches[0]


def test_mutating_directive_text_lists_one_mismatch():
    mutated = DEREF_AFTER_CLEAR_VERIFY.replace("obtained here", "acquired here")
    outcome = verify_run(*render_for_verify(mutated))
    assert not outcome.passed
    assert len(outcome.mismatches) == 1


def test_mutating_directive_offset_lists_one_mismatch():
    mutated = DEREF_AFTER_CLEAR_VERIFY.replace("expected-warning@-1",
                                               "expected-warning@-2")
    outcome = verify_run(*render_for_verify(mutated))
    assert not outcome.passed
    assert len(outcome.mismatches) == 1


def test_clean_file_with_no_directives_passes():
    outcome = verify_run(*render_for_verify("void f() { }"))
    assert outcome.passed


def test_malformed_directive_is_a_verify_error():
    with pytest.raises(VerifyError):
        directives_of("void f() { } // expected-warning missing braces\n", "m.mc")


def test_directive_offset_outside_file_is_a_verify_error():
    with pytest.raises(VerifyError):
        directives_of("void f() { } // expected-warning@-9 {{x}}\n", "m.mc")


def test_callee_name_fallback_is_unknown():
    from minilang.checkers import _callee_name

    class _StubPoint:
        node = object()  # not a call-shaped node

        def describe(self):
            return "stub"

    class _StubNode:
        point = _StubPoint()

    assert _callee_name(_StubNode()) == "unknown"


def test_directive_text_inside_string_literal_is_ignored():
    source = 'void f() { string s = "x // expected-warning {{bogus}}"; }\n'
    assert directives_of(source, "lit.mc") == []
