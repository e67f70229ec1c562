"""The redundant-pointer check: usage model, decisions, rewrites, fixes."""

import ast
import inspect
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from minilang.diagnostics import Diagnostic, format_message, Severity
from minilang.frontend import load_unit, tokenize, walk
from minilang.frontend.astnodes import DeclRef, VarDecl
from minilang.source import InternalError, SourceFile, SourceRange
from minilang import tidy
from minilang.tidy import (
    apply_fixes, emit_diag, FixIt, make_checks, RedundantPointerCheck,
    run_checks, UsageKind, VarUsage,
)

from conftest import frontend, NULL_CHECK, REDUNDANT_PTR
from interp_oracle import Instance, observable, run_function


def tidy_diags(source: str, std: int = 14, name: str = "t.mc"):
    fe = frontend(source, name, std)
    checks = make_checks(None, fe.file, std, fe.unit.structs)
    return run_checks(fe.unit, fe.file, checks), fe


def fix(source: str, std: int = 14):
    diags, fe = tidy_diags(source, std)
    fixed, warnings = apply_fixes(source, diags)
    assert warnings == []
    return fixed, diags


def norm_tokens(source: str):
    return tokenize(SourceFile("n.mc", source)).spellings


# --- the usage map ------------------------------------------------------------

def refs_of(unit, var_name):
    return [n for n in walk(unit) if isinstance(n, DeclRef) and n.name == var_name]


def usage_kinds(check, ref):
    """The kinds of the usages recorded for the pointer that `ref` names."""
    return [u.usage_kind for u in check.usages[ref.decl].values()]


def test_add_usage_upgrades_normal_to_dereference():
    fe = frontend(REDUNDANT_PTR)
    check = RedundantPointerCheck(fe.file)
    ref = refs_of(fe.unit, "p")[0]
    check.add_usage(VarUsage(UsageKind.NORMAL, ref))
    deref = ref.parent
    check.add_usage(VarUsage(UsageKind.DEREFERENCE, ref, deref_expr=deref))
    assert usage_kinds(check, ref) == [UsageKind.DEREFERENCE]


def test_add_usage_never_downgrades():
    fe = frontend(REDUNDANT_PTR)
    check = RedundantPointerCheck(fe.file)
    ref = refs_of(fe.unit, "p")[0]
    deref = ref.parent
    check.add_usage(VarUsage(UsageKind.DEREFERENCE, ref, deref_expr=deref))
    check.add_usage(VarUsage(UsageKind.NORMAL, ref))
    assert usage_kinds(check, ref) == [UsageKind.DEREFERENCE]


def test_two_distinct_refs_make_two_entries():
    source = """\
struct T { int x; };
extern T* mk();
extern void foo(T* t);
void f() {
  T* p = mk();
  foo(p);
  return;
}
"""
    fe = frontend(source.replace("return;", "int v = p->x;"))
    check = RedundantPointerCheck(fe.file)
    refs = refs_of(fe.unit, "p")
    for ref in refs:
        check.add_usage(VarUsage(UsageKind.NORMAL, ref))
    assert usage_kinds(check, refs[0]) == [UsageKind.NORMAL, UsageKind.NORMAL]


def test_multiple_usages_example_dispatch_counts():
    # one pointer used at a call and in a dereference: 3 callbacks, 2 usages
    source = """\
struct T { int x; };
extern void foo(T* t);
int f() {
  T* p = new T();
  foo(p);
  return p->x;
}
"""
    fe = frontend(source)
    check = RedundantPointerCheck(fe.file, 14, fe.unit.structs)
    calls = []
    original = check.check
    check.check = lambda result: (calls.append(result), original(result))[1]
    run_checks(fe.unit, fe.file, [check])
    assert len(calls) == 3
    (usages,) = check.usages.values()
    kinds = sorted(u.usage_kind for u in usages.values())
    assert kinds == [UsageKind.NORMAL, UsageKind.DEREFERENCE]


def test_empty_file_leaves_ledger_unchanged():
    fe = frontend("")
    check = RedundantPointerCheck(fe.file, 14, {})
    run_checks(fe.unit, fe.file, [check])
    assert check.usages == {}


# --- decision points ----------------------------------------------------------

def test_never_fires_on_unused_pointer():
    diags, _ = tidy_diags("struct T { int x; };\nextern T* mk();\n"
                          "void f() { T* p = mk(); }")
    assert diags == []


def test_never_fires_on_three_usages():
    diags, _ = tidy_diags("""\
struct T { int x; };
extern T* mk();
extern void foo(T* t);
void f() {
  T* p = mk();
  foo(p);
  foo(p);
  int v = p->x;
}
""")
    assert diags == []


def test_never_fires_on_parameters():
    diags, _ = tidy_diags("struct T { int x; };\n"
                          "int f(T* p) { return p->x; }")
    assert diags == []


def test_single_use_fix_inlines_initializer():
    fixed, diags = fix(REDUNDANT_PTR)
    assert "Something* p" not in fixed
    assert "int value = (function_call())->value;" in fixed
    warning = diags[0]
    assert warning.message == "redundant pointer variable with only one usage"
    assert warning.severity is Severity.WARNING
    assert [n.message for n in warning.attached_notes] == ["pointer usage location"]
    refixed = load_unit("fixed.mc", fixed)
    assert refixed.ok
    rediags, _ = tidy_diags(fixed)
    assert rediags == []  # fixed point


def test_single_use_fix_preserves_semantics():
    fixed, _ = fix(REDUNDANT_PTR)
    original = load_unit("orig.mc", REDUNDANT_PTR)
    rewritten = load_unit("fixed.mc", fixed)
    for stub in (lambda a: None, lambda a: Instance("Something", {"value": 9})):
        before = run_function(original.unit, "usage",
                              externs={"function_call": stub})
        after = run_function(rewritten.unit, "usage",
                             externs={"function_call": stub})
        assert observable(before) == observable(after)


def test_guarded_case_silent_under_std_14():
    diags, _ = tidy_diags(NULL_CHECK, std=14)
    assert diags == []


def test_guarded_rewrite_under_std_17():
    diags, _ = tidy_diags(NULL_CHECK, std=17)
    warnings = [d for d in diags if d.severity is Severity.WARNING]
    notes = [n for d in diags for n in d.attached_notes]
    assert [w.message for w in warnings] == [
        "redundant pointer variable declared",
        "rewrite the conditional to C++17 initialise the pointer",
    ]
    assert [n.message for n in notes] == [
        "after swap, the initialisation is not needed at this location"]
    fixits = [f for d in diags for f in d.fixits] + [f for n in notes for f in n.fixits]
    assert len(fixits) == 3


def test_guarded_rewrite_condition_text():
    diags, fe = tidy_diags(NULL_CHECK, std=17)
    cond_fix = [f for d in diags for f in d.fixits
                if "function_call_that_might_return_null();" in f.text]
    assert len(cond_fix) == 1
    assert cond_fix[0].text == (
        "Something* p = function_call_that_might_return_null(); "
        "(!p) || ((value_to_print = p->value), false)")


def test_guarded_rewrite_applies_and_reaches_fixed_point():
    fixed, _ = fix(NULL_CHECK, std=17)
    expected = """\
struct Something { int value; };
extern Something* function_call_that_might_return_null();
extern void print(int v);

void guarded() {
  int value_to_print;
  if (Something* p = function_call_that_might_return_null(); (!p) || ((value_to_print = p->value), false))
    return;

  print(value_to_print);
}
"""
    assert norm_tokens(fixed) == norm_tokens(expected)
    refixed = load_unit("fixed.mc", fixed, std=17)
    assert refixed.ok, [d.message for d in refixed.diagnostics]
    rediags, _ = tidy_diags(fixed, std=17)
    assert rediags == []


def test_declaration_whose_semicolon_is_on_a_later_line_is_fixed():
    # whitespace and `//` comments may stand between a declaration and its ';'
    single = """\
struct S { int v; };
extern S* mk();
extern void use(int v);
void f() {
  S* p = mk() // c
  ;
  use(p->v);
}
"""
    fixed, diags = fix(single)
    assert [d.message for d in diags] == ["redundant pointer variable with only one usage"]
    assert fixed.endswith("void f() {\n  use((mk())->v);\n}\n")
    guarded = """\
struct S { int v; };
extern S* mk();
extern void use(int v);
void f() {
  S* p = mk()
  ;
  if (!p)
    return;
  int v = p->v
  ;
  use(v);
}
"""
    fixed, diags = fix(guarded, std=17)
    assert [d.message for d in diags] == [
        "redundant pointer variable declared",
        "rewrite the conditional to C++17 initialise the pointer"]
    assert norm_tokens(fixed) == norm_tokens(
        guarded.split("void f")[0] + "void f() { int v; "
        "if (S* p = mk(); (!p) || ((v = p->v), false)) return; use(v); }")
    assert tidy_diags(fixed, std=17)[0] == []


def test_guard_must_precede_deref_init():
    source = """\
struct T { int v; };
extern T* mk();
void f() {
  T* p = mk();
  int value = p->v;
  if (!p)
    return;
}
"""
    diags, _ = tidy_diags(source, std=17)
    assert diags == []


def test_rewrite_skipped_for_const_result_variable():
    source = NULL_CHECK.replace("int value_to_print =", "const int value_to_print =")
    diags, _ = tidy_diags(source, std=17)
    assert diags == []


def test_guard_with_noreturn_call_counts():
    source = """\
struct T { int v; };
extern T* mk();
extern noreturn void abort_now();
void f() {
  T* p = mk();
  if (!p)
    abort_now();
  int value = p->v;
}
"""
    diags, _ = tidy_diags(source, std=17)
    assert [d.message for d in diags if d.severity is Severity.WARNING] == [
        "redundant pointer variable declared",
        "rewrite the conditional to C++17 initialise the pointer",
    ]


# --- emitDiag -------------------------------------------------------------------

def test_emit_diag_renders_node_argument_with_name():
    fe = frontend("void f() { int Var = 1; }", name="example.mc")
    decl = next(n for n in walk(fe.unit) if isinstance(n, VarDecl))
    diag = emit_diag(decl.name_loc, "variable: %0", (decl,), Severity.WARNING,
                     "my-tidy-check")
    from minilang.diagnostics import render_diagnostic
    rendered = render_diagnostic(diag)
    assert rendered.splitlines()[0] == \
        "example.mc:1:16: warning: variable: 'Var' [my-tidy-check]"


def test_emit_diag_without_placeholders_is_verbatim():
    fe = frontend("void f() { }", name="e.mc")
    diag = emit_diag(fe.unit.range.begin, "plain message", ())
    assert diag.message == "plain message"


def test_note_rendering_omits_check_name():
    from minilang.diagnostics import render_diagnostic
    fe = frontend("void f() { }", name="e.mc")
    note = emit_diag(fe.unit.range.begin, "a note", (), Severity.NOTE, "some-check")
    assert "[some-check]" not in render_diagnostic(note)


def test_unfilled_placeholder_is_internal_error():
    with pytest.raises(InternalError):
        format_message("variable: %0 and %1", ("only-one",))


def loop_format_message(template: str, args: tuple) -> str:
    """The former per-character `format_message`, kept as a reference."""
    out = []
    i = 0
    while i < len(template):
        ch = template[i]
        if ch == "%" and i + 1 < len(template) and template[i + 1].isdigit():
            k = int(template[i + 1])
            if k >= len(args):
                raise InternalError(f"unfilled placeholder %{k} in {template!r}")
            name = getattr(args[k], "name", None)
            out.append(f"'{name}'" if name is not None else str(args[k]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def tidy_templates() -> list[str]:
    """The message templates the tidy checks pass to `emit_diag`."""
    tree = ast.parse(inspect.getsource(tidy))
    return [call.args[1].value for call in ast.walk(tree)
            if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "emit_diag"]


def test_format_message_matches_the_character_loop():
    templates = tidy_templates()
    assert len(templates) == 5
    args = (SimpleNamespace(name="Var"), 42, "text")
    for template in [*templates, "%%0", "trailing %", "100%", "%0 of %1, %2", "%2%1%0"]:
        assert format_message(template, args) == loop_format_message(template, args), template


def test_non_ascii_digit_after_percent_stays_text():
    with pytest.raises(ValueError):
        loop_format_message("width %\u00b2", ())
    assert format_message("width %\u00b2", ()) == "width %\u00b2"


# --- applyFixes -------------------------------------------------------------------

def test_apply_fixes_no_fixits_leaves_source_unchanged():
    source = "void f() { }\n"
    fixed, warnings = apply_fixes(source, [])
    assert fixed == source and warnings == []


def test_apply_fixes_skips_overlapping_groups():
    fe = frontend("void f() { int aa = 1; }", name="o.mc")
    decl = next(n for n in walk(fe.unit) if isinstance(n, VarDecl))
    rng = SourceRange(decl.range.begin, decl.range.end)
    first = emit_diag(decl.name_loc, "first", (), Severity.WARNING, "c",
                      fixits=[FixIt.replacement(rng, "int bb = 2")])
    second = emit_diag(decl.name_loc, "second", (), Severity.WARNING, "c",
                       fixits=[FixIt.removal(rng)])
    fixed, warnings = apply_fixes(fe.file.text, [first, second])
    assert "int bb = 2" in fixed
    assert len(warnings) == 1 and "second" in warnings[0]


def reference_apply_fixes(text, diagnostics):
    """`apply_fixes` as it was before the replacement set: an all-pairs
    conflict check and right-to-left slicing."""
    accepted, warnings, spans = [], [], []
    for diag in diagnostics:
        group = list(diag.fixits)
        for note in diag.attached_notes:
            group.extend(note.fixits)
        if not group:
            continue
        gspans = [(f.range.begin.offset, f.range.end.offset) for f in group]
        conflict = any(
            b0 < e1 and b1 < e0 or (b0 == b1 and e0 == b0 and e1 == b1)
            for (b0, e0) in gspans for (b1, e1) in spans
        )
        if conflict:
            warnings.append(
                f"{diag.location}: fix for '{diag.message}' overlaps an earlier fix; skipped")
            continue
        accepted.extend(group)
        spans.extend(gspans)
    new_text = text
    for fx in sorted(accepted, key=lambda f: f.range.begin.offset, reverse=True):
        b, e = fx.range.begin.offset, fx.range.end.offset
        new_text = new_text[:b] + fx.text + new_text[e:]
    return new_text, warnings


FIX_TEXT = "0123456789abcdef"


@st.composite
def fix_diagnostics(draw):
    """Diagnostics over FIX_TEXT whose fix-its are dense enough to tie,
    touch and overlap: within one diagnostic they may only touch, as
    `Diagnostic` requires, while its notes' fix-its may overlap it."""
    file = SourceFile("f.mc", FIX_TEXT)

    def fixits():
        count = draw(st.integers(0, 3))
        offsets = sorted(draw(st.lists(st.integers(0, len(FIX_TEXT)),
                                       min_size=2 * count, max_size=2 * count)))
        made = []
        for begin, end in zip(offsets[::2], offsets[1::2]):
            end = draw(st.sampled_from((begin, end)))  # an empty range inserts
            rng = SourceRange(file.location(begin), file.location(end))
            made.append(FixIt(rng, draw(st.sampled_from(["", "X", "YZ"]))))
        return made

    diags = []
    for index in range(draw(st.integers(0, 5))):
        notes = [Diagnostic(file.location(0), "note", Severity.NOTE, fixits=fixits())
                 for _ in range(draw(st.integers(0, 2)))]
        location = file.location(draw(st.integers(0, len(FIX_TEXT))))
        diags.append(Diagnostic(location, f"d{index}", Severity.WARNING,
                                fixits=fixits(), attached_notes=notes))
    return diags


@given(fix_diagnostics())
@settings(max_examples=400, deadline=None)
def test_apply_fixes_matches_pairwise_check_and_slicing(diags):
    assert apply_fixes(FIX_TEXT, diags) == reference_apply_fixes(FIX_TEXT, diags)


def test_apply_fixes_keeps_slicing_order_at_one_offset():
    # ties apply in list order, each slicing what the one before it wrote
    file = SourceFile("t.mc", "abcdef")
    at = file.location
    diag = Diagnostic(at(0), "d", Severity.WARNING,
                      fixits=[FixIt.insertion(at(2), "XY")],
                      attached_notes=[Diagnostic(at(0), "n", Severity.NOTE, fixits=[
                          FixIt.replacement(SourceRange(at(2), at(3)), "Q"),
                          FixIt.insertion(at(4), "Z")])])
    expected = reference_apply_fixes(file.text, [diag])
    assert expected == ("abQYcdZef", [])
    assert apply_fixes(file.text, [diag]) == expected


def test_fix_ranges_stay_within_file():
    diags, fe = tidy_diags(NULL_CHECK, std=17)
    for diag in diags:
        for fixit in diag.fixits + [f for n in diag.attached_notes for f in n.fixits]:
            assert 0 <= fixit.range.begin.offset <= fixit.range.end.offset
            assert fixit.range.end.offset <= len(fe.file.text)


def test_diagnostics_ordered_by_offset():
    diags, _ = tidy_diags(NULL_CHECK, std=17)
    offsets = [d.location.offset for d in diags]
    assert offsets == sorted(offsets)


# --- the truth-table property -----------------------------------------------------

def test_truth_table_semantics_hold_for_both_pointer_values():
    fixed, _ = fix(NULL_CHECK, std=17)
    original = load_unit("orig.mc", NULL_CHECK, std=17)
    rewritten = load_unit("rewritten.mc", fixed, std=17)
    assert rewritten.ok
    stubs = {
        "null": lambda a: None,
        "non-null": lambda a: Instance("Something", {"value": 41}),
    }
    for label, stub in stubs.items():
        before = run_function(
            original.unit, "guarded",
            externs={"function_call_that_might_return_null": stub})
        after = run_function(
            rewritten.unit, "guarded",
            externs={"function_call_that_might_return_null": stub})
        assert before.error is None and after.error is None, label
        assert observable(before) == observable(after), label


def test_degenerate_null_test_guard_rewrites_identically():
    source = NULL_CHECK.replace("if (!p)", "if (p == 0)")
    fixed, diags = fix(source, std=17)
    assert "(p == 0) || ((value_to_print = p->value), false)" in fixed
    original = load_unit("orig.mc", source, std=17)
    rewritten = load_unit("rw.mc", fixed, std=17)
    assert original.ok and rewritten.ok
    for stub in (lambda a: None, lambda a: Instance("Something", {"value": 3})):
        externs = {"function_call_that_might_return_null": stub}
        before = run_function(original.unit, "guarded", externs=externs)
        after = run_function(rewritten.unit, "guarded", externs=externs)
        assert before.error is None and after.error is None
        assert observable(before) == observable(after)


MOVED_CALL_PRELUDE = """\
struct S { int v; };
extern S* get();
extern void note();
extern bool more();
extern bool ok();
extern void use(S* p);
"""


MOVED_CALL_BODIES = pytest.mark.parametrize("body", [
    "S* p = get(); note(); use(p);",
    "S* p = get(); while (more()) { use(p); }",
    "S* p = get(); if (ok()) { use(p); }",
], ids=["past-a-call", "into-a-loop", "into-a-branch"])


def moved_call_runs(body):
    """The single-use diagnostics on `f() { body }`, and the oracle's outcome
    of `f` before and after the fix."""
    source = MOVED_CALL_PRELUDE + "void f() { " + body + " }\n"
    fixed, diags = fix(source)
    outcomes = []
    for text in (source, fixed):
        turns = iter([True, True, False])
        externs = {"get": lambda args: Instance("S", {"v": 1}),
                   "more": lambda args: next(turns), "ok": False}
        outcomes.append(run_function(load_unit("moved.mc", text).unit, "f", externs=externs))
    return diags, outcomes


@MOVED_CALL_BODIES
def test_single_use_fix_fires_and_both_texts_run(body):
    # the preconditions of the xfail below, kept out of it so that they
    # cannot pass as its expected failure
    diags, outcomes = moved_call_runs(body)
    assert [d.message for d in diags] == ["redundant pointer variable with only one usage"]
    assert [outcome.error for outcome in outcomes] == [None, None]


# Known defect: the single-use rewrite moves an initializer that calls a
# function to its one use, past a call, into a loop body or into a branch,
# so the call runs later, as often as the loop turns, or not at all.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the single-use fix moves a call past other statements")
@MOVED_CALL_BODIES
def test_single_use_fix_keeps_the_extern_call_order(body):
    _, (before, after) = moved_call_runs(body)
    assert before.extern_trace == after.extern_trace


def test_compound_guard_branch_rewrites_too():
    source = NULL_CHECK.replace("if (!p)\n    return;", "if (!p) { return; }")
    fixed, diags = fix(source, std=17)
    assert "(!p) || ((value_to_print = p->value), false)" in fixed
    assert load_unit("c.mc", fixed, std=17).ok


def test_two_redundant_pointers_fixed_in_one_pass():
    source = """\
struct T { int v; };
extern T* first();
extern T* second();
extern void take(int a, int b);

void f() {
  T* p = first();
  T* q = second();
  int a = p->v;
  int b = q->v;
  take(a, b);
}
"""
    fixed, diags = fix(source)
    warnings = [d for d in diags if d.severity is Severity.WARNING]
    assert len(warnings) == 2
    assert [w.location.offset for w in warnings] == sorted(
        w.location.offset for w in warnings)
    assert "int a = (first())->v;" in fixed
    assert "int b = (second())->v;" in fixed
    rediags, _ = tidy_diags(fixed)
    assert rediags == []


def test_same_pointer_name_in_two_functions_tracked_separately():
    source = """\
struct T { int v; };
extern T* mk();
void f() {
  T* p = mk();
  int a = p->v;
}
void g() {
  T* p = mk();
  int b = p->v;
}
"""
    diags, _ = tidy_diags(source)
    warnings = [d for d in diags if d.severity is Severity.WARNING]
    assert len(warnings) == 2
