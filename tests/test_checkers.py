"""Checker registry, MallocLite, InnerPointer and DivZero behavior."""

import pytest

from minilang.checkers import (
    AllocationFamily, assemble_bug_path, DivZero, get_container_obj_region, InnerPointer,
    is_invalidating_member_function, MALLOC_SLOT, MallocLite, RAWPTR_SLOT,
    RefStatus, registry_list, resolve_enabled, UnknownCheckerError,
)
from minilang.frontend.astnodes import Assign, MethodCall
from minilang.symexec import (
    CallExitPoint, PostImplicitCallPoint, PreStmtPoint, ProgramState, RetRegion,
    Symbol, VarRegion,
)
from minilang.symexec.engine import CallInfo, CHECKER_HOOKS

from conftest import analyze, frontend, USE_AFTER_CLEAR, USE_AFTER_FREE
from engine_paths import replay_ends


def reports_of(source: str, checkers=None, std: int = 14):
    result, fe = analyze(source, std=std, checkers=checkers)
    return result.reports, result, fe


# --- registry -------------------------------------------------------------------

def test_registry_listing_contains_the_canonical_lines():
    text = registry_list()
    assert text.startswith("OVERVIEW:")
    assert "USAGE: --checker" in text
    assert "CHECKERS:" in text
    assert ("cplusplus.InnerPointer    Check for inner pointers of C++ "
            "containers used after re/deallocation") in text
    assert "core.DivideZero" in text
    assert "unix.MallocLite" in text


def test_registry_listing_alphabetical():
    lines = [l.strip() for l in registry_list().splitlines()
             if l.startswith("  ")]
    names = [l.split()[0] for l in lines]
    assert names == sorted(names)


def test_the_checkers_implement_exactly_the_dispatched_hooks():
    implemented = {name for cls in (MallocLite, InnerPointer, DivZero)
                   for name in vars(cls) if name.startswith("check_")}
    assert implemented == set(CHECKER_HOOKS)


def test_inner_pointer_pulls_in_its_dependency():
    enabled = resolve_enabled(["cplusplus.InnerPointer"])
    assert enabled == ["cplusplus.InnerPointer", "unix.MallocLite"]


def test_unknown_checker_rejected():
    with pytest.raises(UnknownCheckerError):
        resolve_enabled(["cplusplus.Bogus"])


# --- MallocLite -------------------------------------------------------------------

def test_balanced_new_delete_is_silent():
    reports, result, _ = reports_of("""\
struct T { int x; };
void f() { T* s = new T(); delete s; }
""")
    assert reports == []
    leaf = result.graphs["f"].leaves()[0]
    states = leaf.state.slot(MALLOC_SLOT)
    assert all(ref.status is RefStatus.RELEASED for ref in states.values())


def test_double_delete_reports_and_sinks():
    reports, result, _ = reports_of("""\
struct T { int x; };
void f() {
  T* p = new T();
  delete p;
  delete p;
  p = new T();
}
""")
    assert [r.message for r in reports] == ["Attempt to free released memory"]
    assert reports[0].error_node.is_sink
    # the path ended: the post-error allocation never happens
    assert all("new" not in str(v)
               for n in result.graphs["f"].nodes
               for v in n.state.store.values()
               if "2" in str(v))


def test_use_after_free_on_return():
    reports, _, _ = reports_of(USE_AFTER_FREE)
    assert len(reports) == 1
    assert reports[0].message == "Use of memory after it is freed"
    assert reports[0].location.line == 7  # the return line


def test_delete_of_stack_address_reports_plumbing_message():
    reports, _, _ = reports_of("""\
void f() {
  int x = 1;
  int* p = &x;
  delete p;
}
""")
    assert [r.message for r in reports] == [
        "argument is not memory allocated by new"]


def test_copy_is_silent_use_reports():
    # `c = s` only propagates the symbol; the report comes at the return
    reports, _, _ = reports_of(USE_AFTER_FREE)
    assert reports[0].location.line == 7


def test_use_as_call_argument_reports():
    reports, _, _ = reports_of("""\
struct T { int x; };
extern void sink(T* t);
void f() {
  T* p = new T();
  delete p;
  sink(p);
}
""")
    assert len(reports) == 1
    assert reports[0].message == "Use of memory after it is freed"
    assert reports[0].location.line == 6


def test_dereference_after_delete_reports():
    reports, _, _ = reports_of("""\
struct T { int x; };
void f() {
  T* p = new T();
  delete p;
  int v = p->x;
}
""")
    assert len(reports) == 1


@pytest.mark.parametrize("source, column", [
    ("struct S { int f; }; void g() { S* p = new S(); delete p; p->f = 1; }", 59),
    ("void h() { int* q = new int(); delete q; *q = 1; }", 42),
    ("struct T { int v; }; struct S { T s; }; "
     "void g() { S* p = new S(); delete p; p->s.v = 1; }", 78),
    ("struct S { int f; }; void g() { S* p = new S(); delete p; (*p).f = 1; }", 60),
])
def test_write_through_a_freed_pointer_reports(source, column):
    reports, _, _ = reports_of(source)
    assert [(r.message, r.location.column) for r in reports] == [
        ("Use of memory after it is freed", column)]


# Accesses under a `.` whose base goes through a pointer: `p->s` or `(*p)`.
DOT_OVER_POINTER = "struct T { int v; };\nstruct S { int f; T s; };\n"


@pytest.mark.parametrize("access, column", [
    ("p->s.v", 10), ("(*p).f", 11), ("(*p).s.v", 11)])
def test_read_under_a_dot_through_a_freed_pointer_reports(access, column):
    reports, _, _ = reports_of(
        DOT_OVER_POINTER + f"int g() {{\n  S* p = new S(); delete p;\n  return {access};\n}}")
    assert [(r.message, str(r.location)) for r in reports] == [
        ("Use of memory after it is freed", f"input.mc:5:{column}")]


def test_method_call_under_a_dot_on_a_freed_receiver_reports():
    reports, _, _ = reports_of(
        "int h() { string* sp = new string(); delete sp; return (*sp).size(); }")
    assert [(r.message, r.location.column) for r in reports] == [
        ("Use of memory after it is freed", 57)]


def null_sinks(source: str):
    """The null-dereference notes and sinks of one analysis."""
    reports, result, _ = reports_of(source)
    assert reports == []
    notes = [n for n in result.notes if "null dereference" in n]
    sinks = [n for g in result.graphs.values() for n in g.nodes if n.is_sink]
    return notes, sinks


def test_write_through_a_known_null_pointer_ends_the_path():
    notes, sinks = null_sinks(
        "struct S { int f; };\nvoid k(S* p) { if (p == 0) { p->f = 2; } }")
    assert notes == ["input.mc:2:30: note: null dereference, path terminated"]
    assert len(sinks) == 1


@pytest.mark.parametrize("access, column", [
    ("int x = p->s.v;", 38), ("p->s.v = 2;", 30), ("int x = (*p).f;", 39),
    ("(*p).f = 2;", 31)])
def test_access_under_a_dot_through_a_known_null_pointer_ends_the_path(access, column):
    notes, sinks = null_sinks(
        DOT_OVER_POINTER + f"void k(S* p) {{ if (p == 0) {{ {access} }} }}")
    assert notes == [f"input.mc:3:{column}: note: null dereference, path terminated"]
    assert len(sinks) == 1


def test_method_call_on_a_known_null_receiver_ends_the_path():
    source = "int h(string* s) { if (s == 0) { return s->size(); } return 1; }"
    notes, sinks = null_sinks(source)
    assert notes == ["input.mc:1:41: note: null dereference, path terminated"]
    (sink,) = sinks
    assert sink.point.__class__ is PreStmtPoint
    assert isinstance(sink.point.node, MethodCall) and sink.point.node.is_arrow
    (leaf,) = analyze(source)[0].graphs["h"].leaves()  # only a non-null `s` returns
    assert leaf.state.lookup(RetRegion(leaf.point.frame)) == 1


def test_a_null_test_on_the_left_of_or_guards_the_access_on_its_right():
    source = """\
struct S { int v; };
extern S* mk();
int f() {
  S* p = mk();
  if (p == 0) { bool b = p == 0 || p->v > 0; if (b) return 1; }
  return 0;
}
"""
    notes, sinks = null_sinks(source)
    assert notes == [] and sinks == []
    leaves = analyze(source)[0].graphs["f"].leaves()
    returns = [leaf.state.lookup(RetRegion(leaf.point.frame)) for leaf in leaves]
    assert returns.count(1) == 1


@pytest.mark.parametrize("access", [
    "int x = p->v;", "p->v = 1;", "*q = 1;", "int n = s->size();"])
def test_a_path_that_survives_an_access_through_a_pointer_has_it_non_null(access):
    notes, sinks = null_sinks(f"""\
struct S {{ int v; }};
extern S* mk();
extern int* mkint();
extern string* mkstr();
void f() {{
  S* p = mk(); int* q = mkint(); string* s = mkstr();
  {access}
  if (p == 0 || q == 0 || s == 0) {{ int y = *q; }}
  if (p == 0) {{ int z = p->v; }}
  if (s == 0) {{ string t = *s; }}
}}
""")
    # the two null-dereference notes of the paths where `access` has no say
    assert len(notes) == len(sinks) == 2


# --- markReleased / container region ------------------------------------------------

def test_mark_released_is_idempotent_and_keeps_origin_none():
    sym = Symbol(1, "c")
    region = VarRegion(object(), 1)
    tracked = ProgramState().update_slot(RAWPTR_SLOT, {region: frozenset({sym})})
    one = InnerPointer.mark_ptr_symbols_released(tracked, region, None)
    assert one.slot(RAWPTR_SLOT) == {}  # the region is forgotten
    assert InnerPointer.mark_ptr_symbols_released(one, region, None) is one
    two = InnerPointer.mark_ptr_symbols_released(
        one.update_slot(RAWPTR_SLOT, {region: frozenset({sym})}), region, None)
    assert one == two
    # the symbol moved between slots in one transition: its count stays
    assert one._slot_refs is tracked._slot_refs and list(one.gdm_symbols()) == [sym]
    ref = one.slot(MALLOC_SLOT)[sym]
    assert ref.origin is None
    assert ref.family is AllocationFamily.INNER_BUFFER
    assert ref.status is RefStatus.RELEASED


def test_get_container_obj_region_pre_and_post_invalidation():
    result, fe = analyze(USE_AFTER_CLEAR)
    graph = result.graphs["useAfterClear"]
    error = result.reports[0].error_node
    sym = next(s for s in error.state.slot(MALLOC_SLOT))
    assert get_container_obj_region(error.state, sym) is None  # entry removed
    chain = []
    node = error
    while node is not None:
        chain.append(node)
        node = node.pred
    tracked = [n for n in chain if get_container_obj_region(n.state, sym)]
    assert tracked  # region visible in the pre-invalidation states
    region = get_container_obj_region(tracked[0].state, sym)
    assert region.decl.name == "s"


# --- InnerPointer ----------------------------------------------------------------------

def last_tracked_state(graph):
    """The latest state still holding buffer-pointer records (the string's
    end-of-scope destructor clears them before the leaves)."""
    nodes = [n for n in graph.nodes if n.state.slot(RAWPTR_SLOT)]
    assert nodes, "no node ever tracked a buffer pointer"
    return max(nodes, key=lambda n: n.seq).state


def test_c_str_records_symbol_under_receiver_region():
    result, _ = analyze("void f() { string s; char* c = s.c_str(); }")
    raw = last_tracked_state(result.graphs["f"]).slot(RAWPTR_SLOT)
    assert len(raw) == 1
    (region, ptr_set), = raw.items()
    assert region.decl.name == "s" and len(ptr_set) == 1


def test_two_c_str_calls_record_two_distinct_symbols():
    result, _ = analyze("""\
void f() {
  string s;
  char* a = s.c_str();
  char* b = s.c_str();
}
""")
    (_, ptr_set), = last_tracked_state(result.graphs["f"]).slot(RAWPTR_SLOT).items()
    assert len(ptr_set) == 2


def test_size_call_does_not_change_checker_state():
    result, _ = analyze("""\
void f() {
  string s;
  char* c = s.c_str();
  s.size();
}
""")
    state = last_tracked_state(result.graphs["f"])
    (_, ptr_set), = state.slot(RAWPTR_SLOT).items()
    assert len(ptr_set) == 1
    assert state.slot(MALLOC_SLOT) == {}


def test_invalidating_member_function_classification():
    unit = frontend("""\
void f(string s, string t) {
  s.clear(); s += t; s = t; s.at(0); s.c_str(); s.front();
}
""").unit
    calls = [node for node in unit.preorder if isinstance(node, (Assign, MethodCall))]
    verdicts = [is_invalidating_member_function(CallInfo(node, None, None, []))
                for node in calls]
    assert verdicts == [True, True, True, False, False, False]


def test_clear_releases_all_recorded_symbols_and_removes_entry():
    result, _ = analyze("""\
void f() {
  string s;
  char* a = s.c_str();
  char* b = s.c_str();
  s.clear();
}
""")
    leaf = result.graphs["f"].leaves()[0]
    assert leaf.state.slot(RAWPTR_SLOT) == {}
    released = [ref for ref in leaf.state.slot(MALLOC_SLOT).values()
                if ref.status is RefStatus.RELEASED]
    assert len(released) == 2
    assert all(r.family is AllocationFamily.INNER_BUFFER for r in released)


def test_swap_invalidates_receiver_and_argument():
    result, _ = analyze("""\
void f() {
  string s;
  string t;
  char* a = s.c_str();
  char* b = t.c_str();
  s.swap(t);
}
""")
    leaf = result.graphs["f"].leaves()[0]
    assert leaf.state.slot(RAWPTR_SLOT) == {}
    released = [ref for ref in leaf.state.slot(MALLOC_SLOT).values()
                if ref.status is RefStatus.RELEASED]
    assert len(released) == 2


def test_extern_nonconst_reference_invalidates():
    reports, _, _ = reports_of("""\
extern void sink(char* c);
extern void modify(string& s);
void f() {
  string s;
  char* c = s.c_str();
  modify(s);
  sink(c);
}
""")
    assert len(reports) == 1
    assert reports[0].message == "Inner pointer of container used after re/deallocation"


def test_extern_const_reference_is_exempt():
    reports, _, _ = reports_of("""\
extern void sink(char* c);
extern void look(const string& s);
void f() {
  string s;
  char* c = s.c_str();
  look(s);
  sink(c);
}
""")
    assert reports == []


def test_untracked_region_invalidation_is_a_noop():
    result, _ = analyze("void f() { string s; s.clear(); }")
    leaf = result.graphs["f"].leaves()[0]
    assert leaf.state.slot(RAWPTR_SLOT) == {}
    assert leaf.state.slot(MALLOC_SLOT) == {}


def test_dtor_releases_with_no_origin():
    reports, _, _ = reports_of("""\
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
    assert len(reports) == 1
    assert reports[0].message == "Inner pointer of container used after re/deallocation"


def test_dead_pointer_symbol_trimmed_from_ptr_set():
    result, _ = analyze("""\
void f() {
  string s;
  char* kept = s.c_str();
  s.c_str();
}
""")
    (_, ptr_set), = last_tracked_state(result.graphs["f"]).slot(RAWPTR_SLOT).items()
    assert len(ptr_set) == 1  # the unstored result died and was trimmed


def test_string_without_c_str_never_reports_whitelist_safety():
    reports, _, _ = reports_of("""\
void f() {
  string s;
  s.size();
  s.empty();
  s.at(0);
  s.front();
  s.back();
  char* c = s.data();
  char* d = s.c_str();
}
""")
    assert reports == []


def test_a_buffer_pointer_returned_past_its_strings_destructor_reports():
    # `s` dies after the return statement has stashed the pointer: the
    # post-destructor check reports at the implicit destructor
    reports, _, _ = reports_of("char* f() { string s; return s.c_str(); }")
    (report,) = reports
    assert report.error_node.point.__class__ is PostImplicitCallPoint
    diag = assemble_bug_path(report)
    assert (diag.check_name, diag.message, diag.location.column) == (
        "cplusplus.InnerPointer", "Inner pointer of container used after re/deallocation", 23)
    assert [(n.location.column, n.message) for n in diag.attached_notes] == [
        (30, "Pointer to inner buffer of 'string' obtained here"),
        (23, "Inner buffer of 'string' deallocated by call to destructor")]


def test_a_buffer_pointer_returned_past_an_inlined_callees_destructor_reports():
    # the pending return value is looked up in the inlined frame of `g`,
    # which returns a value, and not in `f`'s, which does not
    reports, _, _ = reports_of("""\
extern void consume(char* c);
void f() { consume(g()); }
char* g() { string s; return s.c_str(); }
""")
    (report,) = reports
    assert report.error_node.point.__class__ is PostImplicitCallPoint
    diag = assemble_bug_path(report)
    assert (diag.check_name, diag.message, diag.location.line, diag.location.column) == (
        "cplusplus.InnerPointer", "Inner pointer of container used after re/deallocation",
        3, 23)
    assert [(n.location.line, n.location.column, n.message)
            for n in diag.attached_notes] == [
        (3, 30, "Pointer to inner buffer of 'string' obtained here"),
        (3, 23, "Inner buffer of 'string' deallocated by call to destructor")]


def test_a_heap_symbol_that_nothing_holds_leaves_the_allocation_map():
    result, _ = analyze(
        "void f() { int* p = new int(); int* q = new int(); p = q; int y = 1; }")
    (leaf,) = result.graphs["f"].leaves()
    assert [sym.name for sym in leaf.state.slot(MALLOC_SLOT)] == ["new1_2"]


def test_a_callee_strings_buffer_pointers_are_forgotten_at_call_exit():
    result, _ = analyze("""\
void g(string s) { char* c = s.c_str(); }
void f() { string t; g(t); }
""")
    (exit_node,) = [n for n in result.graphs["f"].nodes
                    if n.point.__class__ is CallExitPoint]
    (region,) = exit_node.pred.state.slot(RAWPTR_SLOT)
    assert region.decl.name == "s"  # the callee's parameter, which dies here
    assert exit_node.state.slot(RAWPTR_SLOT) == {}


# --- DivZero -----------------------------------------------------------------------------

def test_divzero_on_inlined_zero_return():
    reports, _, _ = reports_of("""\
int main_like() { return 1 / zero(); }
int zero() { return 0; }
""")
    assert [r.message for r in reports] == ["Division by zero"]
    assert reports[0].check_name == "core.DivideZero"


def test_divzero_silent_for_nonzero_concrete():
    reports, _, _ = reports_of("void f() { int x = 10 / 2; }")
    assert reports == []


def test_divzero_never_fires_when_range_excludes_zero():
    reports, _, _ = reports_of("""\
void f(int n) {
  if (n <= 0)
    return;
  int x = 100 / n;
}
""")
    assert reports == []


def test_divzero_constrains_divisor_on_the_surviving_path():
    result, _ = analyze("""\
extern int read();
void f() {
  int n = read();
  int x = 100 / n;
}
""")
    leaf = result.graphs["f"].leaves()[0]
    sym = next(s for s in leaf.state.constraints if s.name.startswith("read"))
    assert not leaf.state.range_of(sym).contains(0)


DIVISOR_KNOWN_ZERO = {
    "a symbol": ("int f(int x) { if (x == 0) return 10 / x; return 0; }", 38),
    "a symbol minus a constant": (
        "int f(int x) { if (x == 1) return 10 / (x - 1); return 0; }", 38),
    "a symbol plus a constant": (
        "int f(int x) { int y = x + 2; if (x == -2) return 10 / y; return 0; }", 54),
}


@pytest.mark.parametrize("shape", DIVISOR_KNOWN_ZERO)
def test_divzero_on_a_divisor_known_to_be_zero(shape):
    # the divisor is zero when it cannot be non-zero on the path, whatever
    # its form; a witness of the error node divides by zero in the oracle
    source, column = DIVISOR_KNOWN_ZERO[shape]
    reports, result, fe = reports_of(source)
    assert [(r.message, r.location.column) for r in reports] == [("Division by zero", column)]
    replay_ends(result, fe)


# --- isolation ------------------------------------------------------------------------------

def test_disabling_inner_pointer_keeps_heap_reports_identical():
    source = USE_AFTER_FREE + """
char* also(string& s) {
  char* c = s.c_str();
  s.clear();
  return c;
}
"""
    all_reports, _, _ = reports_of(source)
    heap_only, _, _ = reports_of(source, checkers=["unix.MallocLite"])
    render = lambda rs: [(r.check_name, r.message, str(r.location))
                         for r in rs if r.check_name == "unix.MallocLite"]
    assert render(all_reports) == render(heap_only)
    assert len(all_reports) == 2 and len(heap_only) == 1


def test_inlined_callee_string_dangles_through_reference_param():
    # the pointer escapes the callee through char*&; the callee's string dies
    # at its scope exit, so the later use in the caller must report
    reports, _, _ = reports_of("""\
extern void sink(char* c);
void f() {
  char* c;
  fill(c);
  sink(c);
}
void fill(char*& out) {
  string local;
  out = local.c_str();
}
""")
    assert len(reports) == 1
    assert reports[0].message == "Inner pointer of container used after re/deallocation"
