"""Engine behavior: values, constraints, evaluation, exploration, dumps."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from minilang.cfg import build_cfg
from minilang.checkers import make_checkers
from minilang.frontend.astnodes import TypeRef
from minilang.source import InternalError
from minilang.symexec import (
    AnalysisConfig, as_symbol, assume, assume_relation, BlockEdgePoint,
    dump_dot, Engine, ExplodedGraph, IMAX, IMIN, LocVal, ProgramState, RangeSet,
    region_root, RetRegion, Symbol, SymIntOp, TempRegion, VarRegion,
)
from minilang.symexec.engine import BudgetExhausted

from conftest import analyze, EXPLODED_G, frontend, LOOP_THEN_DIVISION
from engine_paths import (
    error_sinks, judge_probe, leaf_decisions, leaf_witness, replay_ends,
)
from interp_oracle import Instance, run_function
from proggen import generate_function


def fresh_sym(name="s") -> Symbol:
    return Symbol(1, name)


def store_of(node):
    return {str(r): str(v) for r, v in node.state.store.items()}


def constraints_of(node):
    return {str(s): str(rng) for s, rng in node.state.constraints.items()}


# --- range sets -----------------------------------------------------------------

def test_range_set_normalizes_merges_and_sorts():
    rs = RangeSet.of((5, 9), (1, 3), (4, 4))
    assert rs.intervals == ((1, 9),)


def test_range_set_complement_roundtrip():
    rs = RangeSet.of((0, 0))
    comp = rs.complement()
    assert comp.intervals == ((IMIN, -1), (1, IMAX))
    assert comp.complement() == rs


def test_range_set_intersection_closed_and_normalized():
    a = RangeSet.of((0, 10), (20, 30))
    b = RangeSet.of((5, 25))
    assert a.intersect(b).intervals == ((5, 10), (20, 25))


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                max_size=4),
       st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                max_size=4))
@settings(max_examples=200, deadline=None)
def test_range_set_algebra_against_membership(a_iv, b_iv):
    a = RangeSet.of(*[(min(x, y), max(x, y)) for x, y in a_iv])
    b = RangeSet.of(*[(min(x, y), max(x, y)) for x, y in b_iv])
    for v in range(-55, 56):
        assert a.intersect(b).contains(v) == (a.contains(v) and b.contains(v))
        assert a.complement().contains(v) == (not a.contains(v))


# --- assume ----------------------------------------------------------------------

def test_assume_splits_full_range_like_the_figure():
    sym = fresh_sym("b")
    state = ProgramState().bind(VarRegion_stub(), sym)
    eq = assume_relation(state, sym, "==", 0, True)
    assert eq.range_of(sym) == RangeSet.singleton(0)
    ne = assume_relation(state, sym, "==", 0, False)
    assert ne.range_of(sym).intervals == ((IMIN, -1), (1, IMAX))


def VarRegion_stub():
    decl = type("D", (), {"name": "b", "node_id": 0,
                          "declared_type": TypeRef("int")})()
    return VarRegion(decl, 0)


def test_assume_empty_intersection_is_infeasible():
    sym = fresh_sym("x")
    state = ProgramState().bind(VarRegion_stub(), sym)
    state = state.constrain(sym, RangeSet.of((1, 10)))
    assert assume_relation(state, sym, ">", 10, True) is None


def test_assume_supports_symbol_plus_constant():
    sym = fresh_sym("n")
    state = ProgramState().bind(VarRegion_stub(), sym)
    refined = assume_relation(state, SymIntOp(sym, "+", 3), "<", 0, True)
    assert refined.range_of(sym).intervals == ((IMIN, -4),)


def test_chained_assumes_commute():
    relations = [("<", 10), (">", -10), ("!=", 0), ("<=", 5), (">=", -5)]
    for first, second in itertools.permutations(relations, 2):
        sym = fresh_sym("c")
        state = ProgramState().bind(VarRegion_stub(), sym)
        one = assume_relation(state, sym, first[0], first[1], True)
        one = assume_relation(one, sym, second[0], second[1], True)
        other = assume_relation(state, sym, second[0], second[1], True)
        other = assume_relation(other, sym, first[0], first[1], True)
        assert one.range_of(sym) == other.range_of(sym)


def test_assume_true_false_partition_disjoint():
    sym = fresh_sym("p")
    state = ProgramState().bind(VarRegion_stub(), sym)
    yes = assume(state, sym, True)
    no = assume(state, sym, False)
    assert yes.range_of(sym).intersect(no.range_of(sym)).is_empty


# --- evalExpr through fixtures ------------------------------------------------------

def test_store_after_symbol_plus_one_assignment():
    result, _ = analyze(EXPLODED_G)
    leaves = result.graphs["g"].leaves()
    stores = sorted(str(sorted(store_of(l).items())) for l in leaves)
    assert any("'x', '$b+1'" in s for s in stores)
    assert any("'x', '42'" in s for s in stores)


def test_concrete_assignment_binds_concrete_int():
    result, _ = analyze("void f() { int x = 40 + 2; }")
    leaf = result.graphs["f"].leaves()[0]
    assert store_of(leaf)["x"] == "42"


def test_read_of_uninitialized_local_is_undefined():
    fe = frontend("int f() { int x; return x; }")
    engine = Engine(fe.unit)
    result = engine.run()
    leaf = result.graphs["f"].leaves()[0]
    assert str(leaf.state.lookup(RetRegion(1))) == "undef"


# --- branching ------------------------------------------------------------------------

def test_branch_splits_into_two_feasible_successors():
    result, _ = analyze(EXPLODED_G)
    assert len(result.graphs["g"].leaves()) == 2


def test_contradictory_branch_prunes_path():
    result, _ = analyze("void f(int x) { if (x > 0 && x < 0) { x = 1; } }")
    graph = result.graphs["f"]
    # the then-branch is infeasible: x never becomes 1 on any path
    assert all(store_of(n).get("x") != "1" for n in graph.nodes)
    # and the second condition's branch node has a single feasible successor
    second_cond_edges = [n for n in graph.nodes
                         if type(n.point).__name__ == "BlockEdgePoint"
                         and len(n.succs) == 1]
    assert second_cond_edges


def test_nested_branches_leaf_bound_and_witness_replay():
    source = """\
void probe(int a, int b) {
  int v1 = a + 1;
  if (a < 3) { v1 = b; }
  if (b >= 0) { v1 = v1 + 1; } else { v1 = 0; }
  if (v1 == 0) { v1 = 9; }
}
"""
    result, fe = analyze(source)
    fn = fe.unit.functions["probe"]
    cfg = build_cfg(fn)
    graph = result.graphs["probe"]
    leaves = graph.leaves()
    assert len(leaves) <= 2 ** 3
    for leaf in leaves:
        witness = leaf_witness(leaf, ["a", "b"])
        replay = run_function(fe.unit, "probe", (witness["a"], witness["b"]))
        assert replay.error is None
        assert replay.branch_trace == leaf_decisions(leaf, cfg)


def test_generated_conditions_through_bool_locals_replay_and_enumerate():
    # the judge of acceptance criterion 10, with each `if` testing a `bool`
    # local that holds the comparison, or its negation under a `!`
    for seed in range(100, 200):
        judge_probe(generate_function(seed, bool_locals=True), f"bool{seed}")


# --- evaluator shapes, judged by the oracle -----------------------------------------------

EVALUATOR_SHAPES = {
    "&& and || with a known left side": """\
int f(int a) {
  int k = 1;
  bool t = k == 1 && k + 1 == 2;
  bool u = k == 0 && (k = 5) == 5;
  bool v = k == 1 || (k = 6) == 6;
  bool w = k == 0 || k == 1;
  int r = 0;
  if (t) r = r + 1;
  if (u) r = r + 2;
  if (v) r = r + 4;
  if (w) r = r + 8;
  return r * 10 + k + a * 0;
}
""",
    "&& and || with an unknown left side": """\
int f(int a) {
  bool b = a > 0 && a < 5;
  bool c = a < 0 || a == 3;
  return a * 2 + 1;
}
""",
    "! on a pointer and on a value": """\
int f(int a) {
  int x = a;
  int* p = &x;
  bool b = !p;
  bool n = !(1 > 2);
  if (b) return 1;
  if (n) return *p + 1;
  return 0;
}
""",
    "the comma operator": """\
int f(int a) {
  int r = (a = a + 2, a * 3);
  return r;
}
""",
    "comparisons as values": """\
int f(int a) {
  bool lt = 2 < 3;
  bool ge = a >= 0;
  if (lt) return a - 7;
  return 0;
}
""",
    "int - sym and sym * k": """\
int f(int a) {
  int y = 10 - a;
  int z = y * 3;
  return 2 * z + a * 0;
}
""",
    "pointers compared with null and with each other": """\
int f(int a) {
  int x = a;
  int y = a;
  if (&x == &y) return 1;
  if (&x == 0) return 2;
  if (0 != &y) return x - 3;
  return 4;
}
""",
    "a parenthesised condition": """\
int f(int a) {
  if ((a > 2)) return 1;
  if (!((a < -2))) return 2;
  return 3;
}
""",
    "an unreachable block": """\
int f(int a) {
  if (a > 0) return 1; else return 2;
  int y = 0;
  return y;
}
""",
}


@pytest.mark.parametrize("shape", EVALUATOR_SHAPES)
def test_evaluator_shapes_replay_in_the_oracle(shape):
    result, fe = analyze(EVALUATOR_SHAPES[shape])
    replay_ends(result, fe)
    assert result.reports == []
    dropped = ["input.mc:3:3: note: unreachable code dropped"]
    assert result.notes == (dropped if shape == "an unreachable block" else [])


@pytest.mark.parametrize("init", [
    "a > 0 && (k = 5) == 5",
    "a <= 0 || (k = 5) == 5",
    "(a > 0) && (k = 5) == 5",
    "!(a > 0) && (k = 5) == 5",
    "!(a <= 0) || (k = 5) == 5",
])
def test_an_unknown_left_side_of_and_skips_the_right_side_on_some_path(init):
    result, fe = analyze(f"""\
int f(int a) {{
  int k = 1;
  bool u = {init};
  return k;
}}
""")
    replay_ends(result, fe)


# A comparison is a value: a `bool` local, a return value or `!` carries it to
# the branch that decides it. Each shape gives its number of reports.
COMPARISON_VALUES = {
    "a bool local": (
        "int f(int x) { bool z = x == 0; if (z) return 10 / x; return 0; }", 1),
    "an inlined bool function": (
        "bool small(int x) { return x < 1; }\n"
        "int f(int x) { if (small(x)) { if (x > -1) return 10 / x; } return 0; }", 1),
    "a negated comparison in a bool local": (
        "int f(int x) { bool nz = !(x == 0); if (nz) return 1; return 10 / x; }", 1),
    "a negated test of a bool local": (
        "int f(int x) { bool z = x == 0; if (!z) return 10 / x; return 0; }", 0),
    "a constant on the left": (
        "int f(int x) { if (3 > x) { if (x > 1) return 10 / (x - 2); } return 0; }", 1),
    "a location compared with itself": (
        "int f(int x) { int y = 0; int* p = &y; bool same = p == &y; "
        "if (!same) return x; return 10 / y; }", 1),
}


@pytest.mark.parametrize("shape", COMPARISON_VALUES)
def test_a_comparison_kept_as_a_value_decides_the_branch_that_tests_it(shape):
    source, reports = COMPARISON_VALUES[shape]
    result, fe = analyze(source + "\n")
    replay_ends(result, fe)  # each report's error node is a sink replayed here
    assert [r.message for r in result.reports] == ["Division by zero"] * reports


def test_a_null_test_kept_in_a_bool_local_ends_in_the_null_dereference_note():
    result, fe = analyze("""\
struct S { int v; };
int f(S* p) { bool isnull = p == 0; if (isnull) return p->v; return 0; }
""")
    assert result.notes == ["input.mc:2:56: note: null dereference, path terminated"]
    (sink,) = error_sinks(result)
    assert leaf_witness(sink, ["p"]) == {"p": 0}
    replay = run_function(fe.unit, "f", (None,))  # the oracle's null
    assert replay.error == "null dereference"
    assert replay.branch_trace == leaf_decisions(sink, build_cfg(fe.unit.functions["f"]))


def test_assume_on_a_location_decides_its_truth():
    state = ProgramState()
    live = LocVal(VarRegion_stub())
    assert assume(state, live, True) is state
    assert assume(state, live, False) is None


# --- calls -----------------------------------------------------------------------------

def test_two_extern_calls_conjure_distinct_symbols():
    result, _ = analyze("""\
extern int f();
void g() { int a = f(); int b = f(); }
""")
    leaf = result.graphs["g"].leaves()[0]
    store = store_of(leaf)
    assert store["a"] != store["b"]


def test_const_reference_argument_untouched():
    result, _ = analyze("""\
extern void look(const int& r);
void g() { int x = 7; look(x); }
""")
    leaf = result.graphs["g"].leaves()[0]
    assert store_of(leaf)["x"] == "7"


def test_non_const_pointer_argument_invalidates_pointee_fields():
    result, _ = analyze("""\
struct S { int field; };
extern void h(S* p);
void g() { S s; s.field = 7; h(&s); int y = s.field; }
""")
    leaf = result.graphs["g"].leaves()[0]
    store = store_of(leaf)
    assert store["s.field"] != "7"


def test_inline_identity_call_returns_argument():
    result, _ = analyze("""\
int id(int a) { return a; }
void g() { int r = id(3); }
""")
    graph = result.graphs["g"]
    leaf = graph.leaves()[0]
    assert store_of(leaf)["r"] == "3"


def test_inline_reference_param_mutation_visible_in_caller():
    result, _ = analyze("""\
void set(int& r) { r = 5; }
void g() { int x = 1; set(x); }
""")
    leaf = result.graphs["g"].leaves()[0]
    assert store_of(leaf)["x"] == "5"


def test_recursion_beyond_budget_falls_back_to_conservative():
    result, _ = analyze("""\
int down(int n) {
  if (n <= 0)
    return 0;
  return down(n - 1);
}
void g() { int r = down(9); }
""", config=AnalysisConfig(inline_depth=5))
    leaf_stores = [store_of(l) for l in result.graphs["g"].leaves()]
    assert any(s.get("r", "").startswith("$down") for s in leaf_stores)


def test_inlined_helper_not_reanalyzed_as_top_level():
    result, _ = analyze("""\
void main_like() { int r = helper(); }
int helper() { return 1; }
""")
    assert sorted(result.graphs) == ["main_like"]


def test_call_enter_and_exit_points_present():
    result, _ = analyze("""\
void g() { int r = id(3); }
int id(int a) { return a; }
""")
    kinds = {type(n.point).__name__ for n in result.graphs["g"].nodes}
    assert "CallEnterPoint" in kinds and "CallExitPoint" in kinds


def test_engine_writes_no_state_slot_and_each_call_counts_its_own_loops():
    # Loop counts ride on the path: the data map holds only checker slots.
    # The callee's loop runs 3 times per call; with a count shared across
    # calls the second call would pass the unroll limit of 4.
    fe = frontend("""\
extern bool g();
struct S { int x; };
int count(int n) {
  int i = 0;
  while (i < n)
    i = i + 1;
  return i;
}
int f() {
  S* p = new S();
  string s;
  char* c = s.c_str();
  while (g()) { s.clear(); }
  delete p;
  int a = count(3);
  int b = count(3);
  return a + b;
}
""")
    engine = Engine(fe.unit, AnalysisConfig(unroll=4), make_checkers(None))
    result = engine.run()
    declared = {key for c in engine.checkers for key in getattr(c, "state_slots", ())}
    nodes = result.graphs["f"].nodes
    assert any(n.state.gdm for n in nodes)  # the checkers did write their slots
    assert all(set(n.state.gdm) <= declared for n in nodes)
    exits = [n for n in result.graphs["f"].leaves()
             if n.state.lookup(RetRegion(n.point.frame)) is not None]
    # 6: each call counted its own loop from zero
    assert {str(n.state.lookup(RetRegion(n.point.frame))) for n in exits} == {"6"}
    for leaf in exits:
        callee_counts = sorted(count for (_, _, frame), count in leaf.loops.items()
                               if frame != leaf.point.frame)
        assert callee_counts == []  # CallExit dropped them with the frame


def test_call_exit_leaves_nothing_of_the_callee_frame():
    # Variables, a struct field, the return slot and the back-edge counts of
    # each inlined frame, nested calls included, end at its CallExit.
    result, _ = analyze("""\
struct S { int x; };
int inner(int n) {
  int i = 0;
  while (i < n)
    i = i + 1;
  return i;
}
int count(int n) {
  S s;
  s.x = inner(n);
  int j = 0;
  while (j < 2)
    j = j + 1;
  return s.x + j;
}
int f() {
  int a = count(2);
  int b = count(1);
  return a + b;
}
""")
    nodes = result.graphs["f"].nodes
    top = nodes[0].point.frame
    (leaf,) = result.graphs["f"].leaves()
    assert leaf.state.lookup(RetRegion(top)) == 7
    assert sum(type(n.point).__name__ == "CallExitPoint" for n in nodes) == 4
    callee_frames = {region_root(r).frame for n in nodes for r in n.state.store} - {top}
    assert len(callee_frames) == 4
    for node in nodes:
        if node.point.frame == top:
            assert {region_root(r).frame for r in node.state.store} <= {top}
            assert {frame for _, _, frame in node.loops} <= {top}


# --- lvalues: one evaluator ------------------------------------------------------------

# Each shape resolves an lvalue whose base, or whose whole, is an rvalue: a
# call under `.`, `&` or a reference parameter, and a quotient bound to a
# const reference. `{D}` is the divisor that reaches a division.
TEMPORARY_PRELUDE = """\
struct S { int v; string s; };
S mk(int d) { S s; s.v = 10 / d; s.s = "k"; return s; }
int d(int x) { return 10 / x; }
void h(int& r) { r = r + 1; }
void k(const int& r) { }
"""
TEMPORARY_SHAPES = {
    "return_field_of_call": "return mk({D}).v;",
    "condition_on_field_of_call": "if (mk({D}).v > 0) { return 1; } return 0;",
    "address_of_field_of_call": "int* q = &mk({D}).v; return 0;",
    "reference_to_field_of_call": "h(mk({D}).v); return 0;",
    "const_reference_to_call": "k(d({D})); return 0;",
    "const_reference_to_quotient": "int z = {D}; k(10 / z); return 0;",
    "method_on_field_of_call": "char* c = mk({D}).s.c_str(); return 0;",
}


@pytest.mark.parametrize("body", TEMPORARY_SHAPES.values(), ids=TEMPORARY_SHAPES.keys())
def test_an_rvalue_resolved_as_an_lvalue_is_evaluated(body):
    # The engine reports a division by zero exactly when the oracle's run
    # ends in one.
    for divisor in (0, 1):
        source = TEMPORARY_PRELUDE + "int f() { " + body.replace("{D}", str(divisor)) + " }\n"
        result, fe = analyze(source)
        error = run_function(fe.unit, "f").error
        assert error == ("division by zero" if divisor == 0 else None)
        reported = [r.message for r in result.reports] == ["Division by zero"]
        assert reported == (error == "division by zero"), (divisor, result.reports)


def temp_frames(node):
    return {r.frame for r in map(region_root, node.state.store) if isinstance(r, TempRegion)}


def test_a_temporary_lives_until_its_frame_ends():
    result, _ = analyze("""\
struct S { int v; };
S mk(int d) { S s; s.v = d; return s; }
int get(int d) { return mk(d).v; }
int f() {
  int a = get(1);
  int* q = &mk(2).v;
  return a;
}
""")
    graph = result.graphs["f"]
    top = graph.nodes[0].point.frame
    assert len({frame for n in graph.nodes for frame in temp_frames(n)}) == 2
    assert all(temp_frames(n) <= {top} for n in graph.nodes if n.point.frame == top)
    (leaf,) = graph.leaves()
    assert temp_frames(leaf) == {top}
    assert store_of(leaf)["q"] == "&temp(6:13).v"


def test_a_temporary_evaluated_again_drops_its_old_fields():
    result, _ = analyze("""\
struct S { int v; };
extern S ext();
void f() {
  int i = 0;
  int a = 0;
  int b = 0;
  while (i < 2) { b = a; a = ext().v; i = i + 1; }
}
""")
    (leaf,) = result.graphs["f"].leaves()
    store = store_of(leaf)
    assert store["a"] != store["b"] and store["b"].startswith("$")


class UseRecorder:
    """A checker that records the kind of every use the engine reports."""

    def __init__(self):
        self.kinds = []

    def check_use(self, ctx, node, val, kind):
        self.kinds.append(kind)


@pytest.mark.parametrize("stmt", ["int* q = &p->v;", "h(p->v);", "int* q = &(*p).v;"])
def test_address_and_reference_binding_through_a_freed_pointer_are_no_access(stmt):
    fe = frontend("struct S { int v; };\nextern void h(int& r);\n"
                  f"void f() {{ S* p = new S(); delete p; {stmt} }}\n")
    recorder = UseRecorder()
    result = Engine(fe.unit, None, make_checkers() + [recorder]).run()
    assert result.reports == []
    assert "deref" not in recorder.kinds


# --- memory behind a pointer symbol ---------------------------------------------------

POINTEE_PRELUDE = """\
struct S { int v; };
extern S* mk();
extern void fill(S* p);
extern void peek(const S* p);
"""


def pointee_store(node):
    """The bindings of what pointer symbols point to."""
    return {r: v for r, v in store_of(node).items() if r.startswith("*")}


def test_a_field_read_twice_through_an_externs_result_keeps_its_constraint():
    result, fe = analyze(POINTEE_PRELUDE + """\
int f() { S* q = mk(); if (q->v == 0) { return 10 / q->v; } return 0; }
""")
    replay = run_function(fe.unit, "f", externs={"mk": lambda args: Instance("S", {"v": 0})})
    assert replay.error == "division by zero"
    assert [r.message for r in result.reports] == ["Division by zero"]


POINTEE_SHAPES = {
    "field_through_a_parameter":
        "int f(S* p) { if (p->v == 0) { return 10 / p->v; } return 0; }",
    "int_through_a_parameter":
        "int f(int* p) { if (*p == 0) { return 10 / *p; } return 0; }",
    "two_symbols_never_alias":
        "int f(S* p, S* r) { p->v = 0; r->v = 1; return 10 / p->v; }",
    "written_by_an_inlined_callee":
        "void set(S* q) { q->v = 0; }\nint f(S* p) { set(p); return 10 / p->v; }",
    "kept_by_a_const_pointer_argument":
        "int f(S* p) { p->v = 0; peek(p); return 10 / p->v; }",
}


@pytest.mark.parametrize("fn", POINTEE_SHAPES.values(), ids=POINTEE_SHAPES.keys())
def test_memory_behind_a_pointer_symbol_keeps_what_was_read_or_written(fn):
    result, _ = analyze(POINTEE_PRELUDE + fn + "\n")
    assert [r.message for r in result.reports] == ["Division by zero"]


def test_a_call_through_a_non_const_pointer_rebinds_what_it_points_to():
    result, _ = analyze(POINTEE_PRELUDE +
                        "int f(S* p) { p->v = 0; fill(p); return 10 / p->v; }\n")
    assert result.reports == []
    (leaf,) = result.graphs["f"].leaves()
    assert pointee_store(leaf) == {"*$p.v": "$c2"}  # and no new binding of `*$p`


def test_a_reassigned_pointer_reads_the_new_memory_and_the_old_dies():
    result, _ = analyze(POINTEE_PRELUDE +
                        "int f() { S* q = mk(); q->v = 0; q = mk(); return 10 / q->v; }\n")
    assert result.reports == []
    (leaf,) = result.graphs["f"].leaves()
    assert pointee_store(leaf) == {"*$mk2.v": "$c3"}


def test_a_pointer_into_a_symbols_memory_keeps_the_symbol_alive():
    result, fe = analyze(POINTEE_PRELUDE + """\
int f() { S* p = mk(); p->v = 0; int* r = &p->v; p = mk(); return 10 / *r; }
""")
    replay = run_function(fe.unit, "f", externs={"mk": lambda args: Instance("S")})
    assert replay.error == "division by zero"
    assert [r.message for r in result.reports] == ["Division by zero"]


def test_a_write_through_a_heap_pointer_is_read_back():
    result, fe = analyze("""\
struct S { int v; };
int f() { S* p = new S(); p->v = 0; return 10 / p->v; }
""")
    assert run_function(fe.unit, "f").error == "division by zero"
    assert [r.message for r in result.reports] == ["Division by zero"]


# Known defects: each test holds the engine to the oracle's verdict and fails
# until the defect is mended.

@pytest.mark.xfail(strict=True, reason="struct fields written in an inlined callee "
                   "are lost at CallExit")
def test_struct_fields_written_in_an_inlined_callee_survive_call_exit():
    result, fe = analyze("""\
struct S { int v; };
S mk() { S s; s.v = 0; return s; }
int f() { S t = mk(); return 10 / t.v; }
""")
    assert run_function(fe.unit, "f").error == "division by zero"
    assert [r.message for r in result.reports] == ["Division by zero"]


@pytest.mark.xfail(strict=True, reason="a struct passed by value to an inlined callee "
                   "loses its fields at CallEnter")
def test_struct_fields_passed_by_value_to_an_inlined_callee_survive_call_enter():
    result, fe = analyze("""\
struct S { int v; };
int g(S t) { return 10 / t.v; }
int f() { S s; s.v = 0; return g(s); }
""")
    assert run_function(fe.unit, "f").error == "division by zero"
    assert [r.message for r in result.reports] == ["Division by zero"]


# --- loops and budgets --------------------------------------------------------------------

def test_loop_fully_executes_within_unroll():
    result, fe = analyze("""\
int f() {
  int i = 0;
  while (i < 3)
    i = i + 1;
  return i;
}
""")
    leaves = result.graphs["f"].leaves()
    assert len(leaves) == 1
    assert store_of(leaves[0])["i"] == "3"
    replay = run_function(fe.unit, "f")
    assert replay.ret == 3


def test_unbounded_loop_hits_unroll_limit_with_note():
    result, _ = analyze("""\
void f(int n) {
  int i = 0;
  while (i < n)
    i = i + 1;
}
""", config=AnalysisConfig(unroll=4))
    assert any("unroll" in note for note in result.notes)
    edges = [n.point for n in result.graphs["f"].nodes
             if type(n.point).__name__ == "BlockEdgePoint"]
    back = [p for p in edges if p.src >= 0 and p.dst <= p.src]
    assert back  # the loop back edge was explored, but boundedly


def test_paths_that_differ_only_in_loop_counts_merge():
    # Every trip count leaves the same state behind, so the paths meet again
    # after the loop and the unroll limit is never reached.
    result, _ = analyze("""\
extern bool g();
void f() { int i = 0; while (g()) i = 1; i = 0; int y = 1; }
""")
    graph = result.graphs["f"]
    assert len(graph) == 12
    (leaf,) = graph.leaves()
    assert store_of(leaf) == {"i": "0", "y": "1"}
    assert not any("unroll" in note for note in result.notes)


def test_a_loop_doubles_the_error_paths_after_it_once_per_outcome():
    # `done` leaves the loop false or true; each branch path after it ends in
    # an error sink once per outcome, however often the loop went round. All
    # of them are one division by zero, so each program has one report.
    looped, _ = analyze(LOOP_THEN_DIVISION)
    twin, _ = analyze(LOOP_THEN_DIVISION.replace("  while (g())\n    done = true;\n", ""))
    assert len(error_sinks(twin)) == 6
    assert len(error_sinks(looped)) == 2 * len(error_sinks(twin))
    assert len(twin.reports) == len(looped.reports) == 1


LOOP_PROGRAMS = {
    "counting": """\
int f(int n) {
  int i = 0;
  while (i < n)
    i = i + 1;
  return i;
}
""",
    "extern condition": """\
extern bool more();
int f() {
  int i = 0;
  while (more())
    i = i + 2;
  return i;
}
""",
    "break": """\
int f(int n) {
  int i = 0;
  while (i < 100) {
    if (i == n)
      break;
    i = i + 1;
  }
  return i;
}
""",
}


@pytest.mark.parametrize("name", LOOP_PROGRAMS)
def test_loop_leaves_replay_in_the_oracle(name):
    unroll = 4
    result, fe = analyze(LOOP_PROGRAMS[name], config=AnalysisConfig(unroll=unroll))
    fn = fe.unit.functions["f"]
    params = [p.name for p in fn.params]
    cfg = build_cfg(fn)
    returned = []  # (leaf, its range for n, its return value)
    for leaf in result.graphs["f"].leaves():
        ret = leaf.state.lookup(RetRegion(leaf.point.frame))
        if ret is None:
            continue  # a path the unroll limit abandoned
        assert ret.__class__ is int
        decisions = leaf_decisions(leaf, cfg)
        truths = iter([truth for _, truth in decisions])  # the model of `more`
        witness = leaf_witness(leaf, params)
        replay = run_function(fe.unit, "f", tuple(witness[p] for p in params),
                              {"more": lambda args: next(truths)})
        assert replay.error is None
        assert replay.ret == ret
        assert replay.branch_trace == decisions
        by_name = {sym.name: rng for sym, rng in leaf.state.constraints.items()}
        returned.append((by_name.get("n", RangeSet.full()), ret))
    assert len(returned) == unroll + 1  # one per trip count the limit allows
    low = {"counting": -2, "extern condition": None, "break": 0}[name]
    if low is not None:
        for n in range(low, unroll + 1):
            (ret,) = [value for rng, value in returned if rng.contains(n)]
            assert run_function(fe.unit, "f", (n,)).ret == ret == max(n, 0)


def test_node_budget_is_a_hard_cap():
    result, _ = analyze("""\
void f(int a, int b, int c, int d) {
  int x = 0;
  if (a > 0) { x = 1; } else { x = 2; }
  if (b > 0) { x = 3; } else { x = 4; }
  if (c > 0) { x = 5; } else { x = 6; }
  if (d > 0) { x = 7; } else { x = 8; }
}
""", config=AnalysisConfig(node_budget=20))
    assert len(result.graphs["f"]) <= 20
    assert any("node budget" in note for note in result.notes)


def test_a_budget_spent_in_an_inlined_callee_is_noted_for_the_top_level_function():
    result, _ = analyze("""\
int f(int a, int b, int c, int d) { return g(a, b, c, d); }
int g(int a, int b, int c, int d) {
  int x = 0;
  if (a > 0) { x = 1; } else { x = 2; }
  if (b > 0) { x = 3; } else { x = 4; }
  if (c > 0) { x = 5; } else { x = 6; }
  if (d > 0) { x = 7; } else { x = 8; }
  return x;
}
void h(int a) { if (a > 0) { a = 1; } }
""", config=AnalysisConfig(node_budget=20))
    assert result.notes == ["f: note: node budget exhausted, paths abandoned"]
    assert list(result.graphs) == ["f", "h"]
    assert len(result.graphs["f"]) == 20
    assert len(result.graphs["h"].leaves()) == 2


def test_a_node_past_the_budget_leaves_the_graph_as_it_was():
    graph = ExplodedGraph(budget=2)
    root, _ = graph.add(BlockEdgePoint(-1, 0, 1), ProgramState(), None)
    second, _ = graph.add(BlockEdgePoint(0, 1, 1), ProgramState(), root)
    for _ in range(2):  # the same point and state again: still past the budget
        with pytest.raises(BudgetExhausted):
            graph.add(BlockEdgePoint(1, 2, 1), ProgramState(), second)
        assert list(graph._index.values()) == graph.nodes == [root, second]
        assert second.succs == []
    # a node already in the graph is found at the budget, and not linked twice
    assert graph.add(BlockEdgePoint(0, 1, 1), ProgramState(), root) == (second, False)
    assert root.succs == [second]


# --- state plumbing ---------------------------------------------------------------------

def test_state_immutability_under_every_operation():
    sym = fresh_sym("s")
    region = VarRegion_stub()
    state = (ProgramState().bind(region, sym)
             .constrain(sym, RangeSet.of((1, 9))).update_slot("k", {sym: 1})
             .bind(RetRegion(0), sym).update_slot("edges", {(2, 1, 0): 1}))

    def snapshot():
        return (dict(state.store), dict(state.constraints), dict(state.gdm),
                hash(state))

    before = snapshot()
    state.bind(region, 1)
    state.bind_many({region: 2})
    state.unbind_where(lambda r: True)
    state.constrain(sym, RangeSet.of((0, 5)))
    state.drop_constraints([sym])
    state.update_slot("k", {"a": 1})
    state.update_slot("k", {sym: 2})
    state.update_slot("k", {sym: None})
    state.bind(RetRegion(0), 2)
    state.update_slot("edges", {(2, 1, 0): 2})
    assert snapshot() == before


def test_slot_set_get_roundtrip_and_persistence():
    state = ProgramState()
    sym = fresh_sym("s")
    updated = state.update_slot("checker.key", {sym: "tracked"})
    assert updated.slot("checker.key") == {sym: "tracked"}
    assert state.slot("checker.key") == {}
    assert updated.update_slot("checker.key", {sym: None}) == state


def test_two_checker_slots_are_independent():
    state = ProgramState()
    one = state.update_slot("first", {"a": 1})
    both = one.update_slot("second", {"b": 2})
    assert both.slot("first") == {"a": 1}
    assert both.slot("second") == {"b": 2}
    only_second = both.update_slot("first", {"a": None})
    assert only_second.slot("first") == {} and only_second.slot("second") == {"b": 2}
    assert "first" not in only_second.gdm  # an emptied slot is dropped


def test_duplicate_state_slot_is_a_configuration_error():
    class A:
        state_slots = ("dup.key",)

    class B:
        state_slots = ("dup.key",)

    fe = frontend("void f() { }")
    with pytest.raises(InternalError):
        Engine(fe.unit, checkers=[A(), B()])


def test_dead_symbol_constraints_reaped():
    result, _ = analyze(EXPLODED_G)
    for leaf in result.graphs["g"].leaves():
        names = {sym.name for sym in leaf.state.constraints}
        assert "x" not in names  # $x died when both branches rebound x


def test_conjured_symbol_ids_unique_per_analysis():
    fe = frontend("""\
extern int f();
void g() { int a = f(); int b = f(); int c = f(); }
""")
    engine = Engine(fe.unit)
    result = engine.run()
    ids = []
    for node in result.graphs["g"].nodes:
        for val in node.state.store.values():
            sym = as_symbol(val)
            if sym is not None and sym.name.startswith("f"):
                ids.append((sym.id, sym.name))
    by_name = {}
    for sid, name in ids:
        by_name.setdefault(name, set()).add(sid)
    for name, sids in by_name.items():
        assert len(sids) == 1  # one id per conjured value, never reissued


# --- dumps ------------------------------------------------------------------------------

def _check_dot(text: str):
    """Tiny DOT well-formedness check: one digraph, balanced braces, and
    every statement is a node, an edge, or an attribute default."""
    import re
    assert text.startswith("digraph ")
    assert text.count("{") == text.count("}")
    body = text[text.index("{") + 1:text.rindex("}")]
    for raw in body.splitlines():
        line = raw.strip()
        if not line:
            continue
        assert re.match(
            r"^(node \[.*\];|n\d+ \[label=\".*\"\];|n\d+ -> n\d+;)$", line), line


def test_dump_contains_both_figure_leaf_labels():
    result, _ = analyze(EXPLODED_G)
    dot = dump_dot(result.graphs["g"], "g")
    assert "x: 42" in dot and "$b : [0, 0]" in dot
    assert "x: $b+1" in dot and "$b : [IMIN, -1] ∪ [1, IMAX]" in dot


def test_empty_function_dumps_two_nodes():
    result, _ = analyze("void empty() { }")
    graph = result.graphs["empty"]
    assert len(graph) == 2
    _check_dot(dump_dot(graph, "empty"))


def test_dump_is_wellformed_dot():
    result, _ = analyze(EXPLODED_G)
    _check_dot(dump_dot(result.graphs["g"], "g"))


def test_struct_assignment_copies_known_fields():
    result, _ = analyze("""\
struct P { int x; };
void f() {
  P a;
  a.x = 5;
  P b;
  b.x = 9;
  b = a;
  int v = b.x;
}
""")
    leaf = result.graphs["f"].leaves()[0]
    assert store_of(leaf)["v"] == "5"


def test_write_through_pointer_to_local_struct():
    result, _ = analyze("""\
struct S { int x; };
void f() {
  S s;
  S* p = &s;
  p->x = 7;
  int v = s.x;
}
""")
    leaf = result.graphs["f"].leaves()[0]
    assert store_of(leaf)["v"] == "7"


def test_per_statement_values_do_not_split_post_statement_nodes():
    # The two paths evaluate `x` to 1 and to 2 inside `x = x * 0;` but leave
    # equal stores and constraints behind: they reach one post-statement node.
    result, _ = analyze("""\
extern int g();
void f() {
  int x = 0;
  if (g() > 0) { x = 1; } else { x = 2; }
  x = x * 0;
  int y = x;
}
""")
    graph = result.graphs["f"]
    merged = [n for n in graph.nodes
              if type(n.point).__name__ == "PostStmtPoint"
              and n.point.node.kind == "ExprStmt" and store_of(n) == {"x": "0"}]
    assert len(merged) == 1
    assert sum(merged[0] in n.succs for n in graph.nodes) == 2
    assert len(graph.leaves()) == 1


def test_storing_empty_range_is_an_internal_error():
    sym = fresh_sym("e")
    state = ProgramState()
    with pytest.raises(InternalError):
        state.constrain(sym, RangeSet.of())


def test_full_range_constraint_is_canonically_absent():
    sym = fresh_sym("f")
    state = ProgramState().constrain(sym, RangeSet.of((0, 5)))
    widened = state.constrain(sym, RangeSet.full())
    assert sym not in widened.constraints


def test_add_transition_twice_in_one_callback_is_an_error():
    from minilang.symexec.engine import CheckerContext

    ctx = CheckerContext(ProgramState())
    ctx.add_transition(ProgramState().update_slot("k", {"a": 1}))
    with pytest.raises(InternalError):
        ctx.add_transition(ProgramState())
