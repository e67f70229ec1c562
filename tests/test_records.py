"""The value records (values, regions, points, CFG parts, fix-its, checker
and matcher records) are named tuples or hand-written classes. Tuple
equality ignores the class, so these tests pin the identity rules each
record had as a frozen dataclass: what it compares on, which records of
different classes never compare equal, what its constructor rejects, and
that none of its fields can be assigned."""

import ast
import pathlib

import pytest

from minilang import matchers as M
from minilang.cfg import build_cfg, ImplicitDtorElement
from minilang.checkers import (
    AllocationFamily, CHECKERS, CheckerDescriptor, MALLOC_SLOT, RefState, RefStatus,
)
from minilang.diagnostics import Diagnostic, FixIt, Severity
from minilang.frontend import tokenize
from minilang.frontend.astnodes import FunctionDecl, INT, TypeRef
from minilang.frontend.builtins import STRING_METHODS
from minilang.reporting import VerifyDirective
from minilang.source import InternalError, SourceFile, SourceLocation, SourceRange
from minilang.symexec import (
    BlockEdgePoint, CallEnterPoint, CallExitPoint, ExplodedGraph, FieldRegion,
    LocVal, PostImplicitCallPoint, PostStmtPoint, PreStmtPoint,
    ProgramState, RangeSet, region_type, RetRegion, Symbol,
    SymIntOp, TempRegion, UNDEFINED, UNKNOWN, VarRegion,
)
from minilang.tidy import UsageKind, VarUsage

from conftest import analyze, frontend

FILE = SourceFile("records.mc", "int f(int a) { return a; }\n")
UNIT = frontend(FILE.text).unit
NODE = UNIT.preorder[1]
LOC = FILE.location(4)
# S.x, S.y and T.x: two fields of one struct, and one of another struct that
# shares a name with the first.
S_X, S_Y, T_X = (field for struct in frontend(
    "struct S { int x; int y; };\nstruct T { string x; };\n").unit.decls
    for field in struct.fields)


def symbol(sid: int = 1) -> Symbol:
    return Symbol(sid, "a")


def test_field_region_is_its_parent_and_field_decl():
    parent = VarRegion(NODE, 1)
    region = FieldRegion(parent, S_X)
    again = FieldRegion(parent, S_X)
    assert region == again and not region != again
    assert hash(region) == hash(again)
    assert len({region, again}) == 1
    assert region != FieldRegion(parent, S_Y)
    assert region != FieldRegion(parent, T_X)  # same name, another struct
    assert region != FieldRegion(VarRegion(NODE, 2), S_X)
    assert str(region) == "f.x" and region_type(region) == INT
    assert str(FieldRegion(region, S_Y)) == "f.x.y"


def one_point_of_each_class() -> list:
    return [
        BlockEdgePoint(1, 1, 1),
        PreStmtPoint(1, NODE),
        PostStmtPoint(1, 1, 1, NODE),
        CallEnterPoint(1),
        CallExitPoint(1, 1),
        PostImplicitCallPoint(1, 1, 1, NODE, LOC),
    ]


def test_points_of_different_classes_never_compare_equal():
    points = one_point_of_each_class()
    for i, a in enumerate(points):
        for j, b in enumerate(one_point_of_each_class()):
            assert (a == b) is (i == j), (a, b)
            assert (a != b) is (i != j), (a, b)


def test_engine_records_name_each_fact_once():
    assert Symbol._fields == ("id", "name")
    assert FieldRegion._fields == ("parent", "field")
    assert CallEnterPoint._fields == ("frame",)
    assert PreStmtPoint._fields == ("frame", "node")
    assert PostStmtPoint._fields == ("block", "index", "frame", "node")
    assert PostImplicitCallPoint._fields == ("block", "index", "frame", "var", "loc")
    assert FixIt._fields == ("range", "text")


def test_points_compare_their_node_by_identity():
    twin = UNIT.preorder[2]
    assert PreStmtPoint(1, NODE) == PreStmtPoint(1, NODE)
    assert PreStmtPoint(1, NODE) != PreStmtPoint(1, twin)
    assert PostStmtPoint(1, 1, 1, NODE) != PostStmtPoint(1, 1, 1, twin)


def test_ref_state_origin_keeps_two_released_states_apart():
    # nothing reads `origin`, but it is part of the state's identity
    sym = symbol()
    states = [ProgramState().update_slot(MALLOC_SLOT, {
        sym: RefState.released(AllocationFamily.HEAP, origin)})
        for origin in (NODE, UNIT.preorder[2])]
    assert states[0] != states[1]
    graph = ExplodedGraph()
    added = [graph.add(BlockEdgePoint(1, 1, 1), state, None) for state in states]
    assert all(is_new for _, is_new in added) and len(graph) == 2


def test_each_point_class_gets_its_own_graph_node():
    graph = ExplodedGraph()
    state = ProgramState()
    added = [graph.add(point, state, None) for point in one_point_of_each_class()]
    assert all(is_new for _, is_new in added)
    assert len({id(node) for node, _ in added}) == len(added) == len(graph)
    again = [graph.add(point, state, None) for point in one_point_of_each_class()]
    assert [node for node, _ in again] == [node for node, _ in added]
    assert not any(is_new for _, is_new in again)


def test_field_less_values_are_distinct_singletons():
    singles = [UNDEFINED, UNKNOWN]
    for i, a in enumerate(singles):
        for j, b in enumerate(singles):
            assert (a == b) is (i == j)
        assert a != () and a
    assert len(set(singles)) == 2
    assert [str(v) for v in singles] == ["undef", "unknown"]


def test_symbols_compare_by_identity():
    a, b = symbol(), symbol()
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b}) == 2


def test_values_of_different_kinds_never_compare_equal():
    # every value kind in its plain shape: a symbolic value is its
    # expression, so only arity keeps the tuple kinds apart
    sym = symbol()
    region = VarRegion(NODE, 1)
    expr = next(n for n in UNIT.preorder if n.kind == "DeclRef")
    values = [0, 1, sym, SymIntOp(sym, "+", 1), SymIntOp(sym, "*", 1), LocVal(region),
              LocVal(FieldRegion(region, S_X)), LocVal(TempRegion(expr, 1)),
              UNDEFINED, UNKNOWN]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) is (i == j), (a, b)
            assert (a != b) is (i != j), (a, b)
    assert len(set(values)) == len(values)


def test_regions_of_different_kinds_never_compare_equal():
    # A variable's and a temporary's node differ: a declaration is never an
    # expression.
    expr = next(n for n in UNIT.preorder if n.kind == "DeclRef")
    var = VarRegion(NODE, 1)
    regions = [var, TempRegion(expr, 1), FieldRegion(var, S_X), RetRegion(1)]
    for i, a in enumerate(regions):
        for j, b in enumerate(regions):
            assert (a == b) is (i == j), (a, b)
    assert str(TempRegion(expr, 1)) == "temp(1:23)"


def test_sym_int_op_rejects_other_operators():
    lhs = symbol()
    for op in ("+", "*"):
        assert SymIntOp(lhs, op, 2).op == op
    for op in ("-", "/", "%", "<", ""):
        with pytest.raises(AssertionError):
            SymIntOp(lhs, op, 2)


def test_var_usage_rejects_fields_its_kind_does_not_have():
    VarUsage(UsageKind.NORMAL, NODE)
    VarUsage(UsageKind.DEREF_INIT, NODE, deref_expr=NODE, inited_var=NODE)
    VarUsage(UsageKind.GUARD, NODE, guard_if=NODE)
    for kind, extra in ((UsageKind.NORMAL, {"deref_expr": NODE}),
                        (UsageKind.DEREFERENCE, {}),
                        (UsageKind.DEREFERENCE, {"deref_expr": NODE, "inited_var": NODE}),
                        (UsageKind.GUARD, {}),
                        (UsageKind.NORMAL, {"guard_if": NODE})):
        with pytest.raises(AssertionError):
            VarUsage(kind, NODE, **extra)


def test_diagnostic_rejects_nested_notes_and_overlapping_fixits():
    note = Diagnostic(LOC, "n", Severity.NOTE)
    nested = Diagnostic(LOC, "m", Severity.NOTE, attached_notes=[note])
    with pytest.raises(InternalError, match="nested notes"):
        Diagnostic(LOC, "w", Severity.WARNING, attached_notes=[nested])
    first = FixIt.removal(SourceRange(FILE.location(0), FILE.location(5)))
    second = FixIt.replacement(SourceRange(FILE.location(4), FILE.location(8)), "x")
    with pytest.raises(InternalError, match="overlapping fixits"):
        Diagnostic(LOC, "w", Severity.WARNING, fixits=[first, second])
    touching = FixIt.insertion(FILE.location(5), "y")
    assert Diagnostic(LOC, "w", Severity.WARNING, fixits=[first, touching]).fixits


def test_mutable_records_get_fresh_containers():
    a = Diagnostic(LOC, "a", Severity.WARNING)
    b = Diagnostic(LOC, "b", Severity.WARNING)
    a.fixits.append(FixIt.insertion(LOC, "x"))
    a.attached_notes.append(b)
    assert b.fixits == [] and b.attached_notes == []


def frozen_records() -> list:
    """One instance of every record that was a frozen dataclass."""
    sym = symbol()
    region = VarRegion(NODE, 1)
    matcher = M.varDecl()
    return [
        sym, SymIntOp(sym, "+", 1), UNDEFINED, UNKNOWN,
        LocVal(region), region, FieldRegion(region, S_X),
        RangeSet.full(), *one_point_of_each_class(), ImplicitDtorElement(NODE, LOC),
        FixIt.insertion(LOC, "x"),
        RefState.allocated(AllocationFamily.HEAP, None),
        next(iter(CHECKERS.values())),
        VerifyDirective("expected-warning", 1, "x"),
        TypeRef("int"), STRING_METHODS["c_str"],
        matcher, matcher.bind("v"), M.pointerType(),
        next(iter(M.match(M.functionDecl(), UNIT))),
    ]


def field_names(record) -> list[str]:
    """A named tuple's fields, a slotted class's slots, else a class attribute."""
    if hasattr(record, "_fields"):
        return list(record._fields)
    slots = [name for cls in type(record).__mro__ for name in getattr(cls, "__slots__", ())]
    return slots or ["text"]


def test_no_field_of_a_frozen_record_can_be_assigned():
    for record in frozen_records():
        for name in field_names(record):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_matchers_compare_on_kind_args_and_binding():
    assert M.varDecl() == M.varDecl()
    assert hash(M.varDecl()) == hash(M.varDecl())
    assert M.varDecl() != M.varDecl().bind("v")
    assert M.varDecl().bind("v") == M.varDecl().bind("v")
    assert M.varDecl() != M.ifStmt()
    pointer = M.pointerType()
    bound = pointer.bind("t")
    assert isinstance(bound, M.TypeMatcher) and bound.test is pointer.test
    assert bound != pointer and bound.binding == "t" and pointer.binding is None
    assert repr(M.varDecl(M.hasName("x")).bind("v")) == "varDecl(hasName('x')).bind('v')"


def test_record_constructors_keep_their_keywords_and_defaults():
    assert FieldRegion(parent=VarRegion(NODE, 1), field=S_X).field is S_X
    assert RefState(RefStatus.RELEASED, AllocationFamily.HEAP).origin is None
    assert CheckerDescriptor(object, "help").dependencies == ()
    assert TypeRef("int") == TypeRef(base="int", indirections=0, is_const=False,
                                     is_reference=False)
    assert FixIt.removal(SourceRange(LOC, LOC)).text == ""


# One program that reaches every hot site building a record with
# `tuple.__new__`: tokens, types, locations, matches, the CFG's destructor
# elements, and the engine's points, regions and symbols.
EVERY_RECORD = """\
extern void consume(char* c);
struct S { int v; };
extern S* mk();
extern S make();

int helper(int d) {
  return 10 / d;
}

void g(int a) {
  string s;
  char* c = s.c_str();
  // the loop
  while (a > 0) {
    if (a == 3) { break; }
    a = a - 1;
  }
  int k = 2;
  S* p = mk();
  if (!p) { k = p->v; }
  int r = helper(p->v + k);
  S* q = new S();
  delete q;
  S t;
  t.v = k;
  k = make().v;
  consume(c);
}
"""
HOT_RECORDS = {
    TypeRef, SourceLocation, M.MatchResult, ImplicitDtorElement,
    BlockEdgePoint, PreStmtPoint, PostStmtPoint, CallEnterPoint,
    CallExitPoint, PostImplicitCallPoint, VarRegion, FieldRegion, RetRegion,
    TempRegion, Symbol,
}


def _reachable(*roots):
    """Every object reachable from `roots` through containers and through
    the slots and attributes of the package's own objects."""
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, str, int)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack += obj.keys()
            stack += obj.values()
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack += obj
        elif type(obj).__module__.startswith("minilang."):
            stack += (getattr(obj, name) for cls in type(obj).__mro__
                      for name in getattr(cls, "__slots__", ()) if hasattr(obj, name))
            stack += getattr(obj, "__dict__", {}).values()


def test_records_built_by_the_tuple_constructor_have_every_field():
    """The hot sites build records with `tuple.__new__`, which applies no
    defaults and never counts the fields: a site left behind when a field is
    added would build a short record, which compares and hashes wrongly
    without an error."""
    result, fe = analyze(EVERY_RECORD)
    unit = fe.unit
    functions = [decl for decl in unit.decls if isinstance(decl, FunctionDecl)]
    roots = [tokenize(SourceFile("records.mc", EVERY_RECORD)), unit,
             [node.range for node in unit.preorder],
             [node.name_loc for node in unit.preorder if hasattr(node, "name_loc")],
             M.match(M.varDecl(), unit), [build_cfg(fn) for fn in functions],
             [node for graph in result.graphs.values() for node in graph.nodes]]
    records = [obj for obj in _reachable(*roots) if hasattr(type(obj), "_fields")]
    short = [rec for rec in records if len(rec) != len(type(rec)._fields)]
    assert short == []
    assert HOT_RECORDS <= {type(rec) for rec in records}


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "minilang"
EQUALITY = {"__eq__", "__ne__", "__hash__"}


def _is_named_tuple_base(base: ast.expr, named: set[str]) -> bool:
    if isinstance(base, ast.Call):  # collections.namedtuple(...)
        base = base.func
    name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
    return name in ("NamedTuple", "namedtuple") or name in named


def _targets(node: ast.AST) -> list[ast.expr]:
    """What a statement assigns to, or the name a `def` binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [ast.Name(node.name)]
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def test_only_symbol_defines_named_tuple_equality():
    """Every named tuple under `src/minilang` compares and hashes as the
    tuple it is. `Symbol` alone compares by identity, as Clang's uniqued
    symbols do: a class that defines or assigns `__eq__`, `__ne__` or
    `__hash__`, in its body or from outside, fails this test, also when it
    is a named tuple through a named-tuple base."""
    trees = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    classes = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    named: set[str] = set()
    while True:  # until no class joins through a named-tuple base
        more = {c.name for c in classes
                if any(_is_named_tuple_base(b, named) for b in c.bases)} - named
        if not more:
            break
        named |= more
    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in named:
                found |= {(module, node.name, t.id) for item in node.body
                          for t in _targets(item)
                          if isinstance(t, ast.Name) and t.id in EQUALITY}
            found |= {(module, t.value.id, t.attr) for t in _targets(node)
                      if isinstance(t, ast.Attribute) and t.attr in EQUALITY
                      and isinstance(t.value, ast.Name) and t.value.id in named}
    assert found == {("symexec/values.py", "Symbol", name) for name in EQUALITY}
