"""Values and CFG blocks carry no wrapper records. A value's class is its
kind, as the tag of Clang's SVal: a symbolic value is its expression. A
block element is its statement node or a destructor element, and a block
keeps its successors and its branch condition, as Clang's CFGBlock does.
Here every store value of every state of the example and golden-program
graphs, and every block of their CFGs, is checked for those shapes. So is
the store's reaping rule: what a pointer symbol points to dies with it."""

import pytest

from minilang.cfg import build_cfg, ImplicitDtorElement
from minilang.frontend.astnodes import (
    BreakStmt, ContinueStmt, DeleteStmt, ExprStmt, FunctionDecl, ReturnStmt, VarDecl,
)
from minilang.symexec import BlockEdgePoint, CallExitPoint, PostStmtPoint
from minilang.symexec.values import (
    LocVal, region_root, Symbol, SymIntOp, SymRegion, UndefinedVal, UnknownVal,
)

from conftest import analyze, frontend
from test_symbol_identity import SOURCES

VALUE_CLASSES = {int, Symbol, SymIntOp, LocVal, UndefinedVal, UnknownVal}
STATEMENTS = (VarDecl, ExprStmt, ReturnStmt, DeleteStmt, BreakStmt, ContinueStmt)


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_every_store_value_is_one_of_the_value_classes(source):
    result, _ = analyze(source.read_text(encoding="utf-8"), source.name)
    kinds = set()
    for graph in result.graphs.values():
        for node in graph.nodes:
            for val in node.state.store.values():
                assert type(val) in VALUE_CLASSES, (node.seq, val)
                if type(val) is SymIntOp:
                    assert type(val.lhs) in (Symbol, SymIntOp), val
                kinds.add(type(val))
    assert kinds


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_every_block_holds_statements_and_keeps_its_successors(source):
    for fn in frontend(source.read_text(encoding="utf-8"), source.name).unit.decls:
        if not isinstance(fn, FunctionDecl):
            continue
        cfg = build_cfg(fn)
        for block in cfg.blocks:
            for element in block.elements:
                assert isinstance(element, (ImplicitDtorElement, *STATEMENTS)), element
            succs = block.succs
            assert all(0 <= succ < len(cfg.blocks) for succ in succs)
            if not succs:
                assert block.id == cfg.exit and block.cond is None
            elif len(succs) == 1:
                assert block.cond is None
            else:
                assert len(succs) == 2 and block.cond is not None


# The points whose states the engine has reaped: after a statement, on a
# block edge and at CallExit (a `PostStmtPoint` of block -1 is a call's
# checker transition, within its statement).
REAPED = (BlockEdgePoint, PostStmtPoint, CallExitPoint)


def pointee_keys(state) -> list:
    """The store keys that lie under a `SymRegion`."""
    return [r for r in state.store if region_root(r).__class__ is SymRegion]


# Pointer symbols that die: one reassigned, one that only a dead pointer's
# memory holds, and one in a callee's frame.
DYING_POINTERS = """\
struct S { int v; S* next; };
extern S* mk();
void g() { S* q = mk(); q->v = 0; }
int f() {
  S* p = mk();
  p->next = mk();
  p->next->v = 1;
  p = mk();
  g();
  return p->v;
}
"""


@pytest.mark.parametrize("source", [*SOURCES, DYING_POINTERS],
                         ids=lambda p: getattr(p, "stem", "dying_pointers"))
def test_no_store_key_lies_under_a_dead_symbols_memory(source):
    if isinstance(source, str):
        result, _ = analyze(source)
    else:
        result, _ = analyze(source.read_text(encoding="utf-8"), source.name)
    for graph in result.graphs.values():
        for node in graph.nodes:
            if node.point.__class__ in REAPED and getattr(node.point, "block", 0) >= 0:
                # a symbol that no store value holds is dead, or dies in a reap
                live = node.state.live_symbols()
                for region in pointee_keys(node.state):
                    assert region_root(region).sym in live, (node.seq, str(region))


def test_call_exit_keeps_the_callers_pointee_and_drops_the_callees():
    # `r` dies with the callee's frame, and `*$mk2` with it; `*$p` stays
    result, _ = analyze("""\
struct S { int v; };
extern S* mk();
void set(S* q) { q->v = 0; S* r = mk(); r->v = 1; }
int f(S* p) { set(p); return 10 / p->v; }
""")
    graph = result.graphs["f"]
    (exit_node,) = [n for n in graph.nodes if n.point.__class__ is CallExitPoint]
    assert sorted(map(str, pointee_keys(exit_node.pred.state))) == ["*$mk2.v", "*$p.v"]
    assert [str(r) for r in pointee_keys(exit_node.state)] == ["*$p.v"]
    assert [r.message for r in result.reports] == ["Division by zero"]
