"""Values and CFG blocks carry no wrapper records. A value's class is its
kind, as the tag of Clang's SVal: a symbolic value is its expression. A
block element is its statement node or a destructor element, and a block
keeps its successors and its branch condition, as Clang's CFGBlock does.
Here every store value of every state of the example and golden-program
graphs, and every block of their CFGs, is checked for those shapes."""

import pytest

from minilang.cfg import build_cfg, ImplicitDtorElement
from minilang.frontend.astnodes import (
    BreakStmt, ContinueStmt, DeleteStmt, ExprStmt, FunctionDecl, ReturnStmt, VarDecl,
)
from minilang.symexec.values import LocVal, Symbol, SymIntOp, UndefinedVal, UnknownVal

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
