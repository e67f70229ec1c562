"""CFG construction: shapes, destructor elements, numbering, dead code."""

import pytest

from minilang.cfg import build_cfg, dump_cfg, ImplicitDtorElement
from minilang.frontend.astnodes import (
    DeleteStmt, ExprStmt, FunctionDecl, ReturnStmt, VarDecl, walk,
)

from conftest import EXPLODED_G, frontend


def cfg_of(source: str, name: str | None = None, std: int = 14):
    fe = frontend(source, std=std)
    fns = [d for d in fe.unit.decls if isinstance(d, FunctionDecl)]
    fn = fns[0] if name is None else next(f for f in fns if f.name == name)
    return build_cfg(fn)


def all_paths(cfg, limit: int = 200):
    """Every entry-to-exit path as a list of block ids (bounded DFS that
    allows each edge at most twice, enough for single-loop fixtures)."""
    paths = []

    def go(block_id, path, seen_edges):
        if block_id == cfg.exit:
            paths.append(path)
            return
        for succ in cfg.block(block_id).succs:
            edge = (block_id, succ)
            if seen_edges.count(edge) >= 2 or len(paths) >= limit:
                continue
            go(succ, path + [succ], seen_edges + [edge])

    go(cfg.entry, [cfg.entry], [])
    return paths


def test_straight_line_body_is_one_block():
    cfg = cfg_of("void f() { int x = 1; x = x + 1; }")
    body_blocks = [b for b in cfg.blocks
                   if b.id not in (cfg.exit,) and b.elements]
    assert len(body_blocks) == 1
    block = body_blocks[0]
    assert block.cond is None and block.succs == [cfg.exit]


def test_diamond_for_if_else():
    cfg = cfg_of(EXPLODED_G)
    branches = [b for b in cfg.blocks if b.cond is not None]
    assert len(branches) == 1
    true_target, false_target = branches[0].succs
    assert true_target != false_target
    true_elems = cfg.block(true_target).elements
    false_elems = cfg.block(false_target).elements
    assert len(true_elems) == 1 and len(false_elems) == 1
    # both assignment arms join before the exit
    assert cfg.block(true_target).succs == cfg.block(false_target).succs


def test_dtor_element_on_return_edge():
    cfg = cfg_of("""\
char* hard(bool cond) {
  string s;
  if (cond)
    return s.c_str();
}
""")
    return_blocks = [
        b for b in cfg.blocks
        if any(isinstance(e, ReturnStmt) for e in b.elements)
    ]
    assert len(return_blocks) == 1
    elements = return_blocks[0].elements
    ret_at = max(i for i, e in enumerate(elements) if isinstance(e, ReturnStmt))
    assert isinstance(elements[ret_at + 1], ImplicitDtorElement)
    assert elements[ret_at + 1].var.name == "s"
    # the destructor is attributed to the return statement's line
    assert elements[ret_at + 1].loc.line == elements[ret_at].range.begin.line


DTOR_SHAPES = [
    """\
void f(bool c) {
  string outer;
  if (c) {
    string inner;
    inner.c_str();
    return;
  }
  outer.c_str();
}
""",
    # an unbraced branch or loop body is a scope of its own
    """\
extern bool g();
void f(bool c) { if (c) string s = "a"; while (g()) string t = "b"; int k = 1; }
""",
    """\
extern bool g();
void f(bool c) {
  string outer;
  if (c) string s = "a"; else string e = "b";
  while (g())
    if (c) string t = "c";
  while (g()) { string u; if (c) break; string v; }
}
""",
]


def test_every_path_runs_each_dtor_exactly_once():
    # on every path, each string's destructor runs as often as its declaration
    for source in DTOR_SHAPES:
        cfg = cfg_of(source)
        paths = all_paths(cfg)
        assert paths
        for path in paths:
            elements = [e for bid in path for e in cfg.block(bid).elements]
            dtors = [e.var.name for e in elements if isinstance(e, ImplicitDtorElement)]
            decls = [e.name for e in elements
                     if isinstance(e, VarDecl) and e.declared_type.base == "string"]
            assert sorted(dtors) == sorted(decls), (source, path)


def test_dtors_in_reverse_declaration_order():
    cfg = cfg_of("void f() { string a; string b; }")
    names = [e.var.name for b in cfg.blocks for e in b.elements
             if isinstance(e, ImplicitDtorElement)]
    assert names == ["b", "a"]


def test_break_and_continue_resolve_to_loop_blocks():
    cfg = cfg_of("""\
int f(int n) {
  int i = 0;
  while (i < n) {
    i = i + 1;
    if (i == 2)
      continue;
    if (i == 5)
      break;
  }
  return i;
}
""")
    # the loop head is a branch; continue jumps back to it, break past it
    heads = [b.id for b in cfg.blocks if b.cond is not None
             and b.cond.parent.kind == "WhileStmt"]
    assert len(heads) == 1
    jumps = [b.succs[0] for b in cfg.blocks if b.cond is None and b.succs]
    assert heads[0] in jumps


def test_every_simple_statement_lands_in_exactly_one_element():
    source = """\
struct T { int x; };
void f(bool c) {
  T* p = new T();
  if (c) { delete p; return; }
  int v = p->x;
  delete p;
}
"""
    fe = frontend(source)
    fn = next(d for d in fe.unit.decls if isinstance(d, FunctionDecl))
    cfg = build_cfg(fn)
    simple = [n for n in walk(fn.body)
              if isinstance(n, (VarDecl, ExprStmt, ReturnStmt, DeleteStmt))]
    placed = [e for b in cfg.blocks for e in b.elements
              if not isinstance(e, ImplicitDtorElement)]
    assert sorted(id(s) for s in simple) == sorted(id(s) for s in placed)


def test_unreachable_code_dropped_with_note():
    cfg = cfg_of("""\
int f() {
  return 1;
  int dead = 2;
}
""")
    assert any("unreachable" in note for note in cfg.notes)
    placed = [e.kind for b in cfg.blocks for e in b.elements
              if not isinstance(e, ImplicitDtorElement)]
    assert "VarDecl" not in placed


def test_a_dropped_block_of_destructors_only_drops_no_code():
    cfg = cfg_of("""\
void g(bool c) { string t = "b"; if (c) { return; } else { return; } }
""")
    assert cfg.notes == []


def test_a_dropped_region_is_noted_once_at_its_first_statement():
    # The `x = 2` block is reached from the dropped `x = 1` join: one region.
    cfg = cfg_of("""\
void g(bool c, int x) {
  if (c) { return; } else { return; }
  x = 1;
  if (c) { x = 2; }
}
""")
    assert cfg.notes == ["input.mc:3:3: note: unreachable code dropped"]
    # A dropped loop after a join that holds no code: the region is noted
    # at the loop's first statement, through the empty join and the head.
    cfg = cfg_of("""\
void h(bool c, int x) {
  if (c) { return; } else { return; }
  while (c) { x = 1; if (c) { x = 2; } }
}
""")
    assert cfg.notes == ["input.mc:3:15: note: unreachable code dropped"]


def test_two_dropped_regions_print_two_notes():
    # The first region, in the loop, spans two blocks; nothing links it to
    # the second, after the loop.
    cfg = cfg_of("""\
void k(bool c, int x) {
  while (c) {
    if (c) { break; } else { continue; }
    x = 1; if (c) { x = 3; }
  }
  if (c) { return; } else { return; }
  x = 2;
}
""")
    assert cfg.notes == ["input.mc:4:5: note: unreachable code dropped",
                         "input.mc:7:3: note: unreachable code dropped"]


def test_dropped_regions_are_noted_in_source_order():
    # The region after the join holds a jump; the code after that jump is
    # a second region, noted after the first.
    cfg = cfg_of("""\
void g(bool c, int x) {
  if (c) { return; } else { return; } x = 1; return; x = 2;
}
""")
    assert cfg.notes == ["input.mc:2:39: note: unreachable code dropped",
                         "input.mc:2:54: note: unreachable code dropped"]


@pytest.mark.parametrize("body, column", [
    ("{ return; string s; } int y = 1;", 13),
    # the dropped `x` falls through into the join, which no kept block reaches
    ("if (c) { return; int x = 1; } else { return; } int y = 2;", 20),
], ids=["scope", "branch"])
def test_code_after_a_jump_and_after_its_scope_is_one_region(body, column):
    cfg = cfg_of(f"void g(bool c) {{\n  {body}\n}}\n")
    assert cfg.notes == [f"input.mc:2:{column}: note: unreachable code dropped"]


@pytest.mark.parametrize("body", ["return; while (c) { }", "return; if (c) { x = 1; }",
                                  "return; { }"])
def test_a_statement_after_a_jump_is_noted_even_with_no_element(body):
    # The loop, the `if` and the block put no element in the block opened
    # after the jump; the note is still at the statement.
    cfg = cfg_of(f"void g(bool c, int x) {{\n  {body}\n}}\n")
    assert cfg.notes == ["input.mc:2:11: note: unreachable code dropped"]


def test_block_numbering_deterministic_and_entry_reaches_all():
    src = """\
void f(int a) {
  if (a > 0) { a = 1; } else { a = 2; }
  while (a < 5)
    a = a + 1;
}
"""
    first, second = cfg_of(src), cfg_of(src)
    assert dump_cfg(first) == dump_cfg(second)
    reachable = set()
    stack = [first.entry]
    while stack:
        bid = stack.pop()
        if bid in reachable:
            continue
        reachable.add(bid)
        stack.extend(first.block(bid).succs)
    assert reachable == {b.id for b in first.blocks}
    assert first.block(first.exit).succs == []


def test_short_circuit_conditions_lower_to_branch_tree():
    cfg = cfg_of("void f(bool a, bool b) { if (a && b) { } }")
    branches = [b for b in cfg.blocks if b.cond is not None]
    assert len(branches) == 2  # one per operand
    for b in branches:
        assert b.cond.kind == "DeclRef"


def test_if_with_initializer_element_precedes_branch(tmp_path):
    cfg = cfg_of("""\
struct T { int v; };
extern T* mk();
void f() {
  if (T* p = mk(); p == 0)
    return;
}
""", std=17)
    entry_elems = cfg.block(cfg.entry).elements
    assert any(isinstance(e, VarDecl) for e in entry_elems)
    assert cfg.block(cfg.entry).cond is not None
