"""CFG construction: shapes, destructor elements, numbering, dead code."""

from minilang.cfg import (
    Branch, build_cfg, dump_cfg, ImplicitDtorElement, Jump, StmtElement,
)
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
        for succ in cfg.block(block_id).successors():
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
    term = body_blocks[0].terminator
    assert isinstance(term, Jump) and term.target == cfg.exit


def test_diamond_for_if_else():
    cfg = cfg_of(EXPLODED_G)
    branches = [b for b in cfg.blocks if isinstance(b.terminator, Branch)]
    assert len(branches) == 1
    t = branches[0].terminator
    assert t.true_target != t.false_target
    true_elems = cfg.block(t.true_target).elements
    false_elems = cfg.block(t.false_target).elements
    assert len(true_elems) == 1 and len(false_elems) == 1
    # both assignment arms join before the exit
    assert cfg.block(t.true_target).successors() == cfg.block(t.false_target).successors()


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
        if any(isinstance(e, StmtElement) and isinstance(e.stmt, ReturnStmt)
               for e in b.elements)
    ]
    assert len(return_blocks) == 1
    elements = return_blocks[0].elements
    kinds = [type(e).__name__ for e in elements]
    ret_at = kinds.index("StmtElement") if not isinstance(
        elements[0], StmtElement) else max(
        i for i, e in enumerate(elements)
        if isinstance(e, StmtElement) and isinstance(e.stmt, ReturnStmt))
    assert isinstance(elements[ret_at + 1], ImplicitDtorElement)
    assert elements[ret_at + 1].var.name == "s"
    # the destructor is attributed to the return statement's line
    assert elements[ret_at + 1].loc.line == elements[ret_at].stmt.range.begin.line


def test_every_path_runs_each_dtor_exactly_once():
    cfg = cfg_of("""\
void f(bool c) {
  string outer;
  if (c) {
    string inner;
    inner.c_str();
    return;
  }
  outer.c_str();
}
""")
    for path in all_paths(cfg):
        dtors = [e.var.name for bid in path
                 for e in cfg.block(bid).elements
                 if isinstance(e, ImplicitDtorElement)]
        assert dtors.count("outer") == 1
        inner_expected = 1 if any(
            isinstance(e, StmtElement) and isinstance(e.stmt, VarDecl)
            and e.stmt.name == "inner"
            for bid in path for e in cfg.block(bid).elements) else 0
        assert dtors.count("inner") == inner_expected


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
    heads = [b.id for b in cfg.blocks if isinstance(b.terminator, Branch)
             and b.terminator.cond.parent.kind == "WhileStmt"]
    assert len(heads) == 1
    jumps = [b.terminator.target for b in cfg.blocks if isinstance(b.terminator, Jump)]
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
    placed = [e.stmt for b in cfg.blocks for e in b.elements
              if isinstance(e, StmtElement)]
    assert sorted(id(s) for s in simple) == sorted(id(s) for s in placed)


def test_unreachable_code_dropped_with_note():
    cfg = cfg_of("""\
int f() {
  return 1;
  int dead = 2;
}
""")
    assert any("unreachable" in note for note in cfg.notes)
    placed = [e.stmt.kind for b in cfg.blocks for e in b.elements
              if isinstance(e, StmtElement)]
    assert "VarDecl" not in placed


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
        stack.extend(first.block(bid).successors())
    assert reachable == {b.id for b in first.blocks}
    assert first.block(first.exit).successors() == []


def test_short_circuit_conditions_lower_to_branch_tree():
    cfg = cfg_of("void f(bool a, bool b) { if (a && b) { } }")
    branches = [b for b in cfg.blocks if isinstance(b.terminator, Branch)]
    assert len(branches) == 2  # one per operand
    for b in branches:
        assert b.terminator.cond.kind == "DeclRef"


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
    assert any(isinstance(e, StmtElement) and isinstance(e.stmt, VarDecl)
               for e in entry_elems)
    assert isinstance(cfg.block(cfg.entry).terminator, Branch)
