"""Per-function control flow graphs.

Blocks hold statement elements plus implicit string-destructor elements on
every edge that leaves the variable's scope. `&&`/`||`/`!` in branch
conditions are lowered into the branch structure, so condition leaves are
simple expressions. Blocks are numbered in reverse post-order from entry.
"""

from __future__ import annotations

from typing import NamedTuple

from .frontend.astnodes import (
    Block, BreakStmt, ContinueStmt, DeleteStmt, ExprStmt, FunctionDecl, IfStmt,
    Node, Paren, ReturnStmt, UnaryOp, BinaryOp, VarDecl, WhileStmt,
)
from .source import InternalError, SourceLocation

_new = tuple.__new__  # elements and terminators skip the generated `__new__`


class StmtElement(NamedTuple):
    stmt: Node


class ImplicitDtorElement(NamedTuple):
    var: VarDecl  # a local of string type
    loc: SourceLocation  # where the scope is left


CfgElement = StmtElement | ImplicitDtorElement


class Branch(NamedTuple):
    cond: Node
    true_target: int
    false_target: int


class Jump(NamedTuple):
    target: int  # the exit block for a return, as in Clang's CFG


Terminator = Branch | Jump


class BasicBlock:
    __slots__ = ("id", "elements", "terminator")

    def __init__(self, id: int):
        self.id = id
        self.elements: list[CfgElement] = []
        self.terminator: Terminator | None = None

    def successors(self) -> list[int]:
        t = self.terminator
        if isinstance(t, Branch):
            return [t.true_target, t.false_target]
        if isinstance(t, Jump):
            return [t.target]
        return []


class Cfg:
    def __init__(self, fn: FunctionDecl, blocks: list[BasicBlock], entry: int,
                 exit: int, notes: list[str] | None = None):
        self.fn = fn
        self.blocks = blocks
        self.entry = entry
        self.exit = exit
        self.notes = [] if notes is None else notes

    def block(self, bid: int) -> BasicBlock:
        return self.blocks[bid]


class _Scope:
    def __init__(self):
        self.strings: list[VarDecl] = []


class _Builder:
    def __init__(self, fn: FunctionDecl):
        self.fn = fn
        self.blocks: list[BasicBlock] = []
        self.exit = self.new_block().id
        self.current: BasicBlock | None = None
        self.scopes: list[_Scope] = []
        self.loops: list[tuple[int, int, int]] = []  # (continue, break, scope depth)
        self.notes: list[str] = []

    def new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def emit(self, element: CfgElement):
        assert self.current is not None
        self.current.elements.append(element)

    def terminate(self, term: Terminator):
        assert self.current is not None and self.current.terminator is None
        self.current.terminator = term
        self.current = None

    # --- scopes and destructors ---

    def declare(self, decl: VarDecl):
        if decl.declared_type.base == "string" and decl.declared_type.indirections == 0:
            self.scopes[-1].strings.append(decl)

    def emit_dtors(self, down_to: int, offset: int):
        """Destructor elements for every string in scopes deeper than `down_to`,
        innermost scope first, reverse declaration order within a scope, each
        located at `offset`, where the scope is left."""
        loc = None
        for scope in reversed(self.scopes[down_to:]):
            for var in reversed(scope.strings):
                if loc is None:
                    loc = _new(SourceLocation, (self.fn.file, offset))
                self.emit(_new(ImplicitDtorElement, (var, loc)))

    # --- statements ---

    def build(self) -> Cfg:
        first = self.new_block()
        self.current = first
        self.scopes.append(_Scope())
        self.lower_stmts(self.fn.body.stmts)
        if self.current is not None:
            self.emit_dtors(0, self.fn.body.end)
            self.terminate(_new(Jump, (self.exit,)))
        self.scopes.pop()
        return self._finish(first.id)

    def lower_stmts(self, stmts: list[Node]):
        for i, stmt in enumerate(stmts):
            if self.current is None:
                loc = SourceLocation(stmt.file, stmt.begin)
                self.notes.append(f"{loc}: note: unreachable code dropped")
                return
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: Node):
        if isinstance(stmt, VarDecl):
            self.emit(_new(StmtElement, (stmt,)))
            self.declare(stmt)
        elif isinstance(stmt, (ExprStmt, DeleteStmt)):
            self.emit(_new(StmtElement, (stmt,)))
        elif isinstance(stmt, ReturnStmt):
            self.emit(_new(StmtElement, (stmt,)))
            self.emit_dtors(0, stmt.begin)
            self.terminate(_new(Jump, (self.exit,)))
        elif isinstance(stmt, BreakStmt):
            if not self.loops:
                raise InternalError("'break' outside of a loop reached the CFG")
            self.emit(_new(StmtElement, (stmt,)))
            _, break_target, depth = self.loops[-1]
            self.emit_dtors(depth, stmt.begin)
            self.terminate(_new(Jump, (break_target,)))
        elif isinstance(stmt, ContinueStmt):
            if not self.loops:
                raise InternalError("'continue' outside of a loop reached the CFG")
            self.emit(_new(StmtElement, (stmt,)))
            continue_target, _, depth = self.loops[-1]
            self.emit_dtors(depth, stmt.begin)
            self.terminate(_new(Jump, (continue_target,)))
        elif isinstance(stmt, Block):
            self.scopes.append(_Scope())
            self.lower_stmts(stmt.stmts)
            if self.current is not None:
                # at the closing brace
                self.emit_dtors(len(self.scopes) - 1, max(stmt.begin, stmt.end - 1))
            self.scopes.pop()
        elif isinstance(stmt, IfStmt):
            self.lower_if(stmt)
        elif isinstance(stmt, WhileStmt):
            self.lower_while(stmt)
        else:
            raise InternalError(f"statement kind {stmt.kind} in CFG lowering")

    def lower_if(self, stmt: IfStmt):
        self.scopes.append(_Scope())
        if stmt.init is not None:
            self.emit(_new(StmtElement, (stmt.init,)))
            self.declare(stmt.init)
        then_block = self.new_block()
        else_block = self.new_block() if stmt.else_branch is not None else None
        join = self.new_block()
        self.lower_cond(stmt.cond, then_block.id,
                        else_block.id if else_block else join.id)
        self.current = then_block
        self.lower_stmt(stmt.then_branch)
        if self.current is not None:
            self.terminate(_new(Jump, (join.id,)))
        if else_block is not None:
            self.current = else_block
            self.lower_stmt(stmt.else_branch)
            if self.current is not None:
                self.terminate(_new(Jump, (join.id,)))
        self.current = join
        self.emit_dtors(len(self.scopes) - 1, stmt.end)
        self.scopes.pop()

    def lower_while(self, stmt: WhileStmt):
        head = self.new_block()
        self.terminate(_new(Jump, (head.id,)))
        body = self.new_block()
        after = self.new_block()
        self.current = head
        self.lower_cond(stmt.cond, body.id, after.id)
        self.loops.append((head.id, after.id, len(self.scopes)))
        self.current = body
        self.lower_stmt(stmt.body)
        if self.current is not None:
            self.terminate(_new(Jump, (head.id,)))  # back edge
        self.loops.pop()
        self.current = after

    def lower_cond(self, cond: Node, true_target: int, false_target: int):
        if isinstance(cond, Paren):
            return self.lower_cond(cond.inner, true_target, false_target)
        if isinstance(cond, UnaryOp) and cond.op == "!":
            return self.lower_cond(cond.operand, false_target, true_target)
        if isinstance(cond, BinaryOp) and cond.op == "&&":
            mid = self.new_block()
            self.lower_cond(cond.lhs, mid.id, false_target)
            self.current = mid
            return self.lower_cond(cond.rhs, true_target, false_target)
        if isinstance(cond, BinaryOp) and cond.op == "||":
            mid = self.new_block()
            self.lower_cond(cond.lhs, true_target, mid.id)
            self.current = mid
            return self.lower_cond(cond.rhs, true_target, false_target)
        self.terminate(_new(Branch, (cond, true_target, false_target)))

    # --- numbering and cleanup ---

    def _finish(self, first: int) -> Cfg:
        """Number the reachable blocks in reverse post-order, the exit last,
        in place: each kept block takes its new id and retargets its
        terminator."""
        blocks = self.blocks
        order: list[int] = []  # depth-first post-order, on an explicit stack
        seen = {first}
        stack = [(first, iter(blocks[first].successors()))]
        while stack:
            for succ in stack[-1][1]:  # resumes where this block's last visit left
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(blocks[succ].successors())))
                    break
            else:
                order.append(stack.pop()[0])
        order.reverse()
        if self.exit in seen:
            order.remove(self.exit)
        order.append(self.exit)  # exit numbered last, keeps dumps stable
        for bid in range(len(blocks)):
            if bid not in seen and bid != self.exit and blocks[bid].elements:
                self.notes.append(
                    f"{self.fn.name}: note: unreachable block dropped")
        renumber = [-1] * len(blocks)  # old id -> new id; -1 for a dropped block
        for new, old in enumerate(order):
            renumber[old] = new
        kept = [blocks[old] for old in order]
        for new, b in enumerate(kept):
            b.id = new
            term = b.terminator
            if isinstance(term, Branch):
                b.terminator = _new(Branch, (term.cond, renumber[term.true_target],
                                             renumber[term.false_target]))
            elif isinstance(term, Jump):
                b.terminator = _new(Jump, (renumber[term.target],))
        return Cfg(self.fn, kept, renumber[first], renumber[self.exit], self.notes)


def build_cfg(fn: FunctionDecl) -> Cfg:
    """CFG of a typechecked function."""
    return _Builder(fn).build()


def dump_cfg(cfg: Cfg) -> str:
    from .frontend import node_text

    lines = [f"fn {cfg.fn.name}: entry=B{cfg.entry} exit=B{cfg.exit}"]
    for block in cfg.blocks:
        tag = " (entry)" if block.id == cfg.entry else (
            " (exit)" if block.id == cfg.exit else "")
        lines.append(f"  B{block.id}{tag}:")
        for element in block.elements:
            if isinstance(element, StmtElement):
                stmt = element.stmt
                line, column = stmt.file.line_column(stmt.begin)
                text = " ".join(node_text(stmt).split())
                lines.append(f"    <{line}:{column}> {text}")
            else:
                lines.append(f"    ~{element.var.name}() [string dtor]")
        t = block.terminator
        if isinstance(t, Branch):
            cond = " ".join(node_text(t.cond).split())
            lines.append(f"    T: branch ({cond}) -> B{t.true_target}, B{t.false_target}")
        elif isinstance(t, Jump):
            kind = "return" if t.target == cfg.exit else "jump"
            lines.append(f"    T: {kind} -> B{t.target}")
    for note in cfg.notes:
        lines.append(f"  ! {note}")
    return "\n".join(lines)
