"""Per-function control flow graphs.

A block's elements are its statement nodes, plus an implicit
string-destructor element on every edge that leaves the variable's scope.
As Clang's `CFGBlock`, a block keeps its successor ids and its branch
condition: the exit has no successor, a jump one (to the exit for a
return), and a branch two, true then false, with `cond` its condition.
`&&`/`||`/`!` in branch conditions are lowered into the branch structure,
so condition leaves are simple expressions. The body of each `if` branch
and each loop is a scope of its own, braced or not. Blocks are numbered in
reverse post-order from entry.
"""

from __future__ import annotations

from typing import NamedTuple

from .frontend.astnodes import (
    Block, BreakStmt, ContinueStmt, DeleteStmt, ExprStmt, FunctionDecl, IfStmt,
    Node, Paren, ReturnStmt, UnaryOp, BinaryOp, VarDecl, WhileStmt,
)
from .source import InternalError, SourceLocation, SourceRange

_new = tuple.__new__  # destructor elements skip the generated `__new__`


class ImplicitDtorElement(NamedTuple):
    var: VarDecl  # a local of string type
    loc: SourceLocation  # where the scope is left

    @property
    def range(self) -> SourceRange:
        """The empty range at `loc`, as a statement element has its range."""
        return SourceRange(self.loc, self.loc)


CfgElement = Node | ImplicitDtorElement  # a statement node or a destructor


class BasicBlock:
    __slots__ = ("id", "elements", "succs", "cond")

    def __init__(self, id: int):
        self.id = id
        self.elements: list[CfgElement] = []
        self.succs: list[int] = []  # none, one (jump) or two (branch: true, false)
        self.cond: Node | None = None  # the branch condition


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


class _Builder:
    def __init__(self, fn: FunctionDecl):
        self.fn = fn
        self.blocks: list[BasicBlock] = []
        self.exit = self.new_block().id
        self.current: BasicBlock | None = None
        self.scopes: list[list[VarDecl]] = []  # the string locals of each open scope
        self.loops: list[tuple[int, int, int]] = []  # (continue, break, scope depth)
        self.notes: list[str] = []
        self.jumped_over: dict[int, Node] = {}  # block id -> the statement after a jump

    def new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def emit(self, element: CfgElement):
        assert self.current is not None
        self.current.elements.append(element)

    def terminate(self, *succs: int, cond: Node | None = None):
        block = self.current
        assert block is not None and not block.succs
        block.succs = [*succs]
        block.cond = cond
        self.current = None

    # --- scopes and destructors ---

    def declare(self, decl: VarDecl):
        if decl.declared_type.base == "string" and decl.declared_type.indirections == 0:
            self.scopes[-1].append(decl)

    def emit_dtors(self, down_to: int, offset: int):
        """Destructor elements for every string in scopes deeper than `down_to`,
        innermost scope first, reverse declaration order within a scope, each
        located at `offset`, where the scope is left."""
        loc = None
        for scope in reversed(self.scopes[down_to:]):
            for var in reversed(scope):
                if loc is None:
                    loc = _new(SourceLocation, (self.fn.file, offset))
                self.emit(_new(ImplicitDtorElement, (var, loc)))

    # --- statements ---

    def build(self) -> Cfg:
        first = self.new_block()
        self.current = first
        self.scopes.append([])
        self.lower_stmts(self.fn.body.stmts)
        if self.current is not None:
            self.emit_dtors(0, self.fn.body.end)
            self.terminate(self.exit)
        self.scopes.pop()
        return self._finish(first.id)

    def lower_stmts(self, stmts: list[Node]):
        for stmt in stmts:
            if self.current is None:  # after a jump: a dropped region starts here
                self.current = self.new_block()
                self.jumped_over[self.current.id] = stmt
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: Node):
        if isinstance(stmt, VarDecl):
            self.emit(stmt)
            self.declare(stmt)
        elif isinstance(stmt, (ExprStmt, DeleteStmt)):
            self.emit(stmt)
        elif isinstance(stmt, ReturnStmt):
            self.emit(stmt)
            self.emit_dtors(0, stmt.begin)
            self.terminate(self.exit)
        elif isinstance(stmt, BreakStmt):
            if not self.loops:
                raise InternalError("'break' outside of a loop reached the CFG")
            self.emit(stmt)
            _, break_target, depth = self.loops[-1]
            self.emit_dtors(depth, stmt.begin)
            self.terminate(break_target)
        elif isinstance(stmt, ContinueStmt):
            if not self.loops:
                raise InternalError("'continue' outside of a loop reached the CFG")
            self.emit(stmt)
            continue_target, _, depth = self.loops[-1]
            self.emit_dtors(depth, stmt.begin)
            self.terminate(continue_target)
        elif isinstance(stmt, Block):
            self.lower_scope(stmt)
        elif isinstance(stmt, IfStmt):
            self.lower_if(stmt)
        elif isinstance(stmt, WhileStmt):
            self.lower_while(stmt)
        else:
            raise InternalError(f"statement kind {stmt.kind} in CFG lowering")

    def lower_scope(self, stmt: Node):
        """A block, an `if` branch or a loop body, in a scope of its own,
        braced or not, as C++ gives one to each such substatement; its
        strings die at its last character, a block's closing brace."""
        self.scopes.append([])
        self.lower_stmts(stmt.stmts if isinstance(stmt, Block) else [stmt])
        if self.current is not None:
            self.emit_dtors(len(self.scopes) - 1, max(stmt.begin, stmt.end - 1))
        self.scopes.pop()

    def lower_if(self, stmt: IfStmt):
        self.scopes.append([])
        if stmt.init is not None:
            self.emit(stmt.init)
            self.declare(stmt.init)
        then_block = self.new_block()
        else_block = self.new_block() if stmt.else_branch is not None else None
        join = self.new_block()
        self.lower_cond(stmt.cond, then_block.id,
                        else_block.id if else_block else join.id)
        self.current = then_block
        self.lower_scope(stmt.then_branch)
        if self.current is not None:
            self.terminate(join.id)
        if else_block is not None:
            self.current = else_block
            self.lower_scope(stmt.else_branch)
            if self.current is not None:
                self.terminate(join.id)
        self.current = join
        self.emit_dtors(len(self.scopes) - 1, stmt.end)
        self.scopes.pop()

    def lower_while(self, stmt: WhileStmt):
        head = self.new_block()
        self.terminate(head.id)
        body = self.new_block()
        after = self.new_block()
        self.current = head
        self.lower_cond(stmt.cond, body.id, after.id)
        self.loops.append((head.id, after.id, len(self.scopes)))
        self.current = body
        self.lower_scope(stmt.body)
        if self.current is not None:
            self.terminate(head.id)  # back edge
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
        self.terminate(true_target, false_target, cond=cond)

    # --- numbering and cleanup ---

    def _finish(self, first: int) -> Cfg:
        """Number the reachable blocks in reverse post-order, the exit last,
        in place: each kept block takes its new id and renumbers its
        successors."""
        blocks = self.blocks
        order: list[int] = []  # depth-first post-order, on an explicit stack
        seen = {first}
        stack = [(first, iter(blocks[first].succs))]
        while stack:
            for succ in stack[-1][1]:  # resumes where this block's last visit left
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(blocks[succ].succs)))
                    break
            else:
                order.append(stack.pop()[0])
        order.reverse()
        if self.exit in seen:
            order.remove(self.exit)
        order.append(self.exit)  # exit numbered last, keeps dumps stable
        self.note_dropped_code(seen)
        renumber = [-1] * len(blocks)  # old id -> new id; -1 for a dropped block
        for new, old in enumerate(order):
            renumber[old] = new
        kept = [blocks[old] for old in order]
        for new, b in enumerate(kept):
            b.id = new
            b.succs = [renumber[succ] for succ in b.succs]
        return Cfg(self.fn, kept, renumber[first], renumber[self.exit], self.notes)

    def note_dropped_code(self, seen: set[int]) -> None:
        """One note per stretch of dropped code, at its first statement, as
        Clang's -Wunreachable-code warns once per unreachable region: in
        source order, a dropped block of code that no noted block reaches
        is noted. A block opened after a jump starts at the statement that
        follows it; a dropped block of destructors only drops no code."""
        firsts = self.jumped_over  # dropped block id -> its first statement
        for block in self.blocks:
            if block.id not in seen and block.id not in firsts:
                for element in block.elements:
                    if element.__class__ is not ImplicitDtorElement:
                        firsts[block.id] = element
                        break
        covered = set(seen)
        for bid in sorted(firsts, key=lambda b: firsts[b].begin):
            if bid in covered:
                continue
            self.notes.append(f"{firsts[bid].range.begin}: note: unreachable code dropped")
            reached = [bid]
            while reached:
                b = reached.pop()
                if b not in covered:
                    covered.add(b)
                    reached.extend(self.blocks[b].succs)


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
            if element.__class__ is ImplicitDtorElement:
                lines.append(f"    ~{element.var.name}() [string dtor]")
            else:
                line, column = element.file.line_column(element.begin)
                text = " ".join(node_text(element).split())
                lines.append(f"    <{line}:{column}> {text}")
        succs = block.succs
        if block.cond is not None:
            cond = " ".join(node_text(block.cond).split())
            lines.append(f"    T: branch ({cond}) -> B{succs[0]}, B{succs[1]}")
        elif succs:
            kind = "return" if succs[0] == cfg.exit else "jump"
            lines.append(f"    T: {kind} -> B{succs[0]}")
    for note in cfg.notes:
        lines.append(f"  ! {note}")
    return "\n".join(lines)
