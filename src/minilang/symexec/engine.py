"""The path-sensitive symbolic execution engine.

`Engine.explore` steps one frame, a top-level function or an inlined call,
through its CFG from a FIFO worklist. Exploded-graph nodes are created at
block edges, after each statement element, after calls that change checker
state, around inlined calls, and after implicit destructor elements; exact
(point, state) duplicates are merged. Loop back edges are taken at most
`unroll` times per path and each top-level function gets `node_budget`
nodes before its remaining paths are abandoned.

A call to a defined function is inlined into a new frame while
`inline_depth` allows. Its return statement binds the value to
the frame's `RetRegion`, and CallExit reads it there, then drops every
binding rooted in the callee frame and the frame's back-edge counts. Each
destructor run after the return statement uses the bound value again.

One evaluator, `Engine.lvalue_outcomes`, says where an expression points.
A read, a write or a method call through `*p`, `p->f` or `p->m()` checks
the pointer, in `Engine.pointer_outcomes`; `&` and binding a reference
parameter do not. An rvalue under `.`, `&` or a reference parameter is
evaluated into a `TempRegion` of its frame.

Every truth question is one `assume`. Null is the `int` 0, and a null test
is `assume(state, pointer, True)`, which fails where the pointer is known
null. A branch condition and the left side of a value-context `&&`/`||`
fork through `Engine.branch_split`, so each outcome is a path of its own.

Every error path ends in a sink of its own, but reports are uniqued as
Clang's BugReporter does: `Engine.report` keeps one per (check name,
message, location), the one with the shortest path to its error node.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from ..cfg import BasicBlock, build_cfg, Cfg, ImplicitDtorElement
from ..frontend.astnodes import (
    AddressOf, Assign, BinaryOp, BOOL, BoolLit, BreakStmt, BUILTIN_BASES, Call,
    ContinueStmt, DeclRef, DeleteStmt, ExprStmt, FieldAccess,
    FunctionDecl, IntLit, MethodCall, NewExpr, Node, Paren, ParamDecl, ReturnStmt,
    StringLit, TranslationUnit, TypeRef, UnaryOp, VarDecl, VOID, strip_parens,
)
from ..source import InternalError, SourceLocation
from .state import assume, assume_comparison, COMPARISONS, ProgramState
from .values import (
    as_symbol, FieldRegion, LocVal, MemRegion, RangeSet, region_root,
    region_within, RetRegion, SVal, sym_add, sym_mul, Symbol, SymExpr,
    TempRegion, UNDEFINED, UndefinedVal, UNKNOWN, VarRegion,
)

# The checker callbacks the engine dispatches; a checker implements any subset.
CHECKER_HOOKS = (
    "check_pre_delete", "check_implicit_dtor", "check_use",
    "check_dead_symbols", "check_div", "check_post_new", "check_post_call",
)


# Values, regions and program points are built on the hot path by the tuple
# constructor, every field given, not through the generated named-tuple
# `__new__`.
_new = tuple.__new__


def _c_div(a: int, b: int) -> int:
    """Integer division truncating toward zero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


class AnalysisConfig(NamedTuple):
    unroll: int = 4
    node_budget: int = 50_000
    inline_depth: int = 5


# --- program points ----------------------------------------------------------
# Named tuples, compared and hashed as tuples of all their fields; an AST node
# field compares by identity. The classes differ in arity or field types, so
# no two points of different classes are equal.

class BlockEdgePoint(NamedTuple):
    src: int
    dst: int
    frame: int

    def describe(self) -> str:
        return f"BlockEdge (B{self.src} -> B{self.dst})" if self.src >= 0 \
            else f"BlockEdge (entry -> B{self.dst})"


class PreStmtPoint(NamedTuple):
    frame: int
    node: Node

    def describe(self) -> str:
        return f"PreStmt {self.node.kind}"


class PostStmtPoint(NamedTuple):
    block: int  # -1 for sub-expression transitions (not steppable)
    index: int
    frame: int
    node: Node

    def describe(self) -> str:
        return f"PostStmt {self.node.kind}"


class CallEnterPoint(NamedTuple):
    frame: int  # the callee frame, fresh for every inlined call

    def describe(self) -> str:
        return "CallEnter"


class CallExitPoint(NamedTuple):
    call_id: int
    frame: int  # the caller frame resumed into

    def describe(self) -> str:
        return "CallExit"


class PostImplicitCallPoint(NamedTuple):
    block: int
    index: int
    frame: int
    var: Node
    loc: SourceLocation

    def describe(self) -> str:
        return f"PostImplicitCall ~{self.var.name}"


# --- exploded graph ----------------------------------------------------------

class ExplodedNode:
    __slots__ = ("point", "state", "loops", "pred", "succs", "is_sink", "seq")

    def __init__(self, point, state: ProgramState, loops: dict,
                 pred: "ExplodedNode | None", seq: int):
        self.point = point
        self.state = state
        self.loops = loops  # back edge (src, dst, frame) -> times taken on this path
        self.pred = pred  # the node it was made from, which bug paths follow
        self.succs: list[ExplodedNode] = []
        self.is_sink = False
        self.seq = seq

    def __repr__(self):
        return f"<node {self.seq} {self.point.describe()}>"


class BudgetExhausted(Exception):
    """Raised when a new node would push the graph past the node budget."""


_BUDGET_NOTE = "{}: note: node budget exhausted, paths abandoned"  # .format(function name)


class ExplodedGraph:
    def __init__(self, budget: int | None = None):
        self.nodes: list[ExplodedNode] = []
        self.budget = budget
        self._index: dict = {}

    def add(self, point, state: ProgramState, pred: ExplodedNode | None,
            loops: dict | None = None) -> tuple[ExplodedNode, bool]:
        """A new node takes `loops`, by default its predecessor's. They stay out
        of the state, as Clang's BlockCounter, so equal states still merge.
        The node is made before the index is probed, so that a new node costs
        one probe; a node past the budget leaves the index as it was."""
        nodes = self.nodes
        seq = len(nodes)
        if loops is None:
            loops = pred.loops if pred is not None else {}
        node = ExplodedNode(point, state, loops, pred, seq)
        key = (point, state)
        found = self._index.setdefault(key, node)
        if found is not node:
            if pred is not None and found not in pred.succs:
                pred.succs.append(found)
            return found, False
        if self.budget is not None and seq >= self.budget:
            del self._index[key]
            raise BudgetExhausted()
        nodes.append(node)
        if pred is not None:
            pred.succs.append(node)  # a node just made is no successor yet
        return node, True

    def leaves(self) -> list[ExplodedNode]:
        return [n for n in self.nodes if not n.succs and not n.is_sink]

    def __len__(self):
        return len(self.nodes)


def _ends_first(a: ExplodedNode, b: ExplodedNode) -> bool:
    """Whether `a`'s `pred` chain is strictly shorter than `b`'s. The two are
    walked in step, so the cost is the shorter chain's length."""
    while a is not None and b is not None:
        a, b = a.pred, b.pred
    return b is not None


class CallInfo(NamedTuple):
    """One evaluated call, as the post-call checker dispatch sees it, after
    Clang's `CallEvent`: the callee, and whether it is a method, a string
    assignment or an extern function, are read off `node`."""

    node: Node  # Call, MethodCall or Assign
    receiver_region: MemRegion | None
    ret_val: SVal
    # (parameter type, value, region) per argument: a reference argument
    # carries its region and no value, any other its value and no region
    args: list[tuple[TypeRef | None, SVal | None, MemRegion | None]]


class AnalysisResult:
    def __init__(self):
        self.graphs: dict[str, ExplodedGraph] = {}
        self.reports: list = []
        self.notes: list[str] = []


class CheckerContext:
    """Handed to each checker callback: `state` is the state the callback
    sees and, after `add_transition`, the one it moves to."""

    __slots__ = ("state", "_moved", "report")

    def __init__(self, state: ProgramState):
        self.state = state
        self._moved = False
        self.report = None

    def add_transition(self, new_state: ProgramState) -> None:
        if self._moved:
            raise InternalError("addTransition called twice in one callback")
        self._moved = True
        self.state = new_state

    def emit_report(self, report) -> None:
        self.report = report


class _Frame:
    def __init__(self, id: int, fn: FunctionDecl, depth: int):
        self.id = id
        self.fn = fn
        self.depth = depth
        self.aliases: dict[int, MemRegion] = {}  # param id -> region
        self.cfg: Cfg | None = None  # fn's CFG, set when the frame is entered
        # only a function that returns a value binds the frame's `RetRegion`
        self.returns_value = fn.return_type != VOID


class Engine:
    def __init__(self, unit: TranslationUnit, config: AnalysisConfig | None = None,
                 checkers: list | None = None):
        self.unit = unit
        self.config = config or AnalysisConfig()
        self.checkers = checkers or []
        self.result = AnalysisResult()
        self._noted: set[str] = set()  # every text in result.notes, for `note`
        # (check name, message, offset) -> index of its class's report in
        # result.reports, for `report`
        self._classes: dict[tuple, int] = {}
        self._cfgs: dict[int, Cfg] = {}
        self._inlined: set[int] = set()
        self._frame_counter = 0
        self._conjure_counter = 0
        self._graph: ExplodedGraph | None = None
        slots = set()
        for checker in self.checkers:
            for key in getattr(checker, "state_slots", ()):
                if key in slots:
                    raise InternalError(f"duplicate checker state slot {key!r}")
                slots.add(key)
        # hook name -> the bound callbacks of the checkers that implement it
        self._hooks: dict[str, list] = {
            hook: [getattr(c, hook) for c in self.checkers if hasattr(c, hook)]
            for hook in CHECKER_HOOKS}

    # --- plumbing ---

    def cfg_of(self, fn: FunctionDecl) -> Cfg:
        cfg = self._cfgs.get(fn.node_id)
        if cfg is None:
            cfg = build_cfg(fn)
            self._cfgs[fn.node_id] = cfg
            self.result.notes.extend(cfg.notes)
            self._noted.update(cfg.notes)
        return cfg

    def conjure(self, hint: str = "") -> Symbol:
        self._conjure_counter += 1
        name = hint or f"c{self._conjure_counter}"
        return _new(Symbol, (self._conjure_counter, name))

    def new_frame(self, fn: FunctionDecl, depth: int) -> _Frame:
        self._frame_counter += 1
        return _Frame(self._frame_counter, fn, depth)

    def note(self, text: str):
        if text not in self._noted:
            self._noted.add(text)
            self.result.notes.append(text)

    def report(self, report) -> None:
        """Keep one report per equivalence class, as Clang's BugReporter
        does: reports with the same check name, message and location are one
        defect. The class keeps the report whose error node has the shortest
        `pred` chain, the first emitted on a tie, at the index of its first
        report, so only that one gets a bug path."""
        key = (report.check_name, report.message, report.location.offset)
        index = self._classes.get(key)
        if index is None:
            self._classes[key] = len(self.result.reports)
            self.result.reports.append(report)
        elif _ends_first(report.error_node, self.result.reports[index].error_node):
            self.result.reports[index] = report

    # --- top level ---

    def run(self) -> AnalysisResult:
        """Analyze every function not already inlined during an earlier
        top-level analysis, in source order."""
        for decl in self.unit.decls:
            if isinstance(decl, FunctionDecl) and decl.node_id not in self._inlined:
                self.analyze(decl)
        return self.result

    def analyze(self, fn: FunctionDecl) -> ExplodedGraph:
        self._conjure_counter = 0
        graph = ExplodedGraph(budget=self.config.node_budget)
        self._graph = graph
        frame = self.new_frame(fn, 0)
        state = ProgramState()
        for param in fn.params:
            sym = self.conjure(param.name)
            state = state.bind(_new(VarRegion, (param, frame.id)), sym)
            state = self._constrain_fresh(state, sym, param.declared_type)
        cfg = frame.cfg = self.cfg_of(fn)
        try:  # even the root counts against the budget; `explore` notes the rest
            root, _ = graph.add(_new(BlockEdgePoint, (-1, cfg.entry, frame.id)), state, None)
            self.explore(frame, root)
        except BudgetExhausted:
            self.note(_BUDGET_NOTE.format(fn.name))
        self.result.graphs[fn.name] = graph
        return graph

    def _constrain_fresh(self, state: ProgramState, val: SVal,
                         declared: TypeRef) -> ProgramState:
        sym = as_symbol(val)
        if sym is not None and declared.value_type() == BOOL:
            return state.constrain(sym, RangeSet.of((0, 1)))
        return state

    # --- stepping ---

    def explore(self, frame: _Frame, root: ExplodedNode) -> list[ExplodedNode]:
        """Step `frame` from `root` in FIFO order; return its edges into the
        exit. An inlined call runs to its end within its caller's step, so
        only a top-level frame notes a spent node budget and goes on."""
        blocks, exit_id = frame.cfg.blocks, frame.cfg.exit
        exits = []
        work = deque([root])
        while work:
            node = work.popleft()
            point = node.point
            try:
                if point.__class__ is BlockEdgePoint:
                    if point.dst == exit_id:
                        exits.append(node)
                        continue
                    work.extend(self.exec_block_from(node, frame, blocks[point.dst], 0))
                else:  # a PostStmtPoint of a block element or a PostImplicitCallPoint
                    work.extend(self.exec_block_from(
                        node, frame, blocks[point.block], point.index + 1))
            except BudgetExhausted:
                if frame.depth:
                    raise
                self.note(_BUDGET_NOTE.format(frame.fn.name))
        return exits

    def exec_block_from(self, via: ExplodedNode, frame: _Frame, block: BasicBlock,
                        index: int) -> list[ExplodedNode]:
        fid = frame.id
        state = via.state
        elements = block.elements
        while True:
            if index == len(elements):
                return self.exec_terminator(via, state, frame, block)
            element = elements[index]
            if element.__class__ is not ImplicitDtorElement:  # a statement node
                out: list[ExplodedNode] = []
                for st, v in self.exec_stmt(via, state, frame, element):
                    st = self.reap(st)
                    point = _new(PostStmtPoint, (block.id, index, fid, element))
                    node, is_new = self._graph.add(point, st, v)
                    if is_new:
                        out.append(node)
                return out
            # an implicit string destructor
            point = _new(PostImplicitCallPoint,
                         (block.id, index, fid, element.var, element.loc))
            state, node, sank = self.dispatch(
                "check_implicit_dtor", via, state, point, element,
                _new(VarRegion, (element.var, fid)), make_node=True)
            if sank:
                return []
            # the value bound for return is used again after the destructor
            pending = state.lookup(_new(RetRegion, (fid,))) if frame.returns_value else None
            if pending is not None:
                state, node, sank = self.dispatch(
                    "check_use", node, state, point, element, pending, "return",
                    make_node=False)
                if sank:
                    return []
            if node is not via:
                return [node]
            index += 1

    def exec_terminator(self, via: ExplodedNode, state: ProgramState,
                        frame: _Frame, block) -> list[ExplodedNode]:
        succs = block.succs
        if not succs:
            return []  # function exit: a leaf of this frame's exploration
        if block.cond is None:
            node = self.make_block_edge(via, state, frame, block.id, succs[0])
            return [node] if node is not None else []
        out = []
        for truth, st, v in self.branch_split(via, state, frame, block.cond):
            node = self.make_block_edge(v, st, frame, block.id,
                                        succs[0] if truth else succs[1])
            if node is not None:
                out.append(node)
        return out

    def make_block_edge(self, via: ExplodedNode, state: ProgramState,
                        frame: _Frame, src: int, dst: int) -> ExplodedNode | None:
        state = self.reap(state)
        loops = None
        if dst <= src:  # back edge under reverse post-order numbering
            edge = (src, dst, frame.id)
            count = via.loops.get(edge, 0)
            if count >= self.config.unroll:
                self.note(f"{frame.fn.name}: note: loop unroll limit reached, "
                          "path abandoned")
                return None
            loops = {**via.loops, edge: count + 1}
        node, is_new = self._graph.add(
            _new(BlockEdgePoint, (src, dst, frame.id)), state, via, loops)
        return node if is_new else None

    def branch_split(self, via: ExplodedNode, state: ProgramState, frame: _Frame,
                     cond: Node) -> list[tuple[bool, ProgramState, ExplodedNode]]:
        """Evaluate a branch condition once; return the feasible refinements
        for both truth values. `cfg.lower_cond` has already taken parentheses
        and `!` off the condition, and `eval_short_circuit` off the left side
        of a value-context `&&`/`||`, which this also decides."""
        out = []
        if isinstance(cond, BinaryOp) and cond.op in COMPARISONS:
            for lv, st1, v1 in self.eval(via, state, frame, cond.lhs):
                for rv, st2, v2 in self.eval(v1, st1, frame, cond.rhs):
                    for truth in (True, False):
                        st3 = assume_comparison(st2, lv, cond.op, rv, truth)
                        if st3 is not None:
                            out.append((truth, st3, v2))
            return out
        for val, st, v in self.eval(via, state, frame, cond):
            for truth in (True, False):
                st2 = assume(st, val, truth)
                if st2 is not None:
                    out.append((truth, st2, v))
        return out

    # --- statements ---

    def exec_stmt(self, via: ExplodedNode, state: ProgramState, frame: _Frame,
                  stmt: Node) -> list[tuple[ProgramState, ExplodedNode]]:
        if isinstance(stmt, VarDecl):
            return self.exec_var_decl(via, state, frame, stmt)
        if isinstance(stmt, ExprStmt):
            return [(st, v) for _, st, v in self.eval(via, state, frame, stmt.expr)]
        if isinstance(stmt, ReturnStmt):
            return self.exec_return(via, state, frame, stmt)
        if isinstance(stmt, DeleteStmt):
            return self.exec_delete(via, state, frame, stmt)
        if isinstance(stmt, (BreakStmt, ContinueStmt)):
            return [(state, via)]
        raise InternalError(f"statement kind {stmt.kind} reached the engine")

    def exec_var_decl(self, via, state, frame, decl: VarDecl):
        region = _new(VarRegion, (decl, frame.id))
        declared = decl.declared_type
        if decl.init is None:
            if declared.base == "string" and declared.indirections == 0:
                # default construction: the string gets a fresh value identity
                state = state.bind(region, self.conjure(f"{decl.name}_str"))
            return [(state, via)]
        if self._is_struct_value(declared):
            return [(self._copy_struct(st, region, src)[1], v)
                    for src, st, v in self.lvalue_outcomes(via, state, frame, decl.init)]
        return [(st.bind(region, UNKNOWN if isinstance(val, UndefinedVal) else val), v)
                for val, st, v in self.eval(via, state, frame, decl.init)]

    def _is_struct_value(self, t: TypeRef | None) -> bool:
        return (t is not None and t.indirections == 0
                and t.base not in BUILTIN_BASES)

    def _copy_struct(self, state: ProgramState, dst: MemRegion | None,
                     src: MemRegion | None):
        """Value copy of a struct from `src` to `dst`, either None when not
        known: the struct's value and every known field binding. Returns
        (value, state)."""
        val, state = self.load(state, src) if src is not None else (UNKNOWN, state)
        val = UNKNOWN if isinstance(val, UndefinedVal) else val
        if dst is not None:  # no region is within a None `src`
            state = _bind_object(state, dst, val, [
                (_remap_region(region, src, dst), field_val)
                for region, field_val in state.store.items()
                if region != src and region_within(region, src)])
        return val, state

    def exec_return(self, via, state, frame, stmt: ReturnStmt):
        if stmt.value is None:
            return [(state, via)]
        out = []
        for val, st, v in self.eval(via, state, frame, stmt.value):
            st, v, sank = self.dispatch_use(v, st, frame, stmt, val, "return")
            if sank:
                continue
            out.append((st.bind(_new(RetRegion, (frame.id,)), val), v))
        return out

    def exec_delete(self, via, state, frame, stmt: DeleteStmt):
        out = []
        for val, st, v in self.eval(via, state, frame, stmt.operand):
            st, v, sank = self.dispatch(
                "check_pre_delete", v, st, _new(PreStmtPoint, (frame.id, stmt)),
                stmt, val, make_node=False)
            if sank:
                continue
            out.append((st, v))
        return out

    # --- checker dispatch ---

    def dispatch(self, hook: str, via: ExplodedNode, state: ProgramState,
                 point, *args, make_node: bool):
        """Run one callback on every checker, threading the state; a report
        or, with `make_node`, a changed state gets a node at `point`.
        Returns (state, via, sank)."""
        original = state
        for fn in self._hooks[hook]:
            ctx = CheckerContext(state)
            fn(ctx, *args)
            if ctx.report is not None:
                node, _ = self._graph.add(point, ctx.state, via)
                node.is_sink = True
                ctx.report.error_node = node
                ctx.report.graph = self._graph
                self.report(ctx.report)
                return state, via, True
            state = ctx.state
        if make_node and state is not original and state != original:
            node, _ = self._graph.add(point, state, via)
            via = node
        return state, via, False

    def dispatch_use(self, via, state, frame, node: Node, val: SVal, kind: str):
        return self.dispatch("check_use", via, state, _new(PreStmtPoint, (frame.id, node)),
                             node, val, kind, make_node=False)

    def post_call(self, via, state, frame, expr: Node, receiver: MemRegion | None,
                  ret: SVal, args):
        """The post-call dispatch of one evaluated call. Returns (state, via,
        sank)."""
        return self.dispatch("check_post_call", via, state,
                             _new(PostStmtPoint, (-1, -1, frame.id, expr)),
                             _new(CallInfo, (expr, receiver, ret, args)), make_node=True)

    def reap(self, state: ProgramState) -> ProgramState:
        if not state._dead:  # `dead_symbols()`, read without two calls
            return state
        return self._reap_with(state, dead_regions=frozenset())

    def _reap_with(self, state: ProgramState, dead_regions: frozenset) -> ProgramState:
        dead = state.dead_symbols()
        if not dead and not dead_regions:
            return state
        dead = frozenset(dead)
        for fn in self._hooks["check_dead_symbols"]:
            ctx = CheckerContext(state)
            fn(ctx, dead, dead_regions)
            state = ctx.state
        # by the liveness rule, a dead symbol that no slot mentions is constrained
        slot_refs = state.gdm_symbols()
        stale = [s for s in state.dead_symbols() if s not in slot_refs]
        if stale:
            state = state.drop_constraints(stale)
        return state

    # --- expression evaluation ---
    # eval() returns forked outcomes: a list of (value, state, via-node).

    def eval(self, via, state, frame, expr: Node):
        if isinstance(expr, IntLit):
            return [(expr.value, state, via)]
        if isinstance(expr, BoolLit):
            return [(1 if expr.value else 0, state, via)]
        if isinstance(expr, StringLit):
            return [(UNKNOWN, state, via)]
        if isinstance(expr, Paren):
            return self.eval(via, state, frame, expr.inner)
        if isinstance(expr, DeclRef):
            region = self.decl_region(expr, frame)
            val, state = self.load(state, region)
            return [(val, state, via)]
        if isinstance(expr, UnaryOp):
            return self.eval_unary(via, state, frame, expr)
        if isinstance(expr, AddressOf):
            return [(LocVal(region) if region is not None else UNKNOWN, st, v)
                    for region, st, v in self.lvalue_outcomes(
                        via, state, frame, expr.operand, access=False)]
        if isinstance(expr, BinaryOp):
            return self.eval_binary(via, state, frame, expr)
        if isinstance(expr, Assign):
            return self.eval_assign(via, state, frame, expr)
        if isinstance(expr, FieldAccess):
            return self.eval_field(via, state, frame, expr)
        if isinstance(expr, NewExpr):
            return self.eval_new(via, state, frame, expr)
        if isinstance(expr, MethodCall):
            return self.eval_method_call(via, state, frame, expr)
        if isinstance(expr, Call):
            return self.eval_call(via, state, frame, expr)
        raise InternalError(f"expression kind {expr.kind} reached the engine")

    def decl_region(self, ref: DeclRef, frame: _Frame) -> MemRegion:
        decl = ref.decl
        if isinstance(decl, ParamDecl):
            alias = frame.aliases.get(decl.node_id)
            if alias is not None:
                return alias
        return _new(VarRegion, (decl, frame.id))

    def load(self, state: ProgramState, region: MemRegion) -> tuple[SVal, ProgramState]:
        val = state.lookup(region)
        if val is not None:
            return val, state
        if isinstance(region, FieldRegion):
            parent_val = state.lookup(region.parent)
            if isinstance(parent_val, SymExpr):
                # unknown struct contents: conjure once and remember
                fresh = self.conjure()
                return fresh, state.bind(region, fresh)
        return UNDEFINED, state

    def eval_unary(self, via, state, frame, expr: UnaryOp):
        if expr.op == "*":
            return self.read(via, state, frame, expr)
        out = []
        for val, st, v in self.eval(via, state, frame, expr.operand):
            if expr.op == "-":
                if val.__class__ is int:
                    out.append((-val, st, v))
                elif isinstance(val, SymExpr):
                    out.append((sym_mul(val, -1), st, v))
                else:
                    out.append((UNKNOWN, st, v))
            elif expr.op == "!":
                if val.__class__ is int:
                    out.append((0 if val else 1, st, v))
                elif isinstance(val, LocVal):
                    out.append((0, st, v))
                else:
                    out.append((UNKNOWN, st, v))
        return out

    def pointer_outcomes(self, via, state, frame, expr: Node, pointer_expr: Node,
                         access: bool = True):
        """Evaluate `pointer_expr`, the pointer of `*q`, `p->f` or `p->m()`
        (`expr`): (pointer, state, via) outcomes. An access, a read, a write
        or a method call, checks the pointer once: the checkers' "deref"
        use, then `assume` that it is non-null, as Clang's DereferenceChecker
        does. Where that is infeasible the path ends in a note and a sink;
        a path that goes on has a non-null pointer."""
        out = []
        for pointer, st, v in self.eval(via, state, frame, pointer_expr):
            if access:
                st, v, sank = self.dispatch_use(v, st, frame, expr, pointer, "deref")
                if sank:
                    continue
                nonnull = assume(st, pointer, True)
                if nonnull is None:
                    self.note(f"{expr.range.begin}: note: null dereference, path terminated")
                    node, _ = self._graph.add(_new(PreStmtPoint, (frame.id, expr)), st, v)
                    node.is_sink = True
                    continue
                st = nonnull
            out.append((pointer, st, v))
        return out

    def eval_binary(self, via, state, frame, expr: BinaryOp):
        op = expr.op
        if op == ",":
            out = []
            for _, st1, v1 in self.eval(via, state, frame, expr.lhs):
                out.extend(self.eval(v1, st1, frame, expr.rhs))
            return out
        if op in ("&&", "||"):
            return self.eval_short_circuit(via, state, frame, expr)
        out = []
        for lv, st1, v1 in self.eval(via, state, frame, expr.lhs):
            for rv, st2, v2 in self.eval(v1, st1, frame, expr.rhs):
                if op == "/":
                    st2, v2, sank = self.dispatch(
                        "check_div", v2, st2, _new(PreStmtPoint, (frame.id, expr)),
                        expr, rv, make_node=False)
                    if sank:
                        continue
                out.append((self.fold_binary(op, lv, rv), st2, v2))
        return out

    def eval_short_circuit(self, via, state, frame, expr: BinaryOp):
        """A value-context `&&`/`||` forks on its left side as a branch
        condition does, as Clang lowers it into CFG branches: where the left
        side decides, the value is 0 for `&&` and 1 for `||`; elsewhere it is
        the right side's. As `cfg.lower_cond` does, parentheses and `!`s come
        off the left side, and each `!` flips which truth runs the right."""
        decided = 0 if expr.op == "&&" else 1  # the value where the left decides
        goes_on = not decided  # the left truth that runs the right side
        cond = strip_parens(expr.lhs)
        while cond.__class__ is UnaryOp and cond.op == "!":
            cond = strip_parens(cond.operand)
            goes_on = not goes_on
        out = []
        for truth, st, v in self.branch_split(via, state, frame, cond):
            if truth == goes_on:
                out.extend(self.eval(v, st, frame, expr.rhs))
            else:
                out.append((decided, st, v))
        return out

    def fold_binary(self, op: str, lv: SVal, rv: SVal) -> SVal:
        lv_int = lv.__class__ is int
        rv_int = rv.__class__ is int
        compare = COMPARISONS.get(op)
        if compare is not None:
            if lv_int and rv_int:
                return 1 if compare(lv, rv) else 0
            return UNKNOWN
        if lv_int and rv_int:
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if op == "/":
                if rv == 0:
                    return UNKNOWN  # a sink already fired when DivZero is on
                return _c_div(lv, rv)
        if op == "+":
            if isinstance(lv, SymExpr) and rv_int:
                return sym_add(lv, rv)
            if lv_int and isinstance(rv, SymExpr):
                return sym_add(rv, lv)
        if op == "-":
            if isinstance(lv, SymExpr) and rv_int:
                return sym_add(lv, -rv)
            if lv_int and isinstance(rv, SymExpr):
                return sym_add(sym_mul(rv, -1), lv)
        if op == "*":
            sym, const = None, None
            if isinstance(lv, SymExpr) and rv_int:
                sym, const = lv, rv
            elif lv_int and isinstance(rv, SymExpr):
                sym, const = rv, lv
            if sym is not None:
                product = sym_mul(sym, const)
                return 0 if product is None else product
        return UNKNOWN  # symbol-vs-symbol arithmetic is not modeled

    def eval_field(self, via, state, frame, expr: FieldAccess):
        if not expr.is_arrow:
            return self.read(via, state, frame, expr)
        out = []
        for pointer, st, v in self.pointer_outcomes(via, state, frame, expr, expr.base):
            if isinstance(pointer, LocVal):
                out.append((*self.load(st, _field_region(pointer.region, expr)), v))
            else:  # a field behind a symbolic pointer gets a fresh symbol
                out.append((self.conjure() if isinstance(pointer, SymExpr) else UNKNOWN,
                            st, v))
        return out

    def read(self, via, state, frame, expr: Node):
        """Load what `e.f` or `*p` holds; unknown where it points nowhere known."""
        return [(*self.load(st, region), v) if region is not None
                else (UNKNOWN, st, v)
                for region, st, v in self.lvalue_outcomes(via, state, frame, expr)]

    def eval_new(self, via, state, frame, expr: NewExpr):
        line, _ = expr.file.line_column(expr.begin)
        sym = self.conjure(f"new{line}_{self._conjure_counter + 1}")
        state = state.constrain(sym, RangeSet.singleton(0).complement())
        state, via, sank = self.dispatch(
            "check_post_new", via, state, _new(PreStmtPoint, (frame.id, expr)),
            expr, sym, make_node=False)
        if sank:
            return []
        return [(sym, state, via)]

    def eval_assign(self, via, state, frame, expr: Assign):
        lhs_type = expr.lhs.type
        if expr.op == "=" and self._is_struct_value(lhs_type):
            return [(*self._copy_struct(st1, dst, src), v1)
                    for src, st0, v0 in self.lvalue_outcomes(via, state, frame, expr.rhs)
                    for dst, st1, v1 in self.lvalue_outcomes(v0, st0, frame, expr.lhs)]
        out = []
        for rv, st0, v0 in self.eval(via, state, frame, expr.rhs):
            for region, st1, v1 in self.lvalue_outcomes(v0, st0, frame, expr.lhs):
                if region is None:
                    out.append((rv, st1, v1))
                    continue
                if expr.op == "+=":
                    if lhs_type is not None and lhs_type.base == "string":
                        result = self.conjure()
                    else:
                        current, st1 = self.load(st1, region)
                        result = self.fold_binary("+", current, rv)
                else:
                    result = UNKNOWN if isinstance(rv, UndefinedVal) else rv
                st2 = st1.bind(region, result)
                if lhs_type is not None and lhs_type.base == "string" \
                        and lhs_type.indirections == 0:
                    st2, v1, sank = self.post_call(v1, st2, frame, expr, region, result, [])
                    if sank:
                        continue
                out.append((result, st2, v1))
        return out

    def lvalue_outcomes(self, via, state, frame, expr: Node, access: bool = True):
        """Where `expr` points: (region or None, state, via) outcomes. A `.`
        resolves its base first; `*q` and `p->f` evaluate the pointer and,
        for an access, check it once. Any other expression, such as a call,
        is evaluated into a temporary of this frame."""
        expr = strip_parens(expr)
        if expr.__class__ is DeclRef:
            return [(self.decl_region(expr, frame), state, via)]
        if isinstance(expr, FieldAccess) and not expr.is_arrow:
            return [(_field_region(region, expr) if region is not None else None, st, v)
                    for region, st, v in self.lvalue_outcomes(
                        via, state, frame, expr.base, access)]
        if isinstance(expr, FieldAccess):
            base = expr.base
        elif isinstance(expr, UnaryOp) and expr.op == "*":
            base = expr.operand
        else:
            temp = _new(TempRegion, (expr, frame.id))
            return [(temp, _bind_object(st, temp, val), v)
                    for val, st, v in self.eval(via, state, frame, expr)]
        out = []
        for pointer, st, v in self.pointer_outcomes(via, state, frame, expr, base, access):
            region = pointer.region if isinstance(pointer, LocVal) else None
            if region is not None and isinstance(expr, FieldAccess):
                region = _field_region(region, expr)
            out.append((region, st, v))
        return out

    # --- calls ---

    def eval_method_call(self, via, state, frame, expr: MethodCall):
        method = expr.method
        if expr.is_arrow:
            receiver_outcomes = [
                (pointer.region if isinstance(pointer, LocVal) else None, st, v)
                for pointer, st, v in self.pointer_outcomes(
                    via, state, frame, expr, expr.receiver)]
        else:
            receiver_outcomes = self.lvalue_outcomes(via, state, frame, expr.receiver)
        out = []
        for region, st, v in receiver_outcomes:
            for args, st1, v1 in self.eval_args(v, st, frame, expr.args, method.params):
                st1, v1, sank = self.pre_call_checks(v1, st1, frame, expr, args)
                if sank:
                    continue
                ret = UNKNOWN
                if method.returns.base != "void":
                    ret = self.conjure(f"{expr.method_name}{self._conjure_counter + 1}")
                if method.invalidating and region is not None:
                    st1 = st1.bind(region, self.conjure())
                st2, v2, sank = self.post_call(
                    v1, self.invalidate_args(st1, args), frame, expr, region, ret, args)
                if sank:
                    continue
                out.append((ret, st2, v2))
        return out

    def eval_args(self, via, state, frame, arg_exprs, param_types):
        """Evaluate call arguments left to right: (list[(param_type, value,
        region)], state, via) outcomes. A reference argument is resolved to
        its region, not read."""
        outcomes = [([], state, via)]
        for i, arg in enumerate(arg_exprs):
            ptype = param_types[i] if i < len(param_types) else None
            if isinstance(ptype, ParamDecl):
                ptype = ptype.declared_type
            next_outcomes = []
            for collected, st, v in outcomes:
                if ptype is not None and ptype.is_reference:
                    for region, st1, v1 in self.lvalue_outcomes(
                            v, st, frame, arg, access=False):
                        next_outcomes.append((collected + [(ptype, None, region)], st1, v1))
                else:
                    for val, st1, v1 in self.eval(v, st, frame, arg):
                        next_outcomes.append((collected + [(ptype, val, None)], st1, v1))
            outcomes = next_outcomes
        return outcomes

    def pre_call_checks(self, via, state, frame, call: Node, args):
        for _, val, _ in args:
            if val is not None:  # a value, not a reference
                state, via, sank = self.dispatch_use(via, state, frame, call, val, "arg")
                if sank:
                    return state, via, True
        return state, via, False

    def eval_call(self, via, state, frame, expr: Call):
        decl = expr.callee.decl
        out = []
        for args, st, v in self.eval_args(via, state, frame, expr.args, decl.params):
            st, v, sank = self.pre_call_checks(v, st, frame, expr, args)
            if sank:
                continue
            can_inline = (isinstance(decl, FunctionDecl)
                          and frame.depth + 1 < self.config.inline_depth)
            if can_inline:
                out.extend(self.inline_call(v, st, frame, expr, decl, args))
            else:
                out.extend(self.conservative_call(v, st, frame, expr, decl, args))
        return out

    def conservative_call(self, via, state, frame, expr: Call, decl, args):
        """Unknown body: invalidate the arguments, conjure the result."""
        state = self.invalidate_args(state, args)
        ret: SVal = UNKNOWN
        if decl.return_type.base != "void" or decl.return_type.indirections:
            ret = self.conjure(f"{decl.name}{self._conjure_counter + 1}")
            state = self._constrain_fresh(state, ret, decl.return_type)
        state, via, sank = self.post_call(via, state, frame, expr, None, ret, args)
        if sank:
            return []
        return [(ret, state, via)]

    def invalidate_args(self, state: ProgramState, args) -> ProgramState:
        """Conjure new contents for all that a callee with an unknown body
        could write through its non-const reference and pointer arguments."""
        for ptype, val, region in args:
            if ptype is None or ptype.is_const:
                continue
            target = val.region if isinstance(val, LocVal) else region
            if target is None:
                continue
            rebinds = {r: self.conjure() for r in state.store if region_within(r, target)}
            if target not in rebinds:
                rebinds[target] = self.conjure()
            state = state.bind_many(rebinds)
        return state

    def inline_call(self, via, state, frame, expr: Call, callee: FunctionDecl, args):
        self._inlined.add(callee.node_id)
        new_frame = self.new_frame(callee, frame.depth + 1)
        enter_state = state
        for (_, val, region), param in zip(args, callee.params):
            if region is not None:  # a reference parameter aliases its argument
                new_frame.aliases[param.node_id] = region
            else:
                bound = val if val is not None else UNKNOWN
                if isinstance(bound, UndefinedVal):
                    bound = UNKNOWN
                enter_state = enter_state.bind(_new(VarRegion, (param, new_frame.id)), bound)
        enter_node, _ = self._graph.add(
            _new(CallEnterPoint, (new_frame.id,)), enter_state, via)
        cfg = new_frame.cfg = self.cfg_of(callee)
        root, _ = self._graph.add(
            _new(BlockEdgePoint, (-1, cfg.entry, new_frame.id)), enter_state, enter_node)
        out = []
        for exit_node in self.explore(new_frame, root):
            st = exit_node.state
            ret = st.lookup(_new(RetRegion, (new_frame.id,)))
            if ret is None:
                ret = UNKNOWN if callee.return_type.base == "void" else UNDEFINED
            # the callee's variables, fields and return slot, and its back edges
            dead_regions = frozenset(
                r for r in st.store if region_root(r).frame == new_frame.id)
            st = self._reap_with(st.unbind_where(dead_regions.__contains__),
                                 dead_regions)
            loops = {edge: count for edge, count in exit_node.loops.items()
                     if edge[2] != new_frame.id}
            exit_point = _new(CallExitPoint, (expr.node_id, frame.id))
            exit_n, _ = self._graph.add(exit_point, st, exit_node, loops)
            st, v2, sank = self.post_call(exit_n, st, frame, expr, None, ret, args)
            if sank:
                continue
            out.append((ret, st, v2))
        return out


def _field_region(base: MemRegion, expr: FieldAccess) -> FieldRegion:
    return _new(FieldRegion, (base, expr.field_decl))


def _bind_object(state: ProgramState, region: MemRegion, val: SVal,
                 fields=()) -> ProgramState:
    """A new object in `region`: its value and the field bindings `fields`,
    none of what its fields held before."""
    state = state.unbind_where(lambda r: r != region and region_within(r, region))
    return state.bind_many([(region, val), *fields])


def _remap_region(region: MemRegion, src: MemRegion, dst: MemRegion) -> MemRegion:
    """Rebuild `region`, replacing its `src` ancestor with `dst`."""
    if region == src:
        return dst
    assert isinstance(region, FieldRegion)
    return _new(FieldRegion, (_remap_region(region.parent, src, dst), region.field))


# --- graph dump ---------------------------------------------------------------

def dump_dot(graph: ExplodedGraph, title: str) -> str:
    """Graphviz rendering: every node shows its point, store bindings in the
    `name: value` style and the symbol range constraints."""
    lines = [f'digraph "{title}" {{', '  node [shape=box, fontname="monospace"];']
    for node in graph.nodes:
        label_parts = [node.point.describe()]
        if node.is_sink:
            label_parts[0] += " (sink)"
        bindings = [kv for kv in node.state.store.items()
                    if not isinstance(kv[0], RetRegion)]
        store_bits = [f"{region}: {val}" for region, val in
                      sorted(bindings, key=lambda kv: _region_sort_key(kv[0]))]
        if store_bits:
            label_parts.append(", ".join(store_bits))
        for sym, rng in sorted(node.state.constraints.items(), key=lambda kv: kv[0].id):
            label_parts.append(f"{sym} : {rng}")
        label = "\\l".join(p.replace('"', '\\"') for p in label_parts) + "\\l"
        lines.append(f'  n{node.seq} [label="{label}"];')
    for node in graph.nodes:
        for succ in node.succs:
            lines.append(f"  n{node.seq} -> n{succ.seq};")
    lines.append("}")
    return "\n".join(lines)


def _region_sort_key(region: MemRegion):
    if isinstance(region, FieldRegion):
        parent = _region_sort_key(region.parent)
        return (parent[0], 1, parent[2], region.field.name)
    node = region.expr if isinstance(region, TempRegion) else region.decl
    return (region.frame, 0, node.node_id, "")
