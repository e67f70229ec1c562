"""Checker registry and the builtin path-sensitive checkers.

MallocLite tracks new/delete allocation state and reports any use of a
released pointer symbol. InnerPointer records the raw buffer pointers handed
out by string c_str()/data(), hands them over to MallocLite's released set
when the string is invalidated, and relies on MallocLite's use detection.
DivZero reports divisions whose divisor is known to be zero on the path.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .diagnostics import Diagnostic, Severity
from .frontend.astnodes import Assign, Call, ExternDecl, MethodCall, Node
from .source import InternalError, SourceLocation, SourceRange
from .symexec.engine import CallInfo, CheckerContext, ExplodedNode, PostImplicitCallPoint
from .symexec.state import assume, ProgramState
from .symexec.values import (
    as_symbol, LocVal, MemRegion, region_type, SVal, Symbol,
)

_new = tuple.__new__  # a RefState per allocation and release skips the generated `__new__`

MALLOC_SLOT = "MallocLite.RegionState"
RAWPTR_SLOT = "InnerPointer.RawPtrMap"


# --- shared allocation state -------------------------------------------------

# Enum members are singletons, so they hash by identity, as symbols and AST
# nodes do; `Enum.__hash__` would hash the member's name in Python code.

class RefStatus(enum.Enum):
    ALLOCATED = "allocated"
    RELEASED = "released"

    __hash__ = object.__hash__


class AllocationFamily(enum.Enum):
    HEAP = "heap"
    INNER_BUFFER = "inner buffer"

    __hash__ = object.__hash__


class RefState(NamedTuple):
    status: RefStatus
    family: AllocationFamily
    # The statement that allocated or released, None for a release by a
    # destructor. No code reads it, but it is part of the state's identity,
    # as the statement is in Clang's `RefState::Profile`: two paths that
    # freed one pointer at different `delete`s stay two states, so a later
    # double free is reported on each path instead of once after a merge.
    origin: Node | None = None

    @staticmethod
    def allocated(family: AllocationFamily, origin: Node | None) -> "RefState":
        return _new(RefState, (RefStatus.ALLOCATED, family, origin))

    @staticmethod
    def released(family: AllocationFamily, origin: Node | None) -> "RefState":
        return _new(RefState, (RefStatus.RELEASED, family, origin))


# The state of an inner buffer released by a destructor, which has no
# statement of its own.
_DTOR_RELEASED = RefState.released(AllocationFamily.INNER_BUFFER, None)


def get_container_obj_region(state: ProgramState, sym: Symbol) -> MemRegion | None:
    """The region whose recorded buffer-pointer set contains `sym`."""
    for region, ptr_set in state.slot(RAWPTR_SLOT).items():
        if sym in ptr_set:
            return region
    return None


def is_symbol_tracked(state: ProgramState, sym: Symbol) -> bool:
    return get_container_obj_region(state, sym) is not None


# --- bug reports ---------------------------------------------------------------

class BugReport:
    def __init__(self, message: str, check_name: str, location: SourceLocation,
                 highlight: SourceRange | None = None, visitors: list | None = None,
                 error_node: object = None, graph: object = None):
        self.message = message
        self.check_name = check_name
        self.location = location
        self.highlight = highlight
        self.visitors = [] if visitors is None else visitors
        self.error_node = error_node  # set by the engine; always a sink
        self.graph = graph  # set by the engine: the exploded graph holding error_node

    def add_visitor(self, visitor) -> None:
        self.visitors.append(visitor)


def assemble_bug_path(report: BugReport) -> Diagnostic:
    """The report as a warning whose notes are its path events in
    chronological order: from the error node, walk the predecessor chain
    backwards, ask each visitor at every node until it gives its note, then
    flip the order. The walk ends once every visitor has given one."""
    error_node = report.error_node
    nodes = report.graph.nodes
    if (error_node is None or error_node.seq >= len(nodes)
            or nodes[error_node.seq] is not error_node):
        raise InternalError("report's error node is not part of the graph")
    notes: list[Diagnostic] = []
    waiting = report.visitors
    node = error_node
    while waiting and node is not None:
        pred = node.pred
        still = []
        for visitor in waiting:
            note = visitor.visit_node(node, pred)
            if note is None:
                still.append(visitor)
            else:
                notes.append(note)
        waiting = still
        node = pred
    notes.reverse()
    return Diagnostic(report.location, report.message, Severity.WARNING,
                      report.check_name, attached_notes=notes,
                      highlight=report.highlight)


# --- bug-path visitors ------------------------------------------------------------
# Each is asked at every node, walking backward from the error node, until it
# returns its one note: the first (latest) node where its event happened.

class MallocBugVisitor:
    """Notes the moment the tracked symbol's allocation state turned released."""

    def __init__(self, sym: Symbol):
        self.sym = sym

    def visit_node(self, node: ExplodedNode, pred: ExplodedNode | None) -> Diagnostic | None:
        ref = node.state.slot(MALLOC_SLOT).get(self.sym)
        if ref is None or ref.status is not RefStatus.RELEASED:
            return None
        if pred is not None:
            prev = pred.state.slot(MALLOC_SLOT).get(self.sym)
            if prev is not None and prev.status is RefStatus.RELEASED:
                return None  # not the transition node yet
        if ref.family is not AllocationFamily.INNER_BUFFER:
            message = "Memory is released"
        elif isinstance(node.point, PostImplicitCallPoint):
            message = (f"Inner buffer of '{_container_name(pred, self.sym)}' "
                       "deallocated by call to destructor")
        else:
            message = (f"Inner buffer of '{_container_name(pred, self.sym)}' "
                       f"reallocated by call to '{_callee_name(node)}'")
        return Diagnostic(_point_location(node), message, Severity.NOTE)


class InnerPointerBRVisitor:
    """Notes the point where the later-dangling buffer pointer was obtained."""

    def __init__(self, sym: Symbol):
        self.sym = sym

    def visit_node(self, node: ExplodedNode, pred: ExplodedNode | None) -> Diagnostic | None:
        if not is_symbol_tracked(node.state, self.sym) or (
                pred is not None and is_symbol_tracked(pred.state, self.sym)):
            return None
        return Diagnostic(
            _point_location(node),
            f"Pointer to inner buffer of '{_container_name(node, self.sym)}' obtained here",
            Severity.NOTE)


def _container_name(node: ExplodedNode | None, sym: Symbol) -> str:
    """The type of the string whose buffer `sym` points into at `node`."""
    region = get_container_obj_region(node.state, sym) if node is not None else None
    rtype = region_type(region) if region is not None else None
    return "container" if rtype is None else str(rtype)


def _point_location(node: ExplodedNode) -> SourceLocation:
    point = node.point
    if isinstance(point, PostImplicitCallPoint):
        return point.loc
    stmt = getattr(point, "node", None)
    if stmt is not None:
        return stmt.range.begin
    raise InternalError(f"no source location for point {point.describe()}")


def _callee_name(node: ExplodedNode) -> str:
    stmt = getattr(node.point, "node", None)
    if isinstance(stmt, MethodCall):
        return stmt.method_name
    if isinstance(stmt, Assign):
        return "operator" + stmt.op
    if isinstance(stmt, Call):
        return stmt.callee.name
    return "unknown"


# --- call classification ----------------------------------------------------------

def is_invalidating_member_function(call: CallInfo) -> bool:
    """True for the standard's invalidating string operations: the non-const
    methods (minus the element accessors) and operator= / operator+=, the
    only string assignments; false for c_str, data, size, empty, at, front,
    back and for function calls."""
    node = call.node
    return isinstance(node, Assign) or (isinstance(node, MethodCall)
                                        and node.method.invalidating)


# --- the checkers ----------------------------------------------------------------

class Checker:
    state_slots: tuple[str, ...] = ()


class MallocLite(Checker):
    state_slots = (MALLOC_SLOT,)

    # allocation --------------------------------------------------------------

    def check_post_new(self, ctx: CheckerContext, expr: Node, sym: Symbol) -> None:
        ctx.add_transition(ctx.state.update_slot(
            MALLOC_SLOT, {sym: RefState.allocated(AllocationFamily.HEAP, expr)}))

    def check_pre_delete(self, ctx: CheckerContext, stmt: Node, val: SVal) -> None:
        sym = as_symbol(val)
        if sym is None:
            if isinstance(val, LocVal):
                ctx.emit_report(BugReport(
                    "argument is not memory allocated by new",
                    "unix.MallocLite", stmt.range.begin, stmt.range))
            return
        ref = ctx.state.slot(MALLOC_SLOT).get(sym)
        if ref is None:
            return  # unknown origin: stay quiet
        if ref.status is RefStatus.RELEASED:
            ctx.emit_report(BugReport(
                "Attempt to free released memory",
                "unix.MallocLite", stmt.range.begin, stmt.range))
            return
        ctx.add_transition(ctx.state.update_slot(
            MALLOC_SLOT, {sym: RefState.released(ref.family, stmt)}))

    # use detection -------------------------------------------------------------

    def check_use(self, ctx: CheckerContext, node: Node, val: SVal, kind: str) -> None:
        sym = as_symbol(val)
        if sym is None:
            return
        ref = ctx.state.slot(MALLOC_SLOT).get(sym)
        if ref is not None and ref.status is RefStatus.RELEASED:
            self.handle_use_after_free(ctx, node.range, sym, ref)

    def handle_use_after_free(self, ctx: CheckerContext, rng: SourceRange,
                              sym: Symbol, ref: RefState) -> None:
        inner = ref.family is AllocationFamily.INNER_BUFFER
        report = BugReport(
            "Inner pointer of container used after re/deallocation" if inner
            else "Use of memory after it is freed",
            "cplusplus.InnerPointer" if inner else "unix.MallocLite",
            rng.begin, rng)
        report.add_visitor(MallocBugVisitor(sym))
        if inner:
            report.add_visitor(InnerPointerBRVisitor(sym))
        ctx.emit_report(report)

    # hygiene ---------------------------------------------------------------------

    def check_dead_symbols(self, ctx: CheckerContext, dead: frozenset,
                           dead_regions: frozenset) -> None:
        mapping = ctx.state.slot(MALLOC_SLOT)
        doomed = {sym: None for sym in dead if sym in mapping}
        if doomed:
            ctx.add_transition(ctx.state.update_slot(MALLOC_SLOT, doomed))


class InnerPointer(Checker):
    state_slots = (RAWPTR_SLOT,)

    def check_post_call(self, ctx: CheckerContext, call: CallInfo) -> None:
        state = ctx.state
        node, region = call.node, call.receiver_region
        if region is not None:  # a method call or a string assignment
            if isinstance(node, MethodCall) and node.method.buffer_obtaining:
                sym = as_symbol(call.ret_val)
                if sym is None:
                    return  # result not symbol-convertible
                ptr_set = state.slot(RAWPTR_SLOT).get(region, frozenset())
                ctx.add_transition(state.update_slot(
                    RAWPTR_SLOT, {region: ptr_set | {sym}}))
                return
            if is_invalidating_member_function(call):
                state = self.mark_ptr_symbols_released(state, region, node)
        state = self.release_reference_arguments(state, call)
        if state is not ctx.state:
            ctx.add_transition(state)

    @staticmethod
    def mark_ptr_symbols_released(state: ProgramState, region: MemRegion,
                                  origin: Node | None) -> ProgramState:
        """Hand the buffer symbols recorded for `region` over to MallocLite
        in released state and forget the region, in one transition. The new
        state only joins the graph once the caller's addTransition commits
        it."""
        ptr_set = state.slot(RAWPTR_SLOT).get(region)
        if ptr_set is None:
            return state  # nobody asked for a buffer pointer: nothing to do
        released = _DTOR_RELEASED if origin is None else RefState.released(
            AllocationFamily.INNER_BUFFER, origin)
        return state.update_slots({MALLOC_SLOT: dict.fromkeys(ptr_set, released),
                                   RAWPTR_SLOT: {region: None}})

    def release_reference_arguments(self, state: ProgramState,
                                    call: CallInfo) -> ProgramState:
        # Clang's checkFunctionArguments; `check_*` names are hooks only.
        # Unknown-body library calls only: externs, plus the builtin string
        # methods (swap takes string&). Inlined user functions are simulated.
        node = call.node
        if not (isinstance(node, MethodCall) or (
                isinstance(node, Call) and isinstance(node.callee.decl, ExternDecl))):
            return state
        for param_type, _, region in call.args:
            if region is not None and not param_type.is_const:  # a non-const reference
                state = self.mark_ptr_symbols_released(state, region, node)
        return state

    def check_implicit_dtor(self, ctx: CheckerContext, element,
                            region: MemRegion) -> None:
        state = self.mark_ptr_symbols_released(ctx.state, region, None)
        if state is not ctx.state:
            ctx.add_transition(state)

    def check_dead_symbols(self, ctx: CheckerContext, dead: frozenset,
                           dead_regions: frozenset) -> None:
        changes = {}
        for region, ptr_set in ctx.state.slot(RAWPTR_SLOT).items():
            trimmed = ptr_set - dead
            if region in dead_regions or not trimmed:
                changes[region] = None
            elif trimmed != ptr_set:
                changes[region] = trimmed
        if changes:
            ctx.add_transition(ctx.state.update_slot(RAWPTR_SLOT, changes))


class DivZero(Checker):
    def check_div(self, ctx: CheckerContext, expr: Node, divisor: SVal) -> None:
        # As Clang's DivZeroChecker: the divisor is zero on this path when it
        # cannot be non-zero; otherwise the path goes on knowing it is not.
        refined = assume(ctx.state, divisor, True)
        if refined is None:
            loc = getattr(expr, "op_loc", expr.range.begin)
            ctx.emit_report(BugReport("Division by zero", "core.DivideZero", loc,
                                      expr.range))
        elif refined is not ctx.state:
            ctx.add_transition(refined)


# --- registry ----------------------------------------------------------------------

class CheckerDescriptor(NamedTuple):
    factory: type[Checker]
    help: str
    dependencies: tuple[str, ...] = ()


# "package.Name" -> descriptor
CHECKERS = {
    "core.DivideZero": CheckerDescriptor(DivZero, "Check for division by zero"),
    "cplusplus.InnerPointer": CheckerDescriptor(
        InnerPointer,
        "Check for inner pointers of C++ containers used after re/deallocation",
        dependencies=("unix.MallocLite",)),
    "unix.MallocLite": CheckerDescriptor(
        MallocLite,
        "Check for double release and use of memory after it is released"),
}

DEFAULT_CHECKERS = tuple(sorted(CHECKERS))


class UnknownCheckerError(KeyError):
    pass


def registry_list() -> str:
    """The --analyzer-checker-help text."""
    lines = [
        "OVERVIEW: MiniLang Static Analyzer Checkers List",
        "",
        "USAGE: --checker <CHECKER or PACKAGE,...>",
        "",
        "CHECKERS:",
    ]
    width = max(len(name) for name in CHECKERS) + 4
    for name in sorted(CHECKERS):
        lines.append(f"  {name.ljust(width)}{CHECKERS[name].help}")
    return "\n".join(lines)


def resolve_enabled(names) -> list[str]:
    """Requested checkers plus their dependency closure, sorted by name."""
    enabled: set[str] = set()

    def add(name: str):
        if name not in CHECKERS:
            raise UnknownCheckerError(name)
        if name in enabled:
            return
        enabled.add(name)
        for dep in CHECKERS[name].dependencies:
            add(dep)

    for name in names:
        add(name)
    return sorted(enabled)


def make_checkers(names=None) -> list[Checker]:
    enabled = resolve_enabled(names if names is not None else DEFAULT_CHECKERS)
    return [CHECKERS[name].factory() for name in enabled]
