"""Lint framework and the redundant-pointer check.

The check watches pointer locals that carry an initializer, classifies each
reference of them (plain use, dereference, dereference that initializes
another variable, null guard), and at end of unit either inlines a
single-use pointer's initializer or, under --std=17, rewrites the
guard + initializing-dereference pair into an if-scoped pointer.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Sequence

from . import matchers as M
from .diagnostics import (  # noqa: F401  (re-exported framework surface)
    apply_fixes, Diagnostic, emit_diag, FixIt, format_message,
    render_diagnostic, Severity,
)
from .frontend import node_text
from .frontend.astnodes import DeclRef, IfStmt, Node, VarDecl
from .source import InternalError, SourceFile, SourceRange


class UsageKind(enum.IntEnum):
    # Order encodes specialization: higher replaces lower for the same ref.
    NORMAL = 0
    DEREFERENCE = 1
    DEREF_INIT = 2
    GUARD = 3


class VarUsage:
    def __init__(self, usage_kind: UsageKind, decl_ref: DeclRef,
                 deref_expr: Node | None = None, inited_var: VarDecl | None = None,
                 guard_if: IfStmt | None = None):
        assert (deref_expr is not None) == (
            usage_kind in (UsageKind.DEREFERENCE, UsageKind.DEREF_INIT))
        assert (inited_var is not None) == (usage_kind is UsageKind.DEREF_INIT)
        assert (guard_if is not None) == (usage_kind is UsageKind.GUARD)
        self.usage_kind = usage_kind
        self.decl_ref = decl_ref
        self.deref_expr = deref_expr  # DEREFERENCE, DEREF_INIT
        self.inited_var = inited_var  # DEREF_INIT
        self.guard_if = guard_if  # GUARD


def _specializes(new: UsageKind, old: UsageKind) -> bool:
    if old is UsageKind.NORMAL:
        return new is not UsageKind.NORMAL
    return old is UsageKind.DEREFERENCE and new is UsageKind.DEREF_INIT


# --- check framework --------------------------------------------------------

class TidyCheck:
    """Base class: subclasses register matchers and consume match results."""

    name = ""

    def register_matchers(self) -> Sequence[M.Matcher]:
        raise NotImplementedError

    def check(self, result: M.MatchResult) -> None:
        raise NotImplementedError

    def on_end_of_translation_unit(self) -> list[Diagnostic]:
        return []


def run_checks(unit, file: SourceFile, checks: list[TidyCheck]) -> list[Diagnostic]:
    """Match every check's matchers in one pass over the unit, calling each
    check back in (pre-order of the matched node, matcher index) order, then
    collect end-of-unit diagnostics, ordered by (offset of primary location,
    emission order)."""
    registered = [(check, matcher) for check in checks
                  for matcher in check.register_matchers()]
    for index, result in M.match_all([matcher for _, matcher in registered], unit):
        registered[index][0].check(result)
    diags: list[Diagnostic] = []
    for check in checks:
        diags.extend(check.on_end_of_translation_unit())
    diags.sort(key=lambda d: d.location.offset)  # stable: emission order breaks ties
    return diags


# --- the redundant pointer check ---------------------------------------------

CHECK_NAME = "readability-redundant-pointer"

_DEFAULT_CONSTRUCTIBLE_BASES = ("int", "bool", "char", "string")


def _redundant_pointer_matchers() -> tuple[M.Matcher, ...]:
    pointer_var = M.varDecl(M.hasType(M.pointerType()), M.hasInitializer(M.expr()))
    var_usage = M.declRefExpr(M.to(pointer_var))
    member_usage = M.memberExpr(M.hasDescendant(var_usage.bind("DerefdVar")))
    dereference = M.stmt(M.anyOf(
        member_usage.bind("DerefUsage"),
        M.methodCallExpr(M.has(member_usage)).bind("DerefUsage"),
        M.unaryOperator(M.hasOperatorName("*"),
                        M.hasDescendant(var_usage.bind("DerefdVar"))).bind("DerefUsage"),
    ))
    var_init_from_deref = M.varDecl(
        M.hasInitializer(M.ignoringParens(dereference))).bind("InitedVar")
    flow_breaking = M.stmt(M.anyOf(
        M.returnStmt(), M.continueStmt(), M.breakStmt(),
        M.has(M.callExpr(M.callee(M.functionDecl(M.isNoReturn())))),
    )).bind("EarlyReturn")
    guard = M.ifStmt(
        M.hasCondition(M.allOf(
            M.hasDescendant(var_usage.bind("UsedVar")),
            M.unless(M.hasDescendant(dereference)),
        )),
        M.hasThen(M.anyOf(
            flow_breaking,
            M.compoundStmt(M.statementCountIs(1),
                           M.hasAnySubstatement(flow_breaking)),
        )),
        M.unless(M.hasElse(M.stmt())),
    ).bind("GuardStmt")
    return (
        guard,
        var_init_from_deref,
        dereference,
        var_usage.bind("PlainUsage"),
    )


# Independent of the file and of --std, so built once.
_MATCHERS = _redundant_pointer_matchers()


class RedundantPointerCheck(TidyCheck):
    name = CHECK_NAME

    def __init__(self, file: SourceFile, std: int = 14, structs: dict | None = None):
        self.file = file
        self.std = std
        self.structs = structs or {}
        # each pointer's usages, one per reference of it
        self.usages: dict[VarDecl, dict[DeclRef, VarUsage]] = {}

    def register_matchers(self) -> Sequence[M.Matcher]:
        return _MATCHERS

    def add_usage(self, usage: VarUsage) -> None:
        """Record `usage`, unless its reference already has a usage at least
        as specialized."""
        ref = usage.decl_ref
        assert isinstance(ref.decl, VarDecl), "usage of an untracked declaration"
        refs = self.usages.setdefault(ref.decl, {})
        old = refs.get(ref)
        if old is None or _specializes(usage.usage_kind, old.usage_kind):
            refs[ref] = usage

    # most specialized result first, each branch returns after handling
    def check(self, result: M.MatchResult) -> None:
        guard = M.getBound(result, "GuardStmt", IfStmt)
        if guard is not None:
            flow = M.getBound(result, "EarlyReturn", Node)
            ref = M.getBound(result, "UsedVar", DeclRef)
            if flow is None or ref is None:
                raise InternalError("guard match without its bindings")
            self.add_usage(VarUsage(UsageKind.GUARD, ref, guard_if=guard))
            return
        inited = M.getBound(result, "InitedVar", VarDecl)
        if inited is not None:
            deref = M.getBound(result, "DerefUsage", Node)
            ref = M.getBound(result, "DerefdVar", DeclRef)
            if deref is None or ref is None:
                raise InternalError("init match without its bindings")
            self.add_usage(VarUsage(UsageKind.DEREF_INIT, ref,
                                    deref_expr=deref, inited_var=inited))
            return
        deref = M.getBound(result, "DerefUsage", Node)
        if deref is not None:
            ref = M.getBound(result, "DerefdVar", DeclRef)
            if ref is None:
                raise InternalError("dereference match without its bindings")
            self.add_usage(VarUsage(UsageKind.DEREFERENCE, ref, deref_expr=deref))
            return
        ref = M.getBound(result, "PlainUsage", DeclRef)
        if ref is not None:
            self.add_usage(VarUsage(UsageKind.NORMAL, ref))
            return

    # --- end-of-unit decisions ---

    def on_end_of_translation_unit(self) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        for decl in sorted(self.usages, key=lambda d: d.begin):
            usages = sorted(self.usages[decl].values(), key=lambda u: u.decl_ref.begin)
            if len(usages) >= 3:
                continue
            if len(usages) == 1:
                diags.append(self._inline_single_use(decl, usages[0]))
                continue
            guards = [u for u in usages if u.usage_kind is UsageKind.GUARD]
            inits = [u for u in usages if u.usage_kind is UsageKind.DEREF_INIT]
            if (len(guards) == 1 and len(inits) == 1 and self.std >= 17
                    and self._rewritable_var(inits[0].inited_var)
                    and guards[0].decl_ref.begin < inits[0].decl_ref.begin):
                try:
                    diags.extend(self.build_guard_rewrite(decl, guards[0], inits[0]))
                except InternalError:
                    pass  # a source range was unobtainable: emit nothing for p
        return diags

    def _rewritable_var(self, var: VarDecl) -> bool:
        # default-constructible and assignable: a non-const value type
        t = var.declared_type
        if t.is_const or t.indirections > 0:
            return False
        return t.base in _DEFAULT_CONSTRUCTIBLE_BASES or t.base in self.structs

    def _inline_single_use(self, decl: VarDecl, usage: VarUsage) -> Diagnostic:
        warning = emit_diag(
            decl.name_loc, "redundant pointer variable with only one usage",
            (), Severity.WARNING, CHECK_NAME,
            fixits=[FixIt.removal(statement_range(decl, self.file))],
            highlight=decl.range)
        ref_range = usage.decl_ref.range
        note = emit_diag(
            ref_range.begin, "pointer usage location", (),
            Severity.NOTE, CHECK_NAME,
            fixits=[FixIt.replacement(ref_range, f"({node_text(decl.init)})")],
            highlight=ref_range)
        warning.attached_notes.append(note)
        return warning

    def build_guard_rewrite(self, decl: VarDecl, guard: VarUsage,
                            init: VarUsage) -> list[Diagnostic]:
        var = init.inited_var
        cond = guard.guard_if.cond
        hoisted = f"{var.declared_type} {var.name};"
        new_cond = (f"{node_text(decl)}; ({node_text(cond)}) || "
                    f"(({var.name} = {node_text(init.deref_expr)}), false)")
        cond_range = cond.range
        d1 = emit_diag(
            decl.name_loc, "redundant pointer variable declared", (),
            Severity.WARNING, CHECK_NAME,
            fixits=[FixIt.replacement(statement_range(decl, self.file, widen=False),
                                      hoisted)],
            highlight=decl.range)
        d2 = emit_diag(
            var.name_loc, "after swap, the initialisation is not needed at this location",
            (), Severity.NOTE, CHECK_NAME,
            fixits=[FixIt.removal(statement_range(var, self.file))],
            highlight=var.range)
        d1.attached_notes.append(d2)
        d3 = emit_diag(
            guard.guard_if.range.begin,
            "rewrite the conditional to C++17 initialise the pointer", (),
            Severity.WARNING, CHECK_NAME,
            fixits=[FixIt.replacement(cond_range, new_cond)],  # if's outer () stay
            highlight=cond_range)
        return [d1, d3]


# whitespace and `//` comments up to a declaration's ';'
_TO_SEMICOLON = re.compile(r"(?:\s|//[^\n]*)*;")


def statement_range(decl: VarDecl, file: SourceFile, widen: bool = True) -> SourceRange:
    """The declaration statement's extent: declaration plus its trailing ';'.

    With `widen`, grows to the whole line when nothing else shares it, so a
    removal does not leave a blank line behind.
    """
    text = file.text
    semicolon = _TO_SEMICOLON.match(text, decl.end)
    if semicolon is None:
        raise InternalError("declaration statement without trailing ';'")
    end = semicolon.end()
    begin = decl.begin
    if widen:
        line_start = text.rfind("\n", 0, begin) + 1
        line_end = text.find("\n", end)
        line_end = len(text) if line_end < 0 else line_end + 1
        if text[line_start:begin].strip() == "" and text[end:line_end].strip() == "":
            begin, end = line_start, line_end
    return SourceRange(file.location(begin), file.location(end))


# check name -> check class
CHECKS = {CHECK_NAME: RedundantPointerCheck}


def make_checks(names: list[str] | None, file: SourceFile, std: int,
                structs: dict | None = None) -> list[TidyCheck]:
    """One fresh instance of each named check, all of them for None; an
    unknown name raises KeyError."""
    return [CHECKS[name](file, std, structs)
            for name in (CHECKS if names is None else names)]
