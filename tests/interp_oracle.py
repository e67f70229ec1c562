"""Concrete MiniLang interpreter used as the tests' independent oracle.

It shares only the frontend with the analyzers: statements are executed over
real Python values, extern functions are stubbed by the test, and the
observable outcome is (return value, extern call trace, branch decisions).
This lets tests compare original versus rewritten programs and replay
engine-claimed paths without touching the symbolic machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from minilang.frontend.astnodes import (
    AddressOf, Assign, BinaryOp, Block, BoolLit, BreakStmt, Call, ContinueStmt,
    DeclRef, DeleteStmt, ExprStmt, ExternDecl, FieldAccess, FunctionDecl,
    IfStmt, IntLit, MethodCall, NewExpr, Node, Paren, ReturnStmt, StringLit,
    UnaryOp, VarDecl, WhileStmt,
)


class InterpError(Exception):
    pass


class Cell:
    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = value


class Instance:
    def __init__(self, struct_name: str, fields: dict | None = None):
        self.struct_name = struct_name
        self.fields = {k: Cell(v) for k, v in (fields or {}).items()}
        self.alive = True

    def cell(self, name: str) -> Cell:
        if not self.alive:
            raise InterpError("field access on deleted object")
        if name not in self.fields:
            self.fields[name] = Cell(0)
        return self.fields[name]


class StrBox:
    def __init__(self, text: str = ""):
        self.text = text
        self.version = 0

    def mutate(self, text: str):
        self.text = text
        self.version += 1


@dataclass(frozen=True)
class BufHandle:
    box: StrBox
    version: int

    @property
    def dangling(self) -> bool:
        return self.box.version != self.version


@dataclass
class Outcome:
    ret: object
    extern_trace: list = field(default_factory=list)
    branch_trace: list = field(default_factory=list)  # (cond node_id, truth)
    error: str | None = None

    @property
    def returned(self) -> bool:
        return self.ret is not _FELL_OFF


_FELL_OFF = object()


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def _default_value(type_ref):
    if type_ref.indirections > 0:
        return None
    if type_ref.base == "string":
        return StrBox()
    if type_ref.base == "bool":
        return False
    if type_ref.base in ("int", "char"):
        return 0
    return Instance(type_ref.base)


def _render(value):
    if isinstance(value, Instance):
        return ("obj", value.struct_name)
    if isinstance(value, StrBox):
        return ("str", value.text)
    if isinstance(value, BufHandle):
        return ("buf",)
    if value is None:
        return "null"
    return value


class Interpreter:
    def __init__(self, unit, externs: dict | None = None, max_steps: int = 200_000):
        self.unit = unit
        self.externs = externs or {}
        self.outcome = Outcome(_FELL_OFF)
        self.max_steps = max_steps
        self._steps = 0

    # --- driving ---

    def call_function(self, name: str, args: tuple = ()):  # -> return value
        fn = self.unit.functions.get(name)
        if fn is None or isinstance(fn, ExternDecl):
            raise InterpError(f"no function body for {name!r}")
        return self._call(fn, [self._to_cell(fn, i, a) for i, a in enumerate(args)])

    def _to_cell(self, fn, index, arg):
        return arg if isinstance(arg, Cell) else Cell(arg)

    def _tick(self):
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpError("interpreter step budget exceeded")

    def _call(self, fn: FunctionDecl, arg_cells: list[Cell]):
        scope = [{}]
        for param, cell in zip(fn.params, arg_cells):
            if param.declared_type.is_reference:
                scope[0][param.name] = cell
            else:
                scope[0][param.name] = Cell(cell.value)
        try:
            self.exec_block(fn.body, scope)
        except _Return as ret:
            return ret.value
        return _FELL_OFF

    # --- scopes ---

    @staticmethod
    def lookup(scope, name: str) -> Cell:
        for frame in reversed(scope):
            if name in frame:
                return frame[name]
        raise InterpError(f"unbound variable {name!r}")

    # --- statements ---

    def exec_block(self, block: Block, scope):
        scope.append({})
        try:
            for stmt in block.stmts:
                self.exec_stmt(stmt, scope)
        finally:
            scope.pop()

    def exec_stmt(self, stmt: Node, scope):
        self._tick()
        if isinstance(stmt, VarDecl):
            if stmt.init is not None:
                value = self.eval(stmt.init, scope)
            else:
                value = _default_value(stmt.declared_type)
            scope[-1][stmt.name] = Cell(value)
        elif isinstance(stmt, ExprStmt):
            self.eval(stmt.expr, scope)
        elif isinstance(stmt, Block):
            self.exec_block(stmt, scope)
        elif isinstance(stmt, IfStmt):
            scope.append({})
            try:
                if stmt.init is not None:
                    self.exec_stmt(stmt.init, scope)
                cond = bool(self.eval(stmt.cond, scope))
                self.outcome.branch_trace.append((stmt.cond.node_id, cond))
                if cond:
                    self.exec_stmt(stmt.then_branch, scope)
                elif stmt.else_branch is not None:
                    self.exec_stmt(stmt.else_branch, scope)
            finally:
                scope.pop()
        elif isinstance(stmt, WhileStmt):
            while True:
                cond = bool(self.eval(stmt.cond, scope))
                self.outcome.branch_trace.append((stmt.cond.node_id, cond))
                if not cond:
                    break
                try:
                    self.exec_stmt(stmt.body, scope)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, ReturnStmt):
            raise _Return(self.eval(stmt.value, scope) if stmt.value else None)
        elif isinstance(stmt, BreakStmt):
            raise _Break()
        elif isinstance(stmt, ContinueStmt):
            raise _Continue()
        elif isinstance(stmt, DeleteStmt):
            target = self.eval(stmt.operand, scope)
            if isinstance(target, Instance):
                target.alive = False
            elif target is not None:
                raise InterpError("delete of a non-object")
        else:
            raise InterpError(f"cannot execute {stmt.kind}")

    # --- expressions ---

    def eval(self, expr: Node, scope):
        self._tick()
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, StringLit):
            return StrBox(expr.value)
        if isinstance(expr, Paren):
            return self.eval(expr.inner, scope)
        if isinstance(expr, DeclRef):
            return self.lvalue(expr, scope).value
        if isinstance(expr, AddressOf):
            return self.lvalue(expr.operand, scope)
        if isinstance(expr, UnaryOp):
            if expr.op == "!":
                value = self.eval(expr.operand, scope)
                if value is None or isinstance(value, (Instance, Cell)):
                    return value is None
                return not value
            if expr.op == "-":
                return -self.eval(expr.operand, scope)
            return self.lvalue(expr, scope).value  # dereference
        if isinstance(expr, BinaryOp):
            return self.eval_binary(expr, scope)
        if isinstance(expr, Assign):
            cell = self.lvalue(expr.lhs, scope)
            rhs = self.eval(expr.rhs, scope)
            if expr.op == "+=":
                if isinstance(cell.value, StrBox):
                    cell.value.mutate(cell.value.text + _text_of(rhs))
                    return cell.value
                cell.value = cell.value + rhs
                return cell.value
            if isinstance(cell.value, StrBox) and isinstance(rhs, StrBox):
                cell.value.mutate(rhs.text)
                return cell.value
            cell.value = rhs
            return rhs
        if isinstance(expr, FieldAccess):
            return self.lvalue(expr, scope).value
        if isinstance(expr, MethodCall):
            return self.eval_method(expr, scope)
        if isinstance(expr, Call):
            return self.eval_call(expr, scope)
        if isinstance(expr, NewExpr):
            return Instance(expr.type_name)
        raise InterpError(f"cannot evaluate {expr.kind}")

    def lvalue(self, expr: Node, scope) -> Cell:
        expr_stripped = expr
        while isinstance(expr_stripped, Paren):
            expr_stripped = expr_stripped.inner
        expr = expr_stripped
        if isinstance(expr, DeclRef):
            return self.lookup(scope, expr.name)
        if isinstance(expr, UnaryOp) and expr.op == "*":
            target = self.eval(expr.operand, scope)
            if target is None:
                raise InterpError("null dereference")
            if isinstance(target, Cell):
                return target
            raise InterpError("dereference of a non-pointer value")
        if isinstance(expr, FieldAccess):
            base = self.eval(expr.base, scope)
            if expr.is_arrow:
                if base is None:
                    raise InterpError("null dereference")
                if isinstance(base, Cell):
                    base = base.value
            if not isinstance(base, Instance):
                raise InterpError("field access on a non-struct value")
            return base.cell(expr.field_name)
        raise InterpError(f"not an lvalue: {expr.kind}")

    def eval_binary(self, expr: BinaryOp, scope):
        op = expr.op
        if op == ",":
            self.eval(expr.lhs, scope)
            return self.eval(expr.rhs, scope)
        if op == "&&":
            return bool(self.eval(expr.lhs, scope)) and bool(self.eval(expr.rhs, scope))
        if op == "||":
            return bool(self.eval(expr.lhs, scope)) or bool(self.eval(expr.rhs, scope))
        lhs = self.eval(expr.lhs, scope)
        rhs = self.eval(expr.rhs, scope)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0:
                raise InterpError("division by zero")
            q = abs(lhs) // abs(rhs)
            return -q if (lhs < 0) != (rhs < 0) else q
        if op in ("==", "!="):
            if isinstance(lhs, (Instance, Cell)) or isinstance(rhs, (Instance, Cell)) \
                    or lhs is None or rhs is None:
                same = lhs is rhs or (lhs is None and rhs == 0) or (rhs is None and lhs == 0)
                same = same or (lhs == 0 and rhs is None) or (lhs is None and rhs is None)
                return same if op == "==" else not same
            return (lhs == rhs) if op == "==" else (lhs != rhs)
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        raise InterpError(f"unknown operator {op!r}")

    def eval_method(self, expr: MethodCall, scope):
        receiver = self.eval(expr.receiver, scope)
        if expr.is_arrow:
            if receiver is None:
                raise InterpError("null dereference")
            if isinstance(receiver, Cell):
                receiver = receiver.value
        if not isinstance(receiver, StrBox):
            raise InterpError("method call on a non-string value")
        args = [self.eval(a, scope) for a in expr.args]
        return self.string_method(receiver, expr.method_name, args)

    def arg_cell(self, ptype, arg: Node, scope) -> Cell:
        """The cell a parameter binds: a reference binds the argument's own,
        or a fresh one holding an rvalue passed to a const reference, as a
        by-value parameter does."""
        if ptype.is_reference and (not ptype.is_const or _is_lvalue(arg)):
            return self.lvalue(arg, scope)
        return Cell(self.eval(arg, scope))

    def string_method(self, box: StrBox, name: str, args):
        text = box.text
        if name in ("c_str", "data"):
            return BufHandle(box, box.version)
        if name == "size":
            return len(text)
        if name == "empty":
            return len(text) == 0
        if name == "at":
            if not 0 <= args[0] < len(text):
                raise InterpError("string index out of range")
            return ord(text[args[0]])
        if name == "front":
            return ord(text[0]) if text else 0
        if name == "back":
            return ord(text[-1]) if text else 0
        if name == "append":
            box.mutate(text + _text_of(args[0]))
        elif name == "assign":
            box.mutate(_text_of(args[0]))
        elif name == "clear":
            box.mutate("")
        elif name == "erase":
            pos, count = args
            box.mutate(text[:pos] + text[pos + count:])
        elif name == "insert":
            box.mutate(text[:args[0]] + _text_of(args[1]) + text[args[0]:])
        elif name == "pop_back":
            box.mutate(text[:-1])
        elif name == "push_back":
            box.mutate(text + chr(args[0] % 0x110000))
        elif name == "replace":
            pos, count, repl = args
            box.mutate(text[:pos] + _text_of(repl) + text[pos + count:])
        elif name in ("reserve", "resize", "shrink_to_fit"):
            box.mutate(text[:args[0]].ljust(args[0], "\0") if name == "resize" else text)
        elif name == "swap":
            other = args[0]
            if isinstance(other, Cell):
                other = other.value
            ours = text
            box.mutate(other.text)
            other.mutate(ours)
        else:
            raise InterpError(f"unknown string method {name!r}")
        return None

    def eval_call(self, expr: Call, scope):
        decl = expr.callee.decl
        cells = [self.arg_cell(param.declared_type, arg, scope)
                 for param, arg in zip(decl.params, expr.args)]
        if isinstance(decl, FunctionDecl):
            return self._call(decl, cells)
        # extern: record the call, use the stub (or a neutral default)
        args = [cell.value for cell in cells]
        self.outcome.extern_trace.append((decl.name, tuple(_render(a) for a in args)))
        stub = self.externs.get(decl.name)
        if stub is not None:
            return stub(args) if callable(stub) else stub
        return _default_value(decl.return_type)


def _is_lvalue(expr: Node) -> bool:
    while isinstance(expr, Paren):
        expr = expr.inner
    return isinstance(expr, (DeclRef, FieldAccess)) or (
        isinstance(expr, UnaryOp) and expr.op == "*")


def _text_of(value) -> str:
    if isinstance(value, StrBox):
        return value.text
    if isinstance(value, Cell) and isinstance(value.value, StrBox):
        return value.value.text
    return str(value)


def run_function(unit, name: str, args: tuple = (), externs: dict | None = None,
                 max_steps: int = 200_000) -> Outcome:
    """Execute one function concretely. The outcome records the return value
    (or the fell-off-the-end marker), every extern call with its rendered
    arguments, and each branch decision as (condition node id, truth)."""
    interp = Interpreter(unit, externs, max_steps)
    try:
        interp.outcome.ret = interp.call_function(name, args)
    except InterpError as err:
        interp.outcome.error = str(err)
    return interp.outcome


def observable(outcome: Outcome) -> tuple:
    """What semantic-preservation comparisons look at."""
    ret = outcome.ret if outcome.returned else None
    if isinstance(ret, (Instance, StrBox, BufHandle, Cell)):
        ret = _render(ret)
    return (outcome.returned, ret, tuple(outcome.extern_trace), outcome.error)
