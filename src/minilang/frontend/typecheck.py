"""Type and scope checking. Decorates expressions with types and resolves
every DeclRef to its declaration. MiniLang performs no implicit conversions
except the int-literal-to-char one inside `push_back`.
"""

from __future__ import annotations

from ..diagnostics import Diagnostic, Severity
from ..source import SourceLocation
from .astnodes import (
    AddressOf, Assign, BinaryOp, Block, BOOL, BoolLit, BreakStmt, BUILTIN_BASES,
    Call, CHAR, ContinueStmt, DeclRef, DeleteStmt, Expr, ExprStmt, ExternDecl,
    FieldAccess, FunctionDecl, IfStmt, INT, IntLit, MethodCall, NewExpr, Node,
    Paren, ParamDecl, ReturnStmt, STRING, StringLit, StructDecl, TranslationUnit,
    TypeRef, UnaryOp, VarDecl, VOID, WhileStmt, strip_parens,
)
from .builtins import STRING_METHODS

_COMPARABLE = ("int", "char")


class _Scope:
    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.names: dict[str, Node] = {}

    def declare(self, name: str, decl: Node) -> bool:
        if name in self.names:
            return False
        self.names[name] = decl
        return True

    def lookup(self, name: str) -> Node | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class TypeChecker:
    def __init__(self, unit: TranslationUnit):
        self.unit = unit
        self.diags: list[Diagnostic] = []
        self.structs: dict[str, StructDecl] = {}
        self.globals = _Scope()
        self.current_fn: FunctionDecl | None = None
        self.loop_depth = 0

    def error(self, loc: SourceLocation, message: str):
        self.diags.append(Diagnostic(loc, message, Severity.ERROR))

    # --- entry ---

    def run(self) -> list[Diagnostic]:
        for decl in self.unit.decls:
            if isinstance(decl, StructDecl):
                if decl.name in self.structs:
                    self.error(decl.name_loc, f"redefinition of struct '{decl.name}'")
                self.structs[decl.name] = decl
                seen = set()
                for fld in decl.fields:
                    if fld.name in seen:
                        self.error(fld.name_loc, f"duplicate field '{fld.name}'")
                    seen.add(fld.name)
                    self.check_type(fld.declared_type, fld, allow_void=False)
            elif isinstance(decl, (FunctionDecl, ExternDecl)):
                if not self.globals.declare(decl.name, decl):
                    self.error(decl.name_loc, f"redefinition of '{decl.name}'")
        self.unit.structs = self.structs
        self.unit.functions = {
            d.name: d for d in self.unit.decls if isinstance(d, (FunctionDecl, ExternDecl))}
        for decl in self.unit.decls:
            if isinstance(decl, FunctionDecl):
                self.check_function(decl)
            elif isinstance(decl, ExternDecl):
                self.check_signature(decl)
        return self.diags

    def check_type(self, t: TypeRef, decl: Node, allow_void: bool):
        """Check the type written in `decl`; errors point at its name."""
        if t.base not in BUILTIN_BASES and t.base not in self.structs:
            self.error(decl.name_loc, f"unknown type '{t.base}'")
        if t.base == "void" and t.indirections == 0 and not allow_void:
            self.error(decl.name_loc, "variable of void type")

    def check_signature(self, decl):
        self.check_type(decl.return_type, decl, allow_void=True)
        seen = set()
        for p in decl.params:
            if p.name in seen:
                self.error(p.name_loc, f"duplicate parameter '{p.name}'")
            seen.add(p.name)
            self.check_type(p.declared_type, p, allow_void=False)

    def check_function(self, fn: FunctionDecl):
        self.check_signature(fn)
        self.current_fn = fn
        scope = _Scope(self.globals)
        for p in fn.params:
            scope.declare(p.name, p)
        self.check_block(fn.body, _Scope(scope))
        self.current_fn = None

    # --- statements ---

    def check_block(self, block: Block, scope: _Scope):
        for stmt in block.stmts:
            self.check_stmt(stmt, scope)

    def check_stmt(self, stmt: Node, scope: _Scope):
        if isinstance(stmt, VarDecl):
            self.check_var_decl(stmt, scope)
        elif isinstance(stmt, Block):
            self.check_block(stmt, _Scope(scope))
        elif isinstance(stmt, ExprStmt):
            self.expr(stmt.expr, scope)
        elif isinstance(stmt, IfStmt):
            inner = _Scope(scope)
            if stmt.init is not None:
                self.check_var_decl(stmt.init, inner)
            cond_t = self.expr(stmt.cond, inner)
            self.require_bool(cond_t, stmt.cond)
            self.check_stmt(stmt.then_branch, _Scope(inner))
            if stmt.else_branch is not None:
                self.check_stmt(stmt.else_branch, _Scope(inner))
        elif isinstance(stmt, WhileStmt):
            cond_t = self.expr(stmt.cond, scope)
            self.require_bool(cond_t, stmt.cond)
            self.loop_depth += 1
            self.check_stmt(stmt.body, _Scope(scope))
            self.loop_depth -= 1
        elif isinstance(stmt, ReturnStmt):
            rt = self.current_fn.return_type
            if stmt.value is None:
                if rt != VOID:
                    self.error(stmt.range.begin, "non-void function must return a value")
            else:
                vt = self.expr(stmt.value, scope)
                if rt == VOID:
                    self.error(stmt.range.begin, "void function cannot return a value")
                elif vt is not None and vt.value_type() != rt.value_type():
                    self.error(stmt.range.begin,
                               f"return type mismatch: expected {rt}, got {vt}")
        elif isinstance(stmt, (BreakStmt, ContinueStmt)):
            if self.loop_depth == 0:
                word = "break" if isinstance(stmt, BreakStmt) else "continue"
                self.error(stmt.range.begin, f"'{word}' outside of a loop")
        elif isinstance(stmt, DeleteStmt):
            t = self.expr(stmt.operand, scope)
            if t is not None and not t.is_pointer:
                self.error(stmt.operand.range.begin, "delete requires a pointer operand")

    def check_var_decl(self, decl: VarDecl, scope: _Scope):
        self.check_type(decl.declared_type, decl, allow_void=False)
        if decl.init is not None:
            it = self.expr(decl.init, scope)
            dt = decl.declared_type
            if it is not None and it.value_type() != dt.value_type():
                self.error(decl.name_loc,
                           f"cannot initialize {dt} from {it}")
        if not scope.declare(decl.name, decl):
            self.error(decl.name_loc, f"redeclaration of '{decl.name}'")

    # --- expressions ---

    def require_bool(self, t: TypeRef | None, node: Node):
        if t is not None and t.value_type() != BOOL:
            self.error(node.range.begin, f"condition must be bool, got {t}")

    def expr(self, node: Node, scope: _Scope) -> TypeRef | None:
        t = self._expr(node, scope)
        node.type = t
        return t

    def _expr(self, node: Node, scope: _Scope) -> TypeRef | None:
        if isinstance(node, IntLit):
            return INT
        if isinstance(node, BoolLit):
            return BOOL
        if isinstance(node, StringLit):
            return STRING
        if isinstance(node, Paren):
            return self.expr(node.inner, scope)
        if isinstance(node, DeclRef):
            decl = scope.lookup(node.name)
            if decl is None:
                self.error(node.range.begin, f"unknown identifier '{node.name}'")
                return None
            if isinstance(decl, (FunctionDecl, ExternDecl)):
                self.error(node.range.begin, f"function '{node.name}' used as a value")
                return None
            node.decl = decl
            return decl.declared_type.value_type()
        if isinstance(node, UnaryOp):
            t = self.expr(node.operand, scope)
            if t is None:
                return None
            if node.op == "!":
                if t.value_type() == BOOL or t.is_pointer:
                    return BOOL
                self.error(node.op_loc, f"'!' requires bool or pointer, got {t}")
                return None
            if node.op == "-":
                if t.value_type() == INT:
                    return INT
                self.error(node.op_loc, f"'-' requires int, got {t}")
                return None
            if node.op == "*":
                if t.is_pointer:
                    return t.pointee()
                self.error(node.op_loc, "cannot dereference non-pointer")
                return None
        if isinstance(node, AddressOf):
            t = self.expr(node.operand, scope)
            if t is None:
                return None
            if not self.is_lvalue(node.operand):
                self.error(node.op_loc, "cannot take the address of an rvalue")
                return None
            return TypeRef(t.base, t.indirections + 1)
        if isinstance(node, BinaryOp):
            return self.binary(node, scope)
        if isinstance(node, Assign):
            return self.assign(node, scope)
        if isinstance(node, FieldAccess):
            return self.field_access(node, scope)
        if isinstance(node, MethodCall):
            return self.method_call(node, scope)
        if isinstance(node, Call):
            return self.call(node, scope)
        if isinstance(node, NewExpr):
            if node.type_name not in self.structs and node.type_name not in BUILTIN_BASES:
                self.error(node.range.begin, f"unknown type '{node.type_name}'")
                return None
            if node.type_name == "void":
                self.error(node.range.begin, "cannot allocate void")
                return None
            return TypeRef(node.type_name, 1)
        return None

    def binary(self, node: BinaryOp, scope: _Scope) -> TypeRef | None:
        lt = self.expr(node.lhs, scope)
        rt = self.expr(node.rhs, scope)
        if node.op == ",":
            return rt
        if lt is None or rt is None:
            return None
        lt, rt = lt.value_type(), rt.value_type()
        op = node.op
        if op in ("+", "-", "*", "/"):
            if lt == INT and rt == INT:
                return INT
        elif op in ("==", "!="):
            if lt == rt and (lt.base in ("int", "bool", "char") or lt.is_pointer):
                return BOOL
            if lt.is_pointer and self.is_null_literal(node.rhs):
                return BOOL
            if rt.is_pointer and self.is_null_literal(node.lhs):
                return BOOL
        elif op in ("<", "<=", ">", ">="):
            if lt == rt and lt.base in _COMPARABLE and not lt.is_pointer:
                return BOOL
        elif op in ("&&", "||"):
            if lt == BOOL and rt == BOOL:
                return BOOL
        self.error(node.op_loc, f"invalid operands to '{op}' ({lt} and {rt})")
        return None

    @staticmethod
    def is_null_literal(node: Node) -> bool:
        stripped = strip_parens(node)
        return isinstance(stripped, IntLit) and stripped.value == 0

    def is_lvalue(self, node: Node) -> bool:
        node = strip_parens(node)
        if isinstance(node, DeclRef):
            return isinstance(node.decl, (VarDecl, ParamDecl))
        if isinstance(node, (FieldAccess,)):
            return True
        if isinstance(node, UnaryOp) and node.op == "*":
            return True
        return False

    def is_const_lvalue(self, node: Node) -> bool:
        node = strip_parens(node)
        if isinstance(node, DeclRef) and node.decl is not None:
            return node.decl.declared_type.is_const
        return False

    def assign(self, node: Assign, scope: _Scope) -> TypeRef | None:
        lt = self.expr(node.lhs, scope)
        rt = self.expr(node.rhs, scope)
        if not self.is_lvalue(node.lhs):
            self.error(node.op_loc, "left side of assignment is not assignable")
            return None
        if self.is_const_lvalue(node.lhs):
            self.error(node.op_loc, "assignment to const variable")
            return None
        if lt is None or rt is None:
            return None
        lv, rv = lt.value_type(), rt.value_type()
        if node.op == "+=":
            if lv == rv and lv in (INT, STRING):
                return lv
            self.error(node.op_loc, f"invalid operands to '+=' ({lt} and {rt})")
            return None
        if lv != rv:
            self.error(node.op_loc, f"cannot assign {rt} to {lt}")
            return None
        return lv

    def field_access(self, node: FieldAccess, scope: _Scope) -> TypeRef | None:
        bt = self.expr(node.base, scope)
        if bt is None:
            return None
        if node.is_arrow:
            if not (bt.indirections == 1 and bt.base in self.structs):
                self.error(node.member_loc, f"'->' requires a struct pointer, got {bt}")
                return None
        else:
            if not (bt.indirections == 0 and bt.base in self.structs):
                self.error(node.member_loc, f"'.' requires a struct value, got {bt}")
                return None
        struct = self.structs[bt.base]
        fld = struct.field(node.field_name)
        if fld is None:
            self.error(node.member_loc,
                       f"no field '{node.field_name}' in struct '{struct.name}'")
            return None
        node.field_decl = fld
        return fld.declared_type.value_type()

    def method_call(self, node: MethodCall, scope: _Scope) -> TypeRef | None:
        rt = self.expr(node.receiver, scope)
        if rt is None:
            return None
        want = 1 if node.is_arrow else 0
        if not (rt.base == "string" and rt.indirections == want):
            self.error(node.member_loc,
                       f"method call requires a string receiver, got {rt}")
            return None
        method = STRING_METHODS.get(node.method_name)
        if method is None:
            self.error(node.member_loc, f"unknown string method '{node.method_name}'")
            return None
        if rt.is_const and method.invalidating and not node.is_arrow:
            self.error(node.member_loc,
                       f"cannot call non-const method '{method.name}' on const string")
            return None
        if len(node.args) != len(method.params):
            self.error(node.member_loc,
                       f"'{method.name}' expects {len(method.params)} argument(s)")
            return None
        for arg, pt in zip(node.args, method.params):
            at = self.expr(arg, scope)
            if at is None:
                continue
            if pt == CHAR and isinstance(strip_parens(arg), IntLit):
                continue  # int-literal-to-char, push_back only by table construction
            if pt.is_reference:
                if at.value_type() != pt.value_type() or not self.is_lvalue(arg):
                    self.error(arg.range.begin,
                               f"'{method.name}' needs a string lvalue argument")
                continue
            if at.value_type() != pt.value_type():
                self.error(arg.range.begin,
                           f"argument type mismatch: expected {pt}, got {at}")
        node.method = method
        return method.returns

    def call(self, node: Call, scope: _Scope) -> TypeRef | None:
        decl = self.globals.lookup(node.callee.name)
        if decl is None or not isinstance(decl, (FunctionDecl, ExternDecl)):
            self.error(node.callee.range.begin,
                       f"unknown function '{node.callee.name}'")
            return None
        node.callee.decl = decl
        node.callee.type = decl.return_type.value_type()
        if len(node.args) != len(decl.params):
            self.error(node.range.begin,
                       f"'{decl.name}' expects {len(decl.params)} argument(s)")
            return None
        for arg, param in zip(node.args, decl.params):
            at = self.expr(arg, scope)
            pt = param.declared_type
            if at is None:
                continue
            if at.value_type() != pt.value_type():
                self.error(arg.range.begin,
                           f"argument type mismatch: expected {pt}, got {at}")
            elif pt.is_reference and not pt.is_const and not self.is_lvalue(arg):
                self.error(arg.range.begin,
                           "non-const reference parameter needs an lvalue argument")
        return decl.return_type.value_type()


def typecheck(unit: TranslationUnit) -> list[Diagnostic]:
    """Check the unit in place; returns diagnostics (empty means well-typed)."""
    return TypeChecker(unit).run()
