"""Typed AST for MiniLang."""

from __future__ import annotations

from typing import NamedTuple

from ..source import SourceLocation, SourceRange

BUILTIN_BASES = ("int", "bool", "char", "void", "string")


class TypeRef(NamedTuple):
    base: str  # builtin name or a declared struct name
    indirections: int = 0
    is_const: bool = False
    is_reference: bool = False  # parameters only

    def __str__(self):
        s = ("const " if self.is_const else "") + self.base + "*" * self.indirections
        return s + ("&" if self.is_reference else "")

    @property
    def is_pointer(self) -> bool:
        return self.indirections > 0

    def pointee(self) -> "TypeRef":
        assert self.indirections > 0
        return TypeRef(self.base, self.indirections - 1)

    def value_type(self) -> "TypeRef":
        """Type with reference/const stripped (what an rvalue read yields)."""
        return TypeRef(self.base, self.indirections)


INT = TypeRef("int")
BOOL = TypeRef("bool")
CHAR = TypeRef("char")
VOID = TypeRef("void")
STRING = TypeRef("string")
CHAR_PTR = TypeRef("char", 1)


class Node:
    """Base of every AST node. Identity-hashed; fields are set by the parser."""

    kind: str = "Node"
    is_expr: bool = False

    def __init__(self, range_: SourceRange):
        self.range = range_
        self.node_id: int = -1
        self.last_id: int = -1  # node_id of the last node of the subtree
        self.parent: Node | None = None
        self.type: TypeRef | None = None  # expressions, post-typecheck

    def children(self) -> list["Node"]:
        return []

    def __repr__(self):
        return f"<{self.kind} #{self.node_id}>"


def _n(cls):
    cls.kind = cls.__name__
    return cls


# --- declarations ---------------------------------------------------------

@_n
class TranslationUnit(Node):
    def __init__(self, range_, decls: list[Node]):
        super().__init__(range_)
        self.decls = decls
        self.preorder: list[Node] = []  # every node, indexed by node_id

    def children(self):
        return list(self.decls)


@_n
class FieldDecl(Node):
    def __init__(self, range_, name: str, declared_type: TypeRef, name_loc: SourceLocation):
        super().__init__(range_)
        self.name = name
        self.declared_type = declared_type
        self.name_loc = name_loc


@_n
class StructDecl(Node):
    def __init__(self, range_, name: str, fields: list[FieldDecl], name_loc: SourceLocation):
        super().__init__(range_)
        self.name = name
        self.fields = fields
        self.name_loc = name_loc

    def children(self):
        return list(self.fields)

    def field(self, name: str) -> FieldDecl | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None


@_n
class ParamDecl(Node):
    def __init__(self, range_, name: str, declared_type: TypeRef, name_loc: SourceLocation):
        super().__init__(range_)
        self.name = name
        self.declared_type = declared_type
        self.name_loc = name_loc


@_n
class FunctionDecl(Node):
    def __init__(self, range_, name: str, return_type: TypeRef,
                 params: list[ParamDecl], body: "Block", name_loc: SourceLocation):
        super().__init__(range_)
        self.name = name
        self.return_type = return_type
        self.params = params
        self.body = body
        self.name_loc = name_loc
        self.noreturn = False

    def children(self):
        return [*self.params, self.body]


@_n
class ExternDecl(Node):
    def __init__(self, range_, name: str, return_type: TypeRef,
                 params: list[ParamDecl], noreturn: bool, name_loc: SourceLocation):
        super().__init__(range_)
        self.name = name
        self.return_type = return_type
        self.params = params
        self.noreturn = noreturn
        self.name_loc = name_loc
        self.body = None

    def children(self):
        return list(self.params)


@_n
class VarDecl(Node):
    """A local variable declaration; used directly in statement position."""

    def __init__(self, range_, name: str, declared_type: TypeRef,
                 init: Node | None, name_loc: SourceLocation):
        super().__init__(range_)
        self.name = name
        self.declared_type = declared_type
        self.init = init
        self.name_loc = name_loc

    def children(self):
        return [self.init] if self.init is not None else []


# --- statements -----------------------------------------------------------

@_n
class Block(Node):
    def __init__(self, range_, stmts: list[Node]):
        super().__init__(range_)
        self.stmts = stmts

    def children(self):
        return list(self.stmts)


@_n
class IfStmt(Node):
    def __init__(self, range_, init: VarDecl | None, cond: Node,
                 then_branch: Node, else_branch: Node | None):
        super().__init__(range_)
        self.init = init
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch

    def children(self):
        out = [self.init] if self.init is not None else []
        out += [self.cond, self.then_branch]
        if self.else_branch is not None:
            out.append(self.else_branch)
        return out


@_n
class WhileStmt(Node):
    def __init__(self, range_, cond: Node, body: Node):
        super().__init__(range_)
        self.cond = cond
        self.body = body

    def children(self):
        return [self.cond, self.body]


@_n
class ReturnStmt(Node):
    def __init__(self, range_, value: Node | None):
        super().__init__(range_)
        self.value = value

    def children(self):
        return [self.value] if self.value is not None else []


@_n
class BreakStmt(Node):
    pass


@_n
class ContinueStmt(Node):
    pass


@_n
class DeleteStmt(Node):
    def __init__(self, range_, operand: Node):
        super().__init__(range_)
        self.operand = operand

    def children(self):
        return [self.operand]


@_n
class ExprStmt(Node):
    def __init__(self, range_, expr: Node):
        super().__init__(range_)
        self.expr = expr

    def children(self):
        return [self.expr]


# --- expressions ----------------------------------------------------------

class Expr(Node):
    is_expr = True


@_n
class IntLit(Expr):
    def __init__(self, range_, value: int):
        super().__init__(range_)
        self.value = value


@_n
class BoolLit(Expr):
    def __init__(self, range_, value: bool):
        super().__init__(range_)
        self.value = value


@_n
class StringLit(Expr):
    def __init__(self, range_, value: str):
        super().__init__(range_)
        self.value = value


@_n
class DeclRef(Expr):
    def __init__(self, range_, name: str):
        super().__init__(range_)
        self.name = name
        self.decl: Node | None = None  # resolved by typecheck


@_n
class UnaryOp(Expr):
    def __init__(self, range_, op: str, operand: Node, op_loc: SourceLocation):
        super().__init__(range_)
        self.op = op
        self.operand = operand
        self.op_loc = op_loc

    def children(self):
        return [self.operand]


@_n
class AddressOf(Expr):
    op = "&"

    def __init__(self, range_, operand: Node, op_loc: SourceLocation):
        super().__init__(range_)
        self.operand = operand
        self.op_loc = op_loc

    def children(self):
        return [self.operand]


@_n
class BinaryOp(Expr):
    def __init__(self, range_, op: str, lhs: Node, rhs: Node, op_loc: SourceLocation):
        super().__init__(range_)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.op_loc = op_loc

    def children(self):
        return [self.lhs, self.rhs]


@_n
class Assign(Expr):
    def __init__(self, range_, op: str, lhs: Node, rhs: Node, op_loc: SourceLocation):
        super().__init__(range_)
        self.op = op  # "=" or "+="
        self.lhs = lhs
        self.rhs = rhs
        self.op_loc = op_loc

    def children(self):
        return [self.lhs, self.rhs]


@_n
class FieldAccess(Expr):
    def __init__(self, range_, base: Node, field_name: str, is_arrow: bool,
                 member_loc: SourceLocation):
        super().__init__(range_)
        self.base = base
        self.field_name = field_name
        self.is_arrow = is_arrow
        self.member_loc = member_loc

    def children(self):
        return [self.base]


@_n
class MethodCall(Expr):
    def __init__(self, range_, receiver: Node, method_name: str,
                 args: list[Node], is_arrow: bool, member_loc: SourceLocation):
        super().__init__(range_)
        self.receiver = receiver
        self.method_name = method_name
        self.args = args
        self.is_arrow = is_arrow
        self.member_loc = member_loc

    def children(self):
        return [self.receiver, *self.args]


@_n
class Call(Expr):
    def __init__(self, range_, callee: DeclRef, args: list[Node]):
        super().__init__(range_)
        self.callee = callee
        self.args = args

    def children(self):
        return [self.callee, *self.args]


@_n
class NewExpr(Expr):
    def __init__(self, range_, type_name: str):
        super().__init__(range_)
        self.type_name = type_name


@_n
class Paren(Expr):
    def __init__(self, range_, inner: Node):
        super().__init__(range_)
        self.inner = inner

    def children(self):
        return [self.inner]


# --- helpers --------------------------------------------------------------

def walk(node: Node):
    """Pre-order traversal, `node` included."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def strip_parens(node: Node) -> Node:
    while isinstance(node, Paren):
        node = node.inner
    return node


def number_tree(unit: TranslationUnit) -> None:
    """Assign pre-order node ids, parent links and subtree ends, and keep
    the pre-order list as `unit.preorder`. The descendants of a node `n` are
    then the slice `unit.preorder[n.node_id + 1 : n.last_id + 1]`."""
    order: list[Node] = []
    stack: list[Node] = [unit]
    while stack:
        node = stack.pop()
        node.node_id = node.last_id = len(order)
        order.append(node)
        children = node.children()
        for child in children:
            child.parent = node
        stack.extend(reversed(children))
    # In reverse pre-order a subtree is finished before its root is reached.
    for node in reversed(order[1:]):
        parent = node.parent
        if parent.last_id < node.last_id:
            parent.last_id = node.last_id
    unit.preorder = order


def tree_index(node: Node) -> list[Node]:
    """The pre-order list of the unit that `node` belongs to."""
    while node.parent is not None:
        node = node.parent
    return node.preorder


def structure_signature(node: Node):
    """Nested tuple capturing kind/child-order structure and scalar payloads."""
    scalars = tuple(
        (k, v) for k, v in sorted(vars(node).items())
        if isinstance(v, (str, int, bool)) and k not in ("node_id",)
    )
    return (node.kind, scalars, tuple(structure_signature(c) for c in node.children()))


def dump_ast(root: Node) -> str:
    """Indented dump: one node per line, `Kind <line:col, line:col> [type]`."""
    out: list[str] = []

    def rec(node: Node, depth: int):
        b, e = node.range.begin, node.range.end
        line = f"{'  ' * depth}{node.kind} <{b.line}:{b.column}, {e.line}:{e.column}>"
        if node.type is not None:
            line += f" [{node.type}]"
        out.append(line)
        for child in node.children():
            rec(child, depth + 1)

    rec(root, 0)
    return "\n".join(out)
