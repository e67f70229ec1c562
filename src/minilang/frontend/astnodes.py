"""Typed AST for MiniLang."""

from __future__ import annotations

from typing import NamedTuple

from ..source import SourceFile, SourceLocation, SourceRange

BUILTIN_BASES = ("int", "bool", "char", "void", "string")

# Records built on hot paths skip the generated named-tuple `__new__`, a
# Python-level call; every field is given, as no default applies here.
_new = tuple.__new__


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
        if self.is_const or self.is_reference:
            return TypeRef(self.base, self.indirections)
        return self


INT = TypeRef("int")
BOOL = TypeRef("bool")
CHAR = TypeRef("char")
VOID = TypeRef("void")
STRING = TypeRef("string")
CHAR_PTR = TypeRef("char", 1)


class Node:
    """Base of every AST node; identity-hashed.

    As in Clang, a node holds its extent as file offsets: `begin` is the
    offset of its first token, `end` the offset just past its last one, and
    `file` the buffer they index. `range` and the `*_loc` properties build
    locations from them only when something reads them. Every class is
    slotted (no instance dict) and sets its own fields, with no `super()`
    chain. `push_children` is the one place that names a node's children:
    once the unit is complete, `number_tree` walks it in one pass and gives
    each node kept in the unit its `node_id`, `last_id` and `parent`. A node
    dropped by error recovery gets none of them.
    """

    __slots__ = ("file", "begin", "end", "parent", "node_id", "last_id")
    kind: str = "Node"
    type: TypeRef | None = None  # only expressions are typed; `Expr` declares the slot

    @property
    def range(self) -> SourceRange:
        file = self.file
        return SourceRange(_new(SourceLocation, (file, self.begin)),
                           _new(SourceLocation, (file, self.end)))

    def push_children(self, stack: list[Node]) -> None:
        """Append the children to `stack` last first, so that popping the
        stack yields them in source order."""

    def children(self) -> list[Node]:
        """The children in source order."""
        stack: list[Node] = []
        self.push_children(stack)
        stack.reverse()
        return stack

    def __repr__(self):
        return f"<{self.kind} #{self.node_id}>"


def _n(cls):
    cls.kind = cls.__name__
    return cls


def _offset_loc(slot: str) -> property:
    """A read-only location built from the offset stored in `slot`."""
    def loc(node: Node) -> SourceLocation:
        return _new(SourceLocation, (node.file, getattr(node, slot)))
    return property(loc)


_name_loc = _offset_loc("name_offset")
_member_loc = _offset_loc("member_offset")


# --- declarations ---------------------------------------------------------

@_n
class TranslationUnit(Node):
    __slots__ = ("decls", "preorder", "structs", "functions")

    def __init__(self, file: SourceFile, begin: int, end: int, decls: list[Node]):
        self.file = file
        self.begin = begin
        self.end = end
        self.decls = decls
        self.preorder: list[Node] = []  # every node, indexed by node_id
        self.structs: dict[str, StructDecl] = {}  # filled by the typechecker
        self.functions: dict[str, FunctionDecl | ExternDecl] = {}  # likewise

    def push_children(self, stack):
        stack.extend(reversed(self.decls))


@_n
class FieldDecl(Node):
    __slots__ = ("name", "declared_type", "name_offset")
    name_loc = _name_loc

    def __init__(self, file: SourceFile, begin: int, end: int, name: str,
                 declared_type: TypeRef, name_offset: int):
        self.file = file
        self.begin = begin
        self.end = end
        self.name = name
        self.declared_type = declared_type
        self.name_offset = name_offset


@_n
class StructDecl(Node):
    __slots__ = ("name", "fields", "name_offset")
    name_loc = _name_loc

    def __init__(self, file: SourceFile, begin: int, end: int, name: str,
                 fields: list[FieldDecl], name_offset: int):
        self.file = file
        self.begin = begin
        self.end = end
        self.name = name
        self.fields = fields
        self.name_offset = name_offset

    def push_children(self, stack):
        stack.extend(reversed(self.fields))

    def field(self, name: str) -> FieldDecl | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None


@_n
class ParamDecl(Node):
    __slots__ = ("name", "declared_type", "name_offset")
    name_loc = _name_loc
    __init__ = FieldDecl.__init__


@_n
class FunctionDecl(Node):
    __slots__ = ("name", "return_type", "params", "body", "name_offset", "noreturn")
    name_loc = _name_loc

    def __init__(self, file: SourceFile, begin: int, end: int, name: str,
                 return_type: TypeRef, params: list[ParamDecl], body: Block,
                 name_offset: int):
        self.file = file
        self.begin = begin
        self.end = end
        self.name = name
        self.return_type = return_type
        self.params = params
        self.body = body
        self.name_offset = name_offset
        self.noreturn = False

    def push_children(self, stack):
        stack.append(self.body)
        stack.extend(reversed(self.params))


@_n
class ExternDecl(Node):
    __slots__ = ("name", "return_type", "params", "noreturn", "name_offset", "body")
    name_loc = _name_loc

    def __init__(self, file: SourceFile, begin: int, end: int, name: str,
                 return_type: TypeRef, params: list[ParamDecl], noreturn: bool,
                 name_offset: int):
        self.file = file
        self.begin = begin
        self.end = end
        self.name = name
        self.return_type = return_type
        self.params = params
        self.noreturn = noreturn
        self.name_offset = name_offset
        self.body = None

    def push_children(self, stack):
        stack.extend(reversed(self.params))


@_n
class VarDecl(Node):
    """A local variable declaration; used directly in statement position."""

    __slots__ = ("name", "declared_type", "init", "name_offset")
    name_loc = _name_loc

    def __init__(self, file: SourceFile, begin: int, end: int, name: str,
                 declared_type: TypeRef, init: Node | None, name_offset: int):
        self.file = file
        self.begin = begin
        self.end = end
        self.name = name
        self.declared_type = declared_type
        self.init = init
        self.name_offset = name_offset

    def push_children(self, stack):
        if self.init is not None:
            stack.append(self.init)


# --- statements -----------------------------------------------------------

@_n
class Block(Node):
    __slots__ = ("stmts",)

    def __init__(self, file: SourceFile, begin: int, end: int, stmts: list[Node]):
        self.file = file
        self.begin = begin
        self.end = end
        self.stmts = stmts

    def push_children(self, stack):
        stack.extend(reversed(self.stmts))


@_n
class IfStmt(Node):
    __slots__ = ("init", "cond", "then_branch", "else_branch")

    def __init__(self, file: SourceFile, begin: int, end: int, init: VarDecl | None,
                 cond: Node, then_branch: Node, else_branch: Node | None):
        self.file = file
        self.begin = begin
        self.end = end
        self.init = init
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch

    def push_children(self, stack):
        if self.else_branch is not None:
            stack.append(self.else_branch)
        stack.append(self.then_branch)
        stack.append(self.cond)
        if self.init is not None:
            stack.append(self.init)


@_n
class WhileStmt(Node):
    __slots__ = ("cond", "body")

    def __init__(self, file: SourceFile, begin: int, end: int, cond: Node, body: Node):
        self.file = file
        self.begin = begin
        self.end = end
        self.cond = cond
        self.body = body

    def push_children(self, stack):
        stack.append(self.body)
        stack.append(self.cond)


@_n
class ReturnStmt(Node):
    __slots__ = ("value",)

    def __init__(self, file: SourceFile, begin: int, end: int, value: Node | None):
        self.file = file
        self.begin = begin
        self.end = end
        self.value = value

    def push_children(self, stack):
        if self.value is not None:
            stack.append(self.value)


@_n
class BreakStmt(Node):
    __slots__ = ()

    def __init__(self, file: SourceFile, begin: int, end: int):
        self.file = file
        self.begin = begin
        self.end = end


@_n
class ContinueStmt(Node):
    __slots__ = ()
    __init__ = BreakStmt.__init__


@_n
class DeleteStmt(Node):
    __slots__ = ("operand",)

    def __init__(self, file: SourceFile, begin: int, end: int, operand: Node):
        self.file = file
        self.begin = begin
        self.end = end
        self.operand = operand

    def push_children(self, stack):
        stack.append(self.operand)


@_n
class ExprStmt(Node):
    __slots__ = ("expr",)

    def __init__(self, file: SourceFile, begin: int, end: int, expr: Node):
        self.file = file
        self.begin = begin
        self.end = end
        self.expr = expr

    def push_children(self, stack):
        stack.append(self.expr)


# --- expressions ----------------------------------------------------------

class Expr(Node):
    """An expression; `type` is None until the typechecker sets it."""

    __slots__ = ("type",)


@_n
class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, file: SourceFile, begin: int, end: int, value: int):
        self.file = file
        self.begin = begin
        self.end = end
        self.type = None
        self.value = value


@_n
class BoolLit(Expr):
    __slots__ = ("value",)
    __init__ = IntLit.__init__


@_n
class StringLit(Expr):
    __slots__ = ("value",)
    __init__ = IntLit.__init__


@_n
class DeclRef(Expr):
    __slots__ = ("name", "decl")

    def __init__(self, file: SourceFile, begin: int, end: int, name: str):
        self.file = file
        self.begin = begin
        self.end = end
        self.type = None
        self.name = name
        self.decl: Node | None = None  # resolved by typecheck


@_n
class UnaryOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, file: SourceFile, begin: int, end: int, op: str, operand: Node):
        self.file = file
        self.begin = begin
        self.end = end
        self.type = None
        self.op = op
        self.operand = operand

    @property
    def op_loc(self) -> SourceLocation:
        return SourceLocation(self.file, self.begin)  # a prefix operator

    def push_children(self, stack):
        stack.append(self.operand)


@_n
class AddressOf(Expr):
    __slots__ = ("operand",)
    op = "&"
    op_loc = UnaryOp.op_loc

    def __init__(self, file: SourceFile, begin: int, end: int, operand: Node):
        self.file = file
        self.begin = begin
        self.end = end
        self.type = None
        self.operand = operand

    push_children = UnaryOp.push_children


@_n
class BinaryOp(Expr):
    """A binary operator; the extent runs from `lhs` through `rhs`."""

    __slots__ = ("op", "lhs", "rhs", "op_offset")
    op_loc = _offset_loc("op_offset")

    def __init__(self, file: SourceFile, op: str, lhs: Node, rhs: Node, op_offset: int):
        self.file = file
        self.begin = lhs.begin
        self.end = rhs.end
        self.type = None
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.op_offset = op_offset

    def push_children(self, stack):
        stack.append(self.rhs)
        stack.append(self.lhs)


@_n
class Assign(Expr):
    """`=` or `+=`; the extent runs from `lhs` through `rhs`."""

    __slots__ = ("op", "lhs", "rhs", "op_offset")
    op_loc = BinaryOp.op_loc
    __init__ = BinaryOp.__init__
    push_children = BinaryOp.push_children


@_n
class FieldAccess(Expr):
    __slots__ = ("base", "field_name", "is_arrow", "member_offset", "field_decl")
    member_loc = _member_loc

    def __init__(self, file: SourceFile, begin: int, end: int, base: Node,
                 field_name: str, is_arrow: bool, member_offset: int):
        self.file = file
        self.begin = begin
        self.end = end
        self.type = None
        self.base = base
        self.field_name = field_name
        self.is_arrow = is_arrow
        self.member_offset = member_offset
        self.field_decl: FieldDecl | None = None  # resolved by typecheck

    def push_children(self, stack):
        stack.append(self.base)


@_n
class MethodCall(Expr):
    __slots__ = ("receiver", "method_name", "args", "is_arrow", "member_offset", "method")
    member_loc = _member_loc

    def __init__(self, file: SourceFile, begin: int, end: int, receiver: Node,
                 method_name: str, args: list[Node], is_arrow: bool, member_offset: int):
        self.file = file
        self.begin = begin
        self.end = end
        self.type = None
        self.receiver = receiver
        self.method_name = method_name
        self.args = args
        self.is_arrow = is_arrow
        self.member_offset = member_offset
        self.method = None  # the builtin StringMethod, resolved by typecheck

    def push_children(self, stack):
        stack.extend(reversed(self.args))
        stack.append(self.receiver)


@_n
class Call(Expr):
    __slots__ = ("callee", "args")

    def __init__(self, file: SourceFile, begin: int, end: int, callee: DeclRef,
                 args: list[Node]):
        self.file = file
        self.begin = begin
        self.end = end
        self.type = None
        self.callee = callee
        self.args = args

    def push_children(self, stack):
        stack.extend(reversed(self.args))
        stack.append(self.callee)


@_n
class NewExpr(Expr):
    __slots__ = ("type_name",)

    def __init__(self, file: SourceFile, begin: int, end: int, type_name: str):
        self.file = file
        self.begin = begin
        self.end = end
        self.type = None
        self.type_name = type_name


@_n
class Paren(Expr):
    __slots__ = ("inner",)

    def __init__(self, file: SourceFile, begin: int, end: int, inner: Node):
        self.file = file
        self.begin = begin
        self.end = end
        self.type = None
        self.inner = inner

    def push_children(self, stack):
        stack.append(self.inner)


# --- helpers --------------------------------------------------------------

def walk(node: Node):
    """Pre-order traversal, `node` included."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        node.push_children(stack)


def strip_parens(node: Node) -> Node:
    while isinstance(node, Paren):
        node = node.inner
    return node


def number_tree(unit: TranslationUnit) -> None:
    """Assign pre-order node ids, subtree ends and parents in one pass, and
    keep the pre-order list as `unit.preorder`. The descendants of a node
    `n` are then the slice `unit.preorder[n.node_id + 1 : n.last_id + 1]`.

    A node's subtree ends when the stack falls below the height it was
    popped at, and the innermost node still open is the parent of the next
    node popped."""
    order: list[Node] = []
    add = order.append
    stack: list[Node] = [unit]
    pop = stack.pop
    # The innermost open node and the height it was popped at, and below
    # it the nodes open around it; a leaf's subtree ends where it begins.
    parent, parent_height = None, -1
    outer: list[tuple[Node | None, int]] = []
    while stack:
        node = pop()
        height = len(stack)
        while parent_height > height:
            parent.last_id = len(order) - 1
            parent, parent_height = outer.pop()
        node.parent = parent
        node.node_id = node.last_id = len(order)
        add(node)
        node.push_children(stack)
        if len(stack) > height:
            outer.append((parent, parent_height))
            parent, parent_height = node, height
    while parent is not None:
        parent.last_id = len(order) - 1
        parent, parent_height = outer.pop()
    unit.preorder = order


def tree_index(node: Node) -> list[Node]:
    """The pre-order list of the unit that `node` belongs to."""
    while node.parent is not None:
        node = node.parent
    return node.preorder


def dump_ast(root: Node) -> str:
    """Indented dump: one node per line, `Kind <line:col, line:col> [type]`."""
    out: list[str] = []
    line_column = root.file.line_column

    def rec(node: Node, depth: int):
        (bl, bc), (el, ec) = line_column(node.begin), line_column(node.end)
        line = f"{'  ' * depth}{node.kind} <{bl}:{bc}, {el}:{ec}>"
        if node.type is not None:
            line += f" [{node.type}]"
        out.append(line)
        for child in node.children():
            rec(child, depth + 1)

    rec(root, 0)
    return "\n".join(out)
