"""Declarative tree-pattern matchers over the typed MiniLang AST.

Matchers are immutable values built by factory functions and combined the
usual way: node matchers (`varDecl`, `ifStmt`, ...) take narrowing
sub-matchers as arguments, `anyOf`/`allOf`/`unless` are set union,
intersection and complement, and `has`/`hasDescendant`/`hasParent` walk the
tree. Any matcher supports `.bind(label)`, once.

Each factory compiles its matcher when it is built, as Clang compiles a
matcher into a `MatcherInterface`: the matcher carries its evaluation
function and the node kinds at which it can match. `match_all` offers every
node of a unit, in one pre-order pass, only to the matchers whose kinds
admit it, as Clang's MatchFinder does.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from typing import NamedTuple

from .frontend.astnodes import (
    AddressOf, Assign, BinaryOp, Block, Call, DeclRef, DeleteStmt, Expr,
    ExternDecl, FieldAccess, FunctionDecl, IfStmt, MethodCall, NewExpr, Node,
    ReturnStmt, BreakStmt, ContinueStmt, TypeRef, UnaryOp, VarDecl,
    strip_parens, tree_index,
)


class MatcherConfigError(Exception):
    """Bad matcher construction or use: an empty `anyOf`/`allOf`, a
    `hasType` argument that is not a type matcher, a second `bind`, or a
    type matcher matched against a node."""


# An evaluation function takes (node, nodes), `nodes` being the pre-order
# list of the node's unit, and either fails (None) or returns one binding
# dict per distinct way the pattern matched at the node.
Evaluate = Callable[[Node, list], "list[dict] | None"]


class Matcher:
    """A compiled matcher. `kind` and `args` record how it was built;
    `kinds` is the set of node kinds at which it can match, None for any
    kind, a necessary condition only. `compile(label)` builds the evaluation
    function, which binds the matched node to `label` unless that is None.
    Immutable; equal when kind, args and binding are."""

    __slots__ = ("kind", "args", "kinds", "compile", "binding", "evaluate")

    def __init__(self, kind: str, args: tuple, kinds: frozenset | None,
                 compile: Callable[[str | None], Evaluate], binding: str | None = None):
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "args", args)
        init(self, "kinds", kinds)
        init(self, "compile", compile)
        init(self, "binding", binding)
        init(self, "evaluate", compile(binding))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable matcher")

    def _bound(self, label: str) -> "Matcher":
        return Matcher(self.kind, self.args, self.kinds, self.compile, label)

    def bind(self, label: str) -> "Matcher":
        if self.binding is not None:
            raise MatcherConfigError(f"{self!r} is bound already")
        return self._bound(label)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.args, self.binding) == (other.kind, other.args, other.binding)

    def __hash__(self):
        return hash((self.kind, self.args, self.binding))

    def __repr__(self):
        inner = ", ".join(repr(a) for a in self.args)
        suffix = f".bind({self.binding!r})" if self.binding else ""
        return f"{self.kind}({inner}){suffix}"


class TypeMatcher(Matcher):
    """A predicate on a `TypeRef`, usable only as the argument of `hasType`."""

    __slots__ = ("test",)

    def __init__(self, kind: str, args: tuple, kinds: frozenset | None,
                 compile: Callable[[str | None], Evaluate], binding: str | None = None,
                 *, test: Callable[[TypeRef], bool]):
        super().__init__(kind, args, kinds, compile, binding)
        object.__setattr__(self, "test", test)

    def _bound(self, label: str) -> "TypeMatcher":
        return TypeMatcher(self.kind, self.args, self.kinds, self.compile, label,
                           test=self.test)


class MatchResult(NamedTuple):
    root: Node
    bound: dict  # label -> Node


_new = tuple.__new__  # one MatchResult per match, built without the generated `__new__`


def getBound(result: MatchResult, label: str, expected_kind) -> Node | None:
    """The node bound as `label` iff it exists and has the expected kind."""
    node = result.bound.get(label)
    if node is None:
        return None
    if isinstance(expected_kind, str):
        ok = node.kind == expected_kind
    else:
        ok = isinstance(node, expected_kind)
    return node if ok else None


# --- compiled shapes -----------------------------------------------------------

def _conjunction(kinds: frozenset | None, fns: tuple, label: str | None) -> Evaluate:
    """Every one of `fns` at a node whose kind is in `kinds` (any kind if
    None), their bindings merged in order, then the node bound to `label`."""
    def evaluate(node, nodes):
        if kinds is not None and node.kind not in kinds:
            return None
        acc = None
        for fn in fns:
            options = fn(node, nodes)
            if options is None:
                return None
            acc = options if acc is None else [{**base, **opt} for base in acc for opt in options]
        if acc is None:
            acc = [{}]
        if label is not None:
            acc = [{**b, label: node} for b in acc]
        return acc
    return evaluate


def _compiler(core: Evaluate) -> Callable[[str | None], Evaluate]:
    """The `compile` of a matcher that is not a node matcher: bound, it
    becomes a one-operand conjunction of `core` that binds the node."""
    return lambda label: core if label is None else _conjunction(None, (core,), label)


def _narrow(kinds: frozenset | None, inner: tuple) -> frozenset | None:
    for m in inner:
        if m.kinds is not None:
            kinds = m.kinds if kinds is None else kinds & m.kinds
    return kinds


def _predicate(kind: str, args: tuple, test: Callable[[Node], bool]) -> Matcher:
    def evaluate(node, nodes):
        return [{}] if test(node) else None
    return Matcher(kind, args, None, _compiler(evaluate))


def _step(kind: str, args: tuple, inner: Matcher,
          target: Callable[[Node], Node | None]) -> Matcher:
    """`inner` matched at `target(node)`; no match where that is None."""
    fn = inner.evaluate

    def evaluate(node, nodes):
        other = target(node)
        return None if other is None else fn(other, nodes)
    return Matcher(kind, args, None, _compiler(evaluate))


def _collect(kind: str, inner: Matcher, candidates: Callable) -> Matcher:
    """Every match of `inner` among `candidates(node, nodes)`, in order; no
    match where there is none."""
    fn = inner.evaluate

    def evaluate(node, nodes):
        out: list[dict] = []
        for candidate in candidates(node, nodes):
            options = fn(candidate, nodes)
            if options is not None:
                out.extend(options)
        return out or None
    return Matcher(kind, (inner,), None, _compiler(evaluate))


def _type_matcher(kind: str, args: tuple, test: Callable[[TypeRef], bool]) -> TypeMatcher:
    def evaluate(node, nodes):
        raise MatcherConfigError(f"'{kind}' is a type matcher, not a node matcher")
    return TypeMatcher(kind, args, None, lambda label: evaluate, test=test)


# --- factory surface --------------------------------------------------------

_NODE_CLASSES = {
    "varDecl": (VarDecl,),
    "declRefExpr": (DeclRef,),
    "memberExpr": (FieldAccess,),
    "methodCallExpr": (MethodCall,),
    "unaryOperator": (UnaryOp, AddressOf),
    "binaryOperator": (BinaryOp,),
    "callExpr": (Call,),
    "functionDecl": (FunctionDecl, ExternDecl),
    "ifStmt": (IfStmt,),
    "returnStmt": (ReturnStmt,),
    "breakStmt": (BreakStmt,),
    "continueStmt": (ContinueStmt,),
    "compoundStmt": (Block,),
    "newExpr": (NewExpr,),
    "deleteStmt": (DeleteStmt,),
}

_STMT_KINDS = frozenset((
    "Block", "IfStmt", "WhileStmt", "ReturnStmt", "BreakStmt", "ContinueStmt",
    "DeleteStmt", "ExprStmt", "VarDecl",
))


def _subclasses(cls) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


# The node kinds each node-kind matcher accepts.
_KINDS = {name: frozenset(c.kind for c in classes) for name, classes in _NODE_CLASSES.items()}
_KINDS["expr"] = frozenset(c.kind for c in _subclasses(Expr))
_KINDS["stmt"] = _STMT_KINDS | _KINDS["expr"]


def _node_factory(name):
    def factory(*inner: Matcher) -> Matcher:
        kinds = _narrow(_KINDS[name], inner)
        fns = tuple(m.evaluate for m in inner)
        return Matcher(name, inner, kinds, lambda label: _conjunction(kinds, fns, label))
    factory.__name__ = name
    return factory


stmt = _node_factory("stmt")
expr = _node_factory("expr")
varDecl = _node_factory("varDecl")
declRefExpr = _node_factory("declRefExpr")
memberExpr = _node_factory("memberExpr")
methodCallExpr = _node_factory("methodCallExpr")
unaryOperator = _node_factory("unaryOperator")
binaryOperator = _node_factory("binaryOperator")
callExpr = _node_factory("callExpr")
functionDecl = _node_factory("functionDecl")
ifStmt = _node_factory("ifStmt")
returnStmt = _node_factory("returnStmt")
breakStmt = _node_factory("breakStmt")
continueStmt = _node_factory("continueStmt")
compoundStmt = _node_factory("compoundStmt")
newExpr = _node_factory("newExpr")
deleteStmt = _node_factory("deleteStmt")


def _node_type(node: Node) -> TypeRef | None:
    declared = getattr(node, "declared_type", None)
    if declared is not None:
        return declared
    return node.type


def _operator_name(node: Node) -> str | None:
    if isinstance(node, (UnaryOp, BinaryOp, Assign)):
        return node.op
    if isinstance(node, AddressOf):
        return "&"
    return None


def _arguments(node: Node) -> list[Node] | None:
    if isinstance(node, (Call, MethodCall)):
        return node.args
    if isinstance(node, NewExpr):
        return []
    return None


def hasName(name: str) -> Matcher:
    return _predicate("hasName", (name,), lambda node: getattr(node, "name", None) == name)


def pointerType() -> TypeMatcher:
    return _type_matcher("pointerType", (), lambda t: t.indirections > 0)


def stringType() -> TypeMatcher:
    return _type_matcher("stringType", (),
                         lambda t: t.base == "string" and t.indirections == 0)


def namedType(name: str) -> TypeMatcher:
    return _type_matcher("namedType", (name,),
                         lambda t: t.base == name and t.indirections == 0)


def hasType(type_matcher: TypeMatcher) -> Matcher:
    if not isinstance(type_matcher, TypeMatcher):
        raise MatcherConfigError(f"hasType takes a type matcher, not {type_matcher!r}")
    test = type_matcher.test

    def has_type(node):
        t = _node_type(node)
        return t is not None and test(t)
    return _predicate("hasType", (type_matcher,), has_type)


def hasInitializer(inner: Matcher) -> Matcher:
    return _step("hasInitializer", (inner,), inner, lambda node: getattr(node, "init", None))


def hasOperatorName(op: str) -> Matcher:
    return _predicate("hasOperatorName", (op,), lambda node: _operator_name(node) == op)


def hasCondition(inner: Matcher) -> Matcher:
    return _step("hasCondition", (inner,), inner, lambda node: getattr(node, "cond", None))


def hasThen(inner: Matcher) -> Matcher:
    return _step("hasThen", (inner,), inner,
                 lambda node: getattr(node, "then_branch", None))


def hasElse(inner: Matcher) -> Matcher:
    return _step("hasElse", (inner,), inner,
                 lambda node: getattr(node, "else_branch", None))


def argumentCountIs(count: int) -> Matcher:
    def test(node):
        args = _arguments(node)
        return args is not None and len(args) == count
    return _predicate("argumentCountIs", (count,), test)


def hasArgument(index: int, inner: Matcher) -> Matcher:
    def argument(node):
        args = _arguments(node)
        return None if args is None or index >= len(args) else strip_parens(args[index])
    return _step("hasArgument", (index, inner), inner, argument)


def statementCountIs(count: int) -> Matcher:
    def test(node):
        stmts = getattr(node, "stmts", None)
        return stmts is not None and len(stmts) == count
    return _predicate("statementCountIs", (count,), test)


def hasAnySubstatement(inner: Matcher) -> Matcher:
    return _collect("hasAnySubstatement", inner,
                    lambda node, nodes: getattr(node, "stmts", None) or ())


def isNoReturn() -> Matcher:
    return _predicate("isNoReturn", (), lambda node: getattr(node, "noreturn", False))


def to(inner: Matcher) -> Matcher:
    return _step("to", (inner,), inner, lambda node: getattr(node, "decl", None))


def callee(inner: Matcher) -> Matcher:
    return _step("callee", (inner,), inner,
                 lambda node: getattr(getattr(node, "callee", None), "decl", None))


def ignoringParens(inner: Matcher) -> Matcher:
    return _step("ignoringParens", (inner,), inner, strip_parens)


def anyOf(*inner: Matcher) -> Matcher:
    if not inner:
        raise MatcherConfigError("anyOf needs at least one alternative")
    alternatives = [m.kinds for m in inner]
    kinds = None if None in alternatives else frozenset().union(*alternatives)
    fns = tuple(m.evaluate for m in inner)

    def evaluate(node, nodes):
        for fn in fns:
            options = fn(node, nodes)
            if options is not None:
                return options  # first matching alternative contributes the bindings
        return None
    return Matcher("anyOf", inner, kinds, _compiler(evaluate))


def allOf(*inner: Matcher) -> Matcher:
    if not inner:
        raise MatcherConfigError("allOf needs at least one operand")
    kinds = _narrow(None, inner)
    fns = tuple(m.evaluate for m in inner)
    return Matcher("allOf", inner, kinds, lambda label: _conjunction(kinds, fns, label))


def unless(inner: Matcher) -> Matcher:
    fn = inner.evaluate

    def evaluate(node, nodes):
        return None if fn(node, nodes) is not None else [{}]
    return Matcher("unless", (inner,), None, _compiler(evaluate))


def has(inner: Matcher) -> Matcher:
    return _collect("has", inner, lambda node, nodes: node.children())


def hasDescendant(inner: Matcher) -> Matcher:
    return _collect("hasDescendant", inner,
                    lambda node, nodes: nodes[node.node_id + 1:node.last_id + 1])


def hasParent(inner: Matcher) -> Matcher:
    return _step("hasParent", (inner,), inner, lambda node: node.parent)


# --- matching -----------------------------------------------------------------

def matches(matcher: Matcher, node: Node) -> bool:
    """Does `matcher` accept this node (ignoring bindings)?"""
    return matcher.evaluate(node, tree_index(node)) is not None


def match_all(matchers: Sequence[Matcher], root: Node) -> Iterator[tuple[int, MatchResult]]:
    """All matches of the matchers within the tree rooted at `root`, in one
    pre-order pass: (matcher index, result) pairs ordered by (pre-order of
    the matched node, matcher index), one per distinct (index, node, binding
    set). A node is offered only to the matchers whose kinds admit it."""
    nodes = tree_index(root)
    offered: dict[str, list[tuple[int, Evaluate]]] = {}
    for node in nodes[root.node_id:root.last_id + 1]:
        candidates = offered.get(node.kind)
        if candidates is None:
            candidates = offered[node.kind] = [
                (index, m.evaluate) for index, m in enumerate(matchers)
                if m.kinds is None or node.kind in m.kinds]
        for index, evaluate in candidates:
            options = evaluate(node, nodes)
            if options is None:
                continue
            seen: set = set()
            for bound in options:
                key = frozenset((k, id(v)) for k, v in bound.items())
                if key not in seen:
                    seen.add(key)
                    yield index, _new(MatchResult, (node, bound))


def match(matcher: Matcher, root: Node) -> list[MatchResult]:
    """All matches of `matcher` within the tree rooted at `root`, in
    pre-order of the matched nodes; one result per distinct (root, binding
    set)."""
    return [result for _, result in match_all((matcher,), root)]
