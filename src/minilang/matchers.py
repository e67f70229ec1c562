"""Declarative tree-pattern matchers over the typed MiniLang AST.

Matchers are immutable values built by factory functions and combined the
usual way: node matchers (`varDecl`, `ifStmt`, ...) take narrowing
sub-matchers as arguments, `anyOf`/`allOf`/`unless` are set union,
intersection and complement, and `has`/`hasDescendant`/`hasParent` walk the
tree. Any node matcher supports `.bind(label)`; `match()` reports results in
pre-order of the matched roots, deduplicated by (root, binding set).

Matching runs over the unit's pre-order node list (`number_tree`): a
subtree is a slice of it, and `match()` offers a node to the matcher only if
its kind can be the root of a match, as Clang's MatchFinder does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .frontend.astnodes import (
    AddressOf, Assign, BinaryOp, Block, Call, DeclRef, DeleteStmt, Expr,
    ExternDecl, FieldAccess, FunctionDecl, IfStmt, MethodCall, NewExpr, Node,
    Paren, ReturnStmt, BreakStmt, ContinueStmt, TypeRef, UnaryOp, VarDecl,
    WhileStmt, strip_parens, tree_index,
)


class MatcherConfigError(Exception):
    """Bad matcher construction: unknown constructor or wrong arity."""


@dataclass(frozen=True)
class Matcher:
    kind: str
    args: tuple = ()
    binding: str | None = None

    def bind(self, label: str) -> "Matcher":
        return replace(self, binding=label)

    def __repr__(self):
        inner = ", ".join(repr(a) for a in self.args)
        suffix = f".bind({self.binding!r})" if self.binding else ""
        return f"{self.kind}({inner}){suffix}"


@dataclass(frozen=True)
class MatchResult:
    root: Node
    bound: dict  # label -> Node

    def get(self, label: str):
        return self.bound.get(label)


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
        return Matcher(name, tuple(inner))
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


def hasName(name: str) -> Matcher:
    return Matcher("hasName", (name,))


def pointerType() -> Matcher:
    return Matcher("pointerType")


def stringType() -> Matcher:
    return Matcher("stringType")


def namedType(name: str) -> Matcher:
    return Matcher("namedType", (name,))


def hasType(type_matcher: Matcher) -> Matcher:
    return Matcher("hasType", (type_matcher,))


def hasInitializer(inner: Matcher) -> Matcher:
    return Matcher("hasInitializer", (inner,))


def hasOperatorName(op: str) -> Matcher:
    return Matcher("hasOperatorName", (op,))


def hasCondition(inner: Matcher) -> Matcher:
    return Matcher("hasCondition", (inner,))


def hasThen(inner: Matcher) -> Matcher:
    return Matcher("hasThen", (inner,))


def hasElse(inner: Matcher) -> Matcher:
    return Matcher("hasElse", (inner,))


def argumentCountIs(count: int) -> Matcher:
    return Matcher("argumentCountIs", (count,))


def hasArgument(index: int, inner: Matcher) -> Matcher:
    return Matcher("hasArgument", (index, inner))


def statementCountIs(count: int) -> Matcher:
    return Matcher("statementCountIs", (count,))


def hasAnySubstatement(inner: Matcher) -> Matcher:
    return Matcher("hasAnySubstatement", (inner,))


def isNoReturn() -> Matcher:
    return Matcher("isNoReturn")


def to(inner: Matcher) -> Matcher:
    return Matcher("to", (inner,))


def callee(inner: Matcher) -> Matcher:
    return Matcher("callee", (inner,))


def ignoringParens(inner: Matcher) -> Matcher:
    return Matcher("ignoringParens", (inner,))


def anyOf(*inner: Matcher) -> Matcher:
    if not inner:
        raise MatcherConfigError("anyOf needs at least one alternative")
    return Matcher("anyOf", tuple(inner))


def allOf(*inner: Matcher) -> Matcher:
    if not inner:
        raise MatcherConfigError("allOf needs at least one operand")
    return Matcher("allOf", tuple(inner))


def unless(inner: Matcher) -> Matcher:
    return Matcher("unless", (inner,))


def has(inner: Matcher) -> Matcher:
    return Matcher("has", (inner,))


def hasDescendant(inner: Matcher) -> Matcher:
    return Matcher("hasDescendant", (inner,))


def hasParent(inner: Matcher) -> Matcher:
    return Matcher("hasParent", (inner,))


_ARITIES = {
    "hasName": (str,), "namedType": (str,), "hasOperatorName": (str,),
    "pointerType": (), "stringType": (), "isNoReturn": (),
    "hasType": (Matcher,), "hasInitializer": (Matcher,),
    "hasCondition": (Matcher,), "hasThen": (Matcher,), "hasElse": (Matcher,),
    "argumentCountIs": (int,), "hasArgument": (int, Matcher),
    "statementCountIs": (int,), "hasAnySubstatement": (Matcher,),
    "to": (Matcher,), "callee": (Matcher,), "ignoringParens": (Matcher,),
    "unless": (Matcher,), "has": (Matcher,), "hasDescendant": (Matcher,),
    "hasParent": (Matcher,),
}


def buildMatcher(constructor: str, *args) -> Matcher:
    """Dynamic construction by name, with arity/argument checking."""
    factory = globals().get(constructor)
    if not callable(factory) or isinstance(factory, type):
        raise MatcherConfigError(f"unknown matcher constructor '{constructor}'")
    if constructor in _KINDS:
        if not all(isinstance(a, Matcher) for a in args):
            raise MatcherConfigError(f"'{constructor}' takes sub-matchers")
        return factory(*args)
    if constructor in ("anyOf", "allOf"):
        return factory(*args)
    spec = _ARITIES.get(constructor)
    if spec is None:
        raise MatcherConfigError(f"unknown matcher constructor '{constructor}'")
    if len(args) != len(spec) or not all(isinstance(a, t) for a, t in zip(args, spec)):
        raise MatcherConfigError(f"bad arguments for '{constructor}'")
    return factory(*args)


# --- evaluation -------------------------------------------------------------

# An evaluation either fails (None) or yields one binding dict per distinct
# way the pattern matched at this node.

def _merge(lists: list[list[dict]]) -> list[dict]:
    acc = [{}]
    for options in lists:
        acc = [{**base, **opt} for base in acc for opt in options]
    return acc


def _type_matches(m: Matcher, t: TypeRef | None) -> bool:
    if t is None:
        return False
    if m.kind == "pointerType":
        return t.indirections > 0
    if m.kind == "stringType":
        return t.base == "string" and t.indirections == 0
    if m.kind == "namedType":
        return t.base == m.args[0] and t.indirections == 0
    raise MatcherConfigError(f"'{m.kind}' is not a type matcher")


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


def _eval(m: Matcher, node: Node, nodes: list[Node]) -> list[dict] | None:
    """`nodes` is the pre-order list of `node`'s unit."""
    kind = m.kind

    if kind in _KINDS:
        if node.kind not in _KINDS[kind]:
            return None
        result = _merge_inner(m.args, node, nodes)
    elif kind == "allOf":
        result = _merge_inner(m.args, node, nodes)
    elif kind == "anyOf":
        result = None
        for alt in m.args:
            result = _eval(alt, node, nodes)
            if result is not None:
                break  # first matching alternative contributes the bindings
    elif kind == "unless":
        result = None if _eval(m.args[0], node, nodes) is not None else [{}]
    elif kind == "has":
        result = _collect(m.args[0], node.children(), nodes)
    elif kind == "hasDescendant":
        result = _collect(m.args[0], nodes[node.node_id + 1:node.last_id + 1], nodes)
    elif kind == "hasParent":
        result = None if node.parent is None else _eval(m.args[0], node.parent, nodes)
    elif kind == "hasName":
        result = [{}] if getattr(node, "name", None) == m.args[0] else None
    elif kind == "hasType":
        result = [{}] if _type_matches(m.args[0], _node_type(node)) else None
    elif kind == "hasInitializer":
        init = getattr(node, "init", None)
        result = None if init is None else _eval(m.args[0], init, nodes)
    elif kind == "hasOperatorName":
        result = [{}] if _operator_name(node) == m.args[0] else None
    elif kind == "hasCondition":
        cond = getattr(node, "cond", None)
        result = None if cond is None else _eval(m.args[0], cond, nodes)
    elif kind == "hasThen":
        then = getattr(node, "then_branch", None)
        result = None if then is None else _eval(m.args[0], then, nodes)
    elif kind == "hasElse":
        els = getattr(node, "else_branch", None)
        result = None if els is None else _eval(m.args[0], els, nodes)
    elif kind == "argumentCountIs":
        args = _arguments(node)
        result = [{}] if args is not None and len(args) == m.args[0] else None
    elif kind == "hasArgument":
        args = _arguments(node)
        index, inner = m.args
        if args is None or index >= len(args):
            result = None
        else:
            result = _eval(inner, strip_parens(args[index]), nodes)
    elif kind == "statementCountIs":
        stmts = getattr(node, "stmts", None)
        result = [{}] if stmts is not None and len(stmts) == m.args[0] else None
    elif kind == "hasAnySubstatement":
        stmts = getattr(node, "stmts", None)
        result = None if stmts is None else _collect(m.args[0], stmts, nodes)
    elif kind == "isNoReturn":
        result = [{}] if getattr(node, "noreturn", False) else None
    elif kind == "to":
        decl = getattr(node, "decl", None)
        result = None if decl is None else _eval(m.args[0], decl, nodes)
    elif kind == "callee":
        fn = getattr(getattr(node, "callee", None), "decl", None)
        result = None if fn is None else _eval(m.args[0], fn, nodes)
    elif kind == "ignoringParens":
        result = _eval(m.args[0], strip_parens(node), nodes)
    else:
        raise MatcherConfigError(f"unknown matcher constructor '{kind}'")

    if result is None:
        return None
    if m.binding is not None:
        result = [{**b, m.binding: node} for b in result]
    return result


def _merge_inner(inner: tuple, node: Node, nodes: list[Node]) -> list[dict] | None:
    collected = []
    for sub in inner:
        r = _eval(sub, node, nodes)
        if r is None:
            return None
        collected.append(r)
    return _merge(collected)


def _collect(m: Matcher, candidates, nodes: list[Node]) -> list[dict] | None:
    out: list[dict] = []
    for candidate in candidates:
        r = _eval(m, candidate, nodes)
        if r is not None:
            out.extend(r)
    return out or None


def matches(matcher: Matcher, node: Node) -> bool:
    """Does `matcher` accept this node (ignoring bindings)?"""
    return _eval(matcher, node, tree_index(node)) is not None


def _root_kinds(m: Matcher) -> frozenset | None:
    """The node kinds at which `m` can match, or None for any kind. A
    necessary condition only: `_eval` still decides every match."""
    if m.kind in _KINDS:
        kinds = _KINDS[m.kind]
    elif m.kind == "allOf":
        kinds = None
    elif m.kind == "anyOf":
        alternatives = [_root_kinds(alt) for alt in m.args]
        return None if None in alternatives else frozenset().union(*alternatives)
    else:
        return None
    for inner in m.args:
        narrowed = _root_kinds(inner)
        if narrowed is not None:
            kinds = narrowed if kinds is None else kinds & narrowed
    return kinds


def match(matcher: Matcher, root: Node) -> list[MatchResult]:
    """All matches of `matcher` within the tree rooted at `root`, in pre-order
    of the matched nodes; one result per distinct (root, binding set).
    """
    results: list[MatchResult] = []
    seen: set = set()
    nodes = tree_index(root)
    subtree = nodes[root.node_id:root.last_id + 1]
    kinds = _root_kinds(matcher)
    if kinds is not None:
        subtree = [node for node in subtree if node.kind in kinds]
    for node in subtree:
        options = _eval(matcher, node, nodes)
        if options is None:
            continue
        for bound in options:
            key = (id(node), frozenset((k, id(v)) for k, v in bound.items()))
            if key in seen:
                continue
            seen.add(key)
            results.append(MatchResult(node, bound))
    return results
