"""MiniLang frontend: lexing, parsing and type checking.

`load_unit` is the one-call pipeline used by the tools: text in, typed
translation unit (or diagnostics) out.
"""

from __future__ import annotations

from ..diagnostics import Diagnostic
from ..source import SourceFile
from .astnodes import (  # noqa: F401  (re-exported surface)
    AddressOf, Assign, BinaryOp, Block, BOOL, BoolLit, BreakStmt, Call, CHAR,
    CHAR_PTR, ContinueStmt, DeclRef, DeleteStmt, dump_ast, Expr, ExprStmt,
    ExternDecl, FieldAccess, FieldDecl, FunctionDecl, IfStmt, INT, IntLit,
    MethodCall, NewExpr, Node, Paren, ParamDecl, ReturnStmt, STRING, StringLit,
    strip_parens, StructDecl, TranslationUnit, TypeRef,
    UnaryOp, VarDecl, VOID, walk, WhileStmt,
)
from .builtins import STRING_METHODS  # noqa: F401
from .lexer import Comment, LexError, TokenKind, Tokens, tokenize  # noqa: F401
from .parser import parse
from .typecheck import typecheck


class FrontendResult:
    def __init__(self, file: SourceFile, unit: TranslationUnit | None,
                 diagnostics: list[Diagnostic] | None = None,
                 comments: list[Comment] | None = None):
        self.file = file
        self.unit = unit
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.comments = [] if comments is None else comments  # every `//` comment, in order

    @property
    def ok(self) -> bool:
        return self.unit is not None and not self.diagnostics


def load_unit(name: str, text: str, std: int = 14) -> FrontendResult:
    """Lex, parse and typecheck one translation unit."""
    file = SourceFile(name, text)
    try:
        tokens = tokenize(file)
    except LexError as err:
        return FrontendResult(file, None, [err.diagnostic])
    unit, diags = parse(file, tokens, std)
    if diags:
        return FrontendResult(file, unit, diags, tokens.comments)
    diags = typecheck(unit)
    return FrontendResult(file, unit, diags, tokens.comments)


def node_text(node: Node) -> str:
    """Exact source spelling of a node."""
    return node.file.text[node.begin:node.end]
