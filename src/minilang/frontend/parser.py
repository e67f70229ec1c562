"""Recursive-descent parser for MiniLang.

`T * p;` parses as a declaration when T names a type, otherwise as a
multiplication statement; struct names must be declared before use, so the
parser keeps the set of names seen so far.
"""

from __future__ import annotations

import re

from ..diagnostics import Diagnostic, Severity
from ..source import SourceFile, SourceLocation, SourceRange
from .astnodes import (
    AddressOf, Assign, BinaryOp, Block, BoolLit, BreakStmt, BUILTIN_BASES, Call,
    ContinueStmt, DeclRef, DeleteStmt, ExprStmt, ExternDecl, FieldAccess,
    FieldDecl, FunctionDecl, IfStmt, IntLit, MethodCall, NewExpr, Node, Paren,
    ParamDecl, ReturnStmt, StringLit, StructDecl, TranslationUnit, TypeRef,
    UnaryOp, VarDecl, WhileStmt, number_tree,
)
from .lexer import Token, TokenKind

TYPE_KEYWORDS = frozenset(BUILTIN_BASES)

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "0": "\0"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

# Binary operators; all associate to the left.
_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6,
}

_UNARY_OPERATORS = frozenset({"!", "-", "*", "&"})

_new = tuple.__new__  # a TypeRef per declaration, every field given

# Deepest nesting of statements plus unary and parenthesised expressions.
# Clang's default bracket depth, 256, would overflow Python's default
# recursion limit: one parenthesis level takes six parser frames.
MAX_NESTING = 128


class _ParseBail(Exception):
    pass


class _NestingTooDeep(Exception):
    """Ends the parse; recovering would report each unmatched closer of the nest."""


class Parser:
    """Keywords and punctuators are tested by spelling: the lexer gives each
    one a spelling no other token kind has. `tok` is the current token, as
    in Clang's parser. Nodes are made from token and child offsets; only an
    error highlight builds locations."""

    def __init__(self, file: SourceFile, tokens: list[Token], std: int = 14):
        self.file = file
        self.toks = tokens
        self.pos = 0
        self.tok = tokens[0]
        self.std = std
        self.diags: list[Diagnostic] = []
        self.struct_names: set[str] = set()
        self.depth = 0

    # --- token plumbing ---

    def advance(self) -> Token:
        tok = self.tok
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
            self.tok = self.toks[self.pos]
        return tok

    def at_end(self) -> bool:
        return self.tok.kind is TokenKind.EOF

    def highlight(self, tok: Token) -> SourceRange:
        file = self.file
        return SourceRange(SourceLocation(file, tok.begin), SourceLocation(file, tok.end))

    def error(self, message: str, tok: Token | None = None):
        highlight = self.highlight(tok or self.tok)
        self.diags.append(Diagnostic(highlight.begin, message, Severity.ERROR,
                                     highlight=highlight))
        raise _ParseBail()

    def nest(self, tok: Token):
        """Enter one nesting level; the caller leaves it in a `finally`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            highlight = self.highlight(tok)
            self.diags.append(Diagnostic(
                highlight.begin, f"nesting level exceeds maximum of {MAX_NESTING}",
                Severity.ERROR, highlight=highlight))
            raise _NestingTooDeep()

    def expect_punct(self, text: str) -> Token:
        if self.tok.text != text:
            self.error(f"expected '{text}'")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.tok.kind is not TokenKind.IDENT:
            self.error("expected identifier")
        return self.advance()

    def _recover(self):
        """Skip to just past the next ';' or to the next '}'."""
        while not self.at_end():
            text = self.tok.text
            if text == ";":
                self.advance()
                return
            if text == "}":
                return
            self.advance()

    # --- types ---

    def at_type_start(self) -> bool:
        text = self.tok.text
        return text == "const" or text in TYPE_KEYWORDS or text in self.struct_names

    def parse_type(self, allow_reference: bool = False) -> TypeRef:
        is_const = False
        if self.tok.text == "const":
            self.advance()
            is_const = True
        base = self.tok.text
        if base in TYPE_KEYWORDS or base in self.struct_names:
            self.advance()
        else:
            self.error("expected type name")
        ind = 0
        while self.tok.text == "*":
            self.advance()
            ind += 1
        is_ref = False
        if self.tok.text == "&":
            if not allow_reference:
                self.error("reference type allowed only on parameters")
            self.advance()
            is_ref = True
        if base == "void" and ind > 1:
            self.error("void allows at most one level of indirection")
        return _new(TypeRef, (base, ind, is_const, is_ref))

    # --- top level ---

    def parse_translation_unit(self) -> TranslationUnit:
        decls: list[Node] = []
        first = self.tok.begin
        while not self.at_end():
            try:
                if self.tok.text == "struct":
                    decls.append(self.parse_struct())
                elif self.tok.text == "extern":
                    decls.append(self.parse_extern())
                else:
                    decls.append(self.parse_function())
            except _ParseBail:
                self._recover()
                if self.tok.text == "}":
                    self.advance()
        if decls:
            return TranslationUnit(self.file, decls[0].begin, decls[-1].end, decls)
        return TranslationUnit(self.file, first, first, decls)

    def parse_struct(self) -> StructDecl:
        kw = self.advance()
        name_tok = self.expect_ident()
        self.struct_names.add(name_tok.text)
        self.expect_punct("{")
        fields: list[FieldDecl] = []
        while self.tok.text != "}" and not self.at_end():
            fbegin = self.tok
            ftype = self.parse_type()
            fname = self.expect_ident()
            self.expect_punct(";")
            fields.append(FieldDecl(self.file, fbegin.begin, fname.end, fname.text,
                                    ftype, fname.begin))
        self.expect_punct("}")
        semi = self.expect_punct(";")
        return StructDecl(self.file, kw.begin, semi.end, name_tok.text, fields,
                          name_tok.begin)

    def parse_param_list(self) -> list[ParamDecl]:
        self.expect_punct("(")
        params: list[ParamDecl] = []
        if self.tok.text != ")":
            while True:
                begin = self.tok
                ptype = self.parse_type(allow_reference=True)
                name_tok = self.expect_ident()
                params.append(ParamDecl(self.file, begin.begin, name_tok.end,
                                        name_tok.text, ptype, name_tok.begin))
                if self.tok.text != ",":
                    break
                self.advance()
        self.expect_punct(")")
        return params

    def parse_extern(self) -> ExternDecl:
        kw = self.advance()
        noreturn = False
        if self.tok.text == "noreturn":
            self.advance()
            noreturn = True
        rtype = self.parse_type()
        name_tok = self.expect_ident()
        params = self.parse_param_list()
        semi = self.expect_punct(";")
        return ExternDecl(self.file, kw.begin, semi.end, name_tok.text, rtype, params,
                          noreturn, name_tok.begin)

    def parse_function(self) -> FunctionDecl:
        begin = self.tok
        rtype = self.parse_type()
        name_tok = self.expect_ident()
        params = self.parse_param_list()
        body = self.parse_block()
        return FunctionDecl(self.file, begin.begin, body.end, name_tok.text, rtype,
                            params, body, name_tok.begin)

    # --- statements ---

    def parse_block(self) -> Block:
        lbrace = self.expect_punct("{")
        stmts: list[Node] = []
        while self.tok.text != "}" and not self.at_end():
            stmt = self.parse_stmt_recovering()
            if stmt is not None:
                stmts.append(stmt)
        rbrace = self.expect_punct("}")
        return Block(self.file, lbrace.begin, rbrace.end, stmts)

    def parse_stmt_recovering(self) -> Node | None:
        try:
            return self.parse_stmt()
        except _ParseBail:
            self._recover()
            return None

    def parse_stmt(self) -> Node:
        tok = self.tok
        self.nest(tok)
        try:
            if tok.text == "{":
                return self.parse_block()
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "return":
                self.advance()
                value = None
                if self.tok.text != ";":
                    value = self.parse_expr()
                semi = self.expect_punct(";")
                return ReturnStmt(self.file, tok.begin, semi.end, value)
            if tok.text == "break":
                self.advance()
                semi = self.expect_punct(";")
                return BreakStmt(self.file, tok.begin, semi.end)
            if tok.text == "continue":
                self.advance()
                semi = self.expect_punct(";")
                return ContinueStmt(self.file, tok.begin, semi.end)
            if tok.text == "delete":
                self.advance()
                operand = self.parse_expr()
                semi = self.expect_punct(";")
                return DeleteStmt(self.file, tok.begin, semi.end, operand)
            if self.at_type_start():
                decl = self.parse_var_decl()
                self.expect_punct(";")
                return decl
            expr = self.parse_expr()
            semi = self.expect_punct(";")
            return ExprStmt(self.file, tok.begin, semi.end, expr)
        finally:
            self.depth -= 1

    def parse_var_decl(self) -> VarDecl:
        """Declaration without its trailing ';' (the range excludes it too)."""
        begin = self.tok
        dtype = self.parse_type()
        name_tok = self.expect_ident()
        init = None
        end = name_tok.end
        if self.tok.text == "=":
            self.advance()
            init = self.parse_assign()
            end = init.end
        return VarDecl(self.file, begin.begin, end, name_tok.text, dtype, init,
                       name_tok.begin)

    def parse_if(self) -> IfStmt:
        kw = self.advance()
        self.expect_punct("(")
        init = None
        if self.at_type_start():
            if self.std < 17:
                self.error("if-statement initializer requires --std=17")
            init = self.parse_var_decl()
            self.expect_punct(";")
        cond = self.parse_expr()
        self.expect_punct(")")
        then_branch = self.parse_stmt()
        else_branch = None
        last: Node = then_branch
        if self.tok.text == "else":
            self.advance()
            else_branch = self.parse_stmt()
            last = else_branch
        return IfStmt(self.file, kw.begin, last.end, init, cond, then_branch, else_branch)

    def parse_while(self) -> WhileStmt:
        kw = self.advance()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_stmt()
        return WhileStmt(self.file, kw.begin, body.end, cond, body)

    # --- expressions ---

    def parse_expr(self) -> Node:
        """Full expression: comma has the lowest precedence."""
        expr = self.parse_assign()
        while self.tok.text == ",":
            op_tok = self.advance()
            rhs = self.parse_assign()
            expr = BinaryOp(self.file, ",", expr, rhs, op_tok.begin)
        return expr

    def parse_assign(self) -> Node:
        lhs = self.parse_binary()
        tok = self.tok
        if tok.text in ("=", "+="):
            op_tok = self.advance()
            rhs = self.parse_assign()
            return Assign(self.file, op_tok.text, lhs, rhs, op_tok.begin)
        return lhs

    def parse_binary(self, min_precedence: int = 1) -> Node:
        """Precedence climbing: operators binding tighter than `min_precedence`
        extend the right operand, so each operand costs one call."""
        expr = self.parse_unary()
        while _BINARY_PRECEDENCE.get(self.tok.text, 0) >= min_precedence:
            op_tok = self.advance()
            rhs = self.parse_binary(_BINARY_PRECEDENCE[op_tok.text] + 1)
            expr = BinaryOp(self.file, op_tok.text, expr, rhs, op_tok.begin)
        return expr

    def parse_unary(self) -> Node:
        tok = self.tok
        self.nest(tok)
        try:
            if tok.text in _UNARY_OPERATORS:
                self.advance()
                operand = self.parse_unary()
                if tok.text == "&":
                    return AddressOf(self.file, tok.begin, operand.end, operand)
                return UnaryOp(self.file, tok.begin, operand.end, tok.text, operand)
            return self.parse_postfix()
        finally:
            self.depth -= 1

    def parse_postfix(self) -> Node:
        expr = self.parse_primary()
        while True:
            tok = self.tok
            if tok.text in (".", "->"):
                self.advance()
                name_tok = self.expect_ident()
                if self.tok.text == "(":
                    args, close = self.parse_args()
                    expr = MethodCall(self.file, expr.begin, close.end, expr,
                                      name_tok.text, args, tok.text == "->",
                                      name_tok.begin)
                else:
                    expr = FieldAccess(self.file, expr.begin, name_tok.end, expr,
                                       name_tok.text, tok.text == "->", name_tok.begin)
            elif tok.text == "(":
                if not isinstance(expr, DeclRef):
                    self.error("called object is not a function name", tok)
                args, close = self.parse_args()
                expr = Call(self.file, expr.begin, close.end, expr, args)
            else:
                return expr

    def parse_args(self) -> tuple[list[Node], Token]:
        self.expect_punct("(")
        args: list[Node] = []
        if self.tok.text != ")":
            while True:
                args.append(self.parse_assign())
                if self.tok.text != ",":
                    break
                self.advance()
        close = self.expect_punct(")")
        return args, close

    def parse_primary(self) -> Node:
        tok = self.tok
        if tok.kind is TokenKind.INT:
            self.advance()
            return IntLit(self.file, tok.begin, tok.end, int(tok.text))
        if tok.text in ("true", "false"):
            self.advance()
            return BoolLit(self.file, tok.begin, tok.end, tok.text == "true")
        if tok.kind is TokenKind.STRING:
            self.advance()
            return StringLit(self.file, tok.begin, tok.end, _decode_string(tok.text))
        if tok.text == "new":
            self.advance()
            name_tok = self.tok
            if name_tok.kind is TokenKind.IDENT or name_tok.text in TYPE_KEYWORDS:
                self.advance()
            else:
                self.error("expected type name after 'new'")
            self.expect_punct("(")
            close = self.expect_punct(")")
            return NewExpr(self.file, tok.begin, close.end, name_tok.text)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return DeclRef(self.file, tok.begin, tok.end, tok.text)
        if tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            close = self.expect_punct(")")
            return Paren(self.file, tok.begin, close.end, inner)
        self.error("expected expression")


def _decode_string(spelling: str) -> str:
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), spelling[1:-1])


def parse(file: SourceFile, tokens: list[Token], std: int = 14
          ) -> tuple[TranslationUnit | None, list[Diagnostic]]:
    """Parse the token stream of `file`; on syntax errors, recovery resumes
    at ';' or '}'.

    Nesting deeper than MAX_NESTING ends the parse with no unit.
    """
    parser = Parser(file, tokens, std)
    try:
        unit = parser.parse_translation_unit()
    except _NestingTooDeep:
        return None, parser.diags
    number_tree(unit)
    return unit, parser.diags
