"""Recursive-descent parser for MiniLang.

`T * p;` parses as a declaration when T names a type, otherwise as a
multiplication statement; struct names must be declared before use, so the
parser keeps the set of names seen so far.
"""

from __future__ import annotations

import re

from ..diagnostics import Diagnostic, Severity
from ..source import SourceRange
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

# Deepest nesting of statements plus unary and parenthesised expressions.
# Clang's default bracket depth, 256, would overflow Python's default
# recursion limit: one parenthesis level takes six parser frames.
MAX_NESTING = 128


class _ParseBail(Exception):
    pass


class _NestingTooDeep(Exception):
    """Ends the parse; recovering would report each unmatched closer of the nest."""


class Parser:
    def __init__(self, tokens: list[Token], std: int = 14):
        self.toks = tokens
        self.pos = 0
        self.std = std
        self.diags: list[Diagnostic] = []
        self.struct_names: set[str] = set()
        self.depth = 0

    # --- token plumbing ---

    def peek(self) -> Token:
        return self.toks[self.pos]  # `advance` never moves past EOF

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.peek().kind is TokenKind.EOF

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        self.diags.append(Diagnostic(tok.range.begin, message, Severity.ERROR,
                                     highlight=tok.range))
        raise _ParseBail()

    def nest(self, tok: Token):
        """Enter one nesting level; the caller leaves it in a `finally`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.diags.append(Diagnostic(
                tok.range.begin, f"nesting level exceeds maximum of {MAX_NESTING}",
                Severity.ERROR, highlight=tok.range))
            raise _NestingTooDeep()

    def expect_punct(self, text: str) -> Token:
        if not self.peek().is_punct(text):
            self.error(f"expected '{text}'")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.peek().kind is not TokenKind.IDENT:
            self.error("expected identifier")
        return self.advance()

    def _recover(self):
        """Skip to just past the next ';' or to the next '}'."""
        while not self.at_end():
            tok = self.peek()
            if tok.is_punct(";"):
                self.advance()
                return
            if tok.is_punct("}"):
                return
            self.advance()

    def span(self, begin: Token, end_exclusive_of: Token | Node) -> SourceRange:
        return SourceRange(begin.range.begin, end_exclusive_of.range.end)

    # --- types ---

    def at_type_start(self) -> bool:
        tok = self.peek()
        if tok.is_kw("const"):
            return True
        if tok.kind is TokenKind.KEYWORD and tok.text in TYPE_KEYWORDS:
            return True
        return tok.kind is TokenKind.IDENT and tok.text in self.struct_names

    def parse_type(self, allow_reference: bool = False) -> TypeRef:
        is_const = False
        if self.peek().is_kw("const"):
            self.advance()
            is_const = True
        tok = self.peek()
        if tok.kind is TokenKind.KEYWORD and tok.text in TYPE_KEYWORDS:
            base = self.advance().text
        elif tok.kind is TokenKind.IDENT and tok.text in self.struct_names:
            base = self.advance().text
        else:
            self.error("expected type name")
        ind = 0
        while self.peek().is_punct("*"):
            self.advance()
            ind += 1
        is_ref = False
        if self.peek().is_punct("&"):
            if not allow_reference:
                self.error("reference type allowed only on parameters")
            self.advance()
            is_ref = True
        if base == "void" and ind > 1:
            self.error("void allows at most one level of indirection")
        return TypeRef(base, ind, is_const, is_ref)

    # --- top level ---

    def parse_translation_unit(self) -> TranslationUnit:
        decls: list[Node] = []
        first = self.peek()
        while not self.at_end():
            try:
                if self.peek().is_kw("struct"):
                    decls.append(self.parse_struct())
                elif self.peek().is_kw("extern"):
                    decls.append(self.parse_extern())
                else:
                    decls.append(self.parse_function())
            except _ParseBail:
                self._recover()
                if self.peek().is_punct("}"):
                    self.advance()
        if decls:
            return TranslationUnit(SourceRange(decls[0].range.begin, decls[-1].range.end), decls)
        return TranslationUnit(SourceRange(first.range.begin, first.range.begin), decls)

    def parse_struct(self) -> StructDecl:
        kw = self.advance()
        name_tok = self.expect_ident()
        self.struct_names.add(name_tok.text)
        self.expect_punct("{")
        fields: list[FieldDecl] = []
        while not self.peek().is_punct("}") and not self.at_end():
            fbegin = self.peek()
            ftype = self.parse_type()
            fname = self.expect_ident()
            self.expect_punct(";")
            fields.append(FieldDecl(self.span(fbegin, fname), fname.text,
                                    ftype, fname.range.begin))
        self.expect_punct("}")
        semi = self.expect_punct(";")
        return StructDecl(self.span(kw, semi), name_tok.text, fields, name_tok.range.begin)

    def parse_param_list(self) -> list[ParamDecl]:
        self.expect_punct("(")
        params: list[ParamDecl] = []
        if not self.peek().is_punct(")"):
            while True:
                begin = self.peek()
                ptype = self.parse_type(allow_reference=True)
                name_tok = self.expect_ident()
                params.append(ParamDecl(self.span(begin, name_tok), name_tok.text,
                                        ptype, name_tok.range.begin))
                if not self.peek().is_punct(","):
                    break
                self.advance()
        self.expect_punct(")")
        return params

    def parse_extern(self) -> ExternDecl:
        kw = self.advance()
        noreturn = False
        if self.peek().is_kw("noreturn"):
            self.advance()
            noreturn = True
        rtype = self.parse_type()
        name_tok = self.expect_ident()
        params = self.parse_param_list()
        semi = self.expect_punct(";")
        return ExternDecl(self.span(kw, semi), name_tok.text, rtype, params,
                          noreturn, name_tok.range.begin)

    def parse_function(self) -> FunctionDecl:
        begin = self.peek()
        rtype = self.parse_type()
        name_tok = self.expect_ident()
        params = self.parse_param_list()
        body = self.parse_block()
        return FunctionDecl(self.span(begin, body), name_tok.text, rtype,
                            params, body, name_tok.range.begin)

    # --- statements ---

    def parse_block(self) -> Block:
        lbrace = self.expect_punct("{")
        stmts: list[Node] = []
        while not self.peek().is_punct("}") and not self.at_end():
            stmt = self.parse_stmt_recovering()
            if stmt is not None:
                stmts.append(stmt)
        rbrace = self.expect_punct("}")
        return Block(self.span(lbrace, rbrace), stmts)

    def parse_stmt_recovering(self) -> Node | None:
        try:
            return self.parse_stmt()
        except _ParseBail:
            self._recover()
            return None

    def parse_stmt(self) -> Node:
        tok = self.peek()
        self.nest(tok)
        try:
            if tok.is_punct("{"):
                return self.parse_block()
            if tok.is_kw("if"):
                return self.parse_if()
            if tok.is_kw("while"):
                return self.parse_while()
            if tok.is_kw("return"):
                self.advance()
                value = None
                if not self.peek().is_punct(";"):
                    value = self.parse_expr()
                semi = self.expect_punct(";")
                return ReturnStmt(self.span(tok, semi), value)
            if tok.is_kw("break"):
                self.advance()
                semi = self.expect_punct(";")
                return BreakStmt(self.span(tok, semi))
            if tok.is_kw("continue"):
                self.advance()
                semi = self.expect_punct(";")
                return ContinueStmt(self.span(tok, semi))
            if tok.is_kw("delete"):
                self.advance()
                operand = self.parse_expr()
                semi = self.expect_punct(";")
                return DeleteStmt(self.span(tok, semi), operand)
            if self.at_type_start():
                decl = self.parse_var_decl()
                self.expect_punct(";")
                return decl
            expr = self.parse_expr()
            semi = self.expect_punct(";")
            return ExprStmt(self.span(tok, semi), expr)
        finally:
            self.depth -= 1

    def parse_var_decl(self) -> VarDecl:
        """Declaration without its trailing ';' (the range excludes it too)."""
        begin = self.peek()
        dtype = self.parse_type()
        name_tok = self.expect_ident()
        init = None
        last: Token | Node = name_tok
        if self.peek().is_punct("="):
            self.advance()
            init = self.parse_assign()
            last = init
        return VarDecl(self.span(begin, last), name_tok.text, dtype, init,
                       name_tok.range.begin)

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
        if self.peek().is_kw("else"):
            self.advance()
            else_branch = self.parse_stmt()
            last = else_branch
        return IfStmt(self.span(kw, last), init, cond, then_branch, else_branch)

    def parse_while(self) -> WhileStmt:
        kw = self.advance()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_stmt()
        return WhileStmt(self.span(kw, body), cond, body)

    # --- expressions ---

    def parse_expr(self) -> Node:
        """Full expression: comma has the lowest precedence."""
        expr = self.parse_assign()
        while self.peek().is_punct(","):
            op_tok = self.advance()
            rhs = self.parse_assign()
            expr = BinaryOp(SourceRange(expr.range.begin, rhs.range.end), ",",
                            expr, rhs, op_tok.range.begin)
        return expr

    def parse_assign(self) -> Node:
        lhs = self.parse_binary()
        tok = self.peek()
        if tok.is_punct("=") or tok.is_punct("+="):
            op_tok = self.advance()
            rhs = self.parse_assign()
            return Assign(SourceRange(lhs.range.begin, rhs.range.end),
                          op_tok.text, lhs, rhs, op_tok.range.begin)
        return lhs

    def parse_binary(self, min_precedence: int = 1) -> Node:
        """Precedence climbing: operators binding tighter than `min_precedence`
        extend the right operand, so each operand costs one call."""
        expr = self.parse_unary()
        while _BINARY_PRECEDENCE.get(self.peek().text, 0) >= min_precedence:
            op_tok = self.advance()
            rhs = self.parse_binary(_BINARY_PRECEDENCE[op_tok.text] + 1)
            expr = BinaryOp(SourceRange(expr.range.begin, rhs.range.end),
                            op_tok.text, expr, rhs, op_tok.range.begin)
        return expr

    def parse_unary(self) -> Node:
        tok = self.peek()
        self.nest(tok)
        try:
            if tok.kind is TokenKind.PUNCT and tok.text in ("!", "-", "*", "&"):
                op_tok = self.advance()
                operand = self.parse_unary()
                rng = SourceRange(op_tok.range.begin, operand.range.end)
                if op_tok.text == "&":
                    return AddressOf(rng, operand, op_tok.range.begin)
                return UnaryOp(rng, op_tok.text, operand, op_tok.range.begin)
            return self.parse_postfix()
        finally:
            self.depth -= 1

    def parse_postfix(self) -> Node:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.is_punct(".") or tok.is_punct("->"):
                is_arrow = tok.text == "->"
                self.advance()
                name_tok = self.expect_ident()
                if self.peek().is_punct("("):
                    args, close = self.parse_args()
                    expr = MethodCall(SourceRange(expr.range.begin, close.range.end),
                                      expr, name_tok.text, args, is_arrow,
                                      name_tok.range.begin)
                else:
                    expr = FieldAccess(SourceRange(expr.range.begin, name_tok.range.end),
                                       expr, name_tok.text, is_arrow,
                                       name_tok.range.begin)
            elif tok.is_punct("("):
                if not isinstance(expr, DeclRef):
                    self.error("called object is not a function name", tok)
                args, close = self.parse_args()
                expr = Call(SourceRange(expr.range.begin, close.range.end), expr, args)
            else:
                return expr

    def parse_args(self) -> tuple[list[Node], Token]:
        self.expect_punct("(")
        args: list[Node] = []
        if not self.peek().is_punct(")"):
            while True:
                args.append(self.parse_assign())
                if not self.peek().is_punct(","):
                    break
                self.advance()
        close = self.expect_punct(")")
        return args, close

    def parse_primary(self) -> Node:
        tok = self.peek()
        if tok.kind is TokenKind.INT:
            self.advance()
            return IntLit(tok.range, int(tok.text))
        if tok.is_kw("true") or tok.is_kw("false"):
            self.advance()
            return BoolLit(tok.range, tok.text == "true")
        if tok.kind is TokenKind.STRING:
            self.advance()
            return StringLit(tok.range, _decode_string(tok.text))
        if tok.is_kw("new"):
            self.advance()
            name_tok = self.peek()
            if name_tok.kind is TokenKind.IDENT or (
                    name_tok.kind is TokenKind.KEYWORD and name_tok.text in TYPE_KEYWORDS):
                self.advance()
            else:
                self.error("expected type name after 'new'")
            self.expect_punct("(")
            close = self.expect_punct(")")
            return NewExpr(self.span(tok, close), name_tok.text)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return DeclRef(tok.range, tok.text)
        if tok.is_punct("("):
            self.advance()
            inner = self.parse_expr()
            close = self.expect_punct(")")
            return Paren(self.span(tok, close), inner)
        self.error("expected expression")


def _decode_string(spelling: str) -> str:
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), spelling[1:-1])


def parse(tokens: list[Token], std: int = 14
          ) -> tuple[TranslationUnit | None, list[Diagnostic]]:
    """Parse a token stream; on syntax errors, recovery resumes at ';' or '}'.

    Nesting deeper than MAX_NESTING ends the parse with no unit.
    """
    parser = Parser(tokens, std)
    try:
        unit = parser.parse_translation_unit()
    except _NestingTooDeep:
        return None, parser.diags
    number_tree(unit)
    return unit, parser.diags
