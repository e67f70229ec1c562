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
from .lexer import TokenKind, Tokens

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
    """Reads the token columns by index, as Zig's parser does. `pos` is the
    current token's index; its spelling and kind are kept as `spelling` and
    `kind`, as Clang's parser keeps its current token. Keywords and
    punctuators are tested by spelling: the lexer gives each one a spelling
    no other token kind has. Nodes are made from token and child offsets;
    only an error highlight builds locations."""

    def __init__(self, file: SourceFile, tokens: Tokens, std: int = 14):
        self.file = file
        self.kinds = tokens.kinds
        self.spellings = tokens.spellings
        self.begins = tokens.begins
        self.ends = tokens.ends
        self.last = len(tokens) - 1  # the EOF token
        self.pos = 0
        self.spelling = self.spellings[0]
        self.kind = self.kinds[0]
        self.std = std
        self.diags: list[Diagnostic] = []
        self.struct_names: set[str] = set()
        self.depth = 0

    # --- token plumbing ---

    def advance(self) -> int:
        """Step past the current token, never past EOF; return its index."""
        pos = self.pos
        if pos != self.last:
            self.pos = pos + 1
            self.spelling = self.spellings[pos + 1]
            self.kind = self.kinds[pos + 1]
        return pos

    def at_end(self) -> bool:
        return self.pos == self.last

    def highlight(self) -> SourceRange:
        """The current token's range."""
        file, pos = self.file, self.pos
        return SourceRange(SourceLocation(file, self.begins[pos]),
                           SourceLocation(file, self.ends[pos]))

    def error(self, message: str):
        """Report an error at the current token and bail out of the statement."""
        highlight = self.highlight()
        self.diags.append(Diagnostic(highlight.begin, message, Severity.ERROR,
                                     highlight=highlight))
        raise _ParseBail()

    def nest(self):
        """Enter one nesting level at the current token; the caller leaves
        it in a `finally`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            highlight = self.highlight()
            self.diags.append(Diagnostic(
                highlight.begin, f"nesting level exceeds maximum of {MAX_NESTING}",
                Severity.ERROR, highlight=highlight))
            raise _NestingTooDeep()

    def expect_punct(self, text: str) -> int:
        if self.spelling != text:
            self.error(f"expected '{text}'")
        return self.advance()

    def expect_ident(self) -> int:
        if self.kind is not TokenKind.IDENT:
            self.error("expected identifier")
        return self.advance()

    def _recover(self):
        """Skip to just past the next ';' or to the next '}'."""
        while not self.at_end():
            spelling = self.spelling
            if spelling == ";":
                self.advance()
                return
            if spelling == "}":
                return
            self.advance()

    # --- types ---

    def at_type_start(self) -> bool:
        spelling = self.spelling
        return spelling == "const" or spelling in TYPE_KEYWORDS or spelling in self.struct_names

    def parse_type(self, allow_reference: bool = False) -> TypeRef:
        is_const = False
        if self.spelling == "const":
            self.advance()
            is_const = True
        base = self.spelling
        if base in TYPE_KEYWORDS or base in self.struct_names:
            self.advance()
        else:
            self.error("expected type name")
        ind = 0
        while self.spelling == "*":
            self.advance()
            ind += 1
        is_ref = False
        if self.spelling == "&":
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
        first = self.begins[0]
        while not self.at_end():
            try:
                if self.spelling == "struct":
                    decls.append(self.parse_struct())
                elif self.spelling == "extern":
                    decls.append(self.parse_extern())
                else:
                    decls.append(self.parse_function())
            except _ParseBail:
                self._recover()
                if self.spelling == "}":
                    self.advance()
        if decls:
            return TranslationUnit(self.file, decls[0].begin, decls[-1].end, decls)
        return TranslationUnit(self.file, first, first, decls)

    def parse_struct(self) -> StructDecl:
        begins, ends, spellings = self.begins, self.ends, self.spellings
        kw = self.advance()
        name = self.expect_ident()
        self.struct_names.add(spellings[name])
        self.expect_punct("{")
        fields: list[FieldDecl] = []
        while self.spelling != "}" and not self.at_end():
            fbegin = begins[self.pos]
            ftype = self.parse_type()
            fname = self.expect_ident()
            self.expect_punct(";")
            fields.append(FieldDecl(self.file, fbegin, ends[fname], spellings[fname],
                                    ftype, begins[fname]))
        self.expect_punct("}")
        semi = self.expect_punct(";")
        return StructDecl(self.file, begins[kw], ends[semi], spellings[name], fields,
                          begins[name])

    def parse_param_list(self) -> list[ParamDecl]:
        begins, ends, spellings = self.begins, self.ends, self.spellings
        self.expect_punct("(")
        params: list[ParamDecl] = []
        if self.spelling != ")":
            while True:
                begin = begins[self.pos]
                ptype = self.parse_type(allow_reference=True)
                name = self.expect_ident()
                params.append(ParamDecl(self.file, begin, ends[name], spellings[name],
                                        ptype, begins[name]))
                if self.spelling != ",":
                    break
                self.advance()
        self.expect_punct(")")
        return params

    def parse_extern(self) -> ExternDecl:
        kw = self.advance()
        noreturn = False
        if self.spelling == "noreturn":
            self.advance()
            noreturn = True
        rtype = self.parse_type()
        name = self.expect_ident()
        params = self.parse_param_list()
        semi = self.expect_punct(";")
        return ExternDecl(self.file, self.begins[kw], self.ends[semi], self.spellings[name],
                          rtype, params, noreturn, self.begins[name])

    def parse_function(self) -> FunctionDecl:
        begin = self.begins[self.pos]
        rtype = self.parse_type()
        name = self.expect_ident()
        params = self.parse_param_list()
        body = self.parse_block()
        return FunctionDecl(self.file, begin, body.end, self.spellings[name], rtype,
                            params, body, self.begins[name])

    # --- statements ---

    def parse_block(self) -> Block:
        lbrace = self.expect_punct("{")
        stmts: list[Node] = []
        while self.spelling != "}" and not self.at_end():
            stmt = self.parse_stmt_recovering()
            if stmt is not None:
                stmts.append(stmt)
        rbrace = self.expect_punct("}")
        return Block(self.file, self.begins[lbrace], self.ends[rbrace], stmts)

    def parse_stmt_recovering(self) -> Node | None:
        try:
            return self.parse_stmt()
        except _ParseBail:
            self._recover()
            return None

    def parse_stmt(self) -> Node:
        spelling = self.spelling
        begin = self.begins[self.pos]
        self.nest()
        try:
            if spelling == "{":
                return self.parse_block()
            if spelling == "if":
                return self.parse_if()
            if spelling == "while":
                return self.parse_while()
            if spelling == "return":
                self.advance()
                value = None
                if self.spelling != ";":
                    value = self.parse_expr()
                semi = self.expect_punct(";")
                return ReturnStmt(self.file, begin, self.ends[semi], value)
            if spelling == "break":
                self.advance()
                semi = self.expect_punct(";")
                return BreakStmt(self.file, begin, self.ends[semi])
            if spelling == "continue":
                self.advance()
                semi = self.expect_punct(";")
                return ContinueStmt(self.file, begin, self.ends[semi])
            if spelling == "delete":
                self.advance()
                operand = self.parse_expr()
                semi = self.expect_punct(";")
                return DeleteStmt(self.file, begin, self.ends[semi], operand)
            if self.at_type_start():
                decl = self.parse_var_decl()
                self.expect_punct(";")
                return decl
            expr = self.parse_expr()
            semi = self.expect_punct(";")
            return ExprStmt(self.file, begin, self.ends[semi], expr)
        finally:
            self.depth -= 1

    def parse_var_decl(self) -> VarDecl:
        """Declaration without its trailing ';' (the range excludes it too)."""
        begin = self.begins[self.pos]
        dtype = self.parse_type()
        name = self.expect_ident()
        init = None
        end = self.ends[name]
        if self.spelling == "=":
            self.advance()
            init = self.parse_assign()
            end = init.end
        return VarDecl(self.file, begin, end, self.spellings[name], dtype, init,
                       self.begins[name])

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
        if self.spelling == "else":
            self.advance()
            else_branch = self.parse_stmt()
            last = else_branch
        return IfStmt(self.file, self.begins[kw], last.end, init, cond, then_branch,
                      else_branch)

    def parse_while(self) -> WhileStmt:
        kw = self.advance()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_stmt()
        return WhileStmt(self.file, self.begins[kw], body.end, cond, body)

    # --- expressions ---

    def parse_expr(self) -> Node:
        """Full expression: comma has the lowest precedence."""
        expr = self.parse_assign()
        while self.spelling == ",":
            op = self.advance()
            rhs = self.parse_assign()
            expr = BinaryOp(self.file, ",", expr, rhs, self.begins[op])
        return expr

    def parse_assign(self) -> Node:
        """Assignment associates to the right. The operands of a chain are
        read in a loop and nested from the right, so a chain of any length
        takes no deeper recursion than one operand."""
        lhs = self.parse_binary()
        if self.spelling not in ("=", "+="):
            return lhs
        operands = [lhs]
        ops: list[int] = []
        while self.spelling in ("=", "+="):
            ops.append(self.advance())
            operands.append(self.parse_binary())
        expr = operands.pop()
        spellings, begins = self.spellings, self.begins
        for op in reversed(ops):
            expr = Assign(self.file, spellings[op], operands.pop(), expr, begins[op])
        return expr

    def parse_binary(self, min_precedence: int = 1) -> Node:
        """Precedence climbing: operators binding tighter than `min_precedence`
        extend the right operand, so each operand costs one call."""
        expr = self.parse_unary()
        while _BINARY_PRECEDENCE.get(self.spelling, 0) >= min_precedence:
            op = self.advance()
            spelling = self.spellings[op]
            rhs = self.parse_binary(_BINARY_PRECEDENCE[spelling] + 1)
            expr = BinaryOp(self.file, spelling, expr, rhs, self.begins[op])
        return expr

    def parse_unary(self) -> Node:
        spelling = self.spelling
        self.nest()
        try:
            if spelling in _UNARY_OPERATORS:
                begin = self.begins[self.advance()]
                operand = self.parse_unary()
                if spelling == "&":
                    return AddressOf(self.file, begin, operand.end, operand)
                return UnaryOp(self.file, begin, operand.end, spelling, operand)
            return self.parse_postfix()
        finally:
            self.depth -= 1

    def parse_postfix(self) -> Node:
        expr = self.parse_primary()
        while True:
            spelling = self.spelling
            if spelling == "." or spelling == "->":
                self.advance()
                name = self.expect_ident()
                if self.spelling == "(":
                    args, close = self.parse_args()
                    expr = MethodCall(self.file, expr.begin, self.ends[close], expr,
                                      self.spellings[name], args, spelling == "->",
                                      self.begins[name])
                else:
                    expr = FieldAccess(self.file, expr.begin, self.ends[name], expr,
                                       self.spellings[name], spelling == "->",
                                       self.begins[name])
            elif spelling == "(":
                if not isinstance(expr, DeclRef):
                    self.error("called object is not a function name")
                args, close = self.parse_args()
                expr = Call(self.file, expr.begin, self.ends[close], expr, args)
            else:
                return expr

    def parse_args(self) -> tuple[list[Node], int]:
        """The arguments and the index of the closing ')'."""
        self.expect_punct("(")
        args: list[Node] = []
        if self.spelling != ")":
            while True:
                args.append(self.parse_assign())
                if self.spelling != ",":
                    break
                self.advance()
        close = self.expect_punct(")")
        return args, close

    def parse_primary(self) -> Node:
        pos, kind, spelling = self.pos, self.kind, self.spelling
        begins, ends = self.begins, self.ends
        if kind is TokenKind.IDENT:
            self.advance()
            return DeclRef(self.file, begins[pos], ends[pos], spelling)
        if kind is TokenKind.INT:
            self.advance()
            return IntLit(self.file, begins[pos], ends[pos], int(spelling))
        if spelling == "true" or spelling == "false":
            self.advance()
            return BoolLit(self.file, begins[pos], ends[pos], spelling == "true")
        if kind is TokenKind.STRING:
            self.advance()
            return StringLit(self.file, begins[pos], ends[pos], _decode_string(spelling))
        if spelling == "new":
            self.advance()
            name = self.spelling
            if self.kind is TokenKind.IDENT or name in TYPE_KEYWORDS:
                self.advance()
            else:
                self.error("expected type name after 'new'")
            self.expect_punct("(")
            close = self.expect_punct(")")
            return NewExpr(self.file, begins[pos], ends[close], name)
        if spelling == "(":
            self.advance()
            inner = self.parse_expr()
            close = self.expect_punct(")")
            return Paren(self.file, begins[pos], ends[close], inner)
        self.error("expected expression")


def _decode_string(spelling: str) -> str:
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), spelling[1:-1])


def parse(file: SourceFile, tokens: Tokens, std: int = 14
          ) -> tuple[TranslationUnit | None, list[Diagnostic]]:
    """Parse the token columns of `file`; on syntax errors, recovery resumes
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
