"""Lexer for MiniLang. `//` comments are kept as trivia on the next token."""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from ..diagnostics import Diagnostic, Severity
from ..source import SourceFile, SourceLocation, SourceRange


KEYWORDS = frozenset({
    "int", "bool", "char", "void", "string", "struct", "extern", "noreturn",
    "if", "else", "while", "return", "break", "continue", "delete", "new",
    "true", "false", "const",
})

PUNCTUATORS = (
    "==", "!=", "<=", ">=", "&&", "||", "->", "+=",
    "(", ")", "{", "}", ";", ",", "=", "<", ">", "+", "-", "*", "/",
    "!", "&", ".",
)


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    INT = "int-literal"
    STRING = "string-literal"
    PUNCT = "punctuator"
    EOF = "eof"


_KIND_OF_GROUP = {kind.name: kind for kind in TokenKind}


class Comment(NamedTuple):
    text: str
    range: SourceRange


class Token(NamedTuple):
    kind: TokenKind
    text: str
    range: SourceRange
    leading_comments: tuple[Comment, ...] = ()

    def is_kw(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def __repr__(self):
        return f"Token({self.kind.value}, {self.text!r})"


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


# One alternative per token class, all ASCII; non-ASCII text is legal only
# inside string literals and comments. A lone '"' is an unterminated string.
# Punctuators go longest first, so the alternation takes the maximal munch.
# Groups that always give one token kind are named after that TokenKind.
_TOKEN = re.compile("|".join([
    r"(?P<space>[ \t\r\n]+)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<INT>[0-9]+)",
    r'(?P<STRING>"(?:[^"\\\n]|\\[\s\S])*")',
    r'(?P<quote>")',
    "(?P<PUNCT>" + "|".join(map(re.escape, sorted(PUNCTUATORS, key=len, reverse=True))) + ")",
]))


def tokenize(file: SourceFile) -> list[Token]:
    """Token stream for `file`, final EOF token included.

    Raises LexError on an unterminated string literal or illegal character.
    Token and comment locations skip `SourceFile.location`'s bounds check:
    they are match offsets into `file.text`, so in bounds by construction.
    """
    text = file.text
    pos = 0
    tokens: list[Token] = []
    pending: list[Comment] = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise LexError(Diagnostic(file.location(pos),
                                      f"illegal character {text[pos]!r}", Severity.ERROR))
        group, end = match.lastgroup, match.end()
        if group == "quote":
            raise LexError(Diagnostic(file.location(pos),
                                      "unterminated string literal", Severity.ERROR))
        if group != "space":
            spelling = match.group()
            rng = SourceRange(SourceLocation(file, pos), SourceLocation(file, end))
            if group == "comment":
                pending.append(Comment(spelling, rng))
            else:
                if group == "word":
                    kind = TokenKind.KEYWORD if spelling in KEYWORDS else TokenKind.IDENT
                else:
                    kind = _KIND_OF_GROUP[group]
                tokens.append(Token(kind, spelling, rng, tuple(pending)))
                pending.clear()
        pos = end
    eof = file.location(len(text))
    tokens.append(Token(TokenKind.EOF, "", SourceRange(eof, eof), tuple(pending)))
    return tokens
