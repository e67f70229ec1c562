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


class Comment(NamedTuple):
    text: str
    range: SourceRange


class Token(NamedTuple):
    """A token is its kind, its spelling and the offsets of its first byte
    and of the byte past its last, as Clang's is a location plus a length.
    Locations are built from the offsets only where a node or a diagnostic
    needs one. Each keyword and punctuator has one spelling that no other
    token kind can have, so the parser tests them by `text` alone."""

    kind: TokenKind
    text: str
    begin: int
    end: int
    leading_comments: tuple[Comment, ...] = ()

    def __repr__(self):
        return f"Token({self.kind.value}, {self.text!r})"


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


# One match per token: the whitespace before it, then one alternative per
# token class, all ASCII; non-ASCII text is legal only inside string
# literals and comments. A keyword is matched whole, so it never lexes as an
# identifier. A lone '"' is an unterminated string. Punctuators go longest
# first, so the alternation takes the maximal munch. Any other character is
# `illegal`. Groups that always give one token kind are named after that
# TokenKind. `eof` ends the text, so trailing whitespace is consumed once,
# not rescanned from every offset.
_TOKEN = re.compile(r"[ \t\r\n]*+(?:" + "|".join([
    r"(?P<comment>//[^\n]*)",
    "(?P<KEYWORD>(?:" + "|".join(sorted(KEYWORDS)) + r")(?![A-Za-z0-9_]))",
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<INT>[0-9]+)",
    r'(?P<STRING>"(?:[^"\\\n]|\\[\s\S])*")',
    r'(?P<quote>")',
    "(?P<PUNCT>" + "|".join(map(re.escape, sorted(PUNCTUATORS, key=len, reverse=True))) + ")",
    r"(?P<illegal>[^ \t\r\n])",
    r"(?P<eof>\Z)",
]) + ")")


# The token kind of each group number, None for the groups that give no
# token; `tokenize` indexes it with `match.lastindex`.
_GROUP_NAME = {index: name for name, index in _TOKEN.groupindex.items()}
_KIND_OF_GROUP: list[TokenKind | None] = [
    TokenKind.__members__.get(_GROUP_NAME.get(index)) for index in range(_TOKEN.groups + 1)]
_COMMENT = _TOKEN.groupindex["comment"]
_QUOTE = _TOKEN.groupindex["quote"]
_EOF = _TOKEN.groupindex["eof"]

_new = tuple.__new__


def tokenize(file: SourceFile) -> list[Token]:
    """Token stream for `file`, final EOF token included.

    Raises LexError on an unterminated string literal or illegal character.
    Tokens carry offsets only; comments, which are rare, keep their ranges,
    built without `SourceFile.location`'s bounds check: they are match
    offsets into `file.text`, so in bounds by construction. The token group
    always ends its match, so a token begins its spelling's length before
    the match ends. Tokens are built by the tuple constructor, every field
    given; a token with no comment before it shares the empty tuple.
    """
    text = file.text
    tokens: list[Token] = []
    append = tokens.append
    pending: tuple[Comment, ...] = ()
    for match in _TOKEN.finditer(text):
        index = match.lastindex
        kind = _KIND_OF_GROUP[index]
        if kind is not None:
            spelling = match[index]
            end = match.end()
            append(_new(Token, (kind, spelling, end - len(spelling), end, pending)))
            pending = ()
        elif index == _COMMENT:
            begin, end = match.span(index)
            pending += (Comment(text[begin:end], SourceRange(
                SourceLocation(file, begin), SourceLocation(file, end))),)
        elif index == _EOF:
            break
        else:
            pos = match.start(index)
            message = "unterminated string literal" if index == _QUOTE \
                else f"illegal character {text[pos]!r}"
            raise LexError(Diagnostic(file.location(pos), message, Severity.ERROR))
    end = len(text)
    append(_new(Token, (TokenKind.EOF, "", end, end, pending)))
    return tokens
