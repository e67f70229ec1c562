"""Lexer for MiniLang: token columns, with `//` comments kept aside, each
with the index of the token it comes before."""

from __future__ import annotations

import enum
import re
from operator import sub
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
    """A `//` comment, its range and the index of the token after it."""

    text: str
    range: SourceRange
    token: int


class Tokens:
    """The token stream of one file as columns, as Zig's parser keeps its
    tokens as a struct of arrays: token `i` is of kind `kinds[i]`, spelled
    `spellings[i]`, from offset `begins[i]` to the offset past its last
    byte, `ends[i]`. Locations are built from the offsets only where a node
    or a diagnostic needs one. The last token is EOF. Each keyword and
    punctuator has one spelling that no other token kind can have, so the
    parser tests them by spelling alone. `comments` holds every comment in
    source order."""

    __slots__ = ("kinds", "spellings", "begins", "ends", "comments")

    def __init__(self, kinds: list[TokenKind], spellings: list[str], begins: list[int],
                 ends: list[int], comments: list[Comment]):
        self.kinds = kinds
        self.spellings = spellings
        self.begins = begins
        self.ends = ends
        self.comments = comments

    def __len__(self) -> int:
        return len(self.kinds)


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


def tokenize(file: SourceFile) -> Tokens:
    """Token columns for `file`, final EOF token included.

    Raises LexError on an unterminated string literal or illegal character.
    Comments, which are rare, keep their ranges, built without
    `SourceFile.location`'s bounds check: they are match offsets into
    `file.text`, so in bounds by construction. The token group always ends
    its match, so a token begins its spelling's length before the match
    ends; the begin offsets are taken that way after the loop, in one pass
    at C speed.
    """
    text = file.text
    kinds: list[TokenKind] = []
    spellings: list[str] = []
    ends: list[int] = []
    comments: list[Comment] = []
    add_kind, add_spelling, add_end = kinds.append, spellings.append, ends.append
    for match in _TOKEN.finditer(text):
        index = match.lastindex
        kind = _KIND_OF_GROUP[index]
        if kind is not None:
            add_kind(kind)
            add_spelling(match[index])
            add_end(match.end())
        elif index == _COMMENT:
            begin, end = match.span(index)
            comments.append(Comment(text[begin:end], SourceRange(
                SourceLocation(file, begin), SourceLocation(file, end)), len(kinds)))
        elif index == _EOF:
            break
        else:
            pos = match.start(index)
            message = "unterminated string literal" if index == _QUOTE \
                else f"illegal character {text[pos]!r}"
            raise LexError(Diagnostic(file.location(pos), message, Severity.ERROR))
    add_kind(TokenKind.EOF)
    add_spelling("")
    add_end(len(text))
    return Tokens(kinds, spellings, [*map(sub, ends, map(len, spellings))], ends, comments)
