"""The lexer's token loop as it was before tokens were built by the tuple
constructor, kept as the reference that `tokenize` is compared against.

It shares the token regex with `minilang.frontend.lexer` and differs only in
the loop: it names the matched group with `match.lastgroup`, looks the kind
up in a dict, takes the spelling's offsets from `match.span`, builds each
`Token` through its named-tuple constructor and copies the pending comments
into a new tuple for every token.
"""

from __future__ import annotations

from minilang.diagnostics import Diagnostic, Severity
from minilang.frontend.lexer import _TOKEN, Comment, LexError, Token, TokenKind
from minilang.source import SourceFile, SourceLocation, SourceRange

_KIND_OF_GROUP = {kind.name: kind for kind in TokenKind}


def reference_tokenize(file: SourceFile) -> list[Token]:
    text = file.text
    tokens: list[Token] = []
    pending: list[Comment] = []
    for match in _TOKEN.finditer(text):
        group = match.lastgroup
        kind = _KIND_OF_GROUP.get(group)
        if kind is not None:
            begin, end = match.span(group)
            tokens.append(Token(kind, text[begin:end], begin, end, tuple(pending)))
            pending.clear()
        elif group == "comment":
            begin, end = match.span(group)
            pending.append(Comment(text[begin:end], SourceRange(
                SourceLocation(file, begin), SourceLocation(file, end))))
        elif group == "eof":
            break
        else:
            pos = match.start(group)
            message = "unterminated string literal" if group == "quote" \
                else f"illegal character {text[pos]!r}"
            raise LexError(Diagnostic(file.location(pos), message, Severity.ERROR))
    tokens.append(Token(TokenKind.EOF, "", len(text), len(text), tuple(pending)))
    return tokens
