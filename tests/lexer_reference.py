"""The lexer's token loop as it was when each token was one record, kept as
the reference that `tokenize` is compared against.

It shares the token regex with `minilang.frontend.lexer` and differs in the
loop and in what it builds: it names the matched group with
`match.lastgroup`, looks the kind up in a dict, takes the spelling's offsets
from `match.span`, and builds one `Token` record per token, which holds the
comments before it. `reference_columns` turns that stream into token
columns.
"""

from __future__ import annotations

from typing import NamedTuple

from minilang.diagnostics import Diagnostic, Severity
from minilang.frontend.lexer import _TOKEN, Comment, LexError, TokenKind, Tokens
from minilang.source import SourceFile, SourceLocation, SourceRange

_KIND_OF_GROUP = {kind.name: kind for kind in TokenKind}


class Token(NamedTuple):
    kind: TokenKind
    text: str
    begin: int
    end: int
    leading_comments: tuple[Comment, ...] = ()


def reference_tokenize(file: SourceFile) -> list[Token]:
    text = file.text
    tokens: list[Token] = []
    pending: list[tuple[str, SourceRange]] = []
    for match in _TOKEN.finditer(text):
        group = match.lastgroup
        kind = _KIND_OF_GROUP.get(group)
        if kind is not None:
            begin, end = match.span(group)
            tokens.append(Token(kind, text[begin:end], begin, end, _comments(pending, len(tokens))))
            pending.clear()
        elif group == "comment":
            begin, end = match.span(group)
            pending.append((text[begin:end], SourceRange(
                SourceLocation(file, begin), SourceLocation(file, end))))
        elif group == "eof":
            break
        else:
            pos = match.start(group)
            message = "unterminated string literal" if group == "quote" \
                else f"illegal character {text[pos]!r}"
            raise LexError(Diagnostic(file.location(pos), message, Severity.ERROR))
    tokens.append(Token(TokenKind.EOF, "", len(text), len(text), _comments(pending, len(tokens))))
    return tokens


def _comments(pending: list[tuple[str, SourceRange]], token: int) -> tuple[Comment, ...]:
    return tuple(Comment(text, rng, token) for text, rng in pending)


def reference_columns(file: SourceFile) -> Tokens:
    """The reference loop's tokens of `file` as columns."""
    tokens = reference_tokenize(file)
    return Tokens([tok.kind for tok in tokens], [tok.text for tok in tokens],
                  [tok.begin for tok in tokens], [tok.end for tok in tokens],
                  [comment for tok in tokens for comment in tok.leading_comments])
