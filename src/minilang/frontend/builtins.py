"""The builtin `string` method table."""

from __future__ import annotations

from typing import NamedTuple

from .astnodes import BOOL, CHAR, CHAR_PTR, INT, STRING, TypeRef, VOID

STRING_REF = TypeRef("string", is_reference=True)


class StringMethod(NamedTuple):
    name: str
    params: tuple[TypeRef, ...]
    returns: TypeRef
    invalidating: bool  # non-const method that may reallocate the buffer
    buffer_obtaining: bool  # returns a handle into the inner buffer


STRING_METHODS: dict[str, StringMethod] = {m.name: m for m in (
    StringMethod("c_str", (), CHAR_PTR, False, True),
    StringMethod("data", (), CHAR_PTR, False, True),
    StringMethod("size", (), INT, False, False),
    StringMethod("empty", (), BOOL, False, False),
    StringMethod("at", (INT,), CHAR, False, False),
    StringMethod("front", (), CHAR, False, False),
    StringMethod("back", (), CHAR, False, False),
    StringMethod("append", (STRING,), VOID, True, False),
    StringMethod("assign", (STRING,), VOID, True, False),
    StringMethod("clear", (), VOID, True, False),
    StringMethod("erase", (INT, INT), VOID, True, False),
    StringMethod("insert", (INT, STRING), VOID, True, False),
    StringMethod("pop_back", (), VOID, True, False),
    StringMethod("push_back", (CHAR,), VOID, True, False),
    StringMethod("replace", (INT, INT, STRING), VOID, True, False),
    StringMethod("reserve", (INT,), VOID, True, False),
    StringMethod("resize", (INT,), VOID, True, False),
    StringMethod("shrink_to_fit", (), VOID, True, False),
    StringMethod("swap", (STRING_REF,), VOID, True, False),
)}
