"""Symbolic values, memory regions and integer range sets.

Values, expressions and regions are plain Python values, as in Clang's
static analyzer, and a value's class is the tag that Clang's SVal stores
by hand: a concrete value is an `int`, a symbolic value is its expression
(a `Symbol` or a `SymIntOp`), a pointer is a `LocVal`, and the rest are
the singletons `UNDEFINED` and `UNKNOWN`. Expressions, `LocVal` and
regions are named tuples, built, compared and hashed by the interpreter's
tuple code, with no generated methods. Tuple equality ignores the class,
so no two value kinds may be equal as tuples: an `int` equals no tuple,
each singleton and each `Symbol` equals only itself, and the other tuple
kinds differ in arity, a `LocVal` having one field and a `SymIntOp` three.
Regions are compared only with regions and values only with values (as
store keys and store values).
"""

from __future__ import annotations

from typing import NamedTuple

from ..frontend.astnodes import FieldDecl, Node, TypeRef

IMIN = -(1 << 63)
IMAX = (1 << 63) - 1

# The tuple constructor, for records built on hot paths without the
# generated named-tuple `__new__`; every field is given.
_new = tuple.__new__


# --- symbols and symbolic expressions ---------------------------------------

class Symbol(NamedTuple):
    """A symbol compares and hashes by identity, as Clang's uniqued symbols
    compare by pointer. `Engine.conjure` makes each one exactly once, under
    a fresh id per analyzed function, so no two distinct symbols of one
    exploded graph have equal fields."""

    id: int
    name: str  # render hint: parameter name, conjuring site or counter

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __str__(self):
        return f"${self.name}"


class _SymIntOpFields(NamedTuple):
    lhs: SymExpr  # never a constant: constants fold
    op: str  # + or *
    rhs: int


class SymIntOp(_SymIntOpFields):
    __slots__ = ()

    def __new__(cls, lhs: SymExpr, op: str, rhs: int):
        assert op in ("+", "*")
        return _new(cls, (lhs, op, rhs))

    def __str__(self):
        if self.op == "+" and self.rhs < 0:
            return f"{self.lhs}-{-self.rhs}"
        return f"{self.lhs}{self.op}{self.rhs}"


# The (deliberately small) symbolic expression language.
SymExpr = Symbol | SymIntOp


def sym_add(expr: SymExpr, c: int) -> SymExpr:
    if c == 0:
        return expr
    if isinstance(expr, SymIntOp) and expr.op == "+":
        return sym_add(expr.lhs, expr.rhs + c)
    return SymIntOp(expr, "+", c)


def sym_mul(expr: SymExpr, c: int) -> SymExpr | None:
    if c == 1:
        return expr
    if c == 0:
        return None  # caller folds to a concrete zero
    return SymIntOp(expr, "*", c)


def linear_form(expr: SymExpr) -> tuple[Symbol, int, int] | None:
    """Decompose expr as symbol*a + b, or None if it is not that shape."""
    if expr.__class__ is Symbol:
        return expr, 1, 0
    if isinstance(expr, SymIntOp):
        inner = linear_form(expr.lhs)
        if inner is None:
            return None
        sym, a, b = inner
        if expr.op == "+":
            return sym, a, b + expr.rhs
        return sym, a * expr.rhs, b * expr.rhs
    return None


# --- SVal --------------------------------------------------------------------

class _Singleton:
    """A field-less value. The module makes one object of each such class
    (`UNDEFINED`, `UNKNOWN`), equal only to itself."""

    __slots__ = ()
    text = ""

    def __str__(self):
        return self.text

    def __repr__(self):
        return f"{type(self).__name__}()"


class UndefinedVal(_Singleton):
    """Read of never-written storage."""

    __slots__ = ()
    text = "undef"


class UnknownVal(_Singleton):
    __slots__ = ()
    text = "unknown"


class LocVal(NamedTuple):
    region: MemRegion

    def __str__(self):
        return f"&{self.region}"


UNDEFINED = UndefinedVal()
UNKNOWN = UnknownVal()

# A concrete value is an `int`. A comparison yields 0 or 1, never a `bool`,
# which would print as `True`. Null is the `int` 0.
SVal = UndefinedVal | UnknownVal | int | SymExpr | LocVal


def as_symbol(val: SVal) -> Symbol | None:
    """The value if it is a plain tracked symbol."""
    return val if val.__class__ is Symbol else None


def val_symbols(val: SVal) -> tuple[Symbol, ...]:
    """The symbols a value mentions: none, or the one symbol at the root of
    its expression, as every expression is linear in one symbol. Values
    without a symbol share one empty tuple."""
    while val.__class__ is SymIntOp:
        val = val.lhs
    return (val,) if val.__class__ is Symbol else _NO_SYMBOLS


_NO_SYMBOLS: tuple[Symbol, ...] = ()


# --- memory regions ----------------------------------------------------------

class VarRegion(NamedTuple):
    decl: Node  # VarDecl or ParamDecl; identity-compared
    frame: int

    def __str__(self):
        return self.decl.name


class FieldRegion(NamedTuple):
    parent: MemRegion
    field: FieldDecl  # identity-compared, as Clang's FieldRegion holds its FieldDecl

    def __str__(self):
        return f"{self.parent}.{self.field.name}"


class RetRegion(NamedTuple):
    """Where a frame's return value waits for CallExit, as Clang binds the
    ReturnStmt in the callee's Environment; it dies with the frame."""

    frame: int


class TempRegion(NamedTuple):
    """An rvalue under `.`, `&` or a reference parameter, as Clang's
    CXXTempObjectRegion. Its node is an expression, never a declaration,
    so it never equals a `VarRegion`."""

    expr: Node  # identity-compared
    frame: int

    def __str__(self):
        return "temp({}:{})".format(*self.expr.file.line_column(self.expr.begin))


MemRegion = VarRegion | FieldRegion | RetRegion | TempRegion


def region_type(region: MemRegion) -> TypeRef | None:
    if isinstance(region, VarRegion):
        return region.decl.declared_type.value_type()
    if isinstance(region, FieldRegion):
        return region.field.declared_type
    return None


def region_root(region: MemRegion) -> MemRegion:
    while isinstance(region, FieldRegion):
        region = region.parent
    return region


def region_within(region: MemRegion, ancestor: MemRegion) -> bool:
    while True:
        if region == ancestor:
            return True
        if isinstance(region, FieldRegion):
            region = region.parent
        else:
            return False


# --- range sets --------------------------------------------------------------

class RangeSet(NamedTuple):
    """Ordered, disjoint, non-adjacent closed intervals over signed 64-bit ints.

    The empty set marks infeasibility and is never stored in a state.
    """

    intervals: tuple[tuple[int, int], ...]

    @staticmethod
    def of(*intervals: tuple[int, int]) -> "RangeSet":
        return RangeSet(_normalize(intervals))

    @staticmethod
    def full() -> "RangeSet":
        return _FULL

    @staticmethod
    def singleton(v: int) -> "RangeSet":
        return RangeSet(((v, v),))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_full(self) -> bool:
        return self.intervals == ((IMIN, IMAX),)

    def restrict(self, op: str, c: int) -> "RangeSet":
        """The values v of this set with `v op c`, in one pass over the
        intervals: trimming and splitting keep them ordered, disjoint and
        non-adjacent. Returns this very set when no value goes."""
        intervals = self.intervals
        if op == "==":
            for lo, hi in intervals:
                if lo <= c <= hi:
                    return self if intervals == ((c, c),) else RangeSet(((c, c),))
            return self if not intervals else _EMPTY
        out = []
        if op == "!=":
            for lo, hi in intervals:
                if lo <= c <= hi:
                    if lo < c:
                        out.append((lo, c - 1))
                    if c < hi:
                        out.append((c + 1, hi))
                else:
                    out.append((lo, hi))
        elif op == "<" or op == "<=":
            top = c - 1 if op == "<" else c
            for lo, hi in intervals:
                if lo > top:
                    break
                out.append((lo, hi) if hi <= top else (lo, top))
        elif op == ">" or op == ">=":
            bottom = c + 1 if op == ">" else c
            for lo, hi in intervals:
                if hi >= bottom:
                    out.append((lo, hi) if lo >= bottom else (bottom, hi))
        else:
            raise ValueError(f"unknown relation {op!r}")
        out = tuple(out)
        return self if out == intervals else RangeSet(out)

    def intersect(self, other: "RangeSet") -> "RangeSet":
        out = []
        for (a0, a1) in self.intervals:
            for (b0, b1) in other.intervals:
                lo, hi = max(a0, b0), min(a1, b1)
                if lo <= hi:
                    out.append((lo, hi))
        return RangeSet(_normalize(out))

    def complement(self) -> "RangeSet":
        out = []
        cursor = IMIN
        for (lo, hi) in self.intervals:
            if cursor < lo:
                out.append((cursor, lo - 1))
            cursor = hi + 1
            if cursor > IMAX:
                break
        else:
            if cursor <= IMAX:
                out.append((cursor, IMAX))
        return RangeSet(tuple(out))

    def contains(self, v: int) -> bool:
        return any(lo <= v <= hi for lo, hi in self.intervals)

    def __str__(self):
        def bound(v: int) -> str:
            if v == IMIN:
                return "IMIN"
            if v == IMAX:
                return "IMAX"
            return str(v)

        return " ∪ ".join(f"[{bound(lo)}, {bound(hi)}]" for lo, hi in self.intervals)


def _normalize(intervals) -> tuple[tuple[int, int], ...]:
    clamped = []
    for lo, hi in intervals:
        lo, hi = max(lo, IMIN), min(hi, IMAX)
        if lo <= hi:
            clamped.append((lo, hi))
    clamped.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in clamped:
        if merged and lo <= merged[-1][1] + 1:  # merge adjacent too
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


_FULL = RangeSet(((IMIN, IMAX),))
_EMPTY = RangeSet(())
