"""Symbolic values, memory regions and integer range sets."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.astnodes import Node, TypeRef

IMIN = -(1 << 63)
IMAX = (1 << 63) - 1


# --- symbols and symbolic expressions ---------------------------------------

@dataclass(frozen=True, eq=False)
class Symbol:
    """A symbol compares and hashes by identity, as Clang's uniqued symbols
    compare by pointer. `Engine.conjure` and `Engine.conjure_param` make
    each one exactly once, under a fresh id per analyzed function, so no two
    distinct symbols of one exploded graph have equal fields."""

    id: int
    name: str  # render hint: parameter name or conjure counter
    origin: str  # program point description of the conjuring site
    value_type: TypeRef

    def __str__(self):
        return f"${self.name}"


class SymExpr:
    """Base of the (deliberately small) symbolic expression language."""

    __slots__ = ()


@dataclass(frozen=True)
class SymAtom(SymExpr):
    symbol: Symbol

    def __str__(self):
        return str(self.symbol)


@dataclass(frozen=True)
class SymIntOp(SymExpr):
    lhs: SymExpr  # never a constant: constants fold
    op: str  # one of + - *
    rhs: int

    def __post_init__(self):
        assert self.op in ("+", "-", "*")

    def __str__(self):
        if self.op == "+" and self.rhs < 0:
            return f"{self.lhs}-{-self.rhs}"
        return f"{self.lhs}{self.op}{self.rhs}"


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
    if isinstance(expr, SymAtom):
        return expr.symbol, 1, 0
    if isinstance(expr, SymIntOp):
        inner = linear_form(expr.lhs)
        if inner is None:
            return None
        sym, a, b = inner
        if expr.op == "+":
            return sym, a, b + expr.rhs
        if expr.op == "-":
            return sym, a, b - expr.rhs
        return sym, a * expr.rhs, b * expr.rhs
    return None


def expr_symbols(expr: SymExpr) -> frozenset[Symbol]:
    if isinstance(expr, SymAtom):
        return frozenset((expr.symbol,))
    if isinstance(expr, SymIntOp):
        return expr_symbols(expr.lhs)
    return frozenset()


# --- SVal --------------------------------------------------------------------

class SVal:
    __slots__ = ()


@dataclass(frozen=True)
class UndefinedVal(SVal):
    """Read of never-written storage."""

    def __str__(self):
        return "undef"


@dataclass(frozen=True)
class UnknownVal(SVal):
    def __str__(self):
        return "unknown"


@dataclass(frozen=True)
class ConcreteInt(SVal):
    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class SymbolicVal(SVal):
    expr: SymExpr

    def __str__(self):
        return str(self.expr)


@dataclass(frozen=True)
class LocVal(SVal):
    region: "MemRegion"

    def __str__(self):
        return f"&{self.region}"


@dataclass(frozen=True)
class NullLocVal(SVal):
    def __str__(self):
        return "null"


UNDEFINED = UndefinedVal()
UNKNOWN = UnknownVal()
NULL_LOC = NullLocVal()


def sym_val(symbol: Symbol) -> SymbolicVal:
    return SymbolicVal(SymAtom(symbol))


def as_symbol(val: SVal) -> Symbol | None:
    """The plain tracked symbol a value carries, if any."""
    if isinstance(val, SymbolicVal) and isinstance(val.expr, SymAtom):
        return val.expr.symbol
    return None


def val_symbols(val: SVal) -> frozenset[Symbol]:
    if isinstance(val, SymbolicVal):
        return expr_symbols(val.expr)
    return frozenset()


# --- memory regions ----------------------------------------------------------

class MemRegion:
    __slots__ = ()


@dataclass(frozen=True)
class VarRegion(MemRegion):
    decl: Node  # VarDecl or ParamDecl; identity-compared
    frame: int

    def __str__(self):
        return self.decl.name


@dataclass(frozen=True)
class FieldRegion(MemRegion):
    parent: MemRegion
    field_name: str
    field_type: TypeRef = field(compare=False, default=None)

    def __str__(self):
        return f"{self.parent}.{self.field_name}"


def region_type(region: MemRegion) -> TypeRef | None:
    if isinstance(region, VarRegion):
        return region.decl.declared_type.value_type()
    if isinstance(region, FieldRegion):
        return region.field_type
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

@dataclass(frozen=True)
class RangeSet:
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

    @staticmethod
    def relation(op: str, c: int) -> "RangeSet":
        """The set of values v with `v op c`."""
        if op == "==":
            return RangeSet.singleton(c) if IMIN <= c <= IMAX else _EMPTY
        if op == "!=":
            return RangeSet.singleton(c).complement() if IMIN <= c <= IMAX else _FULL
        if op == "<":
            return RangeSet.of((IMIN, c - 1)) if c > IMIN else _EMPTY
        if op == "<=":
            return RangeSet.of((IMIN, min(c, IMAX))) if c >= IMIN else _EMPTY
        if op == ">":
            return RangeSet.of((c + 1, IMAX)) if c < IMAX else _EMPTY
        if op == ">=":
            return RangeSet.of((max(c, IMIN), IMAX)) if c <= IMAX else _EMPTY
        raise ValueError(f"unknown relation {op!r}")

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_full(self) -> bool:
        return self.intervals == ((IMIN, IMAX),)

    def intersect(self, other: "RangeSet") -> "RangeSet":
        out = []
        for (a0, a1) in self.intervals:
            for (b0, b1) in other.intervals:
                lo, hi = max(a0, b0), min(a1, b1)
                if lo <= hi:
                    out.append((lo, hi))
        return RangeSet(_normalize(out))

    def union(self, other: "RangeSet") -> "RangeSet":
        return RangeSet(_normalize(self.intervals + other.intervals))

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

    def sample(self, prefer_within: tuple[int, int] | None = None) -> int:
        """Any member; prefers one inside `prefer_within` when possible."""
        assert self.intervals, "sampling the empty range set"
        if prefer_within is not None:
            w = self.intersect(RangeSet.of(prefer_within))
            if not w.is_empty:
                return w.intervals[0][0]
        return self.intervals[0][0]

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
