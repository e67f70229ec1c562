"""Immutable program states and the constraint (assume) interface."""

from __future__ import annotations

import operator
from collections.abc import KeysView, Mapping

from ..source import InternalError
from .values import (
    LocVal, MemRegion, RangeSet, SVal, Symbol, SymExpr, SymIntOp,
    linear_form, UndefinedVal, UnknownVal, val_symbols,
)

# The six comparison operators, each with its meaning on two ints.
COMPARISONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_FLIP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_MIRROR = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class ProgramState:
    """Store, range constraints and checker data, as one immutable value;
    every mutator returns a fresh state. A frame's pending return value is
    a store binding of its `RetRegion`.

    Each mutator costs what it changes, not the size of the state. Every
    component keeps a digest, the XOR of its items' hashes, which the
    mutators update with the items they add and remove (Zobrist hashing).
    `==` compares digests first and the full contents only when they match.
    Symbols are reference-counted as the mutators go: from the store (live)
    and from checker slots. One liveness rule decides `dead_symbols()`: a
    symbol is dead when no store value holds it but a constraint or a
    checker slot mentions it. Each mutator applies it to a symbol whose
    count crosses zero or whose constraint comes or goes. States
    share every dict they do not change, so a dict is never mutated after
    the state that owns it has been returned."""

    __slots__ = ("store", "constraints", "gdm",
                 "_digests", "_live", "_slot_refs", "_dead", "_hash")

    def __init__(self):
        """The empty state; every other state comes from a mutator."""
        self.store: dict[MemRegion, SVal] = {}
        self.constraints: dict[Symbol, RangeSet] = {}
        self.gdm: dict[str, Mapping] = {}
        self._digests = (0, 0, 0)
        self._live: dict[Symbol, int] = {}
        self._slot_refs: dict[Symbol, int] = {}
        self._dead: dict[Symbol, None] = {}
        self._hash = None

    def _derive(self, component: int, mapping: dict, digest: int) -> "ProgramState":
        """A copy sharing every dict but `mapping`, the new contents of one
        component (`_STORE`, `_CONSTRAINTS` or `_GDM`), whose digest is now
        `digest`. The copy shares this state's reference counts; a caller
        that changes them swaps in new ones."""
        new = _new_state(ProgramState)
        store, constraints, gdm = self._digests
        if component == _STORE:
            new.store, new.constraints, new.gdm = mapping, self.constraints, self.gdm
            new._digests = (digest, constraints, gdm)
        elif component == _CONSTRAINTS:
            new.store, new.constraints, new.gdm = self.store, mapping, self.gdm
            new._digests = (store, digest, gdm)
        else:
            new.store, new.constraints, new.gdm = self.store, self.constraints, mapping
            new._digests = (store, constraints, digest)
        new._live = self._live
        new._slot_refs = self._slot_refs
        new._dead = self._dead
        new._hash = None
        return new

    # --- liveness (only on a state fresh from `_derive`) ---

    def _recount(self, came, gone, slots=False) -> None:
        """Count the symbols in `came` up and those in `gone` down, as held
        by the store or, with `slots`, by the checker slots; settle each one
        whose count crosses zero."""
        counts = dict(self._slot_refs if slots else self._live)
        if slots:
            self._slot_refs = counts
        else:
            self._live = counts
        for sym in came:
            count = counts.get(sym, 0)
            counts[sym] = count + 1
            if not count:
                self._settle(sym)
        for sym in gone:
            count = counts[sym] - 1
            if count:
                counts[sym] = count
            else:
                del counts[sym]
                self._settle(sym)

    def _settle(self, sym: Symbol) -> None:
        """Apply the liveness rule to `sym` (see the class docstring)."""
        dead = sym not in self._live and (sym in self.constraints
                                          or sym in self._slot_refs)
        if dead is not (sym in self._dead):
            self._dead = dict(self._dead)
            if dead:
                self._dead[sym] = None
            else:
                del self._dead[sym]

    # --- store ---

    def bind(self, region: MemRegion, val: SVal) -> "ProgramState":
        return self.bind_many(((region, val),))

    def bind_many(self, pairs) -> "ProgramState":
        store = dict(self.store)
        delta = 0
        came: list[Symbol] = []
        gone: list[Symbol] = []
        for region, val in (pairs.items() if isinstance(pairs, dict) else pairs):
            old = store.get(region, _ABSENT)
            if old is not _ABSENT:
                delta ^= hash((region, old))
                if old.__class__ is Symbol:
                    gone.append(old)
                elif old.__class__ is SymIntOp:
                    gone += val_symbols(old)
            store[region] = val
            delta ^= hash((region, val))
            if val.__class__ is Symbol:
                came.append(val)
            elif val.__class__ is SymIntOp:
                came += val_symbols(val)
        new = self._derive(_STORE, store, self._digests[_STORE] ^ delta)
        if came != gone:
            new._recount(came, gone)
        return new

    def unbind_where(self, predicate) -> "ProgramState":
        doomed = [(r, v) for r, v in self.store.items() if predicate(r)]
        if not doomed:
            return self
        store = dict(self.store)
        delta = 0
        gone: list[Symbol] = []
        for region, val in doomed:
            del store[region]
            delta ^= hash((region, val))
            gone.extend(val_symbols(val))
        new = self._derive(_STORE, store, self._digests[_STORE] ^ delta)
        if gone:
            new._recount((), gone)
        return new

    def lookup(self, region: MemRegion) -> SVal | None:
        return self.store.get(region)

    # --- constraints ---

    def range_of(self, symbol: Symbol) -> RangeSet:
        return self.constraints.get(symbol, RangeSet.full())

    def constrain(self, symbol: Symbol, rng: RangeSet) -> "ProgramState":
        if rng.is_empty:
            raise InternalError("empty range set must not be stored")
        old = self.constraints.get(symbol)
        if rng.is_full and old is None:
            return self
        constraints = dict(self.constraints)
        delta = 0
        if old is not None:
            delta ^= hash((symbol, old))
        if rng.is_full:
            del constraints[symbol]  # canonical absence
        else:
            constraints[symbol] = rng
            delta ^= hash((symbol, rng))
        new = self._derive(_CONSTRAINTS, constraints,
                           self._digests[_CONSTRAINTS] ^ delta)
        if old is None or rng.is_full:  # the symbol gains or loses its constraint
            new._settle(symbol)
        return new

    def drop_constraints(self, symbols) -> "ProgramState":
        doomed = [s for s in symbols if s in self.constraints]
        if not doomed:
            return self
        constraints = dict(self.constraints)
        delta = 0
        for sym in doomed:
            if sym in constraints:
                delta ^= hash((sym, constraints.pop(sym)))
        new = self._derive(_CONSTRAINTS, constraints,
                           self._digests[_CONSTRAINTS] ^ delta)
        for sym in doomed:
            new._settle(sym)
        return new

    # --- checker slots (generic data map) ---

    def slot(self, key: str) -> Mapping:
        return self.gdm.get(key, {})

    def update_slot(self, key: str, changes: Mapping) -> "ProgramState":
        """`update_slots` of one slot."""
        return self.update_slots({key: changes})

    def update_slots(self, writes: Mapping[str, Mapping]) -> "ProgramState":
        """Write some entries of several slots in one transition, as Clang's
        `state->set<>` and `remove<>` do: `writes` maps slot keys to changes,
        and the changes map entry keys to new values, where None removes the
        entry (slot values are never None). Only these entries are hashed
        and recounted, and a write that changes nothing returns this state.
        An overwritten entry keeps its position, and a slot left empty is
        dropped. A symbol that leaves one slot for another, as a buffer
        handed over between checkers does, leaves the counts as they are."""
        gdm = None
        delta = 0
        came: list[Symbol] = []
        gone: list[Symbol] = []
        for key, changes in writes.items():
            old = self.gdm.get(key, _NO_ENTRIES)
            mapping = None
            for k, v in changes.items():
                was = old.get(k)
                if was is v:
                    continue  # the very object stored, or removing an absent key
                if mapping is None:
                    mapping = dict(old)
                # the symbols of an entry: its key, and the members of a set value
                key_is_symbol = k.__class__ is Symbol
                if was is not None:
                    delta ^= hash((key, k, was))
                    if key_is_symbol:
                        gone.append(k)
                    if was.__class__ is frozenset:
                        for sym in was:
                            if sym.__class__ is Symbol:
                                gone.append(sym)
                if v is None:
                    del mapping[k]
                else:
                    mapping[k] = v
                    delta ^= hash((key, k, v))
                    if key_is_symbol:
                        came.append(k)
                    if v.__class__ is frozenset:
                        for sym in v:
                            if sym.__class__ is Symbol:
                                came.append(sym)
            if mapping is None:
                continue
            if gdm is None:
                gdm = dict(self.gdm)
            if mapping:
                gdm[key] = mapping
            else:
                del gdm[key]
        if gdm is None:
            return self
        new = self._derive(_GDM, gdm, self._digests[_GDM] ^ delta)
        if came != gone:
            new._recount(came, gone, slots=True)
        return new

    # --- identity ---

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ProgramState):
            return NotImplemented
        if self._digests != other._digests:
            return False
        # Equal digests can still hide a collision: compare the contents.
        return (_same(self.store, other.store)
                and _same(self.constraints, other.constraints)
                and _same(self.gdm, other.gdm))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._digests)
        return self._hash

    def live_symbols(self) -> KeysView[Symbol]:
        """Symbols reachable from the store (gdm references are weak:
        checkers purge their own entries on dead-symbol sweeps)."""
        return self._live.keys()

    def gdm_symbols(self) -> KeysView[Symbol]:
        """Symbols the checker slots mention, as keys or inside set values."""
        return self._slot_refs.keys()

    def dead_symbols(self) -> KeysView[Symbol]:
        """The symbols that are dead by the class docstring's rule."""
        return self._dead.keys()


_STORE, _CONSTRAINTS, _GDM = range(3)
_ABSENT = object()
_NO_ENTRIES: Mapping = {}  # a missing slot, read and never written
_new_state = object.__new__


def _same(a: dict, b: dict) -> bool:
    return a is b or a == b


INFEASIBLE = None  # assume() returns None for an infeasible refinement


def assume(state: ProgramState, val: SVal, truth: bool) -> ProgramState | None:
    """Refine `state` by `val` being true/false; None when infeasible."""
    if val.__class__ is int:
        return state if bool(val) == truth else INFEASIBLE
    if isinstance(val, SymExpr):
        return assume_relation(state, val, "!=", 0, truth)
    if isinstance(val, LocVal):
        return state if truth else INFEASIBLE  # a live region is never null
    if isinstance(val, (UnknownVal, UndefinedVal)):
        return state
    raise InternalError(f"assume on {val!r}")


def assume_relation(state: ProgramState, expr: SymExpr, op: str, const: int,
                    truth: bool) -> ProgramState | None:
    """Refine by `expr op const` (or its negation). Supports the linear
    single-symbol forms sym ⋈ c and (sym + k) ⋈ c; anything else is kept
    unconstrained (both outcomes stay feasible)."""
    if not truth:
        op = _FLIP[op]
    form = linear_form(expr)
    if form is None:
        return state
    sym, a, b = form
    if a != 1:
        return state
    old = state.range_of(sym)
    rng = old.restrict(op, const - b)
    if rng is old:
        return state
    if rng.is_empty:
        return INFEASIBLE
    return state.constrain(sym, rng)


def assume_comparison(state: ProgramState, lhs: SVal, op: str, rhs: SVal,
                      truth: bool) -> ProgramState | None:
    """Refine by `lhs op rhs`, covering the value shapes the engine produces:
    concrete/concrete decides, symbolic/concrete refines a range, a location
    compared with null (the `int` 0) or with a location decides, everything
    else stays unconstrained."""
    lhs_int = lhs.__class__ is int
    rhs_int = rhs.__class__ is int
    if lhs_int and rhs_int:
        return state if COMPARISONS[op](lhs, rhs) == truth else INFEASIBLE
    if isinstance(lhs, SymExpr) and rhs_int:
        return assume_relation(state, lhs, op, rhs, truth)
    if lhs_int and isinstance(rhs, SymExpr):
        return assume_relation(state, rhs, _MIRROR[op], lhs, truth)
    if op in ("==", "!="):
        unequal = (op == "!=") == truth  # the refinement demands lhs != rhs
        if (isinstance(lhs, LocVal) and rhs_int and rhs == 0
                or isinstance(rhs, LocVal) and lhs_int and lhs == 0):
            return state if unequal else INFEASIBLE
        if isinstance(lhs, LocVal) and isinstance(rhs, LocVal):
            same = lhs.region == rhs.region
            return INFEASIBLE if same == unequal else state
    return state
