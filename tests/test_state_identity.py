"""State identity: the incremental digests and symbol counts of ProgramState
against from-scratch references, under random sequences of every mutator."""

from hypothesis import given, settings, strategies as st

from minilang.frontend.astnodes import TypeRef
from minilang.symexec import (
    ConcreteInt, FieldRegion, NULL_LOC, ProgramState, RangeSet, sym_add,
    sym_val, SymAtom, Symbol, SymbolicVal, UNKNOWN, val_symbols, VarRegion,
)


def _decl(name):
    return type("D", (), {"name": name, "node_id": 0,
                          "declared_type": TypeRef("int")})()


SYMBOLS = [Symbol(i, f"s{i}", "test", TypeRef("int")) for i in range(1, 5)]
_A, _B = VarRegion(_decl("a"), 1), VarRegion(_decl("b"), 2)
REGIONS = [_A, _B, FieldRegion(_A, "f", TypeRef("int")), VarRegion(_decl("c"), 1)]
VALUES = ([ConcreteInt(0), ConcreteInt(7), UNKNOWN, NULL_LOC]
          + [sym_val(s) for s in SYMBOLS]
          + [SymbolicVal(sym_add(SymAtom(s), 3)) for s in SYMBOLS])
RANGES = [RangeSet.singleton(0), RangeSet.of((1, 9)), RangeSet.full(),
          RangeSet.singleton(0).complement()]
SLOTS = ("Checker.SymbolMap", "Checker.RegionSets")
EDGES = [(3, 1, 1), (4, 2, 1), (3, 1, 2)]

symbols = st.sampled_from(SYMBOLS)
regions = st.sampled_from(REGIONS)
values = st.sampled_from(VALUES)
# One slot maps symbols to plain values, the other regions to symbol sets.
slot_entries = st.one_of(
    st.tuples(st.just(SLOTS[0]), symbols, st.integers(0, 2)),
    st.tuples(st.just(SLOTS[1]), regions, st.frozensets(symbols, max_size=2)),
)

OPS = st.one_of(
    st.tuples(st.just("bind"), regions, values),
    st.tuples(st.just("bind_many"), st.lists(st.tuples(regions, values), max_size=3)),
    st.tuples(st.just("unbind_where"), st.frozensets(regions, max_size=2)),
    st.tuples(st.just("constrain"), symbols, st.sampled_from(RANGES)),
    st.tuples(st.just("drop_constraints"), st.lists(symbols, max_size=3)),
    st.tuples(st.just("set_slot"), st.sampled_from(SLOTS),
              st.lists(slot_entries, max_size=3)),
    # edit a copy of the stored slot, as the checkers do
    st.tuples(st.just("edit_slot"), slot_entries, st.booleans()),
    st.tuples(st.just("set_ret"), st.integers(1, 2), values),
    st.tuples(st.just("drop_frame"), st.integers(1, 2)),
    st.tuples(st.just("bump_loop"), st.sampled_from(EDGES)),
)


def apply(state: ProgramState, op) -> ProgramState:
    name, *args = op
    if name == "bind":
        return state.bind(*args)
    if name == "bind_many":
        return state.bind_many(args[0])
    if name == "unbind_where":
        return state.unbind_where(lambda r: r in args[0])
    if name == "set_slot":
        key, entries = args
        return state.set_slot(key, {k: v for slot, k, v in entries if slot == key})
    if name == "edit_slot":
        (key, k, v), delete = args
        mapping = dict(state.slot(key))
        if delete:
            mapping.pop(k, None)
        else:
            mapping[k] = v
        return state.set_slot(key, mapping)
    return getattr(state, name)(*args)


def run(ops) -> ProgramState:
    state = ProgramState()
    for op in ops:
        state = apply(state, op)
    return state


# --- references, computed by scanning the whole state ------------------------------

def live_reference(state):
    return {s for v in (*state.store.values(), *state.ret_vals.values())
            for s in val_symbols(v)}


def slot_symbols_reference(state):
    out = set()
    for mapping in state.gdm.values():
        for k, v in mapping.items():
            if isinstance(k, Symbol):
                out.add(k)
            if isinstance(v, frozenset):
                out |= v
    return out


def rebuilt(state):
    return ProgramState(store=state.store, constraints=state.constraints,
                        gdm=state.gdm, ret_vals=state.ret_vals,
                        loop_counts=state.loop_counts)


def reordered(state):
    """The same contents, put together in reverse order."""
    out = ProgramState()
    for region, val in reversed(state.store.items()):
        out = out.bind(region, val)
    for sym, rng in reversed(state.constraints.items()):
        out = out.constrain(sym, rng)
    for key, mapping in reversed(state.gdm.items()):
        out = out.set_slot(key, dict(reversed(mapping.items())))
    for frame, val in reversed(state.ret_vals.items()):
        out = out.set_ret(frame, val)
    for edge, count in reversed(state.loop_counts.items()):
        for _ in range(count):
            out = out.bump_loop(edge)
    return out


def contents(state):
    return (state.store, state.constraints, state.gdm, state.ret_vals,
            state.loop_counts)


@given(st.lists(OPS, max_size=30))
@settings(max_examples=100, deadline=None)
def test_incremental_bookkeeping_matches_a_rebuild(ops):
    state = ProgramState()
    for op in ops:
        state = apply(state, op)
        fresh = rebuilt(state)
        assert state._digests == fresh._digests
        assert state._live == fresh._live
        assert state._slot_refs == fresh._slot_refs
        assert set(state.live_symbols()) == live_reference(state)
        assert set(state.gdm_symbols()) == slot_symbols_reference(state)
        assert set(state.dead_symbols()) == (
            (set(state.constraints) | slot_symbols_reference(state))
            - live_reference(state))
        assert state == fresh and hash(state) == hash(fresh)


@given(st.lists(OPS, max_size=30))
@settings(max_examples=100, deadline=None)
def test_same_contents_in_another_order_are_one_state(ops):
    state = run(ops)
    other = reordered(state)
    assert contents(other) == contents(state)
    assert other == state and hash(other) == hash(state)


@given(st.lists(OPS, max_size=15), st.lists(OPS, max_size=15))
@settings(max_examples=80, deadline=None)
def test_equality_is_equality_of_contents(ops_a, ops_b):
    a, b = run(ops_a), run(ops_b)
    assert (a == b) == (contents(a) == contents(b))
    if a == b:
        assert hash(a) == hash(b)


def test_mutators_leave_unchanged_components_shared():
    state = ProgramState().bind(_A, sym_val(SYMBOLS[0]))
    state = state.set_slot(SLOTS[0], {SYMBOLS[0]: 1})
    bound = state.bind(_B, ConcreteInt(1))
    assert bound.gdm is state.gdm and bound.constraints is state.constraints
    assert bound._live is state._live  # a concrete value holds no symbol
