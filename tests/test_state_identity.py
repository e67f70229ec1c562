"""State identity: the incremental digests and symbol counts of ProgramState
against from-scratch references, under random sequences of every mutator."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from minilang.frontend.astnodes import TypeRef
from minilang.symexec import (
    FieldRegion, IMAX, IMIN, ProgramState, RangeSet, RetRegion,
    sym_add, Symbol, UNKNOWN, val_symbols, VarRegion,
)
from minilang.symexec.state import COMPARISONS


def _decl(name):
    return type("D", (), {"name": name, "node_id": 0,
                          "declared_type": TypeRef("int")})()


SYMBOLS = [Symbol(i, f"s{i}") for i in range(1, 5)]
_A, _B = VarRegion(_decl("a"), 1), VarRegion(_decl("b"), 2)
# Two frames' return slots, so the ops write and drop pending return values.
REGIONS = [_A, _B, FieldRegion(_A, _decl("f")), VarRegion(_decl("c"), 1),
           RetRegion(1), RetRegion(2)]
VALUES = ([0, 7, UNKNOWN]
          + SYMBOLS
          + [sym_add(s, 3) for s in SYMBOLS])
RANGES = [RangeSet.singleton(0), RangeSet.of((1, 9)), RangeSet.full(),
          RangeSet.singleton(0).complement()]
SLOTS = ("Checker.SymbolMap", "Checker.RegionSets", "Checker.EdgeCounts")
EDGES = [(3, 1, 1), (4, 2, 1), (3, 1, 2)]

symbols = st.sampled_from(SYMBOLS)
regions = st.sampled_from(REGIONS)
values = st.sampled_from(VALUES)


def slot_changes(keys, new_values):
    """Change sets for one slot. Besides a new value, a change may name the
    stored object again ("same"), an equal but distinct copy of it ("copy")
    or None, which removes the entry; `resolve` makes the first two into
    objects, and a key may be absent for any of them."""
    change = st.one_of(new_values, st.sampled_from(("same", "copy", None)))
    return st.dictionaries(keys, change, max_size=3)


# One slot maps symbols to plain values, one regions to symbol sets, and one
# tuple keys (shaped like CFG edges) to int counts.
SLOT_CHANGES = st.one_of(
    st.tuples(st.just(SLOTS[0]),
              slot_changes(symbols, st.integers(0, 2).map(lambda n: ("v", n)))),
    st.tuples(st.just(SLOTS[1]),
              slot_changes(regions, st.frozensets(symbols, max_size=2))),
    st.tuples(st.just(SLOTS[2]),
              slot_changes(st.sampled_from(EDGES), st.integers(1, 5))),
)

OPS = st.one_of(
    st.tuples(st.just("bind"), regions, values),
    st.tuples(st.just("bind_many"), st.lists(st.tuples(regions, values), max_size=3)),
    st.tuples(st.just("unbind_where"), st.frozensets(regions, max_size=2)),
    st.tuples(st.just("constrain"), symbols, st.sampled_from(RANGES)),
    st.tuples(st.just("drop_constraints"), st.lists(symbols, max_size=3)),
    st.tuples(st.just("update_slot"), SLOT_CHANGES),
)


def apply(state: ProgramState, op) -> ProgramState:
    name, *args = op
    if name == "bind":
        return state.bind(*args)
    if name == "bind_many":
        return state.bind_many(args[0])
    if name == "unbind_where":
        return state.unbind_where(lambda r: r in args[0])
    if name == "update_slot":
        key, changes = args[0]
        return state.update_slot(key, resolve(key, state.slot(key), changes))
    return getattr(state, name)(*args)


FRESH = (("v", 0), frozenset(), 1)  # per slot of SLOTS


def resolve(key, stored, changes) -> dict:
    """`changes` with "same" and "copy" made into the stored object and an
    equal but distinct copy of it (an absent key gets a fresh value). An int
    count has no distinct copy, so its "copy" is "same"."""
    out = {}
    for k, v in changes.items():
        if v in ("same", "copy"):
            old = stored.get(k)
            if old is None:
                v = FRESH[SLOTS.index(key)]
            elif v == "same" or isinstance(old, int):
                v = old
            else:
                v = type(old)(list(old))
                assert v == old and v is not old
        out[k] = v
    return out


def run(ops) -> ProgramState:
    state = ProgramState()
    for op in ops:
        state = apply(state, op)
    return state


# --- references, computed by scanning the whole state ------------------------------

def _xor_of_hashes(items):
    out = 0
    for item in items:
        out ^= hash(item)
    return out


def digests_reference(state):
    return (_xor_of_hashes(state.store.items()),
            _xor_of_hashes(state.constraints.items()),
            _xor_of_hashes((key, k, v) for key, mapping in state.gdm.items()
                           for k, v in mapping.items()))


def live_counts_reference(state):
    return dict(Counter(s for v in state.store.values() for s in val_symbols(v)))


def slot_counts_reference(state):
    counts = Counter()
    for mapping in state.gdm.values():
        for k, v in mapping.items():
            if isinstance(k, Symbol):
                counts[k] += 1
            if isinstance(v, frozenset):
                counts.update(v)
    return dict(counts)


def live_reference(state):
    return set(live_counts_reference(state))


def slot_symbols_reference(state):
    return set(slot_counts_reference(state))


def dead_reference(state):
    return (set(state.constraints) | slot_symbols_reference(state)) - live_reference(state)


def rebuilt(state):
    """The same contents, put together from the empty state: the store in
    one write, then each constraint, then every slot in one write."""
    out = ProgramState().bind_many(state.store)
    for sym, rng in state.constraints.items():
        out = out.constrain(sym, rng)
    return out.update_slots(state.gdm)


def reordered(state):
    """The same contents, put together in reverse order."""
    out = ProgramState()
    for region, val in reversed(state.store.items()):
        out = out.bind(region, val)
    for sym, rng in reversed(state.constraints.items()):
        out = out.constrain(sym, rng)
    for key, mapping in reversed(state.gdm.items()):
        out = out.update_slot(key, dict(reversed(mapping.items())))
    return out


def contents(state):
    return state.store, state.constraints, state.gdm


@given(st.lists(OPS, max_size=30))
@settings(max_examples=100, deadline=None)
def test_incremental_bookkeeping_matches_a_rebuild(ops):
    state = ProgramState()
    for op in ops:
        state = apply(state, op)
        fresh = rebuilt(state)
        assert state._digests == digests_reference(state) == fresh._digests
        assert state._live == live_counts_reference(state) == fresh._live
        assert state._slot_refs == slot_counts_reference(state) == fresh._slot_refs
        assert set(state.live_symbols()) == live_reference(state)
        assert set(state.gdm_symbols()) == slot_symbols_reference(state)
        assert set(state.dead_symbols()) == dead_reference(state)
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
    state = ProgramState().bind(_A, SYMBOLS[0])
    state = state.update_slot(SLOTS[0], {SYMBOLS[0]: 1})
    bound = state.bind(_B, 1)
    assert bound.gdm is state.gdm and bound.constraints is state.constraints
    assert bound._live is state._live  # a concrete value holds no symbol


@given(st.lists(SLOT_CHANGES, min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_update_slot_is_a_dict_edit_of_the_named_entries(writes):
    # one live symbol, so that slot writes make symbols both dead and not
    state = ProgramState().bind(_A, SYMBOLS[0])
    for key, changes in writes:
        changes = resolve(key, state.slot(key), changes)
        expected = dict(state.slot(key))
        for k, v in changes.items():
            if v is None:
                expected.pop(k, None)
            else:
                expected[k] = v  # an overwritten entry keeps its position
        updated = state.update_slot(key, changes)
        assert list(updated.slot(key).items()) == list(expected.items())
        assert all(a is b for a, b in zip(updated.slot(key).values(),
                                          expected.values()))
        assert (key in updated.gdm) == bool(expected)  # an emptied slot is dropped
        assert updated.store is state.store and updated._live is state._live
        if all(state.slot(key).get(k) is v for k, v in changes.items()):
            assert updated is state  # nothing to write
        fresh = rebuilt(updated)
        assert updated._digests == digests_reference(updated) == fresh._digests
        assert updated._slot_refs == slot_counts_reference(updated) == fresh._slot_refs
        assert set(updated.dead_symbols()) == dead_reference(updated)
        assert updated == fresh and hash(updated) == hash(fresh)
        state = updated


# --- several slots in one transition ----------------------------------------------

@given(st.lists(SLOT_CHANGES, max_size=6), SLOT_CHANGES, SLOT_CHANGES, symbols)
@settings(max_examples=200, deadline=None)
def test_update_slots_equals_the_one_slot_writes_in_turn(history, first, second, moved):
    state = ProgramState().bind(_A, SYMBOLS[0])
    for key, changes in history:
        state = state.update_slot(key, resolve(key, state.slot(key), changes))
    # besides the drawn changes, `moved` leaves a region set for a symbol
    # key, as a buffer handed over between checkers does
    state = state.update_slot(SLOTS[1], {_B: frozenset({moved})})
    writes = {SLOTS[1]: {**resolve(SLOTS[1], state.slot(SLOTS[1]), second[1]), _B: None},
              SLOTS[0]: {**resolve(SLOTS[0], state.slot(SLOTS[0]), first[1]),
                         moved: ("v", 9)}}
    if first[0] == SLOTS[2]:  # a third slot, when one is drawn for it
        writes[SLOTS[2]] = resolve(SLOTS[2], state.slot(SLOTS[2]), first[1])
    together = state.update_slots(writes)
    in_turn = state
    for key, changes in writes.items():
        in_turn = in_turn.update_slot(key, changes)
    for key in SLOTS:
        assert list(together.slot(key).items()) == list(in_turn.slot(key).items())
    assert list(together.gdm) == list(in_turn.gdm)
    assert together == in_turn and hash(together) == hash(in_turn)
    assert together._digests == in_turn._digests
    assert set(together.gdm_symbols()) == set(in_turn.gdm_symbols())
    assert set(together.dead_symbols()) == set(in_turn.dead_symbols())
    assert together._slot_refs == slot_counts_reference(together)
    assert set(together.dead_symbols()) == dead_reference(together)


def test_a_symbol_moved_between_slots_keeps_its_count():
    sym = SYMBOLS[1]
    state = ProgramState().update_slot(SLOTS[1], {_B: frozenset({sym})})
    moved = state.update_slots({SLOTS[0]: {sym: ("v", 1)}, SLOTS[1]: {_B: None}})
    assert moved.slot(SLOTS[1]) == {} and moved.slot(SLOTS[0]) == {sym: ("v", 1)}
    assert moved._slot_refs is state._slot_refs and moved._dead is state._dead
    assert state.update_slots({SLOTS[0]: {}, SLOTS[1]: {_A: None}}) is state


def test_each_transition_of_the_liveness_rule():
    """A symbol is dead when no store value holds it but a constraint or a
    slot mentions it; each step moves one symbol across that rule."""
    a, b, c = SYMBOLS[:3]
    rng = RangeSet.of((1, 9))

    def step(state, dead):
        assert set(state.dead_symbols()) == dead_reference(state) == dead
        return state

    # 6, bound: constraining a bound symbol leaves it live
    state = step(ProgramState().bind(_A, a).constrain(a, rng), set())
    # 1: a constrained symbol that loses its last binding is dead, by a write
    # over it or by an unbinding
    state = step(state.bind(_A, 0), {a})
    step(state.bind(_A, a).unbind_where(lambda r: r == _A), {a})
    # 2: bound again, it is live
    state = step(state.bind(_B, a), set())
    # 3: a symbol that only a slot mentions is dead
    state = step(state.update_slot(SLOTS[0], {b: ("v", 1)}), {b})
    # 4: the entry goes, and with no constraint left the symbol is live;
    # a constraint that remains keeps it dead
    step(state.constrain(b, rng).update_slot(SLOTS[0], {b: None}), {b})
    state = step(state.update_slot(SLOTS[0], {b: None}), set())
    # 6, unbound: constraining an unbound symbol makes it dead
    state = step(state.constrain(c, rng), {c})
    # 5: dropping its only constraint, or widening it to the full range,
    # brings it back; a slot that mentions it keeps it dead
    step(state.drop_constraints([c]), set())
    step(state.constrain(c, RangeSet.full()), set())
    step(state.update_slot(SLOTS[0], {c: ("v", 1)}).drop_constraints([c]), {c})


# --- one-pass range restriction ------------------------------------------------------

EDGE_POINTS = [IMIN, IMIN + 1, -2, -1, 0, 1, 2, IMAX - 1, IMAX]
bounds = st.one_of(st.sampled_from(EDGE_POINTS), st.integers(-40, 40))
range_sets = st.lists(st.tuples(bounds, bounds), max_size=4).map(
    lambda ivs: RangeSet.of(*[(min(a, b), max(a, b)) for a, b in ivs]))


@given(range_sets, st.sampled_from(sorted(COMPARISONS)),
       st.one_of(bounds, st.sampled_from([IMIN - 1, IMAX + 1])),
       st.lists(bounds, max_size=12))
@settings(max_examples=400, deadline=None)
def test_restrict_keeps_exactly_the_members_in_relation(rng, op, c, probes):
    out = rng.restrict(op, c)
    assert RangeSet.of(*out.intervals) == out  # ordered, disjoint, non-adjacent
    points = set(probes) | set(EDGE_POINTS) | {c - 1, c, c + 1}
    points |= {v for lo, hi in rng.intervals for v in (lo - 1, lo, hi, hi + 1)}
    for v in points:
        if IMIN <= v <= IMAX:
            assert out.contains(v) == (rng.contains(v) and COMPARISONS[op](v, c))
    if out == rng:
        assert out is rng  # nothing went: the very same set
