"""Helpers that read branch decisions and witnesses out of exploded graphs."""

from __future__ import annotations

from minilang.cfg import build_cfg, Cfg
from minilang.checkers import make_checkers
from minilang.frontend import load_unit
from minilang.frontend.astnodes import Paren, UnaryOp
from minilang.symexec.engine import BlockEdgePoint, Engine, ExplodedNode
from minilang.symexec.values import linear_form, RangeSet, RetRegion

from interp_oracle import run_function
from proggen import GRID


def pred_chain(leaf: ExplodedNode) -> list[ExplodedNode]:
    chain = []
    node = leaf
    while node is not None:
        chain.append(node)
        node = node.pred
    chain.reverse()
    return chain


def error_sinks(result) -> list[ExplodedNode]:
    """Every error node of every graph: one per path that reached a defect."""
    return [node for graph in result.graphs.values() for node in graph.nodes
            if node.is_sink]


def leaf_decisions(leaf: ExplodedNode, cfg: Cfg) -> list[tuple[int, bool]]:
    """The (condition node id, truth) sequence along the leaf's path in the
    frame of `cfg`, where the path starts, as the oracle records it: for the
    condition as written, with the parentheses and `!` that
    `cfg.lower_cond` took off put back. The decisions of inlined callees
    are left out, so the oracle's trace matches only where they have none."""
    decisions = []
    chain = pred_chain(leaf)
    frame = chain[0].point.frame
    for node in chain:
        point = node.point
        if isinstance(point, BlockEdgePoint) and point.src >= 0 and point.frame == frame:
            block = cfg.block(point.src)
            if block.cond is not None:
                cond, truth = block.cond, point.dst == block.succs[0]
                while isinstance(cond.parent, (Paren, UnaryOp)):
                    truth ^= isinstance(cond.parent, UnaryOp)  # a `!`
                    cond = cond.parent
                decisions.append((cond.node_id, truth))
    return decisions


def sample(ranges: RangeSet, prefer_within: tuple[int, int]) -> int:
    """Any member of `ranges`; one inside `prefer_within` when there is one."""
    assert ranges.intervals, "sampling the empty range set"
    inside = ranges.intersect(RangeSet.of(prefer_within))
    if not inside.is_empty:
        return inside.intervals[0][0]
    return ranges.intervals[0][0]


def leaf_witness(leaf: ExplodedNode, param_names: list[str]) -> dict[str, int]:
    """A concrete assignment drawn from the leaf's range constraints,
    preferring values inside the generator's witness box."""
    witness = {}
    by_name = {sym.name: rng for sym, rng in leaf.state.constraints.items()}
    for name in param_names:
        witness[name] = sample(by_name.get(name, RangeSet.full()), (-GRID, GRID))
    return witness


def value_at(val, witness: dict[str, int]) -> int | None:
    """`val` under `witness`: a concrete value, or one linear in a single
    parameter; None for any other value."""
    if val.__class__ is int:
        return val
    form = linear_form(val)  # None for a value that is no symbolic expression
    if form is None or form[0].name not in witness:
        return None
    sym, a, b = form
    return a * witness[sym.name] + b


def replay_ends(result, fe, name: str = "f") -> None:
    """Judge the graph of `name` in the oracle: a witness drawn from each
    leaf and each error sink must take that path's branches. A leaf's run
    must end normally and return the leaf's value wherever `value_at` knows
    it; a sink's run must divide by zero."""
    fn = fe.unit.functions[name]
    params = [param.name for param in fn.params]
    cfg = build_cfg(fn)
    for end in result.graphs[name].nodes:
        if end.succs:
            continue
        witness = leaf_witness(end, params)
        run = run_function(fe.unit, name, tuple(witness[p] for p in params))
        assert run.branch_trace == leaf_decisions(end, cfg), (end, witness)
        if end.is_sink:
            assert run.error == "division by zero", (end, witness)
            continue
        assert run.error is None, (end, witness)
        expected = value_at(end.state.lookup(RetRegion(end.point.frame)), witness)
        if expected is not None:
            assert run.ret == expected, (end, witness)


def judge_probe(source: str, label: str) -> None:
    """Judge the graph of a generated `void probe(int a, int b)` (see
    `proggen`) in the oracle. Soundness: each leaf's witness replays to the
    leaf's branch decisions, and no two leaves share them. Completeness:
    running every (a, b) in [-GRID, GRID]² takes exactly the leaves' paths."""
    fe = load_unit(f"{label}.mc", source)
    assert fe.ok, (label, [d.message for d in fe.diagnostics])
    cfg = build_cfg(fe.unit.functions["probe"])
    leaves = Engine(fe.unit, checkers=make_checkers()).run().graphs["probe"].leaves()
    leaf_traces = set()
    for leaf in leaves:
        decisions = leaf_decisions(leaf, cfg)
        witness = leaf_witness(leaf, ["a", "b"])
        replay = run_function(fe.unit, "probe", (witness["a"], witness["b"]))
        assert replay.error is None, (label, witness, replay.error)
        assert replay.branch_trace == decisions, (label, witness)
        leaf_traces.add(tuple(decisions))
    assert len(leaf_traces) == len(leaves), (label, "duplicate leaf traces")
    grid = range(-GRID, GRID + 1)
    enumerated = set()
    for a in grid:
        for b in grid:
            out = run_function(fe.unit, "probe", (a, b))
            assert out.error is None
            enumerated.add(tuple(out.branch_trace))
    assert leaf_traces == enumerated, (label, leaf_traces ^ enumerated)
