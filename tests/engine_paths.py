"""Helpers that read branch decisions and witnesses out of exploded graphs."""

from __future__ import annotations

from minilang.cfg import Branch, Cfg
from minilang.symexec.engine import BlockEdgePoint, ExplodedNode
from minilang.symexec.values import RangeSet

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
    """The (condition node id, truth) sequence along the leaf's path."""
    decisions = []
    for node in pred_chain(leaf):
        point = node.point
        if isinstance(point, BlockEdgePoint) and point.src >= 0:
            term = cfg.block(point.src).terminator
            if isinstance(term, Branch):
                decisions.append((term.cond.node_id, point.dst == term.true_target))
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
