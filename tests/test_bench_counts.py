"""The engine's counts on the bench corpora, pinned.

A change that only makes the engine faster explores the same exploded
graphs: the same nodes, leaves, sinks and reports. The bench reports these
counts but gates only on time, so a speedup that also changed what the
engine does would pass it. Here the `analyze-deep` and `analyze-wide`
corpora of `bench/corpus.py` (imported read-only) run at one seed through
`Engine` with every checker, and each count must equal its recorded value.
A change that moves one on purpose updates it here and says why.
"""

import pathlib
import sys

import pytest

from minilang.checkers import make_checkers
from minilang.frontend import load_unit
from minilang.symexec import Engine

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))

import corpus  # noqa: E402

SEED = 811
COUNTS = {  # workload -> (nodes, leaves, sinks, reports)
    "analyze-deep": (13_475, 907, 132, 132),
    "analyze-wide": (24_560, 1_844, 2_177, 2_177),
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_bench_corpus_counts_are_pinned(workload):
    nodes = leaves = sinks = reports = 0
    for case in corpus.WORKLOADS[workload](SEED):
        fe = load_unit(case.name, case.text, 17)
        assert fe.ok, case.name
        result = Engine(fe.unit, None, make_checkers()).run()
        reports += len(result.reports)
        for graph in result.graphs.values():
            nodes += len(graph.nodes)
            leaves += len(graph.leaves())
            sinks += sum(1 for node in graph.nodes if node.is_sink)
    assert (nodes, leaves, sinks, reports) == COUNTS[workload]
