"""The bench corpora's counts, pinned.

A change that only makes a layer faster does the same work: the engine
explores the same exploded graphs (nodes, leaves, sinks and reports), the
lexer gives the same tokens, and the tidy checks give the same diagnostics,
fix-its and fix conflicts. The bench reports these counts but gates only on
time, so a speedup that also changed what the tools do would pass it. Here
the corpora of `bench/corpus.py` (imported read-only) run at one seed, and
each count must equal its recorded value. A change that moves one on
purpose updates it here and says why.
"""

import pathlib
import sys

import pytest

from minilang import tidy
from minilang.checkers import make_checkers
from minilang.diagnostics import apply_fixes
from minilang.frontend import load_unit, tokenize
from minilang.source import SourceFile
from minilang.symexec import Engine

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))

import corpus  # noqa: E402

SEED = 811
# An error sink per error path, a report per defect: the engine keeps one
# report per (check name, message, location) class.
COUNTS = {  # workload -> (nodes, leaves, sinks, reports)
    "analyze-deep": (13_475, 907, 132, 132),
    "analyze-wide": (24_560, 1_844, 2_177, 934),
}
TOKENS = {"analyze-deep": 30_043, "analyze-wide": 55_915, "tidy-fix": 79_871}
TIDY_FIX = (1_976, 3_627, 309)  # diagnostics, fix-its, fix conflicts


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


@pytest.mark.parametrize("workload", sorted(TOKENS))
def test_bench_corpus_token_counts_are_pinned(workload):
    """Tokens per corpus, the final EOF token of each file included, as the
    bench's `frontend.tokens` counts them."""
    assert sum(len(tokenize(SourceFile(case.name, case.text)))
               for case in corpus.WORKLOADS[workload](SEED)) == TOKENS[workload]


def test_tidy_fix_corpus_counts_are_pinned():
    """`mini-tidy --fix --std=17`'s diagnostics, their fix-its (attached
    notes' included) and the fix groups skipped as conflicts."""
    diags = fixits = conflicts = 0
    for case in corpus.WORKLOADS["tidy-fix"](SEED):
        fe = load_unit(case.name, case.text, 17)
        assert fe.ok, case.name
        found = tidy.run_checks(fe.unit, fe.file, tidy.make_checks(
            None, fe.file, 17, fe.unit.structs))
        fixed, warnings = apply_fixes(fe.file.text, found)
        assert fixed == case.fixed, case.name
        diags += len(found)
        fixits += sum(len(d.fixits) + sum(len(n.fixits) for n in d.attached_notes)
                      for d in found)
        conflicts += len(warnings)
    assert (diags, fixits, conflicts) == TIDY_FIX
