#!/usr/bin/env python3
"""The engine's cost per exploded node, in units of a fixed reference loop.

    python3 scripts/engine_cost.py [--rounds N]

For each analyze workload of the bench, the corpus the bench generates at
seed `SEED` (811) is parsed and typechecked once, up front. Each round then
times `Engine.run` with the default checkers over every unit of the corpus,
and `bench/reference.py`'s `reference()` loop right before and after it, so
that a machine that changes speed between rounds slows both alike. The script
prints the engine's best time over N rounds (10 by default); the best of the
rounds' engine times in reference-loop units (each divided by the fastest
`reference()` around it) per 1,000 exploded nodes, which is the engine's cost
per node with the machine's speed taken out; and the node and destructor
(`PostImplicitCall`) node counts of the exploded graphs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import corpus  # noqa: E402  (read-only: the bench's generated inputs)
from reference import reference  # noqa: E402

from minilang.checkers import make_checkers  # noqa: E402
from minilang.frontend import load_unit  # noqa: E402
from minilang.symexec import Engine  # noqa: E402
from minilang.symexec.engine import PostImplicitCallPoint  # noqa: E402

SEED = 811
REFERENCE_CALLS = 3  # reference() is about 1 ms: the fastest of a few is its time
WORKLOADS = ("analyze-deep", "analyze-wide")


def run_engine(units: list) -> list:
    return [Engine(unit, None, make_checkers()).run() for unit in units]


def best_of(rounds: int, units: list) -> tuple[float, float, list]:
    """The best seconds of `run_engine` over `rounds` rounds, the best of
    the rounds' times in reference-loop units, and the analysis results of
    the last round."""
    best_s = best_units = float("inf")
    results: list = []
    after = min(reference() for _ in range(REFERENCE_CALLS))
    for _ in range(rounds):
        before = after
        started = time.perf_counter()
        results = run_engine(units)
        seconds = time.perf_counter() - started
        after = min(reference() for _ in range(REFERENCE_CALLS))
        best_s = min(best_s, seconds)
        best_units = min(best_units, seconds / min(before, after))
    return best_s, best_units, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        units = []
        for case in corpus.WORKLOADS[workload](SEED):
            fe = load_unit(case.name, case.text, 17)
            if not fe.ok:
                raise SystemExit(f"{case.name}: does not load")
            units.append(fe.unit)
        engine_s, units_taken, results = best_of(args.rounds, units)
        nodes = [node for result in results for graph in result.graphs.values()
                 for node in graph.nodes]
        dtors = sum(1 for node in nodes if node.point.__class__ is PostImplicitCallPoint)
        print(f"{workload}: Engine.run {engine_s * 1e3:.1f} ms, "
              f"{units_taken / len(nodes) * 1e3:.2f} reference units per 1000 nodes, "
              f"{len(nodes)} nodes, {dtors} destructor nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
