#!/usr/bin/env python3
"""Path-soundness experiment: random functions, witness replay, path counts.

For each generated loop-free function the exploded graph's leaves are
compared against exhaustive concrete enumeration: every leaf witness must
replay to the leaf's branch decisions and the feasible-leaf count must equal
the number of concretely reachable paths.

Usage: python scripts/soundness_experiment.py [count] [--seed-base=N]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from minilang.cfg import build_cfg
from minilang.checkers import make_checkers
from minilang.frontend import load_unit
from minilang.symexec import Engine

from engine_paths import leaf_decisions, leaf_witness
from interp_oracle import run_function
from proggen import generate_function, GRID


def main() -> int:
    count = 100
    seed_base = 0
    for arg in sys.argv[1:]:
        if arg.startswith("--seed-base="):
            seed_base = int(arg.split("=", 1)[1])
        else:
            count = int(arg)
    started = time.perf_counter()
    total_leaves = 0
    max_leaves = 0
    for seed in range(seed_base, seed_base + count):
        source = generate_function(seed)
        fe = load_unit(f"gen{seed}.mc", source)
        assert fe.ok, [d.message for d in fe.diagnostics]
        fn = fe.unit.functions["probe"]
        cfg = build_cfg(fn)
        engine = Engine(fe.unit, checkers=make_checkers())
        graph = engine.run().graphs["probe"]
        leaves = graph.leaves()
        traces = set()
        for leaf in leaves:
            decisions = leaf_decisions(leaf, cfg)
            witness = leaf_witness(leaf, ["a", "b"])
            replay = run_function(fe.unit, "probe",
                                  (witness["a"], witness["b"]))
            if replay.error or replay.branch_trace != decisions:
                print(f"seed {seed}: WITNESS MISMATCH {witness}")
                print(source)
                return 1
            traces.add(tuple(decisions))
        enumerated = {
            tuple(run_function(fe.unit, "probe", (a, b)).branch_trace)
            for a in range(-GRID, GRID + 1)
            for b in range(-GRID, GRID + 1)
        }
        if traces != enumerated:
            print(f"seed {seed}: PATH COUNT MISMATCH "
                  f"{len(traces)} leaves vs {len(enumerated)} concrete paths")
            print(source)
            return 1
        total_leaves += len(leaves)
        max_leaves = max(max_leaves, len(leaves))
    elapsed = time.perf_counter() - started
    print(f"{count} functions checked in {elapsed:.1f}s: "
          f"{total_leaves} leaves total, widest function had {max_leaves}; "
          "all witnesses replayed and all path counts matched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
