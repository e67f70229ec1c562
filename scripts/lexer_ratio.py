#!/usr/bin/env python3
"""The lexer's cost against a bare regex loop, one ratio per workload.

    python3 scripts/lexer_ratio.py [--rounds N]

For each bench workload, the corpus the bench generates at seed `SEED` (811,
the seed ROADMAP item 7's ratios were measured at) is lexed by `tokenize` and
walked by a bare `for match in _TOKEN.finditer(text): pass` loop over the
same regex. Each variant is timed by its best of N rounds (40 by default)
over the whole corpus, the two taking turns within each round, which takes
out most of a shared machine's noise, and the script prints `tokenize`'s
best time divided by the loop's. The loop is the floor for any lexer built
on that regex: a ratio of 1 would mean the tokens cost nothing beyond the
matching.
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

from minilang.frontend.lexer import _TOKEN, tokenize  # noqa: E402
from minilang.source import SourceFile  # noqa: E402

SEED = 811


def bare_loop(files: list[SourceFile]) -> None:
    for file in files:
        for _match in _TOKEN.finditer(file.text):
            pass


def lex_all(files: list[SourceFile]) -> None:
    for file in files:
        tokenize(file)


def best_of(rounds: int, runs: list, files: list[SourceFile]) -> list[float]:
    """Each run's best time over `rounds` rounds. The runs take turns within
    a round, so that a machine that changes speed slows them alike."""
    best = [float("inf")] * len(runs)
    for _ in range(rounds):
        for i, run in enumerate(runs):
            started = time.perf_counter()
            run(files)
            best[i] = min(best[i], time.perf_counter() - started)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    for workload in sorted(corpus.WORKLOADS):
        files = [SourceFile(case.name, case.text) for case in corpus.WORKLOADS[workload](SEED)]
        loop, lexer = best_of(args.rounds, [bare_loop, lex_all], files)
        print(f"{workload}: tokenize {lexer * 1e3:.2f} ms, bare loop {loop * 1e3:.2f} ms, "
              f"ratio {lexer / loop:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
