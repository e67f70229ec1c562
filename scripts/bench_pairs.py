"""Alternating parent/change pairs of `bench/run.py` on one workload.

    python3 scripts/bench_pairs.py REV --workload W --pairs N [--seed S]

Run from anywhere inside a checkout. The change side is that checkout as it
is on disk, its tracked and its untracked, not ignored files, copied to
`.bench_work/change-<rev12>` (HEAD's); the parent side is REV's committed
files, exported with `git archive` to `.bench_work/parent-<rev12>`. The two
copies sit at the same depth under names of the same length, as a run's
peak RSS depends on the path it runs from, and both are removed when the
script ends. Both sides run with `PYTHONDONTWRITEBYTECODE=1` and
`PYTHONPYCACHEPREFIX` set to a fresh empty directory, so Python ignores
every `__pycache__` in either tree and compiles each side from source, as
in a clean checkout. Pair i runs
both sides untraced (`--trace 0`) at seed S + i, the parent first in even
pairs and the change first in odd ones, so that neither side always meets
the machine first. Each run measures for the benchmark's own run time.

For each end-to-end metric of BENCHMARK.json the script prints every run,
each side's median and quartiles, the pairs the change won (ties count for
neither side) and whether the gain rule holds: the change wins at least nine
tenths of the pairs, the medians differ in its favour by more than the
parent's interquartile range, and no more of its runs fail than of the
parent's. A run fails when it exits non-zero or checks a wrong output; its
pair is counted as not won, and its value is left out of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WIN_SHARE = 0.9  # share of pairs the change must win for a gain


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(parent: list[float | None], change: list[float | None],
            better: str) -> dict:
    """The pair statistics of one metric. `parent[i]` and `change[i]` are
    pair i's values, None for a failed run; `better` is "lower" or
    "higher"."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change)
               if p is not None and c is not None and sign * (c - p) > 0)
    failed = {"parent": parent.count(None), "change": change.count(None)}
    stats = {"pairs": len(parent), "wins": wins, "failed": failed, "holds": False}
    for side, values in (("parent", parent), ("change", change)):
        measured = [v for v in values if v is not None]
        if not measured:
            return stats
        q1, q3 = quartiles(measured)
        stats[side] = {"median": statistics.median(measured), "q1": q1, "q3": q3}
    gap = sign * (stats["change"]["median"] - stats["parent"]["median"])
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    return {**stats, "gap": gap, "iqr": iqr,
            "holds": (wins >= WIN_SHARE * len(parent) and gap > iqr
                      and failed["change"] <= failed["parent"])}


def bench_run(checkout: Path, workload: str, seed: int, pycache: Path) -> dict | None:
    """One untraced `bench/run.py` run in `checkout`: its JSON result line,
    or None when the run failed. Bytecode is neither read from the tree's
    `__pycache__` nor written: `pycache`, an empty directory, stands in
    for every cache."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(pycache))
    child = subprocess.run(command, cwd=checkout, env=env, stdout=subprocess.PIPE,
                           text=True)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] else None


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def copy_checkout(root: Path, dest: Path) -> None:
    """Copy the checkout at `root` as it is on disk to `dest`: its tracked
    and its untracked, not ignored files, skipping tracked files deleted on
    disk."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, stdout=subprocess.PIPE).stdout.decode().split("\0")
    for name in filter(None, names):
        source = root / name
        if not source.is_file():
            continue
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def report(name: str, unit: str, better: str, seeds: list[int], firsts: list[str],
           parent: list[float | None], change: list[float | None]) -> None:
    stats = compare(parent, change, better)
    print(f"\n{name} ({unit}, {better} is better)")
    print(f"  {'pair':>4} {'seed':>6} {'first':>6} {'parent':>10} {'change':>10}")
    for i, (seed, first, p, c) in enumerate(zip(seeds, firsts, parent, change)):
        cells = "".join(f" {'failed' if v is None else f'{v:.4g}':>10}" for v in (p, c))
        print(f"  {i + 1:>4} {seed:>6} {first:>6}{cells}")
    for side in ("parent", "change"):
        if side in stats:
            s = stats[side]
            print(f"  {side}: median {s['median']:.4g}, quartiles "
                  f"{s['q1']:.4g} to {s['q3']:.4g}")
    failed = stats["failed"]
    line = (f"  runs failed: parent {failed['parent']}, change {failed['change']}; "
            f"change won {stats['wins']} of {stats['pairs']} pairs")
    if "gap" in stats:
        base = stats["parent"]["median"]
        line += (f"; median gap {stats['gap']:+.4g} ({100 * stats['gap'] / base:+.1f}% of "
                 f"the parent's), parent IQR {stats['iqr']:.4g}")
    print(line)
    print(f"  gain rule (at least {WIN_SHARE:.0%} of pairs won, a median gap above "
          f"the parent's IQR and no more failed runs than the parent's): "
          f"{'holds' if stats['holds'] else 'does not hold'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV", help="the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    rev = git(root, "rev-parse", "--verify", f"{args.rev}^{{commit}}")
    work = root / ".bench_work"
    sides = {"parent": work / f"parent-{rev[:12]}",
             "change": work / f"change-{git(root, 'rev-parse', 'HEAD')[:12]}"}
    for tree in sides.values():
        shutil.rmtree(tree, ignore_errors=True)  # left by a run that was killed
        tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=root, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive, check=True)
    copy_checkout(root, sides["change"])
    pycache = Path(tempfile.mkdtemp(prefix="pycache-", dir=work))
    results: dict[str, list[dict | None]] = {"parent": [], "change": []}
    seeds = [args.seed + i for i in range(args.pairs)]
    firsts = []
    try:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            firsts.append(order[0])
            for side in order:
                result = bench_run(sides[side], args.workload, seed, pycache)
                results[side].append(result)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"{'failed' if result is None else 'done'}", flush=True)
    finally:
        for tree in (*sides.values(), pycache):
            shutil.rmtree(tree, ignore_errors=True)
    print(f"\n{args.workload}: {rev[:12]} (parent) against {root} as on disk (change), "
          f"{args.pairs} pairs, seeds {seeds[0]} to {seeds[-1]}, --trace 0")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        values = {side: [None if r is None else r["metrics"][name]["value"] for r in runs]
                  for side, runs in results.items()}
        report(name, entry["unit"], entry["better"], seeds, firsts,
               values["parent"], values["change"])
    failed = sum(r is None for runs in results.values() for r in runs)
    if failed:
        print(f"\n{failed} run(s) failed or checked a wrong output")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
