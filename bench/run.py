"""End-to-end and per-layer benchmark for mini-analyze and mini-tidy.

    python3 bench/run.py [--workload NAME --seed N --seconds S --trace 0|1]

Run from the root of a checkout. Each workload is a seeded corpus of
MiniLang files (see corpus.py). The benchmark drives the public entry
points in-process, `minilang.cli.run_analyze` / `run_tidy` with a
`RunConfig` and captured streams, one call per file: a closed loop with one
client, files back to back, whole passes over the corpus until the run's
measuring time is used up (at least two passes). Every output is checked
against what the generator planted. End-to-end times are reported at
reference speed (see reference.py), which cancels most of the shared
machine's drift between a fast and a slow speed.

With `--workload`, `--trace 0` prints the end-to-end metrics and `--trace 1`
runs paired passes, each file untraced and traced back to back, and prints
the per-layer metrics of the fastest traced pass. `--seconds` is the
measuring time of that one run. Runners that read BENCHMARK.json pass its
`run_seconds`; the default, RUN_SECONDS, is the same value. Without
`--workload`, every workload runs twice, untraced and then traced, each run
in a fresh subprocess with the default measuring time, and the two metric
sets are merged. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
from reference import REFERENCE_S, at_reference_speed, reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LEDGER = WORK / "ledger.json"

RUN_SECONDS = 30  # measuring time of one workload run; run_seconds in BENCHMARK.json
MIN_PASSES = 2
SETUP_STARTS = 15
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
SETUP_CODE = """
from reference import reference
refs = [reference(), reference()]
import minilang.cli
from minilang import checkers
checkers.make_checkers()
refs += [reference(), reference()]
print(*refs)
"""
WARNING = re.compile(r"^.+?:(\d+):\d+: warning: (.*) \[([^\]]+)\]$", re.MULTILINE)


@dataclass
class Run:
    """What one `run_*` call on one file did."""

    rc: int | None
    out: str
    err: str
    error: str | None  # exception that escaped run_*
    fixed: str | None  # file text after the call, tidy-fix only
    seconds: float
    scaled: float | None = None  # seconds at reference speed; see run_pass


class Workload:
    """One workload's corpus, how to run a file of it, and the tally of
    checked runs."""

    def __init__(self, name: str, seed: int):
        from minilang import cli, frontend

        self.name = name
        self.cases = corpus.WORKLOADS[name](seed)
        self.tidy = name.startswith("tidy")
        self.runner = cli.run_tidy if self.tidy else cli.run_analyze
        self.run_config = cli.RunConfig
        self.load_unit = frontend.load_unit
        self.workdir = WORK / f"{name}-{seed}"
        self.kib = sum(len(c.text.encode()) for c in self.cases) / 1024
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self._reparsed: dict[str, bool] = {}

    def write_inputs(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for case in self.cases:
            (self.workdir / case.name).write_text(case.text, encoding="utf-8")

    def config(self, path: Path):
        if self.tidy:
            return self.run_config("tidy", [str(path)], std_mode=17, fix=True)
        return self.run_config("analyze", [str(path)])

    def run_file(self, case, tracer=None) -> Run:
        path = self.workdir / case.name
        if self.tidy:  # --fix rewrote the previous copy
            path.write_text(case.text, encoding="utf-8")
        config = self.config(path)
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        gc.collect()  # start from a collected heap, as a fresh process does
        start = time.perf_counter()
        if tracer is not None:
            tracer.enter("cli")
        try:
            rc = self.runner(config, out, err)
        except Exception as exc:  # an escaping exception fails the file
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.leave()
        seconds = time.perf_counter() - start
        fixed = path.read_text(encoding="utf-8") if self.tidy else None
        return Run(rc, out.getvalue(), err.getvalue(), error, fixed, seconds)

    def run_pass(self) -> list[Run]:
        """One pass over the corpus, with the reference loop timed before the
        first file and after each file, so every run gets its time at
        reference speed."""
        runs, refs = [], [reference()]
        for case in self.cases:
            runs.append(self.run_file(case))
            refs.append(reference())
        for run, scaled in zip(runs, at_reference_speed([r.seconds for r in runs], refs)):
            run.scaled = scaled
        return runs

    def run_paired_pass(self, tracer, traced_first: bool) -> tuple[list[Run], list[Run]]:
        """Each file untraced and traced back to back, so that both runs
        of a file see the same machine load; callers alternate the order."""
        untraced, traced = [], []
        for case in self.cases:
            if not traced_first:
                untraced.append(self.run_file(case))
            with tracer.installed():
                traced.append(self.run_file(case, tracer))
            if traced_first:
                untraced.append(self.run_file(case))
        return untraced, traced

    def check(self, runs: list[Run]) -> list[float]:
        """Verify one pass and tally its failures and output digest, so
        that no pass's outputs stay in memory; returns per-file seconds."""
        for case, run in zip(self.cases, runs):
            self.attempted += 1
            found = self.problems(case, run)
            if found:
                self.failed += 1
                if self.failed <= 20:
                    print(f"FAIL {case.name}: " + "; ".join(found[:5]))
        self.digests.add(self.digest(runs))
        return [run.seconds for run in runs]

    def problems(self, case, run: Run) -> list[str]:
        """Why one file's run is wrong; empty when it is right."""
        if run.error is not None:
            return [f"exception escaped: {run.error}"]
        found = []
        if run.rc != case.exit_code:
            found.append(f"exit code {run.rc}, expected {case.exit_code}")
        got = {(int(line), check, message)
               for line, message, check in WARNING.findall(run.out)}
        found += [f"no warning for planted {w}" for w in sorted(case.expected - got)]
        found += [f"unplanted warning {w}" for w in sorted(got - case.expected)]
        if case.fixed is not None:
            if run.fixed != case.fixed:
                found.append("rewritten text differs from the golden text")
            elif not self._reparses(case):
                found.append("rewritten text does not re-parse")
        return found

    def _reparses(self, case) -> bool:
        if case.name not in self._reparsed:
            self._reparsed[case.name] = self.load_unit(case.name, case.fixed, 17).ok
        return self._reparsed[case.name]

    def digest(self, runs: list[Run]) -> str:
        """Digest of every output of a pass, independent of the work dir."""
        h = hashlib.sha256()
        prefix = str(self.workdir)
        for run in runs:
            for part in (str(run.rc), run.out, run.err, run.error or "", run.fixed or ""):
                h.update(part.replace(prefix, "<work>").encode())
                h.update(b"\0")
        return h.hexdigest()


# --- measurement --------------------------------------------------------------

def measure_setup() -> float:
    """Median cold start, at reference speed, of a fresh interpreter that
    imports the CLI and builds the checker registry; one uncounted start
    fills the caches. The child times the reference loop itself, before and
    after the imports, because it need not run on the parent's vCPU; those
    loops are taken out of its time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    times = []
    for _ in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                               check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        refs = [float(word) for word in child.stdout.split()]
        times.append((wall - sum(refs)) * REFERENCE_S / statistics.median(refs))
    return statistics.median(times[1:])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(load: Workload, seconds: float) -> dict:
    setup_s = measure_setup()
    passes: list[list[float]] = []  # per-file seconds at reference speed, each pass
    walls: list[list[float]] = []  # the same, as measured
    took = 0.0
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() + took < deadline:
        begun = time.perf_counter()
        runs = load.run_pass()
        load.check(runs)
        passes.append([run.scaled for run in runs])
        walls.append([run.seconds for run in runs])
        took = time.perf_counter() - begun
    # Medians, not minima: a minimum jumps with whichever machine speed a
    # file's passes happened to meet.
    per_file = [statistics.median(times) for times in zip(*passes)]
    pass_s = statistics.median_low([sum(times) for times in passes])
    tail_s, tail_pct = tail(per_file)
    wall_file = [statistics.median(times) for times in zip(*walls)]
    wall_pass = statistics.median_low([sum(times) for times in walls])
    print(f"{load.name}: {len(load.cases)} files, {load.kib:.1f} KiB, "
          f"{len(passes)} passes; per-file time is the median over passes, "
          f"throughput is that of the median pass; times are at reference speed")
    print(f"{load.name}: file_tail_ms is p{tail_pct:.1f} of {len(per_file)} files")
    print(f"{load.name}: as measured, file_p50 {statistics.median(wall_file) * 1000:.4g} ms, "
          f"file_tail {tail(wall_file)[0] * 1000:.4g} ms, "
          f"{load.kib / wall_pass:.4g} KiB/s")
    return {
        "setup_s": metric(setup_s, "s"),
        "file_p50_ms": metric(statistics.median(per_file) * 1000, "ms"),
        "file_tail_ms": metric(tail_s * 1000, "ms"),
        "src_kib_per_s": metric(load.kib / pass_s, "KiB/s"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced_run(load: Workload, seconds: float) -> tuple[dict, dict]:
    """Paired passes, each file untraced and then traced; the layer split of
    the fastest traced pass, and its counts, which every traced pass must
    repeat."""
    import tracing

    tracer = tracing.Tracer()
    untraced: list[list[float]] = []  # per-file seconds of each pass
    traced: list[list[float]] = []
    counts_seen: list[dict] = []
    best = None  # (wall, layers, counts, spans) of the fastest traced pass
    deadline = time.perf_counter() + seconds
    load.check(load.run_pass())  # warm-up, so the first pass is not cold
    took = 0.0
    while not (traced and time.perf_counter() + took > deadline):
        begun = time.perf_counter()
        tracer.reset()
        plain, runs = load.run_paired_pass(tracer, traced_first=len(traced) % 2 == 1)
        untraced.append(load.check(plain))
        traced.append(load.check(runs))
        counts_seen.append(tracer.count_values())
        wall = sum(traced[-1])
        if best is None or wall < best[0]:
            best = (wall, tracer.layer_seconds(), counts_seen[-1], tracer.spans)
        took = time.perf_counter() - begun
    wall, layers, counts, spans = best
    ratio = (sum(statistics.median(t) for t in zip(*traced))
             / sum(statistics.median(t) for t in zip(*untraced)))
    metrics = {name: metric(value, "s") for name, value in layers.items()}
    metrics.update({name: metric(value, "count") for name, value in counts.items()})
    engine_s = layers["engine.self_s"]
    metrics["engine.nodes_per_s"] = metric(
        counts["engine.nodes"] / engine_s if engine_s > 0 else 0.0, "1/s")
    metrics["trace.overhead_ratio"] = metric(ratio, "ratio")
    layer_sum = sum(layers.values())
    gap = wall - layer_sum
    overhead = wall * (1 - 1 / ratio)
    print(f"{load.name}: {len(traced)} paired passes; layers of the fastest traced pass")
    print(f"{load.name}: layer self times sum to {layer_sum:.4f} s of {wall:.4f} s "
          f"traced wall; gap {gap:.4f} s, tracing overhead {overhead:.4f} s: "
          f"{'within' if abs(gap) <= overhead else 'OUTSIDE'} the overhead")
    write_spans(load, spans)
    changed = sorted({name for seen in counts_seen for name in seen
                      if seen[name] != counts[name]})
    return metrics, {"counts": counts, "changed_counts": changed}


def write_spans(load: Workload, spans: list) -> None:
    path = WORK / f"spans-{load.workdir.name}.tsv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\tname\tstart\tend\tparent\n")
        for index, (name, start, end, parent) in enumerate(spans):
            handle.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
    print(f"{load.name}: {len(spans)} spans written to {path.relative_to(ROOT)}")


# --- determinism ----------------------------------------------------------------

def code_digest() -> str:
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_ledger(key: str, record: dict) -> list[str]:
    """Compare this run's outputs and counts with earlier runs of the same
    code, workload and seed in this checkout, then remember them."""
    try:
        ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    except FileNotFoundError:
        ledger = {}
    earlier = ledger.setdefault(key, {})
    differences = []
    if earlier.get("outputs", record["outputs"]) != record["outputs"]:
        differences.append("outputs differ from an earlier run")
    for name, value in record.get("counts", {}).items():
        before = earlier.get("counts", {}).get(name, value)
        if before != value:
            differences.append(f"{name} is {value}, an earlier run counted {before}")
    earlier["outputs"] = record["outputs"]
    if "counts" in record:
        earlier["counts"] = record["counts"]
    tmp = LEDGER.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, LEDGER)
    return differences


# --- entry points -----------------------------------------------------------------

def run_workload(args) -> int:
    load = Workload(args.workload, args.seed)
    load.write_inputs()
    # What exists now lives for the whole run: keep it out of the collections
    # made before each file, so that they cost what a fresh process's would.
    gc.freeze()
    try:
        extra = {}
        if args.trace:
            metrics, extra = traced_run(load, args.seconds or RUN_SECONDS)
        else:
            metrics = timed_run(load, args.seconds or RUN_SECONDS)
    finally:
        shutil.rmtree(load.workdir, ignore_errors=True)

    nondeterministic = [f"outputs differ between passes ({len(load.digests)} variants)"] \
        if len(load.digests) > 1 else []
    nondeterministic += [f"{name} differs between traced passes"
                         for name in extra.get("changed_counts", [])]
    record = {"outputs": min(load.digests)}
    if "counts" in extra:
        record["counts"] = extra["counts"]
    nondeterministic += check_ledger(f"{code_digest()}:{args.workload}:{args.seed}", record)
    for line in nondeterministic:
        print(f"NONDETERMINISTIC {args.workload} seed {args.seed}: {line}")

    print(f"{load.name}: fail_ratio {load.failed / load.attempted:.6f} ratio "
          f"({load.failed} of {load.attempted} file runs failed)")
    for name, entry in metrics.items():
        print(f"{load.name}: {name} {entry['value']:.6g} {entry['unit']}")
    correct = load.failed == 0 and not nondeterministic
    print(json.dumps({"correct": correct, "attempted": load.attempted,
                      "failed": load.failed, "metrics": metrics}))
    return 0


def run_child(name: str, seed: int, trace: int) -> dict | None:
    """One workload run in a fresh subprocess, so that its peak RSS is its
    own; its JSON result line, or None when it failed."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if child.returncode != 0 or not lines:
        print(f"{name}: benchmark process failed with exit code {child.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload untraced and then traced, each run in its own process;
    the traced run is separate so that the tracer's spans stay out of the
    untraced run's peak RSS."""
    summaries = {}  # workload: its result, both runs merged
    for name in corpus.WORKLOADS:
        timed = run_child(name, args.seed, 0)
        traced = run_child(name, args.seed, 1) if timed is not None else None
        if traced is None:
            return 2
        summaries[name] = {
            "correct": timed["correct"] and traced["correct"],
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": timed["failed"] + traced["failed"],
            "metrics": {**timed["metrics"], **traced["metrics"]},
        }
    table = {name: {"fail_ratio": metric(r["failed"] / r["attempted"], "ratio"),
                    **r["metrics"]} for name, r in summaries.items()}
    rows = list(next(iter(table.values())))
    width = max(len(row) for row in rows)
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{w:>16}" for w in table))
    for row in rows:
        unit = next(iter(table.values()))[row]["unit"]
        cells = "".join(f"{r[row]['value']:>16.6g}" for r in table.values())
        print(f"{row:<{width}}  {unit:<6}{cells}")
    print(json.dumps({
        "correct": all(r["correct"] for r in summaries.values()),
        "attempted": sum(r["attempted"] for r in summaries.values()),
        "failed": sum(r["failed"] for r in summaries.values()),
        "metrics": {name: r["metrics"] for name, r in summaries.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload is None and (args.seconds, args.trace) != (None, None):
        parser.error("--seconds and --trace apply to one --workload run")
    if not (SRC / "minilang" / "cli.py").is_file():
        print(f"error: no MiniLang sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
