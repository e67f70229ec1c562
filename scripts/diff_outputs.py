"""Compare what the tools print in two trees, input by input.

    python3 scripts/diff_outputs.py REV

Run from anywhere inside a checkout. The parent side is REV's committed
files, exported with `git archive` to a temporary directory under
`.bench_work/`, which the script removes when it ends; the change side is
the checkout as it is on disk. Each side runs in one subprocess, this
script started with `--child` and the side's `src` as the only `PYTHONPATH`
entry, over one fixed input list: `scripts/examples/*.mc`, the programs
under `tests/golden/programs`, the `analyze-deep` and `analyze-wide` corpora
of `bench/corpus.py` at seeds 811 and 3, and the `tidy-fix` corpus at seed
811. For each input and mode it hashes the exit code, standard output and
standard error, and the file the mode writes:

    analyze   mini-analyze FILE
    html      mini-analyze --analyzer-output=html:PAGE FILE, and PAGE
    egraph    mini-analyze --dump-egraph=DOT FILE, and DOT
    cfg       mini-analyze --dump-cfg FILE
    ast       mini-analyze --dump-ast FILE
    tidy      mini-tidy --std=17 FILE
    fix       mini-tidy --std=17 --fix on a copy of FILE, and the copy after it

An exception that escapes a tool is hashed in place of its exit code. The
script prints, per mode, how many inputs give identical and changed output
and names the first changed ones, then one summary line. It exits 1 when any
output changed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MODES = ("analyze", "html", "egraph", "cfg", "ast", "tidy", "fix")
CORPORA = (("analyze-deep", 811), ("analyze-deep", 3), ("analyze-wide", 811),
           ("analyze-wide", 3), ("tidy-fix", 811))
SHOWN = 5  # changed inputs named per mode
CHILD = "--child"
# under a side's working directory: the inputs, the labels and the hashes
INPUTS, LABELS, HASHES = "in", "labels.json", "hashes.json"


def write_inputs(root: Path, dest: Path) -> list[str]:
    """Write the fixed input list of the checkout at `root` under `dest`;
    return each input's path relative to `dest`, its label."""
    labels = []

    def put(label: str, data: bytes) -> None:
        path = dest / label
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        labels.append(label)

    for group, directory in (("examples", root / "scripts" / "examples"),
                             ("programs", root / "tests" / "golden" / "programs")):
        for source in sorted(directory.glob("*.mc")):
            put(f"{group}/{source.name}", source.read_bytes())
    sys.path.insert(0, str(root / "bench"))
    import corpus
    for workload, seed in CORPORA:
        for case in corpus.WORKLOADS[workload](seed):
            put(f"{workload}-{seed}/{case.name}", case.text.encode("utf-8"))
    return labels


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode("utf-8")).hexdigest()


def child() -> int:
    """Hash every mode of every input listed in `LABELS`, run in the side's
    working directory, into `HASHES`."""
    from minilang.cli import main

    def call(argv: list[str], written: str | None = None) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except Exception as exc:  # hashed as the outcome
                status = f"{type(exc).__name__}: {exc}"
        text = None
        if written is not None and os.path.exists(written):
            with open(written, encoding="utf-8", errors="replace", newline="") as f:
                text = f.read()
            os.remove(written)
        return _digest(status, out.getvalue(), err.getvalue(), text)

    hashes = {}
    for label in json.loads(Path(LABELS).read_text(encoding="utf-8")):
        path = f"{INPUTS}/{label}"
        copy = f"fix/{label}"
        os.makedirs(os.path.dirname(copy), exist_ok=True)
        shutil.copyfile(path, copy)
        hashes[label] = {
            "analyze": call(["analyze", path]),
            "html": call(["analyze", "--analyzer-output=html:page.html", path],
                         "page.html"),
            "egraph": call(["analyze", "--dump-egraph=egraph.dot", path], "egraph.dot"),
            "cfg": call(["analyze", "--dump-cfg", path]),
            "ast": call(["analyze", "--dump-ast", path]),
            "tidy": call(["tidy", "--std=17", path]),
            "fix": call(["tidy", "--std=17", "--fix", copy], copy),
        }
    Path(HASHES).write_text(json.dumps(hashes), encoding="utf-8")
    return 0


def hash_tree(src: Path, labels: list[str], work: Path) -> dict[str, dict[str, str]]:
    """label -> mode -> hash, from one child process that imports the tools
    from `src` and runs in `work`, where `INPUTS` holds the inputs."""
    (work / LABELS).write_text(json.dumps(labels), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, str(Path(__file__).resolve()), CHILD],
                   cwd=work, env=env, check=True)
    hashes = json.loads((work / HASHES).read_text(encoding="utf-8"))
    (work / HASHES).unlink()
    return hashes


def compare(parent: dict, change: dict) -> dict[str, list[str]]:
    """Per mode, the labels whose hashes differ, in the parent's input order
    and then the change's; a hash missing on either side is a change."""
    labels = list(dict.fromkeys([*parent, *change]))
    changed = {}
    for mode in MODES:
        changed[mode] = []
        for label in labels:
            before = parent.get(label, {}).get(mode)
            if before is None or before != change.get(label, {}).get(mode):
                changed[mode].append(label)
    return changed


def report(labels: list[str], changed: dict[str, list[str]]) -> int:
    """Print the per-mode counts and the summary line; the exit code."""
    for mode in MODES:
        names = changed[mode]
        line = f"  {mode:<8} {len(labels) - len(names):>5} identical {len(names):>5} changed"
        if names:
            line += ": " + ", ".join(names[:SHOWN]) + (", ..." if len(names) > SHOWN else "")
        print(line)
    total = len(MODES) * len(labels)
    count = sum(len(names) for names in changed.values())
    print(f"{len(MODES)} modes x {len(labels)} inputs: {total - count} identical, "
          f"{count} changed")
    return 1 if count else 0


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV", help="the parent commit")
    args = parser.parse_args(argv)
    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    rev = git(root, "rev-parse", "--verify", f"{args.rev}^{{commit}}")
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="diff-outputs-", dir=work_root) as tmp:
        parent, work = Path(tmp) / "parent", Path(tmp) / "work"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=root, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        labels = write_inputs(root, work / INPUTS)
        hashes = [hash_tree(side / "src", labels, work) for side in (parent, root)]
    print(f"{rev[:12]} (parent) against {root} as on disk (change), "
          f"{len(labels)} inputs")
    return report(labels, compare(*hashes))


if __name__ == "__main__":
    sys.exit(child() if sys.argv[1:] == [CHILD] else main())
