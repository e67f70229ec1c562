"""Smoke runs of the scripts under `scripts/`, which call the library the way
a user would and are covered by no other test, and the pair statistics of
`bench_pairs.py`, whose benchmark runs take minutes."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["demo.py"])
def test_script_runs_to_exit_zero_without_a_traceback(script, tmp_path):
    child = subprocess.run([sys.executable, str(SCRIPTS / script)], cwd=tmp_path,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stdout + child.stderr
    assert "Traceback" not in child.stdout + child.stderr


def test_lexer_ratio_prints_one_ratio_per_workload(tmp_path):
    # a smoke run with few rounds: the ratios themselves are timings, not checked
    child = subprocess.run([sys.executable, str(SCRIPTS / "lexer_ratio.py"), "--rounds", "2"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stdout + child.stderr
    lines = child.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["analyze-deep", "analyze-wide", "tidy-fix"]
    assert all(float(line.rsplit("ratio ", 1)[1]) > 0 for line in lines)


def test_engine_cost_prints_one_line_per_analyze_workload(tmp_path):
    # a smoke run of one round: the times are not checked, the counts are
    child = subprocess.run([sys.executable, str(SCRIPTS / "engine_cost.py"), "--rounds", "1"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stdout + child.stderr
    lines = child.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["analyze-deep", "analyze-wide"]
    assert lines[0].endswith(", 13475 nodes, 5477 destructor nodes")
    assert all(float(line.split(", ")[1].split()[0]) > 0 for line in lines)


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _script("bench_pairs")


@pytest.mark.parametrize("parent, change, better, wins, holds", [
    # ten wins and a gap far above the parent's spread
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [110] * 10, "higher", 10, True),
    # the same runs read as a time: every pair lost
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [110] * 10, "lower", 0, False),
    # nine wins and a tie, which counts for neither side: 9 of 10 is enough
    ([10] * 10, [9] * 9 + [10], "lower", 9, True),
    # eight wins are too few, however large the gap
    ([10] * 10, [5] * 8 + [11, 11], "lower", 8, False),
    # every pair won, but the gap is inside the parent's spread
    ([90, 110, 95, 105, 100, 92, 108, 97, 103, 100],
     [91, 111, 96, 106, 101, 93, 109, 98, 104, 101], "higher", 10, False),
    # a failed run wins nothing, and a change with more failed runs than the
    # parent gains nothing, however the other pairs went
    ([10] * 10, [None] + [5] * 9, "lower", 9, False),
    # as many failed runs on each side: the rest decide
    ([None] + [10] * 9, [None] + [5] * 9, "lower", 9, True),
    # fewer failed runs than the parent
    ([10, None] + [10] * 8, [5] * 10, "lower", 9, True),
])
def test_bench_pairs_applies_the_gain_rule(parent, change, better, wins, holds):
    stats = _bench_pairs().compare(parent, change, better)
    assert (stats["wins"], stats["holds"]) == (wins, holds)
    assert stats["failed"] == {"parent": parent.count(None), "change": change.count(None)}


def test_bench_pairs_runs_each_side_without_cached_bytecode(tmp_path, monkeypatch):
    # every `__pycache__` in the tree is ignored and none is written, so both
    # sides compile from source; the rest of the environment is inherited
    module = _bench_pairs()
    calls = []

    def fake_run(command, **kwargs):
        calls.append(kwargs)
        return subprocess.CompletedProcess(command, 0, stdout='{"correct": true}\n')

    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    monkeypatch.setattr(module.subprocess, "run", fake_run)
    pycache = tmp_path / "pycache"
    assert module.bench_run(tmp_path, "analyze-wide", 7, pycache) == {"correct": True}
    (call,) = calls
    assert call["cwd"] == tmp_path
    env = call["env"]
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["PYTHONPYCACHEPREFIX"] == str(pycache)
    assert env["BENCH_PAIRS_PROBE"] == "kept"


def test_bench_pairs_copies_the_checkout_as_it_is_on_disk(tmp_path):
    # the change side runs from a copy of the tracked and untracked files,
    # as edited and without the ignored ones and those deleted on disk
    root, dest = tmp_path / "checkout", tmp_path / "copy"
    root.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=root, check=True, capture_output=True)

    git("init", "-q")
    files = {".gitignore": "build/\n", "kept.py": "old\n", "sub/edited.py": "old\n",
             "deleted.py": "x\n"}
    for name, text in files.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (root / "sub" / "edited.py").write_text("new\n")
    (root / "deleted.py").unlink()
    (root / "sub" / "untracked.py").write_text("u\n")
    (root / "build").mkdir()
    (root / "build" / "ignored.o").write_text("i\n")
    _bench_pairs().copy_checkout(root, dest)
    copied = {str(p.relative_to(dest)): p.read_text()
              for p in dest.rglob("*") if p.is_file()}
    assert copied == {".gitignore": "build/\n", "kept.py": "old\n",
                      "sub/edited.py": "new\n", "sub/untracked.py": "u\n"}


def test_diff_outputs_finds_no_change_between_a_tree_and_itself(tmp_path, capsys):
    # both sides are this working tree, so every output must hash the same
    module = _script("diff_outputs")
    labels = ["examples/div_zero.mc", "examples/redundant_ptr.mc"]
    for label in labels:
        (tmp_path / module.INPUTS / label).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / module.INPUTS / label).write_bytes((SCRIPTS / label).read_bytes())
    src = SCRIPTS.parent / "src"
    sides = [module.hash_tree(src, labels, tmp_path) for _ in range(2)]
    assert list(sides[0]) == labels
    assert all(list(modes) == list(module.MODES) for modes in sides[0].values())
    # a tool run differs from its dump and fix runs
    assert len(set(sides[0][labels[0]].values())) == len(module.MODES)
    changed = module.compare(*sides)
    assert changed == {mode: [] for mode in module.MODES}
    assert module.report(labels, changed) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "7 modes x 2 inputs: 14 identical, 0 changed"


def test_diff_outputs_counts_changed_and_missing_hashes(capsys):
    module = _script("diff_outputs")
    same = {mode: mode for mode in module.MODES}
    parent = {"a.mc": same, "b.mc": same, "c.mc": same}
    change = {"a.mc": {**same, "cfg": "other"}, "b.mc": same,
              "c.mc": {mode: h for mode, h in same.items() if mode != "fix"},
              "d.mc": same}  # an input the parent side never hashed
    changed = module.compare(parent, change)
    assert changed == {mode: {"cfg": ["a.mc", "d.mc"], "fix": ["c.mc", "d.mc"]}.get(
        mode, ["d.mc"]) for mode in module.MODES}
    assert module.report(["a.mc", "b.mc", "c.mc", "d.mc"], changed) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[module.MODES.index("cfg")] == (
        "  cfg          2 identical     2 changed: a.mc, d.mc")
    assert lines[-1] == "7 modes x 4 inputs: 19 identical, 9 changed"
