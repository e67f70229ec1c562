"""Symbols compare and hash by identity, as Clang's uniqued symbols compare
by pointer. That is sound only while the engine makes each symbol exactly
once, so here every state of every exploded graph is searched for two
objects with the same symbol id. Identity hashing also makes the iteration
order of symbol sets depend on memory addresses, so the analyzer's output
is required to be byte-identical across hash seeds and across repeated
runs in one process."""

import contextlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from minilang.cli import main
from minilang.symexec.values import Symbol, val_symbols

from conftest import analyze
from proggen import generate_function

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "scripts" / "examples").glob("*.mc")) + sorted(
    (ROOT / "tests" / "golden" / "programs").glob("*.mc"))


def state_symbols(state):
    """Every symbol a state holds: store values (pending returns included),
    constraint keys, and checker-slot keys and set members."""
    for val in state.store.values():
        yield from val_symbols(val)
    yield from state.constraints
    for mapping in state.gdm.values():
        for key, value in mapping.items():
            if isinstance(key, Symbol):
                yield key
            if isinstance(value, (set, frozenset)):
                yield from (s for s in value if isinstance(s, Symbol))


def assert_one_object_per_id(result) -> int:
    seen = 0
    for name, graph in result.graphs.items():
        by_id: dict[int, Symbol] = {}
        for node in graph.nodes:
            for sym in state_symbols(node.state):
                first = by_id.setdefault(sym.id, sym)
                assert first is sym, (name, node.seq, sym.id)
        seen += len(by_id)
    return seen


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_each_symbol_is_one_object(source):
    result, _ = analyze(source.read_text(encoding="utf-8"), source.name)
    assert assert_one_object_per_id(result)


def test_each_constrained_bool_symbol_is_one_object():
    # bool parameters and extern results get a [0, 1] constraint when conjured
    result, _ = analyze("""\
extern bool pick();
int f(bool flag) {
  bool other = pick();
  if (flag && other) return 1;
  return 0;
}
""")
    assert assert_one_object_per_id(result)


def test_each_generated_program_symbol_is_one_object():
    # the programs of acceptance criterion 10
    for seed in range(100):
        result, _ = analyze(generate_function(seed), f"gen{seed}.mc")
        assert assert_one_object_per_id(result), seed


# --- determinism --------------------------------------------------------------

def analyzer_outputs(workdir: str) -> str:
    """Exit code, stdout and stderr of `mini-analyze` on every source, then
    the same with `--dump-egraph` plus the dump, as one string, with the
    dump directory written as `<workdir>`."""
    chunks = []
    for source in SOURCES:
        dot = os.path.join(workdir, f"{source.stem}.dot")
        for argv in (["analyze", str(source)],
                     ["analyze", f"--dump-egraph={dot}", str(source)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv)
            chunks.append(f"{argv} exit {status}\n{out.getvalue()}\n{err.getvalue()}")
        with open(dot, encoding="utf-8") as f:
            chunks.append(f.read())
    return "\n".join(chunks).replace(workdir, "<workdir>")


_CHILD = """\
import sys, tempfile
sys.path[:0] = sys.argv[1:3]
from test_symbol_identity import analyzer_outputs
with tempfile.TemporaryDirectory() as workdir:
    first = analyzer_outputs(workdir)
    second = analyzer_outputs(workdir)
sys.stdout.write(first if first == second else "repeated run differs")
"""


def test_output_is_identical_across_hash_seeds_and_repeated_runs():
    with tempfile.TemporaryDirectory() as workdir:
        here = analyzer_outputs(workdir)
        assert analyzer_outputs(workdir) == here
    paths = [str(ROOT / "src"), str(ROOT / "tests")]
    for seed in ("0", "123"):
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, *paths], capture_output=True,
            text=True, encoding="utf-8", env={**os.environ, "PYTHONHASHSEED": seed})
        assert child.returncode == 0, child.stderr
        assert child.stdout == here, seed
