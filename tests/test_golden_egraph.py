"""Exploded-graph regression: `--dump-egraph` of every example program, and
of the larger programs under tests/golden/programs/, must stay
byte-identical to the dump committed next to it under tests/golden/. A
change to node identity (merging) or to state contents shows up here as a
diff."""

import pathlib

import pytest

from minilang.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXAMPLES = sorted((ROOT / "scripts" / "examples").glob("*.mc"))
PROGRAMS = sorted((GOLDEN / "programs").glob("*.mc"))


def golden_of(source: pathlib.Path) -> pathlib.Path:
    if source.parent == GOLDEN / "programs":
        return source.with_suffix(".dot")
    return GOLDEN / f"{source.stem}.dot"


def test_every_example_has_a_golden_dump():
    assert EXAMPLES and PROGRAMS
    assert sorted(p.stem for p in GOLDEN.glob("*.dot")) == [p.stem for p in EXAMPLES]
    assert all(golden_of(p).exists() for p in PROGRAMS)


@pytest.mark.parametrize("source", EXAMPLES + PROGRAMS, ids=lambda p: p.stem)
def test_egraph_dump_matches_golden(source, tmp_path, capsys):
    dot = tmp_path / f"{source.stem}.dot"
    assert main(["analyze", f"--dump-egraph={dot}", str(source)]) in (0, 1)
    capsys.readouterr()
    assert dot.read_text(encoding="utf-8") == golden_of(source).read_text(encoding="utf-8")
