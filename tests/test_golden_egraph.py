"""Exploded-graph regression: `--dump-egraph` of every example program, and
of the larger programs under tests/golden/programs/, must stay
byte-identical to the dump committed next to it under tests/golden/. A
change to node identity (merging) or to state contents shows up here as a
diff. The same sources also pin the standard output of `--dump-ast` and
`--dump-cfg`, which print every node's line:column range and are followed by
the rendered reports, so a change to locations shows up as a diff too.
`mini-tidy --std=17 --fix` of each source pins the tidy diagnostics, the
exit code and the rewritten text, so a change to which nodes the matchers
offer to the redundant-pointer check shows up too. Finally, the HTML page
of `mini-analyze` and the verdicts of `mini-analyze --verify` and
`mini-tidy --std=17 --verify` pin the path-report rendering and the verify
harness."""

import pathlib
import shutil

import pytest

from minilang.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXAMPLES = sorted((ROOT / "scripts" / "examples").glob("*.mc"))
PROGRAMS = sorted((GOLDEN / "programs").glob("*.mc"))


def golden_of(source: pathlib.Path, suffix: str = ".dot") -> pathlib.Path:
    if source.parent == GOLDEN / "programs":
        return source.with_suffix(suffix)
    return GOLDEN / f"{source.stem}{suffix}"


def test_every_example_has_a_golden_dump():
    assert EXAMPLES and PROGRAMS
    for suffix in (".dot", ".ast", ".cfg", ".tidy", ".html", ".verify", ".tidy-verify"):
        assert sorted(p.stem for p in GOLDEN.glob(f"*{suffix}")) == [p.stem for p in EXAMPLES]
        assert all(golden_of(p, suffix).exists() for p in PROGRAMS)


@pytest.mark.parametrize("source", EXAMPLES + PROGRAMS, ids=lambda p: p.stem)
def test_egraph_dump_matches_golden(source, tmp_path, capsys):
    dot = tmp_path / f"{source.stem}.dot"
    assert main(["analyze", f"--dump-egraph={dot}", str(source)]) in (0, 1)
    capsys.readouterr()
    assert dot.read_text(encoding="utf-8") == golden_of(source).read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", ["ast", "cfg"])
@pytest.mark.parametrize("source", EXAMPLES + PROGRAMS, ids=lambda p: p.stem)
def test_frontend_dump_matches_golden(source, kind, monkeypatch, capsys):
    # Relative paths keep the file names in the rendered reports portable.
    monkeypatch.chdir(ROOT)
    relative = source.relative_to(ROOT).as_posix()
    assert main(["analyze", f"--dump-{kind}", relative]) in (0, 1)
    golden = golden_of(source, f".{kind}")
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("source", EXAMPLES + PROGRAMS, ids=lambda p: p.stem)
def test_tidy_fix_matches_golden(source, tmp_path, monkeypatch, capsys):
    # Running in the copy's directory keeps the file names in the output bare.
    monkeypatch.chdir(tmp_path)
    copy = tmp_path / source.name
    shutil.copyfile(source, copy)
    status = main(["tidy", "--std=17", "--fix", source.name])
    captured = capsys.readouterr()
    output = (f"exit: {status}\n--- stdout\n{captured.out}--- stderr\n{captured.err}"
              f"--- fixed\n{copy.read_text(encoding='utf-8')}")
    assert output == golden_of(source, ".tidy").read_text(encoding="utf-8")


@pytest.mark.parametrize("source", EXAMPLES + PROGRAMS, ids=lambda p: p.stem)
def test_html_report_matches_golden(source, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    page = tmp_path / "report.html"
    relative = source.relative_to(ROOT).as_posix()
    assert main(["analyze", f"--analyzer-output=html:{page}", relative]) in (0, 1)
    capsys.readouterr()
    assert page.read_text(encoding="utf-8") == golden_of(source, ".html").read_text(encoding="utf-8")


@pytest.mark.parametrize("command, suffix", [
    (["analyze", "--verify"], ".verify"),
    (["tidy", "--std=17", "--verify"], ".tidy-verify"),
])
@pytest.mark.parametrize("source", EXAMPLES + PROGRAMS, ids=lambda p: p.stem)
def test_verify_verdict_matches_golden(source, command, suffix, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    status = main(command + [source.relative_to(ROOT).as_posix()])
    output = f"exit: {status}\n--- stdout\n{capsys.readouterr().out}"
    assert output == golden_of(source, suffix).read_text(encoding="utf-8")
