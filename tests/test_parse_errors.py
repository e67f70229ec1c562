"""Parse-error golden: token-level mutants of the example and golden programs.

Each source under scripts/examples/ and tests/golden/programs/ gets a fixed,
seeded set of mutants, each one token deleted, duplicated or swapped with
its successor. The exit code, stdout and stderr of `mini-analyze` and
`mini-tidy --std=17` on every mutant must stay byte-identical to
tests/golden/parse_errors.txt, which pins the parser's error locations and
highlights. No run may end in an internal error or a traceback. On the
mutants that still give a unit, the pre-order index holds only the nodes
the unit kept, and on those that parse cleanly, `mini-tidy --fix` writes
text that parses cleanly again.

Regenerate the golden with `PYTHONPATH=src python tests/test_parse_errors.py`.
"""

from __future__ import annotations

import io
import os
import pathlib
import random
import re
import tempfile

from minilang.cli import parse_analyze_args, parse_tidy_args, run
from minilang.frontend import load_unit

from conftest import check_preorder_index

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "parse_errors.txt"
SOURCES = sorted((ROOT / "scripts" / "examples").glob("*.mc")) \
    + sorted((ROOT / "tests" / "golden" / "programs").glob("*.mc"))
MUTANTS_PER_SOURCE = 30

# Tokens of the mutation, found independently of the lexer under test;
# comments are skipped, so `--verify` directives stay as written.
_TOKEN = re.compile(r'//[^\n]*|"(?:[^"\\\n]|\\.)*"|[A-Za-z_]\w*|\d+'
                    r"|==|!=|<=|>=|&&|\|\||->|\+=|\S")


def mutants(source: pathlib.Path) -> list[tuple[str, str]]:
    """(description, text) of each seeded mutant of `source`."""
    text = source.read_text(encoding="utf-8")
    spans = [m.span() for m in _TOKEN.finditer(text) if not m.group().startswith("//")]
    rng = random.Random(source.name)
    made = []
    for _ in range(MUTANTS_PER_SOURCE):
        op = rng.choice(("delete", "duplicate", "swap"))
        i = rng.randrange(len(spans) - 1)
        (b, e), (b2, e2) = spans[i], spans[i + 1]
        if op == "delete":
            mutant = text[:b] + text[e:]
        elif op == "duplicate":
            mutant = text[:e] + " " + text[b:e] + text[e:]
        else:
            mutant = text[:b] + text[b2:e2] + text[e:b2] + text[b:e] + text[e2:]
        made.append((f"{op} {text[b:e]!r} at {b}", mutant))
    return made


def run_tool(argv: list[str]) -> tuple[int, str, str]:
    parse_args = parse_analyze_args if argv[0] == "analyze" else parse_tidy_args
    config = parse_args(argv[1:])
    out, err = io.StringIO(), io.StringIO()
    return run(config, out, err), out.getvalue(), err.getvalue()


def transcript(workdir: pathlib.Path) -> str:
    """Every mutant run's outcome; the mutants are written into `workdir`,
    which must be the current directory, so file names print bare."""
    chunks = []
    for source in SOURCES:
        for index, (what, text) in enumerate(mutants(source)):
            name = f"{source.stem}.{index}.mc"
            (workdir / name).write_text(text, encoding="utf-8")
            chunks.append(f"=== {name}: {what}\n")
            for argv in (["analyze", name], ["tidy", "--std=17", name]):
                status, out, err = run_tool(argv)
                chunks.append(f"--- {' '.join(argv[:-1])}: exit {status}\n"
                              f"--- stdout\n{out}--- stderr\n{err}")
    return "".join(chunks)


def test_mutant_outcomes_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    output = transcript(tmp_path)
    assert "Traceback" not in output
    assert not re.search(r": exit (?![0-2]\n)", output)
    assert output == GOLDEN.read_text(encoding="utf-8")


def test_units_recovered_from_mutants_index_only_kept_nodes():
    """Statements dropped in recovery leave no node in the index and no id."""
    for source in SOURCES:
        for _, text in mutants(source):
            for std in (14, 17):
                unit = load_unit("mutant.mc", text, std).unit
                if unit is not None:
                    check_preorder_index(unit)


def test_fix_output_of_clean_mutants_parses_cleanly(tmp_path):
    for source in SOURCES:
        for index, (what, text) in enumerate(mutants(source)):
            if not load_unit("mutant.mc", text, 17).ok:
                continue
            path = tmp_path / f"{source.stem}.{index}.mc"
            path.write_text(text, encoding="utf-8")
            status, out, err = run_tool(["tidy", "--std=17", "--fix", str(path)])
            assert status in (0, 1) and "Traceback" not in out + err, (what, err)
            fixed = load_unit(path.name, path.read_text(encoding="utf-8"), 17)
            assert fixed.diagnostics == [], (what, fixed.diagnostics)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        GOLDEN.write_text(transcript(pathlib.Path(scratch)), encoding="utf-8")
