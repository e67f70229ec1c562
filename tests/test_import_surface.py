"""What a cold start of the CLI loads.

Every tool invocation pays its start-up, so `mini-analyze`'s start path
imports no module that generates code at import (`dataclasses`) and none
that only `mini-tidy` runs (the lint framework and the matcher library).
The tidy command loads them on first use, also under the bench tracer,
which patches `cli.run_checks` before that first use. In reverse, a
`mini-tidy` run loads no module of the engine (`minilang.symexec*`,
`minilang.checkers`) and no CFG builder unless `--dump-cfg` asks for it."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

COLD_START = """
import io, json, shutil, sys
import minilang.cli
from minilang import checkers
checkers.make_checkers()
loaded = sorted(m for m in ("dataclasses", "minilang.tidy", "minilang.matchers")
                if m in sys.modules)

import tracing
from minilang import cli

source, copy = sys.argv[1], sys.argv[2]

def run():
    shutil.copyfile(source, copy)
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run(cli.RunConfig("tidy", [copy], std_mode=17, fix=True), out, err)
    with open(copy, encoding="utf-8") as handle:
        return [rc, out.getvalue(), err.getvalue(), handle.read()]

after_tracing_import = sorted(
    m for m in ("dataclasses", "minilang.tidy", "minilang.matchers") if m in sys.modules)
tracer = tracing.Tracer()
with tracer.installed():
    traced = run()
plain = run()
print(json.dumps({"loaded": loaded, "after_tracing_import": after_tracing_import,
                  "traced": traced, "plain": plain,
                  "layers": tracer.layer_seconds(), "counts": tracer.count_values()}))
"""


TIDY_START = """
import io, json, shutil, sys
from minilang import cli

source, copy = sys.argv[1], sys.argv[2]

def engine_modules():
    return sorted(m for m in sys.modules if m.startswith("minilang.symexec")
                  or m in ("minilang.cfg", "minilang.checkers"))

shutil.copyfile(source, copy)
out, err = io.StringIO(), io.StringIO()
rc = cli.run(cli.RunConfig("tidy", [copy], std_mode=17, fix=True), out, err)
after_fix = engine_modules()
dump = io.StringIO()
dump_rc = cli.run(cli.RunConfig("tidy", [source], dump_flags={"cfg"}), dump, err)
print(json.dumps({"rc": rc, "out": out.getvalue(), "after_fix": after_fix,
                  "dump_rc": dump_rc, "dump": dump.getvalue(),
                  "after_dump": engine_modules()}))
"""


def run_child(script: str, source: pathlib.Path, copy: pathlib.Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "bench"))))
    child = subprocess.run(
        [sys.executable, "-c", script, str(source), str(copy)],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
    return json.loads(child.stdout.splitlines()[-1])


def test_analyze_start_loads_no_dataclasses_and_no_tidy_modules(tmp_path):
    source = ROOT / "scripts" / "examples" / "redundant_ptr.mc"
    got = run_child(COLD_START, source, tmp_path / source.name)
    assert got["loaded"] == []
    assert got["after_tracing_import"] == []
    # the first tidy run, inside the tracer, loads the tidy modules itself
    assert got["traced"] == got["plain"]
    rc, out, _err, fixed = got["plain"]
    assert rc == 1 and "readability-redundant-pointer" in out
    assert fixed != source.read_text(encoding="utf-8")
    assert got["layers"]["tidy.match_s"] > 0
    assert got["layers"]["diagnostics.fix_s"] > 0
    assert got["counts"]["tidy.diags"] > 0


def test_tidy_start_loads_no_engine_module(tmp_path):
    source = ROOT / "scripts" / "examples" / "redundant_ptr.mc"
    got = run_child(TIDY_START, source, tmp_path / source.name)
    assert got["rc"] == 1 and "readability-redundant-pointer" in got["out"]
    assert got["after_fix"] == []
    # --dump-cfg under tidy loads the CFG builder and still no engine
    assert got["dump_rc"] == 1 and "entry=B" in got["dump"]
    assert got["after_dump"] == ["minilang.cfg"]
