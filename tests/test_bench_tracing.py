"""The bench tracer's contract with the program.

`bench/tracing.py` times each layer by patching the module attributes that
the CLI calls through (`cli.assemble_bug_path`, `cli.render_text`,
`cli.run_checks`, `cli.apply_fixes`, ...). Per-layer metrics are reported
but not gated, so a refactor that stopped calling through those names would
zero a layer without any end-to-end metric moving. Here one traced run of
each tool must behave exactly like an untraced run and record every layer
it passes through.
"""

import io
import pathlib
import shutil
import sys

from minilang.cli import run_analyze, run_tidy, RunConfig
from minilang.frontend import load_unit, tokenize
from minilang.source import SourceFile

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "scripts" / "examples"
sys.path.append(str(ROOT / "bench"))

import tracing  # noqa: E402


def run(runner, config: RunConfig):
    out, err = io.StringIO(), io.StringIO()
    return runner(config, out, err), out.getvalue(), err.getvalue()


def test_traced_analyze_matches_untraced_and_times_reporting():
    config = RunConfig("analyze", [str(EXAMPLES / "use_after_clear.mc")])
    plain = run(run_analyze, config)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run(run_analyze, config)
    assert traced == plain
    assert plain[0] == 1
    layers = tracer.layer_seconds()
    assert layers["reporting.bugpath_s"] > 0
    assert layers["reporting.render_s"] > 0
    assert tracer.count_values()["reporting.reports"] == 1


def test_traced_tidy_fix_matches_untraced_and_times_matching_and_fixes(tmp_path):
    source = EXAMPLES / "redundant_ptr.mc"
    copy = tmp_path / source.name
    config = RunConfig("tidy", [str(copy)], std_mode=17, fix=True)
    shutil.copyfile(source, copy)
    plain = run(run_tidy, config)
    plain_fixed = copy.read_text(encoding="utf-8")
    shutil.copyfile(source, copy)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run(run_tidy, config)
    assert traced == plain
    assert copy.read_text(encoding="utf-8") == plain_fixed != source.read_text(encoding="utf-8")
    layers = tracer.layer_seconds()
    assert layers["tidy.match_s"] > 0
    assert layers["diagnostics.fix_s"] > 0


def test_traced_frontend_times_every_layer_and_counts_what_it_made():
    source = EXAMPLES / "use_after_clear.mc"
    config = RunConfig("analyze", [str(source)])
    tracer = tracing.Tracer()
    with tracer.installed():
        run(run_analyze, config)
    layers = tracer.layer_seconds()
    for layer in ("frontend.lex_s", "frontend.parse_s", "frontend.typecheck_s"):
        assert layers[layer] > 0, layer
    text = source.read_text(encoding="utf-8")
    counts = tracer.count_values()
    assert counts["frontend.tokens"] == len(tokenize(SourceFile(str(source), text)))
    assert counts["frontend.ast_nodes"] == len(load_unit(str(source), text).unit.preorder)
