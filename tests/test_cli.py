"""Exit codes, flags and output plumbing of mini-analyze / mini-tidy."""

import io
import os
import pathlib
import subprocess
import sys

import pytest

from minilang.checkers import registry_list
from minilang.cli import (
    main, parse_analyze_args, parse_tidy_args, run_analyze, run_tidy, RunConfig,
)

from minilang.frontend.parser import MAX_NESTING
from minilang.source import InternalError

from conftest import (
    DEREF_AFTER_CLEAR_VERIFY, NULL_CHECK, REDUNDANT_PTR, USE_AFTER_CLEAR,
)


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "examples"


def analyze_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    config = parse_analyze_args(argv)
    if isinstance(config, int):
        return config, "", ""
    code = run_analyze(config, out, err)
    return code, out.getvalue(), err.getvalue()


def tidy_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    config = parse_tidy_args(argv)
    if isinstance(config, int):
        return config, "", ""
    code = run_tidy(config, out, err)
    return code, out.getvalue(), err.getvalue()


CLEAN = "void f() { int x = 1; }"
# each tool's runner and a file on which it reports a warning
TOOLS = {
    "analyze": (analyze_cli, USE_AFTER_CLEAR),
    "tidy": (tidy_cli, REDUNDANT_PTR),
}


# --- exit codes -----------------------------------------------------------------

def test_analyze_reports_give_exit_one(mc):
    path = mc(USE_AFTER_CLEAR)
    code, out, _ = analyze_cli([path, "--checker=cplusplus.InnerPointer"])
    assert code == 1
    assert "Inner pointer of container used after re/deallocation" in out


def test_analyze_clean_file_exit_zero(mc):
    path = mc("void f() { }", "clean.mc")
    code, out, _ = analyze_cli([path])
    assert code == 0
    assert f"Found 0 defect(s) in {path}" in out


def test_missing_file_exit_two():
    code, _, err = analyze_cli(["/nonexistent/nowhere.mc"])
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("argv", [["analyze"], ["tidy"], ["tidy", "--std=17", "--fix"]])
def test_input_that_is_not_utf8_exits_two_with_one_error(argv, tmp_path):
    path = tmp_path / "latin.mc"
    data = b"\xff\xfe" + REDUNDANT_PTR.encode()
    path.write_bytes(data)
    run = analyze_cli if argv[0] == "analyze" else tidy_cli
    code, out, err = run([*argv[1:], str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1
    assert path.read_bytes() == data


@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_a_utf8_byte_order_mark_is_skipped(tool, tmp_path):
    run, source = TOOLS[tool]
    plain, marked = tmp_path / "plain.mc", tmp_path / "marked.mc"
    plain.write_bytes(source.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + source.encode())
    code, out, err = run([str(marked)])
    plain_code, plain_out, plain_err = run([str(plain)])
    assert code == plain_code == 1 and err == plain_err
    assert out == plain_out.replace(str(plain), str(marked))


def test_minilang_parse_error_exit_two(mc):
    path = mc("void f( {", "broken.mc")
    code, _, err = analyze_cli([path])
    assert code == 2
    assert "error" in err


def test_unknown_checker_exit_two(mc):
    path = mc("void f() { }")
    code, _, err = analyze_cli([path, "--checker=core.Bogus"])
    assert code == 2
    assert "unknown checker" in err


def test_no_inputs_exit_two():
    code, _, err = analyze_cli([])
    assert code == 2


def test_unknown_flag_exit_two(mc):
    assert analyze_cli([mc("void f() { }"), "--frobnicate"])[0] == 2


# --- checker help ------------------------------------------------------------------

def test_checker_help_lists_builtins_and_usage():
    text = registry_list()
    assert "USAGE: --checker" in text
    for name in ("core.DivideZero", "cplusplus.InnerPointer", "unix.MallocLite"):
        assert name in text


def test_checker_help_stable_across_runs():
    assert registry_list() == registry_list()


def test_checker_help_flag_short_circuits(capsys):
    assert parse_analyze_args(["--analyzer-checker-help"]) == 0
    assert "CHECKERS:" in capsys.readouterr().out


# --- dumps -----------------------------------------------------------------------------

def test_dump_ast_prints_nodes(mc):
    path = mc("void f() { int x = 1; }")
    code, out, _ = analyze_cli([path, "--dump-ast"])
    assert code == 0
    assert "TranslationUnit <1:1" in out
    assert "VarDecl" in out


def test_dump_cfg_prints_blocks(mc):
    path = mc("void f(bool b) { if (b) { } }")
    code, out, _ = analyze_cli([path, "--dump-cfg"])
    assert "B0" in out and "branch" in out


def test_dump_egraph_writes_dot_file(mc, tmp_path):
    path = mc("void f() { int x = 1; }")
    dot = tmp_path / "graph.dot"
    code, _, _ = analyze_cli([path, f"--dump-egraph={dot}"])
    text = dot.read_text()
    assert text.startswith("digraph ")
    assert "PostStmt" in text


# --- analyze modes -----------------------------------------------------------------------

def test_html_output_writes_self_contained_file(mc, tmp_path):
    path = mc(USE_AFTER_CLEAR)
    html_path = tmp_path / "report.html"
    code, out, _ = analyze_cli([path, f"--analyzer-output=html:{html_path}"])
    assert code == 1
    page = html_path.read_text()
    assert page.startswith("<!DOCTYPE html>")
    assert "Inner pointer of container" in page


def test_html_unwritable_path_exit_two(mc):
    path = mc(USE_AFTER_CLEAR)
    code, _, err = analyze_cli(
        [path, "--analyzer-output=html:/nonexistent/dir/x.html"])
    assert code == 2


def test_html_output_takes_one_input(mc, tmp_path):
    divides = "int f() { return 1 / 0; }"
    first, second = mc(divides, "a.mc"), mc(divides, "b.mc")
    page = tmp_path / "report.html"
    code, out, err = analyze_cli([first, second, f"--analyzer-output=html:{page}"])
    assert (code, out) == (2, "")
    assert err == "error: html output takes one input file (got 2)\n"
    assert not page.exists()


def test_verify_excludes_html(mc):
    path = mc(USE_AFTER_CLEAR)
    code, _, err = analyze_cli(
        [path, "--verify", "--analyzer-output=html:/tmp/x.html"])
    assert code == 2


def test_unknown_output_mode_is_named_before_the_verify_conflict(mc):
    path = mc(CLEAN)
    code, out, err = analyze_cli([path, "--verify", "--analyzer-output=htmlx"])
    assert (code, out) == (2, "")
    assert err == "error: unknown output mode 'htmlx'\n"


@pytest.mark.parametrize("inputs", [["found"], ["/nonexistent/dir/missing.mc"]])
def test_empty_html_path_is_a_usage_error_before_any_file_is_read(mc, inputs):
    paths = [mc(USE_AFTER_CLEAR) if name == "found" else name for name in inputs]
    code, out, err = analyze_cli([*paths, "--analyzer-output=html:"])
    assert (code, out) == (2, "")
    assert err == "error: html output needs a file path: html:<path>\n"


def test_verify_pass_and_fail_exit_codes(mc):
    good = mc(DEREF_AFTER_CLEAR_VERIFY, "good.mc")
    code, out, _ = analyze_cli([good, "--verify"])
    assert code == 0 and "verify passed" in out
    mutated = DEREF_AFTER_CLEAR_VERIFY.replace("obtained here", "grabbed here")
    bad = mc(mutated, "bad.mc")
    code, out, _ = analyze_cli([bad, "--verify"])
    assert code == 1 and "verify failed" in out


def test_verify_consumes_the_same_text_as_plain_output(mc):
    # a file whose directives were generated from the plain rendering
    path = mc(USE_AFTER_CLEAR, "plain.mc")
    code, out, _ = analyze_cli([path])
    assert code == 1
    directives = []
    for line in out.splitlines():
        if ": warning: " in line or ": note: " in line:
            _, lineno, _, rest = line.split(":", 3)
            sev, msg = rest.strip().split(": ", 1)
            msg = msg.rsplit(" [", 1)[0]
            directives.append((int(lineno), sev, msg))
    source_lines = USE_AFTER_CLEAR.splitlines()
    for lineno, sev, msg in directives:
        source_lines[lineno - 1] += f" // expected-{sev}@-0 {{{{{msg}}}}}"
    annotated = mc("\n".join(source_lines) + "\n", "annotated.mc")
    code, out, _ = analyze_cli([annotated, "--verify"])
    assert code == 0, out


def test_verify_ignores_source_lines_that_look_like_diagnostics(mc, tmp_path, monkeypatch):
    # The string literal continues onto line 3, which therefore starts like
    # a rendered warning; verify must check the diagnostics themselves, not
    # whatever the echoed source line under each of them spells.
    mc('void f() {\n'
       '  string s = "a\\\n'
       'v.mc:3:1: warning: fake"; int* p = new int(); int y = *p;'
       ' // expected-warning {{redundant pointer variable with only one usage}}'
       ' expected-note {{pointer usage location}}\n'
       '}\n', "v.mc")
    monkeypatch.chdir(tmp_path)
    code, out, _ = tidy_cli(["v.mc", "--verify"])
    assert (code, out) == (0, "v.mc: verify passed\n")


def test_multiple_files_interleaved_in_input_order(mc):
    first = mc("void a() { }", "a.mc")
    second = mc("void b() { }", "b.mc")
    code, out, _ = analyze_cli([first, second])
    assert out.index("a.mc") < out.index("b.mc")


# --- several inputs: the worst file decides ------------------------------------

@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_a_file_with_findings_among_clean_ones_exits_one(tool, reverse, mc):
    run, findings = TOOLS[tool]
    files = [mc(findings, "dirty.mc"), mc(CLEAN, "clean.mc")]
    assert run(files[::-1] if reverse else files)[0] == 1


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_a_failed_verify_among_passing_ones_exits_one(tool, reverse, mc):
    run, findings = TOOLS[tool]
    files = [mc(findings, "fails.mc"), mc(CLEAN, "passes.mc")]
    code, out, _ = run([*(files[::-1] if reverse else files), "--verify"])
    assert code == 1
    assert f"{files[0]}: verify failed:" in out
    assert f"{files[1]}: verify passed" in out


@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_first_bad_input_exits_two_and_stops(tool, mc, tmp_path):
    run, _ = TOOLS[tool]
    clean, broken = mc(CLEAN, "clean.mc"), mc("void f( {", "broken.mc")
    missing = str(tmp_path / "missing.mc")
    code, out, err = run([clean, broken, missing, "--verify"])
    assert code == 2
    assert out == f"{clean}: verify passed\n"
    assert "broken.mc" in err and "missing.mc" not in err


def test_tidy_fix_rewrites_every_input(mc):
    first, second = mc(REDUNDANT_PTR, "one.mc"), mc(REDUNDANT_PTR, "two.mc")
    assert tidy_cli([first, second, "--fix"])[0] == 1
    for path in (first, second):
        assert "(function_call())->value" in open(path).read()


def test_budget_flags_are_wired(mc):
    path = mc("""\
void f(int n) {
  int i = 0;
  while (i < n)
    i = i + 1;
}
""")
    code, _, err = analyze_cli([path, "--unroll=1", "--node-budget=40"])
    assert "unroll" in err or "budget" in err


def test_zero_node_budget_abandons_the_root_cleanly(mc, tmp_path, capsys):
    path = mc("int f(int a) { return 10 / a; }")
    code, out, err = analyze_cli([path, "--node-budget=0"])
    assert code == 0
    assert "f: note: node budget exhausted, paths abandoned" in err
    assert f"Found 0 defect(s) in {path}" in out
    dot = tmp_path / "g.dot"
    assert main(["analyze", "--node-budget=0", f"--dump-egraph={dot}", path]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert dot.read_text().startswith('digraph "f"')


@pytest.mark.parametrize("flag", ["--unroll", "--node-budget", "--inline-depth"])
def test_negative_numeric_flag_exit_two(mc, flag):
    path = mc("void f() { }")
    code, out, err = analyze_cli([path, f"{flag}=-1"])
    assert code == 2
    assert f"error: {flag} must not be negative (got -1)" in err
    assert out == ""


def test_no_duplicate_warning_note_flag(mc):
    path = mc(USE_AFTER_CLEAR)
    _, with_dup, _ = analyze_cli([path, "--checker=cplusplus.InnerPointer"])
    _, without, _ = analyze_cli([path, "--checker=cplusplus.InnerPointer",
                                 "--no-duplicate-warning-note"])
    assert with_dup.count(": note: ") == without.count(": note: ") + 1


# --- tidy -------------------------------------------------------------------------------

def test_tidy_findings_exit_one_and_fix_rewrites(mc, tmp_path):
    path = mc(REDUNDANT_PTR, "g.mc")
    code, out, _ = tidy_cli(
        [path, "--checks=readability-redundant-pointer", "--fix"])
    assert code == 1
    fixed = open(path).read()
    assert "Something* p" not in fixed
    assert "(function_call())->value" in fixed


def fixed_bytes(tmp_path, data: bytes) -> bytes:
    """`data` after `mini-tidy --fix`."""
    path = tmp_path / "fix.mc"
    path.write_bytes(data)
    code, _, _ = tidy_cli([str(path), "--fix"])
    assert code == 1
    return path.read_bytes()


def test_tidy_fix_writes_the_byte_order_mark_back(tmp_path):
    plain = fixed_bytes(tmp_path, REDUNDANT_PTR.encode())
    assert plain != REDUNDANT_PTR.encode()
    assert fixed_bytes(tmp_path, b"\xef\xbb\xbf" + REDUNDANT_PTR.encode()) \
        == b"\xef\xbb\xbf" + plain


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_tidy_fix_keeps_the_line_endings(ending, tmp_path):
    plain = fixed_bytes(tmp_path, REDUNDANT_PTR.encode())
    data = REDUNDANT_PTR.encode().replace(b"\n", ending)
    assert fixed_bytes(tmp_path, data) == plain.replace(b"\n", ending)


def test_tidy_fix_writes_mixed_line_endings_as_lf(tmp_path):
    plain = fixed_bytes(tmp_path, REDUNDANT_PTR.encode())
    data = REDUNDANT_PTR.encode().replace(b"\n", b"\r\n", 1)
    assert fixed_bytes(tmp_path, data) == plain


def test_tidy_clean_exit_zero(mc):
    path = mc("void f() { int x = 1; x = x + 1; }")
    code, out, _ = tidy_cli([path])
    assert code == 0 and out == ""


def test_tidy_fix_flag_rejected_on_analyze():
    config = RunConfig(command="analyze", inputs=["x.mc"], fix=True)
    assert config.validate() is not None


def test_tidy_unknown_check_exit_two(mc):
    path = mc("void f() { }")
    code, _, err = tidy_cli([path, "--checks=readability-bogus"])
    assert code == 2


@pytest.mark.parametrize("inputs", [["broken.mc"], ["missing.mc"], ["--dump-ast", "ok.mc"]])
@pytest.mark.parametrize("tool, flag, noun", [
    ("analyze", "--checker", "checker"), ("tidy", "--checks", "check")])
def test_unknown_name_rejected_before_any_file_is_read(
        tool, flag, noun, inputs, tmp_path, monkeypatch):
    (tmp_path / "broken.mc").write_text("void f( {")
    (tmp_path / "ok.mc").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    run, _ = TOOLS[tool]
    assert run([f"{flag}=bogus", *inputs]) == (2, "", f"error: unknown {noun} 'bogus'\n")


def test_tidy_std17_guarded_rewrite_via_cli(mc):
    path = mc(NULL_CHECK, "null_check.mc")
    code, out, _ = tidy_cli([path, "--std=17", "--fix"])
    assert code == 1
    fixed = open(path).read()
    assert "if (Something* p = function_call_that_might_return_null(); (!p) ||" in fixed
    code, out, _ = tidy_cli([path, "--std=17"])
    assert code == 0  # fixed point: no findings on the rewritten file


def test_analyze_std17_on_the_guarded_rewrite_of_the_null_check_example(tmp_path):
    # the rewrite's `(!p) || ((value_to_print = p->value), false)` is the one
    # comma condition the tool chain itself writes; reading `p->value` only
    # where `p` is non-null, it has no defect
    path = tmp_path / "null_check.mc"
    path.write_text((EXAMPLES / "null_check.mc").read_text())
    assert tidy_cli([str(path), "--std=17", "--fix"])[0] == 1
    assert "((value_to_print = p->value), false)" in path.read_text()
    code, out, err = analyze_cli([str(path), "--std=17"])
    assert (code, out, err) == (0, f"Found 0 defect(s) in {path}\n", "")


def test_tidy_without_fix_leaves_file_untouched(mc):
    path = mc(REDUNDANT_PTR, "keep.mc")
    tidy_cli([path])
    assert open(path).read() == REDUNDANT_PTR


# --- dispatcher ----------------------------------------------------------------------------

def test_main_dispatcher_requires_command():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_main_dispatcher_routes_to_tidy(mc, capsys):
    path = mc(REDUNDANT_PTR)
    assert main(["tidy", path]) == 1


@pytest.mark.parametrize("entry", ["main_analyze", "main_tidy"])
def test_console_entry_points_exit_codes(entry, mc, tmp_path):
    # the [project.scripts] entry points read sys.argv and exit the process
    findings = TOOLS["analyze" if entry == "main_analyze" else "tidy"][1]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    for path, code in ((mc(CLEAN, "clean.mc"), 0), (mc(findings, "dirty.mc"), 1),
                       (str(tmp_path / "missing.mc"), 2)):
        child = subprocess.run(
            [sys.executable, "-c", f"from minilang.cli import {entry}; {entry}()", path],
            env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == code, child.stdout + child.stderr
        assert "Traceback" not in child.stdout + child.stderr


def test_cli_module_runs_as_a_script():
    # `python -m minilang.cli` runs `main`, exit code included
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    path = root / "scripts" / "examples" / "div_zero.mc"
    child = subprocess.run(
        [sys.executable, "-m", "minilang.cli", "analyze", str(path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 1, child.stdout + child.stderr
    assert f"{path}:11:11: warning: Division by zero [core.DivideZero]" in child.stdout


def test_analyze_accepts_std17_sources(mc):
    source = """\
struct T { int v; };
extern T* mk();
void f() {
  if (T* p = mk(); p == 0)
    return;
}
"""
    path = mc(source, "std17.mc")
    assert analyze_cli([path])[0] == 2  # std 14 rejects the if-initializer
    code, out, _ = analyze_cli([path, "--std=17"])
    assert code == 0


def test_unknown_output_mode_exit_two(mc):
    path = mc("void f() { }")
    code, _, err = analyze_cli([path, "--analyzer-output=xml"])
    assert code == 2 and "output mode" in err


# --- nesting cap -----------------------------------------------------------------------------

def nested_source(shape: str, depth: int) -> str:
    """A program whose statements and unary or parenthesised expressions nest
    exactly `depth` levels deep; the function body itself is not a level."""
    if shape == "parens":
        return "int f(int a) { return " + "(" * (depth - 2) + "a" + ")" * (depth - 2) + "; }"
    if shape == "unary":
        return "int f(int a) { return " + "-" * (depth - 2) + "a; }"
    if shape == "braces":
        return "void f() { " + "{" * depth + "}" * depth + " }"
    braces = depth // 2
    parens = depth - braces - 2
    return ("int f(int a) { " + "{" * braces + "return " + "(" * parens + "a"
            + ")" * parens + ";" + "}" * braces + " return a; }")


SHAPES = ["parens", "unary", "braces", "mixed"]


@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_at_the_cap_runs_both_tools(shape, mc):
    path = mc(nested_source(shape, MAX_NESTING))
    assert analyze_cli([path])[0] in (0, 1)
    assert tidy_cli([path])[0] in (0, 1)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_past_the_cap_exits_two_with_one_diagnostic(shape, depth, mc):
    path = mc(nested_source(shape, depth))
    for run in (analyze_cli, tidy_cli):
        code, out, err = run([path])
        assert code == 2 and out == ""
        assert err.count(f"error: nesting level exceeds maximum of {MAX_NESTING}") == 1
        assert err.count(": error: ") == 1


# --- internal errors -----------------------------------------------------------------------

LONG_CHAINS = {
    "sum": "int f(int a) { return " + " + ".join(["a"] * 3000) + "; }\n",
    "assignments": "void f() { int a = 0; " + "a = " * 1000 + "a; }\n",
}


@pytest.mark.parametrize("chain", sorted(LONG_CHAINS))
def test_long_operator_chain_exits_three_without_a_traceback(chain, mc):
    # Which recursive pass overflows first is not part of the contract.
    path = mc(LONG_CHAINS[chain])
    for run in (analyze_cli, tidy_cli):
        code, out, err = run([path])
        assert code == 3
        assert "Traceback" not in err
        assert err.count("internal error: ") == 1


def test_a_long_flat_function_runs_both_tools(mc):
    # 1000 `if`s in a row make a CFG of some 2000 blocks, which the block
    # numbering walks without a Python frame per block.
    path = mc("void f(int a) { int x = 0; " + "if (a > 0) x = 1; " * 1000 + "}\n")
    for run in (analyze_cli, tidy_cli):
        code, out, err = run([path])
        assert (code, err) == (0, "")


def test_internal_error_exits_three(mc, monkeypatch):
    def fail(*args):
        raise InternalError("offset 7 outside 'input.mc'")
    monkeypatch.setattr("minilang.cli.run_checks", fail)
    code, _, err = tidy_cli([mc(REDUNDANT_PTR)])
    assert (code, err) == (3, "internal error: offset 7 outside 'input.mc'\n")
