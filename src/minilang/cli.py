"""Command line entry points: `mini-analyze` and `mini-tidy`.

Exit codes: 0 = no findings (or verify passed), 1 = findings emitted (or
verify failed), 2 = usage, parse or I/O error, 3 = internal error.

Each tool loads only what it runs: the engine, the checkers and the CFG
builder are imported by the analyze command (and `--dump-cfg`), the lint
framework and the matcher library by the tidy command.
"""

from __future__ import annotations

import argparse
import sys

from .diagnostics import apply_fixes, Diagnostic, displayed, render_diagnostic, Severity
from .frontend import dump_ast, load_unit
from .frontend.astnodes import FunctionDecl
from .reporting import render_html, render_text, verify_run, VerifyError
from .source import InternalError


class RunConfig:
    def __init__(self, command: str, inputs: list[str], std_mode: int = 14,
                 checks: list[str] | None = None, fix: bool = False,
                 verify: bool = False, output_mode: str = "text",
                 dump_flags: set[str] | None = None, egraph_path: str | None = None,
                 unroll: int = 4, node_budget: int = 50_000, inline_depth: int = 5,
                 duplicate_warning_note: bool = True):
        self.command = command  # "analyze" | "tidy"
        self.inputs = inputs
        self.std_mode = std_mode
        self.checks = checks  # checker (analyze) or check (tidy) names; None: all
        self.fix = fix
        self.verify = verify
        self.output_mode = output_mode  # "text" or "html:<path>"
        self.dump_flags = set() if dump_flags is None else dump_flags
        self.egraph_path = egraph_path
        self.unroll = unroll
        self.node_budget = node_budget
        self.inline_depth = inline_depth
        self.duplicate_warning_note = duplicate_warning_note

    def validate(self) -> str | None:
        if self.fix and self.command != "tidy":
            return "--fix is only valid with the tidy command"
        if self.output_mode != "text" and not self.output_mode.startswith("html:"):
            return f"unknown output mode {self.output_mode!r}"
        if self.output_mode == "html:":
            return "html output needs a file path: html:<path>"
        if self.verify and self.output_mode != "text":
            return "--verify cannot be combined with html output"
        if not self.inputs:
            return "at least one input file is required"
        if self.output_mode != "text" and len(self.inputs) > 1:
            return f"html output takes one input file (got {len(self.inputs)})"
        for flag, value in (("--unroll", self.unroll),
                            ("--node-budget", self.node_budget),
                            ("--inline-depth", self.inline_depth)):
            if value < 0:
                return f"{flag} must not be negative (got {value})"
        analyze = self.command == "analyze"
        if analyze:
            from . import checkers
            known = checkers.CHECKERS
        else:
            from . import tidy
            known = tidy.CHECKS
        for name in self.checks or ():
            if name not in known:
                return f"unknown {'checker' if analyze else 'check'} {name!r}"
        return None


def _base_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, add_help=True)
    parser.add_argument("inputs", nargs="*", metavar="file.mc")
    parser.add_argument("--std", choices=("14", "17"), default="14")
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--dump-ast", action="store_true")
    return parser


def parse_analyze_args(argv: list[str]) -> RunConfig | int:
    parser = _base_parser("mini-analyze")
    parser.add_argument("--checker", default=None,
                        help="comma separated checker list (default: all)")
    parser.add_argument("--analyzer-output", default="text",
                        help="text or html:<path>")
    parser.add_argument("--dump-cfg", action="store_true")
    parser.add_argument("--dump-egraph", metavar="PATH.dot", default=None)
    parser.add_argument("--unroll", type=int, default=4,
                        help="times a path may take one loop back edge")
    parser.add_argument("--node-budget", type=int, default=50_000)
    parser.add_argument("--inline-depth", type=int, default=5)
    parser.add_argument("--analyzer-checker-help", action="store_true")
    parser.add_argument("--no-duplicate-warning-note", action="store_true")
    try:
        ns = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code == 0 else 2
    if ns.analyzer_checker_help:
        from .checkers import registry_list
        print(registry_list())
        return 0
    dumps = set()
    if ns.dump_ast:
        dumps.add("ast")
    if ns.dump_cfg:
        dumps.add("cfg")
    config = RunConfig(
        command="analyze", inputs=ns.inputs, std_mode=int(ns.std),
        checks=ns.checker.split(",") if ns.checker else None,
        verify=ns.verify, output_mode=ns.analyzer_output, dump_flags=dumps,
        egraph_path=ns.dump_egraph, unroll=ns.unroll,
        node_budget=ns.node_budget, inline_depth=ns.inline_depth,
        duplicate_warning_note=not ns.no_duplicate_warning_note)
    return config


def parse_tidy_args(argv: list[str]) -> RunConfig | int:
    parser = _base_parser("mini-tidy")
    parser.add_argument("--checks", default=None,
                        help="comma separated check list (default: all)")
    parser.add_argument("--fix", action="store_true")
    try:
        ns = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code == 0 else 2
    dumps = {"ast"} if ns.dump_ast else set()
    return RunConfig(
        command="tidy", inputs=ns.inputs, std_mode=int(ns.std),
        checks=ns.checks.split(",") if ns.checks else None,
        fix=ns.fix, verify=ns.verify, dump_flags=dumps)


def run_checks(unit, file, checks) -> list:
    """`tidy.run_checks`, imported on the first call: `mini-analyze` never
    loads the lint framework or the matcher library."""
    from . import tidy
    return tidy.run_checks(unit, file, checks)


def assemble_bug_path(report) -> Diagnostic:
    """`checkers.assemble_bug_path`, imported on the first call:
    `mini-tidy` never loads the checkers or the engine."""
    from . import checkers
    return checkers.assemble_bug_path(report)


def _write(path: str, text: str, err, newline: str | None = None) -> bool:
    """Write `text` to `path`, each "\n" as `newline` when given, or print
    why not and return False."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=err)
        return False
    return True


def run(config: RunConfig, out=None, err=None) -> int:
    """Run `config.command` over each input in turn: frontend, dumps, the
    tool's diagnostics, one show step (html, verify or text), then --fix.
    Exit code: 2 at the first usage, input or output error; else 1 when
    any file failed verify (with --verify) or had a warning (without),
    0 otherwise. An escaping InternalError or RecursionError (an input
    whose expressions chain deeper than a recursive pass can follow) ends
    the run with one `internal error:` line and 3, not a traceback with the
    exit code that means findings.

    The tools see LF-only text without a leading UTF-8 byte-order mark, as
    Clang skips it. --fix writes the mark back, and the file's line ending
    when it has one kind; a file with mixed line endings is written as LF."""
    out = out or sys.stdout
    err = err or sys.stderr
    problem = config.validate()
    if problem:
        print(f"error: {problem}", file=err)
        return 2
    analyze = config.command == "analyze"
    duplicate_note = analyze and config.duplicate_warning_note
    html_path = config.output_mode.removeprefix("html:") \
        if config.output_mode != "text" else None
    failed = False
    egraph_chunks: list[str] = []
    try:
        for path in config.inputs:
            try:
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                    newline = handle.newlines  # None, one string, or a tuple
            except (OSError, UnicodeDecodeError) as exc:
                print(f"error: cannot read {path}: {exc}", file=err)
                return 2
            bom = "\ufeff" if text.startswith("\ufeff") else ""
            fe = load_unit(path, text[len(bom):], config.std_mode)
            if fe.diagnostics:
                for diag in fe.diagnostics:
                    print(render_diagnostic(diag), file=err)
                return 2
            if "ast" in config.dump_flags:
                print(dump_ast(fe.unit), file=out)
            if "cfg" in config.dump_flags:
                from .cfg import build_cfg, dump_cfg
                for decl in fe.unit.decls:
                    if isinstance(decl, FunctionDecl):
                        print(dump_cfg(build_cfg(decl)), file=out)
            if analyze:
                from . import checkers
                from .symexec import AnalysisConfig, dump_dot, Engine
                result = Engine(fe.unit,
                                AnalysisConfig(config.unroll, config.node_budget,
                                               config.inline_depth),
                                checkers.make_checkers(config.checks)).run()
                if config.egraph_path:
                    egraph_chunks += (dump_dot(graph, name)
                                      for name, graph in result.graphs.items())
                diags = [assemble_bug_path(r) for r in result.reports]
                for note in result.notes:
                    print(note, file=err)
            else:
                from . import tidy
                diags = run_checks(fe.unit, fe.file, tidy.make_checks(
                    config.checks, fe.file, config.std_mode, fe.unit.structs))
            if html_path is not None:
                if not _write(html_path, render_html(fe.file, diags), err):
                    return 2
            elif config.verify:
                try:
                    outcome = verify_run(fe.file, fe.comments, displayed(
                        diags, duplicate_warning_note=duplicate_note))
                except VerifyError as exc:
                    print(f"error: {exc}", file=err)
                    return 2
                print(f"{path}: verify {'passed' if outcome.passed else 'failed:'}",
                      file=out)
                for mismatch in outcome.mismatches:
                    print(f"  {mismatch}", file=out)
            elif analyze:
                print(render_text(fe.file, diags, duplicate_warning_note=duplicate_note),
                      file=out)
            elif diags:
                print("\n".join(map(render_diagnostic, displayed(diags))), file=out)
            failed = failed or (not outcome.passed if config.verify else
                                any(d.severity is Severity.WARNING for d in diags))
            if config.fix:
                fixed, warnings = apply_fixes(fe.file.text, diags)
                for warning in warnings:
                    print(f"warning: {warning}", file=err)
                if fixed != fe.file.text and not _write(
                        path, bom + fixed, err,
                        newline if isinstance(newline, str) else None):
                    return 2
        if config.egraph_path and not _write(
                config.egraph_path, "\n".join(egraph_chunks) + "\n", err):
            return 2
    except (InternalError, RecursionError) as exc:
        print(f"internal error: {exc}", file=err)
        return 3
    return 1 if failed else 0


# Each tool's name for the one driver; `run` reads the tool from the config.
run_analyze = run_tidy = run


def main(argv: list[str] | None = None) -> int:
    """Dispatcher: `main(["analyze", ...])` or `main(["tidy", ...])`."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("analyze", "tidy"):
        print("usage: minilang (analyze|tidy) [options] file.mc...", file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    parse = parse_analyze_args if command == "analyze" else parse_tidy_args
    config = parse(rest)
    return config if isinstance(config, int) else run(config)


def main_analyze() -> None:
    sys.exit(main(["analyze", *sys.argv[1:]]))


def main_tidy() -> None:
    sys.exit(main(["tidy", *sys.argv[1:]]))


if __name__ == "__main__":
    sys.exit(main())
