"""Command line entry points: `mini-analyze` and `mini-tidy`.

Exit codes: 0 = no findings (or verify passed), 1 = findings emitted (or
verify failed), 2 = usage, parse or I/O error, 3 = internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field

from . import checkers as checker_registry
from .cfg import build_cfg, dump_cfg
from .diagnostics import Diagnostic, displayed, render_diagnostic, Severity
from .frontend import dump_ast, FrontendResult, load_unit
from .frontend.astnodes import FunctionDecl
from .reporting import (
    assemble_bug_path, render_html, render_text, verify_run, VerifyError,
)
from .source import InternalError
from .symexec import AnalysisConfig, Engine, dump_dot
from .tidy import apply_fixes, make_checks, run_checks


@dataclass
class RunConfig:
    command: str  # "analyze" | "tidy"
    inputs: list[str]
    std_mode: int = 14
    checkers: list[str] | None = None  # None: all
    checks: list[str] | None = None  # None: all
    fix: bool = False
    verify: bool = False
    output_mode: str = "text"  # "text" or "html:<path>"
    dump_flags: set[str] = field(default_factory=set)
    egraph_path: str | None = None
    unroll: int = 4
    node_budget: int = 50_000
    inline_depth: int = 5
    duplicate_warning_note: bool = True

    def validate(self) -> str | None:
        if self.fix and self.command != "tidy":
            return "--fix is only valid with the tidy command"
        if self.verify and self.output_mode.startswith("html"):
            return "--verify cannot be combined with html output"
        if self.output_mode != "text" and not self.output_mode.startswith("html:"):
            return f"unknown output mode {self.output_mode!r}"
        if not self.inputs:
            return "at least one input file is required"
        for flag, value in (("--unroll", self.unroll),
                            ("--node-budget", self.node_budget),
                            ("--inline-depth", self.inline_depth)):
            if value < 0:
                return f"{flag} must not be negative (got {value})"
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
    parser.add_argument("--unroll", type=int, default=4)
    parser.add_argument("--node-budget", type=int, default=50_000)
    parser.add_argument("--inline-depth", type=int, default=5)
    parser.add_argument("--analyzer-checker-help", action="store_true")
    parser.add_argument("--no-duplicate-warning-note", action="store_true")
    try:
        ns = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code == 0 else 2
    if ns.analyzer_checker_help:
        print(checker_registry.registry_list())
        return 0
    dumps = set()
    if ns.dump_ast:
        dumps.add("ast")
    if ns.dump_cfg:
        dumps.add("cfg")
    config = RunConfig(
        command="analyze", inputs=ns.inputs, std_mode=int(ns.std),
        checkers=ns.checker.split(",") if ns.checker else None,
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


def _frontend_or_fail(path: str, std: int, out, err):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=err)
        return None
    result = load_unit(path, text, std)
    if result.diagnostics:
        for diag in result.diagnostics:
            print(render_diagnostic(diag), file=err)
        return None
    return result


def _internal_error_guard(run):
    """Turn an escaping InternalError or RecursionError (an input whose
    expressions chain deeper than a recursive pass can follow) into one
    `internal error:` line and exit code 3, instead of a traceback with the
    exit code that means findings."""

    @functools.wraps(run)
    def guarded(config: RunConfig, out=None, err=None) -> int:
        err = err or sys.stderr
        try:
            return run(config, out, err)
        except (InternalError, RecursionError) as exc:
            print(f"internal error: {exc}", file=err)
            return 3

    return guarded


@_internal_error_guard
def run_analyze(config: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    problem = config.validate()
    if problem:
        print(f"error: {problem}", file=err)
        return 2
    try:
        enabled = checker_registry.resolve_enabled(
            config.checkers if config.checkers is not None
            else checker_registry.DEFAULT_CHECKERS)
    except checker_registry.UnknownCheckerError as exc:
        print(f"error: unknown checker {exc.args[0]!r}", file=err)
        return 2
    findings = False
    verify_failed = False
    egraph_chunks: list[str] = []
    for path in config.inputs:
        fe = _frontend_or_fail(path, config.std_mode, out, err)
        if fe is None:
            return 2
        if "ast" in config.dump_flags:
            print(dump_ast(fe.unit), file=out)
        if "cfg" in config.dump_flags:
            for decl in fe.unit.decls:
                if isinstance(decl, FunctionDecl):
                    print(dump_cfg(build_cfg(decl)), file=out)
        engine = Engine(fe.unit, fe.file,
                        AnalysisConfig(config.unroll, config.node_budget,
                                       config.inline_depth),
                        checker_registry.make_checkers(enabled))
        result = engine.run()
        if config.egraph_path:
            for name, graph in result.graphs.items():
                egraph_chunks.append(dump_dot(graph, name))
        warnings = [assemble_bug_path(r) for r in result.reports]
        findings = findings or bool(warnings)
        for note in result.notes:
            print(note, file=err)
        if config.output_mode.startswith("html:"):
            html_path = config.output_mode[len("html:"):]
            try:
                with open(html_path, "w", encoding="utf-8") as handle:
                    handle.write(render_html(fe.file, warnings))
            except OSError as exc:
                print(f"error: cannot write {html_path}: {exc}", file=err)
                return 2
        elif config.verify:
            status = _verify(path, fe, displayed(
                warnings, duplicate_warning_note=config.duplicate_warning_note), out, err)
            if status == 2:
                return 2
            verify_failed = verify_failed or status == 1
        else:
            print(render_text(fe.file, warnings,
                              duplicate_warning_note=config.duplicate_warning_note),
                  file=out)
    if config.egraph_path:
        try:
            with open(config.egraph_path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(egraph_chunks) + "\n")
        except OSError as exc:
            print(f"error: cannot write {config.egraph_path}: {exc}", file=err)
            return 2
    if config.verify:
        return 1 if verify_failed else 0
    return 1 if findings else 0


def _verify(path: str, fe: FrontendResult, shown: list[Diagnostic], out, err) -> int:
    """Check the diagnostics a run would show against the file's directives
    and print the verdict. Returns 2 for a malformed directive, 1 for a
    failed verify, else 0."""
    try:
        outcome = verify_run(fe.file, fe.comments, shown)
    except VerifyError as exc:
        print(f"error: {exc}", file=err)
        return 2
    if outcome.passed:
        print(f"{path}: verify passed", file=out)
        return 0
    print(f"{path}: verify failed:", file=out)
    for mismatch in outcome.mismatches:
        print(f"  {mismatch}", file=out)
    return 1


@_internal_error_guard
def run_tidy(config: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    problem = config.validate()
    if problem:
        print(f"error: {problem}", file=err)
        return 2
    findings = False
    verify_failed = False
    for path in config.inputs:
        fe = _frontend_or_fail(path, config.std_mode, out, err)
        if fe is None:
            return 2
        if "ast" in config.dump_flags:
            print(dump_ast(fe.unit), file=out)
        try:
            checks = make_checks(config.checks, fe.file, config.std_mode,
                                 fe.unit.structs)
        except KeyError as exc:
            print(f"error: unknown check {exc.args[0]!r}", file=err)
            return 2
        diags = run_checks(fe.unit, fe.file, checks)
        findings = findings or any(d.severity is Severity.WARNING for d in diags)
        shown = displayed(diags)
        if config.verify:
            status = _verify(path, fe, shown, out, err)
            if status == 2:
                return 2
            verify_failed = verify_failed or status == 1
        elif shown:
            print("\n".join(map(render_diagnostic, shown)), file=out)
        if config.fix:
            fixed, warnings = apply_fixes(fe.file.text, diags)
            for warning in warnings:
                print(f"warning: {warning}", file=err)
            if fixed != fe.file.text:
                try:
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(fixed)
                except OSError as exc:
                    print(f"error: cannot write {path}: {exc}", file=err)
                    return 2
    if config.verify:
        return 1 if verify_failed else 0
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """Dispatcher: `main(["analyze", ...])` or `main(["tidy", ...])`."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("analyze", "tidy"):
        print("usage: minilang (analyze|tidy) [options] file.mc...", file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "analyze":
        config = parse_analyze_args(rest)
        return config if isinstance(config, int) else run_analyze(config)
    config = parse_tidy_args(rest)
    return config if isinstance(config, int) else run_tidy(config)


def main_analyze() -> None:
    config = parse_analyze_args(sys.argv[1:])
    sys.exit(config if isinstance(config, int) else run_analyze(config))


def main_tidy() -> None:
    config = parse_tidy_args(sys.argv[1:])
    sys.exit(config if isinstance(config, int) else run_tidy(config))
