"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces each layer's public entry points, at the
module attribute that the caller looks up, with a wrapper that records a
span (name, start, end, parent) and the layer's counts; leaving the block
puts the originals back, so untraced runs execute the unmodified program.
A span's self time is its duration minus the time its child spans cover.
Bookkeeping that is not the program's own work (counting AST nodes, graph
sizes, fix-its) runs in a `trace` span, which belongs to the overhead.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

from minilang import checkers, cli, frontend
from minilang.symexec import engine

# Self-time metric for each span name. `trace` is bookkeeping and `cli` is
# the driver: `run_*` minus every wrapped call inside it.
SPAN_METRICS = {
    "cli": "cli.self_s",
    "frontend": "frontend.source_s",
    "frontend.lex": "frontend.lex_s",
    "frontend.parse": "frontend.parse_s",
    "frontend.typecheck": "frontend.typecheck_s",
    "cfg": "cfg.build_s",
    "engine": "engine.self_s",
    "checkers": "checkers.callback_s",
    "reporting.bugpath": "reporting.bugpath_s",
    "reporting.render": "reporting.render_s",
    "tidy": "tidy.match_s",
    "diagnostics": "diagnostics.fix_s",
}

COUNT_METRICS = (
    "frontend.tokens", "frontend.ast_nodes", "cfg.blocks",
    "engine.nodes", "engine.leaves", "engine.sinks", "engine.fns_budget_exhausted",
    "checkers.callbacks", "reporting.reports", "reporting.unique_reports",
    "tidy.diags", "diagnostics.fixits", "diagnostics.fix_conflicts",
)

# The callbacks Engine.dispatch and Engine._reap_with look up on a checker.
CHECKER_HOOKS = (
    "check_pre_delete", "check_implicit_dtor", "check_post_dtor", "check_use",
    "check_dead_symbols", "check_div", "check_post_new", "check_post_call",
)


class Tracer:
    """Spans and counts of one traced pass; `reset()` starts the next."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, name, start, child time]

    # --- spans ---

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([len(self.spans) - 1, name, time.perf_counter(), 0.0])

    def leave(self) -> None:
        end = time.perf_counter()
        index, name, start, child = self._stack.pop()
        self.spans[index] = (name, start, end, self.spans[index][3])
        self.self_s[name] += (end - start) - child
        if self._stack:
            self._stack[-1][3] += end - start

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def _wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if count is not None:
                with self.span("trace"):
                    count(result, *args)
            return result
        return traced

    # --- counts read at the layer boundaries ---

    def _count_tokens(self, tokens, *_):
        self.counts["frontend.tokens"] += len(tokens)

    def _count_ast(self, parsed, *_):
        node, _diags = parsed
        if node is None:
            return
        # The parser numbers nodes in pre-order, so the last node has the top id.
        while children := node.children():
            node = children[-1]
        self.counts["frontend.ast_nodes"] += node.node_id + 1

    def _count_blocks(self, cfg, *_):
        self.counts["cfg.blocks"] += len(cfg.blocks)

    def _count_engine(self, result, *_):
        for graph in result.graphs.values():
            self.counts["engine.nodes"] += len(graph.nodes)
            self.counts["engine.leaves"] += len(graph.leaves())
            self.counts["engine.sinks"] += sum(1 for n in graph.nodes if n.is_sink)
        self.counts["engine.fns_budget_exhausted"] += sum(
            1 for note in result.notes if "node budget exhausted" in note)
        self.counts["reporting.reports"] += len(result.reports)
        self.counts["reporting.unique_reports"] += len(
            {(r.check_name, r.location.line, r.message) for r in result.reports})

    def _count_diags(self, diags, *_):
        self.counts["tidy.diags"] += len(diags)

    def _count_fixes(self, outcome, _text, diags):
        _fixed, warnings = outcome
        self.counts["diagnostics.fixits"] += sum(
            len(d.fixits) + sum(len(n.fixits) for n in d.attached_notes) for d in diags)
        self.counts["diagnostics.fix_conflicts"] += len(warnings)

    def _make_checkers(self, make):
        def traced_make(*args, **kwargs):
            made = make(*args, **kwargs)
            for checker in made:
                for hook in CHECKER_HOOKS:
                    method = getattr(checker, hook, None)
                    if method is not None:
                        setattr(checker, hook, self._wrap_hook(method))
            return made
        return traced_make

    def _wrap_hook(self, method):
        def traced(*args):
            self.counts["checkers.callbacks"] += 1
            self.enter("checkers")
            try:
                return method(*args)
            finally:
                self.leave()
        return traced

    # --- installing the wrappers ---

    @contextlib.contextmanager
    def installed(self):
        patches = [
            (cli, "load_unit", self._wrap("frontend", cli.load_unit)),
            (frontend, "tokenize",
             self._wrap("frontend.lex", frontend.tokenize, self._count_tokens)),
            (frontend, "parse",
             self._wrap("frontend.parse", frontend.parse, self._count_ast)),
            (frontend, "typecheck", self._wrap("frontend.typecheck", frontend.typecheck)),
            (engine, "build_cfg", self._wrap("cfg", engine.build_cfg, self._count_blocks)),
            (engine.Engine, "run",
             self._wrap("engine", engine.Engine.run, self._count_engine)),
            (checkers, "make_checkers", self._make_checkers(checkers.make_checkers)),
            (cli, "assemble_bug_path",
             self._wrap("reporting.bugpath", cli.assemble_bug_path)),
            (cli, "render_text", self._wrap("reporting.render", cli.render_text)),
            (cli, "run_checks", self._wrap("tidy", cli.run_checks, self._count_diags)),
            (cli, "apply_fixes",
             self._wrap("diagnostics", cli.apply_fixes, self._count_fixes)),
        ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # --- results ---

    def layer_seconds(self) -> dict[str, float]:
        return {metric: self.self_s.get(name, 0.0)
                for name, metric in SPAN_METRICS.items()}

    def count_values(self) -> dict[str, int]:
        return {name: self.counts.get(name, 0) for name in COUNT_METRICS}
