"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import functools
import io
import time

import pytest
from hypothesis import given, settings, strategies as st

import minilang.matchers as M
from minilang.cfg import build_cfg
from minilang.checkers import assemble_bug_path, make_checkers
from minilang.cli import parse_analyze_args, parse_tidy_args, run_analyze, run_tidy
from minilang.diagnostics import displayed
from minilang.frontend import load_unit, tokenize, walk
from minilang.reporting import render_text, verify_run
from minilang.source import SourceFile
from minilang.symexec import Engine

from conftest import (
    analyze, DEREF_AFTER_CLEAR_VERIFY, DIV_ZERO_PATHS, EXPLODED_G, frontend,
    NULL_CHECK, REDUNDANT_PTR, USE_AFTER_CLEAR, USE_AFTER_FREE, mc,  # noqa: F401
)
from engine_paths import leaf_decisions, leaf_witness
from interp_oracle import Instance, observable, run_function
from proggen import generate_function, GRID
from test_matchers import _LEAF_MATCHERS, _POOL, naive_eval


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number:2d}: FAIL — {description}")
                raise
            print(f"\n[acceptance] criterion {number:2d}: PASS — {description}")
            return result
        return wrapper
    return decorate


def rendered_analysis(source: str, name: str, checkers=None):
    result, fe = analyze(source, name=name, checkers=checkers)
    paths = [assemble_bug_path(report) for report in result.reports]
    return result, paths, render_text(fe.file, paths), fe


@criterion(1, "InnerPointer end-to-end on the use-after-clear port")
def test_criterion_1_inner_pointer_end_to_end():
    started = time.perf_counter()
    result, paths, text, _ = rendered_analysis(
        USE_AFTER_CLEAR, "uac.mc", checkers=["cplusplus.InnerPointer"])
    elapsed = time.perf_counter() - started
    warnings = [line for line in text.splitlines() if ": warning: " in line]
    assert warnings == ["uac.mc:7:3: warning: Inner pointer of container used "
                        "after re/deallocation [cplusplus.InnerPointer]"]
    notes = [line for line in text.splitlines() if ": note: " in line]
    assert ("uac.mc:5:13: note: Pointer to inner buffer of 'string' "
            "obtained here") in notes
    assert ("uac.mc:6:3: note: Inner buffer of 'string' reallocated by call "
            "to 'clear'") in notes
    assert len(result.reports) == 1
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "heap use-after-free on the new/delete port")
def test_criterion_2_heap_use_after_free():
    started = time.perf_counter()
    result, _, text, _ = rendered_analysis(USE_AFTER_FREE, "uaf.mc")
    elapsed = time.perf_counter() - started
    warnings = [line for line in text.splitlines() if ": warning: " in line]
    assert warnings == ["uaf.mc:7:3: warning: Use of memory after it is freed "
                        "[unix.MallocLite]"]
    assert len(result.reports) == 1
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


_MATRIX_TEMPLATE = """\
extern void consume(char* c);
void probe() {{
  string s;
  string t;
  char* c = s.c_str();
  {interfere}
  consume(c);
}}
"""

_INVALIDATING = {
    "append": "s.append(t);", "assign": "s.assign(t);", "clear": "s.clear();",
    "erase": "s.erase(0, 1);", "insert": "s.insert(0, t);",
    "pop_back": "s.pop_back();", "push_back": "s.push_back(97);",
    "replace": "s.replace(0, 1, t);", "reserve": "s.reserve(10);",
    "resize": "s.resize(5);", "shrink_to_fit": "s.shrink_to_fit();",
    "swap": "s.swap(t);", "operator=": "s = t;", "operator+=": "s += t;",
}

_DTOR_PROGRAM = """\
extern void consume(char* c);
void probe() {
  char* c;
  {
    string s;
    c = s.c_str();
  }
  consume(c);
}
"""

_WHITELIST = {
    "c_str": "s.c_str();", "data": "s.data();", "size": "s.size();",
    "empty": "s.empty();", "at": "s.at(0);", "front": "s.front();",
    "back": "s.back();",
}


@criterion(3, "invalidation matrix: 15 invalidating + 7 whitelist, 22/22")
def test_criterion_3_invalidation_matrix():
    outcomes = {}
    for name, stmt in _INVALIDATING.items():
        result, _ = analyze(_MATRIX_TEMPLATE.format(interfere=stmt))
        outcomes[name] = len(result.reports)
    result, _ = analyze(_DTOR_PROGRAM)
    outcomes["destructor"] = len(result.reports)
    for name, stmt in _WHITELIST.items():
        result, _ = analyze(_MATRIX_TEMPLATE.format(interfere=stmt))
        outcomes[f"whitelist:{name}"] = len(result.reports)
    failures = {
        name: count for name, count in outcomes.items()
        if count != (0 if name.startswith("whitelist:") else 1)
    }
    assert not failures, failures
    assert len(outcomes) == 22


def _norm_tokens(source: str):
    return tokenize(SourceFile("golden.mc", source)).spellings


@criterion(4, "single-use redundant pointer: --fix inlines the initializer")
def test_criterion_4_single_use_fix(mc):
    path = mc(REDUNDANT_PTR, "single.mc")
    config = parse_tidy_args([path, "--checks=readability-redundant-pointer",
                              "--fix"])
    assert run_tidy(config, io.StringIO(), io.StringIO()) == 1  # findings existed
    fixed = open(path).read()
    golden = """\
struct Something { int value; };
extern Something* function_call();
extern void print(int v);

void usage() {
  int value = (function_call())->value;
  print(value);
}
"""
    assert _norm_tokens(fixed) == _norm_tokens(golden)
    refe = load_unit("fixed.mc", fixed)
    assert refe.ok  # re-parses
    assert run_tidy(parse_tidy_args([path]), io.StringIO(),
                io.StringIO()) == 0  # re-analysis: zero findings


@criterion(5, "guarded rewrite: three-fix set under std 17, silent under 14")
def test_criterion_5_guarded_rewrite(mc):
    from minilang.tidy import make_checks, run_checks

    fe = frontend(NULL_CHECK, "guarded.mc", std=17)
    diags = run_checks(fe.unit, fe.file,
                       make_checks(None, fe.file, 17, fe.unit.structs))
    all_diags = list(diags) + [n for d in diags for n in d.attached_notes]
    with_fixes = [d for d in all_diags if d.fixits]
    assert len(with_fixes) == 3
    path = mc(NULL_CHECK, "guarded.mc")
    assert run_tidy(parse_tidy_args([path, "--std=17", "--fix"]),
                io.StringIO(), io.StringIO()) == 1
    fixed = open(path).read()
    golden = """\
struct Something { int value; };
extern Something* function_call_that_might_return_null();
extern void print(int v);

void guarded() {
  int value_to_print;
  if (Something* p = function_call_that_might_return_null(); (!p) || ((value_to_print = p->value), false))
    return;

  print(value_to_print);
}
"""
    assert _norm_tokens(fixed) == _norm_tokens(golden)
    assert load_unit("fixed.mc", fixed, std=17).ok
    # under std 14 the guarded case emits nothing
    fe14 = frontend(NULL_CHECK, "guarded14.mc", std=14)
    diags14 = run_checks(fe14.unit, fe14.file,
                         make_checks(None, fe14.file, 14, fe14.unit.structs))
    assert diags14 == []


@criterion(6, "truth-table semantics: original vs rewritten agree, 4/4 cells")
def test_criterion_6_truth_table(mc):
    path = mc(NULL_CHECK, "tt.mc")
    run_tidy(parse_tidy_args([path, "--std=17", "--fix"]),
         io.StringIO(), io.StringIO())
    rewritten_src = open(path).read()
    original = load_unit("orig.mc", NULL_CHECK, std=17)
    rewritten = load_unit("rewritten.mc", rewritten_src, std=17)
    assert original.ok and rewritten.ok
    cells = 0
    for stub in (lambda a: None,
                 lambda a: Instance("Something", {"value": 23})):
        externs = {"function_call_that_might_return_null": stub}
        before = run_function(original.unit, "guarded", externs=externs)
        after = run_function(rewritten.unit, "guarded", externs=externs)
        assert before.error is None and after.error is None
        # cell pair one: the guard return is taken identically
        assert before.returned == after.returned
        cells += 1
        # cell pair two: the observable results agree
        assert observable(before) == observable(after)
        cells += 1
    assert cells == 4


@criterion(7, "exploded graph leaves match the two-path figure")
def test_criterion_7_exploded_graph_fidelity(mc, tmp_path):
    path = mc(EXPLODED_G, "g.mc")
    dot_path = tmp_path / "g.dot"
    config = parse_analyze_args([path, f"--dump-egraph={dot_path}"])
    assert run_analyze(config, io.StringIO(), io.StringIO()) == 0
    dot = dot_path.read_text()
    # structural read-back: nodes with no outgoing edge are the leaves
    import re
    labels = dict(re.findall(r'(n\d+) \[label="(.*)"\];', dot))
    sources = set(re.findall(r"(n\d+) -> n\d+;", dot))
    leaves = [label for node, label in labels.items() if node not in sources]
    assert len(leaves) == 2
    concrete = [l for l in leaves if "x: 42" in l]
    symbolic = [l for l in leaves if "x: $b+1" in l]
    assert len(concrete) == 1 and len(symbolic) == 1
    assert "$b : [0, 0]" in concrete[0]
    assert "$b : [IMIN, -1] ∪ [1, IMAX]" in symbolic[0]


@criterion(8, "path-sensitive DivZero: one report, at 3 / i only")
def test_criterion_8_path_sensitive_divzero():
    result, fe = analyze(DIV_ZERO_PATHS, name="div.mc")
    assert len(result.reports) == 1
    report = result.reports[0]
    line = fe.file.line_text(report.location.line)
    assert "3 / i" in line and "5 / i" not in line
    # manual enumeration of the two feasible paths, via the interpreter:
    # a != 0 takes i = 0 and then the 3 / i branch (division by zero);
    # a == 0 takes i = 1 everywhere and divides safely.
    erroneous = run_function(fe.unit, "paths", (1,))
    assert erroneous.error == "division by zero"
    clean = run_function(fe.unit, "paths", (0,))
    assert clean.error is None


@criterion(9, "verify harness: port passes; any single mutation = 1 mismatch")
def test_criterion_9_verify_harness(mc):
    def verify_outcome(source: str, name: str):
        _, paths, _, fe = rendered_analysis(source, name)
        return verify_run(fe.file, fe.comments,
                          displayed(paths, duplicate_warning_note=True))

    baseline = verify_outcome(DEREF_AFTER_CLEAR_VERIFY, "v.mc")
    assert baseline.passed, baseline.mismatches

    mutations = []
    lines = DEREF_AFTER_CLEAR_VERIFY.splitlines()
    for i, line in enumerate(lines):
        if "expected-" not in line:
            continue
        # text mutation: damage the directive's message
        mutated = list(lines)
        mutated[i] = line.replace("Inner", "Outer").replace("Pointer", "Handle")
        mutations.append("\n".join(mutated) + "\n")
        # offset mutation: retarget the directive one line off
        if "@-" in line:
            shifted = line.replace("@-1", "@-2").replace("@-2", "@-3")
        else:
            shifted = line.replace("expected-note ", "expected-note@+1 ")
        mutated = list(lines)
        mutated[i] = shifted
        mutations.append("\n".join(mutated) + "\n")

    assert len(mutations) == 8  # four directives, two mutations each
    for idx, source in enumerate(mutations):
        outcome = verify_outcome(source, f"v{idx}.mc")
        assert not outcome.passed, f"mutation {idx} unexpectedly passed"
        assert len(outcome.mismatches) == 1, (idx, outcome.mismatches)


@criterion(10, "engine soundness: 100 random functions, witnesses replay")
def test_criterion_10_engine_soundness():
    started = time.perf_counter()
    grid = range(-GRID, GRID + 1)
    for seed in range(100):
        source = generate_function(seed)
        fe = load_unit(f"gen{seed}.mc", source)
        assert fe.ok, (seed, [d.message for d in fe.diagnostics])
        fn = fe.unit.functions["probe"]
        cfg = build_cfg(fn)
        engine = Engine(fe.unit, checkers=make_checkers())
        graph = engine.run().graphs["probe"]
        leaves = graph.leaves()
        # soundness: each leaf's witness replays to the same branch decisions
        leaf_traces = set()
        for leaf in leaves:
            decisions = leaf_decisions(leaf, cfg)
            witness = leaf_witness(leaf, ["a", "b"])
            replay = run_function(fe.unit, "probe", (witness["a"], witness["b"]))
            assert replay.error is None, (seed, witness, replay.error)
            assert replay.branch_trace == decisions, (seed, witness)
            leaf_traces.add(tuple(decisions))
        assert len(leaf_traces) == len(leaves), (seed, "duplicate leaf traces")
        # completeness: grid enumeration finds exactly the same path set
        enumerated = set()
        for a in grid:
            for b in grid:
                out = run_function(fe.unit, "probe", (a, b))
                assert out.error is None
                enumerated.add(tuple(out.branch_trace))
        assert leaf_traces == enumerated, (seed, leaf_traces ^ enumerated)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(11, "matcher algebra: 1000+ randomized cases vs the naive oracle")
def test_criterion_11_matcher_algebra():
    cases = 0
    discrepancies = []

    leaf = st.sampled_from(range(len(_LEAF_MATCHERS))).map(
        lambda i: _LEAF_MATCHERS[i])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: M.anyOf(*t)),
            st.tuples(children, children).map(lambda t: M.allOf(*t)),
            children.map(M.unless),
            children.map(M.hasDescendant),
        )

    strategy = st.recursive(leaf, extend, max_leaves=4)

    @given(st.sampled_from(range(len(_POOL))), strategy, strategy)
    @settings(max_examples=1000, deadline=None)
    def run_case(pool_index, m1, m2):
        nonlocal cases
        cases += 1
        tree = _POOL[pool_index]
        nodes = list(walk(tree))
        roots1 = {r.root for r in M.match(m1, tree)}
        roots2 = {r.root for r in M.match(m2, tree)}
        union = {r.root for r in M.match(M.anyOf(m1, m2), tree)}
        inter = {r.root for r in M.match(M.allOf(m1, m2), tree)}
        comp = {r.root for r in M.match(M.unless(m1), tree)}
        naive = {n for n in nodes if naive_eval(m1, n)}
        if roots1 != naive or union != roots1 | roots2 \
                or inter != roots1 & roots2 or comp != set(nodes) - roots1:
            discrepancies.append((m1, m2))

    run_case()
    assert cases >= 1000, cases
    assert discrepancies == []
