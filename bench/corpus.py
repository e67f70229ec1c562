"""Seeded MiniLang corpora for the benchmark, with their expected results.

Every file comes from templates that also say what the tools must report:
the set of (line, check name, message) warnings and, for `tidy-fix`, the
rewritten text that `mini-tidy --fix --std=17` must produce. Nothing here is
recorded from a run of the tools.

File sizes follow a fixed long-tailed schedule (stratified quantiles of a
Pareto distribution), so every seed spreads its work over files the same
way; the seed picks the order of files, the mix of blocks inside each file,
the branch thresholds and where the planted defects sit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CHECK_DIV = "core.DivideZero"
CHECK_MALLOC = "unix.MallocLite"
CHECK_INNER = "cplusplus.InnerPointer"
CHECK_TIDY = "readability-redundant-pointer"

MSG_DIV = "Division by zero"
MSG_FREED = "Use of memory after it is freed"
MSG_INNER = "Inner pointer of container used after re/deallocation"
MSG_SINGLE = "redundant pointer variable with only one usage"
MSG_DECLARED = "redundant pointer variable declared"
MSG_REWRITE = "rewrite the conditional to C++17 initialise the pointer"

PRELUDE = (
    "struct S { int v; };",
    "extern S* mk();",
    "extern void use(int v);",
    "extern void consume(char* c);",
)


@dataclass(frozen=True)
class Case:
    """One generated input file and what the tool must do with it."""

    name: str
    text: str
    expected: frozenset  # {(line, check name, message)}
    exit_code: int
    fixed: str | None = None  # golden `--fix` output, tidy-fix only


def long_tail(count: int, low: int, high: int, alpha: float) -> list[int]:
    """`count` sizes at the stratified quantiles of a Pareto(alpha) law that
    starts at `low`, capped at `high`."""
    sizes = []
    for i in range(count):
        q = (i + 0.5) / count
        sizes.append(min(high, int(low * (1.0 - q) ** (-1.0 / alpha))))
    return sizes


class _Text:
    """Source lines plus the warnings planted on them (1-based lines)."""

    def __init__(self, lines=PRELUDE):
        self.lines = list(lines)
        self.expected: set = set()

    def add(self, line: str, *warnings: tuple[str, str]) -> int:
        self.lines.append(line)
        number = len(self.lines)
        for check, message in warnings:
            self.expected.add((number, check, message))
        return number

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# --- analyze-deep -------------------------------------------------------------

def _deep_file(rng: random.Random, blocks: int) -> _Text:
    """One long function: guard blocks and inner-pointer blocks that keep
    their locals in scope, so the program state grows block after block.
    Each inner-pointer block forks on `a` and returns on one side, so the
    path count stays linear; three defects sit right before the end."""
    out = _Text()
    out.add("void deep(int a) {")
    # Blocks come in pairs, one of each kind in seeded order: a return path
    # runs a destructor for every string in scope, so a free shuffle would
    # make a file's cost depend on the seed as much as on its size.
    kinds = []
    for _ in range(blocks // 2):
        kinds += rng.sample(("guard", "buffer"), 2)
    kinds += ["buffer"] * (blocks % 2)
    hi = 1000  # upper bound on `a` along the one path that reaches the end
    for i, kind in enumerate(kinds):
        if kind == "guard":
            out.add(f"  S* p{i} = mk(); if (!p{i}) return; use(p{i}->v);")
        else:
            hi -= rng.randrange(1, 9)
            out.add(f"  string s{i}; char* c{i} = s{i}.c_str(); "
                    f'if (a > {hi}) {{ s{i}.append("x"); return; }} consume(c{i});')
    defects = ["inner", "div", "free"]
    rng.shuffle(defects)
    for kind in defects:
        if kind == "inner":  # reported where a > hi, the path with a <= hi goes on
            hi -= 2
            out.add(f'  string sx; char* cx = sx.c_str(); if (a > {hi}) sx.append("x"); '
                    "consume(cx);", (CHECK_INNER, MSG_INNER))
        elif kind == "div":  # reported where a > hi, the path with a <= hi goes on
            hi -= 2
            out.add(f"  int zx = 0; if (a <= {hi}) zx = 1; use(10 / zx);",
                    (CHECK_DIV, MSG_DIV))
        else:  # reported where a < hi - 30, the other path goes on
            out.add(f"  if (a < {hi - 30}) {{ S* dx = new S(); delete dx; use(dx->v); }}",
                    (CHECK_MALLOC, MSG_FREED))
    out.add("}")
    return out


def analyze_deep(seed: int) -> list[Case]:
    rng = random.Random(f"analyze-deep:{seed}")
    sizes = long_tail(44, 12, 48, 2.2)
    rng.shuffle(sizes)
    cases = []
    for i, blocks in enumerate(sizes):
        body = _deep_file(rng, blocks)
        cases.append(Case(f"deep_{i:03d}.mc", body.text(),
                          frozenset(body.expected), 1))
    return cases


# --- analyze-wide -------------------------------------------------------------

def _wide_function(out: _Text, rng: random.Random, i: int, kind: int) -> None:
    """A small branchy function with one planted defect of the given kind."""
    k = rng.randrange(-20, 20)
    extra = [f"  if (a < {k - rng.randrange(1, 9)}) use(a);",
             f"  if (a > {k + rng.randrange(1, 9)}) use({rng.randrange(100)});"]
    rng.shuffle(extra)
    # One extra branch or two, by turns for each kind: an extra branch
    # doubles the function's paths, so a seeded count would make a file's
    # cost depend on the seed as much as on its size.
    extra = extra[:1 + (i // 4) % 2]
    if kind == 0:  # division by zero on one branch
        out.add(f"int f{i}(int a, int b) {{")
        out.add("  int x = 1;")
        out.add(f"  if (a > {k}) x = x + 2;")
        out.add(f"  if (b < {rng.randrange(-20, 20)}) x = x - 1;")
        for line in extra:
            out.add(line)
        out.add("  return 100 / x;", (CHECK_DIV, MSG_DIV))
    elif kind == 1:  # use after delete
        out.add(f"void f{i}(int a) {{")
        out.add("  S* p = new S();")
        out.add("  p->v = a;")
        out.add(f"  if (a > {k}) use(p->v);")
        for line in extra:
            out.add(line)
        out.add("  delete p;")
        out.add("  use(p->v);", (CHECK_MALLOC, MSG_FREED))
    elif kind == 2:  # inner pointer used after clear on one branch
        out.add(f"void f{i}(int a) {{")
        out.add("  string s;")
        out.add("  char* c = s.c_str();")
        out.add(f"  if (a > {k}) s.clear();")
        for line in extra:
            out.add(line)
        out.add("  consume(c);", (CHECK_INNER, MSG_INNER))
    else:  # helper that divides by its argument, inlined with 0
        out.add(f"int h{i}(int v) {{")
        out.add("  int r = 100 / v;", (CHECK_DIV, MSG_DIV))
        out.add("  return r;")
        out.add("}")
        out.add(f"void f{i}(int a) {{")
        for line in extra:
            out.add(line)
        out.add(f"  use(h{i}(0));")
    out.add("}")


def analyze_wide(seed: int) -> list[Case]:
    rng = random.Random(f"analyze-wide:{seed}")
    sizes = long_tail(56, 8, 80, 1.7)
    rng.shuffle(sizes)
    cases = []
    for i, functions in enumerate(sizes):
        out = _Text()
        first = rng.randrange(4)
        for j in range(functions):
            _wide_function(out, rng, j, (first + j) % 4)
        cases.append(Case(f"wide_{i:03d}.mc", out.text(),
                          frozenset(out.expected), 1))
    return cases


# --- tidy-fix -----------------------------------------------------------------

def _tidy_function(src: _Text, fixed: list[str], rng: random.Random, i: int,
                   kind: str) -> None:
    """Append one function to the source and its golden rewrite to `fixed`."""
    p, v = f"p{i}", f"v{i}"
    tail = [f"  use({rng.randrange(100)});" for _ in range(rng.randrange(3))]
    lines: list[tuple[str, str | None, tuple]] = []  # (source, fixed or None, warnings)

    def keep(line, *warnings):
        lines.append((line, line, warnings))

    if kind == "init":  # single use as a dereferencing initializer
        keep(f"void u{i}() {{")
        lines.append((f"  S* {p} = mk();", None, ((CHECK_TIDY, MSG_SINGLE),)))
        lines.append((f"  int {v} = {p}->v;", f"  int {v} = (mk())->v;", ()))
        keep(f"  use({v});")
    elif kind == "deref":  # single plain dereference
        keep(f"void d{i}() {{")
        lines.append((f"  S* {p} = mk();", None, ((CHECK_TIDY, MSG_SINGLE),)))
        lines.append((f"  use({p}->v);", "  use((mk())->v);", ()))
    elif kind == "guard":  # null guard then dereference: the C++17 rewrite
        keep(f"void g{i}() {{")
        lines.append((f"  S* {p} = mk();", f"  int {v};", ((CHECK_TIDY, MSG_DECLARED),)))
        lines.append((f"  if (!{p})",
                      f"  if (S* {p} = mk(); (!{p}) || (({v} = {p}->v), false))",
                      ((CHECK_TIDY, MSG_REWRITE),)))
        keep("    return;")
        lines.append((f"  int {v} = {p}->v;", None, ()))
        keep(f"  use({v});")
    elif kind == "chain":  # two single uses whose fixes overlap: one is skipped
        q = f"q{i}"
        keep(f"void c{i}() {{")
        lines.append((f"  S* {p} = mk();", None, ((CHECK_TIDY, MSG_SINGLE),)))
        lines.append((f"  S* {q} = {p};", f"  S* {q} = (mk());", ((CHECK_TIDY, MSG_SINGLE),)))
        keep(f"  use({q}->v);")
    elif kind == "thrice":  # near miss: three uses
        keep(f"void n{i}() {{")
        keep(f"  S* {p} = mk();")
        for _ in range(3):
            keep(f"  use({p}->v);")
    elif kind == "twice":  # near miss: two plain uses
        keep(f"void t{i}() {{")
        keep(f"  S* {p} = mk();")
        keep(f"  use({p}->v);")
        keep(f"  use({p}->v + 1);")
    else:  # near miss: the guard has an else branch
        keep(f"void e{i}() {{")
        keep(f"  S* {p} = mk();")
        keep(f"  if (!{p})")
        keep("    return;")
        keep("  else")
        keep("    use(1);")
        keep(f"  int {v} = {p}->v;")
        keep(f"  use({v});")
    for line in tail:
        keep(line)
    keep("}")
    for line, rewritten, warnings in lines:
        src.add(line, *warnings)
        if rewritten is not None:
            fixed.append(rewritten)


TIDY_KINDS = ("init", "deref", "guard", "chain", "thrice", "twice", "else")


def tidy_fix(seed: int) -> list[Case]:
    rng = random.Random(f"tidy-fix:{seed}")
    sizes = long_tail(96, 8, 300, 1.4)
    rng.shuffle(sizes)
    cases = []
    for i, functions in enumerate(sizes):
        src = _Text()
        fixed = list(PRELUDE)
        kinds = [TIDY_KINDS[j % len(TIDY_KINDS)] for j in range(functions)]
        rng.shuffle(kinds)
        for j, kind in enumerate(kinds):
            _tidy_function(src, fixed, rng, j, kind)
        cases.append(Case(f"tidy_{i:03d}.mc", src.text(),
                          frozenset(src.expected), 1 if src.expected else 0,
                          "\n".join(fixed) + "\n"))
    return cases


WORKLOADS = {
    "analyze-deep": analyze_deep,
    "analyze-wide": analyze_wide,
    "tidy-fix": tidy_fix,
}
