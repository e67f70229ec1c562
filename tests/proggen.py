"""Random loop-free, extern-free MiniLang function generator.

The generated shape is deliberately narrow so both oracles are exact:
conditions compare a variable against a small constant, assignments are
variable +/- constant chains, and every feasible path has a witness with
both parameters in [-GRID, GRID]. With `bool_locals`, each `if` tests its
comparison through a `bool` local, alternately `bool c = COND; if (c)` and
`bool c = !(COND); if (!c)`; the random choices, and so the paths, are
those of the same seed without it.
"""

from __future__ import annotations

import random

GRID = 14  # witness box half-width: covers every |breakpoint| <= 13
_CONSTS = range(-6, 7)
_CMPS = ("==", "!=", "<", "<=", ">", ">=")


class _Gen:
    def __init__(self, rng: random.Random, max_branches: int, bool_locals: bool):
        self.rng = rng
        self.vars = ["a", "b"]
        self.local_counter = 0
        self.branches_left = max_branches
        self.bool_locals = bool_locals
        self.bool_counter = 0

    def simple_expr(self) -> str:
        # values derive from parameters with one constant offset at most, so
        # every path constraint is param ⋈ c with |c| <= 12 and the grid
        # enumeration over [-GRID, GRID]² is a complete path oracle
        rng = self.rng
        choice = rng.random()
        if choice < 0.2:
            return str(rng.choice(_CONSTS))
        var = rng.choice(["a", "b"])
        if choice < 0.55:
            return var
        delta = rng.choice([c for c in _CONSTS if c != 0])
        return f"{var} + {delta}" if delta > 0 else f"{var} - {-delta}"

    def condition(self) -> str:
        return (f"{self.rng.choice(self.vars)} {self.rng.choice(_CMPS)} "
                f"{self.rng.choice(_CONSTS)}")

    def statements(self, depth: int, budget: int) -> list[str]:
        rng = self.rng
        out: list[str] = []
        for _ in range(rng.randint(1, budget)):
            roll = rng.random()
            locals_ = [v for v in self.vars if v.startswith("v")]
            if roll < 0.35 and self.branches_left > 0 and depth < 3:
                self.branches_left -= 1
                cond = self.condition()
                if self.bool_locals:
                    self.bool_counter += 1
                    name = f"c{self.bool_counter}"
                    negated = self.bool_counter % 2 == 0
                    out.append(f"{'  ' * depth}bool {name} = "
                               + (f"!({cond});" if negated else f"{cond};"))
                    cond = f"!{name}" if negated else name
                then_body = self.indent(self.statements(depth + 1, 2), depth + 1)
                if rng.random() < 0.5:
                    else_body = self.indent(self.statements(depth + 1, 2), depth + 1)
                    out.append(f"{'  ' * depth}if ({cond}) {{\n{then_body}\n"
                               f"{'  ' * depth}}} else {{\n{else_body}\n"
                               f"{'  ' * depth}}}")
                else:
                    out.append(f"{'  ' * depth}if ({cond}) {{\n{then_body}\n"
                               f"{'  ' * depth}}}")
            elif (roll < 0.6 or not locals_) and self.local_counter < 2 and depth == 0:
                # locals only at function scope, so later conditions stay legal
                self.local_counter += 1
                name = f"v{self.local_counter}"
                out.append(f"{'  ' * depth}int {name} = {self.simple_expr()};")
                self.vars.append(name)
            elif locals_:
                # parameters stay read-only: their symbols (and so the path
                # constraints on them) survive to every leaf
                out.append(f"{'  ' * depth}{rng.choice(locals_)} = "
                           f"{self.simple_expr()};")
            else:
                out.append(f"{'  ' * depth}{rng.choice(self.vars)} + 1;")
        return out

    @staticmethod
    def indent(stmts: list[str], depth: int) -> str:
        return "\n".join("  " + s for s in stmts)


def generate_function(seed: int, max_branches: int = 4,
                      bool_locals: bool = False) -> str:
    """One random `void probe(int a, int b)` body."""
    rng = random.Random(seed)
    gen = _Gen(rng, max_branches, bool_locals)
    body = "\n".join("  " + line for line in gen.statements(0, 5))
    return f"void probe(int a, int b) {{\n{body}\n}}\n"
