"""Shared fixtures: frontend/analysis helpers and the ported example files."""

from __future__ import annotations

import pytest

from minilang.checkers import make_checkers
from minilang.frontend import load_unit, walk
from minilang.symexec import AnalysisConfig, Engine


def frontend(source: str, name: str = "input.mc", std: int = 14):
    result = load_unit(name, source, std)
    assert result.ok, [f"{d.location}: {d.message}" for d in result.diagnostics]
    return result


def structure_signature(node):
    """Nested tuple capturing kind/child-order structure and scalar payloads:
    each declared slot that holds a str, int or bool, except `node_id`."""
    slots = sorted(name for cls in type(node).__mro__
                   for name in getattr(cls, "__slots__", ()) if name != "node_id")
    scalars = tuple((name, value) for name in slots
                    if isinstance(value := getattr(node, name, None), (str, int, bool)))
    return (node.kind, scalars, tuple(structure_signature(c) for c in node.children()))


def recursive_preorder(node) -> list:
    out = [node]
    for child in node.children():
        out += recursive_preorder(child)
    return out


def check_preorder_index(unit) -> None:
    """The parser's pre-order index, ids, parent links and subtree ends
    agree with a recursive walk of the tree."""
    order = recursive_preorder(unit)
    assert unit.preorder == order
    assert list(walk(unit)) == order
    assert [n.node_id for n in order] == list(range(len(order)))
    assert unit.parent is None
    for node in order:
        assert all(child.parent is node for child in node.children())
        if node is not unit:
            assert any(c is node for c in node.parent.children())
        assert unit.preorder[node.node_id + 1:node.last_id + 1] == recursive_preorder(node)[1:]


def analyze(source: str, name: str = "input.mc", std: int = 14,
            checkers=None, config: AnalysisConfig | None = None):
    fe = frontend(source, name, std)
    engine = Engine(fe.unit, config, make_checkers(checkers))
    return engine.run(), fe


@pytest.fixture
def mc(tmp_path):
    """Write a MiniLang source file into the test's temp dir."""

    def write(source: str, name: str = "input.mc") -> str:
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    return write


# Ports of the canonical example programs, reused across the suite.

USE_AFTER_CLEAR = """\
extern void consume(char* c);

char* useAfterClear() {
  string s;
  char* c = s.c_str();
  s.clear();
  return c;
}
"""

USE_AFTER_FREE = """\
struct Chunk { int size; };

Chunk* useAfterFree() {
  Chunk* s = new Chunk();
  Chunk* c = s;
  delete s;
  return c;
}
"""

REDUNDANT_PTR = """\
struct Something { int value; };
extern Something* function_call();
extern void print(int v);

void usage() {
  Something* p = function_call();
  int value = p->value;
  print(value);
}
"""

NULL_CHECK = """\
struct Something { int value; };
extern Something* function_call_that_might_return_null();
extern void print(int v);

void guarded() {
  Something* p = function_call_that_might_return_null();
  if (!p)
    return;

  int value_to_print = p->value;
  print(value_to_print);
}
"""

DIV_ZERO_PATHS = """\
void paths(int a) {
  int i;
  int j;
  if (a != 0)
    i = 0;
  else
    i = 1;
  if (a == 0)
    j = 5 / i;
  else
    j = 3 / i;
  j = j + 2 / i;
}
"""

# One division after a loop and three branches: many error paths, one defect.
LOOP_THEN_DIVISION = """\
extern bool g();
int f(int a, int b) {
  bool done = false;
  while (g())
    done = true;
  int x = 0;
  if (a > 0) x = 1;
  if (b > 0) x = x + 2;
  int z = 0;
  if (a > 5) z = 0;
  return x / 0;
}
"""

EXPLODED_G = """\
void g(int b, int& x) {
  if (b != 0)
    x = b + 1;
  else
    x = 42;
}
"""

DEREF_AFTER_CLEAR_VERIFY = """\
extern void consume(char* c);

void deref_after_clear() {
  char* c;
  string s;
  c = s.c_str(); // expected-note {{Pointer to inner buffer of 'string' obtained here}}
  s.clear();     // expected-note {{Inner buffer of 'string' reallocated by call to 'clear'}}
  consume(c);
  // expected-warning@-1 {{Inner pointer of container used after re/deallocation}}
  // expected-note@-2 {{Inner pointer of container used after re/deallocation}}
}
"""
