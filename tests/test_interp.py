"""Sanity checks for the concrete interpreter the other tests rely on."""

from conftest import frontend
from interp_oracle import Instance, observable, run_function


def test_arithmetic_and_return():
    fe = frontend("int f(int a, int b) { return a * 2 + b / 3; }")
    out = run_function(fe.unit, "f", (5, 7))
    assert out.ret == 12
    assert out.returned


def test_division_truncates_toward_zero():
    fe = frontend("int f(int a, int b) { return a / b; }")
    assert run_function(fe.unit, "f", (-7, 2)).ret == -3
    assert run_function(fe.unit, "f", (7, -2)).ret == -3


def test_branches_and_trace():
    fe = frontend("""\
int f(int a) {
  if (a < 0)
    return -1;
  if (a == 0)
    return 0;
  return 1;
}
""")
    assert run_function(fe.unit, "f", (-5,)).ret == -1
    assert run_function(fe.unit, "f", (0,)).ret == 0
    out = run_function(fe.unit, "f", (3,))
    assert out.ret == 1
    assert [truth for _, truth in out.branch_trace] == [False, False]


def test_while_loop_and_break():
    fe = frontend("""\
int f(int n) {
  int i = 0;
  while (i < n) {
    i = i + 1;
    if (i == 5)
      break;
  }
  return i;
}
""")
    assert run_function(fe.unit, "f", (3,)).ret == 3
    assert run_function(fe.unit, "f", (100,)).ret == 5


def test_reference_parameters_alias():
    fe = frontend("""\
void bump(int& r) { r = r + 1; }
int f() { int x = 1; bump(x); bump(x); return x; }
""")
    assert run_function(fe.unit, "f").ret == 3


def test_rvalues_bind_to_const_references_in_a_fresh_cell():
    fe = frontend("""\
extern void emit(const int& v);
int twice(const int& r) { return r + r; }
int one() { return 1; }
int f() { int x = 4; emit(one()); emit(x * 3); emit(x); return twice(one()) + twice(x - 1); }
""")
    out = run_function(fe.unit, "f")
    assert out.error is None and out.ret == 8
    assert out.extern_trace == [("emit", (1,)), ("emit", (12,)), ("emit", (4,))]


def test_short_circuit_skips_side_effect():
    fe = frontend("""\
int f(bool gate) {
  int v = 0;
  bool r = gate || ((v = 5), false);
  return v;
}
""", std=14)
    assert run_function(fe.unit, "f", (True,)).ret == 0
    assert run_function(fe.unit, "f", (False,)).ret == 5


def test_null_dereference_is_an_error():
    fe = frontend("""\
struct T { int x; };
extern T* mk();
int f() { T* p = mk(); return p->x; }
""")
    out = run_function(fe.unit, "f", externs={"mk": lambda a: None})
    assert out.error == "null dereference"
    ok = run_function(fe.unit, "f",
                      externs={"mk": lambda a: Instance("T", {"x": 4})})
    assert ok.ret == 4 and ok.error is None


def test_extern_trace_records_name_and_args():
    fe = frontend("""\
extern void emit(int v);
void f() { emit(1); emit(2 + 3); }
""")
    out = run_function(fe.unit, "f")
    assert out.extern_trace == [("emit", (1,)), ("emit", (5,))]


def test_string_methods_cover_the_table():
    fe = frontend("""\
int f() {
  string s;
  s.push_back(104);
  s.push_back(105);
  string t;
  t.push_back(33);
  s.append(t);
  s.insert(0, t);
  s.erase(0, 1);
  s.pop_back();
  if (s.empty())
    return -1;
  return s.size();
}
""")
    # "hi" -> "hi!" -> "!hi!" -> "hi!" -> "hi"
    assert run_function(fe.unit, "f").ret == 2


def test_observable_treats_fell_off_end_as_not_returned():
    fe = frontend("void f() { }")
    out = run_function(fe.unit, "f")
    assert not out.returned
    assert observable(out)[0] is False


def test_new_and_delete_lifecycle():
    fe = frontend("""\
struct T { int x; };
int f() {
  T* p = new T();
  p->x = 6;
  int v = p->x;
  delete p;
  return v;
}
""")
    assert run_function(fe.unit, "f").ret == 6


def test_use_after_delete_is_an_error():
    fe = frontend("""\
struct T { int x; };
int f() {
  T* p = new T();
  delete p;
  return p->x;
}
""")
    assert run_function(fe.unit, "f").error == "field access on deleted object"
