"""Matcher construction and misuse, matching semantics, the set-algebra
properties, the pre-order node index with the kind filter that matching runs
on, and the order in which `run_checks` calls checks back."""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import minilang.matchers as M
from minilang.frontend import walk
from minilang.frontend.astnodes import DeclRef, FunctionDecl, IfStmt, VarDecl
from minilang.source import SourceFile
from minilang.tidy import RedundantPointerCheck, run_checks, TidyCheck

from conftest import check_preorder_index, frontend, recursive_preorder


@pytest.fixture(scope="module")
def guard_unit():
    return frontend("""
struct T { int x; };
extern T* make();
extern noreturn void die();

void f() {
  T* p = make();
  if (!p)
    return;
  int v = p->x;
  int q = 3;
}

void g() {
  T* w = make();
  if (!w) { die(); }
  int u = w->x;
}
""").unit


POINTER_VAR = M.varDecl(M.hasType(M.pointerType()), M.hasInitializer(M.expr()))
VAR_USAGE = M.declRefExpr(M.to(POINTER_VAR))


# --- construction -------------------------------------------------------------

def test_matchers_are_reusable_values(guard_unit):
    m = M.varDecl(M.hasName("p"))
    assert len(M.match(m, guard_unit)) == 1
    assert len(M.match(m, guard_unit)) == 1  # same matcher again
    bound = m.bind("x")
    assert bound is not m and m.binding is None


def test_binding_a_bound_matcher_is_an_error():
    with pytest.raises(M.MatcherConfigError):
        M.varDecl().bind("x").bind("y")
    with pytest.raises(M.MatcherConfigError):
        M.anyOf(M.varDecl(), M.expr()).bind("x").bind("x")


def test_has_type_takes_only_type_matchers():
    with pytest.raises(M.MatcherConfigError):
        M.hasType(M.varDecl())
    with pytest.raises(M.MatcherConfigError):
        M.hasType(M.hasName("p"))


def test_type_matcher_used_as_node_matcher_is_an_error(guard_unit):
    with pytest.raises(M.MatcherConfigError):
        M.match(M.pointerType(), guard_unit)
    with pytest.raises(M.MatcherConfigError):
        M.match(M.varDecl(M.namedType("T")), guard_unit)


# --- matching ------------------------------------------------------------------

def test_var_decl_by_name(guard_unit):
    fe = frontend("void f() { int x = 0; int y = 1; }")
    assert len(M.match(M.varDecl(M.hasName("x")), fe.unit)) == 1


def test_all_of_with_one_operand_behaves_as_operand(guard_unit):
    plain = M.match(M.varDecl(), guard_unit)
    wrapped = M.match(M.allOf(M.varDecl()), guard_unit)
    assert [r.root for r in plain] == [r.root for r in wrapped]


def test_unless_stmt_matches_nothing_under_a_function_body(guard_unit):
    body = guard_unit.functions["f"].body
    assert M.match(M.unless(M.stmt()), body) == []


def test_results_in_preorder(guard_unit):
    results = M.match(M.declRefExpr(), guard_unit)
    ids = [r.root.node_id for r in results]
    assert ids == sorted(ids)


def test_has_descendant_count_matches_naive_traversal(guard_unit):
    fn = guard_unit.functions["f"]
    matcher = M.hasDescendant(M.declRefExpr())
    got = {r.root for r in M.match(matcher, fn)}
    expected = {
        node for node in walk(fn)
        if any(isinstance(d, DeclRef)
               for c in node.children() for d in walk(c))
    }
    assert got == expected


def test_has_parent_matches_immediate_parent_only(guard_unit):
    results = M.match(M.declRefExpr(M.hasParent(M.unaryOperator())), guard_unit)
    assert all(r.root.parent.kind in ("UnaryOp", "AddressOf") for r in results)
    assert results  # the !p and !w conditions provide them


def test_guard_matcher_binds_all_three_labels(guard_unit):
    flow = M.stmt(M.anyOf(
        M.returnStmt(), M.continueStmt(), M.breakStmt(),
        M.has(M.callExpr(M.callee(M.functionDecl(M.isNoReturn())))),
    )).bind("EarlyReturn")
    deref = M.stmt(M.anyOf(
        M.memberExpr(M.hasDescendant(VAR_USAGE.bind("DerefdVar"))).bind("DerefUsage"),
        M.unaryOperator(M.hasOperatorName("*"),
                        M.hasDescendant(VAR_USAGE.bind("DerefdVar"))).bind("DerefUsage"),
    ))
    guard = M.ifStmt(
        M.hasCondition(M.allOf(M.hasDescendant(VAR_USAGE.bind("UsedVar")),
                               M.unless(M.hasDescendant(deref)))),
        M.hasThen(M.anyOf(flow, M.compoundStmt(M.statementCountIs(1),
                                               M.hasAnySubstatement(flow)))),
        M.unless(M.hasElse(M.stmt())),
    ).bind("GuardStmt")
    results = M.match(guard, guard_unit)
    assert len(results) == 2  # plain return guard and the noreturn-call guard
    for result in results:
        assert M.getBound(result, "GuardStmt", IfStmt) is not None
        assert M.getBound(result, "UsedVar", DeclRef) is not None
        assert M.getBound(result, "EarlyReturn", M.Node) is not None


def test_get_bound_kind_mismatch_gives_none(guard_unit):
    results = M.match(M.varDecl(M.hasName("p")).bind("decl"), guard_unit)
    assert M.getBound(results[0], "decl", VarDecl) is not None
    assert M.getBound(results[0], "decl", IfStmt) is None
    assert M.getBound(results[0], "missing", VarDecl) is None


def test_bind_puts_root_into_bound_nodes(guard_unit):
    for result in M.match(M.varDecl().bind("v"), guard_unit):
        assert result.bound["v"] is result.root


def test_any_of_first_matching_branch_contributes_bindings(guard_unit):
    m = M.anyOf(M.varDecl().bind("first"), M.varDecl().bind("second"))
    for result in M.match(m, guard_unit):
        assert "first" in result.bound and "second" not in result.bound


# --- the algebra property suite ---------------------------------------------------

_POOL_SOURCES = [
    """
struct P { int v; };
extern P* mk();
void a() {
  P* p = mk();
  if (!p)
    return;
  int x = p->v;
  while (x < 3) { x = x + 1; }
}
""",
    """
void b(int n, bool flag) {
  int total = 0;
  if (flag) { total = n; } else { total = n + 1; }
  if (total == 0)
    return;
}
""",
    """
extern void sink(int v);
void c() {
  string s;
  char* t = s.c_str();
  s.clear();
  sink(1 / 2);
}
""",
]

_POOL = [frontend(src, f"pool{i}.mc").unit for i, src in enumerate(_POOL_SOURCES)]

_LEAF_MATCHERS = [
    M.stmt(), M.expr(), M.varDecl(), M.declRefExpr(), M.memberExpr(),
    M.methodCallExpr(), M.unaryOperator(), M.binaryOperator(), M.callExpr(),
    M.ifStmt(), M.returnStmt(), M.compoundStmt(),
    M.varDecl(M.hasType(M.pointerType())), M.varDecl(M.hasInitializer(M.expr())),
    M.unaryOperator(M.hasOperatorName("!")), M.declRefExpr(M.to(M.varDecl())),
    M.stmt(M.has(M.expr())), M.expr(M.hasParent(M.stmt())),
    M.stmt(M.hasDescendant(M.declRefExpr())),
]


def matcher_strategy():
    leaf = st.sampled_from(range(len(_LEAF_MATCHERS))).map(lambda i: _LEAF_MATCHERS[i])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: M.anyOf(*t)),
            st.tuples(children, children).map(lambda t: M.allOf(*t)),
            children.map(M.unless),
            children.map(M.has),
            children.map(M.hasDescendant),
        )

    return st.recursive(leaf, extend, max_leaves=4)


def naive_eval(matcher: M.Matcher, node) -> bool:
    """Independent predicate evaluator: no binding logic, no dedup, just the
    set semantics, written directly against the node structure."""
    kind = matcher.kind
    if kind == "anyOf":
        return any(naive_eval(a, node) for a in matcher.args)
    if kind == "allOf":
        return all(naive_eval(a, node) for a in matcher.args)
    if kind == "unless":
        return not naive_eval(matcher.args[0], node)
    if kind == "has":
        return any(naive_eval(matcher.args[0], c) for c in node.children())
    if kind == "hasDescendant":
        stack = list(node.children())
        while stack:
            cur = stack.pop()
            if naive_eval(matcher.args[0], cur):
                return True
            stack.extend(cur.children())
        return False
    if kind == "hasParent":
        return node.parent is not None and naive_eval(matcher.args[0], node.parent)
    # remaining leaves delegate to single-node evaluation without traversal
    return M.matches(matcher, node)


@given(st.sampled_from(range(len(_POOL))), matcher_strategy(), matcher_strategy())
@settings(max_examples=300, deadline=None)
def test_set_algebra_against_naive_oracle(pool_index, m1, m2):
    tree = _POOL[pool_index]
    nodes = list(walk(tree))
    roots1 = {r.root for r in M.match(m1, tree)}
    roots2 = {r.root for r in M.match(m2, tree)}
    naive1 = {n for n in nodes if naive_eval(m1, n)}
    naive2 = {n for n in nodes if naive_eval(m2, n)}
    assert roots1 == naive1
    assert roots2 == naive2
    union = {r.root for r in M.match(M.anyOf(m1, m2), tree)}
    inter = {r.root for r in M.match(M.allOf(m1, m2), tree)}
    comp = {r.root for r in M.match(M.unless(m1), tree)}
    assert union == roots1 | roots2
    assert inter == roots1 & roots2
    assert comp == set(nodes) - roots1


@given(st.sampled_from(range(len(_POOL))), matcher_strategy())
@settings(max_examples=60, deadline=None)
def test_match_is_deterministic(pool_index, matcher):
    tree = _POOL[pool_index]
    first = [(r.root.node_id, sorted(r.bound)) for r in M.match(matcher, tree)]
    second = [(r.root.node_id, sorted(r.bound)) for r in M.match(matcher, tree)]
    assert first == second


@given(st.sampled_from(range(len(_POOL))), matcher_strategy())
@settings(max_examples=60, deadline=None)
def test_match_roots_are_tree_nodes(pool_index, matcher):
    tree = _POOL[pool_index]
    nodes = set(walk(tree))
    for result in M.match(matcher, tree):
        assert result.root in nodes
        for bound in result.bound.values():
            assert bound in nodes


# --- remaining vocabulary smoke coverage -------------------------------------------

def test_argument_matchers_on_calls():
    fe = frontend("""\
extern void take(int a, int b);
void f() { take(1, 2 + 3); }
""")
    assert len(M.match(M.callExpr(M.argumentCountIs(2)), fe.unit)) == 1
    assert len(M.match(M.callExpr(M.argumentCountIs(1)), fe.unit)) == 0
    assert len(M.match(M.callExpr(M.hasArgument(1, M.binaryOperator())), fe.unit)) == 1
    assert len(M.match(M.callExpr(M.hasArgument(0, M.binaryOperator())), fe.unit)) == 0


def test_method_call_new_and_delete_matchers():
    fe = frontend("""\
struct T { int x; };
void f() {
  string s;
  s.append(s);
  T* p = new T();
  delete p;
}
""")
    assert len(M.match(M.methodCallExpr(), fe.unit)) == 1
    assert len(M.match(M.newExpr(M.argumentCountIs(0)), fe.unit)) == 1
    assert len(M.match(M.deleteStmt(), fe.unit)) == 1


def test_type_matchers_string_and_named():
    fe = frontend("""\
struct Widget { int w; };
void f() {
  string s;
  Widget widget;
  Widget* pw = &widget;
}
""")
    assert len(M.match(M.varDecl(M.hasType(M.stringType())), fe.unit)) == 1
    named = M.match(M.varDecl(M.hasType(M.namedType("Widget"))), fe.unit)
    assert [r.root.name for r in named] == ["widget"]  # not the pointer
    pointers = M.match(M.varDecl(M.hasType(M.pointerType())), fe.unit)
    assert [r.root.name for r in pointers] == ["pw"]


def test_callee_and_has_name_on_functions():
    fe = frontend("""\
extern int helper();
void f() { int x = helper(); }
""")
    hits = M.match(M.callExpr(M.callee(M.functionDecl(M.hasName("helper")))), fe.unit)
    assert len(hits) == 1
    assert len(M.match(M.callExpr(M.callee(M.functionDecl(M.hasName("other")))),
                       fe.unit)) == 0


def test_ignoring_parens_sees_through_nesting():
    fe = frontend("void f() { int x = ((41)) + 1; }")
    direct = M.match(M.varDecl(M.hasInitializer(M.binaryOperator())), fe.unit)
    assert len(direct) == 1  # initializer itself is the +
    fe2 = frontend("void f() { int x = ((41)); }")
    assert M.match(M.varDecl(M.hasInitializer(
        M.ignoringParens(M.expr(M.hasType(M.namedType("int")))))), fe2.unit)


# --- the pre-order index and the kind filter ------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SOURCES = (sorted((ROOT / "scripts" / "examples").glob("*.mc"))
            + sorted((ROOT / "tests" / "golden" / "programs").glob("*.mc")))
_UNITS = {f"pool{i}": unit for i, unit in enumerate(_POOL)}
_UNITS.update((p.stem, frontend(p.read_text(encoding="utf-8"), p.name, 17).unit)
              for p in _SOURCES)
_TIDY_MATCHERS = list(RedundantPointerCheck(SourceFile("m.mc", ""), 17).register_matchers())


def match_at_every_node(matcher, root, unit) -> list[tuple]:
    """`M.match` without the index slice and the kind filter: every node of
    the subtree, by the recursive reference walk, with the same dedup key."""
    results, seen = [], set()
    for node in recursive_preorder(root):
        for bound in matcher.evaluate(node, unit.preorder) or []:
            key = (id(node), frozenset((k, id(v)) for k, v in bound.items()))
            if key not in seen:
                seen.add(key)
                results.append((node, bound))
    return results


def match_roots(unit) -> list:
    return [unit, *(d for d in unit.decls if isinstance(d, FunctionDecl))]


@pytest.mark.parametrize("name", sorted(_UNITS))
def test_preorder_index_matches_a_recursive_walk(name):
    check_preorder_index(_UNITS[name])


@pytest.mark.parametrize("name", sorted(_UNITS))
def test_kind_filtered_match_equals_evaluating_every_node(name):
    unit = _UNITS[name]
    for matcher in _TIDY_MATCHERS + _LEAF_MATCHERS:
        for root in match_roots(unit):
            got = [(r.root, r.bound) for r in M.match(matcher, root)]
            assert got == match_at_every_node(matcher, root, unit), (matcher, root)


@given(st.sampled_from(range(len(_POOL))), matcher_strategy())
@settings(max_examples=100, deadline=None)
def test_kind_filtered_match_equals_evaluating_every_node_on_random_matchers(
        pool_index, matcher):
    tree = _POOL[pool_index]
    got = [(r.root, r.bound) for r in M.match(matcher, tree)]
    assert got == match_at_every_node(matcher, tree, tree)


def test_tidy_matchers_are_offered_only_their_root_kinds():
    guard, var_init, dereference, plain_usage = _TIDY_MATCHERS
    assert guard.kinds == {"IfStmt"}
    assert var_init.kinds == {"VarDecl"}
    assert dereference.kinds == {"FieldAccess", "MethodCall", "UnaryOp", "AddressOf"}
    assert plain_usage.kinds == {"DeclRef"}
    assert M.unless(M.varDecl()).kinds is None
    assert M.anyOf(M.varDecl(), M.has(M.expr())).kinds is None


class RecordingCheck(TidyCheck):
    def __init__(self, matchers):
        self.matchers = matchers
        self.calls = []

    def register_matchers(self):
        return self.matchers

    def check(self, result):
        self.calls.append((result.root, result.bound))


@pytest.mark.parametrize("name", sorted(_UNITS))
def test_run_checks_calls_back_in_preorder_then_matcher_order(name):
    unit = _UNITS[name]
    # Distinct labels make the matcher index visible in the bindings.
    labelled = [m.bind(f"m{i}") for i, m in enumerate(
        _LEAF_MATCHERS + [M.unless(M.stmt()), M.has(M.expr())])]
    share = [_TIDY_MATCHERS, labelled]
    checks = [RecordingCheck(matchers) for matchers in share]
    run_checks(unit, SourceFile(f"{name}.mc", ""), checks)
    for check, matchers in zip(checks, share):
        hits = [(node.node_id, index, (node, bound))
                for index, matcher in enumerate(matchers)
                for node, bound in match_at_every_node(matcher, unit, unit)]
        hits.sort(key=lambda h: (h[0], h[1]))
        assert check.calls == [hit for _, _, hit in hits]
