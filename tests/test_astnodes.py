"""AST nodes as records: each node holds its extent and its operator, name
or member token as file offsets, and builds `range`, `op_loc`, `name_loc`
and `member_loc` from them when read. Here those match locations made
independently from the token stream, on every node of the example and
golden programs and the matcher pool, and every concrete node class is
slotted: no instance dict, no attribute beyond the declared ones."""

import pytest

from minilang.frontend import tokenize
from minilang.frontend import astnodes as A
from minilang.source import SourceRange

from conftest import frontend
from test_matchers import _UNITS

# The kinds the other units lack: `&`, bool literals, break, continue, parens.
OTHER_KINDS = """
void other(bool flag) {
  int x = 0;
  int* p = &x;
  while (flag) {
    if ((x == 1)) { break; }
    flag = false;
    continue;
  }
}
"""

UNITS = {**_UNITS, "other_kinds": frontend(OTHER_KINDS, "other.mc").unit}


def concrete_node_classes() -> set[type]:
    def subclasses(cls):
        return [c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))]
    return {cls for cls in subclasses(A.Node) if cls.kind == cls.__name__}


def expected_tokens(node, toks) -> dict:
    """Each location attribute of `node`, mapped to the index of the token
    it names, found by position among the tokens of the node's extent."""
    begins = toks.begins
    inside = [i for i, begin in enumerate(begins) if node.begin <= begin < node.end]
    texts = [toks.spellings[i] for i in inside]
    if isinstance(node, A.StructDecl):
        return {"name_loc": inside[1]}
    if isinstance(node, (A.FunctionDecl, A.ExternDecl)):
        return {"name_loc": inside[texts.index("(") - 1]}
    if isinstance(node, (A.VarDecl, A.ParamDecl, A.FieldDecl)):
        has_init = getattr(node, "init", None) is not None
        return {"name_loc": inside[texts.index("=") - 1] if has_init else inside[-1]}
    if isinstance(node, (A.UnaryOp, A.AddressOf)):
        return {"op_loc": inside[0]}
    if isinstance(node, (A.BinaryOp, A.Assign)):
        between = [i for i in inside if node.lhs.end <= begins[i] < node.rhs.begin]
        assert len(between) == 1
        return {"op_loc": between[0]}
    if isinstance(node, (A.FieldAccess, A.MethodCall)):
        base = node.base if isinstance(node, A.FieldAccess) else node.receiver
        after = [i for i in inside if begins[i] >= base.end]
        assert toks.spellings[after[0]] in (".", "->")
        return {"member_loc": after[1]}
    return {}


def spelling(node, attr: str) -> str:
    if attr == "name_loc":
        return node.name
    if attr == "op_loc":
        return node.op
    return node.field_name if isinstance(node, A.FieldAccess) else node.method_name


@pytest.mark.parametrize("name", sorted(UNITS))
def test_ranges_and_token_locations_are_built_from_offsets(name):
    unit = UNITS[name]
    file = unit.file
    toks = tokenize(file)
    for node in unit.preorder:
        assert node.range == SourceRange(file.location(node.begin), file.location(node.end))
        for attr, tok in expected_tokens(node, toks).items():
            assert getattr(node, attr) == file.location(toks.begins[tok]), (node, attr)
            assert toks.spellings[tok] == spelling(node, attr)


def test_every_node_class_is_slotted():
    one_of_each = {type(node): node for unit in UNITS.values() for node in unit.preorder}
    assert set(one_of_each) == concrete_node_classes()
    for cls, node in one_of_each.items():
        assert not hasattr(node, "__dict__"), cls
        with pytest.raises(AttributeError):
            node.undeclared = 1
