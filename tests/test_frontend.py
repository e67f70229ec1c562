"""Lexer, parser, typechecker and source-extraction behavior."""

import ast
import pathlib
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from minilang.frontend import load_unit, node_text, tokenize, walk
from minilang.frontend.astnodes import (
    AddressOf, Assign, BinaryOp, BoolLit, BreakStmt, Call, ContinueStmt, DeclRef,
    FieldDecl, IntLit, ParamDecl, StringLit, UnaryOp, VarDecl,
)
from minilang.cli import main
from minilang.frontend.lexer import KEYWORDS, LexError, PUNCTUATORS, TokenKind
from minilang.frontend.parser import parse
from minilang.source import InternalError, SourceFile, SourceLocation, SourceRange

from conftest import frontend, structure_signature
from lexer_reference import reference_columns
from proggen import generate_function

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import corpus  # noqa: E402  (read-only: the bench's generated inputs)


def toks(source: str):
    return tokenize(SourceFile("t.mc", source))


def kinds_and_texts(source: str):
    tokens = toks(source)
    return [(kind.value, text) for kind, text in zip(tokens.kinds, tokens.spellings)
            if kind is not TokenKind.EOF]


# --- tokenize ---------------------------------------------------------------

def test_tokenize_canonical_split():
    assert kinds_and_texts("int x = 5;") == [
        ("keyword", "int"), ("identifier", "x"), ("punctuator", "="),
        ("int-literal", "5"), ("punctuator", ";"),
    ]


def test_tokenize_assignment_expression_has_five_leaves():
    # the b = a + 1 expression of the canonical syntax-tree figure
    assert toks("b = a + 1").spellings[:-1] == ["b", "=", "a", "+", "1"]


def test_tokenize_method_call_split():
    assert toks("s.c_str()").spellings[:-1] == ["s", ".", "c_str", "(", ")"]


def test_tokens_cover_all_non_whitespace_bytes():
    source = "int x = 5; // trailing note\nbool f;\n"
    file = SourceFile("t.mc", source)
    tokens = tokenize(file)
    covered = set()
    for spelling, begin, end in zip(tokens.spellings, tokens.begins, tokens.ends):
        assert spelling == source[begin:end]
        covered.update(range(begin, end))
    for comment in tokens.comments:
        covered.update(range(comment.range.begin.offset, comment.range.end.offset))
    uncovered = [source[i] for i in range(len(source)) if i not in covered]
    assert all(ch in " \t\r\n" for ch in uncovered)


def test_comment_trivia_attaches_to_following_token():
    tokens = toks("// lead\nint x;")
    assert tokens.spellings[0] == "int"
    assert [(c.text, c.token) for c in tokens.comments] == [("// lead", 0)]


def test_unterminated_string_literal_is_a_lex_error():
    with pytest.raises(LexError) as err:
        toks('string s = "oops;')
    assert "unterminated" in err.value.diagnostic.message


def test_illegal_character_is_a_lex_error():
    with pytest.raises(LexError) as err:
        toks("int x = 5 @ 3;")
    assert "illegal character" in err.value.diagnostic.message
    assert err.value.diagnostic.location.column == 11


@pytest.mark.parametrize("source, column", [
    ("int f(int a){ int x = \u00b2; return x; }", 23),  # superscript two: not a digit
    ("int \u00e9 = 1;", 5),
    ("int a\u00b2 = 1;", 6),
    ("int x =\u00a01;", 8),  # no-break space: not whitespace
], ids=["superscript-digit", "accented-identifier", "superscript-in-identifier",
        "no-break-space"])
def test_non_ascii_outside_strings_and_comments_is_illegal(source, column):
    with pytest.raises(LexError) as err:
        toks(source)
    assert err.value.diagnostic.message == f"illegal character {source[column - 1]!r}"
    assert err.value.diagnostic.location.column == column


@pytest.mark.parametrize("command", ["analyze", "tidy"])
def test_non_ascii_digit_exits_two_with_a_diagnostic(command, mc, capsys):
    path = mc("int f(int a){ int x = \u00b2; return x; }")
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert f"{path}:1:23: error: illegal character '\u00b2'" in err
    assert "Traceback" not in err


def test_non_ascii_text_in_strings_and_comments_is_legal():
    source = ('// caf\u00e9 \u00b2\nvoid f() { string s; s.append("h\u00e9llo \u00b2"); }'
              ' // \u03bb\n')
    tokens = toks(source)
    assert [(c.text, c.token) for c in tokens.comments] == [
        ("// caf\u00e9 \u00b2", 0), ("// \u03bb", len(tokens) - 1)]
    assert (TokenKind.STRING, '"h\u00e9llo \u00b2"') in zip(tokens.kinds, tokens.spellings)
    assert frontend(source).ok


# Single characters of the language, plus quotes, backslashes, comment
# slashes, line ends, a few characters that are illegal outside strings, and
# a whole line comment, so that comments often come before further tokens.
LEX_ALPHABET = (list("aZ_09 \t\r\n\"\\/=!<>&|-+(){};,*.@")
                + ["\u00e9", "\u00b2", "\u00a0", "// c\n"])
LEX_TEXTS = st.lists(st.one_of(st.sampled_from(LEX_ALPHABET), st.sampled_from(sorted(KEYWORDS)),
                               st.sampled_from(PUNCTUATORS)), max_size=40).map("".join)


# A comment before two tokens: a comment recorded again for the second
# token, or against the wrong one, fails both properties below at every seed.
COMMENT_BEFORE_TWO_TOKENS = "// c\na b"


@given(LEX_TEXTS)
@example(COMMENT_BEFORE_TWO_TOKENS)
@settings(max_examples=300, deadline=None)
def test_tokenize_covers_text_or_fails_inside_it(text):
    """Comments and tokens, read in order, tile the text up to whitespace:
    each comment comes just before the token whose index it holds."""
    try:
        tokens = tokenize(SourceFile("h.mc", text))
    except LexError as err:
        assert 0 <= err.diagnostic.location.offset < len(text)
        return
    assert len(tokens.spellings) == len(tokens.begins) == len(tokens.ends) == len(tokens)
    comments = tokens.comments
    pos = seen = 0
    for index, (kind, spelling, begin, end) in enumerate(
            zip(tokens.kinds, tokens.spellings, tokens.begins, tokens.ends)):
        while seen < len(comments) and comments[seen].token == index:
            comment = comments[seen]
            cbegin, cend = comment.range.begin.offset, comment.range.end.offset
            assert pos <= cbegin and text[pos:cbegin].strip(" \t\r\n") == ""
            assert comment.text == text[cbegin:cend]
            assert comment.text.startswith("//") and "\n" not in comment.text
            assert cend == len(text) or text[cend] == "\n"
            pos = cend
            seen += 1
        assert pos <= begin and text[pos:begin].strip(" \t\r\n") == ""
        assert spelling == text[begin:end]
        # the parser tests keywords and punctuators by spelling alone
        assert (kind is TokenKind.KEYWORD) == (spelling in KEYWORDS)
        assert (kind is TokenKind.PUNCT) == (spelling in PUNCTUATORS)
        pos = end
    assert seen == len(comments)
    assert tokens.kinds[-1] is TokenKind.EOF and pos == len(text)


def _shape(value):
    """A record as its class followed by its fields, nested records
    included, so that two streams are equal only if every comment, range
    and location has the same class and the same fields."""
    if isinstance(value, tuple):
        return (type(value), *map(_shape, value))
    return value


def lex_outcome(tokenizer, file: SourceFile):
    """The token columns, comments in their shape, or the LexError's
    location and message."""
    try:
        tokens = tokenizer(file)
        return (tokens.kinds, tokens.spellings, tokens.begins, tokens.ends,
                [_shape(comment) for comment in tokens.comments])
    except LexError as err:
        diag = err.diagnostic
        return "LexError", _shape(diag.location), diag.message, diag.severity


@given(LEX_TEXTS)
@example(COMMENT_BEFORE_TWO_TOKENS)
@settings(max_examples=300, deadline=None)
def test_tokenize_equals_the_reference_loop(text):
    file = SourceFile("h.mc", text)
    assert lex_outcome(tokenize, file) == lex_outcome(reference_columns, file)


def test_tokenize_equals_the_reference_loop_around_comments():
    file = SourceFile("c.mc", "// a\n// b\nint x; // c\nint y = 1;\n\n// d\n")
    assert [comment.token for comment in tokenize(file).comments] == [0, 0, 3, 8]
    assert lex_outcome(tokenize, file) == lex_outcome(reference_columns, file)


@pytest.mark.parametrize("source", [
    'string s = "oops;', "int x = 5 @ 3;", "// lead\nint \u00e9 = 1;", '"',
], ids=["unterminated-string", "illegal-character", "illegal-after-comment", "lone-quote"])
def test_tokenize_raises_the_reference_loops_lex_error(source):
    file = SourceFile("e.mc", source)
    outcome = lex_outcome(tokenize, file)
    assert outcome[0] == "LexError"
    assert outcome == lex_outcome(reference_columns, file)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_tokenize_equals_the_reference_loop_on_the_bench_corpus(workload):
    for case in corpus.WORKLOADS[workload](811):
        file = SourceFile(case.name, case.text)
        assert lex_outcome(tokenize, file) == lex_outcome(reference_columns, file), case.name


# --- parse ------------------------------------------------------------------

def test_parse_assignment_shape_matches_figure():
    fe = frontend("void f(int a, int b) { b = a + 1; }")
    assigns = [n for n in walk(fe.unit) if isinstance(n, Assign)]
    assert len(assigns) == 1
    assign = assigns[0]
    assert isinstance(assign.lhs, DeclRef) and assign.lhs.name == "b"
    assert isinstance(assign.rhs, BinaryOp) and assign.rhs.op == "+"
    assert isinstance(assign.rhs.lhs, DeclRef) and assign.rhs.lhs.name == "a"
    assert isinstance(assign.rhs.rhs, IntLit) and assign.rhs.rhs.value == 1


def test_star_is_declaration_when_name_is_a_type():
    fe = frontend("struct T { int x; };\nextern T* f();\nvoid g() { T * p = f(); }")
    decls = [n for n in walk(fe.unit) if isinstance(n, VarDecl)]
    assert decls and decls[0].declared_type.base == "T"
    assert decls[0].declared_type.indirections == 1


def test_star_is_multiplication_when_name_is_a_variable():
    fe = frontend("void g() { int T = 2; int p = 3; T * p; }")
    mults = [n for n in walk(fe.unit)
             if isinstance(n, BinaryOp) and n.op == "*"]
    assert len(mults) == 1


def test_empty_input_parses_to_empty_unit():
    file = SourceFile("empty.mc", "")
    unit, diags = parse(file, tokenize(file))
    assert diags == []
    assert unit.decls == []


def test_syntax_error_recovers_at_semicolon():
    result = load_unit("bad.mc", "void f() { int x = ; int y = 1; }")
    assert result.diagnostics
    assert any("expected expression" in d.message for d in result.diagnostics)


def test_if_initializer_requires_std17():
    src = "struct T { int x; };\nextern T* f();\nvoid g() { if (T* p = f(); !p) return; }"
    bad = load_unit("i.mc", src, std=14)
    assert any("--std=17" in d.message for d in bad.diagnostics)
    good = load_unit("i.mc", src, std=17)
    assert good.ok, [d.message for d in good.diagnostics]


def test_comma_expression_parses_inside_parens():
    fe = frontend("void f() { int v = 0; bool b = ((v = 3), false); }")
    commas = [n for n in walk(fe.unit) if isinstance(n, BinaryOp) and n.op == ","]
    assert len(commas) == 1


def test_a_long_assignment_chain_parses_right_nested():
    # Three times as many operands as the default recursion limit has
    # frames; `=` and `+=` alternate, so each level keeps its own operator.
    count = 3000
    assert sys.getrecursionlimit() < count
    ops = ["=" if i % 2 == 0 else "+=" for i in range(count - 1)]
    source = "void f(int a) { a"
    operand_begins, op_begins = [len(source) - 1], []
    for op in ops:
        op_begins.append(len(source) + 1)
        source += f" {op} "
        operand_begins.append(len(source))
        source += "a"
    source += "; }"
    file = SourceFile("chain.mc", source)
    unit, diags = parse(file, tokenize(file))
    assert diags == []
    expr = unit.decls[0].body.stmts[0].expr
    for op, op_begin, lhs_begin in zip(ops, op_begins, operand_begins):
        assert type(expr) is Assign and expr.op == op and expr.op_offset == op_begin
        assert type(expr.lhs) is DeclRef and expr.lhs.begin == lhs_begin
        assert (expr.begin, expr.end) == (lhs_begin, operand_begins[-1] + 1)
        assert expr.lhs.parent is expr.rhs.parent is expr
        expr = expr.rhs
    assert type(expr) is DeclRef and expr.begin == operand_begins[-1]


def test_only_number_tree_sets_parents_ids_and_subtree_ends():
    """`push_children` alone names a node's children: no constructor in
    `astnodes.py` links a child to its parent, and `number_tree` is the one
    function that assigns `parent`, `node_id` or `last_id`."""
    path = ROOT / "src" / "minilang" / "frontend" / "astnodes.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    writers = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                           else [])
                if any(isinstance(t, ast.Attribute)
                       and t.attr in ("parent", "node_id", "last_id") for t in targets):
                    writers.add(fn.name)
    assert writers == {"number_tree"}
    assert ParamDecl.__init__ is FieldDecl.__init__
    assert ContinueStmt.__init__ is BreakStmt.__init__
    assert Assign.__init__ is BinaryOp.__init__
    assert BoolLit.__init__ is IntLit.__init__
    assert StringLit.__init__ is IntLit.__init__
    assert AddressOf.push_children is UnaryOp.push_children


# --- typecheck ----------------------------------------------------------------

def test_dereference_of_non_pointer_rejected():
    result = load_unit("t.mc", "void f() { *5; }")
    assert any("cannot dereference non-pointer" in d.message
               for d in result.diagnostics)


def test_c_str_result_is_char_pointer():
    fe = frontend("void f() { string s; char* c = s.c_str(); }")
    decl = next(n for n in walk(fe.unit)
                if isinstance(n, VarDecl) and n.name == "c")
    assert decl.init.type is not None
    assert str(decl.init.type) == "char*"


def test_assignment_to_const_rejected():
    result = load_unit("t.mc", "void f() { const int k = 1; k = 2; }")
    assert any("assignment to const" in d.message for d in result.diagnostics)


def test_unknown_identifier_and_unknown_method():
    assert any("unknown identifier" in d.message
               for d in load_unit("t.mc", "void f() { x = 1; }").diagnostics)
    assert any("unknown string method" in d.message
               for d in load_unit("t.mc", "void f() { string s; s.shrink(); }").diagnostics)


def test_condition_must_be_bool():
    result = load_unit("t.mc", "void f(int a) { if (a) a = 0; }")
    assert any("condition must be bool" in d.message for d in result.diagnostics)


def test_pointer_null_comparison_allowed():
    frontend("struct T { int x; };\nextern T* f();\n"
             "void g() { T* p = f(); if (p == 0) return; }")


def test_push_back_accepts_int_literal_only():
    frontend("void f() { string s; s.push_back(97); }")
    result = load_unit("t.mc", "void f(int c) { string s; s.push_back(c); }")
    assert result.diagnostics


def test_break_outside_loop_rejected():
    result = load_unit("t.mc", "void f() { break; }")
    assert any("'break' outside" in d.message for d in result.diagnostics)


def test_declrefs_resolve_after_typecheck():
    fe = frontend("void f(int a) { int b = a; b = b + a; }")
    for ref in (n for n in walk(fe.unit) if isinstance(n, DeclRef)):
        assert ref.decl is not None


# --- getSourceText --------------------------------------------------------------

def test_source_text_of_declaration_excludes_semicolon():
    src = "extern int f();\nvoid g() { int x = f(); }"
    fe = frontend(src)
    decl = next(n for n in walk(fe.unit)
                if isinstance(n, VarDecl) and n.name == "x")
    begin = src.index("int x")
    expected = src[begin:src.index("f()", begin) + len("f()")]
    assert node_text(decl) == expected == "int x = f()"


def test_source_text_of_method_call_subtree():
    src = "void f() { string s; char* c = s.c_str(); }"
    fe = frontend(src)
    call = next(n for n in walk(fe.unit) if n.kind == "MethodCall")
    assert node_text(call) == "s.c_str()"


# --- invariants ------------------------------------------------------------------

CORPUS = [
    "void f() { }",
    "struct T { int x; bool b; };\nextern T* mk();\n"
    "int g() { T* p = mk(); if (!p) return 0; return p->x; }",
    "void h(int a, int& out) { while (a > 0) { a = a - 1; } out = a; }",
    "void s() { string t; char* c = t.c_str(); t.clear(); }",
]


@pytest.mark.parametrize("source", CORPUS)
def test_round_trip_every_node_relexes_to_its_tokens(source):
    fe = frontend(source)
    for node in walk(fe.unit):
        text = node_text(node)
        slice_file = SourceFile("slice.mc", text)
        slice_tokens = tokenize(slice_file).spellings[:-1]
        tokens = tokenize(fe.file)
        original = [spelling for spelling, begin, end
                    in zip(tokens.spellings[:-1], tokens.begins, tokens.ends)
                    if node.range.begin.offset <= begin and end <= node.range.end.offset]
        assert slice_tokens == original


@pytest.mark.parametrize("source", CORPUS)
def test_child_ranges_nested_in_parents(source):
    fe = frontend(source)
    for node in walk(fe.unit):
        for child in node.children():
            assert node.range.begin.offset <= child.range.begin.offset
            assert child.range.end.offset <= node.range.end.offset


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=40, deadline=None)
def test_parse_is_deterministic_on_random_programs(seed):
    source = generate_function(seed)
    first = load_unit("p.mc", source)
    second = load_unit("p.mc", source)
    assert first.ok and second.ok
    assert structure_signature(first.unit) == structure_signature(second.unit)


# Line-structure edge cases: empty text, no trailing newline, leading and
# consecutive newlines, CRLF line ends.
LINE_EDGE_TEXTS = ["int a;\nbool b;\n// note\nvoid f() { }\n", "", "int a;",
                   "\n\nint a;\n\n\nbool b;", "int a;\r\nbool b;\r\n"]


def test_location_offset_consistency():
    for src in LINE_EDGE_TEXTS:
        file = SourceFile("c.mc", src)
        for offset in range(len(src) + 1):
            loc = file.location(offset)
            assert loc.offset == offset
            line_start = src.rfind("\n", 0, offset) + 1
            assert loc.column == offset - line_start + 1
            assert src[:offset].count("\n") + 1 == loc.line


def test_reference_type_outside_parameters_rejected():
    result = load_unit("r.mc", "void f() { int& r = 0; }")
    assert any("reference type allowed only on parameters" in d.message
               for d in result.diagnostics)


def test_void_double_indirection_rejected():
    result = load_unit("v.mc", "void f() { void** p; }")
    assert any("void allows at most one level" in d.message
               for d in result.diagnostics)


# --- source records -------------------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD_TEXTS = [
    p.read_text(encoding="utf-8")
    for p in sorted((ROOT / "scripts" / "examples").glob("*.mc"))
    + sorted((ROOT / "tests" / "golden" / "programs").glob("*.mc"))
] + LINE_EDGE_TEXTS + [
    "int x = 5; // trailing note\nbool f;\n",
    "// lead\nint x;",
    '// caf\u00e9 \u00b2\nvoid f() { string s; s.append("h\u00e9llo \u00b2"); } // \u03bb\n',
]


def test_lexer_locations_equal_bounds_checked_locations():
    # the lexer builds comment locations without `SourceFile.location`;
    # tokens are plain offsets that spell their text
    for text in RECORD_TEXTS:
        file = SourceFile("r.mc", text)
        tokens = tokenize(file)
        for spelling, begin, end in zip(tokens.spellings, tokens.begins, tokens.ends):
            assert type(begin) is type(end) is int
            assert 0 <= begin <= end <= len(text)
            assert spelling == text[begin:end]
        for comment in tokens.comments:
            rng = comment.range
            assert type(rng) is SourceRange
            assert rng.begin == file.location(rng.begin.offset)
            assert rng.end == file.location(rng.end.offset)
            assert type(rng.begin) is type(rng.end) is SourceLocation
            assert type(comment.token) is int and 0 <= comment.token < len(tokens)


def test_source_records_are_immutable():
    tokens = toks("// lead\nint x;")
    comment = tokens.comments[0]
    for record, field in ((comment.range.begin, "offset"), (comment.range, "begin"),
                          (comment, "text"), (comment, "token")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
    with pytest.raises(AttributeError):
        tokens.extra = 1  # the columns are slotted


def test_inverted_source_range_is_internal_error():
    file = SourceFile("r.mc", "int x;")
    with pytest.raises(InternalError, match="inverted source range"):
        SourceRange(file.location(4), file.location(1))
    with pytest.raises(InternalError):
        file.location(7)


def test_equal_source_records_hash_equal():
    # a comment's hash covers its text, its range and its token index
    for text in RECORD_TEXTS:
        file = SourceFile("r.mc", text)
        first, second = tokenize(file), tokenize(file)
        assert len(first.comments) == len(second.comments)
        for a, b in zip(first.comments, second.comments):
            assert a is not b and a == b and hash(a) == hash(b)
            assert a.text == text[a.range.begin.offset:a.range.end.offset]
