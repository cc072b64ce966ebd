import importlib.util
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    c_programs,
    call_heavy_program,
    expression_sources,
    fifo_reaching_definitions,
    named_edges,
    node_defs_uses,
    oracle_call_sites,
    oracle_cfg_nodes,
    oracle_reaching_edges,
    plumbing_parse,
    recursive_parse,
    RecursiveWiring,
    resolve_variables,
    scan_tokenize,
    set_reaching_definitions,
    tagged_edges,
    tier_parse,
    wired,
)
from verisel.frontend import (
    DEFAULT_MAX_NODES,
    AstNode,
    GraphTooLarge,
    LexError,
    NestingTooDeep,
    ParseError,
    Token,
    UnsupportedConstruct,
    assemble_graph,
    build_icfg,
    extract_graph,
    parse,
    parse_source,
    reaching_definitions,
    tokenize,
)
from verisel.frontend import graph_build
from verisel.frontend.cfg import function_definitions, statement_parts
from verisel.frontend.parser import _STATEMENT_KEYWORDS
from verisel.graphio import PropertyKind, TokenVocabulary, deserialize_graph, serialize_graph

VOCAB = TokenVocabulary.default()
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PROP = PropertyKind.REACH_SAFETY

ALIAS_OF_RETURN = """\
void err() { ERROR: __VERIFIER_error();}

int * return_self (int * p){
    return p;
}

int main(){
    int a,*q;
    a = 1;
    q = return_self(&a);
    *q = 2;
    if (a != 2) err();
}
"""


def extract(source, graph_id="test"):
    return extract_graph(source, VOCAB, graph_id=graph_id, property=PROP)


def pipeline(source):
    ast = parse_source(source)
    icfg = build_icfg(ast)
    dfg = reaching_definitions(ast, icfg)
    return ast, icfg, dfg


# ---------------------------------------------------------------------------
# lexer


def test_tokenize_declaration():
    tokens = tokenize("int a;")
    assert [(t.kind, t.text) for t in tokens] == [
        ("kw", "int"), ("ident", "a"), ("punct", ";"),
    ]


def test_tokenize_maximal_munch():
    tokens = tokenize("a!=2")
    assert [(t.kind, t.text) for t in tokens] == [
        ("ident", "a"), ("op", "!="), ("int", "2"),
    ]


def test_tokenize_illegal_character_position():
    with pytest.raises(LexError) as err:
        tokenize("int $x;")
    assert err.value.line == 1
    assert err.value.col == 5


def test_tokenize_drops_comments_and_line_markers():
    tokens = tokenize("# 1 \"x.c\"\nint a; // tail\n/* block */ a = 1;\n")
    assert [t.text for t in tokens] == ["int", "a", ";", "a", "=", "1", ";"]


def lexed(lex, source):
    """Tokens as (kind, text, line, col), or the LexError as (message, line, col)."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(source)]
    except LexError as err:
        return (str(err), err.line, err.col)


# spliced into corpus programs: the corpus itself has no comments, markers,
# literals or lexing errors
SPLICES = ("/* c\n */", "// c\n", "\n# 1 \"x.c\"\n", "'\\''", '"s\\"\n"', "0x1fUL",
           "1.5e-3f", ".5", "/*", "'", '"', "$", "\v")


def test_tokenize_equals_scanner_on_corpus():
    sources = sorted(CORPUS.glob("*.c"))
    assert len(sources) == 20
    for path in sources:
        source = path.read_text()
        assert lexed(tokenize, source) == lexed(scan_tokenize, source), path.name
        for cut in (0, len(source) // 3, 2 * len(source) // 3, len(source)):
            for splice in SPLICES:
                spliced = source[:cut] + splice + source[cut:]
                assert lexed(tokenize, spliced) == lexed(scan_tokenize, spliced), spliced


@settings(max_examples=100, deadline=None)
@given(c_programs())
def test_tokenize_equals_scanner_on_generated_programs(program):
    assert lexed(tokenize, program.source) == lexed(scan_tokenize, program.source)


LEX_ALPHABET = ([chr(c) for c in range(32, 127)] + list("\t\r\n\v\féßλ")
                + ["/*", "*/", "//", "0x", "\\'"])


@settings(max_examples=500, deadline=None)
@given(st.booleans(), st.lists(st.sampled_from(LEX_ALPHABET), max_size=40))
def test_tokenize_equals_scanner_on_arbitrary_text(marker, pieces):
    source = ("#" if marker else "") + "".join(pieces)
    assert lexed(tokenize, source) == lexed(scan_tokenize, source)


def test_token_and_ast_node_are_immutable_hashable_named_tuples():
    token = tokenize("x")[0]
    node = parse_source("int x;").nodes[-1]
    assert Token._fields == ("kind", "text", "line", "col")
    assert AstNode._fields == ("kind", "children", "text")
    assert (token.kind, token.text, token.line, token.col) == ("ident", "x", 1, 1)
    assert (node.kind, node.children, node.text) == ("VarDecl", (), "x")
    assert AstNode("NullStmt", ()).text is None
    assert repr(token) == "ident:x"
    for value, field in ((token, "text"), (node, "kind")):
        with pytest.raises(AttributeError):
            setattr(value, field, "y")
    assert {token: 1, node: 2}[Token("ident", "x", 1, 1)] == 1
    assert {token: 1, node: 2}[AstNode("VarDecl", (), "x")] == 2


def test_tokenize_takes_non_decimal_numerals_as_identifier_characters():
    # The one difference from the scanner: a regex cannot express
    # str.isdigit and str.isalpha exactly, so numeric characters that are
    # neither decimal digits nor letters join identifiers. The scanner lexes
    # "²" (str.isdigit) as a digit and rejects "½" (numeric only).
    assert lexed(tokenize, "x=²;") == [
        ("ident", "x", 1, 1), ("op", "=", 1, 2), ("ident", "²", 1, 3), ("punct", ";", 1, 4)]
    assert lexed(scan_tokenize, "x=²;")[2] == ("int", "²", 1, 3)
    assert lexed(tokenize, "1² ½") == [
        ("int", "1", 1, 1), ("ident", "²", 1, 2), ("ident", "½", 1, 4)]
    assert lexed(scan_tokenize, "1² ½") == ("1:4: illegal character '½'", 1, 4)


# ---------------------------------------------------------------------------
# parser


def kinds_on_path(ast, start):
    """Kinds walking first children from start down to a leaf."""
    out = [ast.kind(start)]
    node = start
    while ast.children(node):
        node = ast.children(node)[0]
        out.append(ast.kind(node))
    return out


def test_parse_minimal_main():
    ast = parse_source("int main(){return 0;}")
    assert kinds_on_path(ast, ast.root) == [
        "TranslationUnit", "FunctionDecl", "CompoundStmt", "ReturnStmt",
        "IntegerLiteral",
    ]
    assert ast.text(ast.find("FunctionDecl")[0]) == "main"


def test_parse_alias_of_return_structure():
    ast = parse_source(ALIAS_OF_RETURN)
    names = {ast.text(fn) for fn in ast.find("FunctionDecl")}
    assert {"err", "return_self", "main"} <= names
    if_stmts = ast.find("IfStmt")
    assert len(if_stmts) == 1
    cond, then = ast.children(if_stmts[0])[:2]
    assert ast.kind(cond) == "BinaryOperator" and ast.text(cond) == "!="
    assert ast.kind(then) == "CallExpr"
    assert ast.text(ast.children(then)[0]) == "err"


def test_parse_goto_unsupported():
    with pytest.raises(UnsupportedConstruct):
        parse_source("int main(){goto L;}")


def test_parse_unsupported_constructs():
    for source in (
        "struct S { int a; };",
        "int main(){ do { } while (1); }",
        "int main(){ int x; x = sizeof(x); return x; }",
        "int main(){ int x; x = 1 ? 2 : 3; return x; }",
        "int main(){ int x; x = (int)1.5; return x; }",
    ):
        with pytest.raises(UnsupportedConstruct):
            parse_source(source)


def test_parse_parameters_use_the_declaration_declarator():
    ast = parse_source("int f(int *const p, char *, int a[3][4]);")
    assert [ast.text(p) for p in ast.find("ParmVarDecl")] == ["p", None, "a"]
    with pytest.raises(UnsupportedConstruct, match="function pointer declarator"):
        parse_source("int f(int (*cb)(int));")


def test_parse_error_reports_expected_and_found():
    with pytest.raises(ParseError) as err:
        parse_source("int main(){ return 0 }")
    assert "expected" in str(err.value) and "}" in str(err.value)


@pytest.mark.parametrize("source, expected", [
    ("int x", ";"),                                # a declaration
    ("int", "ident"),
    ("const", "type specifier"),
    ("int x =", "expression"),
    ("int main(){ x = 1 +", "expression"),         # an expression
    ("int main(){ x = (a", ")"),
    ("int main(){ a[1", "]"),
    ("int main(){ x = 1;", "'}'"),                 # a block
    ("int main(){ if (x)", "statement"),
    ("int main(){ f(1,", "expression"),            # a call's arguments
    ("int main(){ f(1", ")"),
])
def test_parse_error_at_the_end_of_input_names_no_token(source, expected):
    with pytest.raises(ParseError) as err:
        parse_source(source)
    assert str(err.value) == f"end of input: expected {expected}, found '<eof>'"
    assert err.value.expected == expected and err.value.found is None


def test_parse_ast_is_preorder_tree():
    ast = parse_source(ALIAS_OF_RETURN)
    seen_parent = {}
    for parent, node in enumerate(ast.nodes):
        for child in node.children:
            assert child > parent  # pre-order numbering
            assert child not in seen_parent
            seen_parent[child] = parent
    assert set(seen_parent) == set(range(1, len(ast)))  # a tree rooted at 0


def sexpr(ast, node: int) -> str:
    children = [sexpr(ast, child) for child in ast.children(node)]
    head = ast.text(node) or ast.kind(node)
    return f"({head} {' '.join(children)})" if children else head


def test_parse_binary_operators_bind_by_tier_and_left_to_right():
    ast = parse_source("int main(){ x = y = a - b - c * d % e << 1 < 2 == 3 & 4 ^ 5 | 6 && 7 || 8; }")
    (stmt,) = ast.children(ast.children(ast.find("FunctionDecl")[0])[-1])
    assert sexpr(ast, stmt) == (
        "(= x (= y (|| (&& (| (^ (& (== (< (<< (- (- a b) (% (* c d) e)) 1) 2) 3) 4) 5) 6) 7) 8)))")


def parsed(parse_fn, tokens):
    """The AST nodes, or the error's class, message and offending token."""
    try:
        return parse_fn(tokens).nodes
    except (ParseError, UnsupportedConstruct) as err:
        return type(err).__name__, str(err), getattr(err, "found", None)


def test_parse_equals_tier_oracle_on_corpus():
    sources = sorted(CORPUS.glob("*.c"))
    assert len(sources) == 20
    for path in sources:
        tokens = tokenize(path.read_text())
        assert parse(tokens).nodes == tier_parse(tokens).nodes, path.name


def test_parse_equals_plumbing_oracle_on_corpus_cut_at_every_token():
    sources = sorted(CORPUS.glob("*.c"))
    assert len(sources) == 20
    for path in sources:
        tokens = tokenize(path.read_text())
        for cut in range(len(tokens) + 1):
            prefix = tokens[:cut]
            assert parsed(parse, prefix) == parsed(plumbing_parse, prefix), (path.name, cut)


@settings(max_examples=100, deadline=None)
@given(c_programs())
def test_parse_equals_plumbing_oracle_on_generated_programs(program):
    for source in (program.source, program.unshadowed):
        tokens = tokenize(source)
        assert parsed(parse, tokens) == parsed(plumbing_parse, tokens)


@settings(max_examples=100, deadline=None)
@given(c_programs())
def test_parse_equals_tier_oracle_on_generated_programs(program):
    for source in (program.source, program.unshadowed):
        tokens = tokenize(source)
        assert parse(tokens).nodes == tier_parse(tokens).nodes


@settings(max_examples=500, deadline=None)
@given(expression_sources())
def test_parse_equals_tier_oracle_on_expressions_and_their_errors(source):
    tokens = tokenize(source)
    assert parsed(parse, tokens) == parsed(tier_parse, tokens) == parsed(plumbing_parse, tokens)


def test_parse_typedef_registers_type_name():
    ast = parse_source("typedef int myint;\nint main(){ myint x; x = 1; return x; }")
    assert ast.find("TypedefDecl")
    assert len(ast.find("VarDecl")) == 1


# ---------------------------------------------------------------------------
# control flow


def find_stmt(ast, kind, index=0):
    return ast.find(kind)[index]


def test_icfg_while_loop_edges():
    source = "int main() { int c; c = 1; while (c) { c = 0; } return 0; }"
    ast, icfg, _ = pipeline(source)
    loop = find_stmt(ast, "WhileStmt")
    body_assign = [
        n for n in ast.find("BinaryOperator", "=") if n > loop
    ][0]
    ret = find_stmt(ast, "ReturnStmt")
    pairs = {(e.src, e.dst, e.tag) for e in icfg.edges}
    assert (loop, body_assign, "flow") in pairs       # cond -> body
    assert (body_assign, loop, "loop-back") in pairs  # body -> cond
    assert (loop, ret, "flow") in pairs               # cond -> exit


def test_icfg_alias_main_return_convention():
    ast, icfg, _ = pipeline(ALIAS_OF_RETURN)
    main_decl = [f for f in ast.find("FunctionDecl") if ast.text(f) == "main"][0]
    if_stmt = find_stmt(ast, "IfStmt")
    returns = {(e.src, e.dst) for e in tagged_edges(icfg, "return")}
    assert (if_stmt, main_decl) in returns  # no return in main: last stmt -> header


def test_icfg_entry_edge_for_called_function():
    ast, icfg, _ = pipeline(ALIAS_OF_RETURN)
    err_decl = [f for f in ast.find("FunctionDecl") if ast.text(f) == "err"][0]
    label = find_stmt(ast, "LabelStmt")
    flows = {(e.src, e.dst) for e in tagged_edges(icfg, "flow")}
    assert (err_decl, label) in flows  # function header -> its body


TWO_FUNCTIONS = """\
int f() { return 1; }
int main() { int x; x = f(); return x; }
"""


def test_icfg_two_functions_exact_edges():
    # hand-enumerated CFG for the whole program (pre-order node ids)
    ast, icfg, _ = pipeline(TWO_FUNCTIONS)
    f_decl = [f for f in ast.find("FunctionDecl") if ast.text(f) == "f"][0]
    f_ret = find_stmt(ast, "ReturnStmt", 0)
    decl_x = find_stmt(ast, "DeclStmt")
    assign = find_stmt(ast, "BinaryOperator")
    main_ret = find_stmt(ast, "ReturnStmt", 1)
    expected = {
        (decl_x, assign, "flow"),
        (assign, main_ret, "flow"),
        (assign, f_decl, "call"),
        (f_decl, f_ret, "flow"),
        (f_ret, assign, "return"),
    }
    assert {(e.src, e.dst, e.tag) for e in icfg.edges} == expected
    assert len(tagged_edges(icfg, "call")) == 1
    assert len(tagged_edges(icfg, "return")) == 1


def test_icfg_unresolved_externals_reported_not_wired():
    source = "int main() { int x; x = __VERIFIER_nondet_int(); return x; }"
    ast, icfg, _ = pipeline(source)
    assert not tagged_edges(icfg, "call")
    assert any("__VERIFIER_nondet_int" in d for d in icfg.diagnostics)


def test_icfg_if_else_branches():
    source = """\
int main() { int a; int b; a = 1;
  if (a) { b = 1; } else { b = 2; }
  return b; }
"""
    ast, icfg, _ = pipeline(source)
    if_stmt = find_stmt(ast, "IfStmt")
    assigns = ast.find("BinaryOperator", "=")
    then_b, else_b = assigns[1], assigns[2]
    ret = find_stmt(ast, "ReturnStmt")
    pairs = {(e.src, e.dst) for e in icfg.edges}
    assert {(if_stmt, then_b), (if_stmt, else_b), (then_b, ret), (else_b, ret)} <= pairs
    assert (if_stmt, ret) not in pairs  # both arms present: no fallthrough edge


def test_icfg_for_break_continue():
    source = """\
int main() {
  int i; int s; s = 0;
  for (i = 0; i < 10; i++) {
    if (s > 5) break;
    if (i == 2) continue;
    s += i;
  }
  return s;
}
"""
    ast, icfg, _ = pipeline(source)
    loop = find_stmt(ast, "ForStmt")
    brk = find_stmt(ast, "BreakStmt")
    cont = find_stmt(ast, "ContinueStmt")
    ret = find_stmt(ast, "ReturnStmt")
    tagged = {(e.src, e.dst, e.tag) for e in icfg.edges}
    assert (brk, ret, "flow") in tagged
    assert (cont, loop, "loop-back") in tagged
    add = find_stmt(ast, "CompoundAssignOperator")
    assert (add, loop, "loop-back") in tagged


def test_icfg_switch_fallthrough_and_default():
    source = """\
int main() {
  int x; int y; x = 2; y = 0;
  switch (x) {
    case 1: y = 1; break;
    case 2: y = 2;
    default: y = 3;
  }
  return y;
}
"""
    ast, icfg, _ = pipeline(source)
    switch = find_stmt(ast, "SwitchStmt")
    cases = ast.find("CaseStmt")
    default = find_stmt(ast, "DefaultStmt")
    ret = find_stmt(ast, "ReturnStmt")
    pairs = {(e.src, e.dst) for e in icfg.edges}
    for case in cases + [default]:
        assert (switch, case) in pairs
    assert (switch, ret) not in pairs  # default present: switch cannot fall past
    y2 = ast.find("BinaryOperator", "=")[3]
    assert (y2, default) in pairs  # case 2 falls through into default


@pytest.mark.parametrize("body, successors", [
    ("L: case 1: x = 2; break; case 2: x = 3;", [{"case 1", "case 2", "return"}]),
    ("case 0: if (x) { case 1: x = 2; } break; case 2: x = 3;",
     [{"case 0", "case 1", "case 2", "return"}]),
    # a nested switch keeps its own cases
    ("case 0: while (x) { default: x--; case 1: x = 2; } case 2: switch (x) { case 5: x = 1; }",
     [{"case 0", "default", "case 1", "case 2"}, {"case 5", "return"}]),
], ids=["under-a-label", "inside-an-if", "inside-a-loop-and-a-nested-switch"])
def test_icfg_switch_reaches_every_case_in_its_body(body, successors):
    ast, icfg, _ = pipeline(f"int main() {{ int x; x = 0; switch (x) {{ {body} }} return x; }}")

    def name(node):
        kind, children, _ = ast.nodes[node]
        return f"case {ast.text(children[0])}" if kind == "CaseStmt" else {
            "DefaultStmt": "default", "ReturnStmt": "return"}[kind]

    assert [{name(dst) for src, dst in icfg.pairs() if src == switch}
            for switch in ast.find("SwitchStmt")] == successors


# statement kind -> the roles of its children, in order, as a regex: "e" an
# expression the statement evaluates itself, "s" a statement nested in it
STATEMENT_LAYOUTS = {
    "CompoundStmt": "s*",
    "LabelStmt": "s",
    "DefaultStmt": "s",
    "CaseStmt": "es",
    "IfStmt": "ess?",
    "WhileStmt": "es",
    "SwitchStmt": "es",
    "ForStmt": "e{0,3}s",
}
EXPRESSION_KINDS = {
    "BinaryOperator", "CompoundAssignOperator", "UnaryOperator", "CallExpr",
    "DeclRefExpr", "ArraySubscriptExpr", "IntegerLiteral", "FloatingLiteral",
    "CharacterLiteral", "StringLiteral",
}
# the statements that nest none: each evaluates its own subtree
LEAF_STATEMENT_KINDS = EXPRESSION_KINDS | {
    "DeclStmt", "TypedefDecl", "ReturnStmt", "BreakStmt", "ContinueStmt", "NullStmt"}

# every statement keyword the parser dispatches on, and every statement kind
EVERY_STATEMENT = """\
int g;
void tick(void) { g++; return; }
int main() {
    typedef int word;
    word n = 3;
    for (int i = 0; i < n; i++) { if (i == 1) continue; if (i == 2) break; else tick(); }
    for (n = 0; ; ) break;
    for (;;) { break; }
    while (n) n--;
    switch (g) { case 1: g = 2; break; default: ; }
    done: g += 'c';
    "s";
    return g;
}
"""


def statement_kinds_with_checked_shapes(ast) -> set[str]:
    """Walk every function body's statements; check each one's expression and
    statement children against the layouts above, and return the kinds seen."""
    seen = set()
    for fn in function_definitions(ast):
        assert statement_parts(ast, fn) == ((), ())  # build_icfg writes the parameters
        stack = [ast.children(fn)[-1]]
        while stack:
            node = stack.pop()
            kind, children = ast.kind(node), ast.children(node)
            exprs, stmts = statement_parts(ast, node)
            seen.add(kind)
            if kind not in STATEMENT_LAYOUTS:
                assert kind in LEAF_STATEMENT_KINDS, kind
                assert (exprs, stmts) == ((node,), ()), kind
                continue
            assert exprs + stmts == children, kind
            roles = "e" * len(exprs) + "s" * len(stmts)
            assert re.fullmatch(STATEMENT_LAYOUTS[kind], roles), (kind, roles)
            expr_kinds = [ast.kind(e) for e in exprs]
            if kind == "ForStmt" and expr_kinds[:1] == ["DeclStmt"]:
                expr_kinds = expr_kinds[1:]  # for (int i = 0; ...)
            assert set(expr_kinds) <= EXPRESSION_KINDS, kind
            stack.extend(stmts)
    return seen


def test_statement_shapes_cover_every_statement_the_parser_emits():
    keywords = {t.text for t in tokenize(EVERY_STATEMENT) if t.kind == "kw"}
    assert set(_STATEMENT_KEYWORDS) <= keywords  # a new statement keyword needs a case here
    ast = parse_source(EVERY_STATEMENT)
    seen = statement_kinds_with_checked_shapes(ast)
    assert seen >= set(STATEMENT_LAYOUTS) | (LEAF_STATEMENT_KINDS - EXPRESSION_KINDS)
    jumps = ast.find("BreakStmt") + ast.find("ContinueStmt")
    assert all(ast.children(j) == () for j in jumps)  # so they record no accesses
    assert all(build_icfg(ast).accesses[j] == (set(), {}) for j in jumps)


def test_statement_shapes_hold_on_corpus():
    sources = sorted(CORPUS.glob("*.c"))
    assert len(sources) == 20
    for path in sources:
        statement_kinds_with_checked_shapes(parse_source(path.read_text()))


@settings(max_examples=100, deadline=None)
@given(c_programs())
def test_statement_shapes_hold_on_generated_programs(program):
    statement_kinds_with_checked_shapes(parse_source(program.source))


# ---------------------------------------------------------------------------
# reaching definitions


def assert_sorted_distinct_int_pairs(edges):
    assert all(type(edge) is tuple and len(edge) == 2 for edge in edges)
    assert all(type(src) is int and type(dst) is int for src, dst in edges)
    assert edges == sorted(set(edges))


def use_edges_into(ast, dfg, var):
    """(def node, use ref node) pairs for uses of the named variable."""
    return {(src, dst) for src, dst, name in named_edges(ast, dfg.edges) if name == var}


def test_reaching_straight_line_single_def():
    source = "int main() { int a; int b; a = 1; b = a; }"
    ast, icfg, dfg = pipeline(source)
    a_edges = use_edges_into(ast, dfg, "a")
    assign_a = ast.find("BinaryOperator", "=")[0]
    use_ref = [
        r for r in ast.find("DeclRefExpr", "a")
        if any(r in ast.walk(ast.find("BinaryOperator", "=")[1]) for _ in [0])
    ]
    assert len(a_edges) == 1
    ((src, dst),) = a_edges
    assert src == assign_a


def test_reaching_branch_join_two_defs():
    source = """\
int main() {
  int a; int c; int b;
  c = __VERIFIER_nondet_int();
  a = 1;
  if (c) a = 2;
  b = a;
}
"""
    ast, icfg, dfg = pipeline(source)
    assigns = ast.find("BinaryOperator", "=")
    a1, a2 = assigns[1], assigns[2]
    a_edges = use_edges_into(ast, dfg, "a")
    assert {src for src, _ in a_edges} == {a1, a2}
    assert len(a_edges) == 2


def test_reaching_loop_defs_reach_condition():
    source = """\
int main() {
  int i; int n;
  n = __VERIFIER_nondet_int();
  i = 0;
  while (i < n) { i = i + 1; }
  return i;
}
"""
    ast, icfg, dfg = pipeline(source)
    init = ast.find("BinaryOperator", "=")[1]
    body = ast.find("BinaryOperator", "=")[2]
    loop = find_stmt(ast, "WhileStmt")
    cond_ref = [
        r for r in ast.find("DeclRefExpr", "i")
        if r in set(ast.walk(ast.children(loop)[0]))
    ][0]
    a_edges = use_edges_into(ast, dfg, "i")
    assert (init, cond_ref) in a_edges
    assert (body, cond_ref) in a_edges


def test_reaching_matches_bruteforce_oracle_inline():
    for source in (
        "int main() { int a; int b; a = 1; b = a; }",
        TWO_FUNCTIONS,
        ALIAS_OF_RETURN,
        """\
int g;
int touch() { g = g + 1; return g; }
int main() { int t; g = 0; t = touch(); t = touch(); return t; }
""",
    ):
        ast, icfg, dfg = pipeline(source)
        assert set(named_edges(ast, dfg.edges)) == oracle_reaching_edges(ast, icfg)


def test_reaching_equals_set_pass_on_corpus():
    sources = sorted(CORPUS.glob("*.c"))
    assert len(sources) == 20
    for path in sources:
        ast, icfg, dfg = pipeline(path.read_text())
        assert_sorted_distinct_int_pairs(dfg.edges)
        named = named_edges(ast, dfg.edges)
        assert named == set_reaching_definitions(ast, icfg), path.name
        assert named == fifo_reaching_definitions(ast, icfg), path.name


@settings(max_examples=100, deadline=None)
@given(c_programs())
def test_reaching_matches_set_pass_and_path_oracle_on_generated_programs(program):
    for source in (program.unshadowed, program.source):
        ast, icfg, dfg = pipeline(source)
        assert_sorted_distinct_int_pairs(dfg.edges)
        named = named_edges(ast, dfg.edges)
        assert named == set_reaching_definitions(ast, icfg)
        assert named == fifo_reaching_definitions(ast, icfg)
    plain = parse_source(program.unshadowed)
    want = {(src, dst, program.renamed.get(var, var))
            for src, dst, var in oracle_reaching_edges(plain, build_icfg(plain))}
    assert set(named) == want  # dfg of program.source


def test_round_robin_pass_equals_fifo_pass_on_a_call_heavy_program():
    # nearly every CFG node sits on one ICFG cycle through return edges
    ast, icfg, dfg = pipeline(call_heavy_program())
    assert len(ast) > 4500
    assert_sorted_distinct_int_pairs(dfg.edges)
    assert named_edges(ast, dfg.edges) == fifo_reaching_definitions(ast, icfg)


def assert_walks_match_oracles(source):
    tokens = tokenize(source)
    ast = parse(tokens)
    assert ast.nodes == recursive_parse(tokens).nodes
    icfg, calls = wired(ast)
    assert (icfg, calls) == wired(ast, RecursiveWiring)
    walked = icfg.accesses
    assert sorted(walked) == oracle_cfg_nodes(ast)
    res = resolve_variables(ast)
    for n, got in walked.items():
        assert got == node_defs_uses(ast, res, n), n


def test_def_use_walk_matches_two_pass_oracle_on_corpus():
    sources = sorted(CORPUS.glob("*.c"))
    assert len(sources) == 20
    for path in sources:
        assert_walks_match_oracles(path.read_text())


def test_def_use_walk_scopes_shadowing_names():
    assert_walks_match_oracles("""\
int x;
int f(int x, int y) { x = y; { int y = x; x = y; } for (int x = 0; x < y; x++) y--; return x; }
int main() { x = 1; { int x = x + 1; x += 2; } switch (x) { case 1: { int x; x = 3; } default: x++; } return f(x, 2); }
""")


@settings(max_examples=100, deadline=None)
@given(c_programs())
def test_def_use_walk_matches_two_pass_oracle_on_generated_programs(program):
    assert_walks_match_oracles(program.source)
    assert_walks_match_oracles(program.unshadowed)


def operator_chain(op, terms):
    expr = f" {op} ".join(["x"] * terms)
    return f"int main() {{ int x; x = 1; if ({expr}) x = {expr}; return x; }}"


@pytest.mark.parametrize("op", ["&&", "+"])
def test_long_operator_chains_extract(op):
    # short enough for the recursive oracles, then far past the interpreter's
    # recursion limit, which used to end extraction with RecursionError
    assert_walks_match_oracles(operator_chain(op, 300))
    graph, diagnostics = extract(operator_chain(op, 10_000))
    assert diagnostics == []
    assert len(graph.node_kinds) > 40_000
    # x = 1 reaches all 20,000 reads of the chains; return x reads both stores
    assert len(graph.edge_sets["DFG"]) == 20_002


def test_parser_entry_points_raise_nesting_too_deep():
    # 200 parentheses are about 1,200 frames of the recursive parser
    source = "int main() { int x; x = " + "(" * 200 + "1" + ")" * 200 + "; return x; }"
    for entry in (parse_source, lambda text: parse(tokenize(text))):
        with pytest.raises(NestingTooDeep, match="^source nests too deeply to extract$"):
            entry(source)


def in_main(body):
    return "int main() { int x; x = 0; " + body + " return x; }"


NESTING_FORMS = {  # a program that nests d levels deep
    "braced if": lambda d: in_main("if (x) { " * d + "x = 1;" + " }" * d),
    "if": lambda d: in_main("if (x) " * d + "x = 1;"),
    "else if": lambda d: in_main("if (x) x = 1; " + "else if (x) x = 2; " * d),
    "while": lambda d: in_main("while (x) " * d + "x = 1;"),
    "for": lambda d: in_main("for (x = 0; x < 1; x = x + 1) " * d + "x = 1;"),
    "label": lambda d: in_main("".join(f"L{i}: " for i in range(d)) + "x = 1;"),
    "case": lambda d: in_main("switch (x) { " + "".join(f"case {i}: " for i in range(d))
                              + "x = 1; }"),
    "braces": lambda d: in_main("{ " * d + "x = 1;" + " }" * d),
    # the return edges look for the callee's last statement inside the braces
    "braces ending a callee": lambda d: ("void f() { int x; " + "{ " * d + "x = 1;" + " }" * d
                                         + " } int main() { f(); return 0; }"),
}


@pytest.mark.parametrize("form", NESTING_FORMS)
def test_the_deepest_program_the_parser_accepts_extracts(form):
    # extract_graph does not guard the ICFG walk, which must never run out of
    # stack where the parser did not. The bisection ends on the deepest
    # program the parser accepts, and a RecursionError in any probe fails it
    def extracts(depth):
        try:
            extract(NESTING_FORMS[form](depth))
        except NestingTooDeep:
            return False
        return True

    good, bad = 1, 2048
    assert extracts(good) and not extracts(bad)
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if extracts(mid) else (good, mid)


COMPUTED_CALLEES = (
    "int f(int a){return a;} "
    "int main(){int x; int *p; x=1; p=&x; f(x)(2); (*p)(x); return 0;}"
)


def assert_calls_match_call_site_oracle(source):
    ast = parse_source(source)
    icfg = build_icfg(ast)
    fn_by_name: dict[str, int] = {}
    for n in oracle_cfg_nodes(ast):
        if ast.kind(n) == "FunctionDecl":
            fn_by_name.setdefault(ast.text(n) or "", n)
    calls, unresolved = set(), []
    for n in oracle_cfg_nodes(ast):
        for name in oracle_call_sites(ast, n):
            if name in fn_by_name:
                calls.add((n, fn_by_name[name], "call"))
            else:
                unresolved.append(f"node {n}: unresolved call to {name or '<indirect>'}")
    assert set(tagged_edges(icfg, "call")) == calls
    assert [d for d in icfg.diagnostics if "unresolved call" in d] == unresolved
    assert {n for e in icfg.edges for n in e[:2]} <= icfg.accesses.keys()


def test_calls_match_call_site_oracle_on_corpus():
    sources = sorted(CORPUS.glob("*.c"))
    assert len(sources) == 20
    for path in sources:
        assert_calls_match_call_site_oracle(path.read_text())


@settings(max_examples=100, deadline=None)
@given(c_programs())
def test_calls_match_call_site_oracle_on_generated_programs(program):
    assert_calls_match_call_site_oracle(program.source)
    assert_calls_match_call_site_oracle(program.unshadowed)


def test_calls_nested_in_a_computed_callee_are_wired():
    assert_calls_match_call_site_oracle(COMPUTED_CALLEES)
    ast, icfg, dfg = pipeline(COMPUTED_CALLEES)
    assert icfg.pairs() == [(1, 4), (4, 19), (8, 10), (10, 12), (12, 15),
                            (15, 19), (19, 1), (19, 24), (24, 28)]
    assert icfg.diagnostics == ["node 19: unresolved call to <indirect>",
                                "node 24: unresolved call to <indirect>"]
    assert dfg.edges == [(1, 5), (12, 18), (12, 27)]


def test_helpers_load_as_an_unregistered_module():
    # The benchmark's output check loads the path-enumeration oracle this
    # way, without adding the module to sys.modules.
    spec = importlib.util.spec_from_file_location(
        "unregistered_helpers", Path(__file__).with_name("helpers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.oracle_reaching_edges)


def test_reaching_parameter_def_flows_from_header():
    ast, icfg, dfg = pipeline(TWO_FUNCTIONS)
    # f has no parameters; add a program that passes one through
    source = "int id(int v) { return v; }\nint main() { int r; r = id(3); return r; }"
    ast, icfg, dfg = pipeline(source)
    id_decl = [f for f in ast.find("FunctionDecl") if ast.text(f) == "id"][0]
    v_edges = use_edges_into(ast, dfg, "v")
    assert len(v_edges) == 1 and next(iter(v_edges))[0] == id_decl


# ---------------------------------------------------------------------------
# graph assembly


def test_assemble_empty_translation_unit():
    graph, _ = extract("")
    assert graph.num_nodes == 1
    assert all(not edges for edges in graph.edge_sets.values())


def test_assemble_ast_edge_count_is_nodes_minus_one():
    for source in (ALIAS_OF_RETURN, TWO_FUNCTIONS, "int main(){return 0;}"):
        graph, _ = extract(source)
        assert len(graph.edge_sets["AST"]) == graph.num_nodes - 1


def test_assemble_three_statement_straight_line_main():
    graph, _ = extract("int main() { int a; a = 1; a = 2; }")
    # two successor edges plus the main-return edge
    assert len(graph.edge_sets["ICFG"]) == 3


def test_assemble_alias_root_edge_to_err():
    ast = parse_source(ALIAS_OF_RETURN)
    err_decl = [f for f in ast.find("FunctionDecl") if ast.text(f) == "err"][0]
    graph, _ = extract(ALIAS_OF_RETURN)
    assert (0, err_decl) in graph.edge_sets["AST"]


def test_assemble_referential_integrity():
    graph, _ = extract(ALIAS_OF_RETURN)
    n = graph.num_nodes
    for edges in graph.edge_sets.values():
        for src, dst in edges:
            assert 0 <= src < n and 0 <= dst < n


def test_assemble_deterministic_serialization():
    one, _ = extract(ALIAS_OF_RETURN, graph_id="same")
    two, _ = extract(ALIAS_OF_RETURN, graph_id="same")
    assert serialize_graph(one) == serialize_graph(two)
    assert deserialize_graph(serialize_graph(one)).edge_sets == one.edge_sets


def test_assemble_graph_too_large():
    ast, icfg, dfg = pipeline(TWO_FUNCTIONS)
    with pytest.raises(GraphTooLarge):
        assemble_graph(ast, icfg, dfg, VOCAB, graph_id="x", property=PROP,
                       max_nodes=3)


def test_extract_checks_the_cap_before_the_analyses(monkeypatch):
    def fail(*args):
        raise AssertionError("analysis ran on a graph over the cap")

    monkeypatch.setattr(graph_build, "build_icfg", fail)
    monkeypatch.setattr(graph_build, "reaching_definitions", fail)
    with pytest.raises(GraphTooLarge):
        extract_graph(TWO_FUNCTIONS, VOCAB, graph_id="x", property=PROP, max_nodes=3)


def test_a_cap_above_the_graph_file_limit_is_refused(monkeypatch):
    # deserialize_graph refuses more than DEFAULT_MAX_NODES nodes, so no
    # larger cap may let a graph through
    ast, icfg, dfg = pipeline(TWO_FUNCTIONS)
    monkeypatch.setattr(graph_build, "tokenize", lambda source: 1 / 0)
    for cap in (DEFAULT_MAX_NODES + 1, 10 * DEFAULT_MAX_NODES):
        with pytest.raises(ValueError, match=f"max_nodes must be in 1..100000, got {cap}"):
            extract_graph(TWO_FUNCTIONS, VOCAB, graph_id="x", property=PROP, max_nodes=cap)
        with pytest.raises(ValueError, match=f"max_nodes must be in 1..100000, got {cap}"):
            assemble_graph(ast, icfg, dfg, VOCAB, graph_id="x", property=PROP, max_nodes=cap)
    graph = assemble_graph(ast, icfg, dfg, VOCAB, graph_id="x", property=PROP,
                           max_nodes=DEFAULT_MAX_NODES)
    assert graph.num_nodes == len(ast)


def test_assemble_unknown_kind_maps_to_reserved_index():
    tiny = TokenVocabulary(("Unknown", "TranslationUnit", "FunctionDecl"))
    ast, icfg, dfg = pipeline("int main(){return 0;}")
    graph = assemble_graph(ast, icfg, dfg, tiny, graph_id="x", property=PROP)
    assert graph.node_kinds[0] == 1      # TranslationUnit
    assert 0 in graph.node_kinds         # unmapped kinds fall back to Unknown


def test_corpus_wide_structural_invariants():
    files = sorted(CORPUS.glob("*.c"))
    assert len(files) == 20
    for path in files:
        graph, _ = extract(path.read_text(encoding="utf-8"), graph_id=path.stem)
        assert len(graph.edge_sets["AST"]) == graph.num_nodes - 1
        graph.validate()
        assert max(graph.node_kinds) < len(VOCAB), path.name
        # every AST kind the corpus produces is in the shipped vocabulary
        assert all(k > 0 for k in graph.node_kinds), path.name


@settings(max_examples=50, deadline=None)
@given(c_programs())
def test_extracted_graphs_are_valid_on_generated_programs(program):
    # assemble_graph does not validate what it builds; serialize_graph does
    graph, _ = extract(program.source)
    graph.validate()
    assert 0 <= min(graph.node_kinds) and max(graph.node_kinds) < len(VOCAB)
