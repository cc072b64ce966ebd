import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    oracle_deserialize_graph,
    oracle_serialize_graph,
    random_graph,
    vocabulary_manifest,
)
from verisel import frontend, graphio
from verisel.frontend import extract_graph
from verisel.graphio import (
    LABELS_HEADER,
    EmptyStratumWarning,
    GraphFileTooLarge,
    LabeledInstance,
    ProgramGraph,
    PropertyKind,
    SchemaError,
    TokenVocabulary,
    VerifierLabelRecord,
    build_instances,
    compute_label,
    deserialize_graph,
    read_labels_csv,
    serialize_graph,
    split_dataset,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def small_vocab(n):
    return TokenVocabulary(("Unknown",) + tuple(f"K{i}" for i in range(1, n)))


# ---------------------------------------------------------------------------
# vocabulary


def test_vocabulary_requires_unknown_first():
    with pytest.raises(ValueError):
        TokenVocabulary(("Foo", "Unknown"))
    with pytest.raises(ValueError):
        TokenVocabulary(("Unknown", "A", "A"))


def test_vocabulary_manifest_round_trip():
    vocab = TokenVocabulary.default()
    again = TokenVocabulary.from_manifest(vocabulary_manifest(vocab))
    assert again == vocab
    assert again.fingerprint() == vocab.fingerprint()
    assert vocab.index_of("NoSuchKind") == 0


def test_shipped_manifest_matches_builtin_vocabulary():
    from pathlib import Path

    manifest = Path(__file__).resolve().parent.parent / "data" / "vocabulary.txt"
    assert TokenVocabulary.from_manifest(
        manifest.read_text(encoding="utf-8")
    ) == TokenVocabulary.default()


def test_property_encoding_bijection():
    codes = {kind.encode() for kind in PropertyKind}
    assert codes == {0, 1, 2, 3}
    for kind in PropertyKind:
        assert PropertyKind.from_name(kind.value) is kind
    assert PropertyKind.from_name("reach_safety") is PropertyKind.REACH_SAFETY


@pytest.mark.parametrize("name, kind", [
    ("ReachSafety", PropertyKind.REACH_SAFETY),
    ("REACH_SAFETY", PropertyKind.REACH_SAFETY),
    ("reach-safety", PropertyKind.REACH_SAFETY),
    ("  Reach_Safety\n", PropertyKind.REACH_SAFETY),
    ("mem-safety", PropertyKind.MEM_SAFETY),
    ("MEMSAFETY", PropertyKind.MEM_SAFETY),
    ("termination", PropertyKind.TERMINATION),
    ("over_flow", PropertyKind.OVERFLOW),
    ("Over-Flow", PropertyKind.OVERFLOW),
    ("TERMINATION_", PropertyKind.TERMINATION),
])
def test_property_from_name_ignores_case_underscores_and_hyphens(name, kind):
    assert PropertyKind.from_name(name) is kind


@pytest.mark.parametrize("name", ["", "reach", "ReachSafety2", "reach safety", "Reach.Safety"])
def test_property_from_name_rejects_an_unknown_name(name):
    with pytest.raises(ValueError) as err:
        PropertyKind.from_name(name)
    assert str(err.value) == f"unknown property kind: {name!r}"


# ---------------------------------------------------------------------------
# serialization


def empty_graph():
    return ProgramGraph("empty", PropertyKind.REACH_SAFETY, [1],
                        {"AST": [], "ICFG": [], "DFG": []})


def test_serialize_round_trip_single_node():
    text = serialize_graph(empty_graph())
    assert serialize_graph(deserialize_graph(text)) == text


def test_serialize_endpoint_out_of_range():
    bad = ProgramGraph("bad", PropertyKind.TERMINATION, [1, 2],
                       {"AST": [(0, 2)], "ICFG": [], "DFG": []})
    with pytest.raises(SchemaError, match="edge endpoint out of range"):
        serialize_graph(bad)


def test_deserialize_names_offending_field():
    with pytest.raises(SchemaError, match="num_nodes"):
        deserialize_graph(
            '{"id": "x", "property": "Overflow", "num_nodes": 3,'
            ' "node_kinds": [0], "edges": {"AST": [], "ICFG": [], "DFG": []}}'
        )
    with pytest.raises(SchemaError, match="edges.ICFG"):
        deserialize_graph(
            '{"id": "x", "property": "Overflow", "num_nodes": 1,'
            ' "node_kinds": [0], "edges": {"AST": [], "ICFG": [[0]], "DFG": []}}'
        )


def test_deserialize_a_document_nested_too_deeply_is_a_schema_error():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(SchemaError, match="document: .*maximum recursion depth"):
        deserialize_graph(f'{{"id": "x", "nodes": {deep}}}')


def test_serialize_round_trip_randomized():
    rng = np.random.default_rng(42)
    for trial in range(100):
        graph = random_graph(rng, graph_id=f"g{trial}")
        text = serialize_graph(graph)
        back = deserialize_graph(text)
        assert back.id == graph.id
        assert back.property == graph.property
        assert back.node_kinds == graph.node_kinds
        assert {k: sorted(v) for k, v in back.edge_sets.items()} == {
            k: sorted(v) for k, v in graph.edge_sets.items()
        }
        assert serialize_graph(back) == text  # canonicality


@st.composite
def graphs(draw):
    """Valid graphs: no nodes, edge-free ones, empty sets, any Unicode id."""
    n = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edge_sets = {name: draw(st.lists(pair, max_size=12 if n else 0, unique=True))
                 for name in ("AST", "ICFG", "DFG")}
    return ProgramGraph(draw(st.text(max_size=12)), draw(st.sampled_from(PropertyKind)),
                        kinds, edge_sets)


@settings(max_examples=200, deadline=None)
@given(graph=graphs())
def test_writer_equals_json_module_oracle(graph):
    text = serialize_graph(graph)
    assert text == oracle_serialize_graph(graph)
    assert serialize_graph(deserialize_graph(text)) == text


def test_writer_equals_oracle_on_non_ascii_and_empty_cases():
    cases = [
        ProgramGraph("héllo \u2603 \U0001f600 \"q\" \\", PropertyKind.OVERFLOW, [3, 0],
                     {"AST": [(1, 0)], "ICFG": [], "DFG": [(0, 0), (0, 1)]}),
        ProgramGraph("", PropertyKind.MEM_SAFETY, [], {"AST": [], "ICFG": [], "DFG": []}),
        empty_graph(),
    ]
    for graph in cases:
        assert serialize_graph(graph) == oracle_serialize_graph(graph)


def outcome(read, text):
    """("ok", re-serialized graph) or ("error", SchemaError message)."""
    try:
        return "ok", serialize_graph(read(text))
    except SchemaError as err:
        return "error", str(err)


def base_document():
    return {"id": "g", "property": "ReachSafety", "num_nodes": 3, "node_kinds": [1, 2, 0],
            "edges": {"AST": [[0, 1], [0, 2]], "ICFG": [[1, 2]], "DFG": []}}


ODD_VALUES = st.one_of(
    st.booleans(), st.floats(allow_nan=False, allow_infinity=False), st.none(),
    st.integers(-2, 4), st.text(max_size=3), st.builds(list), st.builds(dict),
    st.lists(st.integers(-1, 3), max_size=4),
)


@st.composite
def malformed_documents(draw):
    """A valid document with one to three fields broken."""
    doc = base_document()
    for _ in range(draw(st.integers(1, 3))):
        field_ = draw(st.sampled_from(
            ["id", "property", "num_nodes", "node_kinds", "edges", "set", "pair", "end"]))
        if field_ in ("id", "property", "num_nodes", "node_kinds", "edges"):
            if draw(st.booleans()):
                doc.pop(field_, None)
            else:
                doc[field_] = draw(ODD_VALUES)
        elif not isinstance(doc.get("edges"), dict):
            continue
        elif field_ == "set":
            name = draw(st.sampled_from(["AST", "ICFG", "DFG", "XYZ"]))
            if draw(st.booleans()):
                doc["edges"].pop(name, None)
            else:
                doc["edges"][name] = draw(ODD_VALUES)
        else:
            name = draw(st.sampled_from(["AST", "ICFG", "DFG"]))
            pairs = doc["edges"].get(name)
            if not isinstance(pairs, list):
                continue
            if field_ == "pair":
                item = draw(st.one_of(
                    ODD_VALUES, st.lists(st.integers(-1, 3), min_size=1, max_size=1),
                    st.lists(st.integers(-1, 3), min_size=3, max_size=3),
                    st.lists(st.one_of(st.booleans(), st.floats(0, 2), st.integers(-1, 3)),
                             min_size=2, max_size=2)))
                pairs.insert(draw(st.integers(0, len(pairs))), item)
            elif pairs and isinstance(pairs[0], list) and pairs[0]:
                pairs[0][0] = draw(ODD_VALUES)
    return json.dumps(doc) if draw(st.integers(0, 9)) else draw(
        st.sampled_from(["", "[]", "{", "3", json.dumps(doc)[:-1]]))


@settings(max_examples=400, deadline=None)
@given(text=malformed_documents())
def test_reader_matches_item_by_item_oracle(text):
    got = outcome(deserialize_graph, text)
    try:
        num_nodes = json.loads(text).get("num_nodes")
    except (ValueError, AttributeError):
        num_nodes = None
    if isinstance(num_nodes, bool) and "id" in json.loads(text):
        # the oracle takes a bool num_nodes for an int; the reader does not
        assert got[0] == "error"
    else:
        assert got == outcome(oracle_deserialize_graph, text)


def test_reader_rejects_bool_num_nodes():
    doc = base_document() | {"num_nodes": True, "node_kinds": [1]}
    doc["edges"] = {"AST": [], "ICFG": [], "DFG": []}
    with pytest.raises(SchemaError, match="num_nodes: expected .*, got bool"):
        deserialize_graph(json.dumps(doc))
    assert oracle_deserialize_graph(json.dumps(doc)).num_nodes == 1


def test_reader_rejects_a_graph_over_the_node_cap_before_reading_its_nodes(monkeypatch):
    assert frontend.DEFAULT_MAX_NODES == graphio.DEFAULT_MAX_NODES
    text = json.dumps(base_document())
    monkeypatch.setattr(graphio, "DEFAULT_MAX_NODES", 3)
    assert deserialize_graph(text).num_nodes == 3
    monkeypatch.setattr(graphio, "DEFAULT_MAX_NODES", 2)
    with pytest.raises(GraphFileTooLarge, match="num_nodes: 3 nodes, cap is 2"):
        deserialize_graph(text)
    # the cap is checked before the node kinds, which here do not match
    with pytest.raises(GraphFileTooLarge):
        deserialize_graph(json.dumps(base_document() | {"num_nodes": 4}))
    assert issubclass(GraphFileTooLarge, SchemaError)


# sha256 of the corpus graph files as `verisel extract` wrote them before the
# direct writer; the benchmark's digests cover graph content, not file bytes
CORPUS_GRAPH_SHA256 = {
    "01_straight_line": "b8dba51512853b9252c19c6d90be1e8c0b11a5b04a580f9354e9f560aed576f5",
    "02_branch_join": "3ae5c8b08d122a4c253a4991a4cb0015aa6ba982a5ea91d29661e778843b9de5",
    "03_if_else": "0d1e4057863928d15bf4fd67cfaa6a71a6f0f385288f114fce311a08bcb875e8",
    "04_while_loop": "8767cdb08cbc738ff39d04513b7a6f14087fb10963902f38a7fb1e453d9bcc4e",
    "05_for_loop": "0ed6e51d6e98235a12e68b5cdf18df8e27cb44a679620738e3d622ab4ae38837",
    "06_two_functions": "08287f0c4de24b68ba5869ea0e2dfe07e2613e9a7d4fd8661cae2a64bfe17c33",
    "07_alias_of_return": "704c6013a5c74a71438afabd0dbbe3d6b9a1ef27f1be7183522376163741eb14",
    "08_switch_fallthrough": "38ccf965e49755348ee5bf7e35322e0e330f0533a8fe5cd82c6b23b8dbf7aba5",
    "09_break_continue": "ee379030f7b8eabdb1dc5688320d1b3793d4e734266c19bfd3c10d829087b883",
    "10_nested_loops": "968352dba2ae05614529edf206a865fe631891e9d7ce3e7e56015e5bb0410f0e",
    "11_typedef": "20c0d3086cbff6de323739f42f8fc6881ffb552ba9dc069c0d345b3bb8cd5224",
    "12_global_counter": "0f0fd8b6477a26f2791b441d8aa7e62ca16f4bc56ccfd1d354f1a7359c973d8d",
    "13_pointer_read": "47215dc06d975b9e2dbb26b401a8f88e005f4a90a7f5e37c95434595172042fb",
    "14_logical_ops": "1365b67b0021ecb51945d2a083adb43a3183380c18cb79f5d6ea9cbce9cb70b8",
    "15_label_chain": "0f71dd9f1df4ed68d8cd21bd43295500281d2debfd0b99b6758d8b7262722aea",
    "16_else_if_chain": "4a66c4b122dce0d1d74a6638e531936c491917352fa5fe57a7ae4c624b7afaaa",
    "17_recursive_sum": "9f41f50f93508e028603f6bc83cb2bc7165175d85f4dd0dfeccfbc0c8799625c",
    "18_compound_assign": "7e46b8e4005f0a2109e70e3cfdf909f2ce613b96220b24764dc768fb0759d68d",
    "19_nondet_guard": "70e1533f141ddfd1bac35050096e37d5c7427a9a43fcd8ad2883724230b3328a",
    "20_mixed_control": "71095a8b04e3f285b160d9976d1880f1ffbcbc69b23e5e06e9e5d60aa1770db9",
}


def test_corpus_graph_files_keep_their_bytes():
    vocab = TokenVocabulary.default()
    got = {}
    for path in sorted(CORPUS.glob("*.c")):
        graph, _ = extract_graph(path.read_text(encoding="utf-8"), vocab,
                                 graph_id=path.stem, property=PropertyKind.REACH_SAFETY)
        text = serialize_graph(graph)
        assert text == oracle_serialize_graph(graph)
        got[path.stem] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert got == CORPUS_GRAPH_SHA256


# ---------------------------------------------------------------------------
# labels


def record(score=2.0, t=0.0, outcome="correct", label=None):
    return VerifierLabelRecord("p", PropertyKind.REACH_SAFETY, "v", score, t,
                               outcome, label)


def test_compute_label_zero_time():
    assert compute_label(record(score=2.0, t=0.0), 900.0, 1.0) == 2.0


def test_compute_label_full_penalty():
    assert compute_label(record(score=2.0, t=900.0), 900.0, 1.0) == 1.0


def test_compute_label_caps_time():
    assert compute_label(record(score=2.0, t=5000.0), 900.0, 1.0) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=2000.0),
    st.floats(min_value=0.0, max_value=2000.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_label_monotone_in_time(t1, t2, weight):
    lo, hi = sorted((t1, t2))
    a = compute_label(record(t=lo), 900.0, weight)
    b = compute_label(record(t=hi), 900.0, weight)
    assert b <= a + 1e-12


@pytest.mark.parametrize("time_limit, penalty_weight, message", [
    (float("nan"), 1.0, "time_limit must be positive and finite"),
    (float("inf"), 1.0, "time_limit must be positive and finite"),
    (0.0, 1.0, "time_limit must be positive and finite"),
    (900.0, float("nan"), "penalty_weight must be finite"),
    (900.0, float("inf"), "penalty_weight must be finite"),
    (900.0, float("-inf"), "penalty_weight must be finite"),
])
def test_label_formula_needs_finite_parameters(time_limit, penalty_weight, message):
    graph = ProgramGraph("p", PropertyKind.REACH_SAFETY, [0], {"AST": [], "ICFG": [], "DFG": []})
    # checked before any record is read, so precomputed labels do not hide it
    for rec in (record(), record(label=1.0)):
        with pytest.raises(ValueError, match=message):
            build_instances([graph], [rec], ["v"], time_limit=time_limit,
                            penalty_weight=penalty_weight)
    with pytest.raises(ValueError, match=message):
        compute_label(record(), time_limit, penalty_weight)


CSV_TEXT = """program_id,property,verifier,svcomp_score,cpu_seconds,outcome
p1,ReachSafety,v1,2,1.5,correct
p1,ReachSafety,v2,0,900,unknown
"""

CSV_WITH_LABEL = """program_id,property,verifier,svcomp_score,cpu_seconds,outcome,label
p1,Termination,v1,2,10,correct,1.75
"""


def test_read_labels_csv():
    records = read_labels_csv(CSV_TEXT)
    assert len(records) == 2
    assert records[0].verifier == "v1"
    assert records[1].outcome == "unknown"
    assert records[0].label is None


def test_read_labels_rejects_duplicates_and_bad_header():
    dup = CSV_TEXT + "p1,ReachSafety,v1,1,1,correct\n"
    with pytest.raises(SchemaError, match="duplicate"):
        read_labels_csv(dup)
    with pytest.raises(SchemaError, match="header"):
        read_labels_csv("a,b,c\n1,2,3\n")


def test_precomputed_label_bypasses_formula():
    records = read_labels_csv(CSV_WITH_LABEL)
    graph = ProgramGraph("p1", PropertyKind.TERMINATION, [1],
                         {"AST": [], "ICFG": [], "DFG": []})
    inst, = build_instances([graph], records, ["v1"])
    assert inst.labels == [1.75]  # identity path, formula not applied
    assert inst.successes == [True]


def test_build_instances_missing_record():
    graph = ProgramGraph("p9", PropertyKind.OVERFLOW, [1],
                         {"AST": [], "ICFG": [], "DFG": []})
    with pytest.raises(KeyError):
        build_instances([graph], read_labels_csv(CSV_TEXT), ["v1"])


def test_build_instances_rejects_a_repeated_verifier():
    graph = ProgramGraph("p1", PropertyKind.REACH_SAFETY, [1],
                         {"AST": [], "ICFG": [], "DFG": []})
    with pytest.raises(ValueError, match="distinct names"):
        build_instances([graph], read_labels_csv(CSV_TEXT), ["v1", "v2", "v1"])


@pytest.mark.parametrize("column, row", [
    ("svcomp_score", "p1,ReachSafety,v2,{},900,unknown,"),
    ("cpu_seconds", "p1,ReachSafety,v2,0,{},unknown,"),
    ("label", "p1,ReachSafety,v2,0,900,unknown,{}"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_labels_rejects_a_value_that_is_not_finite(column, row, value):
    text = (",".join(LABELS_HEADER) + ",label\n"
            "p1,ReachSafety,v1,2,1.5,correct,\n" + row.format(value) + "\n")
    with pytest.raises(SchemaError, match=f"line 3: {column} must be finite"):
        read_labels_csv(text)


# ---------------------------------------------------------------------------
# splitting


def make_instances(count, prop=PropertyKind.REACH_SAFETY, prefix="p"):
    out = []
    for i in range(count):
        graph = ProgramGraph(f"{prefix}{i:03d}", prop, [1],
                             {"AST": [], "ICFG": [], "DFG": []})
        out.append(LabeledInstance(graph, [0.0], [False]))
    return out


def test_split_sizes_80_10_10():
    train, val, test = split_dataset(make_instances(10), (0.8, 0.1, 0.1), seed=1)
    assert (len(train), len(val), len(test)) == (8, 1, 1)


def test_split_sizes_competition_18_2_80():
    train, val, test = split_dataset(make_instances(100), (0.18, 0.02, 0.80), seed=1)
    assert (len(train), len(val), len(test)) == (18, 2, 80)


def test_split_deterministic_and_partitioning():
    instances = make_instances(23) + make_instances(17, PropertyKind.TERMINATION, "t")
    first = split_dataset(instances, (0.6, 0.2, 0.2), seed=9)
    second = split_dataset(instances, (0.6, 0.2, 0.2), seed=9)
    key = lambda part: [(inst.graph.id, inst.graph.property.value) for inst in part]
    assert [key(p) for p in first] == [key(p) for p in second]
    everything = [k for part in first for k in key(part)]
    assert sorted(everything) == sorted(key(instances))
    assert len(set(everything)) == len(everything)


def test_split_stratified_within_one():
    counts = {PropertyKind.REACH_SAFETY: 57, PropertyKind.TERMINATION: 19,
              PropertyKind.MEM_SAFETY: 8, PropertyKind.OVERFLOW: 4}
    instances = []
    for prop, n in counts.items():
        instances += make_instances(n, prop, prop.value[:3].lower())
    ratios = (0.8, 0.1, 0.1)
    parts = split_dataset(instances, ratios, seed=3)
    for prop, total in counts.items():
        for part, ratio in zip(parts, ratios):
            got = sum(1 for inst in part if inst.graph.property is prop)
            assert abs(got - ratio * total) < 1.0 + 1e-9


def test_split_warns_on_tiny_stratum():
    instances = make_instances(2, PropertyKind.OVERFLOW)
    with pytest.warns(EmptyStratumWarning):
        split_dataset(instances, (0.8, 0.1, 0.1), seed=0)


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError):
        split_dataset(make_instances(5), (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError):
        split_dataset(make_instances(5), (1.2, -0.1, -0.1), seed=0)
