import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_graph
from verisel.graphio import (
    EmptyStratumWarning,
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
    again = TokenVocabulary.from_manifest(vocab.to_manifest())
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
    key = lambda part: [inst.key for inst in part]
    assert [key(p) for p in first] == [key(p) for p in second]
    everything = [inst.key for part in first for inst in part]
    assert sorted(everything) == sorted(inst.key for inst in instances)
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
