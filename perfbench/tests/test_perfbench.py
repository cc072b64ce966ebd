"""The benchmark's own tests: generator determinism, labels, metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from generator import (  # noqa: E402
    LABEL_NOISE, Shape, generate_program, label_class, label_table, pick_noisy,
    source_features,
)
from run import END_TO_END_UNITS, MIN_PASSES, PER_LAYER_EXTRA  # noqa: E402
from tracing import LAYER_METRICS, Site, resolve  # noqa: E402
from workloads import CORPUS, PLANS, RANK_CALLS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def programs(plan, seed):
    groups = (("train", plan.train), ("heldout", plan.heldout),
              ("interproc", plan.extract_only))
    return {f"{group}-{i:03d}": generate_program(
                shape, f"{plan.name}:layout:{group}:{i}", f"{plan.name}:{seed}:{group}:{i}")
            for group, shapes in groups for i, shape in enumerate(shapes)}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_same_seed_same_bytes(name):
    plan = PLANS[name]
    first, again, other = programs(plan, 7), programs(plan, 7), programs(plan, 8)
    assert first == again
    assert first != other
    noisy = set(pick_noisy(list(first), "layout"))
    assert label_table(first, noisy, "s") == label_table(again, noisy, "s")


def test_layout_fixes_structure_and_seed_changes_operands():
    shape = Shape(functions=2, statements=12, variables=3, fan_in=1, loop_depth=2)
    a = generate_program(shape, "layout", "seed-a")
    b = generate_program(shape, "layout", "seed-b")
    assert a != b
    keywords = re.compile(r"\b(if|else|while|for|return|f\d+)\b")
    assert keywords.findall(a) == keywords.findall(b)
    assert label_class(a) == label_class(b)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_generated_programs_extract_cleanly(name):
    from verisel.frontend import build_icfg, parse_source
    from verisel.frontend.graph_build import extract_graph
    from verisel.graphio import PropertyKind, TokenVocabulary

    vocab = TokenVocabulary.default()
    for pid, source in programs(PLANS[name], 3).items():
        if len(source) > 20_000:  # parse only: reaching definitions take seconds
            assert not build_icfg(parse_source(source)).diagnostics, pid
            continue
        _, diagnostics = extract_graph(source, vocab, graph_id=pid,
                                       property=PropertyKind.REACH_SAFETY)
        assert diagnostics == [], pid


def test_shapes_reach_every_label_class():
    small = programs(PLANS["corpus-cli"], 0)
    assert {label_class(s) for s in small.values()} == {"loop", "call", "plain"}


def test_source_features_on_the_corpus():
    features = {p.stem: source_features(p.read_text(encoding="utf-8"))
                for p in CORPUS.glob("*.c")}
    assert features["01_straight_line"] == (False, False)
    assert features["10_nested_loops"] == (True, False)
    assert features["04_while_loop"] == (True, True)  # __VERIFIER_nondet_int()
    assert features["06_two_functions"] == (False, True)
    assert features["20_mixed_control"] == (True, True)


def test_noise_is_a_fixed_share():
    ids = [f"p{i}" for i in range(20)]
    assert len(pick_noisy(ids, "x")) == round(LABEL_NOISE * 20)
    assert pick_noisy(ids, "x") == pick_noisy(list(reversed(ids)), "x")


def test_metric_names_and_units_follow_the_grammar():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    for workload in BENCH["workloads"]:
        assert NAME.match(workload["name"]) and len(workload["why"]) <= 200
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(PLANS)


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END_UNITS
    code = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    code.update(PER_LAYER_EXTRA)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == code
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def test_fewest_passes_give_a_hundred_rank_samples():
    assert MIN_PASSES * RANK_CALLS >= 100


def test_reshaped_or_missing_site_is_not_wrapped():
    assert resolve(Site("verisel.model", "gat_layer", "x",
                        ("states", "edges", "params", "slope", "message_mask",
                         "allowed_mask"))) is not None
    assert resolve(Site("verisel.model", "gat_layer", "x", ("states", "edges"))) is None
    assert resolve(Site("verisel.model", "no_such_function", "x", ())) is None
    assert resolve(Site("verisel.no_such_module", "f", "x", ())) is None
