import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from helpers import permuted_graph
from verisel.cli import apply_env_overrides, build_parser, load_run_config, main
from verisel.explain import explain, top_m_edges
from verisel.graphio import (
    CONFIG_KEYS,
    RECORD,
    REQUIRED,
    PropertyKind,
    TokenVocabulary,
    build_instances,
    load_graph,
    load_labels,
    save_graph,
)
from verisel.model import ModelConfig, init_parameters, load_model, predict, save_model
from verisel.trainer import TrainConfig, evaluate_rankings

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
README = CORPUS.parent / "README.md"
VOCAB = TokenVocabulary.default()
PORTFOLIO = ("v0", "v1", "v2")


def labels_csv_for(graph_ids, path: Path, prop="ReachSafety"):
    rng = np.random.default_rng(0)
    rows = ["program_id,property,verifier,svcomp_score,cpu_seconds,outcome"]
    for gid in graph_ids:
        outcomes = ["correct", "correct", "unknown"]
        rng.shuffle(outcomes)
        for j, verifier in enumerate(PORTFOLIO):
            score = 2.0 if outcomes[j] == "correct" else 0.0
            rows.append(
                f"{gid},{prop},{verifier},{score},{float(rng.integers(1, 600))},"
                f"{outcomes[j]}"
            )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def flag_cases(*rows):
    """(flag, value, message) rows as cases named ``flag=value``, so a
    message change renames no case."""
    return [pytest.param(*row, id=f"{row[0]}={row[1]}") for row in rows]


def run_config(path: Path, **overrides):
    config = {
        "portfolio": list(PORTFOLIO),
        "model": {"num_gat_layers": 1, "gat_width": 4, "pool_hidden": [4, 2]},
        "train": {"epochs": 2, "initial_lr": 1e-3, "seed": 0},
        "split": {"ratios": [0.6, 0.2, 0.2], "seed": 1},
        "penalty": {"time_limit": 900.0, "penalty_weight": 1.0},
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.fixture()
def extracted(tmp_path):
    out = tmp_path / "graphs"
    files = sorted(str(p) for p in CORPUS.glob("*.c"))[:5]
    code = main(["extract", *files, "-o", str(out)])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# extract


def test_extract_single_file_to_exact_path(tmp_path, capsys):
    target = tmp_path / "one.json"
    code = main(["extract", str(CORPUS / "01_straight_line.c"), "-o", str(target)])
    assert code == 0
    graph = load_graph(target)
    assert graph.id == "01_straight_line"
    assert graph.property is PropertyKind.REACH_SAFETY
    stats = capsys.readouterr().out
    assert "count" in stats and "mean_nodes" in stats


def test_extract_corpus_stats_match_recomputation(tmp_path, capsys):
    out = tmp_path / "graphs"
    files = sorted(str(p) for p in CORPUS.glob("*.c"))
    code = main(["extract", *files, "-o", str(out), "--json"])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    graphs = [load_graph(p) for p in sorted(out.glob("*.json"))]
    assert len(graphs) == 20
    nodes = [g.num_nodes for g in graphs]
    edges = [g.num_edges() for g in graphs]
    overall = stats["overall"]
    assert overall["count"] == 20
    assert overall["max_nodes"] == max(nodes)
    assert overall["mean_nodes"] == pytest.approx(float(np.mean(nodes)))
    assert overall["max_edges"] == max(edges)
    assert overall["mean_edges"] == pytest.approx(float(np.mean(edges)))
    assert stats["ReachSafety"]["count"] == 20


def test_extract_mixed_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int main(){goto L;}", encoding="utf-8")
    out = tmp_path / "graphs"
    code = main([
        "extract", str(CORPUS / "01_straight_line.c"), str(bad), "-o", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "bad.c" in captured.err
    assert (out / "01_straight_line.json").exists()
    assert not (out / "bad.json").exists()


def test_extract_refuses_sources_that_share_a_stem(tmp_path, capsys):
    copy = tmp_path / "b" / "01_straight_line.c"
    copy.parent.mkdir()
    copy.write_text("int main(){ return 0; }", encoding="utf-8")
    first = CORPUS / "01_straight_line.c"
    out = tmp_path / "graphs"
    code = main(["extract", str(CORPUS / "02_branch_join.c"), str(first), str(copy),
                 "-o", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert f"{first} and {copy} would both write 01_straight_line.json" in captured.err
    assert captured.out == ""
    assert not out.exists()  # refused before anything is extracted


def test_extract_refuses_a_json_output_for_several_sources(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["extract", str(CORPUS / "01_straight_line.c"),
                 str(CORPUS / "02_branch_join.c"), "-o", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert f"-o {out} names a graph file, but 2 sources need an output directory" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_extract_skips_a_source_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_bytes(b"int main(){ /* \xff */ return 0; }\n")
    out = tmp_path / "graphs"
    code = main(["extract", str(CORPUS / "01_straight_line.c"), str(bad),
                 str(CORPUS / "02_branch_join.c"), "-o", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert f"{bad}: 'utf-8' codec can't decode byte 0xff" in captured.err
    assert sorted(p.name for p in out.iterdir()) == [
        "01_straight_line.json", "02_branch_join.json"]
    assert "overall      2" in captured.out


@pytest.mark.parametrize("body", [  # each far past the interpreter's recursion limit
    "if (x) { " * 1_000 + "x = 1;" + " }" * 1_000,
    "x = " + "(" * 1_000 + "1" + ")" * 1_000 + ";",
    "if (x == 0) x = 1; " + " ".join(f"else if (x == {i}) x = {i};" for i in range(1, 2_000)),
], ids=["blocks", "parentheses", "else-if"])
def test_extract_skips_a_source_nested_too_deeply_and_goes_on(tmp_path, capsys, body):
    deep = tmp_path / "deep.c"
    deep.write_text(f"int main() {{ int x; x = 0; {body} return x; }}", encoding="utf-8")
    out = tmp_path / "graphs"
    code = main(["extract", str(CORPUS / "01_straight_line.c"), str(deep),
                 str(CORPUS / "02_branch_join.c"), "-o", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert f"{deep}: source nests too deeply to extract" in captured.err
    assert sorted(p.name for p in out.iterdir()) == [
        "01_straight_line.json", "02_branch_join.json"]
    assert "overall      2" in captured.out


def test_extract_reports_unresolved_calls_to_stderr(tmp_path, capsys):
    out = tmp_path / "graphs"
    code = main(["extract", str(CORPUS / "02_branch_join.c"), "-o", str(out)])
    assert code == 0
    assert "__VERIFIER_nondet_int" in capsys.readouterr().err


def test_extract_respects_property_flag(tmp_path):
    target = tmp_path / "g.json"
    main(["extract", str(CORPUS / "04_while_loop.c"), "-o", str(target),
          "--property", "Termination"])
    assert load_graph(target).property is PropertyKind.TERMINATION


@pytest.mark.parametrize("command", ["extract", "rank"])
def test_unknown_property_is_usage_error(tmp_path, capsys, command):
    # refused while the arguments are parsed, before any file is read (rank's
    # missing model file would be a runtime failure, exit 1)
    target = tmp_path / "g.json"
    argv = {
        "extract": ["extract", str(CORPUS / "01_straight_line.c"), "-o", str(target)],
        "rank": ["rank", "--model", str(tmp_path / "missing.bin"), "--graph", str(target)],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--property", "Foo"])
    assert excinfo.value.code == 2
    assert "--property: unknown property kind: 'Foo'" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_extract_max_nodes_below_one_is_usage_error(tmp_path, limit, capsys):
    # refused before the output directory is made
    for target in (tmp_path / "g.json", tmp_path / "graphs"):
        with pytest.raises(SystemExit) as excinfo:
            main(["extract", str(CORPUS / "01_straight_line.c"), "-o", str(target),
                  "--max-nodes", limit])
        assert excinfo.value.code == 2
        assert (f"--max-nodes: max_nodes must be in 1..100000, got {limit}\n"
                in capsys.readouterr().err)
        assert not target.exists()


@pytest.mark.parametrize("limit", ["100001", "200000"])
def test_extract_max_nodes_above_the_graph_file_cap_is_usage_error(tmp_path, limit, capsys):
    # a graph over DEFAULT_MAX_NODES could be written but never loaded again
    for target in (tmp_path / "graphs", tmp_path / "g.json"):
        with pytest.raises(SystemExit) as excinfo:
            main(["extract", str(CORPUS / "01_straight_line.c"), "-o", str(target),
                  "--max-nodes", limit])
        assert excinfo.value.code == 2
        assert (f"--max-nodes: max_nodes must be in 1..100000, got {limit}\n"
                in capsys.readouterr().err)
        assert not target.exists()
    assert main(["extract", str(CORPUS / "01_straight_line.c"), "-o", str(target),
                 "--max-nodes", "100000"]) == 0
    assert load_graph(target).num_nodes > 0


# ---------------------------------------------------------------------------
# train


def test_train_writes_model_and_history(tmp_path, extracted, capsys):
    ids = [p.stem for p in sorted(extracted.glob("*.json"))]
    labels = labels_csv_for(ids, tmp_path / "labels.csv")
    config = run_config(tmp_path / "config.json")
    model_path = tmp_path / "model.bin"
    history_path = tmp_path / "history.json"
    code = main([
        "train", "--config", str(config), "--graphs", str(extracted),
        "--labels", str(labels), "-o", str(model_path),
        "--history", str(history_path),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["epochs_run"] == 2
    assert summary["split_sizes"] == [3, 1, 1]
    params = load_model(model_path)
    assert params.portfolio == PORTFOLIO
    history = json.loads(history_path.read_text())
    assert len(history["epochs"]) == 2


def test_train_seed_reproducible(tmp_path, extracted):
    ids = [p.stem for p in sorted(extracted.glob("*.json"))]
    labels = labels_csv_for(ids, tmp_path / "labels.csv")
    config = run_config(tmp_path / "config.json")
    one = tmp_path / "one.bin"
    two = tmp_path / "two.bin"
    for target in (one, two):
        assert main([
            "train", "--config", str(config), "--graphs", str(extracted),
            "--labels", str(labels), "-o", str(target), "--seed", "5",
        ]) == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("seed, message", [
    ("-1", "train.seed must be >= 0, got -1"),
    ("x", 'train.seed must be an integer, got "x"'),
], ids=["-1", "x"])
def test_train_bad_seed_flag_is_usage_error(tmp_path, capsys, seed, message):
    config = run_config(tmp_path / "config.json")
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--config", str(config), "--graphs", str(tmp_path),
              "--labels", str(tmp_path / "labels.csv"), "-o", str(tmp_path / "m.bin"),
              "--seed", seed])
    assert excinfo.value.code == 2
    assert f"--seed: {message}" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "--seed", "-1", "train.seed must be >= 0, got -1"),
    ("evaluate", "--time-limit", "NaN", "penalty.time_limit must be positive and finite, got NaN"),
    ("evaluate", "--penalty-weight", "-Infinity",
     "penalty.penalty_weight must be finite, got -Infinity"),
], ids=["--seed", "--time-limit", "--penalty-weight"])
def test_a_flag_and_its_config_key_share_one_rule(tmp_path, capsys, monkeypatch,
                                                  command, flag, value, message):
    # one value as the flag, then as the VERISEL_* override of the key it feeds
    config, model = run_config(tmp_path / "config.json"), tmp_path / "m.bin"
    data = ["--graphs", str(tmp_path), "--labels", str(tmp_path / "labels.csv")]
    train = ["train", "--config", str(config), "-o", str(model), *data]
    argv = train if command == "train" else ["evaluate", "--model", str(model), *data]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, f"{flag}={value}"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"verisel {command}: error: argument {flag}: {message}")
    key = message.split(" ")[0]
    monkeypatch.setenv("VERISEL_" + key.replace(".", "_").upper(), value)
    assert main(train) == 2
    assert capsys.readouterr().err == f"error: config: {message}\n"
    assert not model.exists()


def test_train_env_override_changes_epochs(tmp_path, extracted, capsys, monkeypatch):
    ids = [p.stem for p in sorted(extracted.glob("*.json"))]
    labels = labels_csv_for(ids, tmp_path / "labels.csv")
    config = run_config(tmp_path / "config.json")
    monkeypatch.setenv("VERISEL_TRAIN_EPOCHS", "1")
    code = main([
        "train", "--config", str(config), "--graphs", str(extracted),
        "--labels", str(labels), "-o", str(tmp_path / "m.bin"),
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["epochs_run"] == 1


@pytest.mark.parametrize("overrides, message", [
    ({"portfolio": "abc"}, "portfolio must be a nonempty list"),
    ({"split": {"ratios": "abc"}}, "split.ratios must be a list"),
    ({"model": {"edge_sets": "AST"}}, "edge_sets must be a list"),
    ({"model": {"pool_hidden": "8"}}, "pool_hidden must be a list"),
    ({"model": {"head_hidden": "8"}}, "head_hidden must be a list"),
    ({"model": {"head_hidden": [0]}},
     "model.head_hidden must be a list of integers >= 1, or null, got [0]"),
    ({"portfolio": ["a", "a"]}, "portfolio must be a nonempty list"),
    ({"split": {"ratios": [0.5, 0.5, "x"]}}, "split.ratios must be a list"),
    ({"penalty": {"time_limit": -1}}, "penalty.time_limit must be positive"),
    ({"model": {"leaky_slope": "x"}}, "leaky_slope must be a number"),
    ({"split": [0.8, 0.1, 0.1]}, "split must be a JSON object"),
    ({"penalty": 900}, "penalty must be a JSON object"),
    ({"model": []}, "model must be a JSON object"),
    ({"train": "fast"}, "train must be a JSON object"),
    ({"penalty": {"time_limit": float("nan")}}, "penalty.time_limit must be positive and finite"),
    ({"penalty": {"time_limit": float("inf")}}, "penalty.time_limit must be positive and finite"),
    ({"penalty": {"penalty_weight": float("nan")}}, "penalty.penalty_weight must be finite"),
    ({"penalty": {"penalty_weight": float("-inf")}}, "penalty.penalty_weight must be finite"),
    ({"model": {"num_gat_layers": 1.5}}, "model.num_gat_layers must be an integer, got 1.5"),
    ({"model": {"num_gat_layers": True}}, "model.num_gat_layers must be an integer, got true"),
    ({"model": {"gat_width": 8.5}}, "model.gat_width must be an integer, got 8.5"),
    ({"model": {"pool_hidden": [4.5]}},
     "model.pool_hidden must be a list of integers >= 1, got [4.5]"),
    ({"model": {"head_hidden": [True]}},
     "model.head_hidden must be a list of integers >= 1, or null, got [true]"),
    ({"model": {"jumping_knowledge": "no"}}, "jumping_knowledge must be true or false"),
    ({"train": {"epochs": 2.5}}, "train.epochs must be an integer, got 2.5"),
    ({"train": {"epochs": True}}, "train.epochs must be an integer, got true"),
    ({"train": {"plateau_patience": 1.5}}, "train.plateau_patience must be an integer, got 1.5"),
    ({"train": {"seed": "x"}}, 'train.seed must be an integer, got "x"'),
    ({"split": {"seed": 1.5}}, "split.seed must be an integer"),
    ({"split": {"seed": True}}, "split.seed must be an integer"),
    ({"split": {"seed": "7"}}, "split.seed must be an integer"),
    ({"train": {"initial_lr": float("nan")}},
     "train.initial_lr must be positive and finite, got NaN"),
    ({"train": {"initial_lr": float("inf")}},
     "train.initial_lr must be positive and finite, got Infinity"),
    ({"train": {"initial_lr": True}}, "train.initial_lr must be a number, got true"),
    ({"train": {"lr_decay_factor": float("nan")}},
     "train.lr_decay_factor must be positive and finite, got NaN"),
    ({"train": {"min_lr": float("-inf")}},
     "train.min_lr must be positive and finite, got -Infinity"),
    ({"train": {"margin": False}}, "train.margin must be a number, got false"),
    ({"train": {"margin": "1"}}, 'train.margin must be a number, got "1"'),
    ({"model": {"leaky_slope": float("nan")}}, "leaky_slope must be finite"),
    ({"model": {"leaky_slope": float("-inf")}}, "leaky_slope must be finite"),
    ({"model": {"leaky_slope": True}}, "leaky_slope must be a number"),
    ({"trian": {"epochs": 3}}, "unknown keys: trian"),
    ({"vocab": None, "seed": 1}, "unknown keys: seed, vocab"),
    ({"split": {"ratios": [0.6, 0.2, 0.2], "sed": 3}}, "unknown keys: split.sed"),
    ({"penalty": {"time_limt": 5.0}}, "unknown keys: penalty.time_limt"),
    ({"train": {"seed": -1}}, "seed must be >= 0, got -1"),
    ({"model": {"widht": 4, "gat_width": 4}, "train": {"epoch": 2, "epochs": 2}},
     "unknown keys: model.widht, train.epoch"),
    ({"model": {"widht": 4, "heigth": 2}}, "unknown keys: model.heigth, model.widht"),
    ({"vocabulary": 5}, "config: vocabulary must be a path or null, got 5"),
    ({"model": {"pool_hidden": 5}}, "model.pool_hidden must be a list of integers >= 1, got 5"),
    ({"model": {"edge_sets": [["AST"]]}},
     'model.edge_sets must be a list of distinct names from AST/ICFG/DFG, got [["AST"]]'),
    ({"penalty": {"time_limit": None}}, "penalty.time_limit must be a number, got null"),
    ({"penalty": {"time_limit": True}}, "penalty.time_limit must be a number, got true"),
    ({"penalty": {"time_limit": "900"}}, 'penalty.time_limit must be a number, got "900"'),
    ({"penalty": {"penalty_weight": False}}, "penalty.penalty_weight must be a number, got false"),
    ({"penalty": {"penalty_weight": "1"}}, 'penalty.penalty_weight must be a number, got "1"'),
])
def test_train_config_with_a_bad_list_is_usage_error(tmp_path, capsys, overrides, message):
    config = run_config(tmp_path / "config.json", **overrides)
    code = main(["train", "--config", str(config), "--graphs", str(tmp_path),
                 "--labels", str(tmp_path / "labels.csv"), "-o", str(tmp_path / "m.bin")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("document, env, message", [
    ([], {}, "not a JSON object"),
    ({"split": [0.8, 0.1, 0.1]}, {"VERISEL_SPLIT_SEED": "3"}, "split is not a JSON object"),
])
def test_train_config_that_is_not_an_object_is_usage_error(tmp_path, capsys, monkeypatch,
                                                             document, env, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document), encoding="utf-8")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code = main(["train", "--config", str(config), "--graphs", str(tmp_path),
                 "--labels", str(tmp_path / "labels.csv"), "-o", str(tmp_path / "m.bin")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_train_config_nested_too_deeply_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"model": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    code = main(["train", "--config", str(config), "--graphs", str(tmp_path),
                 "--labels", str(tmp_path / "labels.csv"), "-o", str(tmp_path / "m.bin")])
    assert code == 2
    assert "maximum recursion depth" in capsys.readouterr().err


@pytest.mark.parametrize("env, message", [
    ({"VERISEL_TRIAN_EPOCHS": "3"}, "unknown keys: trian"),
    ({"VERISEL_SPLIT_SED": "3"}, "unknown keys: split.sed"),
    ({"VERISEL_TRAIN_INITIAL_LR": "NaN"}, "train.initial_lr must be positive and finite, got NaN"),
    ({"VERISEL_TRAIN_INITIAL_LR": "Infinity"},
     "train.initial_lr must be positive and finite, got Infinity"),
    ({"VERISEL_TRAIN_INITIAL_LR": "true"}, "train.initial_lr must be a number, got true"),
    ({"VERISEL_MODEL_LEAKY_SLOPE": "NaN"}, "leaky_slope must be finite"),
    ({"VERISEL_TRAIN_SEED": "-3"}, "seed must be >= 0, got -3"),
    ({"VERISEL_MODEL_WIDHT": "8"}, "unknown keys: model.widht"),
    # too deep to decode, so the plain string
    ({"VERISEL_TRAIN_EPOCHS": "[" * 10_000 + "]" * 10_000},
     'train.epochs must be an integer, got "[[['),
    # switches, not overrides: only the other variable is reported
    ({"VERISEL_DEBUG": "1", "VERISEL_MODEL_WIDHT": "8"},
     "error: config: unknown keys: model.widht\n"),
    ({"VERISEL_TRACE": "trace.jsonl", "VERISEL_MODEL_WIDHT": "8"},
     "error: config: unknown keys: model.widht\n"),
])
def test_train_override_that_is_misspelt_or_not_finite_is_usage_error(
        tmp_path, capsys, monkeypatch, env, message):
    config = run_config(tmp_path / "config.json")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code = main(["train", "--config", str(config), "--graphs", str(tmp_path),
                 "--labels", str(tmp_path / "labels.csv"), "-o", str(tmp_path / "m.bin")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("switch, value", [("VERISEL_DEBUG", "1"),
                                            ("VERISEL_TRACE", "trace.jsonl")])
def test_reserved_switches_leave_the_train_run_unaffected(tmp_path, extracted, monkeypatch,
                                                          switch, value):
    ids = [p.stem for p in sorted(extracted.glob("*.json"))]
    labels = labels_csv_for(ids, tmp_path / "labels.csv")
    config = run_config(tmp_path / "config.json")
    models = []
    for env in ({}, {switch: value}):
        for key, text in env.items():
            monkeypatch.setenv(key, text)
        models.append(tmp_path / f"model{len(models)}.bin")
        assert main(["train", "--config", str(config), "--graphs", str(extracted),
                     "--labels", str(labels), "-o", str(models[-1])]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()


def test_apply_env_overrides_parsing():
    data = apply_env_overrides(
        {"train": {"epochs": 9}},
        environ={
            "VERISEL_TRAIN_EPOCHS": "3",
            "VERISEL_MODEL_NUM_GAT_LAYERS": "2",
            "VERISEL_PORTFOLIO": '["a", "b"]',
            "IGNORED": "1",
        },
    )
    assert data["train"]["epochs"] == 3
    assert data["model"]["num_gat_layers"] == 2
    assert data["portfolio"] == ["a", "b"]


def clear_overrides(monkeypatch):
    for key in [key for key in os.environ if key.startswith("VERISEL_")]:
        monkeypatch.delenv(key)


def test_readme_configuration_table_is_the_code_table(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("### Run configuration")[1]
    section = section.split("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    records = {"model": ModelConfig(), "train": TrainConfig()}
    code = {}
    for name, key in CONFIG_KEYS.items():
        section_name, _, field = name.rpartition(".")
        default = (getattr(records[section_name], field) if key.default is RECORD
                   else "required" if key.default is REQUIRED else key.default)
        code[f"`{name}`"] = (", ".join(filter(None, (key.kind, key.bound))),
                             json.loads(json.dumps(default)))
    assert {key: (rule, default if default == "required" else json.loads(default.strip("`")))
            for key, rule, default in rows} == code
    example = section.split("```json\n")[1].split("```")[0]
    (tmp_path / "example.json").write_text(example, encoding="utf-8")
    clear_overrides(monkeypatch)
    assert load_run_config(tmp_path / "example.json")[""]["portfolio"] == (
        "toolA", "toolB", "toolC")


def test_config_file_overrides_and_model_header_read_one_config(tmp_path, monkeypatch):
    document = {
        "vocabulary": None,
        "portfolio": ["v0", "v1", "v2"],
        "model": {"num_gat_layers": 2, "edge_sets": ["DFG", "AST"], "jumping_knowledge": False,
                  "gat_width": 5, "pool_hidden": [6, 3], "head_hidden": [],
                  "property_encoding": "onehot", "leaky_slope": 0.1},
        "train": {"epochs": 4, "initial_lr": 0.002, "plateau_patience": 2,
                  "lr_decay_factor": 0.5, "min_lr": 1e-6, "margin": 0.5, "seed": 3},
        "split": {"ratios": [0.5, 0.25, 0.25], "seed": -2},
        "penalty": {"time_limit": 60, "penalty_weight": 2},
    }
    clear_overrides(monkeypatch)
    (tmp_path / "file.json").write_text(json.dumps(document), encoding="utf-8")
    from_file = load_run_config(tmp_path / "file.json")
    (tmp_path / "empty.json").write_text("{}", encoding="utf-8")
    for name in CONFIG_KEYS:
        section, _, field = name.rpartition(".")
        value = document[section][field] if section else document[field]
        monkeypatch.setenv("VERISEL_" + name.replace(".", "_").upper(), json.dumps(value))
    from_env = load_run_config(tmp_path / "empty.json")
    assert from_env == from_file
    assert from_file["model"] == ModelConfig(2, ("DFG", "AST"), False, 5, (6, 3), None,
                                             "onehot", 0.1)
    assert from_file["train"] == TrainConfig(4, 0.002, 2, 0.5, 1e-6, 0.5, 3)
    assert from_file["penalty"] == {"time_limit": 60.0, "penalty_weight": 2.0}

    headers = []
    for config in (from_file, from_env):
        save_model(init_parameters(config["model"], VOCAB, config[""]["portfolio"]),
                   tmp_path / "model.bin")
        reloaded = load_model(tmp_path / "model.bin")
        assert reloaded.config == config["model"]
        save_model(reloaded, tmp_path / "again.bin")
        for path in ("model.bin", "again.bin"):
            headers.append((tmp_path / path).read_bytes().split(b"\n")[0])
    assert len(set(headers)) == 1
    assert b'"head_hidden": null' in headers[0]


# ---------------------------------------------------------------------------
# rank


def zero_model(tmp_path):
    config = ModelConfig(num_gat_layers=1, gat_width=4, pool_hidden=(4, 2))
    params = init_parameters(config, VOCAB, PORTFOLIO, seed=0)
    for layer in params.head:
        layer.w.values[:] = 0.0
        layer.b.values[:] = 0.0
    path = tmp_path / "zero.bin"
    save_model(params, path)
    return path


def test_rank_zero_model_portfolio_order(tmp_path, extracted, capsys):
    model = zero_model(tmp_path)
    graph = next(iter(sorted(extracted.glob("*.json"))))
    code = main(["rank", "--model", str(model), "--graph", str(graph),
                 "--property", "ReachSafety", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["verifier"] for e in payload["ranking"]] == list(PORTFOLIO)
    assert all(e["score"] == 0.0 for e in payload["ranking"])


def test_rank_permuted_graph_same_output(tmp_path, extracted, capsys):
    model_path = zero_model(tmp_path)
    params = load_model(model_path)
    rng = np.random.default_rng(3)
    for layer in params.head:  # nonzero weights for a meaningful check
        layer.w.values[:] = rng.standard_normal(layer.w.shape)
    save_model(params, model_path)
    graph_path = sorted(extracted.glob("*.json"))[2]
    graph = load_graph(graph_path)
    perm = [int(v) for v in rng.permutation(graph.num_nodes)]
    permuted_path = tmp_path / "permuted.json"
    save_graph(permuted_graph(graph, perm), permuted_path)

    main(["rank", "--model", str(model_path), "--graph", str(graph_path),
          "--property", "Termination", "--json"])
    base = capsys.readouterr().out
    main(["rank", "--model", str(model_path), "--graph", str(permuted_path),
          "--property", "Termination", "--json"])
    shuffled = capsys.readouterr().out
    base_ranking = json.loads(base)["ranking"]
    shuffled_ranking = json.loads(shuffled)["ranking"]
    for a, b in zip(base_ranking, shuffled_ranking):
        assert a["verifier"] == b["verifier"]
        assert a["score"] == pytest.approx(b["score"], abs=1e-9)


def test_rank_missing_property_is_usage_error(tmp_path, extracted):
    model = zero_model(tmp_path)
    graph = next(iter(sorted(extracted.glob("*.json"))))
    with pytest.raises(SystemExit) as excinfo:
        main(["rank", "--model", str(model), "--graph", str(graph)])
    assert excinfo.value.code == 2


def test_rank_missing_model_file_is_runtime_error(tmp_path, extracted, capsys):
    graph = next(iter(sorted(extracted.glob("*.json"))))
    code = main(["rank", "--model", str(tmp_path / "nope.bin"),
                 "--graph", str(graph), "--property", "ReachSafety"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("debug", [False, True], ids=["plain", "VERISEL_DEBUG=1"])
def test_runtime_failure_names_its_exception_class(tmp_path, extracted, capsys, monkeypatch,
                                                   debug):
    if debug:
        monkeypatch.setenv("VERISEL_DEBUG", "1")
    missing = tmp_path / "nope.bin"
    code = main(["rank", "--model", str(missing), "--graph",
                 str(sorted(extracted.glob("*.json"))[0]), "--property", "ReachSafety"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: FileNotFoundError: [Errno 2] No such file or directory: "
                        f"'{missing}'\n")
    assert err.startswith("Traceback (most recent call last):\n") == debug
    assert ("in load_model" in err) == debug


def test_usage_error_prints_its_message_alone_also_under_debug(tmp_path, extracted, capsys,
                                                               monkeypatch):
    monkeypatch.setenv("VERISEL_DEBUG", "1")
    code = main(["evaluate", "--model", str(zero_model(tmp_path)), "--graphs", str(extracted),
                 "--labels", str(tmp_path / "labels.csv"), "--ks", "9"])
    assert code == 2
    assert capsys.readouterr().err == "error: --ks: K=9 outside 1..3\n"


def test_rank_json_flag_does_not_carry_over_to_the_next_call(tmp_path, extracted, capsys):
    model = zero_model(tmp_path)
    graph = next(iter(sorted(extracted.glob("*.json"))))
    argv = ["rank", "--model", str(model), "--graph", str(graph), "--property", "ReachSafety"]
    assert main([*argv, "--json"]) == 0
    assert [e["verifier"] for e in json.loads(capsys.readouterr().out)["ranking"]] == list(PORTFOLIO)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["1.", "v0"], ["2.", "v1"], ["3.", "v2"]]


def test_parser_is_built_once_and_threads_get_their_own_namespaces():
    parser = build_parser()
    assert build_parser() is parser
    argvs = [["rank", "--model", f"m{i}", "--graph", f"g{i}", "--property", "ReachSafety",
              *(["--json"] if i % 2 else [])] for i in range(4)]
    start = threading.Barrier(len(argvs))
    wrong: list[int] = []

    def parse_many(i: int) -> None:
        start.wait(timeout=10)
        for _ in range(200):
            args = parser.parse_args(argvs[i])
            if (args.command, args.model, args.graph, args.json) != ("rank", f"m{i}", f"g{i}", bool(i % 2)):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_many, args=(i,)) for i in range(len(argvs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert parser.parse_args(argvs[0]) is not parser.parse_args(argvs[0])


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_matches_library_report(tmp_path, extracted, capsys):
    ids = [p.stem for p in sorted(extracted.glob("*.json"))]
    labels_path = labels_csv_for(ids, tmp_path / "labels.csv")
    model_path = zero_model(tmp_path)
    code = main([
        "evaluate", "--model", str(model_path), "--graphs", str(extracted),
        "--labels", str(labels_path), "--ks", "1,2,3", "--json",
    ])
    assert code == 0
    got = json.loads(capsys.readouterr().out)

    params = load_model(model_path)
    graphs = [load_graph(p) for p in sorted(extracted.glob("*.json"))]
    instances = build_instances(graphs, load_labels(labels_path), PORTFOLIO)
    results = [predict(inst.graph, params) for inst in instances]
    want = evaluate_rankings(results, instances, [1, 2, 3]).to_dict()
    assert got == json.loads(json.dumps(want))


def test_evaluate_topk_curve_non_increasing(tmp_path, extracted, capsys):
    ids = [p.stem for p in sorted(extracted.glob("*.json"))]
    labels_path = labels_csv_for(ids, tmp_path / "labels.csv")
    model_path = zero_model(tmp_path)
    main([
        "evaluate", "--model", str(model_path), "--graphs", str(extracted),
        "--labels", str(labels_path), "--json",
    ])
    report = json.loads(capsys.readouterr().out)
    curve = [report["overall"]["topk_error"][str(k)] for k in (1, 2, 3)]
    assert curve == sorted(curve, reverse=True)
    assert curve[-1] == 0.0


@pytest.mark.parametrize("option, value, message", flag_cases(
    ("--time-limit", "nan", "penalty.time_limit must be positive and finite, got NaN"),
    ("--time-limit", "0", "penalty.time_limit must be positive and finite, got 0.0"),
    ("--penalty-weight", "inf", "penalty.penalty_weight must be finite, got Infinity"),
))
def test_evaluate_bad_label_formula_is_usage_error(tmp_path, extracted, capsys,
                                                   option, value, message):
    # a nan time limit made every label nan, and the report read as perfect
    ids = [p.stem for p in sorted(extracted.glob("*.json"))]
    labels_path = labels_csv_for(ids, tmp_path / "labels.csv")
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--model", str(zero_model(tmp_path)), "--graphs", str(extracted),
              "--labels", str(labels_path), f"{option}={value}"])
    assert excinfo.value.code == 2
    assert f"{option}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("ks, message", [("0", "K=0 outside 1..3"), ("9", "K=9 outside 1..3"),
                                         ("1,abc", "'abc' is not an integer")])
def test_evaluate_bad_ks_is_usage_error(tmp_path, extracted, capsys, ks, message):
    ids = [p.stem for p in sorted(extracted.glob("*.json"))]
    labels_path = labels_csv_for(ids, tmp_path / "labels.csv")
    code = main(["evaluate", "--model", str(zero_model(tmp_path)), "--graphs", str(extracted),
                 "--labels", str(labels_path), "--ks", ks])
    assert code == 2
    assert f"--ks: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# explain


def test_explain_writes_report_and_dot(tmp_path, extracted):
    model = zero_model(tmp_path)
    graph = sorted(extracted.glob("*.json"))[1]
    report_path = tmp_path / "report.json"
    dot_path = tmp_path / "graph.dot"
    code = main([
        "explain", "--model", str(model), "--graph", str(graph),
        "-o", str(report_path), "--dot", str(dot_path), "--iters", "5",
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["m"] == len(report["edges"])
    assert all(0.0 < e["score"] < 1.0 for e in report["edges"])
    dot = dot_path.read_text()
    assert dot.startswith("digraph") and "->" in dot


def test_explain_unknown_edge_set_is_usage_error(tmp_path, extracted, capsys):
    # checked at the flag by the rule of model.edge_sets, before any file is
    # read: the model does not exist
    graph = sorted(extracted.glob("*.json"))[0]
    report_path = tmp_path / "report.json"
    for value, shown in [("DFX", '["DFX"]'), ("AST,AST", '["AST", "AST"]'), ("", '[""]')]:
        with pytest.raises(SystemExit) as excinfo:
            main(["explain", "--model", str(tmp_path / "missing.bin"), "--graph", str(graph),
                  "-o", str(report_path), "--iters", "0", f"--edge-sets={value}"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "verisel explain: error: argument --edge-sets: edge_sets must be a list of "
            f"distinct names from AST/ICFG/DFG, got {shown}")
        assert not report_path.exists()


def test_explain_without_value_flags_uses_the_library_defaults(tmp_path, extracted):
    model, graph = zero_model(tmp_path), sorted(extracted.glob("*.json"))[1]
    report = tmp_path / "report.json"
    assert main(["explain", "--model", str(model), "--graph", str(graph),
                 "-o", str(report)]) == 0
    want = top_m_edges(explain(load_model(model), load_graph(graph)), load_graph(graph), VOCAB)
    assert report.read_bytes() == want.to_json().encode("utf-8")


def test_explain_stdout_by_default(tmp_path, extracted, capsys):
    model = zero_model(tmp_path)
    graph = sorted(extracted.glob("*.json"))[0]
    code = main(["explain", "--model", str(model), "--graph", str(graph),
                 "--iters", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert all(e["score"] == 0.5 for e in report["edges"])


@pytest.mark.parametrize("option, value, message", flag_cases(
    ("--iters", "-3", "iters must be >= 0, got -3"),
    ("--iters", "1.5", 'iters must be an integer, got "1.5"'),
    ("--lr", "nan", "lr must be finite, got NaN"),
    ("--lr", "-inf", "lr must be finite, got -Infinity"),
    ("--size-weight", "inf", "size_weight must be finite, got Infinity"),
    ("--entropy-weight", "nan", "entropy_weight must be finite, got NaN"),
    ("--entropy-weight", "x", 'entropy_weight must be a number, got "x"'),
))
def test_explain_bad_number_is_usage_error(tmp_path, extracted, capsys, option, value, message):
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["explain", "--model", str(zero_model(tmp_path)),
              "--graph", str(sorted(extracted.glob("*.json"))[0]),
              "-o", str(report_path), f"{option}={value}"])
    assert excinfo.value.code == 2
    assert f"{option}: {message}" in capsys.readouterr().err
    assert not report_path.exists()
