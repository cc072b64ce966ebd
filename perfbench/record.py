#!/usr/bin/env python3
"""Run the benchmark over several seeds and fold the results into a record.

    python3 perfbench/record.py --seeds 10 --out perfbench/baseline.json

For each workload in ``BENCHMARK.json`` this runs ``run.py`` once per seed
(``0 .. --seeds - 1``) with tracing off, then once with tracing on at seed 0,
one process at a time. It prints each end-to-end metric's median, quartiles
and spread (interquartile range over median) against a third of the
metric's bound, and with ``--out`` writes the record: the machine, the net
``src/`` line count, every run's metrics at reference speed and in raw wall
time, the tracing overhead, the traced shares that confirm why each workload
exists, and which end-to-end metric each per-layer metric should move.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metric -> the end-to-end metrics it should move
MOVES = {
    "dataflow.*": ["extract_nodes_per_s", "pipeline_s"],
    "lexer.*": ["extract_nodes_per_s"],
    "parser.*": ["extract_nodes_per_s"],
    "cfg.*": ["extract_nodes_per_s"],
    "graph_build.busy_s": ["extract_nodes_per_s"],
    "graphio.*": ["rank_p50_ms", "evaluate_graphs_per_s"],
    "model.forward_busy_s": ["rank_p50_ms", "rank_p90_ms", "evaluate_graphs_per_s",
                             "train_steps_per_s"],
    "model.forward_calls": ["rank_p50_ms", "evaluate_graphs_per_s", "train_steps_per_s"],
    "model.gat_layer_busy_s": ["rank_p50_ms", "train_steps_per_s", "explain_iters_per_s"],
    "model.pool_busy_s": ["rank_p50_ms", "evaluate_graphs_per_s"],
    "model.attn_density": ["peak_rss_mib", "train_steps_per_s"],
    "model.step_peak_mib": ["peak_rss_mib"],
    "model.io_busy_s": ["rank_p50_ms"],
    "tensor.*": ["train_steps_per_s", "explain_iters_per_s"],
    "trainer.*": ["train_steps_per_s"],
    "explain.*": ["explain_iters_per_s"],
    "cli.*": ["rank_p50_ms"],
    "trace.*": [],
}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result and its raw wall-time metrics (empty when traced)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    raw = next((json.loads(line[4:]) for line in lines if line.startswith("raw ")), {})
    return json.loads(lines[-1]), raw


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def machine() -> dict:
    import numpy

    from run import BLAS_THREADS
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "platform": platform.platform()}


def confirming_shares(layers: dict) -> dict:
    def value(name):
        return layers.get(name, {}).get("value")

    out = {}
    if value("dataflow.share") is not None:
        out["dataflow_share_of_frontend"] = value("dataflow.share")
    if value("dataflow.busy_s"):
        out["lexer_plus_parser_over_dataflow"] = (
            (value("lexer.busy_s") + value("parser.busy_s")) / value("dataflow.busy_s"))
    if value("trainer.busy_s"):
        out["model_and_backward_share_of_train"] = (
            1.0 - value("trainer.self_s") / value("trainer.busy_s"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = list(range(args.seeds))
    record = {"machine": machine(), "src_lines": src_lines(), "run_seconds": seconds,
              "seeds": seeds, "moves": MOVES, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, raws = zip(*(one_run(workload, seed, seconds, 0) for seed in seeds))
        entry = {"why": next(w["why"] for w in bench["workloads"] if w["name"] == workload),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            stats = {**summarize(values), "values": values, "unit": metric["unit"],
                     "better": metric["better"], "bound": metric["bound"]}
            if name in raws[0]:
                wall = [raw[name] for raw in raws]
                stats["raw"] = {**summarize(wall), "values": wall}
            entry["end_to_end"][name] = stats
            steady = stats["spread"] is not None and stats["spread"] < metric["bound"] / 3
            print(f"{workload:18s} {name:24s} median {stats['median']:12.6g} "
                  f"spread {stats['spread'] if stats['spread'] is not None else 0:7.4f} "
                  f"bound/3 {metric['bound'] / 3:6.4f} {'' if steady else 'WIDE'}",
                  flush=True)
        print(f"{workload:18s} failed {entry['failed']} of {entry['attempted']}", flush=True)
        traced, _ = one_run(workload, seeds[0], seconds, 1)
        layers = entry["per_layer"] = traced["metrics"]
        entry["traced_failed"] = traced["failed"]
        entry["shares"] = confirming_shares(layers)
        # the traced run's untraced passes against the untraced run of its seed
        entry["plain_passes_over_untraced_run"] = {
            "reference_speed": layers["trace.plain_pipeline_s"]["value"]
            / runs[0]["metrics"]["pipeline_s"]["value"],
            "raw": layers["trace.raw_plain_pipeline_s"]["value"] / raws[0]["pipeline_s"],
        }
        print(f"{workload:18s} traced shares {entry['shares']}", flush=True)
        print(f"{workload:18s} overhead share {layers['trace.overhead_share']['value']:.4f} "
              f"raw {layers['trace.raw_overhead_share']['value']:.4f}; untraced passes "
              f"over untraced run {entry['plain_passes_over_untraced_run']}", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
