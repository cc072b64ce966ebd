#!/usr/bin/env python3
"""verisel benchmark: one workload, one seed, one closed-loop caller.

Run from the root of a verisel checkout:

    python3 perfbench/run.py --workload corpus-cli --seed 0 --seconds 30 --trace 0

Set-up (generating inputs, and for model-large extracting and training the
model that rank and explain use) runs at least three times, cheap ones until
a second has passed, and its median is ``setup_s``. After one untimed warm-up
pass, timed passes of ``extract -> train -> evaluate -> rank -> explain``
repeat for ``--seconds`` (at least three), each checked for correct output.
Times are reported at reference machine speed (see speed.py); a line
``raw {...}`` before the result gives the same metrics in raw wall time. With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` untraced
and traced passes alternate, and the per-layer metrics come from spans
recorded around verisel's public functions, together with the tracing
overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One process does all the work; BLAS gets one thread (nproc >= 1 anywhere).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3        # at least; cheap set-ups repeat until SETUP_MIN_S
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 100
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "extract_nodes_per_s": "nodes/s",
    "train_steps_per_s": "steps/s",
    "evaluate_graphs_per_s": "graphs/s",
    "rank_p50_ms": "ms",
    "rank_p90_ms": "ms",
    "explain_iters_per_s": "iters/s",
    "peak_rss_mib": "MiB",
    "selector_top1_error": "ratio",
    "selector_spearman": "ratio",
}

# Per-layer metrics computed here rather than from one pass's spans (see
# tracing.LAYER_METRICS for the rest).
PER_LAYER_EXTRA = {
    "cli.rank_self_ms_p50": "ms",    # pooled over the traced passes
    # pipeline_s of the untraced passes, and traced minus untraced pipeline_s
    # over adjacent pairs of passes; at reference speed, and again in raw
    # wall time (raw_)
    "trace.plain_pipeline_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.raw_plain_pipeline_s": "s",
    "trace.raw_overhead_s": "s",
    "trace.raw_overhead_share": "ratio",
    "dataflow.peak_mib": "MiB",      # tracemalloc probes after the passes
    "model.step_peak_mib": "MiB",
}


def import_verisel() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "verisel" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no verisel sources in {src}")
    sys.path.insert(0, str(src))
    import verisel
    if Path(verisel.__file__).resolve().parent != (src / "verisel").resolve():
        raise SystemExit(f"perfbench: imported verisel from {verisel.__file__}")


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    def __init__(self, plan, seed: int, seconds: float, trace: bool, work: Path):
        from checks import Checker
        from tracing import Tracer
        from workloads import Cli, load_reference

        self.plan = plan
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = Tracer() if trace else None
        self.cli = Cli(self.tracer)
        self.check = Checker(plan.name, seed, load_reference())
        self.samples: dict[str, int] = {}
        self.raw: dict[str, float] = {}

    def setup(self):
        """Set up at least SETUP_REPEATS times; returns the last fixture and timings."""
        from workloads import Timing, setup

        timings = []
        while len(timings) < SETUP_REPEATS or (
                len(timings) < SETUP_MAX_REPEATS
                and sum(t.end - t.start for t in timings) < SETUP_MIN_S):
            if timings:
                shutil.rmtree(self.work / f"setup-{len(timings) - 1}")
            self.cli.meter.sample()
            started = time.perf_counter()
            fixture = setup(self.plan, self.seed, self.work / f"setup-{len(timings)}",
                            self.cli)
            timings.append(Timing(started, time.perf_counter()))
        self.cli.meter.sample()
        return fixture, timings

    def check_pass(self, fx, result, first: bool):
        from workloads import MODEL

        stems = [p.stem for p in fx.sources]
        nodes = self.check.graphs(result.graphs, stems)
        if fx.model_graphs is not None and first:
            self.check.graphs(fx.model_graphs, fx.train_ids + fx.heldout_ids)
        if first:
            corpus = [s for s in fx.train_ids + fx.heldout_ids
                      if (ROOT / "corpus" / f"{s}.c").exists()]
            self.check.dfg_oracle(fx.model_graphs or result.graphs, corpus)
            if fx.setup_model is not None:
                self.check.model_file(fx.setup_model)
        self.check.model_file(result.model)
        quality = self.check.evaluation(result.evaluation, result.evaluated)
        self.check.ranked(result.ranker, result.ranked)
        self.check.explanation(result.explained, result.report, MODEL["edge_sets"])
        return nodes, quality

    def passes(self, fx):
        from workloads import run_pass

        # warm-up: one checked pass, not timed, so lazy set-up and caches settle
        warm = run_pass(self.plan, fx, self.cli, -1)
        self.check_pass(fx, warm, True)
        results, nodes, quality = [], [], None
        started = time.perf_counter()
        while True:
            index = len(results)
            traced = self.trace and index % 2 == 1
            if self.tracer is not None:
                self.tracer.run = index
            if traced:
                with self.tracer.installed():
                    result = run_pass(self.plan, fx, self.cli, index)
            else:
                result = run_pass(self.plan, fx, self.cli, index)
            results.append(result)
            count, quality = self.check_pass(fx, result, False)
            nodes.append(count)
            shutil.rmtree(fx.work / f"pass-{index - 1}", ignore_errors=True)
            elapsed = time.perf_counter() - started
            typical = statistics.median(r.calls[-1].end - r.calls[0].start for r in results)
            enough = len(results) >= MIN_PASSES + (1 if self.trace else 0)
            if enough and elapsed + typical > self.seconds:
                return results, nodes, quality

    def end_to_end(self, setups, results, nodes, quality, rank) -> dict:
        """Medians over passes; every time is at reference speed (see speed.py).

        The same metrics from raw wall time go to ``self.raw``.
        """
        at_ref = self.cli.meter.seconds
        metrics = timed_metrics(setups, results, nodes, rank, at_ref)
        self.raw = timed_metrics(setups, results, nodes, rank, wall_seconds)
        metrics.update({
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "selector_top1_error": quality[0] if quality else None,
            "selector_spearman": quality[1] if quality else None,
        })
        self.samples = {name: len(results) for name in metrics}
        self.samples.update(setup_s=len(setups), rank_p50_ms=len(rank),
                            rank_p90_ms=len(rank), peak_rss_mib=1)
        return {name: {"value": metrics[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()}

    def per_layer(self, fx, results) -> dict:
        from tracing import LAYER_METRICS, PassView

        tracer = self.tracer
        traced = range(1, len(results), 2)
        views = [PassView(tracer.spans, i) for i in traced]
        values: dict[str, float | str] = {}
        for name, (_, needs, value) in LAYER_METRICS.items():
            gone = [n for n in needs if n in tracer.missing or n in tracer.bad_counts]
            per_pass = [] if gone else [value(v) for v in views]
            if gone:
                values[name] = f"needs {', '.join(gone)}"
            elif None in per_pass:
                values[name] = "divides by a zero count or time"
            else:
                values[name] = statistics.median(per_pass)
        rank_self = [s * 1e3 for v in views for s in v.own("cli.rank")]
        values["cli.rank_self_ms_p50"] = (statistics.median(rank_self) if rank_self
                                          else "no rank calls")
        # Overhead is the median over (untraced, traced) pairs of adjacent
        # passes: machine speed drifts within seconds, so neighbours compare best.
        for clock, at in (("", self.cli.meter.seconds), ("raw_", wall_seconds)):
            times = [pipeline_seconds(r, at) for r in results]
            pairs = [(times[i - 1], times[i]) for i in traced]
            values[f"trace.{clock}plain_pipeline_s"] = statistics.median(times[::2])
            values[f"trace.{clock}overhead_s"] = statistics.median(t - p for p, t in pairs)
            values[f"trace.{clock}overhead_share"] = statistics.median(
                (t - p) / p for p, t in pairs)
        values["dataflow.peak_mib"] = dataflow_peak(fx)
        values["model.step_peak_mib"] = step_peak(fx, results[-1])
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        units.update(PER_LAYER_EXTRA)
        return {name: ({"value": None, "unit": units[name], "missing": value}
                       if isinstance(value, str) else {"value": value, "unit": units[name]})
                for name, value in values.items()}

    def execute(self) -> dict:
        fx, setup_times = self.setup()
        results, nodes, quality = self.passes(fx)
        rank = [t for r in results for t in r.rank]
        if self.trace:
            metrics = self.per_layer(fx, results)
            self.tracer.write_jsonl(
                ROOT / ".perfbench" / f"trace-{self.plan.name}-seed{self.seed}.jsonl")
        else:
            metrics = self.end_to_end(setup_times, results, nodes, quality, rank)
        failed = self.cli.failed + len(self.check.failures)
        for message in self.cli.errors + self.check.failures:
            print(f"FAILED: {message}", file=sys.stderr)
        return {
            "correct": failed == 0,
            "attempted": self.cli.attempted + self.check.attempted,
            "failed": failed,
            "metrics": metrics,
        }


def wall_seconds(start: float, end: float) -> float:
    return end - start


def pipeline_seconds(result, at) -> float:
    """A pass's time inside its commands; ``at(start, end)`` gives seconds."""
    return sum(at(t.start, t.end) for t in result.calls)


def timed_metrics(setups, results, nodes, rank, at) -> dict:
    """The end-to-end metrics that are times or rates, clocked by ``at(start, end)``."""
    def s(timing):
        return at(timing.start, timing.end)

    med = statistics.median
    rank_ms = [s(t) * 1e3 for t in rank]
    return {
        "setup_s": med(s(t) for t in setups),
        "pipeline_s": med(pipeline_seconds(r, at) for r in results),
        "extract_nodes_per_s": med(n / s(r.extract) for n, r in zip(nodes, results)),
        "train_steps_per_s": med(r.train_steps / s(r.train) for r in results),
        "evaluate_graphs_per_s": med(r.evaluated / s(r.evaluate) for r in results),
        "rank_p50_ms": med(rank_ms),
        "rank_p90_ms": percentile(rank_ms, 90),
        "explain_iters_per_s": med(r.explain_iters / s(r.explain) for r in results),
    }


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def dataflow_peak(fx) -> float | str:
    """tracemalloc peak of reaching definitions on the largest source with calls.

    Definitions that flow through call and return edges are what make
    reaching definitions costly; a call-free source, however long, is cheap.
    """
    from generator import source_features
    from tracing import SITES, resolve

    sites = {s.span: resolve(s) for s in SITES}
    stages = [sites[name] for name in ("lexer.tokenize", "parser.parse", "cfg.build_icfg",
                                       "dataflow.reaching_definitions")]
    if None in stages:
        return "frontend functions missing or reshaped"
    lex, parse, icfg, reaching = stages
    texts = [p.read_text(encoding="utf-8") for p in fx.sources]
    source = max(texts, key=lambda t: (source_features(t)[1], len(t)))
    ast = parse(lex(source))
    graph = icfg(ast)
    return _peak_mib(lambda: reaching(ast, graph))


def step_peak(fx, last) -> float | str:
    """tracemalloc peak of one forward and backward on the largest graph."""
    import verisel.model as model
    import verisel.tensor as tensor
    from verisel.graphio import load_graph

    graphs = fx.model_graphs or last.graphs
    largest = max(graphs.glob("*.json"), key=lambda p: p.stat().st_size)
    try:
        params, graph = model.load_model(last.model), load_graph(largest)

        def step():
            scores = model.forward_scores(graph, params)
            tensor.backward(model.margin_rank_loss_t(scores, [2.0, 1.0, 0.5]))

        return _peak_mib(step)
    except (AttributeError, TypeError) as err:
        return f"model step missing or reshaped: {err}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_verisel()
    from workloads import PLANS

    if args.workload not in PLANS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(PLANS)}")
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = Run(PLANS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        outcome = run.execute(), run.samples, run.raw
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result, samples, raw = outcome
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = metric.get("missing", "") if value is None else f"{value:.6g}"
        count = f"n={samples[name]}" if name in samples else ""
        wall = f"wall {raw[name]:.6g}" if name in raw else ""
        print(f"{name:28s} {shown:>14s} {metric['unit']:8s} {count:6s} {wall}")
    if raw:
        print("raw " + json.dumps(raw, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
