"""Output checks made on every pass; each one counts as an attempted operation.

* Every extracted graph loads through ``verisel.graphio`` and its content
  digest (node kinds plus sorted edges per set) equals the seed commit's,
  recorded in ``reference.json``: per file for the shipped corpus, and per
  workload and seed for generated programs, where recorded. Every pass must
  also reproduce the first pass's digests and model file.
* The def-use edges of the corpus graphs equal the path-enumeration oracle in
  ``tests/helpers.py``, imported read-only.
* ``rank --json`` gives the same ordering as ``predict`` on the reloaded
  model in this process, with bit-identical scores.
* Explanation reports have ``m = min(report_size(E), E)`` entries, each with
  a score strictly inside (0, 1).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from workloads import CORPUS, ROOT, combined_digest, graph_digest


def _oracle():
    spec = importlib.util.spec_from_file_location(
        "perfbench_test_helpers", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_reaching_edges


class Checker:
    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[str, object] = {}

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def same_as_first(self, key: str, value, message: str) -> bool:
        return self.expect(self.first.setdefault(key, value) == value, message)

    def graphs(self, graph_dir: Path, stems: list[str]) -> int:
        """Load, digest and compare the graphs of one extraction; returns nodes."""
        from verisel.graphio import SchemaError, load_graph

        nodes = 0
        digests: dict[str, str] = {}
        for stem in stems:
            try:
                graph = load_graph(graph_dir / f"{stem}.json")
            except (OSError, SchemaError, ValueError) as err:
                self.expect(False, f"graph {stem} does not load: {err}")
                continue
            nodes += graph.num_nodes
            digests[stem] = graph_digest(graph)
        corpus = {s: d for s, d in digests.items() if (CORPUS / f"{s}.c").exists()}
        generated = {s: d for s, d in digests.items() if s not in corpus}
        for stem, digest in sorted(corpus.items()):
            want = self.reference.get("corpus", {}).get(stem)
            if want is not None:
                self.expect(digest == want, f"corpus graph {stem} differs from reference")
        if generated:
            want = (self.reference.get("generated", {}).get(self.workload, {})
                    .get(str(self.seed)))
            got = combined_digest(generated)
            if want is not None:
                self.expect(got == want, "generated graphs differ from reference")
            self.same_as_first(f"digests:{graph_dir.name}", got,
                               "generated graphs differ between passes")
        return nodes

    def dfg_oracle(self, graph_dir: Path, stems: list[str]) -> None:
        """Def-use edges of the corpus graphs against path enumeration."""
        from verisel.frontend import build_icfg, parse_source
        from verisel.graphio import load_graph

        oracle = _oracle()
        for stem in stems:
            ast = parse_source((CORPUS / f"{stem}.c").read_text(encoding="utf-8"))
            want = {(d, u) for d, u, _ in oracle(ast, build_icfg(ast))}
            got = set(load_graph(graph_dir / f"{stem}.json").edge_sets["DFG"])
            self.expect(got == want, f"DFG edges of {stem} differ from the oracle")

    def ranked(self, ranker: Path, ranked: list[tuple[str, str]]) -> None:
        """Rank output equals in-process predict on the reloaded model."""
        from verisel.graphio import PropertyKind, load_graph
        from verisel.model import load_model, predict

        params = load_model(ranker)
        seen: dict[str, str] = {}
        for graph_file, text in ranked:
            if graph_file in seen:
                self.expect(text == seen[graph_file],
                            f"rank output for {graph_file} changed between calls")
                continue
            seen[graph_file] = text
            try:
                payload = json.loads(text)
                got_order = [e["verifier"] for e in payload["ranking"]]
                got_scores = {e["verifier"]: e["score"] for e in payload["ranking"]}
            except (ValueError, KeyError, TypeError):
                self.expect(False, f"rank output for {graph_file} is not valid JSON")
                continue
            result = predict(load_graph(graph_file), params,
                             prop=PropertyKind.from_name(payload["property"]))
            want_order = [params.portfolio[v] for v in result.ordering]
            want_scores = dict(zip(params.portfolio, result.scores))
            self.expect(got_order == want_order,
                        f"rank ordering for {graph_file} differs from predict")
            self.expect(got_scores == want_scores,
                        f"rank scores for {graph_file} are not bit-identical")

    def explanation(self, graph_file: str, report: Path, edge_sets) -> None:
        from verisel.explain import report_size
        from verisel.graphio import load_graph

        graph = load_graph(graph_file)
        edges = sum(len(graph.edge_sets.get(name, [])) for name in edge_sets)
        try:
            payload = json.loads(report.read_text(encoding="utf-8"))
            scores = [e["score"] for e in payload["edges"]]
            m = payload["m"]
        except (OSError, ValueError, KeyError, TypeError):
            self.expect(False, f"explain report {report} is unreadable")
            return
        want = min(report_size(edges), edges)
        self.expect(m == want and len(scores) == want,
                    f"explain report has m={m}, {len(scores)} entries; want {want}")
        self.expect(all(0.0 < s < 1.0 for s in scores),
                    "explain scores outside (0, 1)")

    def model_file(self, model: Path) -> None:
        digest = hashlib.sha256(model.read_bytes()).hexdigest() if model.exists() else None
        self.same_as_first("model", digest, "trained model differs between passes")

    def evaluation(self, text: str, expected: int) -> tuple[float, float] | None:
        try:
            overall = json.loads(text)["overall"]
            quality = (overall["topk_error"]["1"], overall["spearman_mean"])
            count = overall["num_instances"]
        except (ValueError, KeyError, TypeError):
            self.expect(False, "evaluate output is not the expected JSON")
            return None
        self.expect(count == expected, f"evaluate scored {count} of {expected} graphs")
        self.same_as_first("quality", quality, "selector quality differs between passes")
        return quality
