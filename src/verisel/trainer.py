"""Training loop and ranking metrics.

Training performs one gradient step per instance (no batching) on the
pairwise margin ranking loss, using Adam-style moment estimates with the
standard decay constants. After any three consecutive epochs without a
strictly lower validation loss the learning rate drops by a factor of ten;
training stops at the epoch cap or once a drop would land below the floor.
The returned parameters are the snapshot with the best validation loss.

Adam runs over the model's one flat parameter vector: a step reads the
gradient vector laid out beside it whole and updates every parameter with a
few elementwise array operations. Each graph's model input is prepared once
per call to :func:`train` and reused by every epoch.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as tz
from .graphio import LabeledInstance, ordering_from_scores, read_config
from .model import (
    DEFAULT_MARGIN,
    LengthMismatch,
    ModelInput,
    ModelParameters,
    RankingResult,
    forward_scores,
    margin_rank_loss_t,
    prepare_input,
)


class EmptySplit(Exception):
    """Training needs nonempty train and validation sets."""


class NoEligibleInstances(Exception):
    """Success-accuracy filtering removed every instance."""


class BadK(Exception):
    """K outside 1..portfolio size."""


# ---------------------------------------------------------------------------
# metrics


def _average_ranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n, averaging over ties (rank 1 = largest value)."""
    order = ordering_from_scores(values)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for pos in range(i, j + 1):
            ranks[order[pos]] = mean_rank
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rho: the Pearson correlation of the average ranks.

    Tied values share the mean of their ranks. A constant input has no
    defined correlation, and 0.0 is returned for it. A NaN has no rank, and
    NaN is returned for an input that holds one.
    """
    if len(x) != len(y) or len(x) < 2:
        raise LengthMismatch(f"{len(x)} vs {len(y)} values (need equal, >= 2)")
    if any(map(math.isnan, [*x, *y])):
        return math.nan
    if min(x) == max(x) or min(y) == max(y):
        return 0.0
    mean = (len(x) + 1) / 2.0  # n average ranks sum to n(n + 1) / 2
    dx = [r - mean for r in _average_ranks(x)]
    dy = [r - mean for r in _average_ranks(y)]
    sxy = sum(a * b for a, b in zip(dx, dy))
    return sxy / math.sqrt(sum(a * a for a in dx) * sum(b * b for b in dy))


def best_verifier(labels: Sequence[float]) -> int:
    """Index of the top label; ties go to the lowest index."""
    return ordering_from_scores(labels)[0]


def success_accuracy(
    orderings: Sequence[Sequence[int]],
    successes: Sequence[Sequence[bool]],
) -> float:
    """Top-1 hit rate over instances where some verifiers (not all) succeed."""
    hits = 0
    eligible = 0
    for ordering, flags in zip(orderings, successes):
        wins = sum(flags)
        if wins == 0 or wins == len(flags):
            continue
        eligible += 1
        if flags[ordering[0]]:
            hits += 1
    if eligible == 0:
        raise NoEligibleInstances("every instance was filtered out")
    return hits / eligible


def topk_error(
    orderings: Sequence[Sequence[int]],
    best: Sequence[int],
    k_select: int,
) -> float:
    """Fraction of instances whose best verifier misses the first K picks."""
    if not orderings:
        raise NoEligibleInstances("no instances")
    size = len(orderings[0])
    if not 1 <= k_select <= size:
        raise BadK(f"K={k_select} outside 1..{size}")
    misses = sum(
        1 for ordering, target in zip(orderings, best)
        if target not in ordering[:k_select]
    )
    return misses / len(orderings)


# ---------------------------------------------------------------------------
# evaluation report


@dataclass
class MetricBlock:
    success_accuracy: float | None
    spearman_mean: float
    topk_error: dict[int, float]
    num_instances: int
    num_all_solved: int
    num_none_solved: int

    def to_dict(self) -> dict:
        # str keys: sort_keys would put int keys 2 before 10 and change the bytes
        return {**asdict(self), "topk_error": {str(k): v for k, v in self.topk_error.items()}}


@dataclass
class EvalReport:
    overall: MetricBlock
    per_property: dict[str, MetricBlock]

    def to_dict(self) -> dict:
        return {
            "overall": self.overall.to_dict(),
            "per_property": {
                name: block.to_dict()
                for name, block in sorted(self.per_property.items())
            },
        }

    def to_text(self) -> str:
        ks = sorted(self.overall.topk_error)
        header = ["section", "n", "success", "spearman"] + [f"top{k}" for k in ks]
        rows = [header]
        for name, block in [("overall", self.overall)] + sorted(self.per_property.items()):
            success = "n/a" if block.success_accuracy is None else f"{block.success_accuracy:.3f}"
            row = [name, str(block.num_instances), success,
                   f"{block.spearman_mean:.3f}"]
            row += [f"{block.topk_error[k]:.3f}" for k in ks]
            rows.append(row)
        return format_table(rows)


def format_table(rows: list[list[str]]) -> str:
    """Left-aligned columns, two spaces apart, one line per row."""
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) + "\n" for row in rows
    )


def _metric_block(results: Sequence[RankingResult],
                  instances: Sequence[LabeledInstance],
                  ks: Sequence[int]) -> MetricBlock:
    orderings = [r.ordering for r in results]
    all_solved = sum(1 for inst in instances if all(inst.successes))
    none_solved = sum(1 for inst in instances if not any(inst.successes))
    try:
        success = success_accuracy(orderings, [i.successes for i in instances])
    except NoEligibleInstances:
        success = None
    rhos = [spearman(inst.labels, list(result.scores))
            for inst, result in zip(instances, results)]
    best = [best_verifier(inst.labels) for inst in instances]
    return MetricBlock(
        success_accuracy=success,
        spearman_mean=float(np.mean(rhos)),
        topk_error={k: topk_error(orderings, best, k) for k in ks},
        num_instances=len(instances),
        num_all_solved=all_solved,
        num_none_solved=none_solved,
    )


def evaluate_rankings(results: Sequence[RankingResult],
                      instances: Sequence[LabeledInstance],
                      ks: Sequence[int] | None = None) -> EvalReport:
    """The three ranking metrics, overall and per property."""
    if len(results) != len(instances) or not instances:
        raise LengthMismatch(f"{len(results)} results vs {len(instances)} instances")
    k = len(instances[0].labels)
    ks = sorted(set(ks or range(1, k + 1)))
    overall = _metric_block(results, instances, ks)
    per_property: dict[str, MetricBlock] = {}
    names = sorted({inst.graph.property.value for inst in instances})
    for name in names:
        pick = [
            (res, inst) for res, inst in zip(results, instances)
            if inst.graph.property.value == name
        ]
        per_property[name] = _metric_block(
            [p[0] for p in pick], [p[1] for p in pick], ks
        )
    return EvalReport(overall=overall, per_property=per_property)


# ---------------------------------------------------------------------------
# plateau schedule


@dataclass(frozen=True)
class TrainConfig:
    """The ``train`` section of a run config; ``graphio.CONFIG_KEYS`` has its rules."""

    epochs: int = 50
    initial_lr: float = 1e-3
    plateau_patience: int = 3
    lr_decay_factor: float = 0.1
    min_lr: float = 1e-8
    margin: float = DEFAULT_MARGIN
    seed: int = 0


@dataclass
class EpochDecision:
    improved: bool
    decayed: bool
    stop: bool       # a decay fell below the floor


@dataclass
class PlateauSchedule:
    """Decay lr by `factor` after `patience` consecutive non-improving epochs
    (defaults: ``TrainConfig``'s)."""

    lr: float
    patience: int = TrainConfig.plateau_patience
    factor: float = TrainConfig.lr_decay_factor
    min_lr: float = TrainConfig.min_lr
    best: float = field(default=float("inf"))
    bad_epochs: int = field(default=0)

    def observe(self, val_loss: float) -> EpochDecision:
        if val_loss < self.best:
            self.best = val_loss
            self.bad_epochs = 0
            return EpochDecision(improved=True, decayed=False, stop=False)
        self.bad_epochs += 1
        if self.bad_epochs < self.patience:
            return EpochDecision(improved=False, decayed=False, stop=False)
        self.bad_epochs = 0
        lowered = self.lr * self.factor
        if lowered < self.min_lr:
            return EpochDecision(improved=False, decayed=False, stop=True)
        self.lr = lowered
        return EpochDecision(improved=False, decayed=True, stop=False)


# ---------------------------------------------------------------------------
# training


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats]
    stop_reason: str  # epoch_cap | lr_floor


def _instance_loss(graph: ModelInput, labels: Sequence[float],
                   params: ModelParameters, margin: float):
    return margin_rank_loss_t(forward_scores(graph, params), labels, margin)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class _AdamState:
    """First/second moment estimates over ``params.vector``, from ``params.grad``."""

    def __init__(self, params: ModelParameters):
        self.vector, self.grad = params.vector, params.grad
        self.step_count = 0
        self.m = np.zeros_like(self.vector)
        self.v = np.zeros_like(self.vector)

    def step(self, lr: float) -> None:
        m, v, g = self.m, self.v, self.grad
        self.step_count += 1
        correct1 = 1.0 - ADAM_BETA1 ** self.step_count
        correct2 = 1.0 - ADAM_BETA2 ** self.step_count
        m *= ADAM_BETA1
        m += g * (1.0 - ADAM_BETA1)
        v *= ADAM_BETA2
        v += np.square(g) * (1.0 - ADAM_BETA2)
        self.vector -= (m / correct1) * lr / (np.sqrt(v / correct2) + ADAM_EPS)


def validation_loss(instances: Sequence[tuple[ModelInput, Sequence[float]]],
                    params: ModelParameters, margin: float) -> float:
    """Mean loss over (prepared input, labels) pairs, on ``params.frozen``."""
    losses = [_instance_loss(graph, labels, params.frozen, margin).item()
              for graph, labels in instances]
    return float(np.mean(losses))


def train(
    train_set: Sequence[LabeledInstance],
    val_set: Sequence[LabeledInstance],
    init: ModelParameters,
    cfg: TrainConfig,
) -> tuple[ModelParameters, TrainHistory]:
    """Per-instance SGD with the plateau schedule; returns best-val params."""
    cfg = TrainConfig(**read_config({"train": asdict(cfg)})["train"])
    if not train_set or not val_set:
        raise EmptySplit("train and validation sets must be nonempty")
    widths = {len(inst.labels) for inst in list(train_set) + list(val_set)}
    if widths != {len(init.portfolio)}:
        raise LengthMismatch(
            f"label widths {sorted(widths)} vs portfolio {len(init.portfolio)}"
        )

    params = init.copy()
    optimizer = _AdamState(params)
    train_inputs = [(prepare_input(inst.graph, params), inst.labels) for inst in train_set]
    val_inputs = [(prepare_input(inst.graph, params), inst.labels) for inst in val_set]
    schedule = PlateauSchedule(
        lr=cfg.initial_lr, patience=cfg.plateau_patience,
        factor=cfg.lr_decay_factor, min_lr=cfg.min_lr,
    )
    rng = random.Random(cfg.seed)
    best_params = params.copy()
    history: list[EpochStats] = []
    stop_reason = "epoch_cap"

    order = list(range(len(train_set)))
    for epoch in range(1, cfg.epochs + 1):
        lr = schedule.lr
        rng.shuffle(order)
        total = 0.0
        for idx in order:
            graph, labels = train_inputs[idx]
            params.zero_grad()
            loss = _instance_loss(graph, labels, params, cfg.margin)
            total += loss.item()
            if loss.requires_grad:
                tz.backward(loss)
                optimizer.step(lr)
        val = validation_loss(val_inputs, params, cfg.margin)
        history.append(EpochStats(epoch, total / len(train_set), val, lr))
        decision = schedule.observe(val)
        if decision.improved:
            best_params = params.copy()
        if decision.stop:
            stop_reason = "lr_floor"
            break
    return best_params, TrainHistory(history, stop_reason)
