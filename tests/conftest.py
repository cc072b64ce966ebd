import os
from dataclasses import dataclass, field

import pytest
from hypothesis import settings

from planted import (
    PORTFOLIO,
    PlantedGraph,
    experiment_config,
    instances_of,
    planted_dataset,
    synthetic_vocabulary,
)
from verisel.graphio import LabeledInstance
from verisel.model import ModelParameters, init_parameters
from verisel.trainer import TrainConfig, TrainHistory, train

# CI runs the property tests on a fixed example sequence so a run cannot flake;
# local runs keep drawing random examples.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@dataclass
class SyntheticRun:
    """One fixed-seed planted-signal experiment shared across test modules."""

    params: ModelParameters
    history: TrainHistory
    config: TrainConfig
    train_set: list[LabeledInstance] = field(default_factory=list)
    val_set: list[LabeledInstance] = field(default_factory=list)
    held_out: list[LabeledInstance] = field(default_factory=list)
    held_out_planted: list[PlantedGraph] = field(default_factory=list)


@pytest.fixture(scope="session")
def synthetic_run() -> SyntheticRun:
    """Train on 30 planted-signal graphs with pinned seeds (data 0, init 1)."""
    vocab = synthetic_vocabulary()
    data = planted_dataset(60, seed=0)
    train_set = instances_of(data[:30])
    val_set = instances_of(data[30:40])
    init = init_parameters(experiment_config(), vocab, PORTFOLIO, seed=1)
    cfg = TrainConfig(epochs=200, initial_lr=1e-3, margin=1.0, seed=0)
    params, history = train(train_set, val_set, init, cfg)
    return SyntheticRun(
        params=params,
        history=history,
        config=cfg,
        train_set=train_set,
        val_set=val_set,
        held_out=instances_of(data[40:]),
        held_out_planted=[g for g in data[40:] if g.positive],
    )


@pytest.fixture(scope="session")
def synthetic_model(synthetic_run) -> ModelParameters:
    return synthetic_run.params
