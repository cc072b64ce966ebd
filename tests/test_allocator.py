"""The CLI's allocator setting: glibc keeps the model's freed temporaries in
its heap instead of mapping and faulting them in on every step."""

import importlib.util
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from verisel import cli
from verisel import tensor as tz
from verisel.model import forward_scores, init_parameters, margin_rank_loss_t, prepare_input
from verisel.trainer import _AdamState

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "corpus" / "01_straight_line.c"
PINNED = [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


GLIBC = _glibc()


@pytest.fixture
def fresh(monkeypatch):
    """No setting applied yet in this process, and no glibc malloc tunable
    in the environment."""
    for name in (*cli._MALLOC_ENV, "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)
    cli.pin_malloc_thresholds.cache_clear()
    yield
    cli.pin_malloc_thresholds.cache_clear()


@pytest.fixture
def mallopt(monkeypatch, fresh):
    """A stub for libc's ``mallopt`` on a stated glibc; it records its calls
    and returns ``mallopt.result``."""
    def stub(param, value):
        stub.calls.append((param, value))
        return stub.result
    stub.calls, stub.result = [], 1
    monkeypatch.setattr(cli, "_mallopt", stub)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
    return stub


def test_main_pins_the_thresholds_once_per_process(mallopt, tmp_path):
    for run in range(2):
        assert cli.main(["extract", str(SOURCE), "-o", str(tmp_path / f"{run}.json")]) == 0
    assert mallopt.calls == PINNED
    assert cli.pin_malloc_thresholds() is True
    assert mallopt.calls == PINNED


def test_importing_verisel_pins_nothing():
    code = """
import ctypes, json, sys
calls = []
class Libc:
    def __init__(self, name):
        pass
    def mallopt(self, param, value):
        calls.append([param, value])
        return 1
ctypes.CDLL = Libc
import importlib, pkgutil, verisel
modules = [info.name for info in pkgutil.walk_packages(verisel.__path__, "verisel.")]
for name in modules:
    importlib.import_module(name)
on_import = list(calls)
verisel.cli.pin_malloc_thresholds()
print(json.dumps([modules, on_import, calls]))
"""
    env = {name: value for name, value in os.environ.items()
           if name not in (*cli._MALLOC_ENV, "GLIBC_TUNABLES")}
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), *sys.path])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    modules, on_import, after_call = json.loads(out)
    assert {"verisel.cli", "verisel.frontend.parser", "verisel.trainer"} <= set(modules)
    assert on_import == []
    assert after_call == ([list(call) for call in PINNED] if GLIBC else [])


@pytest.mark.parametrize("name, value", [
    ("MALLOC_MMAP_THRESHOLD_", "1048576"),
    ("MALLOC_TRIM_THRESHOLD_", "1048576"),
    ("MALLOC_TOP_PAD_", "0"),
    ("MALLOC_MMAP_MAX_", "0"),
    ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=1048576"),
    ("GLIBC_TUNABLES", "glibc.rtld.nns=2:glibc.malloc.arena_max=1"),
])
def test_a_malloc_tunable_in_the_environment_wins(mallopt, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert cli.pin_malloc_thresholds() is False
    assert mallopt.calls == []


def test_a_tunable_outside_malloc_does_not_stop_the_setting(mallopt, monkeypatch):
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.nns=2")
    assert cli.pin_malloc_thresholds() is True
    assert mallopt.calls == PINNED


@pytest.mark.parametrize("confstr", [None, "raises", "absent"])
def test_off_glibc_nothing_is_pinned(mallopt, monkeypatch, confstr):
    if confstr == "absent":  # no os.confstr at all, as on Windows
        monkeypatch.delattr(os, "confstr")
    elif confstr == "raises":  # a libc without the name
        def unknown(name):
            raise ValueError("unrecognized configuration name")
        monkeypatch.setattr(os, "confstr", unknown)
    else:
        monkeypatch.setattr(os, "confstr", lambda name: confstr)
    assert cli.pin_malloc_thresholds() is False
    assert mallopt.calls == []


def test_a_refused_setting_leaves_the_command_working_and_silent(mallopt, tmp_path, capsys):
    mallopt.result = 0
    assert cli.main(["extract", str(SOURCE), "-o", str(tmp_path / "g.json")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "g.json").is_file()
    assert cli.pin_malloc_thresholds() is False


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not GLIBC, reason="glibc's mallopt is absent")
def test_pinned_training_steps_on_a_large_graph_do_not_page_fault(fresh):
    """Once the CLI's setting is applied, a training step on a 1.9k-node
    graph reuses the heap for its temporaries (1.7k-9k faults per step
    without it)."""
    assert cli.pin_malloc_thresholds() is True
    digest = _script("model_digest")
    union = digest.disjoint_union(digest.corpus_instances(0) * 3, "union")
    params = init_parameters(digest.CONFIGS["readme"], cli.TokenVocabulary.default(),
                             digest.PORTFOLIO, seed=0)
    inp = prepare_input(union.graph, params)
    optimizer = _AdamState(params)

    def step():
        params.zero_grad()
        tz.backward(margin_rank_loss_t(forward_scores(inp, params), union.labels, 1.0))
        optimizer.step(1e-3)

    step()  # warm-up
    steps = 20
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
    assert union.graph.num_nodes > 1800
    assert faults / steps < 20
