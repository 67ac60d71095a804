"""The benchmark reaches into the program by name: the traced run rebinds
named layer functions (``bench/spans.py`` ``TARGETS``), and every workload
is an experiment config (``bench/workloads.py``).  Renaming a target or
tightening the config parser past a workload must fail here, not only in a
benchmark run.  These tests only read ``bench/``."""

import importlib
import pathlib

from ad1n import experiment_config_from_text

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    bound = spans.originals()  # AttributeError when a target is gone
    assert len(bound) == len(spans.TARGETS)
    assert all(callable(f) for f in bound.values())


def test_every_workload_config_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for w in workloads.WORKLOADS.values():
        config = experiment_config_from_text(w.config_text(w.default_seed))
        config.validate_for_limit_theorem()
        assert (config.replications, config.flavor) == (w.replications, w.flavor)
