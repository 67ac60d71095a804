"""The benchmark reaches into the program by name: the traced run rebinds
named layer functions (``bench/spans.py`` ``TARGETS``), and every workload
is an experiment config (``bench/workloads.py``).  Renaming a target or
tightening the config parser past a workload must fail here, not only in a
benchmark run, and so must a change that moves a CSV digest pinned in
``bench/digests.json``.  These tests only read ``bench/``."""

import importlib
import json
import pathlib

import pytest

from ad1n import experiment_config_from_text, run_experiment
from test_blas_threads import _numpy_pool

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

#: the pinned CSV digests, per workload and seed
PINS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))

#: numpy's OpenBLAS thread count a pin holds at, for the pins that depend on
#: it: subcritical_clt's 25,000-step reductions sum in another order on one
#: thread (its seed-11 digest is then 6304ade0c0dd...)
PIN_BLAS_THREADS = {"subcritical_clt": 2}


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


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_digest_holds_at_the_default_seed(name, monkeypatch):
    # a change that moves a pin must fail here, not reach the benchmark as
    # an incorrect output
    threads, found = PIN_BLAS_THREADS.get(name), _numpy_pool()()
    if threads is not None and found != threads:
        pytest.skip(f"{name}'s pin holds with numpy's OpenBLAS on {threads} threads, "
                    f"this process has {found}")
    monkeypatch.syspath_prepend(str(BENCH))
    w = importlib.import_module("workloads").WORKLOADS[name]
    report = run_experiment(experiment_config_from_text(w.config_text(w.default_seed)),
                            threads=1)
    assert report.summary()["csv_sha256"] == PINS[name][str(w.default_seed)]
