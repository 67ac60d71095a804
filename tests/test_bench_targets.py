"""The traced benchmark rebinds named layer functions (``bench/spans.py``
``TARGETS``); renaming one of them must fail here, not only in a traced
benchmark run.  This test only reads ``bench/``."""

import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    bound = spans.originals()  # AttributeError when a target is gone
    assert len(bound) == len(spans.TARGETS)
    assert all(callable(f) for f in bound.values())
