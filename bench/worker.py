"""One repetition of a workload, in a fresh process: what `ad1n experiment` does.

    python3 bench/worker.py SRC_DIR CONFIG OUT_DIR SPAWN_STAMP TRACE

SRC_DIR is the checkout's ``src`` directory, CONFIG the generated experiment
config, OUT_DIR where the report goes, SPAWN_STAMP the parent's
``time.monotonic()`` just before it started this process (so set-up time
counts interpreter start-up), TRACE 1 to record spans.  Runs
``load_experiment_config -> run_experiment(threads=1) -> write_report`` and
prints one JSON object as its last line of standard output.  On an error it
prints the error class in that object and exits 1.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import sys
import time
import traceback


def _libraries() -> dict:
    """numpy and scipy versions and the BLAS numpy was built against."""
    import numpy
    import scipy

    out = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        return out
    out["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    return out


def run(src: str, cfg_path: str, out_dir: str, spawn: float, traced: bool) -> dict:
    sys.path.insert(0, src)
    import ad1n  # the set-up users pay: numpy and scipy come in here

    t_import = time.monotonic()
    if os.path.dirname(os.path.abspath(ad1n.__file__)) != os.path.join(src, "ad1n"):
        raise ImportError(f"ad1n was imported from {ad1n.__file__}, not from {src}")
    cfg = ad1n.load_experiment_config(cfg_path)
    cfg.validate_for_limit_theorem()
    t_config = time.monotonic()
    out = {
        "setup_s": t_config - spawn,
        "import_s": t_import - spawn,
        "config_s": t_config - t_import,
    }

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        originals = spans.originals()
        tracing = spans.installed(tracer)
        span = tracer.span
    else:
        tracing = contextlib.nullcontext()
        span = lambda name: contextlib.nullcontext()  # noqa: E731

    with tracing:
        t0 = time.perf_counter()
        with span("harness"):
            report = ad1n.run_experiment(cfg, threads=1)
        t1 = time.perf_counter()
        with span("harness.report"):
            files = ad1n.write_report(report, out_dir)
        t2 = time.perf_counter()

    estimates = [r for r in report.rows if r.kind == "estimate"]
    out.update(
        run_s=t1 - t0,
        report_s=t2 - t1,
        wall_s=t2 - t0,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=report.summary()["csv_sha256"],
        finite=all(
            math.isfinite(float(v)) for r in estimates if not r.aborted for v in r.tau
        ),
        replications=len(estimates),
        aborted=sum(1 for r in estimates if r.aborted),
        passed=report.passed,
        report_bytes=sum(os.path.getsize(p) for p in files.values()),
        libraries=_libraries(),
    )
    if tracer is not None:
        missing = spans.not_restored(originals)
        if missing:
            raise RuntimeError(f"tracing wrappers left in place: {', '.join(missing)}")
        layers = spans.layer_metrics(tracer)
        layers["harness.report_bytes"] = out["report_bytes"]
        layers["harness.aborted"] = out["aborted"]
        out["layers"] = layers
        out["durations"] = spans.durations(tracer)
        out["failures"] = {k: dict(v) for k, v in tracer.failures.items()}
        spans_path = os.path.join(out_dir, "spans.jsonl")
        tracer.write_jsonl(spans_path)
        out["spans_file"] = spans_path
    return out


def main(argv: list[str]) -> int:
    src, cfg_path, out_dir, spawn, trace = argv[1:6]
    try:
        result = run(src, cfg_path, out_dir, float(spawn), trace == "1")
    except Exception as exc:  # the boundary: report the class, never retry
        traceback.print_exc()
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
