"""The ad1n benchmark: `ad1n experiment` on two workloads, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src`` directory; without it the benchmark exits 2 and prints no
result.

One run repeats the workload's experiment in fresh processes, one after the
other, for about S seconds (at least four).  Each repetition imports
``ad1n``, loads and validates the generated config, then runs
``run_experiment(cfg, threads=1)`` and ``write_report``.  With ``--trace 0``
the last line of standard output reports the end-to-end metrics, each the
median over the repetitions:

path_steps_per_s  grid steps simulated (estimation plus limit-draw paths,
                  counted from the config) over run + report wall time
setup_s           process start to ``import ad1n`` done and config validated
peak_rss_mb       ``ru_maxrss`` of the repetition's process
ok_rate           replications without an abort over those attempted; every
                  replication of a repetition that raises or fails the
                  output check counts as failed

With ``--trace 1`` every other repetition, the first included, runs with
tracing wrappers (see ``spans.py``) and the line reports the per-layer
metrics: counts and self times as medians over the traced repetitions,
per-call timings over their pooled calls.  A tail is the highest of
p50/p75/p90/p95/p99/p99.9 with at least ten samples beyond it; its
percentile is reported as ``<span>.tail_pct`` and its sample count is kept
in the run record.  The untraced repetitions give the base of
``trace.overhead_s``.

Output check: each repetition's per-replication CSV SHA-256 equals the one
pinned in ``digests.json`` for the workload and seed (or, for a seed with no
pinned digest, every repetition's digest is the same), and every tau
estimate that was not aborted is finite.  ``report.passed`` is recorded but
not checked: the trimmed experiments fail the statistical checks by sample
size alone.  BLAS thread variables are recorded as found and never set.

Everything the run writes goes under ``.bench_out/`` in the checkout: the
run record (machine, repetitions, failures) and the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPETITIONS = 4
#: A run ends within this many seconds whatever the repetitions do.
DEADLINE_S = 170.0
OUT = ".bench_out"
#: End-to-end metrics and their units, as BENCHMARK.json names them.
END_TO_END = {"path_steps_per_s": "steps/s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_rate": "fraction"}


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_repetition(src: str, cfg_path: str, out_dir: str, traced: bool,
                   timeout: float) -> dict:
    """One fresh worker process; its JSON result, or the failure it had."""
    os.makedirs(out_dir, exist_ok=True)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), src, cfg_path, out_dir,
             repr(spawn), "1" if traced else "0"],
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return {"error": "Timeout", "duration_s": time.monotonic() - spawn}
    duration = time.monotonic() - spawn
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"WorkerExit{proc.returncode}"}
    if "error" in result:
        sys.stderr.write(proc.stderr)
    result["duration_s"] = duration
    return result


def check_outputs(reps: list[dict], pinned: str | None, workload: str, seed: int) -> None:
    """Mark each repetition that fails the output check, in place."""
    ran = [r for r in reps if "error" not in r]
    want = pinned or (ran[0]["digest"] if ran else None)
    for r in ran:
        problem = None
        if r["digest"] != want:
            kind = "pinned" if pinned else "first repetition's"
            problem = f"CSV digest {r['digest']} != {kind} {want}"
        elif not r["finite"]:
            problem = "non-finite tau estimate"
        if problem:
            r["error"] = "OutputCheck"
            print(f"output check failed: workload={workload} seed={seed}: {problem}",
                  file=sys.stderr)


def _median(reps: list[dict], key: str) -> float:
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else 0.0


def traced_layers(traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics over the traced repetitions: the median of each count
    and self time, and per-call timings from the pooled durations, with the
    number of pooled samples.  Counts must repeat exactly; a count that does
    not is reported on stderr."""
    if not traced:
        return {}, {}
    out = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        timed = name.endswith("_s") or name.endswith("ns_per_step")
        if not timed and len(set(values)) > 1:
            print(f"count {name} differs across traced repetitions: {values}",
                  file=sys.stderr)
        out[name] = statistics.median(values)
    pooled = {name: [d for r in traced for d in r["durations"][name]] for name in spans.TIMED}
    out.update(spans.timings(pooled))
    return out, {name: len(d) for name, d in pooled.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ad1n", "__init__.py")):
        print(f"no ad1n sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    tmp = os.path.join(root, OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    machine = machine_record()
    reps: list[dict] = []
    spans_kept = os.path.join(root, OUT, f"{tag}.spans.jsonl")
    if os.path.exists(spans_kept):
        os.remove(spans_kept)
    try:
        cfg_path = os.path.join(tmp, "experiment.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(args.seed))
        while True:
            elapsed = time.monotonic() - start
            typical = _median(reps, "duration_s")
            if len(reps) >= MIN_REPETITIONS and elapsed + typical > args.seconds:
                break
            if elapsed + 2 * typical > DEADLINE_S:
                break
            traced = bool(args.trace) and len(reps) % 2 == 0
            out_dir = os.path.join(tmp, f"rep{len(reps)}")
            rep = run_repetition(src, cfg_path, out_dir, traced, timeout=DEADLINE_S - elapsed)
            if "spans_file" in rep:
                if not os.path.exists(spans_kept):
                    os.replace(rep["spans_file"], spans_kept)
                rep["spans_file"] = spans_kept
            reps.append(rep)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh).get(workload.name, {}).get(str(args.seed))
    check_outputs(reps, pinned, workload.name, args.seed)

    attempted = workload.replications * len(reps)
    failed = sum(workload.replications if "error" in r else r["aborted"] for r in reps)
    ok = [r for r in reps if "error" not in r]
    if args.trace:
        traced = [r for r in ok if "layers" in r]
        metrics = {name: 0.0 for name, _, _ in spans.per_layer_spec()}
        layers, tail_samples = traced_layers(traced)
        metrics.update(layers)
        metrics["setup.import_s"] = _median(ok, "import_s")
        metrics["setup.config_s"] = _median(ok, "config_s")
        traced_wall = _median(traced, "wall_s")
        untraced_wall = _median([r for r in ok if "layers" not in r], "wall_s")
        if traced_wall and untraced_wall:
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
        units = {name: unit for name, unit, _ in spans.per_layer_spec()}
    else:
        metrics = {
            "path_steps_per_s": statistics.median(
                [workload.steps / r["wall_s"] for r in ok]) if ok else 0.0,
            "setup_s": _median(reps, "setup_s"),
            "peak_rss_mb": _median(ok, "rss_mb"),
            "ok_rate": (attempted - failed) / attempted if attempted else 0.0,
        }
        units = END_TO_END
        tail_samples = None

    machine["loadavg_1m_end"] = os.getloadavg()[0]
    machine.update(next((r["libraries"] for r in ok), {}))
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "steps_per_repetition": workload.steps,
        "pinned_digest": pinned, "machine": machine, "tail_samples": tail_samples,
        "repetitions": [{k: v for k, v in r.items() if k != "libraries"} for r in reps],
    }
    with open(os.path.join(root, OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps({
        "correct": len(ok) == len(reps) and bool(reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
