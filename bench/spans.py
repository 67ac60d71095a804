"""Per-layer tracing from outside the program, and the arithmetic on spans.

The traced run rebinds the module attributes through which the program's
layers reach each other (see ``TARGETS``) to wrappers that record one span
per call: name, start, end, parent span and replication id.  The id is the
substream index of the path the call belongs to, taken from the ``seed``
argument of the simulation call that starts the replication.  Spans stay in
memory and are written out when the run ends.  ``installed`` puts every
original back when the traced block exits, so untraced runs call the
program's own functions.

Only the standard library is imported here, so that importing this module
does not shift the set-up time the benchmark measures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional

#: Y at or below this counts as a zero-Y left endpoint (the simulator's
#: threshold for substituting a fresh Brownian increment).
ZERO_Y = 1e-12

#: Where callers look each layer function up: (module, class or None,
#: attribute, span name, whether the span belongs to one replication).
TARGETS = (
    ("ad1n.harness", None, "simulate_path", "simulate", True),
    ("ad1n.simulate", None, "simulate_path", "simulate", True),  # limit draws
    ("ad1n.simulate", None, "validate", "model.validate", True),
    ("ad1n.harness", None, "simulate_critical_limit", "simulate.critical_limit", True),
    ("ad1n.harness", None, "estimate_path", "estimate", True),
    ("ad1n.estimate", None, "design_blocks", "estimate.design_blocks", True),
    ("ad1n.estimate", None, "g_inverse", "estimate.g_inverse", True),
    ("ad1n.estimate", None, "clse_solve", "estimate.clse_solve", True),
    ("ad1n.harness", None, "asymptotic_covariance", "moments.asymptotic_covariance", False),
    ("ad1n.harness", None, "normalizer", "asymptotics.normalizer", False),
    ("ad1n.harness", None, "critical_limit_functional",
     "asymptotics.critical_limit_functional", True),
    ("ad1n.asymptotics", "CriticalLimitFunctional", "limit_draw", "asymptotics.limit_draw", True),
)

#: Spans reported with calls and self time.
COUNTED = (
    "model.validate",
    "simulate",
    "simulate.critical_limit",
    "estimate",
    "estimate.design_blocks",
    "estimate.g_inverse",
    "estimate.clse_solve",
    "moments.asymptotic_covariance",
    "asymptotics.normalizer",
    "asymptotics.critical_limit_functional",
    "asymptotics.limit_draw",
)

#: Spans also reported with per-call median and tail, in the given unit.
TIMED = {
    "simulate": "ms",
    "estimate": "us",
    "estimate.design_blocks": "us",
    "estimate.g_inverse": "us",
}
_SCALE = {"ms": 1e3, "us": 1e6}

#: Percentiles the tail is chosen from, in tenths of a percent.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    rep: Optional[int]
    start: float
    end: float = math.nan
    error: Optional[str] = None


class Tracer:
    """Collects spans and counts of one traced run in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.failures: dict[str, Counter] = {}
        self.rep: Optional[int] = None
        self._stack: list[Span] = []

    def open(self, name: str, per_rep: bool = False) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.rep if per_rep else None, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: Optional[BaseException] = None) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if error is not None:
            span.error = type(error).__name__
            self.failures.setdefault(span.name, Counter())[span.error] += 1

    @contextlib.contextmanager
    def span(self, name: str, per_rep: bool = False):
        s = self.open(name, per_rep)
        try:
            yield s
        except BaseException as exc:
            self.close(s, exc)
            raise
        self.close(s)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _seed_index(signature: inspect.Signature, args, kwargs) -> Optional[int]:
    seed = signature.bind(*args, **kwargs).arguments.get("seed")
    return int(seed[1]) if isinstance(seed, (tuple, list)) else None


def _observe_path(tracer: Tracer, path) -> None:
    Y = path.Y
    tracer.counts["simulate.steps"] += path.n_steps
    tracer.counts["simulate.zero_y_steps"] += int((Y[:-1] <= ZERO_Y).sum())


def _wrap(tracer: Tracer, fn, name: str, per_rep: bool):
    signature = inspect.signature(fn)
    seeded = "seed" in signature.parameters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if seeded:
            tracer.rep = _seed_index(signature, args, kwargs)
        with tracer.span(name, per_rep):
            result = fn(*args, **kwargs)
        if name == "simulate":
            _observe_path(tracer, result)
        return result

    return wrapper


def _owner(module: str, cls: Optional[str]):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every target to a tracing wrapper for the duration of the block."""
    saved = []
    try:
        for module, cls, attr, name, per_rep in TARGETS:
            owner = _owner(module, cls)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, per_rep))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def originals() -> dict:
    """The objects every target is bound to now, keyed by target."""
    return {(m, c, a): getattr(_owner(m, c), a) for m, c, a, _, _ in TARGETS}


def not_restored(before: dict) -> list[str]:
    """Targets no longer bound to the object recorded in ``before``."""
    return [
        f"{module}.{cls + '.' if cls else ''}{attr}"
        for module, cls, attr, _, _ in TARGETS
        if getattr(_owner(module, cls), attr) is not before[(module, cls, attr)]
    ]


# ---------------------------------------------------------------------------
# arithmetic


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _rank(p10: int, n: int) -> int:
    """1-based nearest rank of the p10/10-th percentile of n samples."""
    return -(-p10 * n // 1000)  # ceil(p * n / 100), in integers


def p50(samples) -> float:
    """Nearest-rank median; 0 without samples."""
    xs = sorted(samples)
    return xs[_rank(500, len(xs)) - 1] if xs else 0.0


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, sample count) of the highest ladder percentile with
    at least ``TAIL_MIN_BEYOND`` samples beyond its nearest rank; (0, 0, n)
    when there are too few samples for any."""
    xs = sorted(samples)
    n = len(xs)
    best = (0.0, 0.0, n)
    for p10 in TAIL_LADDER:
        rank = _rank(p10, n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (p10 / 10, xs[rank - 1], n)
    return best


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("setup.import_s", "s", "lower"), ("setup.config_s", "s", "lower")]
    for name in COUNTED:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if name in TIMED:
            unit = TIMED[name]
            spec += [
                (f"{name}.p50_{unit}", unit, "lower"),
                (f"{name}.tail_{unit}", unit, "lower"),
                (f"{name}.tail_pct", "%", "higher"),
            ]
    spec += [
        ("simulate.steps", "count", "higher"),
        ("simulate.zero_y_steps", "count", "lower"),
        ("simulate.ns_per_step", "ns", "lower"),
        ("estimate.failures", "count", "lower"),
        ("estimate.design_blocks_per_estimate", "ratio", "lower"),
        ("asymptotics.limit_draw.failures", "count", "lower"),
        ("harness.self_s", "s", "lower"),
        ("harness.report_s", "s", "lower"),
        ("harness.report_bytes", "bytes", "lower"),
        ("harness.aborted", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


def durations(tracer: Tracer) -> dict[str, list[float]]:
    """Per-call durations of the ``TIMED`` spans, in seconds."""
    out: dict[str, list[float]] = {name: [] for name in TIMED}
    for s in tracer.spans:
        if s.name in TIMED:
            out[s.name].append(s.end - s.start)
    return out


def timings(pooled: dict[str, list[float]]) -> dict[str, float]:
    """Per-call median and tail of each ``TIMED`` span from its durations."""
    out: dict[str, float] = {}
    for name, unit in TIMED.items():
        d = pooled.get(name, [])
        pct, value, _ = tail(d)
        out[f"{name}.p50_{unit}"] = p50(d) * _SCALE[unit]
        out[f"{name}.tail_{unit}"] = value * _SCALE[unit]
        out[f"{name}.tail_pct"] = pct
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Counts and self times of one traced run.  Per-call timings come from
    ``timings``; set-up, report size, aborts and overhead are measured by the
    caller.  Layers the run never called read zero."""
    selfs = self_times(tracer.spans)
    calls: Counter = Counter()
    self_sum: Counter = Counter()
    for s in tracer.spans:
        calls[s.name] += 1
        self_sum[s.name] += selfs[s.id]
    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_sum[name]
    steps = tracer.counts["simulate.steps"]
    out["simulate.steps"] = steps
    out["simulate.zero_y_steps"] = tracer.counts["simulate.zero_y_steps"]
    out["simulate.ns_per_step"] = self_sum["simulate"] / steps * 1e9 if steps else 0.0
    out["estimate.failures"] = sum(tracer.failures.get("estimate", Counter()).values())
    out["estimate.design_blocks_per_estimate"] = (
        calls["estimate.design_blocks"] / calls["estimate"] if calls["estimate"] else 0.0
    )
    out["asymptotics.limit_draw.failures"] = sum(
        tracer.failures.get("asymptotics.limit_draw", Counter()).values()
    )
    out["harness.self_s"] = self_sum["harness"]
    out["harness.report_s"] = self_sum["harness.report"]
    return out
