"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest bench/test_bench.py      (or: python3 -m unittest bench/test_bench.py)
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(i, name, parent, start, end):
    return spans.Span(i, name, parent, None, start, end)


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        s = [_span(0, "a", None, 0.0, 10.0), _span(1, "b", 0, 2.0, 7.0),
             _span(2, "c", 1, 3.0, 4.0)]
        self.assertEqual(spans.self_times(s), {0: 5.0, 1: 4.0, 2: 1.0})

    def test_siblings(self):
        s = [_span(0, "a", None, 0.0, 10.0), _span(1, "b", 0, 1.0, 3.0),
             _span(2, "b", 0, 3.0, 6.0), _span(3, "c", 0, 8.0, 9.0)]
        self.assertEqual(spans.self_times(s), {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})

    def test_children_overlapping_or_outside_count_once(self):
        s = [_span(0, "a", None, 0.0, 10.0), _span(1, "b", 0, 2.0, 6.0),
             _span(2, "b", 0, 4.0, 8.0), _span(3, "c", 0, 9.0, 12.0)]
        self.assertEqual(spans.self_times(s)[0], 3.0)

    def test_tracer_nests_and_records_failures(self):
        ticks = iter(range(100))
        t = spans.Tracer(clock=lambda: float(next(ticks)))
        with t.span("outer"):
            with self.assertRaises(ValueError):
                with t.span("inner", per_rep=True):
                    raise ValueError
        outer, inner = t.spans
        self.assertEqual(inner.parent, outer.id)
        self.assertEqual(inner.error, "ValueError")
        self.assertEqual(dict(t.failures), {"inner": {"ValueError": 1}})
        self.assertEqual(spans.self_times(t.spans), {0: 2.0, 1: 1.0})


class TailTest(unittest.TestCase):
    def test_too_few_samples(self):
        self.assertEqual(spans.tail(range(19)), (0.0, 0.0, 19))
        self.assertEqual(spans.tail([]), (0.0, 0.0, 0))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(spans.tail(range(20)), (50.0, 9, 20))
        self.assertEqual(spans.tail(range(39)), (50.0, 19, 39))
        self.assertEqual(spans.tail(range(40)), (75.0, 29, 40))
        self.assertEqual(spans.tail(range(100)), (90.0, 89, 100))
        self.assertEqual(spans.tail(range(1000)), (99.0, 989, 1000))
        # 99.9% of 10000 is rank 9990; ceil(99.9 / 100 * 10000) in floats says 9991
        self.assertEqual(spans.tail(range(10000)), (99.9, 9989, 10000))

    def test_median_is_the_p50_rank(self):
        self.assertEqual(spans.p50([]), 0.0)
        self.assertEqual(spans.p50([3.0, 1.0, 2.0, 4.0]), 2.0)
        self.assertEqual(spans.p50(range(20)), spans.tail(range(20))[1])

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(spans.tail(reversed(range(100))), spans.tail(range(100)))


class WrapperTest(unittest.TestCase):
    def test_originals_restored_even_after_an_error(self):
        import ad1n.harness

        before = spans.originals()
        tracer = spans.Tracer()
        with self.assertRaises(KeyError):
            with spans.installed(tracer):
                self.assertTrue(spans.not_restored(before))
                raise KeyError
        self.assertEqual(spans.not_restored(before), [])
        params = ad1n.ModelParams(n=1, a=2.0, b=1.0, m=[1.0], kappa=[0.5], theta=[[2.0]],
                                  rho=[[1, 0], [0.2, 0.9]], y0=2.0, x0=0.25)
        ad1n.harness.simulate_path(params, 1.0, 0.1, seed=(1, 2))
        self.assertEqual(tracer.spans, [])

    def _traced_counts(self, workload):
        import ad1n

        cfg = ad1n.experiment_config_from_text(workload.config_text(7))
        tracer = spans.Tracer()
        with spans.installed(tracer):
            with tracer.span("harness"):
                report = ad1n.run_experiment(cfg, threads=1)
        return tracer, report

    def test_layers_of_a_small_exact_run(self):
        w = dataclasses.replace(WORKLOADS["subcritical_clt"], horizon=10, replications=3)
        tracer, report = self._traced_counts(w)
        m = spans.layer_metrics(tracer)
        self.assertEqual(m["simulate.steps"], w.steps)
        self.assertEqual(m["simulate.calls"], 3)
        self.assertEqual(m["model.validate.calls"], 3)
        self.assertEqual(m["estimate.g_inverse.calls"], 3)
        self.assertEqual(m["estimate.design_blocks_per_estimate"], 2.0)
        self.assertEqual(m["moments.asymptotic_covariance.calls"], 1)
        self.assertEqual(m["asymptotics.limit_draw.calls"], 0)
        reps = {s.rep for s in tracer.spans if s.name.startswith("estimate")}
        self.assertEqual(reps, {0, 1, 2})

    def test_layers_of_a_small_critical_run(self):
        w = dataclasses.replace(WORKLOADS["critical_limit"], horizon=10, replications=2,
                                limit_draws=3)
        tracer, report = self._traced_counts(w)
        m = spans.layer_metrics(tracer)
        self.assertEqual(m["simulate.steps"], w.steps)
        self.assertEqual(m["simulate.calls"], 5)
        self.assertEqual(m["simulate.critical_limit.calls"], 3)
        self.assertGreaterEqual(m["simulate.zero_y_steps"], 3)  # limit paths start at 0
        self.assertEqual(m["estimate.g_inverse.calls"], 0)
        self.assertEqual(m["estimate.design_blocks_per_estimate"], 1.0)
        self.assertEqual(m["asymptotics.limit_draw.calls"], 3)
        # limit draw j of this config owns substream index replications + j
        draws = [s.rep for s in tracer.spans if s.name == "asymptotics.limit_draw"]
        self.assertEqual(draws, [2, 3, 4])
        self.assertLess(m["harness.self_s"], tracer.spans[0].end - tracer.spans[0].start)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         spans.per_layer_spec())
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            pinned = json.load(fh)
        for w in WORKLOADS.values():
            self.assertIn(str(w.default_seed), pinned[w.name])


if __name__ == "__main__":
    unittest.main()
