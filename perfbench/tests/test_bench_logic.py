"""Tests of the benchmark's own logic: tail percentile, span self time,
wrapper installation and generator determinism.

    python3 -m pytest perfbench/tests
    python3 -m unittest discover perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import jobs  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402


class TailPercentile(unittest.TestCase):

    def test_leaves_at_least_ten_beyond_and_no_higher_percentile_does(self):
        for n in range(11, 400):
            p = summary.tail_percentile(n)
            rank = -(-p * n // 100)  # nearest rank, ceil(p*n/100)
            self.assertGreaterEqual(n - rank, 10, n)
            if p < 99:
                self.assertLess(n - -(-(p + 1) * n // 100), 10, n)

    def test_known_sizes(self):
        self.assertEqual(summary.tail_percentile(20), 50)
        self.assertEqual(summary.tail_percentile(40), 75)
        self.assertEqual(summary.tail_percentile(60), 83)
        self.assertEqual(summary.tail_percentile(1000), 99)
        self.assertIsNone(summary.tail_percentile(10))

    def test_nearest_rank(self):
        values = list(range(1, 41))
        self.assertEqual(summary.nearest_rank(values, 75), 30)
        self.assertEqual(summary.nearest_rank(values, 50), 20)
        self.assertEqual(summary.nearest_rank([5.0], 99), 5.0)

    def test_end_to_end_uses_slot_medians(self):
        samples = {f"j{i}": [0.1 * (i + 1), 0.1 * (i + 1), 9.0] for i in range(40)}
        figures = summary.end_to_end(samples)
        self.assertEqual(figures["slots"], 40)
        self.assertEqual(figures["samples"], 120)
        self.assertEqual(figures["tail_p"], 75)
        self.assertAlmostEqual(figures["job_tail_ms"], 3000.0)
        self.assertAlmostEqual(figures["job_p50_ms"], 2050.0)
        self.assertAlmostEqual(figures["jobs_per_s"], 40 / sum(0.1 * (i + 1)
                                                             for i in range(40)))


class Spans(unittest.TestCase):

    def test_self_time_subtracts_direct_children_only(self):
        # outer [0, 100] > mid [10, 70] > inner [20, 50]; sibling [80, 90]
        spans = [[0, -1, 0, 100, 0], [1, 0, 10, 70, 0], [2, 1, 20, 50, 0],
                 [1, 0, 80, 90, 0]]
        self.assertEqual(tracing.self_times(spans), [30, 30, 30, 10])
        self.assertEqual(tracing.job_self_sums(spans, [0]), {0: 100})

    def test_recursive_spans_count_once_in_totals(self):
        spans = [[0, -1, 0, 100, 0], [0, 0, 10, 60, 0], [1, 1, 20, 30, 0],
                 [0, 2, 21, 29, 0]]
        self.assertEqual(tracing.outermost(spans), [True, False, True, False])
        names = ["expressions.evaluate", "ring.mul"]
        counters = {"ring.mul.term_pairs": 0, "ring.mul.kept_terms": 0,
                    "pushforward.projclass_width_max": 0,
                    "render.output_bytes": 0}
        metrics = tracing.layer_metrics(names, spans, counters, {})
        self.assertEqual(metrics["expressions.evaluate.total_s"], 100 / 1e9)
        self.assertEqual(metrics["ring.mul.calls"], 1)
        self.assertEqual(metrics["ring.mul.self_s"], 2 / 1e9)

    def test_wrapped_calls_nest_and_self_time_stays_within_wall(self):
        tracer = tracing.Tracer()

        def inner(x):
            return sum(range(x))

        wrapped_inner = tracer.wrap("inner", inner)

        def outer(x):
            return wrapped_inner(x) + wrapped_inner(x)

        wrapped_outer = tracer.wrap("outer", outer)
        tracer.job = 0
        import time
        start = time.perf_counter_ns()
        wrapped_outer(20000)
        wall = time.perf_counter_ns() - start
        spans = tracer.spans
        self.assertEqual([tracer.names[s[0]] for s in spans],
                         ["outer", "inner", "inner"])
        self.assertEqual([s[1] for s in spans], [-1, 0, 0])
        own = tracing.self_times(spans)
        self.assertEqual(own[0], (spans[0][3] - spans[0][2])
                         - sum(s[3] - s[2] for s in spans[1:]))
        self.assertTrue(all(t >= 0 for t in own))
        self.assertLessEqual(tracing.job_self_sums(spans, [0])[0], wall)

    def test_merge_offsets_child_spans(self):
        names, spans = ["a"], [[0, -1, 0, 5, 0]]
        counters = {"ring.mul.term_pairs": 1, "ring.mul.kept_terms": 1,
                    "pushforward.projclass_width_max": 4,
                    "render.output_bytes": 3}
        child = {"names": ["b", "a"], "spans": [[0, -1, 0, 9, -1], [1, 0, 1, 2, -1]],
                 "counters": dict(counters, **{"pushforward.projclass_width_max": 2})}
        tracing.merge(names, spans, counters, child, 7)
        self.assertEqual(names, ["a", "b"])
        self.assertEqual(spans[1:], [[1, -1, 0, 9, 7], [0, 1, 1, 2, 7]])
        self.assertEqual(counters["pushforward.projclass_width_max"], 4)
        self.assertEqual(counters["render.output_bytes"], 6)


class ReferenceLoop(unittest.TestCase):

    def test_sample_times_the_loop_and_restores_the_collector(self):
        import gc
        import speed
        self.assertTrue(gc.isenabled())
        self.assertGreater(speed.sample(), 0)
        self.assertTrue(gc.isenabled())
        gc.disable()
        try:
            speed.sample()
            self.assertFalse(gc.isenabled())
        finally:
            gc.enable()


class Install(unittest.TestCase):

    def test_every_binding_is_wrapped_and_restored(self):
        import relchern
        from relchern import pushforward, ring
        original = ring.expand_ratio
        tracer = tracing.Tracer()
        missing = tracer.install()
        try:
            self.assertEqual(missing, [])
            for home in (ring, pushforward, relchern):
                self.assertIsNot(home.expand_ratio, original)
                self.assertIs(home.expand_ratio.__wrapped__, original)
            self.assertIs(ring.ChowPoly.__rmul__, ring.ChowPoly.__mul__)
            self.assertIs(ring.ChowPoly.__radd__, ring.ChowPoly.__add__)
            L = ring.ChowRing([ring.Symbol("L")], 2).sym("L")
            3 * L + L * L
        finally:
            tracer.uninstall()
        self.assertIs(ring.expand_ratio, original)
        self.assertIs(pushforward.expand_ratio, original)
        self.assertFalse(hasattr(ring.ChowPoly.__mul__, "__wrapped__"))
        called = [tracer.names[s[0]] for s in tracer.spans]
        self.assertEqual(called.count("ring.mul"), 2)
        self.assertEqual(called.count("ring.add"), 1)
        self.assertEqual(tracer.counters["ring.mul.term_pairs"], 2)


class Generator(unittest.TestCase):

    def test_same_seed_same_jobs_other_seed_other_jobs(self):
        for workload in jobs.WORKLOADS:
            first = jobs.make_jobs(workload, 1)
            self.assertEqual(first, jobs.make_jobs(workload, 1))
            other = jobs.make_jobs(workload, 2)
            self.assertNotEqual(first, other)
            # the mix has the same slots whatever the seed
            self.assertEqual(sorted(j["id"] for j in first),
                             sorted(j["id"] for j in other))
            json.dumps(first)  # plain data only

    def test_anchor_jobs_always_present(self):
        for seed in (1, 2, 3):
            ids = {j["id"] for j in jobs.make_jobs("dual-route", seed)}
            self.assertTrue({"dual-M3-d3", "dual-M3-d5", "dual-M4-d4"} <= ids)
            svw = {j["id"]: j for j in jobs.make_jobs("series-svw", seed)}
            checks = svw["svw-W-d20"]["checks"]
            self.assertEqual([c["expect"] for c in checks], [23328, -540])
            self.assertTrue(any(j["kind"] == "fermat" for j in svw.values()))

    def test_cli_mix_covers_commands_formats_and_invalid_jobs(self):
        mix = jobs.make_jobs("cli-jobs", 5)
        self.assertEqual({j["command"] for j in mix},
                         {"push", "qclass", "euler", "svw", "csm-check", "epoly"})
        self.assertEqual({j["format"] for j in mix}, {"text", "latex", "json"})
        invalid = [j for j in mix if j["expect_exit"] is not None]
        self.assertEqual(len(invalid), 10)
        self.assertEqual({j["expect_exit"] for j in invalid}, {2, 3})
        argv = jobs.cli_argv({"command": "push", "format": "json",
                              "class": "-L"}, "job.json")
        self.assertEqual(argv, ["push", "--config", "job.json", "--format",
                                "json", "--class=-L"])

    def test_redrawn_class_is_seeded_and_keeps_the_symbol_pool(self):
        push = [j for j in jobs.make_jobs("cli-jobs", 7) if j["command"] == "push"]
        for job in push:
            first = jobs.redraw_class(job, 0)
            self.assertEqual(first, jobs.redraw_class(job, 0))
            pool = (jobs._FORMAL_POOL if '"formal"' in job["config_text"]
                    else jobs._PROJECTIVE_POOL)
            names = set(re.findall(r"[A-Za-z]\w*", first))
            self.assertTrue(names <= set(pool), (first, pool))
        self.assertNotEqual([jobs.redraw_class(j, 0) for j in push],
                            [jobs.redraw_class(j, 1) for j in push])

    def test_known_defect_job_is_a_push_with_a_zero_divisor(self):
        job = jobs.KNOWN_DEFECT
        self.assertEqual((job["command"], job["expect_exit"]), ("push", 2))
        self.assertNotIn(job["id"], {j["id"] for j in jobs.make_jobs("cli-jobs", 1)})
        json.loads(job["config_text"])


class BenchmarkFile(unittest.TestCase):

    def test_metric_lists_match_what_the_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        import run
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         tracing.LAYER_METRICS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(jobs.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
