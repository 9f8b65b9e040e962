"""Tests of the campaign benchmark harness.

    python3 -m unittest discover -s perfbench/tests -v

The native tests build perfbench/ into .bench_build/ first (as run.py does)
and run one tiny session per workload, so drift in GOOFI's public API breaks
them loudly.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402
import stats  # noqa: E402

# Experiments per smoke campaign: enough to exercise every layer, small
# enough to finish in seconds.
SMOKE_EXPERIMENTS = {"scifi-control": 40, "swifi-batch": 60, "detail-archive": 3}

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    return METRIC_NAME.fullmatch(name) is not None


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_module(self):
        for values in ([1, 2], [5, 1, 4], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                       [0.5, 0.25, 8.0, 3.0, 3.0, 1e-3]):
            self.assertEqual(stats.quartiles(values),
                             tuple(statistics.quantiles(values, n=4)))
            self.assertEqual(stats.quartiles(values)[1], statistics.median(values))
        self.assertEqual(stats.quartiles([7.5]), (7.5, 7.5, 7.5))

    def test_spread(self):
        values = list(range(1, 11))
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([2.0, 2.0, 2.0]), 0.0)
        self.assertEqual(stats.spread([0, 0]), 0.0)

    def test_percentile(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 5)
        self.assertEqual(stats.percentile(values, 50), 3)
        self.assertAlmostEqual(stats.percentile(values, 90), 4.6)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([9], 99), 9)

    def test_midrange(self):
        self.assertAlmostEqual(stats.midrange([5, 1, 4, 2, 3], 10), 3.0)
        self.assertAlmostEqual(stats.midrange([1, 1, 1, 2, 2, 2], 5), 1.5)
        self.assertAlmostEqual(stats.midrange(list(range(11)), 0), 5.0)
        self.assertEqual(stats.midrange([7], 5), 7)

    def test_summarize_keeps_raw_samples(self):
        summary = stats.summarize([3.0, 1.0, 2.0])
        self.assertEqual(summary["samples"], [3.0, 1.0, 2.0])
        self.assertEqual(summary["n"], 3)
        self.assertEqual(summary["median"], 2.0)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.benchmark = run.load_benchmark()

    def names(self):
        for key in ("workloads", "end_to_end", "per_layer"):
            for entry in self.benchmark[key]:
                yield entry["name"]

    def test_metric_names_are_valid_and_unique(self):
        names = list(self.names())
        for name in names:
            self.assertTrue(valid_metric_name(name), name)
        self.assertEqual(len(names), len(set(names)))
        for bad in ("", "a b", "x/y", ".lead", "é", "a" * 65):
            self.assertFalse(valid_metric_name(bad), bad)

    def test_bounds_and_units(self):
        bounds = {m["name"]: m["bound"] for m in self.benchmark["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        for metric in self.benchmark["end_to_end"] + self.benchmark["per_layer"]:
            self.assertIn(metric["better"], ("higher", "lower"))
            self.assertRegex(metric["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        for bound in bounds.values():
            self.assertTrue(0 < bound <= 0.25)

    def test_workloads_match_run_py(self):
        self.assertEqual(sorted(w["name"] for w in self.benchmark["workloads"]),
                         sorted(run.WORKLOADS))


class CheckTest(unittest.TestCase):
    @staticmethod
    def result(experiments, **overrides):
        digest = {"tables": "t", "reference": "r", "rows": 3,
                  "outcomes": {"latent": 2}, "experiments": experiments}
        digest.update(overrides)
        return {"error": "", "digest": digest}

    def test_identical_passes(self):
        ref = self.result(["a", "b"])
        self.assertEqual(run.check(self.result(["a", "b"]), ref, 2), (0, []))

    def test_counts_differing_experiments(self):
        bad, reasons = run.check(self.result(["a", "x"], tables="u"),
                                 self.result(["a", "b"]), 2)
        self.assertEqual(bad, 1)
        self.assertTrue(reasons)

    def test_table_or_outcome_difference_alone_fails(self):
        for override in ({"tables": "u"}, {"outcomes": {"latent": 1}}, {"rows": 4}):
            bad, _ = run.check(self.result(["a", "b"], **override),
                               self.result(["a", "b"]), 2)
            self.assertEqual(bad, 1, override)

    def test_error_fails_every_experiment(self):
        ref = self.result(["a", "b"])
        self.assertEqual(run.check({"error": "boom"}, ref, 2)[0], 2)
        self.assertEqual(run.check(self.result(["a", "b"]), {"error": "x"}, 2)[0], 2)


class NativeTest(unittest.TestCase):
    """Builds perfbench_session and runs tiny sessions through GOOFI."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def session_cmd(self, *args):
        result = run.run_json([run.SESSION_BIN] + [str(a) for a in args])
        self.assertEqual(result["error"], "")
        return result

    def test_selftest_and_trace_export(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            subprocess.run([run.SELFTEST_BIN, path], check=True, stdout=subprocess.DEVNULL)
            with open(path) as f:
                trace = json.load(f)
        events = trace["traceEvents"]
        self.assertEqual({e["tid"] for e in events}, {0, 1})
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        self.assertEqual(spans["inner"]["args"]["parent"], spans["outer"]["args"]["id"])

    def test_table_digest_is_deterministic_and_seed_sensitive(self):
        first = self.session_cmd("reference", "--workload", "swifi-batch", "--seed", 7,
                            "--experiments", 20)["digest"]
        again = self.session_cmd("reference", "--workload", "swifi-batch", "--seed", 7,
                            "--experiments", 20)["digest"]
        other = self.session_cmd("reference", "--workload", "swifi-batch", "--seed", 8,
                            "--experiments", 20)["digest"]
        self.assertEqual(first, again)
        self.assertEqual(len(first["experiments"]), 20)
        self.assertEqual(first["rows"], 21)
        self.assertNotEqual(first["tables"], other["tables"])
        self.assertNotEqual(first["experiments"], other["experiments"])

    def test_smoke_session_per_workload(self):
        benchmark = run.load_benchmark()
        wanted = {m["name"] for m in benchmark["per_layer"]} - {"trace.overhead_frac"}
        with tempfile.TemporaryDirectory() as tmp:
            for workload, experiments in SMOKE_EXPERIMENTS.items():
                with self.subTest(workload=workload):
                    ref = self.session_cmd("reference", "--workload", workload, "--seed", 3,
                                      "--experiments", experiments)
                    archive = os.path.join(tmp, workload + ".goofidb")
                    plain = self.session_cmd("session", "--workload", workload, "--seed", 3,
                                        "--experiments", experiments, "--archive", archive)
                    self.assertEqual(run.check(plain, ref, experiments), (0, []))
                    self.assertEqual(plain["layers"], {})
                    for key in ("setup_s", "campaign_s", "recovery_s", "analysis_s",
                                "peak_rss_mb"):
                        self.assertGreater(plain[key], 0, key)
                    trace = os.path.join(tmp, workload + ".trace.json")
                    traced = self.session_cmd("session", "--workload", workload, "--seed", 3,
                                         "--experiments", experiments, "--archive", archive,
                                         "--trace-out", trace)
                    self.assertEqual(run.check(traced, ref, experiments), (0, []))
                    self.assertEqual(wanted - set(traced["layers"]), set())
                    for name in traced["layers"]:
                        self.assertTrue(valid_metric_name(name), name)
                    with open(trace) as f:
                        self.assertTrue(json.load(f)["traceEvents"])
                    self.assertFalse(os.path.exists(archive))

    def test_run_py_prints_the_result_line(self):
        # swifi-batch at its real size: the reference and one or two sessions.
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload",
                 "swifi-batch", "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            kind = "per_layer" if trace else "end_to_end"
            self.assertEqual(sorted(result["metrics"]),
                             sorted(m["name"] for m in run.load_benchmark()[kind]))


if __name__ == "__main__":
    unittest.main()
