"""Tests of the benchmark's own code: its statistics, its output checks, its
process probes, its wall-time attribution and the agreement between
BENCHMARK.json and the tables it is generated from.

    python3 -m unittest discover -s perfbench

The replay checks run the release `ccfuzz` binary when one has been built
(under ``$CARGO_TARGET_DIR``, ``.bench_build`` or ``target``) and are
skipped otherwise.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

FIXTURE = os.path.join(ROOT, "crates", "corpus", "fixtures", "findings", "reno-traffic-0303000e0d.json")


def find_ccfuzz():
    for target in (os.environ.get("CARGO_TARGET_DIR"), ".bench_build", "target"):
        if target:
            path = os.path.join(ROOT, target, "release", "ccfuzz")
            if os.access(path, os.X_OK):
                return path
    return None


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_tail_keeps_ten_samples_beyond(self):
        # 1000 samples: the p99 (990) has exactly 10 samples above it.
        pct, value, n = stats.tail_percentile(list(range(1, 1001)))
        self.assertEqual((pct, value, n), (99.0, 990, 1000))
        # 999 samples: the p99 has only 9 above it, so the p98 is reported.
        pct, value, n = stats.tail_percentile(list(range(1, 1000)))
        self.assertEqual((pct, value, n), (98.0, 980, 999))
        # Too few samples for any tail: the median, flagged by pct None.
        pct, value, n = stats.tail_percentile([5, 1, 3])
        self.assertEqual((pct, value, n), (None, 3, 3))

    def test_tail_counts_ties_as_not_beyond(self):
        values = [1.0] * 995 + [2.0] * 5
        pct, value, _ = stats.tail_percentile(values)
        self.assertEqual(value, 1.0)
        self.assertLess(sum(v > value for v in values), stats.MIN_BEYOND)
        self.assertEqual(pct, None)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 15.0, 9.0, 13.0, 10.5, 11.5, 12.5, 14.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / statistics.median(values))
        self.assertEqual(stats.quartile_spread([4.0]), 0.0)
        self.assertEqual(stats.quartile_spread([0.0, 0.0, 0.0]), 0.0)


def _job(ok, evals):
    return {"ok": ok, "evals": evals}


class ChecksTest(unittest.TestCase):
    def setUp(self):
        with open(FIXTURE) as f:
            self.payload = json.dumps(json.load(f))

    def tampered(self):
        finding = json.loads(self.payload)
        finding["outcome"]["score"] += 0.25
        return json.dumps(finding)

    def test_identical_payloads(self):
        self.assertTrue(checks.identical(self.payload, self.payload + "\n", "x")[0])
        self.assertFalse(checks.identical(self.payload, self.tampered(), "x")[0])

    def test_parse_finding_rejects_non_findings(self):
        self.assertIsNotNone(checks.parse_finding(self.payload)[0])
        for junk in ("", "not json", "{}", '{"id": "a", "outcome": {}}'):
            self.assertIsNone(checks.parse_finding(junk)[0], junk)

    def test_minimize_rows_and_retention(self):
        out = (
            "reno-traffic-0303000e0d: 129 -> 123 packets, score 0.951435 -> 0.843825 "
            "(threshold 0.761148, 300 evals); behaviour bucket moved, renamed to x\n"
            "    ddmin: removed 6 of 129 packets (299 evals)\n"
            "reno-link-0808000e0a: 2072 -> 2072 packets, score 0.710400 -> 0.710400 "
            "(threshold 0.568320, 1 evals)\n"
        )
        rows = checks.parse_minimize(out)
        self.assertEqual([r["evals"] for r in rows], [300, 1])
        self.assertEqual(rows[0]["minimized_packets"], 123)
        self.assertTrue(checks.minimize_retained(rows, 2)[0])
        self.assertFalse(checks.minimize_retained(rows, 3)[0])
        rows[0]["minimized_score"] = 0.7  # < 0.8 * 0.951435
        self.assertFalse(checks.minimize_retained(rows, 2)[0])

    def test_failed_job_counts_all_its_evaluations(self):
        self.assertEqual(checks.tally([_job(True, 1460), _job(True, 1460)]), (2920, 0))
        self.assertEqual(checks.tally([_job(True, 1460), _job(False, 1460)]), (2920, 1460))
        self.assertEqual(checks.tally([_job(False, 0)]), (1, 1))

    def test_same_corpus(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            for d in (a, b):
                os.makedirs(os.path.join(d, "findings"))
                shutil.copy(FIXTURE, os.path.join(d, "findings"))
            self.assertTrue(checks.same_corpus(a, b, "x")[0])
            with open(os.path.join(b, "findings", os.path.basename(FIXTURE)), "w") as f:
                f.write(self.tampered())
            self.assertFalse(checks.same_corpus(a, b, "x")[0])

    @unittest.skipUnless(find_ccfuzz(), "no release ccfuzz binary built")
    def test_replay_passes_a_stored_finding_and_fails_a_tampered_one(self):
        ccfuzz = find_ccfuzz()
        with tempfile.TemporaryDirectory() as tmp:
            good = checks.replay_clean(ccfuzz, self.payload, os.path.join(tmp, "good"))
            bad = checks.replay_clean(ccfuzz, self.tampered(), os.path.join(tmp, "bad"))
        self.assertTrue(good[0], good[1])
        self.assertFalse(bad[0], bad[1])
        # A job carrying the tampered payload fails, and all its evaluations with it.
        self.assertEqual(checks.tally([_job(good[0], 1460), _job(bad[0], 1460)]), (2920, 1460))


def _span(id_, parent, name, start, end, **attrs):
    return {"run": 1, "id": id_, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end, "attrs": attrs}


class AttributionTest(unittest.TestCase):
    def test_hunt_wall_shares(self):
        ms = 1_000_000
        spans = [
            _span(2, 1, "store.open", 0, 10 * ms),
            _span(3, 1, "fuzzer.run", 10 * ms, 810 * ms),
            _span(4, 3, "checkpoint.write", 400 * ms, 500 * ms, bytes=10),
            _span(5, 1, "checkpoint.write", 810 * ms, 910 * ms, bytes=10),
            _span(6, 1, "store.insert", 910 * ms, 930 * ms),
            _span(1, 0, "hunt", 0, 1000 * ms),
            _span(7, 0, "cca.sample", 1000 * ms, 1100 * ms),
        ]
        shares = layers.wall_shares(spans)
        self.assertAlmostEqual(shares["wall.fuzzer_share"], 0.7)
        self.assertAlmostEqual(shares["wall.checkpoint_share"], 0.2)
        self.assertAlmostEqual(shares["wall.store_share"], 0.03)
        self.assertAlmostEqual(shares["wall.unattributed_share"], 0.07)

    def test_parallel_worker_checkpoints_count_once(self):
        ms = 1_000_000
        spans = [
            _span(1, 0, "daemon.hunt", 0, 1000 * ms),
            _span(2, 1, "fleet.run", 0, 1000 * ms),
            _span(3, 2, "fleet.generation", 0, 1000 * ms),
            _span(4, 3, "checkpoint.write", 100 * ms, 300 * ms),
            _span(5, 3, "checkpoint.write", 100 * ms, 250 * ms),
        ]
        shares = layers.wall_shares(spans)
        self.assertAlmostEqual(shares["wall.checkpoint_share"], 0.2)
        self.assertAlmostEqual(shares["wall.fuzzer_share"], 0.8)


class ProbeTest(unittest.TestCase):
    LINGER = "import sys, time; sys.stderr.write('ready\\n'); sys.stderr.flush(); time.sleep(30)"

    def test_first_line_times_the_line_and_stops_the_program(self):
        cpus = os.sched_getaffinity(0)
        seconds, line = procs.first_line([sys.executable, "-c", self.LINGER])
        self.assertEqual(line, "ready")
        self.assertLess(seconds, 10)
        self.assertEqual(os.sched_getaffinity(0), cpus)

    def test_watched_peak_of_a_live_process(self):
        p = subprocess.Popen([sys.executable, "-c", self.LINGER], stderr=subprocess.PIPE)
        try:
            p.stderr.readline()
            hwm = {}
            workloads._watch_peaks([p.pid], hwm, 0.01)
            self.assertGreater(hwm[p.pid], 0)
        finally:
            p.kill()
            p.wait()
            p.stderr.close()
        workloads._watch_peaks([p.pid], hwm, 0.0)
        self.assertGreater(hwm[p.pid], 0, "a gone process keeps its last peak")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_matches_the_tables(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(workloads.WORKLOADS))
        for w in self.bench["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]].why)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.bench["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.bench["per_layer"]],
            [(m["name"], m["unit"], m["better"]) for m in layers.LAYER_METRICS],
        )

    def test_file_shape_and_bounds(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        for w in self.bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        self.assertLessEqual(len(self.bench["per_layer"]), 128)

    def test_job_seeds_follow_the_run_seed(self):
        self.assertEqual([run.job_seed(7, i) for i in range(3)], [7001, 7002, 7003])
        self.assertNotEqual(run.job_seed(7, 0), run.job_seed(8, 0))


if __name__ == "__main__":
    unittest.main()
