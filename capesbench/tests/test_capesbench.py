"""Tests of the CAPES benchmark itself.

    python3 -m unittest discover -s capesbench/tests -v

Run from the repository root. The last test builds the benchmark binary
(as run.py does) and runs its --selftest.
"""

import json
import os
import re
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import report  # noqa: E402
import run  # noqa: E402


def load_config():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def episode(traced=False, fingerprint="0000abcd", mbs=100.0, ticks=None,
            refs=None, setup_s=0.2):
    ticks = ticks if ticks is not None else [10.0] * 60
    return {
        "traced": traced, "setup_s": setup_s, "ticks": len(ticks),
        "tick_ms": ticks, "tick_dropped": [0] * len(ticks),
        "ref_ms": refs if refs is not None else [report.NOMINAL_REF_MS] * len(ticks),
        "fingerprint": fingerprint, "train_steps": 7,
        "phases": [{"label": "training", "ticks": len(ticks), "mean_mbs": mbs,
                    "dropped": 0, "train_steps": 7, "regime_shifts": 1}],
        "final_params": [8.0, 4000.0], "tuned_gain_pct": 0.0,
    }


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_returns_measured_values(self):
        xs = [float(x) for x in range(10, 0, -1)]
        self.assertEqual(report.percentile(xs, 50), 5.0)
        self.assertEqual(report.percentile(xs, 90), 9.0)
        self.assertEqual(report.percentile(xs, 100), 10.0)
        self.assertEqual(report.percentile(xs, 0), 1.0)

    def test_median(self):
        self.assertEqual(report.median([3, 1, 2]), 2)
        self.assertEqual(report.median([4, 1, 2, 3]), 2.5)

    def test_highest_reportable_percentile_needs_ten_beyond(self):
        self.assertIsNone(report.highest_reportable_percentile(19))
        self.assertEqual(report.highest_reportable_percentile(20), 50)
        self.assertEqual(report.highest_reportable_percentile(99), 50)
        self.assertEqual(report.highest_reportable_percentile(100), 90)
        self.assertEqual(report.highest_reportable_percentile(1000), 99)
        self.assertEqual(report.highest_reportable_percentile(10000), 99.9)

    def test_every_workload_gives_p90_enough_samples(self):
        # Three measured episodes is the floor; each has this many ticks.
        timed = {"train_8d_capture": 60, "eval_32d_rw": 100,
                 "pool_16d_skew": 80}
        for name, ticks in timed.items():
            best = report.highest_reportable_percentile(3 * ticks)
            self.assertGreaterEqual(best, 90, name)


class SpanTest(unittest.TestCase):
    def span(self, sid, parent, name, start, end):
        return {"id": sid, "parent": parent, "episode": 1, "tick": 0,
                "name": name, "start_ns": start, "end_ns": end}

    def test_self_time_subtracts_union_of_children(self):
        spans = [
            self.span(0, -1, "tick", 0, 100),
            self.span(1, 0, "a", 10, 30),
            self.span(2, 0, "b", 25, 50),  # overlaps a: counted once
            self.span(3, 0, "a", 60, 70),
        ]
        selfs = report.self_times(spans)
        self.assertEqual(selfs["tick"], (50, 1))
        self.assertEqual(selfs["a"], (30, 2))
        self.assertEqual(selfs["b"], (25, 1))

    def test_covered_ns(self):
        self.assertEqual(report.covered_ns([]), 0)
        self.assertEqual(report.covered_ns([(5, 9), (0, 2), (1, 3)]), 7)


class HostScalingTest(unittest.TestCase):
    def test_nominal_reference_leaves_ticks_unchanged(self):
        e = episode(ticks=[10.0, 20.0, 30.0])
        self.assertEqual(report.scaled_tick_ms(e), [10.0, 20.0, 30.0])

    def test_slow_host_is_factored_out(self):
        slow = [2 * report.NOMINAL_REF_MS] * 3
        e = episode(ticks=[20.0, 40.0, 60.0], refs=slow)
        self.assertEqual(report.scaled_tick_ms(e), [10.0, 20.0, 30.0])

    def test_end_to_end_times_skip_the_warm_up_episode(self):
        raw = {"peak_rss_mb": 50.0,
               "episodes": [episode(ticks=[99.0] * 60, setup_s=9.0)]
               + [episode() for _ in range(3)]}
        values = report.end_to_end(raw)
        self.assertAlmostEqual(values["ticks_per_s"], 100.0)
        self.assertEqual(values["tick_p50_ms"], 10.0)
        self.assertEqual(values["tick_p90_ms"], 10.0)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 50.0)
        self.assertEqual(set(values), set(report.END_TO_END))


class CheckTest(unittest.TestCase):
    def verdicts(self, raw, trace=0, metrics=None):
        return {name: ok for name, ok, _ in report.checks(raw, trace, metrics)}

    def test_identical_repeats_pass(self):
        raw = {"episodes": [episode() for _ in range(4)]}
        self.assertTrue(all(self.verdicts(raw).values()))
        self.assertEqual(report.attempted_failed(raw, True), (240, 0))

    def test_differing_repeat_fails_and_fails_every_tick(self):
        raw = {"episodes": [episode() for _ in range(3)] + [episode(mbs=100.5)]}
        verdicts = self.verdicts(raw)
        self.assertFalse(verdicts["repeats_identical"])
        self.assertEqual(report.attempted_failed(raw, False), (240, 240))

    def test_traced_fingerprint_must_match(self):
        raw = {"episodes": [episode(), episode(traced=True, fingerprint="ffff0000")]}
        verdicts = self.verdicts(raw, trace=1, metrics={"trace.coverage_pct": 99.0})
        self.assertFalse(verdicts["traced_equals_untraced"])
        self.assertTrue(verdicts["trace_coverage"])

    def test_low_coverage_fails(self):
        raw = {"episodes": [episode(), episode(traced=True)]}
        verdicts = self.verdicts(raw, trace=1, metrics={"trace.coverage_pct": 90.0})
        self.assertFalse(verdicts["trace_coverage"])

    def test_dropped_message_fails_its_tick(self):
        raw = {"episodes": [episode() for _ in range(4)]}
        raw["episodes"][2]["tick_dropped"][5] = 1
        self.assertFalse(self.verdicts(raw)["no_dropped_messages"])

    def test_too_few_ticks_for_p90(self):
        raw = {"episodes": [episode(ticks=[10.0] * 30) for _ in range(4)]}
        self.assertFalse(self.verdicts(raw)["tick_samples_for_p90"])

    def test_replay_must_equal_live(self):
        capture = {"error": "", "dropped_records": 0, "fresh_weights_match": True,
                   "decode_errors": 0, "action_mismatches": 0,
                   "replay_fingerprint": "0000abcd", "replay_train_steps": 7}
        eps = [dict(episode(), capture_dropped=0) for _ in range(4)]
        self.assertTrue(self.verdicts(
            {"episodes": eps, "capture": capture})["replay_equals_live"])
        capture["replay_fingerprint"] = "0000abce"
        self.assertFalse(self.verdicts(
            {"episodes": eps, "capture": capture})["replay_equals_live"])


class BenchmarkJsonTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_printed_names_match_benchmark_json(self):
        config = load_config()
        self.assertEqual(report.name_mismatches(config, 0, report.END_TO_END), [])
        self.assertEqual(report.name_mismatches(config, 1, report.PER_LAYER), [])

    def test_name_check_reports_drift(self):
        config = load_config()
        config["end_to_end"] = config["end_to_end"][1:] + [
            {"name": "ghost", "unit": "ms", "better": "lower", "bound": 0.1}]
        problems = report.name_mismatches(config, 0, report.END_TO_END)
        self.assertEqual(len(problems), 2)
        units = dict(report.END_TO_END, tick_p50_ms="s")
        self.assertEqual(len(report.name_mismatches(load_config(), 0, units)), 1)

    def test_contract_shape(self):
        config = load_config()
        self.assertEqual(set(config), {"command", "paths", "run_seconds",
                                       "workloads", "end_to_end", "per_layer"})
        self.assertEqual(config["command"], ["python3", "capesbench/run.py"])
        self.assertEqual(config["paths"], ["capesbench"])
        self.assertIsInstance(config["run_seconds"], int)
        self.assertEqual([w["name"] for w in config["workloads"]],
                         list(run.WORKLOADS))
        for w in config["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in config[key]] + [w["name"] for w in config["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                            ("per_layer", {"name", "unit", "better"})):
            for m in config[key]:
                self.assertEqual(set(m), fields, m["name"])
                self.assertRegex(m["name"], self.NAME)
                self.assertRegex(m["unit"], self.UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        setup = [m for m in config["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(bounds.values()))


class DocPageTest(unittest.TestCase):
    def test_readme_documents_every_metric_and_workload(self):
        with open(os.path.join(BENCH_DIR, "README.md")) as f:
            text = f.read()
        config = load_config()
        names = [w["name"] for w in config["workloads"]]
        names += [m["name"] for m in config["end_to_end"] + config["per_layer"]]
        for name in names:
            self.assertIn(f"`{name}`", text, name)


class TracedLoopTest(unittest.TestCase):
    def test_traced_loop_reproduces_the_facade(self):
        cwd = os.getcwd()
        os.chdir(REPO_ROOT)
        try:
            binary = run.build_binary()
            self.assertIsNotNone(binary, "benchmark build failed")
            out_dir = os.path.join(run.build_root(), "capesbench-selftest")
            os.makedirs(out_dir, exist_ok=True)
            proc = subprocess.run([binary, "--selftest", f"--out={out_dir}"],
                                  capture_output=True, text=True, timeout=300)
        finally:
            os.chdir(cwd)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.count(": equal"), 2, proc.stdout)


if __name__ == "__main__":
    unittest.main()
