"""Self-tests of the perfbench benchmark.

    python3 perfbench/test_perfbench.py          # from the repository root

The metric tests are pure and take milliseconds. The run tests build the
pass runner (as run.py does) and make shortened runs of every workload, about
under two minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402
import run  # noqa: E402


def point(label, digest, ipc=1.0, err=0.0, budget=1000):
    return [label, "k" + label, digest, ipc, err, budget]


def record(mode, points, wall_s=2.0, stores=("s0",), block=0, **extra):
    r = {"mode": mode, "points": points, "wall_s": wall_s, "setup_s": 0.01,
         "peak_rss_kb": 2048, "stores": list(stores), "block": block,
         "jobs": 2}
    r.update(extra)
    return r


class MetricMath(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        r = metrics.Ratio(3, 4)
        self.assertEqual((r.num, r.den, r.value), (3, 4, 0.75))
        self.assertEqual(metrics.Ratio(5, 0).value, 0.0)

    def test_throughput_counts_completed_points_at_full_budget(self):
        rec = record("plain", [point("a", "d1", budget=2_000_000),
                               point("b", None, ipc=None, budget=None)],
                     wall_s=4.0)
        self.assertEqual(metrics.throughput(rec), metrics.Ratio(2.0, 4.0))

    def test_end_to_end_takes_medians(self):
        passes = [record("plain", [point("a", "d")], wall_s=w,
                         peak_rss_kb=1024 * m)
                  for w, m in ((1.0, 10), (2.0, 30), (4.0, 20))]
        setups = [{"mode": "setup", "setup_s": t} for t in (0.02, 0.04, 0.03)]
        raw = metrics.measured(passes, setups)
        self.assertAlmostEqual(raw["minstr_per_s"], 0.0005)
        self.assertEqual(raw["peak_rss_mb"], 20)
        self.assertEqual(raw["setup_s"], 0.03)  # the set-up-only passes'
        self.assertEqual(set(raw), set(metrics.END_TO_END))

    def test_host_time_is_scaled_to_the_reference_speed(self):
        passes = [record("plain", [point("a", "d", budget=4_000_000)],
                         wall_s=2.0, peak_rss_kb=1024 * 8)]
        setups = [{"mode": "setup", "setup_s": 0.003}]
        ref = metrics.REFERENCE_PROBE_S
        # Probes at twice the reference time: the host ran half as fast.
        probes = [{"probe_s": 2 * ref * f} for f in (0.9, 1.0, 1.6)]
        self.assertEqual(metrics.host_factor(probes),
                         metrics.Ratio(2 * ref, ref))
        e2e = metrics.end_to_end(passes, setups, probes)
        self.assertAlmostEqual(e2e["minstr_per_s"], 4.0)  # 2 Minstr/s × 2
        self.assertAlmostEqual(e2e["setup_s"], 0.0015)
        self.assertEqual(e2e["peak_rss_mb"], 8)  # memory is not scaled

    def grid(self, digests, store="s0", mode="plain", block=0,
             workload="detailed-long"):
        """A pass of `workload` whose every store has digest `store`."""
        return record(mode, [point(str(i), d) for i, d in enumerate(digests)],
                      stores=[store] * metrics.CAMPAIGNS[workload],
                      block=block)

    def test_check_counts_failed_points_against_attempted(self):
        n = metrics.POINT_COUNTS["detailed-long"]
        ok = ["d%d" % i for i in range(n)]
        quarantined = list(ok)
        quarantined[3] = None
        ref = self.grid(quarantined)
        passes = [self.grid(quarantined), self.grid(quarantined, mode="traced")]
        chk = metrics.check("detailed-long", passes, ref)
        self.assertEqual((chk.attempted, chk.failed, chk.mismatched),
                         (2 * n, 2, 0))

    def test_check_flags_a_differing_point(self):
        n = metrics.POINT_COUNTS["detailed-long"]
        ok = ["d%d" % i for i in range(n)]
        bad = list(ok)
        bad[5] = "other"
        chk = metrics.check("detailed-long",
                            [self.grid(ok), self.grid(bad)], self.grid(ok))
        self.assertEqual((chk.failed, chk.mismatched), (1, 1))

    def test_check_fails_a_whole_pass_whose_store_bytes_differ(self):
        n = metrics.POINT_COUNTS["detailed-long"]
        ok = ["d%d" % i for i in range(n)]
        chk = metrics.check("detailed-long", [self.grid(ok, store="s1")],
                            self.grid(ok))
        self.assertEqual((chk.failed, chk.mismatched), (n, n))

    def test_each_block_is_checked_against_its_slice_of_the_reference(self):
        n = metrics.POINT_COUNTS["detailed-long"]
        b0 = ["a%d" % i for i in range(n)]
        b1 = ["b%d" % i for i in range(n)]
        c = metrics.CAMPAIGNS["detailed-long"]
        ref = record("reference",
                     [point(str(i), d) for i, d in enumerate(b0 + b1)],
                     stores=["s0"] * c + ["s1"] * c)
        good = [self.grid(b0), self.grid(b1, store="s1", block=1)]
        chk = metrics.check("detailed-long", good, ref)
        self.assertEqual((chk.attempted, chk.failed, chk.mismatched),
                         (2 * n, 0, 0))
        # Block 0's results reported as block 1 differ at every point.
        chk = metrics.check("detailed-long", [self.grid(b0, block=1)], ref)
        self.assertEqual((chk.failed, chk.mismatched), (n, n))
        # A block the reference does not cover fails as a wrong size.
        chk = metrics.check("detailed-long", [self.grid(b0, block=2)], ref)
        self.assertEqual((chk.failed, chk.mismatched), (n, n))

    def test_sampled_passes_that_agree_only_with_each_other_fail(self):
        n = metrics.POINT_COUNTS["sampled-long"]
        ref = ["d%d" % i for i in range(n)]

        def grid(digests):
            return self.grid(digests, workload="sampled-long")

        chk = metrics.check("sampled-long", [grid(ref), grid(ref)], grid(ref))
        self.assertEqual((chk.failed, chk.mismatched), (0, 0))
        other = list(ref)
        other[7] = "x"
        chk = metrics.check("sampled-long", [grid(other), grid(other)],
                            grid(ref))
        self.assertEqual((chk.attempted, chk.failed, chk.mismatched),
                         (2 * n, 2, 2))

    def test_check_rejects_a_wrong_grid_size(self):
        chk = metrics.check("detailed-long", [self.grid(["d"])],
                            self.grid(["d"]))
        self.assertEqual((chk.failed, chk.mismatched), (1, 1))

    def test_accuracy_takes_the_worst_point_and_the_bar(self):
        sampled = record("plain", [point("a", "x", ipc=0.8, err=0.05),
                                   point("b", "y", ipc=0.98, err=0.05)])
        full = record("reference", [point("a", "u", ipc=1.0),
                                    point("b", "v", ipc=1.0)])
        acc = metrics.accuracy(sampled, full)
        self.assertAlmostEqual(acc.err_pct, 20.0)
        self.assertTrue(acc.worst.startswith("a "))
        self.assertEqual(acc.in_bar, metrics.Ratio(1, 2))

    def traced(self, wall_s=2.0):
        spans = {name: [0.0, 0] for name in (
            "campaign.expand", "campaign.append", "campaign.compact",
            "campaign.point", "workload.program", "cpu.construct", "cpu.run",
            "sample.plan", "sample.point")}
        spans["campaign.point"] = [3.0, 10]
        spans["workload.program"] = [1.0, 10]
        spans["cpu.run"] = [1.5, 10]
        counts = {"cycles": 1000, "cycles_skipped": 250, "committed": 3_000_000,
                  "recoveries": 30, "lines_fetched": 40, "fetches": 40,
                  "pb_fetches": 10, "l2_misses": 1, "dcache_misses": 2,
                  "prefetches": 20, "budget": 3_000_000,
                  "simulated": 3_000_000, "slices": 0, "cold_starts": 0}
        return record("traced", [], wall_s=wall_s, spans=spans, counts=counts)

    def test_layer_ratios_carry_their_bases(self):
        r = metrics.layer_ratios(self.traced(), sampled=False)
        self.assertEqual(r["cpu.skip_frac"], metrics.Ratio(250, 1000))
        self.assertEqual(r["cpu.kernel_minstr_per_s"], metrics.Ratio(3.0, 1.5))
        self.assertEqual(r["bpred.mpki"], metrics.Ratio(30_000, 3_000_000))
        self.assertEqual(r["prefetch.useful_frac"], metrics.Ratio(10, 20))
        self.assertEqual(r["campaign.busy_frac"], metrics.Ratio(3.0, 4.0))
        self.assertEqual(r["trace.coverage"], metrics.Ratio(2.5, 3.0))
        self.assertEqual(r["sample.cold_start_frac"].value, 0.0)

    def test_per_layer_reports_every_declared_metric(self):
        layers = metrics.per_layer([self.traced(2.2)],
                                   [record("plain", [], wall_s=2.0)],
                                   sampled=False, acc=None)
        self.assertEqual(set(layers), set(metrics.PER_LAYER))
        self.assertEqual(layers["trace.overhead"][1], metrics.Ratio(2.2, 2.0))

    def test_benchmark_json_matches_the_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(metrics.WORKLOADS))
        for section, table in (("end_to_end", metrics.END_TO_END),
                               ("per_layer", metrics.PER_LAYER)):
            self.assertEqual({m["name"]: (m["unit"], m["better"])
                              for m in spec[section]},
                             {k: v[:2] for k, v in table.items()})


def bench(workload, env=None, seconds=1, trace=1):
    """A shortened run.py run; returns (exit code, last stdout line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class ShortRuns(unittest.TestCase):
    def test_each_workload_passes_the_correctness_check(self):
        for workload in metrics.WORKLOADS:
            with self.subTest(workload=workload):
                code, out = bench(workload)
                self.assertEqual(code, 0)
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertEqual(set(out["metrics"]), set(metrics.PER_LAYER))

    def test_untraced_run_reports_the_end_to_end_metrics(self):
        code, out = bench("grid-short", trace=0)
        self.assertEqual(code, 0)
        self.assertTrue(out["correct"])
        self.assertEqual(set(out["metrics"]), set(metrics.END_TO_END))
        setup = out["metrics"]["setup_s"]["value"]
        self.assertTrue(0 < setup < 1, setup)

    def test_forced_point_failures_count_in_failed(self):
        binary = run.build(ROOT)
        work = run.build_dir(ROOT) / "runs" / "selftest"
        try:
            keys = [p[1] for p in run.run_pass(binary, "grid-short", 7,
                                               "plain", work)["points"]]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        needle = keys[0][:4]
        failing = sum(needle in k for k in keys)
        env = dict(os.environ,
                   PRESTAGE_FAULTS=f"point.execute:throw@key={needle}")
        code, out = bench("grid-short", env=env)
        self.assertEqual(code, 0)
        self.assertTrue(out["correct"])
        passes = out["attempted"] // len(keys)
        self.assertEqual(out["attempted"], passes * len(keys))
        self.assertEqual(out["failed"], passes * failing)


if __name__ == "__main__":
    unittest.main()
