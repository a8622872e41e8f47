"""Self-tests of the benchmark; each starts at most a few sub-second processes.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import itertools
import json
import os
import time
import unittest

import cases
import run
import tracer

SMALL = ("char", "--n", "4", "--lambda", "1,1,1,1", "--s", "1")


def deadline():
    return time.monotonic() + 60


class SeedTest(unittest.TestCase):
    def test_same_seed_same_order(self):
        a, b = cases.pass_orders(cases.DEMAZURE_CLI, 7), cases.pass_orders(cases.DEMAZURE_CLI, 7)
        first = [next(a) for _ in range(3)]
        self.assertEqual(first, [next(b) for _ in range(3)])
        self.assertTrue(all(sorted(o) == sorted(cases.DEMAZURE_CLI) for o in first))
        other = cases.pass_orders(cases.DEMAZURE_CLI, 8)
        self.assertNotEqual(first, [next(other) for _ in range(3)])


class OutputCheckTest(unittest.TestCase):
    def test_digest_catches_one_byte_change(self):
        expected = cases.load_expected()
        proc = run.spawn(run.minaff_cmd(SMALL), deadline())
        self.assertTrue(run.cli_ok(proc, SMALL, expected))
        out = bytearray(proc.out)
        out[len(out) // 2] ^= 1
        self.assertFalse(run.cli_ok(proc._replace(out=bytes(out)), SMALL, expected))

    def test_refused_input_counts_as_failure(self):
        sample = run.cli_sample(cases.REFUSED, cases.load_expected(), deadline(), 0)
        self.assertEqual((sample["attempted"], sample["failed"]), (1, 1))
        self.assertLess(sample["wall"], 30)
        self.assertEqual(run.spawn(run.minaff_cmd(cases.REFUSED), deadline()).code, 2)


class MetricsTest(unittest.TestCase):
    def test_samples_scaled_by_neighbouring_probes(self):
        nominal = run.REFERENCE_NOMINAL_S

        def sample(wall, *factors):
            probes = [(0.1, f * nominal) for f in factors]
            return {"wall": wall, "cpu": wall, "rss_mb": 50.0, "probes": probes}

        # Scaled, case a reads 3.0, 1.0 and 3.0 s, case b 1.0 s.
        samples = {
            "a": [sample(6.0, 2, 2), sample(2.0, 1, 3, 2), sample(9.0, 3)],
            "b": [sample(5.0, 5, 4, 6)],
        }
        probes = [(0.4, 3 * nominal), (0.6, 2 * nominal), (0.2, 1 * nominal)]
        metrics, raw, host = run.end_to_end_metrics(samples, probes)
        self.assertAlmostEqual(host, 2.0)
        self.assertEqual((raw["wall_s"], raw["setup_s"], raw["peak_rss_mb"]), (11.0, 0.4, 50.0))
        self.assertAlmostEqual(metrics["wall_s"], 4.0)
        self.assertAlmostEqual(metrics["table_s_p50"], 2.0)
        self.assertAlmostEqual(metrics["setup_s"], 0.2)
        self.assertEqual(metrics["peak_rss_mb"], 50.0)
        self.assertEqual(list(metrics), [name for name, _, _ in run.END_TO_END])

    def test_each_sample_keeps_the_probe_blocks_beside_it(self):
        calls = iter(range(100))
        # With no time to measure, only the first pass runs.
        samples, probes = run.timed_samples(
            0, itertools.repeat([("a", 1), ("b", 2)]), lambda unit: {"unit": unit}, lambda: next(calls)
        )
        self.assertEqual(probes, list(range(6)))
        self.assertEqual([s["probes"] for s in samples["a"] + samples["b"]], [[0, 1, 2, 3], [2, 3, 4, 5]])


class TraceTest(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        # root [0, 10] has children [1, 4] and [3, 6] (overlapping) and [8, 9];
        # the first child has a grandchild [2, 3].
        spans = [
            ["root", 0.0, 10.0, None, "c", None],
            ["a", 1.0, 4.0, 0, "c", None],
            ["b", 3.0, 6.0, 0, "c", None],
            ["c", 8.0, 9.0, 0, "c", None],
            ["d", 2.0, 3.0, 1, "c", None],
        ]
        self.assertEqual(tracer.self_times(spans), [4.0, 2.0, 3.0, 1.0, 1.0])

    def test_missing_function_and_failed_count_are_reported(self):
        class Owner:
            @staticmethod
            def f(x):
                return x

        tr = tracer.Tracer()
        self.assertFalse(tr.wrap(Owner, "gone", "polyring.gone"))
        self.assertTrue(tr.wrap(Owner, "f", "polyring.demazure", lambda a, r: {"out": len(r)}))
        self.assertEqual(Owner.f(3), 3)  # len(3) raises inside the count only
        self.assertIn("measure_error", tr.spans[0][tracer.ATTRS])
        self.assertEqual(tracer.layer_metrics(tr.spans)["trace.measure_errors"], 1)

    def test_traced_output_equals_untraced(self):
        plain = run.spawn(run.minaff_cmd(SMALL), deadline())
        traced = run.spawn([run.PY, run.WORKER, *SMALL], deadline())
        record = json.loads(traced.out)
        self.assertEqual(record["code"], 0)
        self.assertEqual(cases.digest(record["stdout"]), cases.digest(plain.out))
        self.assertEqual(record["unwrapped"], [])
        names = {s[tracer.NAME] for s in record["spans"]}
        self.assertLessEqual({"cli.run", "affinization.character", "polyring.demazure_word"}, names)
        m = tracer.layer_metrics(record["spans"])
        self.assertGreater(m["polyring.w0_pass_terms_in"], 0)
        self.assertGreater(m["polyring.w0_pass_terms_out"], m["polyring.w0_pass_terms_in"])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_metrics(self):
        with open(os.path.join(run.REPO, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(spec["run_seconds"], run.DEFAULT_SECONDS)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(tracer.PER_LAYER)
        )


if __name__ == "__main__":
    unittest.main()
