"""Self-tests of the benchmark's own logic.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import unittest
from fractions import Fraction
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class StreamTest(unittest.TestCase):
    def setUp(self):
        self.shapes = workloads.service_shapes()

    def test_shape_space(self):
        self.assertEqual(len(self.shapes), 22 * 4)
        programs = {shape.program for shape in self.shapes}
        self.assertFalse(programs & workloads.SERVICE_MIX_EXCLUDED)

    def test_deterministic_per_seed(self):
        first = list(islice(workloads.service_stream(7, self.shapes), 300))
        again = list(islice(workloads.service_stream(7, self.shapes), 300))
        other = list(islice(workloads.service_stream(8, self.shapes), 300))
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_repeats_about_half_until_every_shape_was_sent(self):
        seen, sent = set(), 0
        for shape in workloads.service_stream(3, self.shapes):
            seen.add(shape)
            sent += 1
            if len(seen) == len(self.shapes):
                break
        self.assertTrue(0.4 <= 1 - len(seen) / sent <= 0.6, sent)

    def test_cold_order_is_a_seeded_permutation(self):
        names = workloads.quick_suite_names()
        order = workloads.cold_suite_order(5, names)
        self.assertEqual(order, workloads.cold_suite_order(5, names))
        self.assertEqual(sorted(order), sorted(set(names) - workloads.COLD_SUITE_EXCLUDED))


class PercentileTest(unittest.TestCase):
    def test_ten_samples_beyond_p95_needs_200(self):
        self.assertTrue(gate.tail_resolved(200, 0.95))
        self.assertFalse(gate.tail_resolved(199, 0.95))
        self.assertEqual(gate.samples_beyond(200, 0.95), 10)

    def test_harrell_davis_estimate(self):
        samples = [float(value) for value in range(1, 201)]
        self.assertAlmostEqual(gate.percentile(samples, 0.95), 190.5, places=6)
        self.assertAlmostEqual(gate.percentile(samples, 0.5), 100.5)
        self.assertAlmostEqual(gate.percentile(list(reversed(samples)), 0.5), 100.5)
        self.assertEqual(sum(sample > gate.percentile(samples, 0.95) for sample in samples), 10)
        self.assertEqual(gate.percentile([3.0], 0.95), 3.0)


def _span(span_id, name, start, end, parent=None, request_id="r1"):
    return {
        "id": span_id,
        "parent": parent,
        "name": name,
        "request_id": request_id,
        "start": start,
        "end": end,
        "attrs": {},
        "cost": 0.0,
    }


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            _span("1.0", "api.engine", 0.0, 10.0),
            _span("1.1", "reduction", 1.0, 4.0, parent="1.0"),
            _span("1.2", "solvers.solve", 3.0, 6.0, parent="1.0"),
            _span("1.3", "reduction.pairs", 2.0, 3.0, parent="1.1"),
        ]
        self_time = tracing.self_times(spans)
        self.assertAlmostEqual(self_time["1.0"], 5.0)  # children cover [1, 6]
        self.assertAlmostEqual(self_time["1.1"], 2.0)
        self.assertAlmostEqual(self_time["1.2"], 3.0)
        self.assertAlmostEqual(self_time["1.3"], 1.0)

    def test_worker_job_is_a_child_of_the_hop(self):
        spans = [
            _span("1.0", "api.hop", 0.0, 5.0),
            _span("2.0", "api.run_job", 1.0, 4.5),
            _span("2.1", "api.run_job", 1.0, 2.0, request_id="other"),
        ]
        self.assertAlmostEqual(tracing.self_times(spans)["1.0"], 1.5)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from repro.api import Engine, SynthesisRequest

        cls.document = workloads.request_document("freire1")
        with Engine() as engine:
            response = engine.synthesize(SynthesisRequest.from_dict(cls.document))
        cls.envelope = json.loads(json.dumps(response.to_dict(), default=str))

    def test_answer_is_verified(self):
        self.assertEqual(gate.failure_reasons(self.envelope, exact=True), [])

    def test_recheck_rejects_a_tampered_certificate(self):
        tampered = copy.deepcopy(self.envelope["certificate"])
        name = sorted(tampered["assignment"])[0]
        tampered["assignment"][name] = str(Fraction(tampered["assignment"][name]) + Fraction(1, 7))
        items = [
            {"key": "good", "request": self.document, "degree": None, "certificate": self.envelope["certificate"]},
            {"key": "bad", "request": self.document, "degree": None, "certificate": tampered},
        ]
        with tempfile.TemporaryDirectory() as work_dir:
            results = gate.run_recheck(items, work_dir, ROOT)["results"]
        self.assertEqual({result["key"]: result["ok"] for result in results}, {"good": True, "bad": False})

    def test_unverified_and_errors_fail(self):
        unverified = dict(self.envelope, verification={"verified": False})
        self.assertEqual(gate.failure_reasons(unverified, exact=True), ["unverified"])
        self.assertEqual(gate.failure_reasons(unverified, exact=False), [])
        self.assertEqual(gate.failure_reasons(None, exact=False, error="timeout"), ["timeout"])

    def test_repeat_key_sees_a_changed_invariant(self):
        changed = dict(self.envelope, invariants={"changed": True})
        self.assertNotEqual(gate.answer_key(changed), gate.answer_key(self.envelope))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_run_length_counts_whole_units(self):
        self.assertTrue(run.another_unit(0, 0.0, 45, 1))
        self.assertFalse(run.another_unit(1, 43.0, 45, 1))  # a second pass would end at 86 s
        self.assertTrue(run.another_unit(2, 40.0, 45, 3))  # the minimum comes first
        self.assertFalse(run.another_unit(3, 45.0, 45, 3))  # a fourth stream would end at 60 s
        self.assertTrue(run.another_unit(3, 33.0, 45, 3))  # ... but at 44 s it fits


if __name__ == "__main__":
    unittest.main()
