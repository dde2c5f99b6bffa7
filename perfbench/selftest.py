"""Tests of the benchmark's own logic: checks, spans, ladder, inputs.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/selftest.py

Each correctness check must reject a tampered answer: a wrong cost or
group price, an altered run document, a ledger that does not match the
charges sent.
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import driver  # noqa: E402
import schedule  # noqa: E402
import spans  # noqa: E402
from repro.serve.market import LiveMarket  # noqa: E402

BODIES = [
    {"scenario": "heter", "case": "b", "n_tasks": 6, "budget": 200},
    {"scenario": "repe", "case": "c", "n_tasks": 8, "budget": 150},
    {"scenario": "homo", "case": "a", "n_tasks": 4, "deadline": 9.0},
]


def served_allocations():
    """What an honest service answers for BODIES, in order."""
    market = LiveMarket(budget=10**9)
    return market, [market.allocate(body) for body in BODIES]


class AllocationChecks(unittest.TestCase):
    def test_honest_answers_pass(self):
        _, docs = served_allocations()
        problems, costs = checks.check_allocations(zip(BODIES, docs))
        self.assertEqual(problems, [])
        self.assertEqual(costs, [d["cost"] for d in docs])

    def test_wrong_cost_is_rejected(self):
        _, docs = served_allocations()
        docs[1]["cost"] += 1
        problems, _ = checks.check_allocations(zip(BODIES, docs))
        self.assertEqual(len(problems), 1)
        self.assertIn("cost", problems[0])

    def test_wrong_group_price_is_rejected(self):
        _, docs = served_allocations()
        docs[0]["group_prices"][0]["price"] += 1
        problems, _ = checks.check_allocations(zip(BODIES, docs))
        self.assertEqual(len(problems), 1)
        self.assertIn("group_prices", problems[0])

    def test_missing_answer_is_rejected(self):
        problems, _ = checks.check_allocations([(BODIES[0], None)])
        self.assertEqual(len(problems), 1)


class LedgerChecks(unittest.TestCase):
    def test_matching_ledger_passes(self):
        market, docs = served_allocations()
        costs = [d["cost"] for d in docs]
        self.assertEqual(checks.check_ledger(market.state_document(), costs, 3), [])

    def test_mismatched_spent_is_rejected(self):
        market, docs = served_allocations()
        costs = [d["cost"] for d in docs]
        costs[0] += 5
        self.assertEqual(len(checks.check_ledger(market.state_document(), costs, 3)), 1)

    def test_mismatched_count_is_rejected(self):
        market, docs = served_allocations()
        costs = [d["cost"] for d in docs]
        self.assertEqual(len(checks.check_ledger(market.state_document(), costs, 4)), 1)


class DocumentChecks(unittest.TestCase):
    RUN = ("0123456789abcdef", {"experiment": "budget-sweep", "params": {
        "family": "repe", "case": "a", "n_tasks": 4, "budgets": [40],
        "strategies": ["ra"], "scoring": "numeric"}}, None)

    def setUp(self):
        self.expected = checks.direct_runs([self.RUN])
        self.rid = self.RUN[0]

    def test_identical_document_passes_without_execution(self):
        served = copy.deepcopy(self.expected[self.rid])
        served["execution"] = {"elapsed": 0.5}
        self.assertEqual(checks.check_documents([(self.rid, served)], self.expected), [])

    def test_altered_document_is_rejected(self):
        served = copy.deepcopy(self.expected[self.rid])
        served["payload"] = {"tampered": True}
        self.assertEqual(len(checks.check_documents([(self.rid, served)], self.expected)), 1)

    def test_unknown_run_is_rejected(self):
        served = copy.deepcopy(self.expected[self.rid])
        self.assertEqual(len(checks.check_documents([("ffff", served)], self.expected)), 1)


class SelfTime(unittest.TestCase):
    def test_children_overlap_counted_once(self):
        recorded = [
            [1, None, "parent", 0.0, 10.0, 7, None, None],
            [2, 1, "child", 1.0, 4.0, 7, None, None],
            [3, 1, "child", 3.0, 6.0, 7, None, None],
            [4, 1, "child", 9.0, 12.0, 7, None, None],  # clipped at 10
        ]
        own = spans.self_times(recorded)
        self.assertAlmostEqual(own[1], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(own[2], 3.0)


class LadderStep(unittest.TestCase):
    def outcomes(self, latency_s, sent_late=0.0):
        out = []
        for i in range(100):
            due = 10.0 + i * 0.01
            o = driver.Outcome(i, due, step=0, status=200)
            o.sent = due + sent_late
            o.done = due + latency_s
            out.append(o)
        return out

    def test_fast_step_passes(self):
        result = driver.evaluate_step(self.outcomes(0.005), 0, 100.0, 10.0, 1.0, 50.0)
        self.assertTrue(result.passed)
        self.assertGreater(result.completed_rps, 90.0)

    def test_slow_step_fails(self):
        result = driver.evaluate_step(self.outcomes(0.2), 0, 100.0, 10.0, 1.0, 50.0)
        self.assertFalse(result.passed)

    def test_failed_request_is_a_miss(self):
        outcomes = self.outcomes(0.005)
        outcomes[3].status = 500
        outcomes[4].status = None
        result = driver.evaluate_step(outcomes, 0, 100.0, 10.0, 1.0, 50.0)
        self.assertFalse(result.passed)


class Inputs(unittest.TestCase):
    def test_allocate_draws_follow_the_seed(self):
        draws = schedule.AllocateDraws()
        a = [draws.draw(np.random.default_rng(3)) for _ in range(5)]
        b = [draws.draw(np.random.default_rng(3)) for _ in range(5)]
        self.assertEqual(a, b)

    def test_run_blocks_are_distinct_and_seeded(self):
        draws = schedule.AllocateDraws()
        a = schedule.distinct_runs(np.random.default_rng(5), 30, draws, set())
        b = schedule.distinct_runs(np.random.default_rng(5), 30, draws, set())
        self.assertEqual(a, b)
        self.assertEqual(len({rid for rid, _, _ in a}), 30)

    def test_open_loop_counts_do_not_depend_on_seed(self):
        ladder = schedule.Ladder(10.0, 1.5, 1.0, 50.0)
        make = lambda t, s: schedule.Request("state", "GET", "/market/state", None, t, s)  # noqa: E731
        counts = {len(schedule.open_loop(np.random.default_rng(seed), make, 20.0, 2.0,
                                         ladder, 2.0)) for seed in range(4)}
        self.assertEqual(counts, {40 + 10 + 15})


if __name__ == "__main__":
    unittest.main()
