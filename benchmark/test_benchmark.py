"""Tests of the benchmark's oracles: each agrees with porism on constructed
pairs of all five intersection types, and each rejects a deliberately
corrupted output.

    python3 -m unittest discover -s benchmark -t benchmark
"""

import copy
import json
import random
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs as gen  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from gf import GF, binary_gf  # noqa: E402
from porism import cli, projective  # noqa: E402

PROG = types.SimpleNamespace(cli=cli, projective=projective)
F11, F13 = GF(11), GF(13)


def pair_of_type(F, target, rng):
    if target in orc.TANGENT_TYPES:
        return gen.tangent_pair(F, rng, target)
    while True:
        outer, inner = gen.random_smooth_pair(F, rng)
        if orc.pencil_type(F, outer, inner) == target:
            return outer, inner


def run_json(command, obj, *extra):
    code, out = W.call_cli(cli.main, [command, "-", "--json", *extra],
                           json.dumps(obj))
    assert code == 0, out
    return json.loads(out)


class PencilAndPeriod(unittest.TestCase):
    def test_pencil_type_of_constructed_pairs(self):
        rng = random.Random(1)
        for F in (F11, F13, gen.F25, gen.F27):
            for target in orc.TANGENT_TYPES:
                for _ in range(3):
                    outer, inner = gen.tangent_pair(F, rng, target)
                    self.assertEqual(orc.pencil_type(F, outer, inner), target)

    def test_osculating_period_is_the_characteristic(self):
        rng = random.Random(2)
        for F in (GF(5), GF(7), F11):
            for target in ("(3,1)", "(4)"):
                outer, inner = gen.tangent_pair(F, rng, target)
                self.assertEqual(orc.poncelet_period(F, outer, inner, 100), F.p)

    def test_char2_rank(self):
        F = binary_gf(3)
        self.assertEqual(F.spec(), "Fq:2^3:1,1,0,1")
        # x0 x1 + x2^2: one hyperbolic pair, rank 2
        self.assertEqual(orc.polar_rank(F, 3, {(0, 1): 1, (2, 2): 1}), 2)
        self.assertEqual(orc.polar_rank(F, 4, {(0, 1): 1, (2, 3): 5}), 4)


class AgreeWithProgram(unittest.TestCase):
    """Every oracle passes porism's own output on all five types."""

    def test_structure_outputs(self):
        rng = random.Random(3)
        for F in (F11, F13, gen.F27):
            for target in orc.ALL_TYPES:
                outer, inner = pair_of_type(F, target, rng)
                for op in W._structure_ops(F, outer, inner, 0, target):
                    code, out = W.execute(op, PROG)
                    problems, failed = op.check(code, out)
                    self.assertEqual(problems, [], (F.spec(), op.label))
                    self.assertFalse(failed)

    def test_porism_check_outputs(self):
        rng = random.Random(4)
        for target in orc.ALL_TYPES:
            outer, inner = pair_of_type(F11, target, rng)
            op = W._porism_op(F11, outer, inner, 0, target)
            problems, failed = op.check(*W.execute(op, PROG))
            self.assertEqual(problems, [], target)
            self.assertFalse(failed)

    def test_char2_outputs(self):
        for op in [op for op in W.structure_round(5) if "char2" in op.label]:
            self.assertEqual(op.check(*W.execute(op, PROG)), ([], False))

    def test_orbit_outputs(self):
        ops = W.orbit_round(6)
        for family in ("osculating", "generic", "euler", "fuss"):
            op = next(op for op in ops if op.label == family)
            self.assertEqual(op.check(*W.execute(op, PROG)), ([], False), family)

    def test_open_start_over_f27_counts_as_failed(self):
        # the fixed F_{3^3} pair #2 closes after 35 steps, beyond the
        # default budget of 10 * char = 30
        op = [op for op in W.check_round(0) if op.label == "F27 fixed #2"][0]
        problems, failed = op.check(*W.execute(op, PROG))
        self.assertEqual(problems, [])
        self.assertTrue(failed)


class RunVerdict(unittest.TestCase):
    """run.check_outputs accepts as correct only an open start whose own-run
    period lies beyond the budget; any problem or exception is incorrect."""

    @classmethod
    def setUpClass(cls):
        cls.op = next(op for op in W.check_round(0) if op.label == "F27 fixed #2")
        cls.code, cls.out = W.execute(cls.op, PROG)

    def verdict(self, out, errors=None):
        return run.check_outputs([self.op], [(self.code, out)], 3, {},
                                 errors or {})[:2]

    def test_open_start_beyond_budget_is_a_correct_failure(self):
        self.assertEqual(self.verdict(self.out), (True, 3))

    def test_failed_operation_with_a_wrong_type_is_incorrect(self):
        report = json.loads(self.out)
        report["type"] = "(4)" if report["type"] != "(4)" else "(2,2)"
        self.assertEqual(self.verdict(json.dumps(report)), (False, 3))

    def test_exception_is_incorrect(self):
        self.assertEqual(self.verdict("RuntimeError: boom", {0: 3}), (False, 3))


class RejectCorruptOutputs(unittest.TestCase):
    """Each oracle notices a deliberately wrong output."""

    @classmethod
    def setUpClass(cls):
        rng = random.Random(7)
        cls.pairs = {t: pair_of_type(F13, t, rng) for t in orc.ALL_TYPES}

    def test_wrong_type(self):
        for target, (outer, inner) in self.pairs.items():
            obj = gen.pair_json(F13, outer, inner)
            other = "(2,2)" if target != "(2,2)" else "(4)"
            report = run_json("porism-check", obj)
            report["type"] = other
            self.assertTrue(orc.check_porism(report, F13, outer, inner, 130)[0])
            data = run_json("classify", obj)
            data["type"] = other
            self.assertTrue(orc.check_classify(data, F13, outer, inner))
            mults = {"(1,1,1,1)": [1, 1, 1, 1], "(2,1,1)": [2, 1, 1],
                     "(2,2)": [2, 2], "(3,1)": [3, 1], "(4)": [4]}[other]
            self.assertTrue(orc.check_intersections(mults, F13, outer, inner))

    def test_wrong_period(self):
        outer, inner = self.pairs["(2,1,1)"]
        report = run_json("porism-check", gen.pair_json(F13, outer, inner))
        good = report["periods"][0]
        report["periods"] = [good + 1] * len(report["periods"])
        report["spectrum"] = [good + 1]
        self.assertTrue(orc.check_porism(report, F13, outer, inner, 130)[0])
        report["periods"][0] = good
        self.assertTrue(orc.check_porism(report, F13, outer, inner, 130)[0])

    def test_moved_tangency_point(self):
        outer, inner = self.pairs["(3,1)"]
        data = run_json("classify", gen.pair_json(F13, outer, inner))
        self.assertEqual(orc.check_classify(data, F13, outer, inner), [])
        pt = data["tangency_points"][0]["coords"]
        pt[0] = str((int(pt[0]) + 1) % 13)
        self.assertTrue(orc.check_classify(data, F13, outer, inner))

    def test_wrong_shape(self):
        outer, inner = self.pairs["(2,1,1)"]
        data = run_json("ecurve", gen.pair_json(F13, outer, inner))
        data["shape"] = "cusp"
        self.assertTrue(orc.check_ecurve(data, F13, outer, inner))

    def test_moved_orbit_point(self):
        ops = W.orbit_round(8)
        for family in ("osculating", "euler"):
            op = next(op for op in ops if op.label == family)
            code, out = W.execute(op, PROG)
            data = json.loads(out)
            bad = copy.deepcopy(data)
            spec = bad["orbit"][1]["c"]["field"]
            bad["orbit"][1]["c"]["coords"][0] = (
                "1/7" if spec == "Q" else f"1/7+0*sqrt({spec[len('Qsqrt:'):]})")
            self.assertTrue(op.check(code, json.dumps(bad))[0], family)

    def test_wrong_euler_period(self):
        op = next(op for op in W.orbit_round(9) if op.label == "euler")
        code, out = W.execute(op, PROG)
        data = json.loads(out)
        data["period"] = 6
        data["orbit"] = data["orbit"] * 2
        self.assertTrue(op.check(code, json.dumps(data))[0])

    def test_wrong_char2_rank(self):
        op = next(op for op in W.structure_round(10) if "char2" in op.label)
        code, out = W.execute(op, PROG)
        data = json.loads(out)
        data["l"] += 1
        self.assertTrue(op.check(code, json.dumps(data))[0])


if __name__ == "__main__":
    unittest.main()
