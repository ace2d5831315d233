"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -t perfbench

They cover the generator's determinism, the hand-written known answers
against the bundled corpus, the correctness gate, and the metric names.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import known  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def cli_stdout(argv: list[str]) -> str:
    import l1ax
    import l1ax.cli

    l1ax.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = l1ax.cli.main(argv)
    assert code == 0, argv
    return out.getvalue()


class GeneratorTest(unittest.TestCase):
    def generate(self, workload, seed):
        return gen.generate(workload, seed, "perfbench/out/test")

    def test_same_seed_same_inputs(self):
        for workload in gen.WORKLOADS:
            (a, files_a), (b, files_b) = self.generate(workload, 7), self.generate(workload, 7)
            self.assertEqual([op.argv for op in a], [op.argv for op in b])
            self.assertEqual(files_a, files_b)

    def test_seed_changes_names_not_work(self):
        for workload in ("pool5", "queries"):
            a, _ = self.generate(workload, 1)
            b, _ = self.generate(workload, 2)
            self.assertNotEqual([op.argv for op in a], [op.argv for op in b])
            self.assertEqual(sorted(op.key for op in a), sorted(op.key for op in b))

    def test_keys_are_unique_and_golden(self):
        golden = json.loads(run.GOLDEN.read_text())
        keys = [op.key for w in gen.WORKLOADS for op in self.generate(w, 3)[0]]
        self.assertEqual(len(keys), len(set(keys)))
        self.assertEqual(set(keys), set(golden))

    def test_renamed_names_avoid_reserved_pools(self):
        ops, files = self.generate("queries", 4)
        for op in ops:
            for name in op.back:
                self.assertRegex(name, r"\Az[a-z]{3}\Z")
                self.assertNotIn(name[0], "yuv")

    def test_canonical_digest_does_not_depend_on_seed(self):
        a, _ = self.generate("queries", 11)
        b, _ = self.generate("queries", 12)
        by_key = {op.key: op for op in b}
        renamed = [op for op in a if op.back and op.kind in ("qnt", "characteristic", "nontrivial")]
        for op in renamed[:12]:
            other = by_key[op.key]
            self.assertNotEqual(op.argv, other.argv)
            self.assertEqual(
                gen.canonical_digest(op, cli_stdout(op.argv)),
                gen.canonical_digest(other, cli_stdout(other.argv)),
                op.key,
            )


class KnownAnswersTest(unittest.TestCase):
    def test_table_matches_bundled_corpus(self):
        from l1ax.corpus import CONJECTURES, ESTABLISHED, load_corpus
        from l1ax.syntax import parse_formula

        corpus = load_corpus()
        self.assertEqual(set(corpus.names()), set(known.CORPUS))
        self.assertEqual(known.ESTABLISHED, ESTABLISHED)
        self.assertEqual(known.CONJECTURES, CONJECTURES)
        for name, (arity, formula) in known.CORPUS.items():
            self.assertEqual(parse_formula(formula), corpus[name].body, name)
            self.assertEqual(arity, corpus[name].arity, name)

    def test_extra_formulas_have_their_arity(self):
        from l1ax.formula import name_variables
        from l1ax.syntax import parse_formula

        for name, (arity, formula) in known.EXTRA.items():
            self.assertEqual(len(name_variables(parse_formula(formula))), arity, name)

    def test_proof_scripts_are_the_bundled_ones(self):
        bundled = sorted(p.stem for p in (ROOT / "src" / "l1ax" / "proofs").glob("*.proof"))
        self.assertEqual(list(known.PROOF_SCRIPTS), bundled)


class GateTest(unittest.TestCase):
    def setUp(self):
        ops, _ = gen.generate("queries", 0, "perfbench/out/test")
        self.op = next(op for op in ops if op.key == "qnt Star A_M8")
        self.stdout = cli_stdout(self.op.argv)
        self.golden = json.loads(run.GOLDEN.read_text())

    def test_correct_output_passes(self):
        self.assertEqual(run.problems(self.op, run.Result(0, 0.1, self.stdout), self.golden), [])

    def test_wrong_verdict_fails(self):
        wrong = self.stdout.replace("verdict: quasi-trivial", "verdict: quasi-nontrivial")
        found = run.problems(self.op, run.Result(0, 0.1, wrong), self.golden)
        self.assertTrue(any(p.startswith("verdict") for p in found), found)

    def test_wrong_digest_fails(self):
        golden = {**self.golden, self.op.key: "0" * 64}
        found = run.problems(self.op, run.Result(0, 0.1, self.stdout), golden)
        self.assertTrue(any("golden digest" in p for p in found), found)

    def test_exit_code_fails(self):
        self.assertTrue(run.problems(self.op, run.Result(2, 0.1, self.stdout), self.golden))


class MetricNamesTest(unittest.TestCase):
    def test_names_and_units(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(gen.WORKLOADS))

    def test_per_layer_names_are_what_a_trace_reports(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        empty = tracer.Tracer().summary()
        reported = {**tracer.metrics([empty]), "trace_overhead": (0.0, "ratio")}
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, {k: u for k, (_, u) in reported.items()})


if __name__ == "__main__":
    unittest.main()
