"""Tests for the benchmark: every workload, briefly, on two seeds.

Each workload runs for one second per seed, untraced and traced.  The
tests assert that the result line names every metric BENCHMARK.json
lists, in order, with its unit and a finite value; that every output
check passed (failed = 0); that the seed reaches the inputs (counts
differ between seeds); that layers.json groups every per-layer metric
once and a metric reads 0 on a workload its group does not list; and
that the benchmark refuses to run, without a result line, in a
directory holding only itself.

Run from the repository root:

    python3 perfbench/test_bench.py
"""

import json
import math
import os
import shutil
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LAYERS = json.load(open(os.path.join(ROOT, "perfbench", "layers.json")))
SEEDS = (1, 2)

# per-layer counts that depend on the workload's inputs, per workload
SEED_SENSITIVE = {
    "replay": ["pep.samples.taken", "vm.yieldpoint.polls"],
    "adaptive": ["vm.ticks", "vm.yieldpoint.polls"],
    "fleet": ["fleet.samples", "fleet.store_bytes"],
}

_results = {}


def bench(workload, seed, trace, cwd=ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _results:
        out = bench(workload, seed, trace)
        if out.returncode != 0:
            raise AssertionError("%s exited %d:\n%s" % (key, out.returncode,
                                                        out.stderr[-3000:]))
        _results[key] = json.loads(out.stdout.strip().splitlines()[-1])
    return _results[key]


class Workloads(unittest.TestCase):
    def check_result(self, workload, seed, trace):
        r = result(workload, seed, trace)
        self.assertEqual(sorted(r), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(r["correct"], r)
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(r["metrics"]), [m["name"] for m in want])
        for m in want:
            got = r["metrics"][m["name"]]
            self.assertEqual(sorted(got), ["unit", "value"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def check_layers_listed(self, workload):
        # a per-layer metric whose group does not list the workload reads 0
        r = result(workload, SEEDS[0], 1)
        for g in LAYERS["groups"]:
            if workload not in g["workloads"]:
                for name in g["metrics"]:
                    self.assertEqual(r["metrics"][name]["value"], 0, name)

    def check_seed_reaches_inputs(self, workload):
        a, b = (result(workload, s, 1)["metrics"] for s in SEEDS)
        names = SEED_SENSITIVE[workload]
        self.assertTrue(any(a[n]["value"] != b[n]["value"] for n in names),
                        "seeds %s give the same %s" % (SEEDS, names))


def _add_tests():
    for w in (wl["name"] for wl in SPEC["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                setattr(Workloads, "test_%s_seed%d_trace%d" % (w, seed, trace),
                        lambda self, w=w, s=seed, t=trace: self.check_result(w, s, t))
        setattr(Workloads, "test_%s_seed_reaches_inputs" % w,
                lambda self, w=w: self.check_seed_reaches_inputs(w))
        setattr(Workloads, "test_%s_layers_listed" % w,
                lambda self, w=w: self.check_layers_listed(w))


_add_tests()


class Catalog(unittest.TestCase):
    # The result line's names and units come from main.ml's catalog;
    # the workload tests above check them against BENCHMARK.json.
    def test_layers_json_lists_every_metric_once(self):
        grouped = [m for g in LAYERS["groups"] for m in g["metrics"]]
        self.assertEqual(sorted(grouped),
                         sorted(m["name"] for m in SPEC["per_layer"]))
        self.assertEqual(list(LAYERS["end_to_end"]),
                         [m["name"] for m in SPEC["end_to_end"]])
        names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        for g in LAYERS["groups"]:
            self.assertTrue(set(g["workloads"]) <= workloads, g["layer"])
            self.assertTrue(set(g["moves"]) <= names, g["layer"])


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, "_perfbench_test")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
            out = bench("replay", 1, 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
