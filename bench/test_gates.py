#!/usr/bin/env python3
"""Self-test for bench/check_gates.py: every gate still fails when it should.

Usage: test_gates.py BENCH_BUILD_DIR BENCH_PR8.json

Each gate's real report (the smoke runs' bench_smoke_*.json, and the
committed BENCH_PR8.json for the speedup gate) must pass unmodified. Then,
for each defect below, a copy of that report gets the one planted defect,
and check_gates.py must exit 1 on it.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

FIXTURES = {
    "ringops": "bench_smoke_bench_magazine.json",
    "pipeline": "bench_smoke_bench_pipeline.json",
    "pipeline_speedup": "BENCH_PR8.json",
    "latency": "bench_smoke_bench_latency.json",
}


def panel(report, workload):
    return next(p for p in report["panels"] if p["workload"] == workload)


def point(report, workload, name):
    """First point of series `name` in the `workload` panel."""
    s = next(s for s in panel(report, workload)["series"] if s["name"] == name)
    return s["points"][0]


def drop(report, workload, name):
    p = panel(report, workload)
    p["series"] = [s for s in p["series"] if s["name"] != name]


def latency(report, name):
    return next(s for s in report["series"] if s["name"] == name)


def mag_cut_39(r):
    base = point(r, "p5050", "Bounded-nomag")["ring_faa_per_op_mean"]
    point(r, "p5050", "Bounded")["ring_faa_per_op_mean"] = base * 0.61


def set_key(where, key, v):
    where[key] = v


def p99_below_p90(r):
    lat = latency(r, "park")["latency_ns"]
    lat["p99"] = lat["p90"] - 1


def speedup_119(r):
    base = point(r, "p8to1", "Sharded-wCQ")["mops_mean"]
    point(r, "p8to1", "Sharded-pipeline")["mops_mean"] = base * 1.19


# (gate, defect, mutation applied to a copy of the gate's fixture)
DEFECTS = [
    ("ringops", "magazine reduction of 39%", mag_cut_39),
    ("ringops", "handle registry/op of 1.01", lambda r: set_key(
        point(r, "p5050", "Bounded-handle"), "registry_per_op_mean", 1.01)),
    ("ringops", "deleted Bounded-nomag series",
     lambda r: drop(r, "p5050", "Bounded-nomag")),
    ("pipeline", "MPSC consumer faa/op of 1e-6", lambda r: set_key(
        point(r, "p8to1", "Mpsc"), "cons_faa_per_op_mean", 1e-6)),
    ("pipeline", "MPSC consumer thld/op of 1e-6", lambda r: set_key(
        point(r, "p8to1", "Mpsc"), "cons_thld_per_op_mean", 1e-6)),
    ("pipeline", "deleted Mpsc series", lambda r: drop(r, "p8to1", "Mpsc")),
    ("pipeline_speedup", "speedup of 1.19x", speedup_119),
    ("pipeline_speedup", "deleted Sharded-wCQ series",
     lambda r: drop(r, "p8to1", "Sharded-wCQ")),
    ("latency", "lost=1", lambda r: set_key(latency(r, "spin"), "lost", 1)),
    ("latency", "p99 < p90", p99_below_p90),
    ("latency", "stranded=1", lambda r: set_key(
        latency(r, "park")["channel"], "stranded", 1)),
    ("latency", "spin recv_parks=1", lambda r: set_key(
        latency(r, "spin")["channel"], "recv_parks", 1)),
    ("latency", "deleted park series", lambda r: r.update(
        series=[s for s in r["series"] if s["name"] != "park"])),
]


def check(gate, report, tmpdir):
    path = os.path.join(tmpdir, f"{gate}.json")
    with open(path, "w") as f:
        json.dump(report, f)
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "check_gates.py"), "--gate", gate,
         path], stdout=subprocess.DEVNULL).returncode


def main():
    build_dir, pr8 = sys.argv[1], sys.argv[2]
    reports = {}
    for gate, name in FIXTURES.items():
        path = pr8 if name == "BENCH_PR8.json" else os.path.join(build_dir, name)
        with open(path) as f:
            reports[gate] = json.load(f)
    failures = 0
    with tempfile.TemporaryDirectory() as tmpdir:
        for gate, report in reports.items():
            rc = check(gate, report, tmpdir)
            print(f"test_gates: {gate}: unmodified report exits {rc} "
                  f"{'ok' if rc == 0 else 'FAIL (want 0)'}")
            failures += rc != 0
        for gate, what, plant in DEFECTS:
            report = copy.deepcopy(reports[gate])
            plant(report)
            rc = check(gate, report, tmpdir)
            print(f"test_gates: {gate}: {what} exits {rc} "
                  f"{'ok' if rc == 1 else 'FAIL (want 1)'}")
            failures += rc != 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
