#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--sets 2]
                                [--seconds 10] [--out perfbench/spread.json]

Runs each workload once per seed through run.py with --trace 0, in --sets
sets of --seeds seeds each (set k uses seeds k*N+1 .. k*N+N), and reports,
per set, workload and metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. With two or more sets it
also reports how much worse each later set's median is than the first
set's, as a share of the first (negative: better). channel_openloop's p99
handoff, a per-layer metric, is read from the run's report line and listed
the same way. It fails when a run fails.
"""
import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["mpmc_p5050", "sharded_pipeline", "channel_openloop",
             "unbounded_burst"]
P99 = re.compile(r"handoff p50 [\d.]+ us, p99 ([\d.]+) us")


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    values = {n: m["value"] for n, m in json.loads(lines[-1])["metrics"].items()}
    for line in lines:
        m = P99.search(line)
        if m:
            values["handoff_p99_us"] = float(m.group(1))
    return values


def summary(vs):
    q1, med, q3 = statistics.quantiles(vs, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": round(spread, 4),
            "values": vs}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    report = {"seeds": args.seeds, "seconds": args.seconds, "sets": [],
              "drift": {}}
    for k in range(args.sets):
        seeds = range(k * args.seeds + 1, (k + 1) * args.seeds + 1)
        rows = {}
        for w in args.workloads.split(","):
            values = {}
            for seed in seeds:
                for name, v in run(w, seed, args.seconds).items():
                    values.setdefault(name, []).append(v)
            rows[w] = {}
            for name, vs in values.items():
                row = summary(vs)
                bound = spec[name]["bound"] if name in spec else None
                row["bound"] = bound
                rows[w][name] = row
                flag = ("" if bound is None or name == "setup_s"
                        or row["spread"] <= bound / 3 else "  <-- wide")
                print(f"set {k + 1} {w:18s} {name:26s} median "
                      f"{row['median']:12.5g} spread {row['spread']:7.4f} "
                      f"bound {bound}{flag}", flush=True)
        report["sets"].append({"seeds": [seeds[0], seeds[-1]],
                               "workloads": rows})
    first = report["sets"][0]["workloads"]
    for k, later in enumerate(report["sets"][1:], start=2):
        for w, rows in later["workloads"].items():
            for name, row in rows.items():
                if name not in spec:
                    continue
                m0 = first[w][name]["median"]
                worse = (row["median"] - m0) / m0
                if spec[name]["better"] == "higher":
                    worse = -worse
                report["drift"].setdefault(f"set{k}", {}).setdefault(
                    w, {})[name] = round(worse, 4)
                flag = "  <-- over bound" if worse > spec[name]["bound"] else ""
                print(f"set {k} vs 1 {w:18s} {name:26s} worse by "
                      f"{worse:8.4f} bound {spec[name]['bound']}{flag}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
