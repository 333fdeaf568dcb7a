#!/usr/bin/env python3
"""Check one gate declared in bench/gates.json against a bench JSON report.

Usage: check_gates.py --gate NAME REPORT.json

A gate picks its records in one of two ways:
  "workload": W   wcq_bench reports: in every panel with workload W, a
                  check's records are the points of its "series" (paired by
                  thread count with the points of its "vs" series, if any);
  "bench": B      reports whose "bench" field is B (bench_latency): a
                  check's records are its named top-level series.
Each check then asserts one of these on every record:
  "eq": [a, b]          |a - b| <= "tol" (default 0)
  "le": [a, b, ...]     a <= b <= ...
  "min_reduction": x    1 - metric / vs-metric >= x
  "min_ratio": x        metric / vs-metric >= x
where a, b, ... are numbers or dotted keys into the record. A missing
panel, series or key, or a check with no comparable points, fails the gate.
Counter and accounting properties only: the gates hold on a 1-core host.

Exit status: 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import sys


GATES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gates.json")


class GateError(Exception):
    pass


def value(rec, ref):
    if not isinstance(ref, str):
        return ref
    v = rec
    for part in ref.split("."):
        if not isinstance(v, dict) or part not in v:
            raise GateError(f"missing key {ref!r}")
        v = v[part]
    return v


def series_points(panel, name):
    for s in panel.get("series", []):
        if s.get("name") == name:
            return {p["threads"]: p for p in s.get("points", [])}
    raise GateError(f"panel {panel.get('caption')!r} lacks series {name!r}")


def records(report, gate, check):
    """(label, record, vs-record or None) for every record a check covers."""
    names = check["series"]
    names = [names] if isinstance(names, str) else names
    if "bench" in gate:
        if report.get("bench") != gate["bench"]:
            raise GateError(f"not a {gate['bench']!r} report")
        series = {s.get("name"): s for s in report.get("series", [])}
        for name in names:
            if name not in series:
                raise GateError(f"series {name!r} missing from report")
        return [(f"[{name}]", series[name], None) for name in names]

    panels = [p for p in report.get("panels", [])
              if p.get("workload") == gate["workload"]]
    if not panels:
        raise GateError(f"no {gate['workload']!r} panel in report")
    out = []
    for panel in panels:
        for name in names:
            pts = series_points(panel, name)
            ref = series_points(panel, check["vs"]) if "vs" in check else {}
            for t in sorted(pts):
                if "vs" in check and t not in ref:
                    continue
                out.append((f"[{panel.get('caption')}] {name} threads={t}",
                            pts[t], ref.get(t)))
    return out


def verdict(check, rec, ref):
    """(passed, what was compared) for one record."""
    if "eq" in check:
        a, b = (value(rec, r) for r in check["eq"])
        tol = check.get("tol", 0)
        return abs(a - b) <= tol, f"{check['eq'][0]}={a} == {b} (tol {tol})"
    if "le" in check:
        vals = [value(rec, r) for r in check["le"]]
        what = " <= ".join(f"{r}={v}" if isinstance(r, str) else str(r)
                           for r, v in zip(check["le"], vals))
        return all(x <= y for x, y in zip(vals, vals[1:])), what
    metric = check["metric"]
    v = value(rec, metric)
    base = value(ref, metric)
    if base <= 0:
        raise GateError(f"{check['vs']} {metric}={base}, expected > 0")
    if "min_reduction" in check:
        cut = 1.0 - v / base
        return cut >= check["min_reduction"], (
            f"{metric} {base:.3f} -> {v:.3f} (-{cut * 100:.1f}%, need "
            f"{check['min_reduction'] * 100:.0f}%)")
    if "min_ratio" in check:
        ratio = v / base
        return ratio >= check["min_ratio"], (
            f"{metric} {base:.2f} -> {v:.2f} ({ratio:.2f}x, need "
            f"{check['min_ratio']:.2f}x)")
    raise GateError(f"check asserts nothing: {check}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("report", help="bench JSON report (--json=PATH)")
    ap.add_argument("--gate", required=True, help="gate name in gates.json")
    args = ap.parse_args()

    with open(GATES) as f:
        gates = json.load(f)
    if args.gate not in gates:
        ap.error(f"unknown gate {args.gate!r}; gates: {', '.join(gates)}")
    with open(args.report) as f:
        report = json.load(f)

    failures = 0
    try:
        for check in gates[args.gate]["checks"]:
            recs = records(report, gates[args.gate], check)
            if not recs:
                raise GateError(f"{check['series']}: no comparable points")
            for label, rec, ref in recs:
                ok, what = verdict(check, rec, ref)
                print(f"check_gates: {args.gate}: {label} {what} "
                      f"{'ok' if ok else 'FAIL'}")
                failures += not ok
    except GateError as e:
        print(f"check_gates: {args.gate}: FAIL: {e}")
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
